//! Graph persistence: SNAP-style text edge lists and a compact binary
//! format.
//!
//! The paper's workflow starts from edge lists on disk (LiveJournal and
//! Twitter2010 ship as text files; Table 2 reports their sizes). The text
//! format here is exactly SNAP's: optional `#` comment lines, then one
//! `src<TAB>dst` pair per line. The binary format trades portability for
//! load speed: little-endian, out-adjacency only (in-adjacency is
//! reconstructed on load).

use crate::{DirectedGraph, NodeId};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes the graph as a SNAP-style text edge list with a comment header.
pub fn save_edge_list(g: &DirectedGraph, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# Nodes: {} Edges: {}", g.node_count(), g.edge_count())?;
    writeln!(w, "# SrcNId\tDstNId")?;
    for (s, d) in g.edges() {
        writeln!(w, "{s}\t{d}")?;
    }
    w.flush()
}

/// Loads a SNAP-style text edge list (whitespace-separated pairs, `#`
/// comments ignored). Isolated nodes are not representable in this format.
pub fn load_edge_list(path: &Path) -> io::Result<DirectedGraph> {
    let mut reader = BufReader::new(std::fs::File::open(path)?);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut fields = t.split_whitespace();
        let parse = |f: Option<&str>| -> io::Result<NodeId> {
            f.and_then(|x| x.parse().ok()).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {lineno}: expected `src dst` integers, got {t:?}"),
                )
            })
        };
        let s = parse(fields.next())?;
        let d = parse(fields.next())?;
        edges.push((s, d));
    }
    Ok(graph_from_edges(&edges))
}

const MAGIC: &[u8; 8] = b"RINGOGR1";

/// Writes the graph in the compact binary format (little-endian; magic,
/// node count, then per node its id and out-neighbor list).
pub fn save_binary(g: &DirectedGraph, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(g.node_count() as u64).to_le_bytes())?;
    for id in g.node_ids() {
        w.write_all(&id.to_le_bytes())?;
        let out = g.out_nbrs(id);
        w.write_all(&(out.len() as u32).to_le_bytes())?;
        for &n in out {
            w.write_all(&n.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Loads a graph written by [`save_binary`] (isolated nodes round-trip
/// through this format, unlike the text edge list).
///
/// The file is untrusted: allocations are capped by the bytes left in the
/// file rather than sized from header counts, and a node id listed twice,
/// an out-list that is not strictly ascending, or a neighbor that is not a
/// listed node is rejected with [`io::ErrorKind::InvalidData`].
pub fn load_binary(path: &Path) -> io::Result<DirectedGraph> {
    let file = std::fs::File::open(path)?;
    let mut left = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a Ringo binary graph file".to_string()));
    }
    let n_nodes = read_u64(&mut r)?;
    left = left.saturating_sub(16);
    // A node record is at least 12 bytes (id + degree), a neighbor 8.
    let mut ids = Vec::with_capacity(capped(n_nodes, left / 12));
    let mut outs: Vec<Vec<NodeId>> = Vec::with_capacity(ids.capacity());
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for _ in 0..n_nodes {
        let id = read_i64(&mut r)?;
        let deg = u64::from(read_u32(&mut r)?);
        left = left.saturating_sub(12);
        let mut out = Vec::with_capacity(capped(deg, left / 8));
        for _ in 0..deg {
            let n = read_i64(&mut r)?;
            if out.last().is_some_and(|&prev| prev >= n) {
                return Err(invalid(format!(
                    "out-list of node {id} is not strictly ascending at {n}"
                )));
            }
            out.push(n);
            edges.push((id, n));
        }
        left = left.saturating_sub(8 * deg);
        ids.push(id);
        outs.push(out);
    }
    let mut known = ids.clone();
    known.sort_unstable();
    if let Some(w) = known.windows(2).find(|w| w[0] == w[1]) {
        return Err(invalid(format!("node {} is listed twice", w[0])));
    }
    if let Some(&(s, d)) = edges.iter().find(|e| known.binary_search(&e.1).is_err()) {
        return Err(invalid(format!(
            "edge {s} -> {d} names a node the file does not list"
        )));
    }
    drop(known);
    // Rebuild in-adjacency from the edge list.
    let mut rev: Vec<(NodeId, NodeId)> = edges.iter().map(|&(s, d)| (d, s)).collect();
    rev.sort_unstable();
    let mut parts: Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)> = Vec::with_capacity(ids.len());
    // Map id -> in-list via a single sorted sweep.
    let mut in_lists: std::collections::HashMap<NodeId, Vec<NodeId>> =
        std::collections::HashMap::with_capacity(ids.len());
    for &(d, s) in &rev {
        in_lists.entry(d).or_default().push(s);
    }
    for (id, out) in ids.into_iter().zip(outs) {
        let in_nbrs = in_lists.remove(&id).unwrap_or_default();
        parts.push((id, in_nbrs, out));
    }
    Ok(DirectedGraph::from_parts(parts))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `claimed` as a capacity, but never more than `bound` (what the rest of
/// the file could hold).
fn capped(claimed: u64, bound: u64) -> usize {
    usize::try_from(claimed.min(bound)).unwrap_or(0)
}

/// Builds a graph from raw edges (sequential sort-first; the parallel
/// variant lives in `ringo-convert` to keep this crate dependency-light).
pub fn graph_from_edges(edges: &[(NodeId, NodeId)]) -> DirectedGraph {
    let mut fwd = edges.to_vec();
    let mut rev: Vec<(NodeId, NodeId)> = edges.iter().map(|&(s, d)| (d, s)).collect();
    fwd.sort_unstable();
    fwd.dedup();
    rev.sort_unstable();
    rev.dedup();
    let mut parts: Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < fwd.len() || j < rev.len() {
        let next_out = fwd.get(i).map(|p| p.0);
        let next_in = rev.get(j).map(|p| p.0);
        let id = match (next_out, next_in) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => unreachable!(),
        };
        let mut out = Vec::new();
        while i < fwd.len() && fwd[i].0 == id {
            out.push(fwd[i].1);
            i += 1;
        }
        let mut inn = Vec::new();
        while j < rev.len() && rev[j].0 == id {
            inn.push(rev[j].1);
            j += 1;
        }
        parts.push((id, inn, out));
    }
    DirectedGraph::from_parts(parts)
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_i64(r: &mut impl Read) -> io::Result<i64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(i64::from_le_bytes(b))
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DirectedGraph {
        let mut g = DirectedGraph::new();
        for (s, d) in [(1, 2), (2, 3), (3, 1), (3, 3), (-5, 2)] {
            g.add_edge(s, d);
        }
        g
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ringo_gio_{}_{name}", std::process::id()))
    }

    fn assert_same(a: &DirectedGraph, b: &DirectedGraph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for id in a.node_ids() {
            assert_eq!(a.out_nbrs(id), b.out_nbrs(id), "out of {id}");
            assert_eq!(a.in_nbrs(id), b.in_nbrs(id), "in of {id}");
        }
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let p = tmp("text.txt");
        save_edge_list(&g, &p).unwrap();
        let back = load_edge_list(&p).unwrap();
        assert_same(&g, &back);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_roundtrip_keeps_isolated_nodes() {
        let mut g = sample();
        g.add_node(99);
        let p = tmp("bin.rg");
        save_binary(&g, &p).unwrap();
        let back = load_binary(&p).unwrap();
        assert_same(&g, &back);
        assert!(back.has_node(99));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn text_load_rejects_garbage() {
        let p = tmp("garbage.txt");
        std::fs::write(&p, "# ok\n1\t2\nnot numbers\n").unwrap();
        assert!(load_edge_list(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_load_rejects_wrong_magic() {
        let p = tmp("badmagic.rg");
        // 8 bytes of deliberately-wrong magic plus 8 bytes of padding so
        // the header read succeeds and rejection is on content, not size.
        // (Audited for the env-knob registry: the `RINGO________` tail is
        // not a `RINGO_*` knob — all-underscore tails are excluded, and
        // `NOT` glues onto the word anyway.)
        std::fs::write(&p, b"NOTRINGO________").unwrap();
        assert!(load_binary(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_load_rejects_truncation() {
        let g = sample();
        let p = tmp("trunc.rg");
        save_binary(&g, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load_binary(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    /// A binary file from raw parts: magic, node count, then
    /// `(id, out-list)` records.
    fn write_raw(p: &Path, n_nodes: u64, nodes: &[(i64, &[i64])]) {
        let mut b = MAGIC.to_vec();
        b.extend_from_slice(&n_nodes.to_le_bytes());
        for (id, out) in nodes {
            b.extend_from_slice(&id.to_le_bytes());
            b.extend_from_slice(&(out.len() as u32).to_le_bytes());
            for n in *out {
                b.extend_from_slice(&n.to_le_bytes());
            }
        }
        std::fs::write(p, b).unwrap();
    }

    fn invalid_data(p: &Path) -> bool {
        load_binary(p).is_err_and(|e| e.kind() == io::ErrorKind::InvalidData)
    }

    #[test]
    fn binary_load_huge_node_count_is_an_error_not_an_abort() {
        let p = tmp("huge.rg");
        write_raw(&p, 1 << 40, &[]);
        assert!(load_binary(&p).is_err());
        // A huge degree on a real node record is capped the same way.
        let mut b = MAGIC.to_vec();
        b.extend_from_slice(&1u64.to_le_bytes());
        b.extend_from_slice(&7i64.to_le_bytes());
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&p, b).unwrap();
        assert!(load_binary(&p).is_err());
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_load_rejects_dangling_neighbor() {
        let p = tmp("dangling.rg");
        write_raw(&p, 2, &[(1, &[2, 3]), (2, &[])]);
        assert!(invalid_data(&p), "3 is not a listed node");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn binary_load_rejects_unsorted_or_duplicate_lists() {
        let p = tmp("unsorted.rg");
        write_raw(&p, 3, &[(1, &[3, 2]), (2, &[]), (3, &[])]);
        assert!(invalid_data(&p), "descending out-list");
        write_raw(&p, 2, &[(1, &[2, 2]), (2, &[])]);
        assert!(invalid_data(&p), "duplicate neighbor");
        write_raw(&p, 2, &[(1, &[]), (1, &[])]);
        assert!(invalid_data(&p), "node listed twice");
        write_raw(&p, 2, &[(1, &[1, 2]), (2, &[1])]);
        let g = load_binary(&p).expect("a valid file still loads");
        assert_eq!(g.in_nbrs(1), &[1, 2]);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn graph_from_edges_matches_incremental() {
        let edges = [(4i64, 1i64), (1, 2), (2, 4), (4, 1), (2, 2)];
        let fast = graph_from_edges(&edges);
        let mut inc = DirectedGraph::new();
        for &(s, d) in &edges {
            inc.add_edge(s, d);
        }
        assert_same(&fast, &inc);
    }
}

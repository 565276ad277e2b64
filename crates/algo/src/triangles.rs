//! Undirected triangle counting — the paper's second parallel kernel
//! (Table 3), "directly related to relational joins".
//!
//! We use the forward algorithm over a degree order (Schank and Wagner;
//! the ordering PATRIC and later counters use): rank nodes by
//! `(degree, slot)`, orient every undirected edge from the lower to the
//! higher rank, and count, for every oriented edge `(u, v)`, the common
//! out-neighbors of `u` and `v`. Each triangle is counted exactly once, at
//! its lowest-ranked vertex, and no node's forward list is longer than
//! about `sqrt(2m)`, so a hub costs no more than its neighbors do (over
//! id-ordered lists a hub costs degree²).
//!
//! The forward lists hold neighbor *slots*, filtered per call from the
//! graph version's slot index ([`DirectedTopology::topology`]), so no
//! neighbor id is hashed. Counting marks `u`'s forward list in a
//! per-worker byte array and probes it with each forward neighbor's list,
//! so an oriented edge `(u, v)` costs `|fwd(v)|`, not a merge over both
//! lists. Workers share nothing and reduce partial counts.

use ringo_concurrent::{parallel_for, parallel_map, DisjointSlice, Grain};
use ringo_graph::{DirectedTopology, NodeId, Topology, UndirectedGraph};

/// Counts the number of distinct triangles. Self-loops never form
/// triangles and are ignored. `threads = 1` gives the sequential variant.
pub fn count_triangles(g: &UndirectedGraph, threads: usize) -> u64 {
    let mut sp = ringo_trace::span!("algo.triangles");
    sp.rows_in(g.edge_count());
    let fwd = Forward::build(g.topology(), threads);
    let n = g.n_slots();
    let parts = parallel_map(n, threads, Grain::PerThread, |_, range| {
        let mut mark = vec![false; n];
        let mut count = 0u64;
        for u in range {
            let fu = fwd.row(u);
            for &v in fu {
                mark[v as usize] = true;
            }
            for &v in fu {
                for &w in fwd.row(v as usize) {
                    count += u64::from(mark[w as usize]);
                }
            }
            for &v in fu {
                mark[v as usize] = false;
            }
        }
        count
    });
    let total: u64 = parts.into_iter().sum();
    sp.rows_out(usize::try_from(total).unwrap_or(usize::MAX));
    total
}

/// Degree-oriented adjacency: row `s` lists the neighbors of slot `s`
/// that rank above it by `(degree, slot)`. Each row is the front of a
/// full-degree block, so one pass over the index row fills it.
struct Forward {
    off: Vec<usize>,
    len: Vec<u32>,
    adj: Vec<u32>,
}

impl Forward {
    fn build(topo: &Topology, threads: usize) -> Self {
        let n = topo.n_slots();
        let mut off = Vec::with_capacity(n + 1);
        off.push(0usize);
        for s in 0..n {
            off.push(off[s] + topo.out_degree(s));
        }
        let mut adj = vec![0u32; off[n]];
        let mut len = vec![0u32; n];
        {
            let adj_cell = DisjointSlice::new(&mut adj);
            let len_cell = DisjointSlice::new(&mut len);
            let off = &off;
            let rank = |s: usize| (topo.out_degree(s), s);
            parallel_for(n, threads, Grain::PerThread, |_, range| {
                for u in range {
                    // SAFETY: block `[off[u], off[u + 1])` and entry `u`
                    // belong to slot `u` alone, and chunks partition the
                    // slot range, so each is written by exactly one worker.
                    let row = unsafe { adj_cell.slice_mut(off[u], off[u + 1]) };
                    let mut k = 0;
                    for &v in topo.out_row(u) {
                        if rank(v as usize) > rank(u) {
                            row[k] = v;
                            k += 1;
                        }
                    }
                    // SAFETY: as above — entry `u` is this slot's own.
                    unsafe { len_cell.write(u, k as u32) };
                }
            });
        }
        Self { off, len, adj }
    }

    #[inline]
    fn row(&self, s: usize) -> &[u32] {
        &self.adj[self.off[s]..self.off[s] + self.len[s] as usize]
    }
}

/// Number of triangles incident to each node, as `(id, count)` pairs in
/// slot order. `sum(counts) == 3 * count_triangles(g)`.
pub fn node_triangles(g: &UndirectedGraph, threads: usize) -> Vec<(NodeId, u64)> {
    let n_slots = g.n_slots();
    let parts = parallel_map(n_slots, threads, Grain::PerThread, |_, range| {
        let mut out = Vec::new();
        for slot in range {
            let u = match g.slot_id(slot) {
                Some(id) => id,
                None => continue,
            };
            let u_nbrs = g.nbrs_of_slot(slot);
            // Count unordered neighbor pairs (v, w), v < w, that are
            // adjacent; each such pair closes one triangle at u.
            let mut count = 0u64;
            for (i, &v) in u_nbrs.iter().enumerate() {
                if v == u {
                    continue;
                }
                let v_nbrs = g.nbrs(v);
                for &w in &u_nbrs[i + 1..] {
                    if w == u {
                        continue;
                    }
                    if v_nbrs.binary_search(&w).is_ok() {
                        count += 1;
                    }
                }
            }
            out.push((u, count));
        }
        out
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> UndirectedGraph {
        let mut g = UndirectedGraph::new();
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g.add_edge(1, 3);
        g
    }

    #[test]
    fn single_triangle() {
        assert_eq!(count_triangles(&triangle(), 1), 1);
    }

    #[test]
    fn clique_counts_choose_3() {
        let mut g = UndirectedGraph::new();
        let n = 8i64;
        for a in 0..n {
            for b in (a + 1)..n {
                g.add_edge(a, b);
            }
        }
        // C(8,3) = 56.
        assert_eq!(count_triangles(&g, 1), 56);
        assert_eq!(count_triangles(&g, 4), 56);
    }

    #[test]
    fn path_and_star_have_no_triangles() {
        let mut path = UndirectedGraph::new();
        for i in 0..10 {
            path.add_edge(i, i + 1);
        }
        assert_eq!(count_triangles(&path, 2), 0);
        let mut star = UndirectedGraph::new();
        for i in 1..10 {
            star.add_edge(0, i);
        }
        assert_eq!(count_triangles(&star, 2), 0);
    }

    #[test]
    fn self_loops_do_not_create_triangles() {
        let mut g = triangle();
        g.add_edge(1, 1);
        g.add_edge(2, 2);
        assert_eq!(count_triangles(&g, 1), 1);
        let per_node = node_triangles(&g, 1);
        let total: u64 = per_node.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn node_counts_sum_to_three_times_total() {
        let mut g = UndirectedGraph::new();
        // Two triangles sharing an edge: (1,2,3) and (2,3,4).
        for (a, b) in [(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)] {
            g.add_edge(a, b);
        }
        assert_eq!(count_triangles(&g, 1), 2);
        let per_node = node_triangles(&g, 3);
        let total: u64 = per_node.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 6);
        let of = |id: i64| per_node.iter().find(|(n, _)| *n == id).unwrap().1;
        assert_eq!(of(1), 1);
        assert_eq!(of(2), 2);
        assert_eq!(of(3), 2);
        assert_eq!(of(4), 1);
    }

    #[test]
    fn parallel_matches_sequential_on_random_graph() {
        let mut g = UndirectedGraph::new();
        let mut x = 7u64;
        for _ in 0..3000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (x >> 33) % 200;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (x >> 33) % 200;
            if a != b {
                g.add_edge(a as i64, b as i64);
            }
        }
        let seq = count_triangles(&g, 1);
        let par = count_triangles(&g, 8);
        assert_eq!(seq, par);
        assert!(seq > 0, "random graph dense enough to have triangles");
        let per_node: u64 = node_triangles(&g, 4).iter().map(|(_, c)| c).sum();
        assert_eq!(per_node, 3 * seq);
    }

    #[test]
    fn empty_graph() {
        let g = UndirectedGraph::new();
        assert_eq!(count_triangles(&g, 4), 0);
        assert!(node_triangles(&g, 4).is_empty());
    }
}

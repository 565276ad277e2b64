//! HITS (hubs and authorities) — one of the "various other node centrality
//! measures" the paper's demo offers for finding experts (§4.1 mentions
//! "PageRank, Hits").

use ringo_concurrent::parallel::parallel_for_each_chunk_mut;
use ringo_graph::{DirectedTopology, NodeId, Topology};

/// Hub and authority score of one node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HitsScores {
    /// Hub score: points at good authorities.
    pub hub: f64,
    /// Authority score: pointed at by good hubs.
    pub authority: f64,
}

/// Runs the HITS algorithm for `iterations` rounds with L2 normalization,
/// returning `(id, scores)` pairs in slot order. Authorities pull hub
/// scores over the in-rows of the graph version's
/// [`ringo_graph::Topology`], hubs pull authority scores over its
/// out-rows; each half-step overwrites its own vector in place.
pub fn hits<G: DirectedTopology>(
    g: &G,
    iterations: usize,
    threads: usize,
) -> Vec<(NodeId, HitsScores)> {
    if g.node_count() == 0 {
        return Vec::new();
    }
    let topo = g.topology();
    let n_slots = topo.n_slots();
    let mut hub: Vec<f64> = (0..n_slots)
        .map(|s| if topo.is_live(s) { 1.0 } else { 0.0 })
        .collect();
    let mut auth = hub.clone();

    for _ in 0..iterations {
        // authority[v] = sum of hub[u] over in-neighbors u.
        pull_sums(&mut auth, &hub, topo, Topology::in_row, threads);
        normalize(&mut auth);
        // hub[v] = sum of authority[w] over out-neighbors w.
        pull_sums(&mut hub, &auth, topo, Topology::out_row, threads);
        normalize(&mut hub);
    }

    (0..n_slots)
        .filter_map(|s| {
            g.slot_id(s).map(|id| {
                (
                    id,
                    HitsScores {
                        hub: hub[s],
                        authority: auth[s],
                    },
                )
            })
        })
        .collect()
}

/// `out[s]` = sum of `from` over the slots of `row(s)` for live `s`, 0
/// for vacant slots.
fn pull_sums(
    out: &mut [f64],
    from: &[f64],
    topo: &Topology,
    row: fn(&Topology, usize) -> &[u32],
    threads: usize,
) {
    parallel_for_each_chunk_mut(out, threads, |_, start, chunk| {
        for (off, o) in chunk.iter_mut().enumerate() {
            let s = start + off;
            *o = if topo.is_live(s) {
                row(topo, s).iter().map(|&u| from[u as usize]).sum()
            } else {
                0.0
            };
        }
    });
}

fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_graph::DirectedGraph;

    fn score_of(res: &[(NodeId, HitsScores)], id: NodeId) -> HitsScores {
        res.iter().find(|(n, _)| *n == id).unwrap().1
    }

    #[test]
    fn empty_graph() {
        let g = DirectedGraph::new();
        assert!(hits(&g, 10, 1).is_empty());
    }

    #[test]
    fn hub_and_authority_separate_in_bipartite_graph() {
        let mut g = DirectedGraph::new();
        // Hubs 1..3 all point at authorities 10..11.
        for h in 1..=3 {
            for a in 10..=11 {
                g.add_edge(h, a);
            }
        }
        let res = hits(&g, 30, 1);
        for h in 1..=3 {
            let s = score_of(&res, h);
            assert!(s.hub > 0.4 && s.authority < 1e-9, "hub {h}: {s:?}");
        }
        for a in 10..=11 {
            let s = score_of(&res, a);
            assert!(s.authority > 0.4 && s.hub < 1e-9, "auth {a}: {s:?}");
        }
    }

    #[test]
    fn scores_are_l2_normalized() {
        let mut g = DirectedGraph::new();
        for (s, d) in [(1, 2), (2, 3), (3, 1), (1, 3)] {
            g.add_edge(s, d);
        }
        let res = hits(&g, 25, 1);
        let hub_norm: f64 = res.iter().map(|(_, s)| s.hub * s.hub).sum();
        let auth_norm: f64 = res.iter().map(|(_, s)| s.authority * s.authority).sum();
        assert!((hub_norm - 1.0).abs() < 1e-9);
        assert!((auth_norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut g = DirectedGraph::new();
        let mut x = 99u64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 100;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 100;
            g.add_edge(s as i64, d as i64);
        }
        let a = hits(&g, 15, 1);
        let b = hits(&g, 15, 4);
        for ((ia, sa), (ib, sb)) in a.iter().zip(&b) {
            assert_eq!(ia, ib);
            assert!((sa.hub - sb.hub).abs() < 1e-12);
            assert!((sa.authority - sb.authority).abs() < 1e-12);
        }
    }
}

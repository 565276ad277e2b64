//! Lock-free concurrent union-find and a parallel weakly-connected-
//! components implementation built on it.
//!
//! The sequential WCC in [`crate::components`] is BFS-based; this variant
//! shows the other side of Ringo's substrate: workers process disjoint
//! edge ranges and merge components through an atomic parent array
//! (union by splicing with CAS, find with path halving) — the classic
//! wait-free union-find of Jayanti–Tarjan style used by parallel
//! connected-components codes.

use crate::components::Components;
use ringo_concurrent::{parallel_for, Grain, IntHashTable};
use ringo_graph::{DirectedTopology, NodeId};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A concurrent disjoint-set forest over dense indices `0..n`.
pub struct ConcurrentUnionFind {
    parent: Vec<AtomicUsize>,
}

impl ConcurrentUnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).map(AtomicUsize::new).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Returns the current root of `x`, applying path halving. Safe to
    /// call concurrently with unions; the returned root may be stale by
    /// the time the caller uses it (standard for concurrent union-find —
    /// callers re-check via [`ConcurrentUnionFind::union`]).
    pub fn find(&self, mut x: usize) -> usize {
        loop {
            let p = self.parent[x].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            let gp = self.parent[p].load(Ordering::Acquire);
            if gp == p {
                return p;
            }
            // Path halving: splice x up to its grandparent.
            let _ =
                self.parent[x].compare_exchange_weak(p, gp, Ordering::AcqRel, Ordering::Acquire);
            x = gp;
        }
    }

    /// Merges the sets of `a` and `b` (smaller root id wins, which makes
    /// final roots deterministic regardless of thread interleaving).
    pub fn union(&self, a: usize, b: usize) {
        let (mut x, mut y) = (a, b);
        loop {
            x = self.find(x);
            y = self.find(y);
            if x == y {
                return;
            }
            // Attach the larger-id root beneath the smaller-id root.
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            match self.parent[hi].compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(_) => {
                    // hi gained a parent concurrently; retry from the top.
                    x = lo;
                    y = hi;
                }
            }
        }
    }

    /// True when `a` and `b` are currently in the same set (quiescent
    /// reads only — concurrent unions can invalidate the answer).
    pub fn same(&self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Parallel weakly connected components: workers union the endpoints of
/// disjoint slot ranges' edges, then roots are packed densely. Produces
/// the same partition as [`crate::weakly_connected_components`] (component
/// indices may differ; sizes and membership agree).
pub fn weakly_connected_components_parallel<G: DirectedTopology>(
    g: &G,
    threads: usize,
) -> Components {
    let mut sp = ringo_trace::span!("algo.wcc_parallel");
    sp.rows_in(g.node_count());
    let topo = g.topology();
    let n_slots = topo.n_slots();
    let uf = ConcurrentUnionFind::new(n_slots);
    parallel_for(n_slots, threads, Grain::PerThread, |_, range| {
        for slot in range {
            for &ns in topo.out_row(slot) {
                uf.union(slot, ns as usize);
            }
        }
    });

    // Pack roots into dense component ids (slot order: deterministic).
    let mut root_to_comp: Vec<u32> = vec![u32::MAX; n_slots];
    let mut sizes: Vec<usize> = Vec::new();
    let mut comp_of = IntHashTable::with_capacity(g.node_count());
    for slot in 0..n_slots {
        let id: NodeId = match g.slot_id(slot) {
            Some(id) => id,
            None => continue,
        };
        let root = uf.find(slot);
        if root_to_comp[root] == u32::MAX {
            root_to_comp[root] = sizes.len() as u32;
            sizes.push(0);
        }
        let c = root_to_comp[root];
        sizes[c as usize] += 1;
        comp_of.insert(id, c);
    }
    sp.rows_out(sizes.len());
    Components { comp_of, sizes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::weakly_connected_components;
    use ringo_graph::DirectedGraph;

    #[test]
    fn sequential_union_find_semantics() {
        let uf = ConcurrentUnionFind::new(6);
        assert!(!uf.same(0, 1));
        uf.union(0, 1);
        uf.union(2, 3);
        assert!(uf.same(0, 1));
        assert!(!uf.same(1, 2));
        uf.union(1, 3);
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 5));
        // Smallest id wins as root.
        assert_eq!(uf.find(3), 0);
    }

    #[test]
    fn concurrent_unions_form_one_chain_component() {
        let n = 20_000;
        let uf = ConcurrentUnionFind::new(n);
        parallel_for(n - 1, 8, Grain::PerThread, |_, range| {
            for i in range {
                uf.union(i, i + 1);
            }
        });
        let root = uf.find(0);
        for i in (0..n).step_by(997) {
            assert_eq!(uf.find(i), root);
        }
        assert_eq!(root, 0, "deterministic min-id root");
    }

    #[test]
    fn parallel_wcc_matches_sequential_partition() {
        let mut g = DirectedGraph::new();
        let mut x = 17u64;
        for _ in 0..3_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = (x >> 33) % 800;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = (x >> 33) % 800;
            g.add_edge(s as i64, d as i64);
        }
        g.add_node(100_000); // isolated node
        let seq = weakly_connected_components(&g);
        for threads in [1usize, 4, 8] {
            let par = weakly_connected_components_parallel(&g, threads);
            assert_eq!(par.n_components(), seq.n_components());
            let mut a = par.sizes.clone();
            let mut b = seq.sizes.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "same size multiset");
            // Same partition: pairs in the same sequential component are
            // in the same parallel component.
            let ids: Vec<i64> = g.node_ids().take(200).collect();
            for w in ids.windows(2) {
                assert_eq!(
                    seq.component(w[0]) == seq.component(w[1]),
                    par.component(w[0]) == par.component(w[1]),
                    "{} vs {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = DirectedGraph::new();
        let c = weakly_connected_components_parallel(&g, 4);
        assert_eq!(c.n_components(), 0);
    }
}

//! The per-version slot index: [`Topology`].
//!
//! The §2.2 graphs store neighbor *ids*, so every kernel step that moves
//! from a node to its neighbors' per-slot state needs an id → slot hash
//! lookup. A [`Topology`] pays those lookups once per graph version: it
//! holds the out- and in-adjacency as rows of neighbor *slots* (`u32`, in
//! the graph's adjacency order) behind offset arrays, plus per-slot
//! liveness. Degrees are offset differences.
//!
//! Every [`DirectedTopology`] implementation caches one in a `OnceLock`
//! and hands it out through [`DirectedTopology::topology`]:
//!
//! * it is built on first use (or eagerly when the core crate's catalog
//!   publishes a graph version), recording a `graph.topology` span;
//! * every `&mut` mutation of the graph drops it;
//! * cloning a graph shares it (`Arc`), which is how a compacted version —
//!   same slots, same adjacency order — reuses its parent's index;
//! * the graph's `mem_size` counts it once built: 8 bytes per directed
//!   edge (one `u32` per sense) plus 17 bytes per slot (two `usize`
//!   offsets and a liveness byte); an undirected graph stores one sense.

use crate::traits::{DirectedTopology, Direction};
use crate::NodeId;
use ringo_concurrent::{num_threads, parallel_for, DisjointSlice, Grain};
use std::cell::Cell;

thread_local! {
    static BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Slot-resolved out- and in-adjacency of one graph version.
///
/// Slots are those of the graph it was built from; vacant slots are not
/// live and have empty rows.
#[derive(Debug)]
pub struct Topology {
    live: Vec<bool>,
    n_live: usize,
    out_off: Vec<usize>,
    out_adj: Vec<u32>,
    /// Empty for a symmetric (undirected) graph, whose in-rows are its
    /// out-rows.
    in_off: Vec<usize>,
    in_adj: Vec<u32>,
}

impl Topology {
    /// Builds the index of a directed graph: both senses, neighbor ids
    /// translated to slots with one hash lookup per adjacency entry.
    ///
    /// # Panics
    /// Panics if a neighbor id is not a node of `g` (the graph types
    /// maintain this invariant; the binary loader validates it).
    pub fn build<G: DirectedTopology + ?Sized>(g: &G) -> Self {
        Self::build_with(g, false)
    }

    /// Builds the index of a graph whose in-rows equal its out-rows (an
    /// undirected graph seen as a directed one): only one sense is stored.
    pub fn build_symmetric<G: DirectedTopology + ?Sized>(g: &G) -> Self {
        Self::build_with(g, true)
    }

    fn build_with<G: DirectedTopology + ?Sized>(g: &G, symmetric: bool) -> Self {
        let mut sp = ringo_trace::span!("graph.topology");
        sp.rows_in(g.edge_count());
        BUILDS.with(|b| b.set(b.get() + 1));
        let threads = num_threads();
        let n = g.n_slots();
        let live: Vec<bool> = (0..n).map(|s| g.slot_id(s).is_some()).collect();
        let (out_off, out_adj) = slot_rows(g, threads, |s| g.out_nbrs_of_slot(s));
        let (in_off, in_adj) = if symmetric {
            (Vec::new(), Vec::new())
        } else {
            slot_rows(g, threads, |s| g.in_nbrs_of_slot(s))
        };
        sp.rows_out(out_adj.len() + in_adj.len());
        Self {
            live,
            n_live: g.node_count(),
            out_off,
            out_adj,
            in_off,
            in_adj,
        }
    }

    /// Indexes built on the calling thread since it started. Builds run
    /// on the thread that asked for the index, so a test can count the
    /// builds its own calls caused.
    pub fn builds_on_this_thread() -> u64 {
        BUILDS.with(Cell::get)
    }

    /// Upper bound (exclusive) on slots.
    pub fn n_slots(&self) -> usize {
        self.live.len()
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.n_live
    }

    /// Number of directed edges (entries of the out-rows).
    pub fn edge_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Whether `slot` holds a node.
    #[inline]
    pub fn is_live(&self, slot: usize) -> bool {
        self.live[slot]
    }

    /// Out-neighbor slots of `slot`, in the graph's adjacency order.
    #[inline]
    pub fn out_row(&self, slot: usize) -> &[u32] {
        &self.out_adj[self.out_off[slot]..self.out_off[slot + 1]]
    }

    /// In-neighbor slots of `slot`, in the graph's adjacency order.
    #[inline]
    pub fn in_row(&self, slot: usize) -> &[u32] {
        if self.in_off.is_empty() {
            self.out_row(slot)
        } else {
            &self.in_adj[self.in_off[slot]..self.in_off[slot + 1]]
        }
    }

    /// Out-degree of `slot` (0 when vacant).
    #[inline]
    pub fn out_degree(&self, slot: usize) -> usize {
        self.out_off[slot + 1] - self.out_off[slot]
    }

    /// In-degree of `slot` (0 when vacant).
    #[inline]
    pub fn in_degree(&self, slot: usize) -> usize {
        self.in_row(slot).len()
    }

    /// The rows a traversal along `dir` follows from `slot`: the out-row
    /// or the in-row, and for [`Direction::Both`] the out-row then the
    /// in-row. The second slice is empty unless `dir` is `Both`.
    #[inline]
    pub fn rows(&self, dir: Direction, slot: usize) -> [&[u32]; 2] {
        match dir {
            Direction::Out => [self.out_row(slot), &[]],
            Direction::In => [self.in_row(slot), &[]],
            Direction::Both => [self.out_row(slot), self.in_row(slot)],
        }
    }

    /// Total length of [`Topology::rows`] for `dir`.
    #[inline]
    pub fn degree(&self, dir: Direction, slot: usize) -> usize {
        match dir {
            Direction::Out => self.out_degree(slot),
            Direction::In => self.in_degree(slot),
            Direction::Both => self.out_degree(slot) + self.in_degree(slot),
        }
    }

    /// Heap bytes held by the index.
    pub fn mem_size(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.live.capacity()
            + (self.out_off.capacity() + self.in_off.capacity()) * std::mem::size_of::<usize>()
            + (self.out_adj.capacity() + self.in_adj.capacity()) * std::mem::size_of::<u32>()
    }
}

/// One sense of the index: `off[s]..off[s + 1]` bounds the row of slot
/// `s` in `adj`. Rows are disjoint, so workers fill them in parallel.
fn slot_rows<'g, G, F>(g: &'g G, threads: usize, ids_of: F) -> (Vec<usize>, Vec<u32>)
where
    G: DirectedTopology + ?Sized,
    F: Fn(usize) -> &'g [NodeId] + Sync,
{
    let n = g.n_slots();
    let mut off = Vec::with_capacity(n + 1);
    off.push(0usize);
    for s in 0..n {
        off.push(off[s] + ids_of(s).len());
    }
    let mut adj = vec![0u32; off[n]];
    {
        let cell = DisjointSlice::new(&mut adj);
        let off = &off;
        parallel_for(n, threads, Grain::PerThread, |_, range| {
            for s in range {
                // SAFETY: rows `[off[s], off[s + 1])` are pairwise
                // disjoint, and chunks partition the slot range, so each
                // row is written by exactly one worker.
                let row = unsafe { cell.slice_mut(off[s], off[s + 1]) };
                for (o, &id) in row.iter_mut().zip(ids_of(s)) {
                    *o = match g.slot_of(id) {
                        Some(slot) => slot as u32,
                        None => panic!("neighbor id {id} of slot {s} is not a node"),
                    };
                }
            }
        });
    }
    (off, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectedGraph, UndirectedGraph};

    #[test]
    fn rows_resolve_ids_to_slots_in_adjacency_order() {
        let mut g = DirectedGraph::new();
        for (s, d) in [(10, 30), (10, 20), (30, 10), (20, 20)] {
            g.add_edge(s, d);
        }
        g.add_node(99);
        g.del_node(99); // leaves a vacant slot
        let t = Topology::build(&g);
        assert_eq!(t.n_slots(), g.n_slots());
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 4);
        let slot = |id| g.slot_of(id).unwrap() as u32;
        let s10 = slot(10) as usize;
        assert_eq!(t.out_row(s10), &[slot(20), slot(30)]);
        assert_eq!(t.in_row(s10), &[slot(30)]);
        assert_eq!(
            t.rows(Direction::Both, s10),
            [&[slot(20), slot(30)][..], &[slot(30)][..]]
        );
        assert_eq!(t.degree(Direction::Both, s10), 3);
        let vacant = (0..g.n_slots()).find(|&s| g.slot_id(s).is_none()).unwrap();
        assert!(!t.is_live(vacant));
        assert_eq!(t.degree(Direction::Both, vacant), 0);
        assert!(t.mem_size() >= 8 * t.edge_count());
    }

    #[test]
    fn symmetric_index_stores_one_sense() {
        let mut u = UndirectedGraph::new();
        u.add_edge(1, 2);
        u.add_edge(2, 3);
        let t = Topology::build_symmetric(&u);
        let s2 = u.slot_of(2).unwrap();
        assert_eq!(t.out_row(s2), t.in_row(s2));
        assert_eq!(t.out_row(s2).len(), 2);
        assert_eq!(t.edge_count(), 4);
    }

    #[test]
    fn builds_are_counted_per_thread() {
        let mut g = DirectedGraph::new();
        g.add_edge(1, 2);
        let before = Topology::builds_on_this_thread();
        let a = std::sync::Arc::clone(g.topology());
        let _ = g.topology();
        assert_eq!(Topology::builds_on_this_thread(), before + 1, "cached");
        let copy = g.clone();
        assert!(std::sync::Arc::ptr_eq(&a, copy.topology()), "clones share");
        g.add_edge(2, 3);
        assert_eq!(g.topology().edge_count(), 2, "mutation drops the index");
        assert_eq!(Topology::builds_on_this_thread(), before + 2);
    }
}

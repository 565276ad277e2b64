//! Slot-addressed read access shared by the directed representations.

use crate::topology::Topology;
use crate::NodeId;
use std::sync::Arc;

/// Which edges a directed traversal follows.
///
/// Lives in the graph layer (rather than with any one algorithm) because
/// both the traversal kernels in `ringo-algo` and
/// [`crate::Topology::rows`] are parameterized by it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges (successors).
    Out,
    /// Follow in-edges (predecessors).
    In,
    /// Treat edges as undirected.
    Both,
}

impl Direction {
    /// The opposite sense: the rows a bottom-up pass scans to find who
    /// would have pushed to a node (`Both` is its own reverse).
    pub fn reversed(self) -> Self {
        match self {
            Direction::Out => Direction::In,
            Direction::In => Direction::Out,
            Direction::Both => Direction::Both,
        }
    }
}

/// Read-only, slot-addressed view of a directed graph.
///
/// Slots are dense handles in `0..n_slots()`; a slot may be vacant (after a
/// node deletion in [`crate::DirectedGraph`]) in which case
/// [`DirectedTopology::slot_id`] returns `None`. The adjacency accessors
/// return neighbor *ids*, as the §2.2 representation stores them. Kernels
/// that walk edges read [`DirectedTopology::topology`] instead: the same
/// rows already resolved to neighbor *slots*, built once per graph
/// version, so no kernel pays an id-to-slot hash lookup per edge.
pub trait DirectedTopology: Sync {
    /// Upper bound (exclusive) on slot handles.
    fn n_slots(&self) -> usize;
    /// External id stored in `slot`, or `None` for vacant slots.
    fn slot_id(&self, slot: usize) -> Option<NodeId>;
    /// Slot holding node `id`.
    fn slot_of(&self, id: NodeId) -> Option<usize>;
    /// Sorted out-neighbor ids of the node in `slot`.
    fn out_nbrs_of_slot(&self, slot: usize) -> &[NodeId];
    /// Sorted in-neighbor ids of the node in `slot`.
    fn in_nbrs_of_slot(&self, slot: usize) -> &[NodeId];
    /// Number of (live) nodes.
    fn node_count(&self) -> usize;
    /// Number of directed edges.
    fn edge_count(&self) -> usize;
    /// The slot index of this graph version, built on the first call and
    /// cached until the next mutation (see [`crate::topology`]).
    fn topology(&self) -> &Arc<Topology>;
}

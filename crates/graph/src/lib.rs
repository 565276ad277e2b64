//! In-memory graph structures for Ringo.
//!
//! The paper (§2.2) represents a graph as "a hash table of nodes", each node
//! holding *sorted* adjacency vectors of neighboring nodes. The design
//! deliberately trades a little traversal speed against Compressed Sparse
//! Row (CSR) for cheap dynamic updates: deleting an edge costs time linear
//! in the node degree instead of linear in the total edge count.
//!
//! * [`DirectedGraph`] — the paper's representation for directed graphs:
//!   node hash index over slots, each slot holding sorted in- and
//!   out-neighbor vectors. Space is ~16 bytes per edge plus node overhead,
//!   "similar to those of the Compressed Sparse Row format".
//! * [`UndirectedGraph`] — same idea with a single neighbor vector per node.
//! * [`WeightedDigraph`] — the directed layout with a weight per out-edge.
//! * [`DirectedTopology`] — slot-addressed read access implemented by every
//!   representation so algorithms can run on any of them.
//! * [`Topology`] — the library's only CSR: a read-only index of one graph
//!   version (adjacency rows of neighbor slots), built once and cached, so
//!   whole-graph kernels never hash a neighbor id per edge. An edit costs
//!   `O(degree)` on the graph and drops the index; the next kernel call
//!   rebuilds it in `O(E)` — what every edit would cost a static CSR.

#![warn(missing_docs)]

pub mod directed;
pub mod io;
mod nbrs;
pub mod topology;
pub mod traits;
pub mod transform;
pub mod undirected;
pub mod weighted;

pub use directed::DirectedGraph;
pub use nbrs::{AdjacencyStats, CompactStats};
pub use topology::Topology;
pub use traits::{DirectedTopology, Direction};
pub use undirected::UndirectedGraph;
pub use weighted::WeightedDigraph;

/// External node identifier. Following SNAP, ids are arbitrary 64-bit
/// integers supplied by the user (e.g. raw user ids from a table), not
/// required to be dense. `i64::MIN` is reserved.
pub type NodeId = i64;

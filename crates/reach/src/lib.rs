//! Graph-reachability substrate for the geosocial reachability library.
//!
//! This crate implements the reachability indexes the paper builds on:
//!
//! * [`interval::IntervalLabeling`] — the interval-based labeling of
//!   Agrawal, Borgida and Jagadish adapted to geosocial networks
//!   (Section 3 of the paper, Algorithm 1), with a spanning *forest*, a
//!   priority-queue construction and label compression. Both the paper's
//!   top-down construction and an equivalent bottom-up construction are
//!   provided. This scheme powers SocReach, 3DReach and SpaReach-INT.
//! * [`bfl::BflIndex`] — a from-scratch Bloom-Filter Labeling index
//!   (Su et al.), the best-performing `GReach` scheme in the paper's
//!   comparison and the back-end of SpaReach-BFL.
//! * [`bfs`] — plain online BFS/DFS reachability and small-graph transitive
//!   closures, used as ground truth by the test suites.
//!
//! All indexes assume a DAG input (use `gsr_graph::scc::Condensation` for
//! arbitrary graphs, per Section 5 of the paper).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bfl;
pub mod bfs;
pub mod compact;
pub mod interval;
mod scratch;

use gsr_graph::VertexId;

/// A graph-reachability oracle: answers `GReach(from, to)` queries
/// (Definition 2.1 of the paper). Reachability is reflexive: every vertex
/// reaches itself.
///
/// Indexes are immutable after construction; the `Send + Sync` bound lets
/// one index serve concurrent queries.
pub trait Reachability: Send + Sync {
    /// Whether the graph contains a (possibly empty) path `from -> to`.
    fn reaches(&self, from: VertexId, to: VertexId) -> bool;

    /// Approximate heap footprint of the index in bytes (Table 4).
    fn heap_bytes(&self) -> usize;

    /// Short human-readable name, e.g. `"INT"` or `"BFL"`.
    fn name(&self) -> &'static str;
}

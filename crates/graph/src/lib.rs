//! Directed-graph substrate for the geosocial reachability library.
//!
//! The paper models a (geo)social network as a directed graph `G = (V, E)`
//! (Section 2.1). This crate provides:
//!
//! * [`DiGraph`] — a compact CSR (compressed sparse row) representation with
//!   both forward and reverse adjacency, built through [`GraphBuilder`];
//! * [`scc`] — an iterative Tarjan strongly-connected-components algorithm
//!   and the [`scc::Condensation`] of an arbitrary graph into a DAG, the
//!   standard preprocessing step of all graph-reachability indexes
//!   (Section 5 of the paper);
//! * [`topo`] — Kahn topological ordering over DAGs;
//! * [`dfs`] — DFS spanning forests with global post-order numbering, the
//!   backbone of the interval-based labeling scheme (Section 3);
//! * [`stats`] — degree statistics used by the workload generators
//!   (query vertices are bucketed by out-degree in Section 6.1);
//! * [`VisitedSet`] — the epoch-stamped visited set that the query
//!   kernels reuse, so that no traversal allocates or clears one;
//! * [`par`] — a scoped-thread work pool for the batch executor's and the
//!   server's workers;
//! * [`col`] — the zero-copy [`Col`] column type every flat index arena is
//!   stored in, so snapshots can be memory-mapped and served without
//!   deserialization;
//! * [`columns`] — the [`Columns`] declaration through which a structure
//!   lists its persistent columns once, for the snapshot writer, the loader
//!   and the size accounting alike.
//!
//! `unsafe` is denied crate-wide and allowed only inside [`col`], which
//! contains the two reinterpretation casts the zero-copy snapshot path
//! needs (with the safety argument documented there).

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod col;
pub mod columns;
mod csr;
pub mod dfs;
pub mod mem;
pub mod par;
pub mod scc;
mod scratch;
pub mod stats;
pub mod topo;

pub use builder::{graph_from_edges, GraphBuilder};
pub use col::{bytes_of, Col, Pod, StableBytes};
pub use columns::{Column, ColumnList, Columns, Source};
pub use csr::DiGraph;
pub use mem::HeapBytes;
pub use scratch::VisitedSet;

/// Identifier of a vertex: a dense index in `0..graph.num_vertices()`.
pub type VertexId = u32;

/// Largest vertex count representable under the `u32` id width.
///
/// Ids are dense indices in `0..V`, so `V` may be at most `u32::MAX + 1`;
/// we cap at `u32::MAX` so that `V` itself also fits in a `u32` (snapshot
/// headers and CSR offsets store it as one). Builders and loaders must
/// reject — never truncate — vertex counts above this.
pub const MAX_VERTICES: usize = u32::MAX as usize;

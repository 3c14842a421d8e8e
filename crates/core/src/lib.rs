//! # Fast Geosocial Reachability Queries
//!
//! A Rust implementation of the EDBT 2025 paper *"Fast Geosocial
//! Reachability Queries"* (Bouros, Chondrogiannis, Kowalski).
//!
//! Given a geosocial network `G = (V, E, P)` — a directed graph whose
//! vertices may carry points in the plane — a query vertex `v` and a
//! rectangular region `R`, the **geosocial reachability query**
//! `RangeReach(G, v, R)` asks whether `v` can reach *any* vertex whose point
//! lies inside `R` (Problem 1 of the paper).
//!
//! The crate provides six evaluation methods behind one trait,
//! [`RangeReachIndex`]. [`Method`] lists them, with each one's strategy and
//! paper section, and builds any of them as a [`methods::SnapshotIndex`].
//!
//! Arbitrary (cyclic) graphs are handled by SCC condensation with either of
//! the two spatial-SCC policies of Section 5 ([`SccSpatialPolicy`]).
//! `RangeReach` is the only query family: the brute-force
//! [`PreparedNetwork::range_reach_bfs`] is the reference every method is
//! tested against.
//!
//! ## Quick start
//!
//! ```
//! use gsr_core::{GeosocialNetwork, PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
//! use gsr_core::methods::ThreeDReach;
//! use gsr_geo::{Point, Rect};
//! use gsr_graph::GraphBuilder;
//!
//! // A tiny network: user 0 follows user 1, who checked in at venue 2.
//! let mut g = GraphBuilder::new(3);
//! g.add_edge(0, 1);
//! g.add_edge(1, 2);
//! let points = vec![None, None, Some(Point::new(5.0, 5.0))];
//! let net = GeosocialNetwork::new(g.build(), points).unwrap();
//! let prepared = PreparedNetwork::new(net);
//!
//! let index = ThreeDReach::build(&prepared, SccSpatialPolicy::Replicate);
//! assert!(index.query(0, &Rect::new(0.0, 0.0, 10.0, 10.0)));
//! assert!(!index.query(2, &Rect::new(20.0, 20.0, 30.0, 30.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
mod fallback;
pub mod hist;
pub mod methods;
mod network;
pub mod paper_example;
pub mod partition;
pub mod scratch;
mod traits;

pub use batch::{BatchExecutor, BatchOptions, BatchOutcome, BatchQuery, CancelToken};
pub use error::GsrError;
pub use fallback::OnlineReach;
pub use methods::Method;
pub use network::{GeosocialNetwork, NetworkError, NetworkStats, PreparedNetwork};
pub use partition::{
    partition_tiles, prepared_tiles, tile_network, ShardMember, ShardedIndex, Tile,
};
pub use traits::{QueryCost, RangeReachIndex, SccSpatialPolicy, ShardStats};

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
//! [`RangeReachIndex`]:
//!
//! | Method | Strategy | Paper section |
//! |---|---|---|
//! | [`methods::SpaReachBfl`] | spatial-first; 2-D R-tree + BFL reachability | 2.2.1 |
//! | [`methods::SpaReachInt`] | spatial-first; 2-D R-tree + interval labeling | 2.2.1 |
//! | [`methods::GeoReach`]    | SPA-graph traversal (prior state of the art) | 2.2.2 |
//! | [`methods::SocReach`]    | social-first; interval labeling + point scan | 4.1 |
//! | [`methods::ThreeDReach`] | 3-D transformation; one cuboid query per label | 4.2 |
//! | [`methods::ThreeDReachRev`] | 3-D transformation; reversed labeling, one plane query | 4.2 |
//!
//! Arbitrary (cyclic) graphs are handled by SCC condensation with either of
//! the two spatial-SCC policies of Section 5 ([`SccSpatialPolicy`]).
//! Beyond the paper's headline, [`methods::ThreeDReporter`] and
//! [`methods::NearestReach`] answer the reporting and nearest-reachable
//! variants, and
//! [`extensions`] generalizes to rectangle geometries and 3-D space
//! (footnote 1 of the paper).
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
pub mod extensions;
mod fallback;
pub mod hist;
pub mod methods;
mod network;
pub mod paper_example;
pub mod partition;
pub mod scratch;
mod traits;

pub use batch::{
    BatchExecutor, BatchOptions, BatchOutcome, BatchQuery, BatchSchedule, CancelToken,
};
pub use error::GsrError;
pub use fallback::{DegradedReason, FallbackIndex, FallbackOptions, OnlineReach};
pub use network::{GeosocialNetwork, NetworkError, NetworkStats, PreparedNetwork};
pub use partition::{partition_tiles, prepared_tiles, tile_network, ShardMember, ShardedIndex, Tile};
pub use traits::{QueryCost, RangeReachIndex, SccSpatialPolicy, ShardStats};

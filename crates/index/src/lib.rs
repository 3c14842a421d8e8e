//! Spatial-indexing substrate for the geosocial reachability library.
//!
//! The paper's evaluation methods need two kinds of spatial access paths:
//!
//! * an **R-tree** over 2-D points/rectangles (SpaReach's spatial
//!   filter) and over 3-D points/segments/boxes (3DReach's transformed
//!   space) — provided by the const-generic [`RTree`], a static STR
//!   bulk-loaded tree stored as a flat breadth-first structure-of-arrays
//!   arena;
//! * the **hierarchical grid** that GeoReach's SPA-graph partitions the
//!   space with — provided by [`grid::HierarchicalGrid`] and [`grid::CellId`].
//!
//! Everything is implemented from scratch; the paper used Boost's R-tree,
//! which we substitute with this implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
mod rtree;

pub use rtree::{RTree, RTreeParams};

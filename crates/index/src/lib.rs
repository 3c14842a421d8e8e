//! Spatial-indexing substrate for the geosocial reachability library.
//!
//! The paper's evaluation methods need two kinds of spatial access paths:
//!
//! * an **R-tree** over 2-D points/rectangles (SpaReach's spatial
//!   filter) and over 3-D points/segments/boxes (3DReach's transformed
//!   space) — provided by the const-generic [`RTree`], a static STR
//!   bulk-loaded tree stored as a flat breadth-first structure-of-arrays
//!   arena, and by [`DynRTree`], a mutable Guttman tree (quadratic split)
//!   for incremental workloads;
//! * the **hierarchical grid** that GeoReach's SPA-graph partitions the
//!   space with — provided by [`grid::HierarchicalGrid`] and [`grid::CellId`];
//! * a **uniform grid** ([`UniformGrid`]), a static **kd-tree**
//!   ([`KdTree`]) and a point-region **quadtree** ([`QuadTree`]) — the
//!   space-oriented-partitioning indexes of the paper's related work
//!   (Section 7.2), used as ablation baselines for range queries.
//!
//! Everything is implemented from scratch; the paper used Boost's R-tree,
//! which we substitute with this implementation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dyn_rtree;
pub mod grid;
mod kdtree;
mod quadtree;
mod rtree;
mod uniform;

pub use dyn_rtree::DynRTree;
pub use kdtree::KdTree;
pub use quadtree::QuadTree;
pub use rtree::{RTree, RTreeParams};
pub use uniform::UniformGrid;

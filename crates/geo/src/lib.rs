//! Geometry primitives for the geosocial reachability library.
//!
//! This crate provides the small set of computational-geometry types the rest
//! of the workspace builds on:
//!
//! * [`Point`] — a point in the two-dimensional plane (a vertex's
//!   `v.point` in the paper's notation),
//! * [`Rect`] — an axis-aligned rectangle, used both as the query region `R`
//!   of a `RangeReach` query and as the minimum bounding rectangle (MBR) of a
//!   set of points,
//! * [`Aabb`] — a const-generic axis-aligned bounding box used as the common
//!   geometry of the 2-D and 3-D R-trees in `gsr-index`. The 3-D
//!   transformation of the 3DReach method (Section 4.2 of the paper) stores
//!   points, vertical line segments and boxes, all of which are represented
//!   as (possibly degenerate) [`Aabb<3>`] values.
//!
//! All coordinates are `f64`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aabb;
mod pod;
mod point;
mod rect;

pub use aabb::Aabb;
pub use point::Point;
pub use rect::Rect;

/// A three-dimensional axis-aligned box: the geometry of the 3DReach
/// transformation (query cuboids, indexed points and vertical segments).
pub type Cuboid = Aabb<3>;

/// Builds the query cuboid of the 3DReach method: the base is the spatial
/// query region `r` and the third dimension spans the (inclusive) post-order
/// interval `[lo, hi]` of one label of the query vertex.
///
/// See Section 4.2 of the paper: "the base of every cuboid corresponds to the
/// query region R [..] the cuboid is positioned in-between values l and h in
/// the third dimension".
pub fn cuboid_from_rect(r: &Rect, lo: f64, hi: f64) -> Cuboid {
    Aabb::new([r.min_x, r.min_y, lo], [r.max_x, r.max_y, hi])
}

/// Builds the degenerate cuboid for a 3-D point `(p.x, p.y, z)`, the
/// representation of a spatial vertex under the forward 3DReach scheme.
pub fn point3(p: Point, z: f64) -> Cuboid {
    Aabb::new([p.x, p.y, z], [p.x, p.y, z])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuboid_from_rect_spans_label_interval() {
        let r = Rect::new(1.0, 2.0, 3.0, 4.0);
        let c = cuboid_from_rect(&r, 5.0, 9.0);
        assert_eq!(c.min, [1.0, 2.0, 5.0]);
        assert_eq!(c.max, [3.0, 4.0, 9.0]);
    }

    #[test]
    fn point3_is_fully_degenerate() {
        let p = point3(Point::new(1.0, 2.0), 3.0);
        assert_eq!(p.min, p.max);
    }
}

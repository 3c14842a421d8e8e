//! Two-dimensional points.

use std::fmt;

/// A point in the two-dimensional plane.
///
/// In the paper's model (Section 2.1) every *spatial vertex* `v` of a
/// geosocial network carries a `v.point` of this type; the set of all such
/// points is the collection `P` of the network `G = (V, E, P)`.
/// `#[repr(C)]` is part of the snapshot contract: sections store point
/// columns as raw `x, y` f64 pairs and remap them zero-copy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Point {
    /// Horizontal coordinate (e.g. longitude).
    pub x: f64,
    /// Vertical coordinate (e.g. latitude).
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Returns `true` when both coordinates are finite (not NaN/Inf).
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for [f64; 2] {
    fn from(p: Point) -> Self {
        [p.x, p.y]
    }
}

impl From<[f64; 2]> for Point {
    fn from([x, y]: [f64; 2]) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finiteness() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 2.0).is_finite());
        assert!(!Point::new(1.0, f64::INFINITY).is_finite());
    }

    #[test]
    fn conversions_round_trip() {
        let p = Point::from((1.5, -2.5));
        let arr: [f64; 2] = p.into();
        assert_eq!(Point::from(arr), p);
        assert_eq!(format!("{p}"), "(1.5, -2.5)");
    }
}

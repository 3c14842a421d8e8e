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

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance (cheaper than [`Point::distance`] when only
    /// comparisons are needed).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise minimum of two points.
    #[inline]
    pub fn min_components(&self, other: &Point) -> Point {
        Point::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum of two points.
    #[inline]
    pub fn max_components(&self, other: &Point) -> Point {
        Point::new(self.x.max(other.x), self.y.max(other.y))
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
    fn distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn component_extrema() {
        let a = Point::new(1.0, 5.0);
        let b = Point::new(2.0, 3.0);
        assert_eq!(a.min_components(&b), Point::new(1.0, 3.0));
        assert_eq!(a.max_components(&b), Point::new(2.0, 5.0));
    }

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

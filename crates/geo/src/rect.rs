//! Axis-aligned rectangles: query regions and minimum bounding rectangles.

use crate::{Aabb, Point};
use std::fmt;

/// An axis-aligned rectangle in the plane, `[min_x, max_x] × [min_y, max_y]`.
///
/// Rectangles are *closed*: points on the boundary are contained. This type
/// plays two roles in the paper:
///
/// * the query region `R` of a `RangeReach(G, v, R)` query, and
/// * the *reachability minimum bounding rectangle* `RMBR(v)` of the GeoReach
///   baseline as well as the MBR of a strongly connected component's spatial
///   members (Section 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Smallest x coordinate.
    pub min_x: f64,
    /// Smallest y coordinate.
    pub min_y: f64,
    /// Largest x coordinate.
    pub max_x: f64,
    /// Largest y coordinate.
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its extrema. Panics in debug builds when the
    /// extrema are inverted.
    #[inline]
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        debug_assert!(min_x <= max_x && min_y <= max_y, "inverted rectangle");
        Rect { min_x, min_y, max_x, max_y }
    }

    /// The degenerate rectangle covering exactly one point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Rect::new(p.x, p.y, p.x, p.y)
    }

    /// Creates a rectangle from two opposite corners given in any order.
    #[inline]
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect::new(a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y))
    }

    /// The minimum bounding rectangle of a non-empty set of points, or `None`
    /// for an empty iterator.
    pub fn mbr_of<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut r = Rect::from_point(first);
        for p in iter {
            r.expand_to_point(p);
        }
        Some(r)
    }

    /// A square of side `side` centred on `center`.
    #[inline]
    pub fn square(center: Point, side: f64) -> Self {
        let h = side / 2.0;
        Rect::new(center.x - h, center.y - h, center.x + h, center.y + h)
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the rectangle (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)
    }

    /// Whether `p` lies inside the (closed) rectangle.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether `other` is fully contained in `self`.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.min_x >= self.min_x
            && other.max_x <= self.max_x
            && other.min_y >= self.min_y
            && other.max_y <= self.max_y
    }

    /// Whether the two (closed) rectangles share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// The intersection of two rectangles, or `None` when they are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect::new(
            self.min_x.max(other.min_x),
            self.min_y.max(other.min_y),
            self.max_x.min(other.max_x),
            self.max_y.min(other.max_y),
        ))
    }

    /// The smallest rectangle containing both inputs.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect::new(
            self.min_x.min(other.min_x),
            self.min_y.min(other.min_y),
            self.max_x.max(other.max_x),
            self.max_y.max(other.max_y),
        )
    }

    /// Grows the rectangle in place so that it contains `p`.
    #[inline]
    fn expand_to_point(&mut self, p: Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Grows the rectangle in place so that it contains `other`.
    #[inline]
    pub fn expand_to_rect(&mut self, other: &Rect) {
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// Clamps this rectangle so it lies inside `bounds` (both must intersect).
    pub fn clamp_within(&self, bounds: &Rect) -> Rect {
        self.intersection(bounds).unwrap_or(Rect::from_point(bounds.center()))
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}] x [{}, {}]", self.min_x, self.max_x, self.min_y, self.max_y)
    }
}

impl From<Rect> for Aabb<2> {
    fn from(r: Rect) -> Self {
        Aabb::new([r.min_x, r.min_y], [r.max_x, r.max_y])
    }
}

impl From<Aabb<2>> for Rect {
    fn from(b: Aabb<2>) -> Self {
        Rect::new(b.min[0], b.min[1], b.max[0], b.max[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d)
    }

    #[test]
    fn containment_is_closed() {
        let q = r(0.0, 0.0, 1.0, 1.0);
        assert!(q.contains_point(&Point::new(0.0, 0.0)));
        assert!(q.contains_point(&Point::new(1.0, 1.0)));
        assert!(q.contains_point(&Point::new(0.5, 0.5)));
        assert!(!q.contains_point(&Point::new(1.000001, 0.5)));
    }

    #[test]
    fn rect_containment() {
        let outer = r(0.0, 0.0, 10.0, 10.0);
        assert!(outer.contains_rect(&r(1.0, 1.0, 9.0, 9.0)));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&r(1.0, 1.0, 11.0, 9.0)));
    }

    #[test]
    fn intersection_cases() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        let c = r(5.0, 5.0, 6.0, 6.0);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
        // Touching edges count as intersecting (closed rectangles).
        let d = r(2.0, 0.0, 4.0, 2.0);
        assert!(a.intersects(&d));
        assert_eq!(a.intersection(&d).unwrap().area(), 0.0);
    }

    #[test]
    fn union_and_mbr() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        assert_eq!(a.union(&b), r(0.0, -1.0, 3.0, 1.0));

        let pts = [Point::new(1.0, 2.0), Point::new(-1.0, 0.0), Point::new(3.0, 1.0)];
        assert_eq!(Rect::mbr_of(pts), Some(r(-1.0, 0.0, 3.0, 2.0)));
        assert_eq!(Rect::mbr_of(std::iter::empty()), None);
    }

    #[test]
    fn geometry_helpers() {
        let q = Rect::square(Point::new(5.0, 5.0), 2.0);
        assert_eq!(q, r(4.0, 4.0, 6.0, 6.0));
        assert_eq!(q.area(), 4.0);
        assert_eq!(q.center(), Point::new(5.0, 5.0));
        assert_eq!(q.width(), 2.0);
        assert_eq!(q.height(), 2.0);
    }

    #[test]
    fn expansion() {
        let mut q = Rect::from_point(Point::new(1.0, 1.0));
        q.expand_to_point(Point::new(-1.0, 4.0));
        assert_eq!(q, r(-1.0, 1.0, 1.0, 4.0));
        q.expand_to_rect(&r(0.0, 0.0, 5.0, 2.0));
        assert_eq!(q, r(-1.0, 0.0, 5.0, 4.0));
    }

    #[test]
    fn aabb_round_trip() {
        let q = r(1.0, 2.0, 3.0, 4.0);
        let b: Aabb<2> = q.into();
        assert_eq!(Rect::from(b), q);
    }
}

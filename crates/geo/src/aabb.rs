//! Const-generic axis-aligned bounding boxes.

/// An `N`-dimensional axis-aligned bounding box (closed on all sides).
///
/// This is the geometry shared by the 2-D and 3-D R-trees of `gsr-index`.
/// Points are degenerate boxes (`min == max`); the vertical line segments of
/// 3DReach-REV are boxes degenerate in the first two dimensions.
/// `#[repr(C)]` is part of the snapshot contract: sections store box
/// columns as raw `2N`-tuples of `f64` and remap them zero-copy.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Aabb<const N: usize> {
    /// Per-dimension lower bounds.
    pub min: [f64; N],
    /// Per-dimension upper bounds.
    pub max: [f64; N],
}

impl<const N: usize> Aabb<N> {
    /// Creates a box from its per-dimension extrema. Panics in debug builds
    /// when any dimension is inverted.
    #[inline]
    pub fn new(min: [f64; N], max: [f64; N]) -> Self {
        debug_assert!((0..N).all(|d| min[d] <= max[d]), "inverted box");
        Aabb { min, max }
    }

    /// The degenerate box covering exactly one point.
    #[inline]
    pub fn from_point(p: [f64; N]) -> Self {
        Aabb { min: p, max: p }
    }

    /// An "empty" box that acts as the identity for [`Aabb::expand`]: every
    /// dimension spans `[+inf, -inf]`, so the first expansion snaps to the
    /// expanded geometry.
    #[inline]
    pub fn empty() -> Self {
        Aabb { min: [f64::INFINITY; N], max: [f64::NEG_INFINITY; N] }
    }

    /// Whether this is the identity box produced by [`Aabb::empty`] (or any
    /// box that has been inverted by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..N).any(|d| self.min[d] > self.max[d])
    }

    /// Extent along dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> f64 {
        self.max[d] - self.min[d]
    }

    /// N-dimensional volume (area for `N = 2`). Zero for degenerate boxes,
    /// and zero for empty boxes.
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..N).map(|d| self.extent(d)).product()
    }

    /// Sum of the extents over all dimensions — the "margin" used as a
    /// tie-breaker by R-tree split heuristics.
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..N).map(|d| self.extent(d)).sum()
    }

    /// The centre of the box.
    #[inline]
    pub fn center(&self) -> [f64; N] {
        let mut c = [0.0; N];
        for (d, slot) in c.iter_mut().enumerate() {
            *slot = (self.min[d] + self.max[d]) / 2.0;
        }
        c
    }

    /// Whether the two (closed) boxes share at least one point. Empty boxes
    /// intersect nothing.
    #[inline]
    pub fn intersects(&self, other: &Aabb<N>) -> bool {
        (0..N).all(|d| self.min[d] <= other.max[d] && other.min[d] <= self.max[d])
    }

    /// Whether `other` is fully contained in `self`.
    #[inline]
    pub fn contains(&self, other: &Aabb<N>) -> bool {
        (0..N).all(|d| other.min[d] >= self.min[d] && other.max[d] <= self.max[d])
    }

    /// Whether the point `p` lies inside the box.
    #[inline]
    pub fn contains_point(&self, p: &[f64; N]) -> bool {
        (0..N).all(|d| p[d] >= self.min[d] && p[d] <= self.max[d])
    }

    /// Grows the box in place to contain `other`.
    #[inline]
    pub fn expand(&mut self, other: &Aabb<N>) {
        for d in 0..N {
            self.min[d] = self.min[d].min(other.min[d]);
            self.max[d] = self.max[d].max(other.max[d]);
        }
    }

    /// The smallest box containing both inputs.
    #[inline]
    pub fn union(&self, other: &Aabb<N>) -> Aabb<N> {
        let mut u = *self;
        u.expand(other);
        u
    }

    /// The volume increase that would result from growing `self` to contain
    /// `other` — the R-tree insertion heuristic ("least enlargement").
    #[inline]
    pub fn enlargement(&self, other: &Aabb<N>) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// The MBR of a non-empty iterator of boxes, or `None` when empty.
    pub fn mbr_of<I: IntoIterator<Item = Aabb<N>>>(boxes: I) -> Option<Self> {
        let mut iter = boxes.into_iter();
        let first = iter.next()?;
        let mut acc = first;
        for b in iter {
            acc.expand(&b);
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type B3 = Aabb<3>;

    fn b(min: [f64; 3], max: [f64; 3]) -> B3 {
        B3::new(min, max)
    }

    #[test]
    fn empty_is_identity_for_expand() {
        let mut e = B3::empty();
        assert!(e.is_empty());
        assert_eq!(e.volume(), 0.0);
        assert_eq!(e.margin(), 0.0);
        let x = b([0.0; 3], [1.0; 3]);
        e.expand(&x);
        assert_eq!(e, x);
    }

    #[test]
    fn volume_and_margin() {
        let x = b([0.0, 0.0, 0.0], [2.0, 3.0, 4.0]);
        assert_eq!(x.volume(), 24.0);
        assert_eq!(x.margin(), 9.0);
        assert_eq!(x.center(), [1.0, 1.5, 2.0]);
    }

    #[test]
    fn intersection_and_containment() {
        let a = b([0.0; 3], [2.0; 3]);
        let inner = b([0.5; 3], [1.5; 3]);
        let cross = b([1.0; 3], [3.0; 3]);
        let far = b([5.0; 3], [6.0; 3]);
        assert!(a.intersects(&inner) && a.contains(&inner));
        assert!(a.intersects(&cross) && !a.contains(&cross));
        assert!(!a.intersects(&far));
        assert!(a.contains_point(&[2.0, 2.0, 2.0]));
        assert!(!a.contains_point(&[2.0, 2.0, 2.1]));
        // Empty boxes intersect nothing, not even themselves.
        assert!(!B3::empty().intersects(&a));
        assert!(!B3::empty().intersects(&B3::empty()));
    }

    #[test]
    fn enlargement_measures_added_volume() {
        let a = b([0.0; 3], [1.0; 3]);
        assert_eq!(a.enlargement(&a), 0.0);
        let shifted = b([1.0, 0.0, 0.0], [2.0, 1.0, 1.0]);
        assert_eq!(a.enlargement(&shifted), 1.0);
    }

    #[test]
    fn mbr_of_boxes() {
        let a = b([0.0; 3], [1.0; 3]);
        let c = b([2.0; 3], [3.0; 3]);
        assert_eq!(B3::mbr_of([a, c]), Some(b([0.0; 3], [3.0; 3])));
        assert_eq!(B3::mbr_of(std::iter::empty()), None);
    }

    #[test]
    fn degenerate_point_box() {
        let p = B3::from_point([1.0, 2.0, 3.0]);
        assert_eq!(p.volume(), 0.0);
        assert!(!p.is_empty());
        assert!(p.contains_point(&[1.0, 2.0, 3.0]));
    }
}

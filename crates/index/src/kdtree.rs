//! A static kd-tree over 2-D points — the classic hierarchical
//! space-oriented-partitioning index of the paper's related work
//! (Section 7.2, "hierarchical indices that fall in this category are the
//! kd-tree and the quad-tree"). Used alongside [`crate::UniformGrid`] as an
//! ablation baseline against the R-tree.
//!
//! The tree is built once by recursive median splits on alternating axes
//! and stored implicitly in one array (node `i`'s children are `2i + 1`
//! and `2i + 2` in build order — here we keep explicit subtree ranges for
//! simplicity and cache-friendly range scans).

use gsr_geo::{Point, Rect};

/// A static kd-tree over points with payloads `T`.
///
/// ```
/// use gsr_geo::{Point, Rect};
/// use gsr_index::KdTree;
///
/// let tree = KdTree::bulk_load(vec![
///     (Point::new(1.0, 1.0), 'a'),
///     (Point::new(5.0, 5.0), 'b'),
///     (Point::new(9.0, 1.0), 'c'),
/// ]);
/// assert_eq!(tree.query(&Rect::new(0.0, 0.0, 6.0, 6.0)).len(), 2);
/// let (p, &tag) = tree.nearest(&Point::new(8.0, 0.0)).unwrap();
/// assert_eq!(tag, 'c');
/// assert_eq!(p.x, 9.0);
/// ```
///
/// The points are reordered in place into kd order: each subtree occupies
/// a contiguous slice, the splitting point sits at the slice's median
/// position, and the axis alternates with depth. Range queries recurse
/// only into half-spaces that intersect the query rectangle.
#[derive(Debug, Clone)]
pub struct KdTree<T> {
    entries: Vec<(Point, T)>,
}

impl<T> KdTree<T> {
    /// Builds the tree (O(n log² n): median by full sort per level would be
    /// O(n log² n); we use `select_nth_unstable` for O(n log n)).
    pub fn bulk_load(mut entries: Vec<(Point, T)>) -> Self {
        fn build<T>(slice: &mut [(Point, T)], axis: usize) {
            if slice.len() <= 1 {
                return;
            }
            let mid = slice.len() / 2;
            slice.select_nth_unstable_by(mid, |a, b| {
                let (ka, kb) = if axis == 0 { (a.0.x, b.0.x) } else { (a.0.y, b.0.y) };
                ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
            });
            let (lo, rest) = slice.split_at_mut(mid);
            let (_, hi) = rest.split_at_mut(1);
            build(lo, 1 - axis);
            build(hi, 1 - axis);
        }
        build(&mut entries, 0);
        KdTree { entries }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Visits every point inside `region`; stops early when `visit`
    /// returns `true`, and reports whether that happened.
    pub fn query_until<'a>(
        &'a self,
        region: &Rect,
        mut visit: impl FnMut(&'a Point, &'a T) -> bool,
    ) -> bool {
        fn walk<'a, T>(
            slice: &'a [(Point, T)],
            axis: usize,
            region: &Rect,
            visit: &mut impl FnMut(&'a Point, &'a T) -> bool,
        ) -> bool {
            if slice.is_empty() {
                return false;
            }
            let mid = slice.len() / 2;
            let (p, t) = &slice[mid];
            let key = if axis == 0 { p.x } else { p.y };
            let (lo_bound, hi_bound) = if axis == 0 {
                (region.min_x, region.max_x)
            } else {
                (region.min_y, region.max_y)
            };
            // Left half-space may contain matches when the region starts
            // below the split key, right when it ends at or above it.
            if lo_bound <= key && walk(&slice[..mid], 1 - axis, region, visit) {
                return true;
            }
            if region.contains_point(p) && visit(p, t) {
                return true;
            }
            if hi_bound >= key && walk(&slice[mid + 1..], 1 - axis, region, visit) {
                return true;
            }
            false
        }
        walk(&self.entries, 0, region, &mut visit)
    }

    /// All points inside `region`.
    pub fn query(&self, region: &Rect) -> Vec<(&Point, &T)> {
        let mut out = Vec::new();
        self.query_until(region, |p, t| {
            out.push((p, t));
            false
        });
        out
    }

    /// Whether any point lies inside `region`.
    pub fn query_exists(&self, region: &Rect) -> bool {
        self.query_until(region, |_, _| true)
    }

    /// The point nearest to `target` (branch-and-bound), or `None` when
    /// empty.
    pub fn nearest(&self, target: &Point) -> Option<(&Point, &T)> {
        fn walk<'a, T>(
            slice: &'a [(Point, T)],
            axis: usize,
            target: &Point,
            best: &mut Option<(f64, &'a Point, &'a T)>,
        ) {
            if slice.is_empty() {
                return;
            }
            let mid = slice.len() / 2;
            let (p, t) = &slice[mid];
            let d = p.distance_sq(target);
            if best.is_none() || d < best.unwrap().0 {
                *best = Some((d, p, t));
            }
            let key = if axis == 0 { p.x } else { p.y };
            let q = if axis == 0 { target.x } else { target.y };
            let (near, far) = if q < key {
                (&slice[..mid], &slice[mid + 1..])
            } else {
                (&slice[mid + 1..], &slice[..mid])
            };
            walk(near, 1 - axis, target, best);
            // The far half can only help if the splitting plane is closer
            // than the best match so far.
            let plane = (q - key) * (q - key);
            if best.map(|(bd, _, _)| plane < bd).unwrap_or(true) {
                walk(far, 1 - axis, target, best);
            }
        }
        let mut best = None;
        walk(&self.entries, 0, target, &mut best);
        best.map(|(_, p, t)| (p, t))
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<(Point, T)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<(Point, usize)> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 101) as f64;
                let y = ((i * 53) % 97) as f64;
                (Point::new(x, y), i)
            })
            .collect()
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let pts = sample(500);
        let tree = KdTree::bulk_load(pts.clone());
        assert_eq!(tree.len(), 500);
        for region in [
            Rect::new(0.0, 0.0, 20.0, 20.0),
            Rect::new(50.0, 40.0, 80.0, 90.0),
            Rect::new(100.0, 96.0, 200.0, 200.0),
            Rect::new(-10.0, -10.0, -1.0, -1.0),
        ] {
            let mut got: Vec<usize> = tree.query(&region).iter().map(|(_, &i)| i).collect();
            got.sort_unstable();
            let mut expected: Vec<usize> = pts
                .iter()
                .filter(|(p, _)| region.contains_point(p))
                .map(|&(_, i)| i)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "region {region}");
            assert_eq!(tree.query_exists(&region), !expected.is_empty());
        }
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let pts = sample(300);
        let tree = KdTree::bulk_load(pts.clone());
        for target in [Point::new(0.0, 0.0), Point::new(50.5, 49.5), Point::new(150.0, -3.0)] {
            let (p, _) = tree.nearest(&target).unwrap();
            let best = pts
                .iter()
                .map(|(q, _)| q.distance_sq(&target))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(p.distance_sq(&target), best, "target {target}");
        }
    }

    #[test]
    fn duplicates_and_empty() {
        let tree: KdTree<u32> = KdTree::bulk_load(vec![]);
        assert!(tree.is_empty());
        assert!(!tree.query_exists(&Rect::new(-1e9, -1e9, 1e9, 1e9)));
        assert!(tree.nearest(&Point::new(0.0, 0.0)).is_none());

        let dup = KdTree::bulk_load(vec![(Point::new(1.0, 1.0), 0u32); 20]);
        assert_eq!(dup.query(&Rect::from_point(Point::new(1.0, 1.0))).len(), 20);
    }

    #[test]
    fn early_exit() {
        let tree = KdTree::bulk_load(sample(100));
        let mut visits = 0;
        let found = tree.query_until(&Rect::new(0.0, 0.0, 101.0, 97.0), |_, _| {
            visits += 1;
            true
        });
        assert!(found);
        assert_eq!(visits, 1);
    }
}

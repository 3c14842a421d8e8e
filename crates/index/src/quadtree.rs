//! A point-region quadtree — the second hierarchical SOP index named by the
//! paper's related work (Section 7.2). Like [`crate::KdTree`] and
//! [`crate::UniformGrid`], it serves as an ablation baseline for the
//! spatial range queries of SpaReach.

use gsr_geo::{Point, Rect};

/// Maximum points per leaf before it splits into four quadrants.
const LEAF_CAPACITY: usize = 16;
/// Maximum depth; duplicate-heavy inputs stop splitting here.
const MAX_DEPTH: usize = 24;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Vec<(Point, T)>),
    /// Children in quadrant order: SW, SE, NW, NE (split at the centre).
    Inner(Box<[QuadNode<T>; 4]>),
}

#[derive(Debug, Clone)]
struct QuadNode<T> {
    bounds: Rect,
    node: Node<T>,
}

/// A point-region quadtree over points with payloads `T`.
///
/// ```
/// use gsr_geo::{Point, Rect};
/// use gsr_index::QuadTree;
///
/// let space = Rect::new(0.0, 0.0, 100.0, 100.0);
/// let mut tree = QuadTree::new(space);
/// for i in 0..100u32 {
///     tree.insert(Point::new(i as f64, (i * 7 % 100) as f64), i);
/// }
/// assert_eq!(tree.len(), 100);
/// assert!(tree.query_exists(&Rect::new(0.0, 0.0, 10.0, 100.0)));
/// ```
#[derive(Debug, Clone)]
pub struct QuadTree<T> {
    root: QuadNode<T>,
    /// Points outside the declared space: kept in a side list so the
    /// bounds-based pruning stays sound. Scanned linearly per query —
    /// fine as long as outliers are rare, which holds for the clamped
    /// synthetic and real datasets.
    outliers: Vec<(Point, T)>,
    len: usize,
}

impl<T> QuadTree<T> {
    /// An empty tree covering `space`. Points outside `space` go to a
    /// linear side list, so nothing is lost.
    pub fn new(space: Rect) -> Self {
        QuadTree {
            root: QuadNode { bounds: space, node: Node::Leaf(Vec::new()) },
            outliers: Vec::new(),
            len: 0,
        }
    }

    /// Builds a tree from a batch of points.
    pub fn bulk_load(space: Rect, entries: Vec<(Point, T)>) -> Self {
        let mut tree = QuadTree::new(space);
        for (p, t) in entries {
            tree.insert(p, t);
        }
        tree
    }

    /// Number of points stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts one point.
    pub fn insert(&mut self, p: Point, value: T) {
        self.len += 1;
        if !self.root.bounds.contains_point(&p) {
            self.outliers.push((p, value));
            return;
        }
        insert_into(&mut self.root, p, (p, value), 0);
    }

    /// Visits every point inside `region`; stops early when `visit` returns
    /// `true`, and reports whether that happened.
    pub fn query_until<'a>(
        &'a self,
        region: &Rect,
        mut visit: impl FnMut(&'a Point, &'a T) -> bool,
    ) -> bool {
        fn walk<'a, T>(
            qn: &'a QuadNode<T>,
            region: &Rect,
            visit: &mut impl FnMut(&'a Point, &'a T) -> bool,
        ) -> bool {
            if !qn.bounds.intersects(region) {
                return false;
            }
            match &qn.node {
                Node::Leaf(entries) => {
                    for (p, t) in entries {
                        if region.contains_point(p) && visit(p, t) {
                            return true;
                        }
                    }
                    false
                }
                Node::Inner(children) => children.iter().any(|c| walk(c, region, visit)),
            }
        }
        if walk(&self.root, region, &mut visit) {
            return true;
        }
        self.outliers
            .iter()
            .any(|(p, t)| region.contains_point(p) && visit(p, t))
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

    /// Depth of the tree (1 for a single leaf).
    pub fn depth(&self) -> usize {
        fn walk<T>(qn: &QuadNode<T>) -> usize {
            match &qn.node {
                Node::Leaf(_) => 1,
                Node::Inner(children) => 1 + children.iter().map(walk).max().unwrap_or(0),
            }
        }
        walk(&self.root)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        fn walk<T>(qn: &QuadNode<T>) -> usize {
            std::mem::size_of::<QuadNode<T>>()
                + match &qn.node {
                    Node::Leaf(entries) => entries.len() * std::mem::size_of::<(Point, T)>(),
                    Node::Inner(children) => children.iter().map(walk).sum(),
                }
        }
        walk(&self.root) + self.outliers.len() * std::mem::size_of::<(Point, T)>()
    }
}

/// Quadrant rectangles of `bounds` in SW, SE, NW, NE order.
fn quadrants(bounds: &Rect) -> [Rect; 4] {
    let c = bounds.center();
    [
        Rect::new(bounds.min_x, bounds.min_y, c.x, c.y),
        Rect::new(c.x, bounds.min_y, bounds.max_x, c.y),
        Rect::new(bounds.min_x, c.y, c.x, bounds.max_y),
        Rect::new(c.x, c.y, bounds.max_x, bounds.max_y),
    ]
}

/// Index of the quadrant containing `p` (ties go to the NE-most quadrant,
/// matching half-open routing so every point routes to exactly one child).
fn quadrant_of(bounds: &Rect, p: &Point) -> usize {
    let c = bounds.center();
    (if p.x >= c.x { 1 } else { 0 }) + (if p.y >= c.y { 2 } else { 0 })
}

fn insert_into<T>(qn: &mut QuadNode<T>, routed: Point, entry: (Point, T), depth: usize) {
    match &mut qn.node {
        Node::Leaf(entries) => {
            entries.push(entry);
            if entries.len() > LEAF_CAPACITY && depth < MAX_DEPTH {
                // Split: every stored point is inside the bounds (outliers
                // never enter the tree), so quadrant routing is exact.
                let old = std::mem::take(entries);
                let quads = quadrants(&qn.bounds);
                let mut children: Box<[QuadNode<T>; 4]> = Box::new(quads.map(|bounds| QuadNode {
                    bounds,
                    node: Node::Leaf(Vec::new()),
                }));
                for (p, t) in old {
                    let q = quadrant_of(&qn.bounds, &p);
                    match &mut children[q].node {
                        Node::Leaf(v) => v.push((p, t)),
                        Node::Inner(_) => unreachable!("fresh children are leaves"),
                    }
                }
                qn.node = Node::Inner(children);
            }
        }
        Node::Inner(children) => {
            let q = quadrant_of(&qn.bounds, &routed);
            insert_into(&mut children[q], routed, entry, depth + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Rect {
        Rect::new(0.0, 0.0, 100.0, 100.0)
    }

    fn sample(n: usize) -> Vec<(Point, usize)> {
        (0..n)
            .map(|i| (Point::new(((i * 17) % 101) as f64, ((i * 31) % 97) as f64), i))
            .collect()
    }

    #[test]
    fn query_matches_linear_scan() {
        let pts = sample(800);
        let tree = QuadTree::bulk_load(space(), pts.clone());
        assert_eq!(tree.len(), 800);
        assert!(tree.depth() > 1, "800 points must split the root");
        for region in [
            Rect::new(0.0, 0.0, 25.0, 25.0),
            Rect::new(40.0, 40.0, 60.0, 60.0),
            Rect::new(99.0, 95.0, 120.0, 120.0),
            Rect::new(-5.0, -5.0, -1.0, -1.0),
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
    fn out_of_space_points_survive() {
        let mut tree = QuadTree::new(space());
        tree.insert(Point::new(-50.0, 150.0), "far");
        tree.insert(Point::new(50.0, 50.0), "in");
        assert_eq!(tree.len(), 2);
        assert!(tree.query_exists(&Rect::new(-60.0, 140.0, -40.0, 160.0)));
    }

    #[test]
    fn duplicate_points_bottom_out_at_max_depth() {
        let mut tree = QuadTree::new(space());
        for i in 0..200u32 {
            tree.insert(Point::new(10.0, 10.0), i);
        }
        assert_eq!(tree.len(), 200);
        assert!(tree.depth() <= MAX_DEPTH + 1);
        assert_eq!(tree.query(&Rect::from_point(Point::new(10.0, 10.0))).len(), 200);
    }

    #[test]
    fn early_exit() {
        let tree = QuadTree::bulk_load(space(), sample(100));
        let mut visits = 0;
        assert!(tree.query_until(&space(), |_, _| {
            visits += 1;
            true
        }));
        assert_eq!(visits, 1);
    }

    #[test]
    fn empty_tree() {
        let tree: QuadTree<u32> = QuadTree::new(space());
        assert!(tree.is_empty());
        assert!(!tree.query_exists(&space()));
        assert_eq!(tree.depth(), 1);
    }
}

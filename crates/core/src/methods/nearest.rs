//! Nearest *reachable* spatial vertex — another member of the family of
//! geosocial queries the paper's conclusion anticipates (Section 8).
//!
//! `NearestReach(G, v, p)` returns the spatial vertex closest to the point
//! `p` among those reachable from `v`: "the closest restaurant my circle
//! has visited". It composes the same two ingredients as the paper's
//! methods — a best-first nearest-neighbour search on an R-tree whose
//! candidate stream is filtered by the interval labeling's `O(log)`
//! reachability test.

use crate::PreparedNetwork;
use gsr_geo::{Aabb, Point};
use gsr_graph::scc::CompId;
use gsr_graph::VertexId;
use gsr_index::RTree;
use gsr_reach::interval::IntervalLabeling;

/// Answers nearest-reachable queries.
///
/// ```
/// use gsr_core::methods::NearestReach;
/// use gsr_core::paper_example;
/// use gsr_geo::Point;
///
/// let prep = paper_example::prepared();
/// let idx = NearestReach::build(&prep);
/// // The venue nearest to (5, 9) is e itself, but c cannot reach it;
/// // the nearest venue c *can* reach is f at (2, 2).
/// let (venue, point, _dist) = idx.nearest(paper_example::C, &Point::new(5.0, 9.0)).unwrap();
/// assert_eq!(venue, paper_example::F);
/// assert_eq!(point, Point::new(2.0, 2.0));
/// ```
#[derive(Debug, Clone)]
pub struct NearestReach {
    comp_of: Vec<CompId>,
    labeling: IntervalLabeling,
    /// 2-D point index; payloads carry the vertex and its component's
    /// post-order number so the filter avoids a comp lookup.
    tree: RTree<2, (VertexId, u32)>,
}

impl NearestReach {
    /// Builds the labeling and the 2-D point index.
    pub fn build(prep: &PreparedNetwork) -> Self {
        let labeling = IntervalLabeling::build(prep.dag());
        let entries: Vec<(Aabb<2>, (VertexId, u32))> = prep
            .network()
            .spatial_vertices()
            .map(|(v, p)| {
                let post = labeling.post(prep.comp(v));
                (Aabb::from_point([p.x, p.y]), (v, post))
            })
            .collect();
        NearestReach {
            comp_of: (0..prep.network().num_vertices() as VertexId).map(|v| prep.comp(v)).collect(),
            labeling,
            tree: RTree::bulk_load(entries),
        }
    }

    /// The spatial vertex reachable from `v` nearest to `target`, with its
    /// point and distance; `None` when `v` reaches no spatial vertex.
    pub fn nearest(&self, v: VertexId, target: &Point) -> Option<(VertexId, Point, f64)> {
        let from = self.comp_of[v as usize];
        let (b, &(u, _)) = self.tree.nearest_where(&[target.x, target.y], |_, &(_, post)| {
            self.labeling.covers_post(from, post)
        })?;
        let p = Point::new(b.min[0], b.min[1]);
        Some((u, p, p.distance(target)))
    }

    /// The `k` nearest reachable spatial vertices, ascending by distance.
    pub fn nearest_k(&self, v: VertexId, target: &Point, k: usize) -> Vec<(VertexId, Point, f64)> {
        let from = self.comp_of[v as usize];
        self.tree
            .nearest_k_where(&[target.x, target.y], k, |_, &(_, post)| {
                self.labeling.covers_post(from, post)
            })
            .into_iter()
            .map(|(b, &(u, _))| {
                let p = Point::new(b.min[0], b.min[1]);
                (u, p, p.distance(target))
            })
            .collect()
    }

    /// Approximate heap footprint in bytes.
    pub fn index_bytes(&self) -> usize {
        self.labeling.heap_bytes() + self.tree.heap_bytes() + self.comp_of.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    /// Brute-force reference.
    fn nearest_bfs(prep: &PreparedNetwork, v: VertexId, target: &Point) -> Option<(Point, f64)> {
        let mut best: Option<(Point, f64)> = None;
        let start = prep.comp(v);
        let mut visited = vec![false; prep.num_components()];
        let mut stack = vec![start];
        visited[start as usize] = true;
        while let Some(c) = stack.pop() {
            for &p in prep.spatial_member_points(c) {
                let d = p.distance(target);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((p, d));
                }
            }
            for &w in prep.dag().out_neighbors(c) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_paper_example() {
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            let idx = NearestReach::build(&prep);
            let targets = [
                Point::new(0.0, 0.0),
                Point::new(8.0, 8.0),
                Point::new(16.0, 0.0),
                Point::new(5.0, 9.0), // exactly on e
            ];
            for v in prep.network().graph().vertices() {
                for t in &targets {
                    let got = idx.nearest(v, t).map(|(_, p, d)| (p, d));
                    let expected = nearest_bfs(&prep, v, t);
                    match (got, expected) {
                        (None, None) => {}
                        (Some((_, gd)), Some((_, ed))) => {
                            assert!(
                                (gd - ed).abs() < 1e-9,
                                "distance mismatch at v={v}, t={t}: {gd} vs {ed}"
                            );
                        }
                        other => panic!("presence mismatch at v={v}, t={t}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn unreachable_vertices_yield_none() {
        let prep = paper_example::prepared();
        let idx = NearestReach::build(&prep);
        // d and k reach no spatial vertex.
        assert!(idx.nearest(paper_example::D, &Point::new(0.0, 0.0)).is_none());
        assert!(idx.nearest(paper_example::K, &Point::new(0.0, 0.0)).is_none());
        // e reaches itself and f.
        let (u, _, d) = idx.nearest(paper_example::E, &Point::new(5.0, 9.0)).unwrap();
        assert_eq!(u, paper_example::E);
        assert_eq!(d, 0.0);
    }

    #[test]
    fn nearest_k_is_sorted_and_reachable() {
        let prep = paper_example::prepared();
        let idx = NearestReach::build(&prep);
        let target = Point::new(8.0, 8.0);
        let top = idx.nearest_k(paper_example::A, &target, 10);
        // a reaches all five spatial vertices.
        assert_eq!(top.len(), 5);
        assert!(top.windows(2).all(|w| w[0].2 <= w[1].2), "ascending distances");
        // c reaches only f and i.
        let top_c = idx.nearest_k(paper_example::C, &target, 10);
        assert_eq!(top_c.len(), 2);
        // k reaches nothing spatial.
        assert!(idx.nearest_k(paper_example::K, &target, 3).is_empty());
    }

    #[test]
    fn filter_skips_closer_unreachable_venues() {
        let prep = paper_example::prepared();
        let idx = NearestReach::build(&prep);
        // From c, the closest venue to (5, 9) would be e (distance 0), but
        // c cannot reach e; the nearest *reachable* one is f or i.
        let (u, _, _) = idx.nearest(paper_example::C, &Point::new(5.0, 9.0)).unwrap();
        assert!(u == paper_example::F || u == paper_example::I, "c reaches only f and i, got {u}");
    }
}

//! RangeReach in three-dimensional space — the second generalization of
//! the paper's footnote 1 ("our analysis and the proposed solutions can be
//! easily extended to ... the three-dimensional space").
//!
//! Spatial vertices carry points in 3-D (e.g. venues with floor levels, or
//! drone/airspace way-points) and the query region is an axis-aligned box.
//! The 3DReach transformation simply gains one dimension: vertices become
//! 4-D points `(x, y, z, post)` in a 4-D R-tree — which the const-generic
//! [`RTree`] provides for free — and a query is one 4-D range query per
//! label.

use gsr_geo::Aabb;
use gsr_graph::scc::{CompId, Condensation};
use gsr_graph::{DiGraph, VertexId};
use gsr_index::RTree;
use gsr_reach::interval::IntervalLabeling;

/// A point in three-dimensional space.
pub type Point3d = [f64; 3];

/// An axis-aligned box in three-dimensional space.
pub type Box3d = Aabb<3>;

/// 3-D RangeReach through a 4-D transformation.
#[derive(Debug, Clone)]
pub struct VolumetricReach {
    comp_of: Vec<CompId>,
    labeling: IntervalLabeling,
    tree: RTree<4, VertexId>,
}

impl VolumetricReach {
    /// Condenses the graph and indexes every spatial vertex as the 4-D
    /// point `(x, y, z, post(comp))`. `points` holds one optional 3-D point
    /// per vertex.
    ///
    /// # Panics
    /// Panics when `points` does not have one slot per vertex.
    pub fn build(graph: &DiGraph, points: &[Option<Point3d>]) -> Self {
        assert_eq!(points.len(), graph.num_vertices(), "one point slot per vertex");
        let cond = Condensation::of(graph);
        let labeling = IntervalLabeling::build(&cond.dag);
        let entries: Vec<(Aabb<4>, VertexId)> = points
            .iter()
            .enumerate()
            .filter_map(|(v, p)| p.map(|p| (v as VertexId, p)))
            .map(|(v, p)| {
                let post = labeling.post(cond.comp(v)) as f64;
                (Aabb::from_point([p[0], p[1], p[2], post]), v)
            })
            .collect();
        VolumetricReach {
            comp_of: (0..graph.num_vertices() as VertexId).map(|v| cond.comp(v)).collect(),
            labeling,
            tree: RTree::bulk_load(entries),
        }
    }

    /// Fallible [`VolumetricReach::query`]: validates the vertex id and
    /// the query box (finite, non-inverted in each dimension) before
    /// evaluating.
    pub fn try_query(&self, v: VertexId, query: &Box3d) -> Result<bool, crate::GsrError> {
        crate::error::validate_vertex(self.comp_of.len(), v)?;
        for d in 0..3 {
            let (lo, hi) = (query.min[d], query.max[d]);
            if !lo.is_finite() || !hi.is_finite() {
                return Err(crate::GsrError::InvalidRect {
                    reason: format!("non-finite bound in dimension {d}: [{lo}, {hi}]"),
                });
            }
            if lo > hi {
                return Err(crate::GsrError::InvalidRect {
                    reason: format!("inverted bounds in dimension {d}: [{lo}, {hi}]"),
                });
            }
        }
        Ok(self.query(v, query))
    }

    /// Whether `v` reaches a vertex whose 3-D point lies inside `query`.
    pub fn query(&self, v: VertexId, query: &Box3d) -> bool {
        let from = self.comp_of[v as usize];
        self.labeling.intervals(from).iter().any(|iv| {
            let hyper = Aabb::new(
                [query.min[0], query.min[1], query.min[2], iv.lo as f64],
                [query.max[0], query.max[1], query.max[2], iv.hi as f64],
            );
            self.tree.query_exists(&hyper)
        })
    }

    /// All reachable vertices with points inside `query`, ascending.
    pub fn report(&self, v: VertexId, query: &Box3d) -> Vec<VertexId> {
        let from = self.comp_of[v as usize];
        let (mut out, mut stack) = (Vec::new(), Vec::new());
        for iv in self.labeling.intervals(from) {
            let hyper = Aabb::new(
                [query.min[0], query.min[1], query.min[2], iv.lo as f64],
                [query.max[0], query.max[1], query.max[2], iv.hi as f64],
            );
            self.tree.collect_values(&hyper, &mut stack, &mut out);
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_graph::graph_from_edges;
    use gsr_reach::bfs::reaches_bfs;

    #[test]
    fn floors_of_a_building() {
        // Users 0 -> 1; venues on three floors of the same (x, y) spot.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (1, 3), (0, 4)]);
        let points = vec![
            None,
            None,
            Some([10.0, 10.0, 0.0]), // ground floor
            Some([10.0, 10.0, 5.0]), // second floor
            Some([10.0, 10.0, 9.0]), // roof bar
        ];
        let idx = VolumetricReach::build(&g, &points);

        let ground = Aabb::new([0.0, 0.0, -1.0], [20.0, 20.0, 1.0]);
        let upper = Aabb::new([0.0, 0.0, 4.0], [20.0, 20.0, 10.0]);
        assert!(idx.query(0, &ground));
        assert_eq!(idx.report(0, &upper), vec![3, 4]);
        // 1 reaches floors 0 and 5 but not the roof bar.
        assert_eq!(idx.report(1, &upper), vec![3]);
        assert!(!idx.query(2, &upper), "a venue only sees itself");
    }

    #[test]
    fn matches_brute_force_on_random_3d_inputs() {
        let mut state = 0xDEADBEEFu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _case in 0..15 {
            let n = 4 + (rnd() % 16) as usize;
            let m = (rnd() % 40) as usize;
            let edges: Vec<(u32, u32)> =
                (0..m).map(|_| ((rnd() % n as u64) as u32, (rnd() % n as u64) as u32)).collect();
            let g = graph_from_edges(n, &edges);
            let points: Vec<Option<Point3d>> = (0..n)
                .map(|_| {
                    (rnd() % 3 != 0)
                        .then(|| [(rnd() % 100) as f64, (rnd() % 100) as f64, (rnd() % 50) as f64])
                })
                .collect();
            let idx = VolumetricReach::build(&g, &points);
            for _ in 0..5 {
                let lo = [(rnd() % 100) as f64, (rnd() % 100) as f64, (rnd() % 50) as f64];
                let query = Aabb::new(
                    lo,
                    [
                        lo[0] + (rnd() % 40) as f64,
                        lo[1] + (rnd() % 40) as f64,
                        lo[2] + (rnd() % 20) as f64,
                    ],
                );
                for v in 0..n as u32 {
                    let mut expected: Vec<u32> = g
                        .vertices()
                        .filter(|&u| {
                            points[u as usize].is_some_and(|p| query.contains_point(&p))
                                && reaches_bfs(&g, v, u)
                        })
                        .collect();
                    expected.sort_unstable();
                    assert_eq!(idx.report(v, &query), expected, "v={v}");
                    assert_eq!(idx.query(v, &query), !expected.is_empty());
                }
            }
        }
    }
}

//! Reporting and counting variants of the geosocial reachability query —
//! the "other types of geosocial queries" the paper's conclusion points to
//! (Section 8).
//!
//! * `RangeReport(G, v, R)` returns **every** spatial vertex inside `R`
//!   that `v` can reach (the full answer set, not just its existence);
//! * `RangeCount(G, v, R)` returns its cardinality.
//!
//! Both reuse the 3DReach transformation: the answer set is exactly the
//! union of the 3-D range-query results over the query cuboids, and since
//! the labels of `L(v)` are disjoint post-order ranges, every qualifying
//! vertex is reported exactly once — no deduplication pass is needed.

use crate::PreparedNetwork;
use gsr_geo::{cuboid_from_rect, point3, Cuboid, Rect};
use gsr_graph::scc::CompId;
use gsr_graph::VertexId;
use gsr_index::RTree;
use gsr_reach::interval::IntervalLabeling;

/// Answers `RangeReport` / `RangeCount` queries through the 3DReach
/// transformation.
///
/// ```
/// use gsr_core::methods::ThreeDReporter;
/// use gsr_core::paper_example;
///
/// let prep = paper_example::prepared();
/// let reporter = ThreeDReporter::build(&prep);
/// let region = paper_example::query_region();
/// // Vertex a reaches the spatial vertices e and h inside R.
/// assert_eq!(reporter.report(paper_example::A, &region),
///            vec![paper_example::E, paper_example::H]);
/// assert_eq!(reporter.count(paper_example::C, &region), 0);
/// ```
///
/// Reporting always needs the individual vertices, so the index is always
/// point-based (the `SccSpatialPolicy::Replicate` layout); the policy enum
/// is not a parameter here.
#[derive(Debug, Clone)]
pub struct ThreeDReporter {
    comp_of: Vec<CompId>,
    labeling: IntervalLabeling,
    tree: RTree<3, VertexId>,
}

impl ThreeDReporter {
    /// Builds the reporter: forward labeling plus a 3-D point R-tree whose
    /// payloads are the original spatial vertex ids.
    pub fn build(prep: &PreparedNetwork) -> Self {
        let labeling = IntervalLabeling::build(prep.dag());
        let entries: Vec<(Cuboid, VertexId)> = prep
            .network()
            .spatial_vertices()
            .map(|(v, p)| {
                let z = labeling.post(prep.comp(v)) as f64;
                (point3(p, z), v)
            })
            .collect();
        ThreeDReporter {
            comp_of: (0..prep.network().num_vertices() as VertexId)
                .map(|v| prep.comp(v))
                .collect(),
            labeling,
            tree: RTree::bulk_load(entries),
        }
    }

    /// All spatial vertices inside `region` reachable from `v`, in
    /// ascending vertex-id order.
    pub fn report(&self, v: VertexId, region: &Rect) -> Vec<VertexId> {
        let from = self.comp_of[v as usize];
        let (mut out, mut stack) = (Vec::new(), Vec::new());
        for iv in self.labeling.intervals(from) {
            let cuboid = cuboid_from_rect(region, iv.lo as f64, iv.hi as f64);
            self.tree.collect_values(&cuboid, &mut stack, &mut out);
        }
        out.sort_unstable();
        out
    }

    /// `|report(v, region)|` without materializing the ids.
    pub fn count(&self, v: VertexId, region: &Rect) -> usize {
        let from = self.comp_of[v as usize];
        self.labeling
            .intervals(from)
            .iter()
            .map(|iv| {
                self.tree.count_in(&cuboid_from_rect(region, iv.lo as f64, iv.hi as f64))
            })
            .sum()
    }

    /// The boolean `RangeReach` answer, for convenience and cross-checks.
    pub fn exists(&self, v: VertexId, region: &Rect) -> bool {
        let from = self.comp_of[v as usize];
        self.labeling.intervals(from).iter().any(|iv| {
            self.tree.query_exists(&cuboid_from_rect(region, iv.lo as f64, iv.hi as f64))
        })
    }

    /// Approximate heap footprint in bytes.
    pub fn index_bytes(&self) -> usize {
        self.labeling.heap_bytes() + self.tree.heap_bytes() + self.comp_of.len() * 4
    }
}

/// Brute-force `RangeReport` over the condensation, for tests and
/// validation.
pub fn report_bfs(prep: &PreparedNetwork, v: VertexId, region: &Rect) -> Vec<VertexId> {
    let start = prep.comp(v);
    let mut visited = vec![false; prep.num_components()];
    let mut stack = vec![start];
    visited[start as usize] = true;
    let mut out = Vec::new();
    while let Some(c) = stack.pop() {
        for &u in prep.members(c) {
            let Some(p) = prep.network().point(u) else { continue };
            if region.contains_point(&p) {
                out.push(u);
            }
        }
        for &w in prep.dag().out_neighbors(c) {
            if !visited[w as usize] {
                visited[w as usize] = true;
                stack.push(w);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn paper_example_report() {
        let prep = paper_example::prepared();
        let reporter = ThreeDReporter::build(&prep);
        let r = paper_example::query_region();
        // a reaches e and h inside R; c reaches nothing there.
        assert_eq!(
            reporter.report(paper_example::A, &r),
            vec![paper_example::E, paper_example::H]
        );
        assert_eq!(reporter.count(paper_example::A, &r), 2);
        assert!(reporter.exists(paper_example::A, &r));
        assert!(reporter.report(paper_example::C, &r).is_empty());
        assert_eq!(reporter.count(paper_example::C, &r), 0);
        assert!(!reporter.exists(paper_example::C, &r));
    }

    #[test]
    fn matches_bfs_everywhere() {
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            let reporter = ThreeDReporter::build(&prep);
            for v in prep.network().graph().vertices() {
                for r in paper_example::probe_regions() {
                    let expected = report_bfs(&prep, v, &r);
                    assert_eq!(reporter.report(v, &r), expected, "v={v} r={r}");
                    assert_eq!(reporter.count(v, &r), expected.len());
                    assert_eq!(reporter.exists(v, &r), !expected.is_empty());
                }
            }
        }
    }

    #[test]
    fn whole_space_reports_all_spatial_descendants() {
        let prep = paper_example::prepared();
        let reporter = ThreeDReporter::build(&prep);
        let everything = gsr_geo::Rect::new(-1e9, -1e9, 1e9, 1e9);
        // From Figure 1, a reaches b, d, j, e, l, f, g, h, i — of which
        // e, f, h, i, l are spatial.
        let got = reporter.report(paper_example::A, &everything);
        assert_eq!(
            got,
            vec![
                paper_example::E,
                paper_example::F,
                paper_example::H,
                paper_example::I,
                paper_example::L
            ]
        );
    }
}

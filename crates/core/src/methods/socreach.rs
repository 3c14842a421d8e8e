//! SocReach: the social-first approach (Section 4.1).
//!
//! SocReach prioritizes the graph predicate: the interval labels of the
//! query vertex `v` directly describe its descendant set `D(v)` as ranges
//! of post-order numbers, and each descendant with a point is tested for
//! containment in the query region until one hits.
//!
//! Following the paper, no spatial index accelerates the containment tests
//! ("as the set of descendant vertices D(v) is computed on-the-fly, the
//! spatial containment tests cannot be truly accelerated by any spatial
//! indexing"): the method scans a post-order-aligned point table, which is
//! what makes it uncompetitive for high-out-degree query vertices — the
//! second takeaway of Section 6.4.

use super::{check_comp_ids, tag};
use crate::{PreparedNetwork, QueryCost, RangeReachIndex};
use gsr_geo::{Point, Rect};
use gsr_graph::scc::CompId;
use gsr_graph::{Col, ColumnList, Columns, Source, VertexId};
use gsr_reach::compact::{CompactLabels, DeltaArray};

/// The social-first evaluator.
///
/// ```
/// use gsr_core::methods::SocReach;
/// use gsr_core::{paper_example, RangeReachIndex};
///
/// let prep = paper_example::prepared();
/// let idx = SocReach::build(&prep);
/// assert!(idx.query(paper_example::A, &paper_example::query_region()));
/// assert!(!idx.query(paper_example::C, &paper_example::query_region()));
/// ```
#[derive(Debug, Clone)]
pub struct SocReach {
    comp_of: Col<CompId>,
    /// Delta-compressed interval labels: the per-label scans walk the
    /// labels strictly sequentially, so the random-access arrays of the
    /// full [`gsr_reach::interval::IntervalLabeling`] are never needed.
    /// Shared with 3DReach through the prepared network.
    labels: CompactLabels,
    /// Spatial member points grouped by the post-order number of their
    /// component: points of the component with post `p` are
    /// `points[post_offsets[p - 1] .. post_offsets[p]]`. Stored
    /// delta-compressed — the per-post scan decodes them as a cursor.
    post_offsets: DeltaArray,
    points: Col<Point>,
}

impl SocReach {
    /// Takes the forward interval labeling of the condensation DAG (the one
    /// 3DReach shares) and builds the post-order-aligned point table.
    ///
    /// SocReach has no MBR variant: it "does not involve any spatial
    /// indexing" (Section 6.2), so the SCC policy does not apply.
    pub fn build(prep: &PreparedNetwork) -> Self {
        let forward = prep.forward_labels(1);
        let ncomp = prep.num_components();
        let mut comp_of_post = vec![0 as CompId; ncomp];
        for (c, &p) in forward.post.iter().enumerate() {
            comp_of_post[p as usize - 1] = c as CompId;
        }

        let mut post_offsets = Vec::with_capacity(ncomp + 1);
        let mut points = Vec::with_capacity(prep.network().num_spatial());
        post_offsets.push(0u32);
        for comp in comp_of_post {
            points.extend_from_slice(prep.spatial_member_points(comp));
            post_offsets.push(points.len() as u32);
        }

        SocReach {
            comp_of: prep.comp_of(),
            labels: CompactLabels::clone(&forward.labels),
            // The freshly built CSR is monotone by construction, so the
            // fallback is unreachable; it keeps the build panic-free.
            post_offsets: DeltaArray::from_sorted(&post_offsets).unwrap_or_default(),
            points: points.into(),
        }
    }

    /// The compacted interval labels (exposed for stats and tests).
    pub fn labels(&self) -> &CompactLabels {
        &self.labels
    }

    /// Number of descendants (components) the method would enumerate for a
    /// query from `v` — useful for analyzing query cost.
    pub fn descendant_count(&self, v: VertexId) -> usize {
        self.labels.num_descendants(self.comp_of[v as usize])
    }
}

/// Section tag of the post-order-aligned point table.
const POINTS: u16 = 0xB0;

/// The scan-mode scalar a snapshot's `META` holds. Only the paper's
/// per-post scan exists; the value 1 once selected a retired compacted
/// scan, and a snapshot that carries it is refused.
const MODE_PER_POST: u8 = 0;

impl Columns for SocReach {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.meta.u8(MODE_PER_POST);
        out.col(tag::COMP_OF, &self.comp_of, true);
        self.labels.store(out);
        self.post_offsets.store(out);
        out.col(POINTS, &self.points, true);
    }

    /// The labels and the delta stream check themselves; here, the
    /// post-aligned point CSR must have exactly one range per post-order
    /// number and `comp_of` must reference labeled components, so that no
    /// per-label scan can index out of bounds.
    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let mode = src.u8()?;
        if mode != MODE_PER_POST {
            return Err(format!("unknown scan mode {mode}"));
        }
        let comp_of: Col<CompId> = src.col(tag::COMP_OF, "comp-of")?;
        let labels = CompactLabels::load(src)?;
        let post_offsets = DeltaArray::load(src)?;
        let points: Col<Point> = src.col(POINTS, "post-points")?;
        let ncomp = labels.num_vertices();
        if post_offsets.len() != ncomp + 1 {
            return Err(format!(
                "socreach: {} post offsets for {ncomp} components",
                post_offsets.len()
            ));
        }
        if labels.max_post() as usize > ncomp {
            return Err(format!(
                "socreach: labels cover post {} but only {ncomp} components exist",
                labels.max_post()
            ));
        }
        if post_offsets.get(0) != 0 {
            return Err("socreach: post offsets not monotone from 0".into());
        }
        if post_offsets.get(ncomp) as usize != points.len() {
            return Err(format!(
                "socreach: post offsets claim {} points but {} present",
                post_offsets.get(ncomp),
                points.len()
            ));
        }
        check_comp_ids("socreach", "comp_of", comp_of.iter().copied(), ncomp)?;
        Ok(SocReach { comp_of, labels, post_offsets, points })
    }
}

impl RangeReachIndex for SocReach {
    fn num_vertices(&self) -> usize {
        self.comp_of.len()
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        let from = self.comp_of[v as usize];
        let mut cost = QueryCost::default();
        // Every label [l, h] of L(v) is a range query over the post-order
        // numbers (Equation of Section 4.1): "a simple for loop on the
        // array storing the network vertices". Every descendant post is
        // walked, spatial or not, and the points of the spatial ones are
        // tested until one hits. The posts of a label are consecutive, so
        // the delta-compressed CSR is decoded with a forward cursor — one
        // varint per visited post, never a random-access block decode.
        let answer = 'outer: {
            for iv in self.labels.intervals(from) {
                let mut offs = self.post_offsets.iter_from((iv.lo - 1) as usize);
                let mut prev = offs.next().unwrap_or(0) as usize;
                for _p in iv.lo..=iv.hi {
                    cost.vertices_visited += 1;
                    let cur = offs.next().unwrap_or(prev as u32) as usize;
                    let hit = self.points[prev..cur].iter().any(|pt| {
                        cost.containment_tests += 1;
                        region.contains_point(pt)
                    });
                    prev = cur;
                    if hit {
                        break 'outer true;
                    }
                }
            }
            false
        };
        (answer, cost)
    }

    fn index_bytes(&self) -> usize {
        ColumnList::of(self).counted_bytes()
    }

    fn columns(&self) -> Option<ColumnList<'_>> {
        Some(ColumnList::of(self))
    }

    fn name(&self) -> &'static str {
        "SocReach"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn paper_example_4_1() {
        let prep = paper_example::prepared();
        let idx = SocReach::build(&prep);
        let r = paper_example::query_region();
        // Example 4.1: D(a) contains e whose point is in R -> TRUE;
        // D(c) = {f, d, i, k, c} with no point in R -> FALSE.
        assert!(idx.query(paper_example::A, &r));
        assert!(!idx.query(paper_example::C, &r));
        assert_eq!(idx.descendant_count(paper_example::A), 10);
        assert_eq!(idx.descendant_count(paper_example::C), 5);
    }

    #[test]
    fn matches_bfs_on_probe_regions() {
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            let idx = SocReach::build(&prep);
            for v in prep.network().graph().vertices() {
                for r in paper_example::probe_regions() {
                    assert_eq!(
                        idx.query(v, &r),
                        prep.range_reach_bfs(v, &r),
                        "vertex {v}, region {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn point_table_is_consistent() {
        let prep = paper_example::prepared();
        let idx = SocReach::build(&prep);
        // Every post's slice holds exactly the points of that component.
        for (c, &p) in prep.forward_labels(1).post.iter().enumerate() {
            let p = p as usize;
            let (lo, hi) = (idx.post_offsets.get(p - 1), idx.post_offsets.get(p));
            let slice = &idx.points[lo as usize..hi as usize];
            assert_eq!(slice, prep.spatial_member_points(c as CompId), "component {c}");
        }
        assert_eq!(idx.points.len(), prep.network().num_spatial());
    }
}

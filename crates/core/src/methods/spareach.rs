//! SpaReach: the spatial-first approach (Section 2.2.1).
//!
//! A `RangeReach(G, v, R)` query is answered in two steps: a spatial range
//! query over a 2-D R-tree identifies every spatial vertex inside `R`, and
//! a graph-reachability query is issued per candidate until one succeeds.
//! The method is sensitive to the selectivity of the spatial predicate —
//! for negative answers *every* candidate must be tested — which is the
//! weakness the paper's SocReach/3DReach methods address.
//!
//! The paper evaluates two reachability back-ends: [`SpaReachBfl`]
//! (Bloom-filter labeling, the overall best `GReach` scheme) and
//! [`SpaReachInt`] (interval-based labeling).

use super::{check_comp_ids, check_csr, check_entry_mbrs, tag};
use crate::{PreparedNetwork, QueryCost, RangeReachIndex, SccSpatialPolicy};
use gsr_geo::{Aabb, Point, Rect};
use gsr_graph::par;
use gsr_graph::scc::CompId;
use gsr_graph::{Col, ColumnList, Columns, DiGraph, Source, VertexId};
use gsr_index::{RTree, RTreeParams};
use gsr_reach::bfl::{BflIndex, BflParams};
use gsr_reach::interval::{BuildOptions, IntervalLabeling};
use gsr_reach::Reachability;

/// The filter-kind scalar a snapshot's `META` holds: bit 0 is the SCC
/// policy. Every other bit is clear; bit 1 once selected a retired
/// candidate mode, and a snapshot that sets it is refused.
const KIND_MBR: u8 = 1;

/// Generic spatial-first evaluator over a [`Reachability`] back-end.
#[derive(Debug, Clone)]
pub struct SpaReach<R> {
    /// Snapshot of per-component spatial membership for MBR refinement.
    comp_of: Col<CompId>,
    /// The spatial filter. Under [`SccSpatialPolicy::Replicate`] it holds
    /// one point entry per spatial vertex, tagged with its component; under
    /// [`SccSpatialPolicy::Mbr`] one rectangle entry per spatial component
    /// (its member MBR).
    tree: RTree<2, CompId>,
    policy: SccSpatialPolicy,
    reach: R,
    name: &'static str,
    /// Per-component spatial member points (flattened CSR), used to refine
    /// partially overlapping MBR candidates.
    member_offsets: Col<u32>,
    member_points: Col<Point>,
}

/// SpaReach with the BFL reachability index (the paper's best spatial-first
/// variant, kept for the main comparison of Section 6.4).
pub type SpaReachBfl = SpaReach<BflIndex>;

/// SpaReach with the interval-based labeling (Section 6.3 shows BFL wins,
/// matching the graph-reachability literature).
pub type SpaReachInt = SpaReach<IntervalLabeling>;

impl SpaReachBfl {
    /// Builds the 2-D R-tree and the BFL index over the condensation.
    pub fn build(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Self {
        Self::build_threaded(prep, policy, 1)
    }

    /// Like [`SpaReachBfl::build`], constructing both the spatial filter
    /// and the BFL filters with `threads` workers (`0` = machine
    /// parallelism). The result is identical to the sequential build.
    pub fn build_threaded(
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
        threads: usize,
    ) -> Self {
        SpaReach::build_impl(prep, policy, "SpaReach-BFL", threads, |g| {
            BflIndex::build_with(g, BflParams { threads, ..BflParams::default() })
        })
    }
}

impl SpaReachInt {
    /// Builds the 2-D R-tree and the interval labeling over the condensation.
    pub fn build(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Self {
        Self::build_threaded(prep, policy, 1)
    }

    /// Like [`SpaReachInt::build`], constructing both the spatial filter
    /// and the interval labeling with `threads` workers (`0` = machine
    /// parallelism). The result is identical to the sequential build.
    pub fn build_threaded(
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
        threads: usize,
    ) -> Self {
        SpaReach::build_impl(prep, policy, "SpaReach-INT", threads, |g| {
            IntervalLabeling::build_with(g, BuildOptions { threads, ..BuildOptions::default() })
        })
    }
}

impl<R: Reachability + Columns> SpaReach<R> {
    /// Builds the spatial filter with the spatial-member replication pass
    /// and the R-tree packing across `threads` workers (`0` = machine
    /// parallelism), and the back-end with `build_reach`. Every pass
    /// preserves the sequential order of its output, so the built index is
    /// identical at any thread count.
    fn build_impl(
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
        name: &'static str,
        threads: usize,
        build_reach: impl FnOnce(&DiGraph) -> R,
    ) -> Self {
        let entries: Vec<(Aabb<2>, CompId)> = match policy {
            SccSpatialPolicy::Replicate => {
                // The replication pass: one point entry per spatial vertex,
                // tagged with its component. Mapping by index keeps the
                // entry order identical to the sequential scan.
                let spatial: Vec<(VertexId, Point)> = prep.network().spatial_vertices().collect();
                par::map_indexed(threads, spatial.len(), |i| {
                    let (v, p) = spatial[i];
                    (Aabb::from_point([p.x, p.y]), prep.comp(v))
                })
            }
            SccSpatialPolicy::Mbr => par::map_indexed(threads, prep.num_components(), |c| {
                let c = c as CompId;
                prep.comp_mbr(c).map(|m| (m.into(), c))
            })
            .into_iter()
            .flatten()
            .collect(),
        };
        let (member_offsets, member_points) = prep.member_csr();
        SpaReach {
            comp_of: prep.comp_of(),
            tree: RTree::bulk_load_parallel(entries, RTreeParams::default(), threads),
            policy,
            reach: build_reach(prep.dag()),
            name,
            member_offsets,
            member_points,
        }
    }

    /// Access to the reachability back-end.
    #[cfg(test)]
    fn reachability(&self) -> &R {
        &self.reach
    }

    fn member_points(&self, c: CompId) -> &[Point] {
        let lo = self.member_offsets[c as usize] as usize;
        let hi = self.member_offsets[c as usize + 1] as usize;
        &self.member_points[lo..hi]
    }

    /// The persistent columns. The filter kind — its SCC policy — is one
    /// scalar. `comp_of` and the member CSR are derived from the network,
    /// not built by the method, and are left out of its size.
    fn column_list(&self) -> ColumnList<'_> {
        let kind = if self.policy == SccSpatialPolicy::Mbr { KIND_MBR } else { 0 };
        let mut out = ColumnList::default();
        out.meta.u8(kind);
        out.col(tag::COMP_OF, &self.comp_of, false);
        out.col(tag::MEMBER_OFFSETS, &self.member_offsets, false);
        out.col(tag::MEMBER_POINTS, &self.member_points, false);
        self.tree.store(&mut out);
        self.reach.store(&mut out);
        out
    }

    /// [`Columns::load`] for the back-end `R`, which covers `covers(&R)`
    /// components (the [`Reachability`] trait does not expose a count).
    ///
    /// The columns are untrusted: the member CSR must have a range for each
    /// of the back-end's components and every component id — in `comp_of`
    /// and in the filter tree's payloads — must index one, so that no query
    /// can panic.
    fn load_cols<S: Source>(
        src: &mut S,
        name: &'static str,
        covers: fn(&R) -> usize,
    ) -> Result<Self, String> {
        let kind = src.u8()?;
        if kind & !KIND_MBR != 0 {
            return Err(format!("unknown spatial-filter kind {kind}"));
        }
        let comp_of: Col<CompId> = src.col(tag::COMP_OF, "comp-of")?;
        let member_offsets: Col<u32> = src.col(tag::MEMBER_OFFSETS, "member-offsets")?;
        let member_points: Col<Point> = src.col(tag::MEMBER_POINTS, "member-points")?;
        let tree: RTree<2, CompId> = RTree::load(src)?;
        let reach = R::load(src)?;
        let ncomp = covers(&reach);
        check_csr("spareach", "member", ncomp, &member_offsets, member_points.len())?;
        check_comp_ids("spareach", "comp_of", comp_of.iter().copied(), ncomp)?;
        check_comp_ids("spareach", "filter", tree.values().iter().copied(), ncomp)?;
        let policy = if kind & KIND_MBR != 0 {
            check_entry_mbrs("spareach", &tree, &member_offsets, &member_points)?;
            SccSpatialPolicy::Mbr
        } else {
            SccSpatialPolicy::Replicate
        };
        Ok(SpaReach { comp_of, tree, policy, reach, name, member_offsets, member_points })
    }
}

impl Columns for SpaReachBfl {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.append(self.column_list());
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        Self::load_cols(src, "SpaReach-BFL", BflIndex::num_vertices)
    }
}

impl Columns for SpaReachInt {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.append(self.column_list());
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        Self::load_cols(src, "SpaReach-INT", IntervalLabeling::num_vertices)
    }
}

impl<R: Reachability + Columns> RangeReachIndex for SpaReach<R> {
    fn num_vertices(&self) -> usize {
        self.comp_of.len()
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        let from = self.comp_of[v as usize];
        let window: Aabb<2> = (*region).into();
        let tree = &self.tree;
        let mut cost = QueryCost::default();
        let answer = match self.policy {
            SccSpatialPolicy::Replicate => crate::scratch::with_scratch(|scratch| {
                let crate::scratch::QueryScratch { stack, comps, .. } = scratch;
                // Step 1 (Example 2.4): evaluate SRange(P, R) in full,
                // materializing into the reusable candidate buffer.
                comps.clear();
                tree.collect_values(&window, stack, comps);
                cost.spatial_candidates = comps.len();
                // Step 2: one GReach per candidate until a positive.
                comps.iter().any(|&comp| {
                    cost.reach_tests += 1;
                    self.reach.reaches(from, comp)
                })
            }),
            SccSpatialPolicy::Mbr => crate::scratch::with_scratch(|scratch| {
                let crate::scratch::QueryScratch { stack, boxes, .. } = scratch;
                let test = |mbr: &Aabb<2>, comp: CompId, cost: &mut QueryCost| {
                    cost.reach_tests += 1;
                    if !self.reach.reaches(from, comp) {
                        return false;
                    }
                    // A fully contained MBR guarantees a member inside R;
                    // partial overlap is refined against the member points.
                    let mbr_rect: Rect = (*mbr).into();
                    region.contains_rect(&mbr_rect) || {
                        self.member_points(comp).iter().any(|p| {
                            cost.containment_tests += 1;
                            region.contains_point(p)
                        })
                    }
                };
                boxes.clear();
                for run in tree.runs(&window, stack) {
                    boxes.extend(run.map(|i| (tree.entry_box(i), tree.values()[i])));
                }
                cost.spatial_candidates = boxes.len();
                boxes.iter().any(|&(b, c)| test(&b, c, &mut cost))
            }),
        };
        (answer, cost)
    }

    fn index_bytes(&self) -> usize {
        self.column_list().counted_bytes()
    }

    fn columns(&self) -> Option<ColumnList<'_>> {
        Some(self.column_list())
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn paper_example_queries() {
        let prep = paper_example::prepared();
        let r = paper_example::query_region();
        for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
            let bfl = SpaReachBfl::build(&prep, policy);
            let int = SpaReachInt::build(&prep, policy);
            // RangeReach(G, a, R) = TRUE and RangeReach(G, c, R) = FALSE
            // (Examples 2.3 / 2.4).
            assert!(bfl.query(paper_example::A, &r), "a reaches R ({policy:?})");
            assert!(int.query(paper_example::A, &r));
            assert!(!bfl.query(paper_example::C, &r), "c cannot reach R ({policy:?})");
            assert!(!int.query(paper_example::C, &r));
        }
    }

    #[test]
    fn matches_bfs_on_paper_example_everywhere() {
        let prep = paper_example::prepared();
        let idx = SpaReachBfl::build(&prep, SccSpatialPolicy::Replicate);
        let regions = paper_example::probe_regions();
        for v in prep.network().graph().vertices() {
            for r in &regions {
                assert_eq!(idx.query(v, r), prep.range_reach_bfs(v, r), "vertex {v}, region {r}");
            }
        }
    }

    #[test]
    fn threaded_build_is_identical_to_sequential() {
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
                let seq = SpaReachBfl::build(&prep, policy);
                for threads in [2, 4, 8] {
                    let par = SpaReachBfl::build_threaded(&prep, policy, threads);
                    assert_eq!(par.comp_of, seq.comp_of, "{policy:?} t={threads}");
                    assert_eq!(par.member_offsets, seq.member_offsets);
                    assert_eq!(par.member_points, seq.member_points);
                    assert_eq!(par.policy, seq.policy);
                    assert_eq!(par.tree, seq.tree, "{policy:?} t={threads}");
                    for v in prep.network().graph().vertices() {
                        for r in paper_example::probe_regions() {
                            assert_eq!(par.query(v, &r), seq.query(v, &r), "v={v} r={r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn index_bytes_include_both_structures() {
        let prep = paper_example::prepared();
        let idx = SpaReachInt::build(&prep, SccSpatialPolicy::Replicate);
        assert!(idx.index_bytes() > 0);
        assert!(idx.index_bytes() >= idx.reachability().heap_bytes());
        assert_eq!(idx.name(), "SpaReach-INT");
    }
}

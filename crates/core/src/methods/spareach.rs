//! SpaReach: the spatial-first approach (Section 2.2.1).
//!
//! A `RangeReach(G, v, R)` query is answered in two steps: a spatial range
//! query over a 2-D R-tree identifies every spatial vertex inside `R`, and
//! a graph-reachability query is issued per candidate until one succeeds.
//! The method is sensitive to the selectivity of the spatial predicate —
//! for negative answers *every* candidate must be tested — which is the
//! weakness the paper's SocReach/3DReach methods address.
//!
//! The reachability back-end is pluggable: the paper evaluates
//! [`SpaReachBfl`] (Bloom-filter labeling, the overall best `GReach` scheme)
//! and [`SpaReachInt`] (interval-based labeling).

use super::{check_comp_ids, check_csr, tag};
use crate::{PreparedNetwork, QueryCost, RangeReachIndex, SccSpatialPolicy};
use gsr_geo::{Aabb, Rect};
use gsr_graph::par;
use gsr_graph::scc::CompId;
use gsr_graph::{Col, ColumnList, Columns, DiGraph, Source, VertexId};
use gsr_geo::Point;
use gsr_index::{KdTree, QuadTree, RTree, RTreeParams, UniformGrid};
use gsr_reach::bfl::{BflIndex, BflParams};
use gsr_reach::feline::FelineIndex;
use gsr_reach::grail::{GrailIndex, GrailParams};
use gsr_reach::interval::{BuildOptions, IntervalLabeling};
use gsr_reach::pll::PllIndex;
use gsr_reach::Reachability;

/// How SpaReach consumes the spatial range query's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CandidateMode {
    /// Faithful to the paper (Section 2.2.1): the spatial range query is
    /// evaluated *first*, materializing every spatial vertex inside `R`;
    /// only then are `GReach` queries issued one by one until a positive.
    /// This is what makes SpaReach sensitive to the spatial selectivity.
    #[default]
    Materialize,
    /// An engineering improvement over the paper: candidates stream out of
    /// the R-tree and the reachability test runs per candidate, so a
    /// positive answer can stop the range query early. Benched as an
    /// ablation.
    Streaming,
}

/// Which spatial index evaluates the range query of SpaReach's first
/// phase. The paper uses an R-tree "as it is the most dominant structure
/// for spatial data" (Section 7.2); the space-oriented-partitioning
/// alternatives it cites are available for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpatialBackend {
    /// Guttman R-tree (the paper's choice; supports both SCC policies).
    #[default]
    RTree,
    /// Single-level uniform grid (replicate policy only).
    UniformGrid,
    /// Static kd-tree (replicate policy only).
    KdTree,
    /// Point-region quadtree (replicate policy only).
    QuadTree,
}

/// The spatial filter structure, depending on backend and SCC policy.
#[derive(Debug, Clone)]
enum SpatialFilter {
    /// One point entry per spatial vertex, tagged with its component.
    Points(RTree<2, CompId>),
    /// One rectangle entry per spatial *component* (its member MBR).
    CompBoxes(RTree<2, CompId>),
    /// Uniform-grid over points.
    Grid(UniformGrid<CompId>),
    /// kd-tree over points.
    Kd(KdTree<CompId>),
    /// Quadtree over points.
    Quad(QuadTree<CompId>),
}

/// Generic spatial-first evaluator over any [`Reachability`] back-end.
#[derive(Debug, Clone)]
pub struct SpaReach<R> {
    /// Snapshot of per-component spatial membership for MBR refinement.
    comp_of: Col<CompId>,
    filter: SpatialFilter,
    reach: R,
    name: &'static str,
    mode: CandidateMode,
    /// Per-component spatial member points (flattened CSR), used to refine
    /// partially overlapping MBR candidates.
    member_offsets: Col<u32>,
    member_points: Col<gsr_geo::Point>,
}

/// SpaReach with the BFL reachability index (the paper's best spatial-first
/// variant, kept for the main comparison of Section 6.4).
pub type SpaReachBfl = SpaReach<BflIndex>;

/// SpaReach with the interval-based labeling (Section 6.3 shows BFL wins,
/// matching the graph-reachability literature).
pub type SpaReachInt = SpaReach<IntervalLabeling>;

/// SpaReach with pruned landmark labeling — the "SpaReach-PLL" variant of
/// the original GeoReach paper (Section 2.2.1).
pub type SpaReachPll = SpaReach<PllIndex>;

/// SpaReach with the FELINE index — the "SpaReach-Feline" variant of the
/// original GeoReach paper (Section 2.2.1).
pub type SpaReachFeline = SpaReach<FelineIndex>;

/// SpaReach with the GRAIL index (Section 7.1 of the paper's related work).
pub type SpaReachGrail = SpaReach<GrailIndex>;

impl SpaReachBfl {
    /// Builds the 2-D R-tree and the BFL index over the condensation.
    pub fn build(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Self {
        SpaReach::build_with(prep, policy, "SpaReach-BFL", BflIndex::build)
    }

    /// Like [`SpaReachBfl::build`], constructing both the spatial filter
    /// and the BFL filters with `threads` workers (`0` = machine
    /// parallelism). The result is identical to the sequential build.
    pub fn build_threaded(prep: &PreparedNetwork, policy: SccSpatialPolicy, threads: usize) -> Self {
        SpaReach::build_threaded_with(prep, policy, "SpaReach-BFL", threads, move |g| {
            BflIndex::build_with(g, BflParams { threads, ..BflParams::default() })
        })
    }
}

impl<R: Reachability> SpaReach<R> {
    /// Switches the candidate-consumption mode (see [`CandidateMode`]).
    pub fn with_candidate_mode(mut self, mode: CandidateMode) -> Self {
        self.mode = mode;
        self
    }
}

impl SpaReachInt {
    /// Builds the 2-D R-tree and the interval labeling over the condensation.
    pub fn build(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Self {
        SpaReach::build_with(prep, policy, "SpaReach-INT", IntervalLabeling::build)
    }

    /// Like [`SpaReachInt::build`], constructing both the spatial filter
    /// and the interval labeling with `threads` workers (`0` = machine
    /// parallelism). The result is identical to the sequential build.
    pub fn build_threaded(prep: &PreparedNetwork, policy: SccSpatialPolicy, threads: usize) -> Self {
        SpaReach::build_threaded_with(prep, policy, "SpaReach-INT", threads, move |g| {
            IntervalLabeling::build_with(g, BuildOptions { threads, ..BuildOptions::default() })
        })
    }
}

impl SpaReachPll {
    /// Builds the 2-D R-tree and the PLL index over the condensation.
    pub fn build(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Self {
        SpaReach::build_with(prep, policy, "SpaReach-PLL", PllIndex::build)
    }
}

impl SpaReachFeline {
    /// Builds the 2-D R-tree and the FELINE index over the condensation.
    pub fn build(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Self {
        SpaReach::build_with(prep, policy, "SpaReach-Feline", FelineIndex::build)
    }
}

impl SpaReachGrail {
    /// Builds the 2-D R-tree and the GRAIL index over the condensation.
    pub fn build(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Self {
        SpaReach::build_with(prep, policy, "SpaReach-GRAIL", GrailIndex::build)
    }

    /// Like [`SpaReachGrail::build`], constructing both the spatial filter
    /// and the GRAIL traversals with `threads` workers (`0` = machine
    /// parallelism). The result is identical to the sequential build.
    pub fn build_threaded(prep: &PreparedNetwork, policy: SccSpatialPolicy, threads: usize) -> Self {
        SpaReach::build_threaded_with(prep, policy, "SpaReach-GRAIL", threads, move |g| {
            GrailIndex::build_with(g, GrailParams { threads, ..GrailParams::default() })
        })
    }
}

impl<R: Reachability> SpaReach<R> {
    /// Builds a spatial-first evaluator with a custom reachability back-end.
    pub fn build_with(
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
        name: &'static str,
        build_reach: impl FnOnce(&DiGraph) -> R,
    ) -> Self {
        Self::build_with_backend(prep, policy, SpatialBackend::RTree, name, build_reach)
    }

    /// Builds a spatial-first evaluator with a custom reachability back-end,
    /// running the spatial-member replication pass and the R-tree packing
    /// across `threads` workers (`0` = machine parallelism). Every pass
    /// preserves the sequential order of its output, so the built index is
    /// identical to [`SpaReach::build_with`] at any thread count. The
    /// reachability back-end is handed the caller's `build_reach`, which may
    /// itself parallelize (see the `build_threaded` constructors on the
    /// typed aliases).
    pub fn build_threaded_with(
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
        name: &'static str,
        threads: usize,
        build_reach: impl FnOnce(&DiGraph) -> R,
    ) -> Self {
        Self::build_impl(prep, policy, SpatialBackend::RTree, name, threads, build_reach)
    }

    /// Builds a spatial-first evaluator with explicit spatial and
    /// reachability back-ends.
    ///
    /// # Panics
    /// Panics when a space-oriented-partitioning backend is combined with
    /// the MBR policy (those structures index points, not rectangles).
    pub fn build_with_backend(
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
        backend: SpatialBackend,
        name: &'static str,
        build_reach: impl FnOnce(&DiGraph) -> R,
    ) -> Self {
        Self::build_impl(prep, policy, backend, name, 1, build_reach)
    }

    fn build_impl(
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
        backend: SpatialBackend,
        name: &'static str,
        threads: usize,
        build_reach: impl FnOnce(&DiGraph) -> R,
    ) -> Self {
        assert!(
            backend == SpatialBackend::RTree || policy == SccSpatialPolicy::Replicate,
            "only the R-tree backend supports the MBR policy"
        );
        let point_entries = || -> Vec<(Point, CompId)> {
            prep.network().spatial_vertices().map(|(v, p)| (p, prep.comp(v))).collect()
        };
        let filter = match (backend, policy) {
            (SpatialBackend::RTree, SccSpatialPolicy::Replicate) => {
                // The replication pass: one point entry per spatial vertex,
                // tagged with its component. Mapping by index keeps the
                // entry order identical to the sequential scan.
                let spatial: Vec<(VertexId, Point)> =
                    prep.network().spatial_vertices().collect();
                let entries: Vec<(Aabb<2>, CompId)> =
                    par::map_indexed(threads, spatial.len(), |i| {
                        let (v, p) = spatial[i];
                        (Aabb::from_point([p.x, p.y]), prep.comp(v))
                    });
                SpatialFilter::Points(RTree::bulk_load_parallel(
                    entries,
                    RTreeParams::default(),
                    threads,
                ))
            }
            (SpatialBackend::RTree, SccSpatialPolicy::Mbr) => {
                let ncomp = prep.num_components();
                let entries: Vec<(Aabb<2>, CompId)> =
                    par::map_indexed(threads, ncomp, |c| {
                        let c = c as CompId;
                        prep.comp_mbr(c).map(|m| (m.into(), c))
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                SpatialFilter::CompBoxes(RTree::bulk_load_parallel(
                    entries,
                    RTreeParams::default(),
                    threads,
                ))
            }
            (SpatialBackend::UniformGrid, _) => {
                SpatialFilter::Grid(UniformGrid::bulk_load(prep.space(), point_entries(), 16))
            }
            (SpatialBackend::KdTree, _) => SpatialFilter::Kd(KdTree::bulk_load(point_entries())),
            (SpatialBackend::QuadTree, _) => {
                SpatialFilter::Quad(QuadTree::bulk_load(prep.space(), point_entries()))
            }
        };

        let (member_offsets, member_points) = prep.member_csr();

        SpaReach {
            comp_of: prep.comp_of(),
            filter,
            reach: build_reach(prep.dag()),
            name,
            mode: CandidateMode::Materialize,
            member_offsets,
            member_points,
        }
    }

    /// Access to the reachability back-end (for tests and stats).
    pub fn reachability(&self) -> &R {
        &self.reach
    }

    fn member_points(&self, c: CompId) -> &[gsr_geo::Point] {
        let lo = self.member_offsets[c as usize] as usize;
        let hi = self.member_offsets[c as usize + 1] as usize;
        &self.member_points[lo..hi]
    }
}

impl<R: Reachability + Columns> SpaReach<R> {
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
        let filter: fn(RTree<2, CompId>) -> SpatialFilter = match src.u8()? {
            0 => SpatialFilter::Points,
            1 => SpatialFilter::CompBoxes,
            k => return Err(format!("unknown spatial-filter kind {k}")),
        };
        let comp_of: Col<CompId> = src.col(tag::COMP_OF, "comp-of")?;
        let member_offsets: Col<u32> = src.col(tag::MEMBER_OFFSETS, "member-offsets")?;
        let member_points: Col<Point> = src.col(tag::MEMBER_POINTS, "member-points")?;
        let tree: RTree<2, CompId> = RTree::load(src)?;
        let reach = R::load(src)?;
        let ncomp = covers(&reach);
        check_csr("spareach", "member", ncomp, &member_offsets, member_points.len())?;
        check_comp_ids("spareach", "comp_of", comp_of.iter().copied(), ncomp)?;
        check_comp_ids("spareach", "filter", tree.values().iter().copied(), ncomp)?;
        Ok(SpaReach {
            comp_of,
            filter: filter(tree),
            reach,
            name,
            mode: CandidateMode::Materialize,
            member_offsets,
            member_points,
        })
    }
}

/// The declaration itself is [`RangeReachIndex::columns`], which also tells
/// a saver whether the configuration is persistent at all (one that is not
/// declares nothing).
impl Columns for SpaReachBfl {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.append(self.columns().unwrap_or_default());
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        Self::load_cols(src, "SpaReach-BFL", BflIndex::num_vertices)
    }
}

impl Columns for SpaReachInt {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.append(self.columns().unwrap_or_default());
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        Self::load_cols(src, "SpaReach-INT", IntervalLabeling::num_vertices)
    }
}

impl<R: Reachability> RangeReachIndex for SpaReach<R> {
    fn num_vertices(&self) -> usize {
        self.comp_of.len()
    }

    fn query_unchecked(&self, v: VertexId, region: &Rect) -> bool {
        self.query_with_cost_unchecked(v, region).0
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        let from = self.comp_of[v as usize];
        let window: Aabb<2> = (*region).into();
        let mut cost = QueryCost::default();
        let answer = match &self.filter {
            SpatialFilter::Grid(grid) => {
                let mut candidates: Vec<CompId> = Vec::new();
                grid.query_until(region, |_, &comp| {
                    candidates.push(comp);
                    false
                });
                cost.spatial_candidates = candidates.len();
                candidates.into_iter().any(|comp| {
                    cost.reach_tests += 1;
                    self.reach.reaches(from, comp)
                })
            }
            SpatialFilter::Kd(tree) => {
                let candidates: Vec<CompId> =
                    tree.query(region).into_iter().map(|(_, &c)| c).collect();
                cost.spatial_candidates = candidates.len();
                candidates.into_iter().any(|comp| {
                    cost.reach_tests += 1;
                    self.reach.reaches(from, comp)
                })
            }
            SpatialFilter::Quad(tree) => {
                let candidates: Vec<CompId> =
                    tree.query(region).into_iter().map(|(_, &c)| c).collect();
                cost.spatial_candidates = candidates.len();
                candidates.into_iter().any(|comp| {
                    cost.reach_tests += 1;
                    self.reach.reaches(from, comp)
                })
            }
            SpatialFilter::Points(tree) => crate::scratch::with_scratch(|scratch| {
                let crate::scratch::QueryScratch { stack, comps, .. } = scratch;
                match self.mode {
                    CandidateMode::Materialize => {
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
                    }
                    CandidateMode::Streaming => {
                        tree.query_with(&window, stack).any(|(_, &comp)| {
                            cost.spatial_candidates += 1;
                            cost.reach_tests += 1;
                            self.reach.reaches(from, comp)
                        })
                    }
                }
            }),
            SpatialFilter::CompBoxes(tree) => crate::scratch::with_scratch(|scratch| {
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
                match self.mode {
                    CandidateMode::Materialize => {
                        boxes.clear();
                        for run in tree.runs(&window, stack) {
                            boxes.extend(run.map(|i| (tree.entry_box(i), tree.values()[i])));
                        }
                        cost.spatial_candidates = boxes.len();
                        boxes.iter().any(|&(b, c)| test(&b, c, &mut cost))
                    }
                    CandidateMode::Streaming => tree.query_with(&window, stack).any(|(b, &c)| {
                        cost.spatial_candidates += 1;
                        test(&b, c, &mut cost)
                    }),
                }
            }),
        };
        (answer, cost)
    }

    fn index_bytes(&self) -> usize {
        if let Some(list) = self.columns() {
            return list.counted_bytes();
        }
        // An ablation filter or back-end has no persistent columns: a hand
        // sum.
        let filter = match &self.filter {
            SpatialFilter::Points(t) => t.heap_bytes(),
            SpatialFilter::CompBoxes(t) => t.heap_bytes(),
            SpatialFilter::Grid(g) => g.heap_bytes(),
            SpatialFilter::Kd(t) => t.heap_bytes(),
            SpatialFilter::Quad(t) => t.heap_bytes(),
        };
        filter + self.reach.heap_bytes()
    }

    /// Only the paper's configuration is persistent: an R-tree filter (the
    /// space-oriented-partitioning backends are ablation-only and rebuilt
    /// from scratch when needed) in the faithful candidate mode. `comp_of`
    /// and the member CSR are derived from the network, not built by the
    /// method, and are left out of its size.
    fn columns(&self) -> Option<ColumnList<'_>> {
        let (tree, is_mbr) = match (&self.filter, self.mode) {
            (SpatialFilter::Points(t), CandidateMode::Materialize) => (t, false),
            (SpatialFilter::CompBoxes(t), CandidateMode::Materialize) => (t, true),
            _ => return None,
        };
        let mut out = ColumnList::default();
        out.meta.u8(is_mbr as u8);
        out.col(tag::COMP_OF, &self.comp_of, false);
        out.col(tag::MEMBER_OFFSETS, &self.member_offsets, false);
        out.col(tag::MEMBER_POINTS, &self.member_points, false);
        tree.store(&mut out);
        out.append(self.reach.columns()?);
        Some(out)
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
                assert_eq!(
                    idx.query(v, r),
                    prep.range_reach_bfs(v, r),
                    "vertex {v}, region {r}"
                );
            }
        }
    }

    #[test]
    fn all_spatial_backends_agree() {
        use gsr_reach::bfl::BflIndex;
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            let backends = [
                SpatialBackend::RTree,
                SpatialBackend::UniformGrid,
                SpatialBackend::KdTree,
                SpatialBackend::QuadTree,
            ];
            let indexes: Vec<_> = backends
                .iter()
                .map(|&b| {
                    SpaReach::build_with_backend(
                        &prep,
                        SccSpatialPolicy::Replicate,
                        b,
                        "SpaReach-ablate",
                        BflIndex::build,
                    )
                })
                .collect();
            for v in prep.network().graph().vertices() {
                for r in paper_example::probe_regions() {
                    let expected = prep.range_reach_bfs(v, &r);
                    for (idx, b) in indexes.iter().zip(backends) {
                        assert_eq!(idx.query(v, &r), expected, "{b:?} at v={v} r={r}");
                    }
                }
            }
        }
    }

    #[test]
    fn pll_and_feline_backends_match_bfs() {
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            let pll = SpaReachPll::build(&prep, SccSpatialPolicy::Replicate);
            let feline = SpaReachFeline::build(&prep, SccSpatialPolicy::Replicate);
            for v in prep.network().graph().vertices() {
                for r in paper_example::probe_regions() {
                    let expected = prep.range_reach_bfs(v, &r);
                    assert_eq!(pll.query(v, &r), expected, "PLL v={v} r={r}");
                    assert_eq!(feline.query(v, &r), expected, "FELINE v={v} r={r}");
                }
            }
        }
    }

    #[test]
    fn candidate_modes_agree() {
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
                let faithful = SpaReachBfl::build(&prep, policy);
                let streaming =
                    SpaReachBfl::build(&prep, policy).with_candidate_mode(CandidateMode::Streaming);
                for v in prep.network().graph().vertices() {
                    for r in paper_example::probe_regions() {
                        assert_eq!(
                            faithful.query(v, &r),
                            streaming.query(v, &r),
                            "v={v} r={r} {policy:?}"
                        );
                    }
                }
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
                    match (&par.filter, &seq.filter) {
                        (SpatialFilter::Points(a), SpatialFilter::Points(b)) => {
                            assert_eq!(a, b, "{policy:?} t={threads}")
                        }
                        (SpatialFilter::CompBoxes(a), SpatialFilter::CompBoxes(b)) => {
                            assert_eq!(a, b, "{policy:?} t={threads}")
                        }
                        _ => panic!("filter kind changed between builds"),
                    }
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

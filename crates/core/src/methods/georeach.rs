//! GeoReach (Sarwat & Sun), the prior state of the art (Section 2.2.2).
//!
//! GeoReach augments every vertex of the network with precomputed spatial
//! reachability information — the *SPA-graph* — and answers `RangeReach`
//! queries by a pruned breadth-first traversal. Each vertex is one of:
//!
//! * a **G-vertex** carrying `ReachGrid(v)`: the hierarchical-grid cells
//!   (potentially from several levels) containing every spatial vertex
//!   reachable from `v`;
//! * an **R-vertex** carrying `RMBR(v)`: the minimum bounding rectangle of
//!   those spatial vertices (used when the grid set grows past
//!   `MAX_REACH_GRIDS`);
//! * a **B-vertex** carrying only the bit `GeoB(v)`: whether *any* spatial
//!   vertex is reachable (used when the RMBR grows past `MAX_RMBR`).
//!
//! Unlike the paper's new methods, GeoReach exploits no reachability
//! labeling, so part of the network must still be traversed per query —
//! its key weakness (Section 2.2.3). Per Section 6.2, GeoReach "always
//! operates under a non-MBR principle, by design", so there is no SCC
//! spatial-policy knob here; the SPA-graph is built on the condensation and
//! member points are consulted exactly.

use super::{check_comp_ids, check_member_csr, tag};
use crate::{PreparedNetwork, QueryCost, RangeReachIndex};
use gsr_geo::Rect;
use gsr_graph::columns::{Dec, Enc};
use gsr_graph::scc::CompId;
use gsr_graph::{topo, Col, ColumnList, Columns, DiGraph, Source, VertexId};
use gsr_index::grid::{CellId, HierarchicalGrid};

/// Construction parameters of the SPA-graph (Section 2.2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoReachParams {
    /// `MAX_RMBR`: the maximum allowed extent of an `RMBR(v)`, as a fraction
    /// of the whole space's area; vertices above it become B-vertices.
    /// Example 2.5 uses `0.8 * SPACE`.
    pub max_rmbr_frac: f64,
    /// `MAX_REACH_GRIDS`: the maximum cardinality of a `ReachGrid(v)`;
    /// vertices above it become R-vertices.
    pub max_reach_grids: usize,
    /// `MERGE_COUNT`: more than this many sibling quad-cells in a
    /// `ReachGrid` merge into their parent cell.
    pub merge_count: usize,
    /// Finest grid level exponent: `L0` has `2^finest_exp` cells per side.
    pub finest_exp: u8,
}

impl Default for GeoReachParams {
    fn default() -> Self {
        GeoReachParams {
            max_rmbr_frac: 0.8,
            max_reach_grids: 64,
            merge_count: 3,
            finest_exp: 7,
        }
    }
}

/// Per-component spatial reachability information of the SPA-graph.
#[derive(Debug, Clone, PartialEq)]
enum SpaInfo {
    /// `GeoB(v)`: whether any spatial vertex is reachable.
    B(bool),
    /// `RMBR(v)`.
    R(Rect),
    /// `ReachGrid(v)`, merged and deduplicated.
    G(Vec<CellId>),
}

/// The GeoReach evaluator: SPA-graph over the condensation DAG.
#[derive(Debug, Clone)]
pub struct GeoReach {
    comp_of: Col<CompId>,
    dag: DiGraph,
    grid: HierarchicalGrid,
    info: Vec<SpaInfo>,
    /// Member points per component (CSR) for the exact checks during the
    /// traversal.
    member_offsets: Col<u32>,
    member_points: Col<gsr_geo::Point>,
}

impl GeoReach {
    /// Builds the SPA-graph with default parameters.
    pub fn build(prep: &PreparedNetwork) -> Self {
        Self::build_with(prep, GeoReachParams::default())
    }

    /// Builds the SPA-graph with explicit parameters.
    ///
    /// Vertex classification is computed in one reverse-topological pass:
    /// a component's candidate `ReachGrid` is its own members' cells plus
    /// its successors' grids; it is downgraded to an R-vertex when the set
    /// exceeds `MAX_REACH_GRIDS` (or when a successor has already lost its
    /// grid), and further to a B-vertex when the RMBR exceeds `MAX_RMBR`.
    pub fn build_with(prep: &PreparedNetwork, params: GeoReachParams) -> Self {
        let dag = prep.dag().clone();
        let ncomp = prep.num_components();
        let grid = HierarchicalGrid::new(prep.space(), params.finest_exp);
        let max_rmbr_area = params.max_rmbr_frac * prep.space().area();

        // Tight RMBRs and reach-bits for every component, bottom-up.
        // A condensation is acyclic by construction, so ordering it
        // cannot fail.
        #[allow(clippy::expect_used)]
        let order = topo::topological_order(&dag).expect("condensation is a DAG");
        let mut rmbr: Vec<Option<Rect>> = vec![None; ncomp];
        let mut info: Vec<SpaInfo> = Vec::with_capacity(ncomp);
        info.resize_with(ncomp, || SpaInfo::B(false));

        for &c in order.iter().rev() {
            let ci = c as usize;
            // Own spatial members.
            let mut my_rmbr = prep.comp_mbr(c);
            let mut my_cells: Option<Vec<CellId>> = Some(
                prep.spatial_member_points(c)
                    .map(|p| grid.cell_of(&p))
                    .collect(),
            );
            // Successors.
            for &s in dag.out_neighbors(c) {
                let si = s as usize;
                match (&mut my_rmbr, rmbr[si]) {
                    (_, None) => {
                        // Successor is B(false) (nothing spatial) or B(true)
                        // (unbounded). Distinguish via its info.
                        if matches!(info[si], SpaInfo::B(true)) {
                            my_rmbr = None; // unbounded propagates
                            my_cells = None;
                            break;
                        }
                        // B(false): contributes nothing.
                    }
                    (None, Some(sr)) => my_rmbr = Some(sr),
                    (Some(mr), Some(sr)) => mr.expand_to_rect(&sr),
                }
                // Grid set: only exact if the successor kept one.
                if let Some(ref mut mine) = my_cells {
                    match &info[si] {
                        SpaInfo::G(sc) => mine.extend_from_slice(sc),
                        SpaInfo::B(false) => {}
                        _ => my_cells = None,
                    }
                }
            }

            // Classify along the G >= R >= B lattice.
            let downgrade = |rm: Option<Rect>| match rm {
                Some(r) if r.area() <= max_rmbr_area => SpaInfo::R(r),
                // RMBR too large, or unbounded via a B(true) successor.
                _ => SpaInfo::B(true),
            };
            info[ci] = match my_cells.take() {
                Some(cs) if cs.is_empty() => SpaInfo::B(false),
                Some(mut cs) => {
                    grid.merge_cells(&mut cs, params.merge_count);
                    if cs.len() <= params.max_reach_grids {
                        SpaInfo::G(cs)
                    } else {
                        downgrade(my_rmbr)
                    }
                }
                None => downgrade(my_rmbr),
            };
            // A B-vertex exposes no geometry to its predecessors: the
            // SPA-graph stores only GeoB(v) for it, so its tight RMBR must
            // not leak upward (it would make our GeoReach stronger than the
            // paper's).
            rmbr[ci] = match info[ci] {
                SpaInfo::B(_) => None,
                _ => my_rmbr,
            };
        }

        // Member points for the exact traversal checks.
        let (member_offsets, member_points) = prep.member_csr();

        GeoReach {
            comp_of: prep.comp_of(),
            dag,
            grid,
            info,
            member_offsets: member_offsets.into(),
            member_points: member_points.into(),
        }
    }

    fn own_member_in(&self, c: CompId, region: &Rect, cost: &mut QueryCost) -> bool {
        let lo = self.member_offsets[c as usize] as usize;
        let hi = self.member_offsets[c as usize + 1] as usize;
        self.member_points[lo..hi].iter().any(|p| {
            cost.containment_tests += 1;
            region.contains_point(p)
        })
    }

    /// Classification counts `(b, r, g)` — useful for inspecting how the
    /// construction parameters shape the SPA-graph.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for i in &self.info {
            match i {
                SpaInfo::B(_) => counts.0 += 1,
                SpaInfo::R(_) => counts.1 += 1,
                SpaInfo::G(_) => counts.2 += 1,
            }
        }
        counts
    }
}

/// Section tag of the encoded SPA-info table.
const SPA_INFO: u16 = 0x80;

fn enc_rect(e: &mut Enc, r: &Rect) {
    for x in [r.min_x, r.min_y, r.max_x, r.max_y] {
        e.f64(x);
    }
}

/// Decodes a rectangle — through a struct literal, not [`Rect::new`], whose
/// `debug_assert` would turn adversarial (checksum-forged) coordinates into
/// a debug-build panic.
fn dec_rect(mut next: impl FnMut() -> Result<f64, String>) -> Result<Rect, String> {
    Ok(Rect { min_x: next()?, min_y: next()?, max_x: next()?, max_y: next()? })
}

/// Encodes the SPA-info table: a count, then one tagged entry per component.
fn enc_spa_info(info: &[SpaInfo]) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(info.len() as u64);
    for i in info {
        match i {
            SpaInfo::B(b) => e.u8(*b as u8),
            SpaInfo::R(r) => {
                e.u8(2);
                enc_rect(&mut e, r);
            }
            SpaInfo::G(cells) => {
                e.u8(3);
                e.u64(cells.len() as u64);
                for c in cells {
                    e.u8(c.level);
                    e.u32(c.ix);
                    e.u32(c.iy);
                }
            }
        }
    }
    e.into_bytes()
}

/// Decodes an SPA-info table for `grid`. Untrusted: every count is bounded
/// by the bytes that remain, and every cell must be one of `grid`'s, so
/// that [`HierarchicalGrid::cell_rect`] is defined for it.
fn dec_spa_info(bytes: &[u8], grid: &HierarchicalGrid) -> Result<Vec<SpaInfo>, String> {
    let what = "spa-info";
    let mut d = Dec::new(bytes);
    let n = d.count(1, what)?;
    let mut info = Vec::with_capacity(n);
    for _ in 0..n {
        info.push(match d.u8(what)? {
            0 => SpaInfo::B(false),
            1 => SpaInfo::B(true),
            2 => SpaInfo::R(dec_rect(|| d.f64(what))?),
            3 => {
                let c = d.count(9, what)?;
                let mut cells = Vec::with_capacity(c);
                for _ in 0..c {
                    let cell = CellId { level: d.u8(what)?, ix: d.u32(what)?, iy: d.u32(what)? };
                    let side = grid.finest_exp().checked_sub(cell.level).map(|e| 1u32 << e);
                    if !side.is_some_and(|side| cell.ix < side && cell.iy < side) {
                        return Err(format!("{what}: {cell:?} is not a cell of the grid"));
                    }
                    cells.push(cell);
                }
                SpaInfo::G(cells)
            }
            k => return Err(format!("unknown {what} kind {k}")),
        });
    }
    d.finish(what)?;
    Ok(info)
}

impl GeoReach {
    /// The declaration behind [`Columns::store`], which passes the table's
    /// encoding as `spa_info`, and `index_bytes`, which has no use for it.
    /// The SPA-info table is not a flat arena: it travels as one encoded
    /// section and counts by what it occupies in memory
    /// ([`ColumnList::extra`]). The member CSR is derived from the network,
    /// not built by the method, and is left out of its size.
    fn declare<'a>(&'a self, out: &mut ColumnList<'a>, spa_info: Vec<u8>) {
        out.meta.u8(self.grid.finest_exp());
        enc_rect(&mut out.meta, self.grid.space());
        out.col(tag::COMP_OF, &self.comp_of, true);
        self.dag.store(out);
        out.encoded(SPA_INFO, spa_info);
        let in_memory = |info: &SpaInfo| match info {
            SpaInfo::B(_) => 1,
            SpaInfo::R(_) => std::mem::size_of::<Rect>(),
            SpaInfo::G(cells) => cells.len() * std::mem::size_of::<CellId>(),
        };
        out.extra += self.info.iter().map(in_memory).sum::<usize>();
        out.col(tag::MEMBER_OFFSETS, &self.member_offsets, false);
        out.col(tag::MEMBER_POINTS, &self.member_points, false);
    }
}

impl Columns for GeoReach {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        self.declare(out, enc_spa_info(&self.info));
    }

    /// Every per-component table must match the DAG's vertex count and
    /// `comp_of` must reference DAG components, so that no traversal can
    /// index out of bounds.
    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let finest_exp = src.u8()?;
        let space = dec_rect(|| src.u64().map(f64::from_bits))?;
        let corners = [space.min_x, space.min_y, space.max_x, space.max_y];
        if !corners.iter().all(|x| x.is_finite())
            || space.min_x > space.max_x
            || space.min_y > space.max_y
        {
            return Err(format!("georeach: malformed space {space:?}"));
        }
        let grid = HierarchicalGrid::new(space, finest_exp);
        let comp_of: Col<CompId> = src.col(tag::COMP_OF, "comp-of")?;
        let dag = DiGraph::load(src)?;
        let info = dec_spa_info(&src.col::<u8>(SPA_INFO, "spa-info")?, &grid)?;
        let member_offsets: Col<u32> = src.col(tag::MEMBER_OFFSETS, "member-offsets")?;
        let member_points = src.col(tag::MEMBER_POINTS, "member-points")?;
        let ncomp = dag.num_vertices();
        if info.len() != ncomp {
            return Err(format!("georeach: {} info entries for {ncomp} components", info.len()));
        }
        check_member_csr("georeach", ncomp, &member_offsets, &member_points)?;
        check_comp_ids("georeach", "comp_of", comp_of.iter().copied(), ncomp)?;
        Ok(GeoReach { comp_of, dag, grid, info, member_offsets, member_points })
    }
}

impl RangeReachIndex for GeoReach {
    fn num_vertices(&self) -> usize {
        self.comp_of.len()
    }

    fn query_unchecked(&self, v: VertexId, region: &Rect) -> bool {
        self.query_with_cost_unchecked(v, region).0
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        let mut cost = QueryCost::default();
        let start = self.comp_of[v as usize];
        crate::scratch::with_scratch(|scratch| {
            scratch.begin_visit(self.dag.num_vertices());
            scratch.mark(start);
            scratch.queue.push_back(start);

            while let Some(c) = scratch.queue.pop_front() {
                cost.vertices_visited += 1;
                let expand = match &self.info[c as usize] {
                    // GeoB(v) = FALSE: nothing spatial downstream — prune.
                    SpaInfo::B(false) => false,
                    // GeoB(v) = TRUE: no geometry to prune with — expand, but
                    // first test the component's own points exactly.
                    SpaInfo::B(true) => {
                        if self.own_member_in(c, region, &mut cost) {
                            return (true, cost);
                        }
                        true
                    }
                    SpaInfo::R(rmbr) => {
                        if !rmbr.intersects(region) {
                            false // no reachable spatial vertex can be in R
                        } else if region.contains_rect(rmbr) {
                            // All reachable spatial vertices are inside R and at
                            // least one exists.
                            return (true, cost);
                        } else {
                            if self.own_member_in(c, region, &mut cost) {
                                return (true, cost);
                            }
                            true
                        }
                    }
                    SpaInfo::G(cells) => {
                        let mut any_overlap = false;
                        for cell in cells {
                            let r = self.grid.cell_rect(cell);
                            if region.contains_rect(&r) {
                                // A ReachGrid cell always holds >= 1 reachable
                                // spatial vertex: terminate with TRUE.
                                return (true, cost);
                            }
                            any_overlap |= r.intersects(region);
                        }
                        if !any_overlap {
                            false
                        } else {
                            if self.own_member_in(c, region, &mut cost) {
                                return (true, cost);
                            }
                            true
                        }
                    }
                };
                if expand {
                    for &w in self.dag.out_neighbors(c) {
                        if scratch.mark(w) {
                            scratch.queue.push_back(w);
                        }
                    }
                }
            }
            (false, cost)
        })
    }

    fn index_bytes(&self) -> usize {
        let mut list = ColumnList::default();
        self.declare(&mut list, Vec::new());
        list.counted_bytes()
    }

    fn columns(&self) -> Option<ColumnList<'_>> {
        Some(ColumnList::of(self))
    }

    fn name(&self) -> &'static str {
        "GeoReach"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn paper_example_2_6() {
        let prep = paper_example::prepared();
        let idx = GeoReach::build(&prep);
        let r = paper_example::query_region();
        assert!(idx.query(paper_example::A, &r));
        assert!(!idx.query(paper_example::C, &r));
    }

    #[test]
    fn matches_bfs_for_all_parameterizations() {
        let params = [
            GeoReachParams::default(),
            // Tiny budgets force R- and B-vertices everywhere.
            GeoReachParams {
                max_reach_grids: 1,
                max_rmbr_frac: 0.05,
                merge_count: 1,
                finest_exp: 3,
            },
            // Generous budgets keep everything a G-vertex.
            GeoReachParams {
                max_reach_grids: 1 << 20,
                max_rmbr_frac: 1.0,
                merge_count: 1000,
                finest_exp: 5,
            },
            // Degenerate grid: a single cell.
            GeoReachParams {
                max_reach_grids: 8,
                max_rmbr_frac: 0.5,
                merge_count: 2,
                finest_exp: 0,
            },
        ];
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            for p in params {
                let idx = GeoReach::build_with(&prep, p);
                for v in prep.network().graph().vertices() {
                    for r in paper_example::probe_regions() {
                        assert_eq!(
                            idx.query(v, &r),
                            prep.range_reach_bfs(v, &r),
                            "vertex {v}, region {r}, params {p:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn classification_reacts_to_parameters() {
        let prep = paper_example::prepared();
        let generous = GeoReach::build_with(
            &prep,
            GeoReachParams {
                max_reach_grids: 1 << 20,
                max_rmbr_frac: 1.0,
                merge_count: 1000,
                finest_exp: 5,
            },
        );
        let (_b, r, g) = generous.class_counts();
        assert_eq!(r, 0, "generous budgets never downgrade to R");
        assert!(g > 0);

        let stingy = GeoReach::build_with(
            &prep,
            GeoReachParams {
                max_reach_grids: 0,
                max_rmbr_frac: -1.0,
                merge_count: 1,
                finest_exp: 5,
            },
        );
        let (_b2, r2, g2) = stingy.class_counts();
        assert_eq!(g2, 0, "zero grid budget leaves no G-vertices");
        assert_eq!(r2, 0, "negative RMBR budget leaves no R-vertices");
        // Answers must still be exact.
        let reg = paper_example::query_region();
        assert!(stingy.query(paper_example::A, &reg));
        assert!(!stingy.query(paper_example::C, &reg));
    }

    #[test]
    fn vertices_with_no_spatial_reach_are_pruned() {
        let prep = paper_example::prepared();
        let idx = GeoReach::build(&prep);
        // d and k reach no spatial vertex: B(false) everywhere.
        for r in paper_example::probe_regions() {
            assert!(!idx.query(paper_example::D, &r));
            assert!(!idx.query(paper_example::K, &r));
        }
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let grid = HierarchicalGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), 3);
        let info = vec![
            SpaInfo::B(true),
            SpaInfo::R(Rect { min_x: 0.0, min_y: 1.0, max_x: 2.0, max_y: 3.0 }),
            SpaInfo::G(vec![CellId { level: 2, ix: 1, iy: 1 }]),
        ];
        let bytes = enc_spa_info(&info);
        assert_eq!(dec_spa_info(&bytes, &grid).unwrap(), info);
        for cut in [0, 1, 8, bytes.len() - 1] {
            assert!(dec_spa_info(&bytes[..cut], &grid).is_err(), "cut at {cut} must fail");
        }
        // A cell the grid does not have: a level above the root, or an index
        // past the level's side.
        for cell in [CellId { level: 4, ix: 0, iy: 0 }, CellId { level: 2, ix: 2, iy: 0 }] {
            let bytes = enc_spa_info(&[SpaInfo::G(vec![cell])]);
            assert!(dec_spa_info(&bytes, &grid).unwrap_err().contains("not a cell"));
        }
    }
}

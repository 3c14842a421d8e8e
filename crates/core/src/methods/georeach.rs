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

use super::{check_comp_ids, check_csr, tag};
use crate::{PreparedNetwork, QueryCost, RangeReachIndex};
use gsr_geo::{Aabb, Rect};
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
        GeoReachParams { max_rmbr_frac: 0.8, max_reach_grids: 64, merge_count: 3, finest_exp: 7 }
    }
}

/// The values of the SPA table's kind column: what the SPA-graph keeps for
/// a component.
mod kind {
    /// `GeoB(v) = FALSE`: no spatial vertex is reachable.
    pub(super) const B_FALSE: u8 = 0;
    /// `GeoB(v) = TRUE`, and nothing else.
    pub(super) const B_TRUE: u8 = 1;
    /// `RMBR(v)`.
    pub(super) const R: u8 = 2;
    /// `ReachGrid(v)`, merged and deduplicated.
    pub(super) const G: u8 = 3;
}

/// The GeoReach evaluator: SPA-graph over the condensation DAG.
///
/// The SPA table is four flat columns, queried where a snapshot maps them:
/// a kind per component (the `kind` constants), a CSR over `u32` entries — a G-vertex's
/// entries are its `ReachGrid` cells, an R-vertex has one, the index of its
/// `RMBR` in the rectangle column, a B-vertex none — and the R-vertices'
/// rectangles in component order.
#[derive(Debug, Clone)]
pub struct GeoReach {
    comp_of: Col<CompId>,
    dag: DiGraph,
    grid: HierarchicalGrid,
    kinds: Col<u8>,
    cell_offsets: Col<u32>,
    cells: Col<u32>,
    rmbrs: Col<Aabb<2>>,
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
        let mut kinds = vec![kind::B_FALSE; ncomp];
        // The G-vertices' grids, until all are known and can be laid out in
        // component order.
        let mut grids: Vec<Vec<CellId>> = vec![Vec::new(); ncomp];

        for &c in order.iter().rev() {
            let ci = c as usize;
            // Own spatial members.
            let mut my_rmbr = prep.comp_mbr(c);
            let mut my_cells: Option<Vec<CellId>> =
                Some(prep.spatial_member_points(c).iter().map(|p| grid.cell_of(p)).collect());
            // Successors.
            for &s in dag.out_neighbors(c) {
                let si = s as usize;
                match (&mut my_rmbr, rmbr[si]) {
                    (_, None) => {
                        // Successor is B(false) (nothing spatial) or B(true)
                        // (unbounded). Distinguish via its kind.
                        if kinds[si] == kind::B_TRUE {
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
                    match kinds[si] {
                        kind::G => mine.extend_from_slice(&grids[si]),
                        kind::B_FALSE => {}
                        _ => my_cells = None,
                    }
                }
            }

            // Classify along the G >= R >= B lattice.
            let downgrade = |rm: Option<Rect>| match rm {
                Some(r) if r.area() <= max_rmbr_area => kind::R,
                // RMBR too large, or unbounded via a B(true) successor.
                _ => kind::B_TRUE,
            };
            kinds[ci] = match my_cells.take() {
                Some(cs) if cs.is_empty() => kind::B_FALSE,
                Some(mut cs) => {
                    grid.merge_cells(&mut cs, params.merge_count);
                    if cs.len() <= params.max_reach_grids {
                        grids[ci] = cs;
                        kind::G
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
            rmbr[ci] = match kinds[ci] {
                kind::R | kind::G => my_rmbr,
                _ => None,
            };
        }

        // The table's columns, in component order.
        let mut cell_offsets = Vec::with_capacity(ncomp + 1);
        let (mut cells, mut rmbrs) = (Vec::new(), Vec::new());
        cell_offsets.push(0);
        for c in 0..ncomp {
            match (kinds[c], rmbr[c]) {
                (kind::G, _) => cells.extend(grids[c].iter().map(CellId::encode)),
                (kind::R, Some(r)) => {
                    cells.push(rmbrs.len() as u32);
                    rmbrs.push(Aabb::from(r));
                }
                _ => {}
            }
            cell_offsets.push(cells.len() as u32);
        }

        // Member points for the exact traversal checks.
        let (member_offsets, member_points) = prep.member_csr();

        GeoReach {
            comp_of: prep.comp_of(),
            dag,
            grid,
            kinds: kinds.into(),
            cell_offsets: cell_offsets.into(),
            cells: cells.into(),
            rmbrs: rmbrs.into(),
            member_offsets,
            member_points,
        }
    }

    /// Component `c`'s entries in the cell column.
    fn entries(&self, c: usize) -> &[u32] {
        &self.cells[self.cell_offsets[c] as usize..self.cell_offsets[c + 1] as usize]
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
        for k in self.kinds.iter() {
            match *k {
                kind::R => counts.1 += 1,
                kind::G => counts.2 += 1,
                _ => counts.0 += 1,
            }
        }
        counts
    }
}

/// Section tags of the SPA table (`0x80` was its encoding in formats up to
/// 4, and is not reused).
mod spa_tag {
    pub(super) const KINDS: u16 = 0x81;
    pub(super) const CELL_OFFSETS: u16 = 0x82;
    pub(super) const CELLS: u16 = 0x83;
    pub(super) const RMBRS: u16 = 0x84;
}

/// Whether a rectangle read from a file is one: finite corners, not
/// inverted.
fn well_formed(min: [f64; 2], max: [f64; 2]) -> bool {
    min.iter().chain(&max).all(|x| x.is_finite()) && min[0] <= max[0] && min[1] <= max[1]
}

impl GeoReach {
    /// Checks an SPA table that came from disk against the DAG and the
    /// grid: every row a query can ask for is there, every
    /// cell is one [`HierarchicalGrid::cell_rect`] is defined for, every
    /// rectangle is one, and no entry is left over.
    fn check_spa_table(&self) -> Result<(), String> {
        let ncomp = self.dag.num_vertices();
        if self.kinds.len() != ncomp {
            return Err(format!("georeach: {} spa kinds for {ncomp} components", self.kinds.len()));
        }
        check_csr("georeach", "spa cell", ncomp, &self.cell_offsets, self.cells.len())?;
        let mut rmbrs = 0;
        for (c, &k) in self.kinds.iter().enumerate() {
            match (k, self.entries(c)) {
                (kind::B_FALSE | kind::B_TRUE, []) => {}
                // The rectangles are in component order, each named once.
                (kind::R, &[named]) if named as usize == rmbrs => rmbrs += 1,
                (kind::R, &[named]) => {
                    return Err(format!(
                        "georeach: component {c} names rmbr {named}, the next is {rmbrs}"
                    ));
                }
                (kind::G, cells @ [_, ..]) => {
                    for cell in cells.iter().map(|&e| CellId::decode(e)) {
                        let side =
                            self.grid.finest_exp().checked_sub(cell.level).map(|e| 1u32 << e);
                        if !side.is_some_and(|side| cell.ix < side && cell.iy < side) {
                            return Err(format!("georeach: {cell:?} is not a cell of the grid"));
                        }
                    }
                }
                (kind::B_FALSE..=kind::G, entries) => {
                    return Err(format!(
                        "georeach: component {c} of spa kind {k} has {} cell entries",
                        entries.len()
                    ));
                }
                _ => return Err(format!("georeach: component {c} has unknown spa kind {k}")),
            }
        }
        if rmbrs != self.rmbrs.len() {
            return Err(format!("georeach: {} rmbrs for {rmbrs} R-vertices", self.rmbrs.len()));
        }
        match self.rmbrs.iter().find(|r| !well_formed(r.min, r.max)) {
            Some(r) => Err(format!("georeach: malformed rmbr {r:?}")),
            None => Ok(()),
        }
    }
}

impl Columns for GeoReach {
    /// The member CSR is derived from the network, not built by the method,
    /// and is left out of its size.
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.meta.u8(self.grid.finest_exp());
        let space = self.grid.space();
        for corner in [space.min_x, space.min_y, space.max_x, space.max_y] {
            out.meta.f64(corner);
        }
        out.col(tag::COMP_OF, &self.comp_of, true);
        self.dag.store(out);
        out.col(spa_tag::KINDS, &self.kinds, true);
        out.col(spa_tag::CELL_OFFSETS, &self.cell_offsets, true);
        out.col(spa_tag::CELLS, &self.cells, true);
        out.col(spa_tag::RMBRS, &self.rmbrs, true);
        out.col(tag::MEMBER_OFFSETS, &self.member_offsets, false);
        out.col(tag::MEMBER_POINTS, &self.member_points, false);
    }

    /// Every per-component table must match the DAG's vertex count and
    /// `comp_of` must reference DAG components, so that no traversal can
    /// index out of bounds.
    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let finest_exp = src.u8()?;
        let mut corner = || src.u64().map(f64::from_bits);
        let (min, max) = ([corner()?, corner()?], [corner()?, corner()?]);
        if !well_formed(min, max) {
            return Err(format!("georeach: malformed space {min:?}..{max:?}"));
        }
        let grid = HierarchicalGrid::new(Rect::new(min[0], min[1], max[0], max[1]), finest_exp);
        let loaded = GeoReach {
            comp_of: src.col(tag::COMP_OF, "comp-of")?,
            dag: DiGraph::load(src)?,
            grid,
            kinds: src.col(spa_tag::KINDS, "spa-kinds")?,
            cell_offsets: src.col(spa_tag::CELL_OFFSETS, "spa-cell-offsets")?,
            cells: src.col(spa_tag::CELLS, "spa-cells")?,
            rmbrs: src.col(spa_tag::RMBRS, "spa-rmbrs")?,
            member_offsets: src.col(tag::MEMBER_OFFSETS, "member-offsets")?,
            member_points: src.col(tag::MEMBER_POINTS, "member-points")?,
        };
        let ncomp = loaded.dag.num_vertices();
        loaded.check_spa_table()?;
        check_csr("georeach", "member", ncomp, &loaded.member_offsets, loaded.member_points.len())?;
        check_comp_ids("georeach", "comp_of", loaded.comp_of.iter().copied(), ncomp)?;
        Ok(loaded)
    }
}

impl RangeReachIndex for GeoReach {
    fn num_vertices(&self) -> usize {
        self.comp_of.len()
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        let mut cost = QueryCost::default();
        let start = self.comp_of[v as usize];
        crate::scratch::with_scratch(|scratch| {
            scratch.begin_visit(self.dag.num_vertices());
            scratch.visited.mark(start);
            scratch.queue.push_back(start);

            while let Some(c) = scratch.queue.pop_front() {
                cost.vertices_visited += 1;
                let entries = self.entries(c as usize);
                // Whether the table leaves it open that a reachable spatial
                // vertex lies in the region. It was built here or validated
                // by `load`: the kinds are these four, an R-vertex has its
                // one entry.
                let open = match self.kinds[c as usize] {
                    // GeoB(v) = FALSE: nothing spatial downstream — prune.
                    kind::B_FALSE => false,
                    // GeoB(v) = TRUE: no geometry to prune with.
                    kind::B_TRUE => true,
                    kind::R => {
                        let rmbr = Rect::from(self.rmbrs[entries[0] as usize]);
                        if region.contains_rect(&rmbr) {
                            // All reachable spatial vertices are inside R and at
                            // least one exists.
                            return (true, cost);
                        }
                        rmbr.intersects(region)
                    }
                    _ => {
                        let mut any_overlap = false;
                        for &cell in entries {
                            let r = self.grid.cell_rect(&CellId::decode(cell));
                            if region.contains_rect(&r) {
                                // A ReachGrid cell always holds >= 1 reachable
                                // spatial vertex: terminate with TRUE.
                                return (true, cost);
                            }
                            any_overlap |= r.intersects(region);
                        }
                        any_overlap
                    }
                };
                if open {
                    // Test the component's own points exactly, then expand.
                    if self.own_member_in(c, region, &mut cost) {
                        return (true, cost);
                    }
                    for &w in self.dag.out_neighbors(c) {
                        if scratch.visited.mark(w) {
                            scratch.queue.push_back(w);
                        }
                    }
                }
            }
            (false, cost)
        })
    }

    fn index_bytes(&self) -> usize {
        ColumnList::of(self).counted_bytes()
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
    use gsr_graph::columns::MemSource;

    /// Budgets under which the paper's example keeps every kind of vertex:
    /// five B, five R, two G.
    const MIXED: GeoReachParams =
        GeoReachParams { max_reach_grids: 1, max_rmbr_frac: 0.3, merge_count: 1, finest_exp: 3 };

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
            MIXED,
        ];
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            for p in params {
                let idx = GeoReach::build_with(&prep, p);
                // What a snapshot of it loads as: the same table, mapped.
                let loaded: GeoReach = MemSource::new(ColumnList::of(&idx)).load().unwrap();
                assert_eq!(loaded.class_counts(), idx.class_counts(), "params {p:?}");
                assert_eq!(loaded.index_bytes(), idx.index_bytes(), "params {p:?}");
                for v in prep.network().graph().vertices() {
                    for r in paper_example::probe_regions() {
                        let built = idx.query_with_cost(v, &r);
                        assert_eq!(
                            built.0,
                            prep.range_reach_bfs(v, &r),
                            "vertex {v}, region {r}, params {p:?}"
                        );
                        assert_eq!(
                            loaded.query_with_cost(v, &r),
                            built,
                            "loaded: vertex {v}, region {r}, params {p:?}"
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

    /// A snapshot round trip of `idx` without the file, after `edit` has had
    /// its way with the bytes of column `tag`.
    fn reloaded(
        idx: &GeoReach,
        tag: u16,
        edit: impl FnOnce(&mut Vec<u8>),
    ) -> Result<GeoReach, String> {
        let mut list = ColumnList::of(idx);
        let col = list.cols.iter_mut().find(|c| c.tag == tag).expect("declared column");
        edit(col.bytes.to_mut());
        MemSource::new(list).load()
    }

    /// The SPA table's columns are untrusted: whatever `info` or
    /// `cell_rect` would trip over is refused by name.
    #[test]
    fn malformed_spa_columns_are_typed_errors() {
        let idx = GeoReach::build_with(&paper_example::prepared(), MIXED);
        let (b, r, g) = idx.class_counts();
        assert!(b > 0 && r > 1 && g > 0, "the case needs every kind: {b} B, {r} R, {g} G");
        let first = |k: u8| idx.kinds.iter().position(|&x| x == k).expect("kind present");
        let (b_at, r_at, g_at) = (first(kind::B_FALSE), first(kind::R), first(kind::G));
        let set = |at: usize, v: u32| {
            move |bytes: &mut Vec<u8>| bytes[4 * at..4 * at + 4].copy_from_slice(&v.to_le_bytes())
        };
        let entry = |c: usize| idx.cell_offsets[c] as usize;
        let last = idx.cell_offsets.len() - 1;
        let cell = |level, ix, iy| CellId { level, ix, iy }.encode();
        let coord = |i: usize, v: f64| {
            move |bytes: &mut Vec<u8>| bytes[8 * i..8 * i + 8].copy_from_slice(&v.to_le_bytes())
        };

        let refused: Vec<(&str, Result<GeoReach, String>, &str)> = vec![
            (
                "kind out of range",
                reloaded(&idx, spa_tag::KINDS, |b| b[g_at] = 4),
                "unknown spa kind 4",
            ),
            (
                "a kind too few",
                reloaded(&idx, spa_tag::KINDS, |b| b.truncate(b.len() - 1)),
                "spa kinds for",
            ),
            // Per-component lengths: a B-vertex with entries, an R-vertex
            // and a G-vertex with none.
            (
                "B with entries",
                reloaded(&idx, spa_tag::KINDS, |b| b[g_at] = kind::B_TRUE),
                "cell entries",
            ),
            (
                "R without its entry",
                reloaded(&idx, spa_tag::KINDS, |b| b[b_at] = kind::R),
                "cell entries",
            ),
            (
                "G without cells",
                reloaded(&idx, spa_tag::KINDS, |b| b[b_at] = kind::G),
                "cell entries",
            ),
            // The CSR: not from 0, not monotone, past the cells, short.
            (
                "offsets not from 0",
                reloaded(&idx, spa_tag::CELL_OFFSETS, set(0, 1)),
                "not monotone from 0",
            ),
            (
                "offsets not monotone",
                reloaded(&idx, spa_tag::CELL_OFFSETS, set(1, u32::MAX)),
                "not monotone from 0",
            ),
            (
                "offsets past the cells",
                reloaded(&idx, spa_tag::CELL_OFFSETS, set(last, u32::MAX)),
                "entries but",
            ),
            (
                "an offset too few",
                reloaded(&idx, spa_tag::CELL_OFFSETS, |b| b.truncate(b.len() - 4)),
                "offsets for",
            ),
            (
                "a cell too few",
                reloaded(&idx, spa_tag::CELLS, |b| b.truncate(b.len() - 4)),
                "entries but",
            ),
            // Cells the grid (finest_exp 3) does not have: a level above the
            // root, an index past the level's side.
            (
                "cell above the root",
                reloaded(&idx, spa_tag::CELLS, set(entry(g_at), cell(4, 0, 0))),
                "not a cell",
            ),
            (
                "cell past the side",
                reloaded(&idx, spa_tag::CELLS, set(entry(g_at), cell(2, 2, 0))),
                "not a cell",
            ),
            // Rectangles: named out of order, one too many, not rectangles.
            (
                "R names another rmbr",
                reloaded(&idx, spa_tag::CELLS, set(entry(r_at), 1)),
                "names rmbr 1",
            ),
            (
                "an rmbr too many",
                reloaded(&idx, spa_tag::RMBRS, |b| b.extend_from_slice(&[0; 32])),
                "rmbrs for",
            ),
            (
                "an rmbr too few",
                reloaded(&idx, spa_tag::RMBRS, |b| b.truncate(b.len() - 32)),
                "rmbrs for",
            ),
            (
                "non-finite rmbr",
                reloaded(&idx, spa_tag::RMBRS, coord(2, f64::NAN)),
                "malformed rmbr",
            ),
            (
                "infinite rmbr",
                reloaded(&idx, spa_tag::RMBRS, coord(0, f64::NEG_INFINITY)),
                "malformed rmbr",
            ),
            ("inverted rmbr", reloaded(&idx, spa_tag::RMBRS, coord(3, -1e9)), "malformed rmbr"),
        ];
        for (case, outcome, needle) in refused {
            match outcome {
                Err(msg) => {
                    assert!(msg.starts_with("georeach: ") && msg.contains(needle), "{case}: {msg}")
                }
                Ok(_) => panic!("{case}: loaded"),
            }
        }
        assert!(reloaded(&idx, spa_tag::CELLS, |_| ()).is_ok(), "untouched, it loads");
    }
}

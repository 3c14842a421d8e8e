//! The hierarchical grid of GeoReach's SPA-graph (Section 2.2.2).
//!
//! GeoReach partitions the space with a hierarchy of grids: level `L0` is
//! the most detailed partitioning, and each cell of level `L(i+1)` covers a
//! 2×2 block of quad-sibling cells of level `Li` (quad-tree style). The
//! `ReachGrid(v)` sets of the SPA-graph hold cells "potentially from
//! different levels": when more than `MERGE_COUNT` sibling cells of a level
//! appear in a set, they are merged into their parent cell of the next
//! level.

use gsr_geo::{Point, Rect};

/// A cell of the hierarchical grid, identified by its level and its integer
/// column/row within that level. Level 0 is the finest partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId {
    /// Grid level; 0 is finest, `HierarchicalGrid::num_levels() - 1` is the
    /// single cell covering the whole space.
    pub level: u8,
    /// Column index within the level.
    pub ix: u32,
    /// Row index within the level.
    pub iy: u32,
}

impl CellId {
    /// The parent cell one level up (covering this cell's 2×2 block).
    #[inline]
    pub fn parent(&self) -> CellId {
        CellId { level: self.level + 1, ix: self.ix / 2, iy: self.iy / 2 }
    }

    /// The four children one level down (only meaningful for `level > 0`).
    #[cfg(test)]
    fn children(&self) -> [CellId; 4] {
        debug_assert!(self.level > 0);
        let (level, ix, iy) = (self.level - 1, self.ix * 2, self.iy * 2);
        [
            CellId { level, ix, iy },
            CellId { level, ix: ix + 1, iy },
            CellId { level, ix, iy: iy + 1 },
            CellId { level, ix: ix + 1, iy: iy + 1 },
        ]
    }

    /// A compact `u32` encoding — level in the top 4 bits, then 14 bits of
    /// column and 14 of row — that holds every cell of a
    /// [`HierarchicalGrid`], whose finest level is at most 2^14 cells a
    /// side: the element of GeoReach's cell column.
    #[inline]
    pub fn encode(&self) -> u32 {
        debug_assert!(self.level <= 14 && self.ix < 1 << 14 && self.iy < 1 << 14);
        ((self.level as u32) << 28) | (self.ix << 14) | self.iy
    }

    /// Inverse of [`CellId::encode`]; total, so that any `u32` read from a
    /// file is *some* cell, to be checked against the grid.
    #[inline]
    pub fn decode(code: u32) -> CellId {
        CellId { level: (code >> 28) as u8, ix: (code >> 14) & 0x3FFF, iy: code & 0x3FFF }
    }
}

/// A quad-tree-style hierarchy of grids over a rectangular space.
#[derive(Debug, Clone)]
pub struct HierarchicalGrid {
    space: Rect,
    /// Level 0 has `1 << finest_exp` cells per side.
    finest_exp: u8,
}

impl HierarchicalGrid {
    /// Creates a hierarchy over `space` whose finest level (`L0`) has
    /// `2^finest_exp × 2^finest_exp` cells. `finest_exp` is clamped to 14
    /// (a 16384×16384 finest grid) to keep cell ids encodable.
    pub fn new(space: Rect, finest_exp: u8) -> Self {
        HierarchicalGrid { space, finest_exp: finest_exp.min(14) }
    }

    /// The full space covered by the hierarchy.
    #[inline]
    pub fn space(&self) -> &Rect {
        &self.space
    }

    /// The finest-level exponent (`L0` has `2^finest_exp` cells per side).
    /// Together with [`HierarchicalGrid::space`] this fully determines the
    /// hierarchy, so `HierarchicalGrid::new(*g.space(), g.finest_exp())`
    /// reconstructs it exactly — the snapshot encoding of GeoReach relies
    /// on this.
    #[inline]
    pub fn finest_exp(&self) -> u8 {
        self.finest_exp
    }

    /// Number of levels (level `num_levels() - 1` is one cell).
    #[inline]
    pub fn num_levels(&self) -> u8 {
        self.finest_exp + 1
    }

    /// Cells per side at `level`.
    #[inline]
    fn side_cells(&self, level: u8) -> u32 {
        debug_assert!(level <= self.finest_exp);
        1u32 << (self.finest_exp - level)
    }

    /// The finest-level (`L0`) cell containing `p`. Points on the max edge
    /// of the space are clamped into the last cell.
    pub fn cell_of(&self, p: &Point) -> CellId {
        let side = self.side_cells(0);
        let fx = (p.x - self.space.min_x) / self.space.width().max(f64::MIN_POSITIVE);
        let fy = (p.y - self.space.min_y) / self.space.height().max(f64::MIN_POSITIVE);
        let ix = ((fx * side as f64) as i64).clamp(0, side as i64 - 1) as u32;
        let iy = ((fy * side as f64) as i64).clamp(0, side as i64 - 1) as u32;
        CellId { level: 0, ix, iy }
    }

    /// The rectangle covered by `cell`.
    pub fn cell_rect(&self, cell: &CellId) -> Rect {
        let side = self.side_cells(cell.level) as f64;
        let w = self.space.width() / side;
        let h = self.space.height() / side;
        Rect::new(
            self.space.min_x + cell.ix as f64 * w,
            self.space.min_y + cell.iy as f64 * h,
            self.space.min_x + (cell.ix + 1) as f64 * w,
            self.space.min_y + (cell.iy + 1) as f64 * h,
        )
    }

    /// Applies GeoReach's merge rule to a set of cells: starting from `L0`,
    /// whenever more than `merge_count` sibling quad-cells of a level are
    /// present, they are replaced by their parent cell at the next level.
    /// The input may contain cells from several levels; the result is
    /// deduplicated and sorted.
    pub fn merge_cells(&self, cells: &mut Vec<CellId>, merge_count: usize) {
        cells.sort_unstable();
        cells.dedup();
        for level in 0..self.finest_exp {
            // Group the cells of this level by parent.
            let mut promoted: Vec<CellId> = Vec::new();
            let mut keep: Vec<CellId> = Vec::with_capacity(cells.len());
            // Siblings are not contiguous in sorted order, so collect
            // per-parent member lists explicitly.
            let mut groups: std::collections::HashMap<CellId, Vec<usize>> =
                std::collections::HashMap::new();
            for (idx, c) in cells.iter().enumerate() {
                if c.level == level {
                    groups.entry(c.parent()).or_default().push(idx);
                } else {
                    keep.push(*c);
                }
            }
            for (parent, members) in groups {
                if members.len() > merge_count {
                    promoted.push(parent);
                } else {
                    for idx in members {
                        keep.push(cells[idx]);
                    }
                }
            }
            if promoted.is_empty() {
                // Nothing changed at this level; higher levels cannot gain
                // new members either, so we are done.
                break;
            }
            keep.extend(promoted);
            *cells = keep;
            cells.sort_unstable();
            cells.dedup();
        }
        // Absorb any cell covered by a coarser cell also in the set.
        let set: std::collections::HashSet<CellId> = cells.iter().copied().collect();
        cells.retain(|c| {
            let mut cur = *c;
            while cur.level < self.finest_exp {
                cur = cur.parent();
                if set.contains(&cur) {
                    return false;
                }
            }
            true
        });
        cells.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_grid(exp: u8) -> HierarchicalGrid {
        HierarchicalGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), exp)
    }

    #[test]
    fn cell_of_maps_into_bounds() {
        let g = unit_grid(2); // 4x4 finest grid
        assert_eq!(g.cell_of(&Point::new(0.0, 0.0)), CellId { level: 0, ix: 0, iy: 0 });
        assert_eq!(g.cell_of(&Point::new(0.99, 0.99)), CellId { level: 0, ix: 3, iy: 3 });
        // The max corner clamps into the last cell.
        assert_eq!(g.cell_of(&Point::new(1.0, 1.0)), CellId { level: 0, ix: 3, iy: 3 });
        // Out-of-space points clamp too (defensive).
        assert_eq!(g.cell_of(&Point::new(-5.0, 2.0)), CellId { level: 0, ix: 0, iy: 3 });
    }

    #[test]
    fn cell_rect_partition() {
        let g = unit_grid(2);
        let c = CellId { level: 0, ix: 1, iy: 2 };
        assert_eq!(g.cell_rect(&c), Rect::new(0.25, 0.5, 0.5, 0.75));
        // Top level covers everything.
        let top = CellId { level: 2, ix: 0, iy: 0 };
        assert_eq!(g.cell_rect(&top), *g.space());
    }

    #[test]
    fn parent_child_round_trip() {
        let c = CellId { level: 0, ix: 5, iy: 7 };
        let p = c.parent();
        assert_eq!(p, CellId { level: 1, ix: 2, iy: 3 });
        assert!(p.children().contains(&c));
    }

    #[test]
    fn encode_round_trip() {
        let corner = (1 << 14) - 1;
        for c in [
            CellId { level: 3, ix: 1234, iy: 4321 },
            CellId { level: 0, ix: corner, iy: corner },
            CellId { level: 14, ix: 0, iy: 0 },
        ] {
            assert_eq!(CellId::decode(c.encode()), c);
        }
    }

    #[test]
    fn cell_rect_contains_its_points() {
        let g = unit_grid(4);
        for &(x, y) in &[(0.1, 0.2), (0.5, 0.5), (0.93, 0.07)] {
            let p = Point::new(x, y);
            let c = g.cell_of(&p);
            assert!(g.cell_rect(&c).contains_point(&p), "cell of {p} must contain it");
        }
    }

    #[test]
    fn merge_promotes_full_sibling_groups() {
        let g = unit_grid(2);
        // All four children of (L1, 0, 0) with merge_count = 1: must merge
        // into the parent; two siblings of (L1, 1, 1) with merge_count = 3:
        // must stay.
        let mut cells = vec![
            CellId { level: 0, ix: 0, iy: 0 },
            CellId { level: 0, ix: 1, iy: 0 },
            CellId { level: 0, ix: 0, iy: 1 },
            CellId { level: 0, ix: 1, iy: 1 },
            CellId { level: 0, ix: 2, iy: 2 },
        ];
        g.merge_cells(&mut cells, 1);
        assert!(cells.contains(&CellId { level: 1, ix: 0, iy: 0 }));
        assert!(cells.contains(&CellId { level: 0, ix: 2, iy: 2 }));
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn merge_count_two_keeps_pairs() {
        let g = unit_grid(2);
        let mut cells = vec![CellId { level: 0, ix: 0, iy: 0 }, CellId { level: 0, ix: 1, iy: 0 }];
        g.merge_cells(&mut cells, 2);
        assert_eq!(cells.len(), 2);
        g.merge_cells(&mut cells, 1);
        assert_eq!(cells, vec![CellId { level: 1, ix: 0, iy: 0 }]);
    }

    #[test]
    fn merge_cascades_up_levels() {
        let g = unit_grid(2);
        // All 16 finest cells with merge_count 1: collapse to the top cell.
        let mut cells: Vec<CellId> =
            (0..4).flat_map(|ix| (0..4).map(move |iy| CellId { level: 0, ix, iy })).collect();
        g.merge_cells(&mut cells, 1);
        assert_eq!(cells, vec![CellId { level: 2, ix: 0, iy: 0 }]);
    }

    #[test]
    fn merge_absorbs_covered_cells() {
        let g = unit_grid(2);
        let mut cells = vec![
            CellId { level: 1, ix: 0, iy: 0 },
            CellId { level: 0, ix: 0, iy: 0 }, // covered by the L1 cell
        ];
        g.merge_cells(&mut cells, 3);
        assert_eq!(cells, vec![CellId { level: 1, ix: 0, iy: 0 }]);
    }

    #[test]
    fn merged_cells_cover_originals() {
        let g = unit_grid(3);
        let originals: Vec<CellId> =
            (0..5).map(|i| g.cell_of(&Point::new(0.13 * i as f64, 0.2 * i as f64))).collect();
        let mut merged = originals.clone();
        g.merge_cells(&mut merged, 1);
        for c in &originals {
            let r = g.cell_rect(c);
            assert!(
                merged.iter().any(|m| g.cell_rect(m).contains_rect(&r)),
                "original cell {c:?} not covered"
            );
        }
    }
}

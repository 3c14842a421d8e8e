//! A uniform (single-level) grid over 2-D points — "the simplest SOP
//! index" of the paper's related-work discussion (Section 7.2). Used as an
//! ablation baseline against the R-tree for the spatial range queries of
//! SpaReach.

use gsr_geo::{Point, Rect};

/// A fixed-resolution bucket grid over points with payloads `T`.
///
/// Points outside the declared space are clamped into the border cells, so
/// the structure never loses entries.
///
/// ```
/// use gsr_geo::{Point, Rect};
/// use gsr_index::UniformGrid;
///
/// let space = Rect::new(0.0, 0.0, 100.0, 100.0);
/// let entries = vec![(Point::new(10.0, 10.0), "cafe"), (Point::new(90.0, 90.0), "park")];
/// let grid = UniformGrid::bulk_load(space, entries, 4);
/// assert!(grid.query_exists(&Rect::new(0.0, 0.0, 20.0, 20.0)));
/// assert_eq!(grid.query(&Rect::new(0.0, 0.0, 100.0, 100.0)).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UniformGrid<T> {
    space: Rect,
    cells_per_side: u32,
    /// CSR buckets: entries of cell `(ix, iy)` are
    /// `entries[offsets[iy * side + ix] .. offsets[iy * side + ix + 1]]`.
    offsets: Vec<u32>,
    entries: Vec<(Point, T)>,
}

impl<T> UniformGrid<T> {
    /// Bulk-loads a grid with roughly `target_per_cell` entries per cell.
    pub fn bulk_load(space: Rect, points: Vec<(Point, T)>, target_per_cell: usize) -> Self {
        let n = points.len().max(1);
        let cells = n.div_ceil(target_per_cell.max(1));
        let side = (cells as f64).sqrt().ceil().max(1.0) as u32;
        Self::bulk_load_with_side(space, points, side)
    }

    /// Bulk-loads with an explicit number of cells per side.
    pub fn bulk_load_with_side(space: Rect, points: Vec<(Point, T)>, side: u32) -> Self {
        let side = side.max(1);
        let ncells = (side * side) as usize;
        let cell_of = |p: &Point| -> usize {
            let fx = (p.x - space.min_x) / space.width().max(f64::MIN_POSITIVE);
            let fy = (p.y - space.min_y) / space.height().max(f64::MIN_POSITIVE);
            let ix = ((fx * side as f64) as i64).clamp(0, side as i64 - 1) as usize;
            let iy = ((fy * side as f64) as i64).clamp(0, side as i64 - 1) as usize;
            iy * side as usize + ix
        };

        // Counting sort into buckets.
        let mut offsets = vec![0u32; ncells + 1];
        for (p, _) in &points {
            offsets[cell_of(p) + 1] += 1;
        }
        for i in 0..ncells {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut slots: Vec<Option<(Point, T)>> = Vec::with_capacity(points.len());
        slots.resize_with(points.len(), || None);
        for (p, t) in points {
            let c = cell_of(&p);
            slots[cursor[c] as usize] = Some((p, t));
            cursor[c] += 1;
        }
        let entries: Vec<(Point, T)> = slots.into_iter().map(|s| s.expect("filled")).collect();

        UniformGrid { space, cells_per_side: side, offsets, entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the grid holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cells per side.
    pub fn cells_per_side(&self) -> u32 {
        self.cells_per_side
    }

    fn cell_range(&self, coord: f64, min: f64, extent: f64) -> u32 {
        let f = (coord - min) / extent.max(f64::MIN_POSITIVE);
        ((f * self.cells_per_side as f64) as i64).clamp(0, self.cells_per_side as i64 - 1) as u32
    }

    /// Visits every entry inside `region`, stopping early when `visit`
    /// returns `true`; returns whether any visit returned `true`.
    pub fn query_until<'a>(
        &'a self,
        region: &Rect,
        mut visit: impl FnMut(&'a Point, &'a T) -> bool,
    ) -> bool {
        let ix0 = self.cell_range(region.min_x, self.space.min_x, self.space.width());
        let ix1 = self.cell_range(region.max_x, self.space.min_x, self.space.width());
        let iy0 = self.cell_range(region.min_y, self.space.min_y, self.space.height());
        let iy1 = self.cell_range(region.max_y, self.space.min_y, self.space.height());
        for iy in iy0..=iy1 {
            for ix in ix0..=ix1 {
                let cell = (iy * self.cells_per_side + ix) as usize;
                let lo = self.offsets[cell] as usize;
                let hi = self.offsets[cell + 1] as usize;
                for (p, t) in &self.entries[lo..hi] {
                    if region.contains_point(p) && visit(p, t) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// All entries inside `region`, materialized.
    pub fn query(&self, region: &Rect) -> Vec<(&Point, &T)> {
        let mut out = Vec::new();
        self.query_until(region, |p, t| {
            out.push((p, t));
            false
        });
        out
    }

    /// Whether any entry lies inside `region`.
    pub fn query_exists(&self, region: &Rect) -> bool {
        self.query_until(region, |_, _| true)
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.entries.len() * std::mem::size_of::<(Point, T)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points(n: usize) -> Vec<(Point, usize)> {
        (0..n)
            .map(|i| (Point::new((i % 37) as f64, (i % 53) as f64), i))
            .collect()
    }

    fn space() -> Rect {
        Rect::new(0.0, 0.0, 37.0, 53.0)
    }

    #[test]
    fn query_matches_linear_scan() {
        let pts = sample_points(1000);
        let grid = UniformGrid::bulk_load(space(), pts.clone(), 8);
        for region in [
            Rect::new(0.0, 0.0, 5.0, 5.0),
            Rect::new(10.0, 20.0, 30.0, 40.0),
            Rect::new(36.0, 52.0, 40.0, 60.0),
            Rect::new(-5.0, -5.0, -1.0, -1.0),
        ] {
            let mut got: Vec<usize> = grid.query(&region).iter().map(|(_, &i)| i).collect();
            got.sort_unstable();
            let mut expected: Vec<usize> = pts
                .iter()
                .filter(|(p, _)| region.contains_point(p))
                .map(|&(_, i)| i)
                .collect();
            expected.sort_unstable();
            assert_eq!(got, expected, "region {region}");
            assert_eq!(grid.query_exists(&region), !expected.is_empty());
        }
    }

    #[test]
    fn out_of_space_points_are_clamped_not_lost() {
        let pts = vec![
            (Point::new(-10.0, -10.0), 0usize),
            (Point::new(100.0, 100.0), 1),
            (Point::new(5.0, 5.0), 2),
        ];
        let grid = UniformGrid::bulk_load_with_side(Rect::new(0.0, 0.0, 10.0, 10.0), pts, 4);
        assert_eq!(grid.len(), 3);
        // The clamped entries are still findable by their true coordinates.
        assert!(grid.query_exists(&Rect::new(-20.0, -20.0, 0.0, 0.0)));
        assert!(grid.query_exists(&Rect::new(50.0, 50.0, 200.0, 200.0)));
    }

    #[test]
    fn early_exit_stops_visiting() {
        let grid = UniformGrid::bulk_load(space(), sample_points(500), 8);
        let mut visited = 0usize;
        let found = grid.query_until(&Rect::new(0.0, 0.0, 37.0, 53.0), |_, _| {
            visited += 1;
            true
        });
        assert!(found);
        assert_eq!(visited, 1, "first hit must stop the scan");
    }

    #[test]
    fn empty_grid() {
        let grid: UniformGrid<u32> = UniformGrid::bulk_load(space(), vec![], 8);
        assert!(grid.is_empty());
        assert!(!grid.query_exists(&space()));
        assert!(grid.cells_per_side() >= 1);
    }

    #[test]
    fn cell_sizing_tracks_target() {
        let grid = UniformGrid::bulk_load(space(), sample_points(10_000), 10);
        let cells = (grid.cells_per_side() * grid.cells_per_side()) as usize;
        assert!(cells >= 10_000 / 10, "enough cells for the target, got {cells}");
    }
}

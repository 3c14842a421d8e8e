//! RangeReach over vertices with *extended* geometries.
//!
//! Footnote 1 of the paper: "we assume that the spatial vertices are
//! represented as points in the two-dimensional space. However, our
//! analysis and the proposed solutions can be easily extended to arbitrary
//! geometries". This module carries that extension out for axis-aligned
//! rectangle geometries (the MBRs of arbitrary shapes): a spatial vertex
//! covers a region, and `RangeReach` asks whether `v` reaches a vertex
//! whose region *intersects* the query rectangle — e.g. venues with
//! footprints, delivery areas, or cell-tower coverage.
//!
//! The 3DReach transformation carries over verbatim: a vertex's rectangle
//! extrudes to a flat box at height `post(comp)` in the third dimension,
//! and a query is one cuboid per label. Because the geometry itself is the
//! rectangle (not an approximation of finer data), a box intersection *is*
//! the exact answer — no refinement step is needed, unlike the MBR policy
//! for SCCs of point vertices.

use gsr_geo::{cuboid_from_rect, Aabb, Cuboid, Rect};
use gsr_graph::scc::{CompId, Condensation};
use gsr_graph::{DiGraph, VertexId};
use gsr_index::RTree;
use gsr_reach::interval::IntervalLabeling;

/// A geosocial network whose spatial vertices carry rectangles.
#[derive(Debug, Clone)]
pub struct RegionNetwork {
    graph: DiGraph,
    regions: Vec<Option<Rect>>,
}

impl RegionNetwork {
    /// Wraps a graph and one optional region per vertex. Point vertices are
    /// just degenerate rectangles.
    ///
    /// # Panics
    /// Panics when `regions` does not have one slot per vertex.
    pub fn new(graph: DiGraph, regions: Vec<Option<Rect>>) -> Self {
        assert_eq!(regions.len(), graph.num_vertices(), "one region slot per vertex");
        RegionNetwork { graph, regions }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The region of vertex `v`, if spatial.
    pub fn region(&self, v: VertexId) -> Option<Rect> {
        self.regions[v as usize]
    }
}

/// 3DReach over rectangle geometries.
#[derive(Debug, Clone)]
pub struct RegionReach {
    comp_of: Vec<CompId>,
    labeling: IntervalLabeling,
    tree: RTree<3, VertexId>,
}

impl RegionReach {
    /// Condenses the graph, builds the labeling and the 3-D box R-tree.
    pub fn build(net: &RegionNetwork) -> Self {
        let cond = Condensation::of(net.graph());
        let labeling = IntervalLabeling::build(&cond.dag);
        let entries: Vec<(Cuboid, VertexId)> = net
            .regions
            .iter()
            .enumerate()
            .filter_map(|(v, r)| r.map(|r| (v as VertexId, r)))
            .map(|(v, r)| {
                let z = labeling.post(cond.comp(v)) as f64;
                (Aabb::new([r.min_x, r.min_y, z], [r.max_x, r.max_y, z]), v)
            })
            .collect();
        RegionReach {
            comp_of: (0..net.graph.num_vertices() as VertexId).map(|v| cond.comp(v)).collect(),
            labeling,
            tree: RTree::bulk_load(entries),
        }
    }

    /// Fallible [`RegionReach::query`]: validates the vertex id and the
    /// query rectangle (finite, non-inverted) before evaluating.
    pub fn try_query(&self, v: VertexId, query: &Rect) -> Result<bool, crate::GsrError> {
        crate::error::validate_query(self.comp_of.len(), v, query)?;
        Ok(self.query(v, query))
    }

    /// Whether `v` reaches a vertex whose region intersects `query`.
    pub fn query(&self, v: VertexId, query: &Rect) -> bool {
        let from = self.comp_of[v as usize];
        self.labeling
            .intervals(from)
            .iter()
            .any(|iv| self.tree.query_exists(&cuboid_from_rect(query, iv.lo as f64, iv.hi as f64)))
    }

    /// All reachable vertices whose regions intersect `query`, ascending.
    pub fn report(&self, v: VertexId, query: &Rect) -> Vec<VertexId> {
        let from = self.comp_of[v as usize];
        let (mut out, mut stack) = (Vec::new(), Vec::new());
        for iv in self.labeling.intervals(from) {
            let cuboid = cuboid_from_rect(query, iv.lo as f64, iv.hi as f64);
            self.tree.collect_values(&cuboid, &mut stack, &mut out);
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

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::new(a, b, c, d)
    }

    /// Brute force over the original graph.
    fn naive(net: &RegionNetwork, v: VertexId, query: &Rect) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = net
            .graph()
            .vertices()
            .filter(|&u| {
                net.region(u).is_some_and(|g| g.intersects(query)) && reaches_bfs(net.graph(), v, u)
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn example() -> RegionNetwork {
        // 0 -> 1 -> 2, 3 -> 2, 4 isolated; 1, 2, 4 carry regions.
        let g = graph_from_edges(5, &[(0, 1), (1, 2), (3, 2)]);
        let regions = vec![
            None,
            Some(r(0.0, 0.0, 10.0, 10.0)),   // a big footprint
            Some(r(20.0, 20.0, 22.0, 22.0)), // a small one
            None,
            Some(r(5.0, 5.0, 6.0, 6.0)),
        ];
        RegionNetwork::new(g, regions)
    }

    #[test]
    fn intersection_semantics() {
        let net = example();
        let idx = RegionReach::build(&net);
        // Query overlapping only the edge of vertex 1's footprint.
        let touch = r(10.0, 10.0, 12.0, 12.0);
        assert!(idx.query(0, &touch), "closed rectangles touch at (10,10)");
        // A hole between the footprints.
        let hole = r(12.0, 12.0, 19.0, 19.0);
        assert!(!idx.query(0, &hole));
        // 3 reaches only vertex 2's small footprint.
        assert!(idx.query(3, &r(21.0, 21.0, 30.0, 30.0)));
        assert!(!idx.query(3, &r(0.0, 0.0, 10.0, 10.0)));
        // 4 is isolated but spatial: reflexive hit.
        assert!(idx.query(4, &r(0.0, 0.0, 100.0, 100.0)));
    }

    #[test]
    fn matches_brute_force_on_random_inputs() {
        // Random graphs with random rectangles, cycles included.
        let mut state = 7u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _case in 0..20 {
            let n = 3 + (rnd() % 20) as usize;
            let m = (rnd() % 50) as usize;
            let edges: Vec<(u32, u32)> =
                (0..m).map(|_| ((rnd() % n as u64) as u32, (rnd() % n as u64) as u32)).collect();
            let regions: Vec<Option<Rect>> = (0..n)
                .map(|_| {
                    if rnd() % 2 == 0 {
                        let x = (rnd() % 100) as f64;
                        let y = (rnd() % 100) as f64;
                        let w = (rnd() % 20) as f64;
                        let h = (rnd() % 20) as f64;
                        Some(r(x, y, x + w, y + h))
                    } else {
                        None
                    }
                })
                .collect();
            let net = RegionNetwork::new(graph_from_edges(n, &edges), regions);
            let idx = RegionReach::build(&net);
            for _ in 0..6 {
                let x = (rnd() % 120) as f64 - 10.0;
                let y = (rnd() % 120) as f64 - 10.0;
                let query = r(x, y, x + (rnd() % 40) as f64, y + (rnd() % 40) as f64);
                for v in 0..n as u32 {
                    let expected = naive(&net, v, &query);
                    assert_eq!(idx.report(v, &query), expected, "v={v} query={query}");
                    assert_eq!(idx.query(v, &query), !expected.is_empty());
                }
            }
        }
    }
}

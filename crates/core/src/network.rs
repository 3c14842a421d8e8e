//! Geosocial networks and their condensed (DAG) form.

use crate::QueryCost;
use gsr_geo::{Point, Rect};
use gsr_graph::scc::{CompId, Condensation};
use gsr_graph::{Col, DiGraph, VertexId};
use gsr_reach::compact::CompactLabels;
use gsr_reach::interval::IntervalLabeling;
use std::sync::{Arc, OnceLock};

/// Errors raised when constructing a [`GeosocialNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// `points` must have exactly one slot per vertex.
    PointCountMismatch {
        /// Number of graph vertices.
        vertices: usize,
        /// Number of point slots supplied.
        points: usize,
    },
    /// A spatial vertex carried a NaN or infinite coordinate.
    NonFinitePoint {
        /// The offending vertex.
        vertex: VertexId,
    },
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::PointCountMismatch { vertices, points } => {
                write!(f, "graph has {vertices} vertices but {points} point slots")
            }
            NetworkError::NonFinitePoint { vertex } => {
                write!(f, "vertex {vertex} has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// The social side of a network: the graph and everything derived from it
/// alone. The condensation and the forward interval labeling do not depend
/// on the points, so they are computed at most once per `Social` and every
/// network pointing at it (a network and its [`GeosocialNetwork::tile_view`]s)
/// reads the same value. Sound because nothing here reads a point.
#[derive(Debug)]
struct Social {
    graph: DiGraph,
    cond: OnceLock<Arc<Condensation>>,
    forward: OnceLock<ForwardLabels>,
}

impl Social {
    fn new(graph: DiGraph) -> Arc<Self> {
        Arc::new(Social { graph, cond: OnceLock::new(), forward: OnceLock::new() })
    }
}

/// The forward interval labeling of a condensation DAG in the form 3DReach
/// and SocReach keep: post-order number per component (3DReach's `z`,
/// SocReach's point-table order) and the compressed label sets.
#[derive(Debug)]
pub(crate) struct ForwardLabels {
    pub(crate) post: Vec<u32>,
    pub(crate) labels: Arc<CompactLabels>,
}

/// A geosocial network `G = (V, E, P)` (Section 2.1 of the paper): a
/// directed graph whose vertices optionally carry a point in the plane.
/// Vertices with a point are *spatial vertices* (venues); vertices without
/// are social vertices (users).
#[derive(Debug)]
pub struct GeosocialNetwork {
    social: Arc<Social>,
    points: Vec<Option<Point>>,
}

impl Clone for GeosocialNetwork {
    /// An independent network: the clone shares nothing derived with the
    /// original, so building over it pays the condensation and the labeling
    /// again (only [`crate::tile_network`] shares them).
    fn clone(&self) -> Self {
        GeosocialNetwork {
            social: Social::new(self.social.graph.clone()),
            points: self.points.clone(),
        }
    }
}

impl GeosocialNetwork {
    /// Wraps a graph and one optional point per vertex.
    pub fn new(graph: DiGraph, points: Vec<Option<Point>>) -> Result<Self, NetworkError> {
        if points.len() != graph.num_vertices() {
            return Err(NetworkError::PointCountMismatch {
                vertices: graph.num_vertices(),
                points: points.len(),
            });
        }
        for (v, p) in points.iter().enumerate() {
            if let Some(p) = p {
                if !p.is_finite() {
                    return Err(NetworkError::NonFinitePoint { vertex: v as VertexId });
                }
            }
        }
        Ok(GeosocialNetwork { social: Social::new(graph), points })
    }

    /// The same graph with only the points of `vertices` attached: the
    /// network of one spatial tile. The view points at this network's
    /// social side, so the condensation and the labeling are computed once
    /// for the network and all its views, whichever asks first.
    pub(crate) fn tile_view(&self, vertices: &[VertexId]) -> GeosocialNetwork {
        let mut points = vec![None; self.points.len()];
        for &v in vertices {
            points[v as usize] = self.points[v as usize];
        }
        GeosocialNetwork { social: Arc::clone(&self.social), points }
    }

    /// The underlying directed graph.
    #[inline]
    pub fn graph(&self) -> &DiGraph {
        &self.social.graph
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.social.graph.num_vertices()
    }

    /// The point of vertex `v`, if it is spatial.
    #[inline]
    pub fn point(&self, v: VertexId) -> Option<Point> {
        self.points[v as usize]
    }

    /// Whether `v` is a spatial vertex.
    #[inline]
    pub fn is_spatial(&self, v: VertexId) -> bool {
        self.points[v as usize].is_some()
    }

    /// Iterator over `(vertex, point)` for all spatial vertices.
    pub fn spatial_vertices(&self) -> impl Iterator<Item = (VertexId, Point)> + '_ {
        self.points.iter().enumerate().filter_map(|(v, p)| p.map(|p| (v as VertexId, p)))
    }

    /// Number of spatial vertices (`|P|`).
    pub fn num_spatial(&self) -> usize {
        self.points.iter().filter(|p| p.is_some()).count()
    }

    /// The MBR of all points — the `SPACE` of the paper's GeoReach
    /// parameters. `None` when the network has no spatial vertex.
    pub fn space(&self) -> Option<Rect> {
        Rect::mbr_of(self.points.iter().filter_map(|p| *p))
    }
}

/// Summary characteristics of a network — the columns of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Social (non-spatial) vertices, "# users".
    pub users: usize,
    /// Spatial vertices, "# venues".
    pub venues: usize,
    /// `|V|`.
    pub vertices: usize,
    /// `|E|`.
    pub edges: usize,
    /// `|P|` (equals `venues`).
    pub points: usize,
    /// Number of strongly connected components.
    pub sccs: usize,
    /// Number of vertices in the largest SCC.
    pub largest_scc: usize,
}

/// A geosocial network condensed into its SCC DAG, with per-component
/// spatial information precomputed — the common preprocessing shared by all
/// evaluation methods ("following the typical practice, we converted them
/// into DAGs", Section 6.2).
#[derive(Debug, Clone)]
pub struct PreparedNetwork {
    net: GeosocialNetwork,
    /// Shared with every other network over the same social side.
    cond: Arc<Condensation>,
    /// The member table: component `c`'s member points, in member order,
    /// are `member_points[member_offsets[c] .. member_offsets[c + 1]]`.
    /// Every index that keeps member points holds these two by handle.
    member_offsets: Col<u32>,
    member_points: Col<Point>,
    space: Rect,
}

impl PreparedNetwork {
    /// Condenses `net` and precomputes the spatial side of each component.
    /// The condensation is taken from `net`'s social side when a network
    /// sharing it was prepared before (tile views), so a shard set runs
    /// Tarjan once; the member table is per network.
    pub fn new(net: GeosocialNetwork) -> Self {
        let cond =
            Arc::clone(net.social.cond.get_or_init(|| Arc::new(Condensation::of(net.graph()))));
        let ncomp = cond.num_components();
        let mut member_offsets = Vec::with_capacity(ncomp + 1);
        let mut member_points = Vec::with_capacity(net.num_spatial());
        member_offsets.push(0u32);
        for c in 0..ncomp as CompId {
            member_points.extend(cond.members(c).iter().filter_map(|&v| net.point(v)));
            member_offsets.push(member_points.len() as u32);
        }

        let space = net.space().unwrap_or(Rect::new(0.0, 0.0, 1.0, 1.0));
        PreparedNetwork {
            net,
            cond,
            member_offsets: member_offsets.into(),
            member_points: member_points.into(),
            space,
        }
    }

    /// The original network.
    #[inline]
    pub fn network(&self) -> &GeosocialNetwork {
        &self.net
    }

    /// The condensation DAG (one vertex per SCC).
    #[inline]
    pub fn dag(&self) -> &DiGraph {
        &self.cond.dag
    }

    /// Number of components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.cond.num_components()
    }

    /// The component of original vertex `v`.
    #[inline]
    pub fn comp(&self, v: VertexId) -> CompId {
        self.cond.comp(v)
    }

    /// A handle to the condensation's vertex → component column: what every
    /// index keeps as its `comp_of`, without copying it.
    pub(crate) fn comp_of(&self) -> Col<CompId> {
        self.cond.comp_of.clone()
    }

    /// The forward interval labeling of the DAG, built on first use by
    /// whichever network over this social side asks first.
    pub(crate) fn forward_labels(&self) -> &ForwardLabels {
        self.net.social.forward.get_or_init(|| {
            let labeling = IntervalLabeling::build(self.dag());
            ForwardLabels {
                post: self.dag().vertices().map(|c| labeling.post(c)).collect(),
                labels: Arc::new(CompactLabels::from_labeling(&labeling)),
            }
        })
    }

    /// Handles to the member table, without copying it:
    /// `points[offsets[c] .. offsets[c + 1]]` are component `c`'s.
    pub(crate) fn member_csr(&self) -> (Col<u32>, Col<Point>) {
        (self.member_offsets.clone(), self.member_points.clone())
    }

    /// All original members of component `c`.
    #[inline]
    pub fn members(&self, c: CompId) -> &[VertexId] {
        self.cond.members(c)
    }

    /// The points of component `c`'s spatial members, in member order.
    #[inline]
    pub fn spatial_member_points(&self, c: CompId) -> &[Point] {
        let lo = self.member_offsets[c as usize] as usize;
        let hi = self.member_offsets[c as usize + 1] as usize;
        &self.member_points[lo..hi]
    }

    /// The MBR of component `c`'s member points, computed from the member
    /// table: every caller asks once per component, while building.
    pub fn comp_mbr(&self, c: CompId) -> Option<Rect> {
        Rect::mbr_of(self.spatial_member_points(c).iter().copied())
    }

    /// Whether component `c` contains at least one spatial vertex.
    #[inline]
    pub fn comp_is_spatial(&self, c: CompId) -> bool {
        self.member_offsets[c as usize] < self.member_offsets[c as usize + 1]
    }

    /// The MBR of all points of the network (the paper's `SPACE`).
    #[inline]
    pub fn space(&self) -> Rect {
        self.space
    }

    /// Table 3 statistics of the underlying network.
    pub fn stats(&self) -> NetworkStats {
        let venues = self.net.num_spatial();
        NetworkStats {
            users: self.net.num_vertices() - venues,
            venues,
            vertices: self.net.num_vertices(),
            edges: self.net.graph().num_edges(),
            points: venues,
            sccs: self.cond.num_components(),
            largest_scc: self.cond.largest_component_size(),
        }
    }

    /// Ground-truth `RangeReach` evaluation by BFS over the condensation —
    /// used by the test suites to validate every index.
    pub fn range_reach_bfs(&self, v: VertexId, region: &Rect) -> bool {
        self.range_reach_bfs_with_cost(v, region).0
    }

    /// [`PreparedNetwork::range_reach_bfs`] plus work counters. A component's
    /// member points are tested when the traversal first reaches it, and the
    /// first hit answers: `vertices_visited` counts the components tested,
    /// `containment_tests` the member points tested. Powers the index-free
    /// evaluator [`crate::OnlineReach`].
    pub fn range_reach_bfs_with_cost(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        let mut cost = QueryCost::default();
        let mut hit = |c: CompId| {
            cost.vertices_visited += 1;
            self.spatial_member_points(c).iter().any(|p| {
                cost.containment_tests += 1;
                region.contains_point(p)
            })
        };
        let start = self.comp(v);
        // The traversal runs over this thread's reusable scratch buffers
        // (the frontier deque used LIFO), so steady-state evaluation is
        // allocation-free.
        let found = hit(start)
            || crate::scratch::with_scratch(|scratch| {
                scratch.begin_visit(self.num_components());
                scratch.visited.mark(start);
                scratch.queue.push_back(start);
                while let Some(c) = scratch.queue.pop_back() {
                    for &w in self.dag().out_neighbors(c) {
                        if scratch.visited.mark(w) {
                            if hit(w) {
                                return true;
                            }
                            scratch.queue.push_back(w);
                        }
                    }
                }
                false
            });
        (found, cost)
    }

    /// Brute-force `RangeReport` over the condensation: every spatial vertex
    /// inside `region` that `v` reaches, ascending. It shares no code with
    /// [`PreparedNetwork::range_reach_bfs`] (no scratch, no early exit), so
    /// the test suites use it as an independent cross-check of that oracle.
    pub fn report_bfs(&self, v: VertexId, region: &Rect) -> Vec<VertexId> {
        let start = self.comp(v);
        let mut visited = vec![false; self.num_components()];
        let mut stack = vec![start];
        visited[start as usize] = true;
        let mut out = Vec::new();
        while let Some(c) = stack.pop() {
            for &u in self.members(c) {
                let Some(p) = self.network().point(u) else { continue };
                if region.contains_point(&p) {
                    out.push(u);
                }
            }
            for &w in self.dag().out_neighbors(c) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_graph::graph_from_edges;

    fn p(x: f64, y: f64) -> Option<Point> {
        Some(Point::new(x, y))
    }

    #[test]
    fn construction_validation() {
        let g = graph_from_edges(2, &[(0, 1)]);
        assert!(matches!(
            GeosocialNetwork::new(g.clone(), vec![None]),
            Err(NetworkError::PointCountMismatch { vertices: 2, points: 1 })
        ));
        assert!(matches!(
            GeosocialNetwork::new(g.clone(), vec![None, p(f64::NAN, 0.0)]),
            Err(NetworkError::NonFinitePoint { vertex: 1 })
        ));
        assert!(GeosocialNetwork::new(g, vec![None, p(1.0, 2.0)]).is_ok());
    }

    #[test]
    fn spatial_accessors() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let net = GeosocialNetwork::new(g, vec![None, p(1.0, 2.0), p(3.0, 4.0)]).unwrap();
        assert_eq!(net.num_spatial(), 2);
        assert!(!net.is_spatial(0));
        assert!(net.is_spatial(1));
        assert_eq!(net.point(2), Some(Point::new(3.0, 4.0)));
        assert_eq!(net.space(), Some(Rect::new(1.0, 2.0, 3.0, 4.0)));
        let spatial: Vec<_> = net.spatial_vertices().collect();
        assert_eq!(spatial.len(), 2);
        assert_eq!(spatial[0].0, 1);
    }

    #[test]
    fn prepared_network_component_spatial_info() {
        // 0 <-> 1 form an SCC with one spatial member; 2 is spatial alone.
        let g = graph_from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let net = GeosocialNetwork::new(g, vec![None, p(1.0, 1.0), p(5.0, 5.0)]).unwrap();
        let prep = PreparedNetwork::new(net);
        assert_eq!(prep.num_components(), 2);
        let c01 = prep.comp(0);
        let c2 = prep.comp(2);
        assert_eq!(prep.comp(1), c01);
        assert_ne!(c01, c2);
        assert_eq!(prep.spatial_member_points(c01), &[Point::new(1.0, 1.0)]);
        assert_eq!(prep.spatial_member_points(c2), &[Point::new(5.0, 5.0)]);
        assert_eq!(prep.comp_mbr(c01), Some(Rect::new(1.0, 1.0, 1.0, 1.0)));
        assert!(prep.comp_is_spatial(c2));
    }

    #[test]
    fn stats_match_table3_columns() {
        let g = graph_from_edges(4, &[(0, 1), (1, 0), (0, 2), (1, 3)]);
        let net = GeosocialNetwork::new(g, vec![None, None, p(0.0, 0.0), p(1.0, 1.0)]).unwrap();
        let prep = PreparedNetwork::new(net);
        let s = prep.stats();
        assert_eq!(s.users, 2);
        assert_eq!(s.venues, 2);
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 4);
        assert_eq!(s.points, 2);
        assert_eq!(s.sccs, 3);
        assert_eq!(s.largest_scc, 2);
    }

    #[test]
    fn bfs_ground_truth() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (3, 2)]);
        let net = GeosocialNetwork::new(g, vec![None, None, p(5.0, 5.0), p(0.0, 0.0)]).unwrap();
        let prep = PreparedNetwork::new(net);
        let near_venue = Rect::new(4.0, 4.0, 6.0, 6.0);
        assert!(prep.range_reach_bfs(0, &near_venue));
        assert!(prep.range_reach_bfs(2, &near_venue), "reflexive");
        let near_three = Rect::new(-1.0, -1.0, 1.0, 1.0);
        assert!(!prep.range_reach_bfs(0, &near_three), "3 is not reachable from 0");
        assert!(prep.range_reach_bfs(3, &near_three));
    }

    #[test]
    fn report_bfs_on_the_paper_example() {
        use crate::paper_example::{self as ex, A, C, E, H};
        let prep = ex::prepared();
        let r = ex::query_region();
        // a reaches e and h inside R; c reaches nothing there.
        assert_eq!(prep.report_bfs(A, &r), vec![E, H]);
        assert!(prep.report_bfs(C, &r).is_empty());
    }

    #[test]
    fn report_bfs_whole_space_reports_all_spatial_descendants() {
        use crate::paper_example::{self as ex, A, E, F, H, I, L};
        let prep = ex::prepared();
        // From Figure 1, a reaches b, d, j, e, l, f, g, h, i, of which e, f,
        // h, i and l are spatial.
        let everything = Rect::new(-1e9, -1e9, 1e9, 1e9);
        assert_eq!(prep.report_bfs(A, &everything), vec![E, F, H, I, L]);
    }

    /// A tile view takes the condensation from its parent's social side;
    /// the result is what an independent network with the same graph and
    /// points computes for itself.
    #[test]
    fn tile_view_prepares_like_an_independent_network() {
        let g = graph_from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]);
        let points = vec![p(0.0, 0.0), p(1.0, 1.0), None, p(3.0, 3.0), p(4.0, 4.0)];
        let net = GeosocialNetwork::new(g.clone(), points.clone()).unwrap();
        let parent = PreparedNetwork::new(net);
        let tile = [1, 4];
        let view = PreparedNetwork::new(parent.network().tile_view(&tile));
        assert!(Arc::ptr_eq(&view.cond, &parent.cond), "one condensation per social side");

        let kept = (0..5).map(|v| points[v].filter(|_| tile.contains(&(v as VertexId)))).collect();
        let own = PreparedNetwork::new(GeosocialNetwork::new(g, kept).unwrap());
        assert!(!Arc::ptr_eq(&own.cond, &parent.cond));
        assert_eq!(view.num_components(), own.num_components());
        assert!(view.dag().edges().eq(own.dag().edges()));
        assert_eq!(view.space(), own.space());
        for v in 0..5 {
            assert_eq!(view.comp(v), own.comp(v));
            assert_eq!(view.network().point(v), own.network().point(v));
        }
        for c in 0..own.num_components() as CompId {
            assert_eq!(view.members(c), own.members(c));
            assert_eq!(view.comp_mbr(c), own.comp_mbr(c));
        }
        assert_eq!(view.member_csr(), own.member_csr());
        // The labels too are the parent's, whichever of the two asks first.
        assert!(std::ptr::eq(view.forward_labels(), parent.forward_labels()));
    }

    /// `clone()` is an independent network: a rebuild from a clone pays for
    /// its own condensation and labeling.
    #[test]
    fn clone_does_not_share_the_social_side() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let net = GeosocialNetwork::new(g, vec![None, p(1.0, 2.0), p(3.0, 4.0)]).unwrap();
        let prep = PreparedNetwork::new(net);
        let copy = prep.network().clone();
        assert!(!Arc::ptr_eq(&copy.social, &prep.network().social));
        assert!(copy.social.cond.get().is_none() && copy.social.forward.get().is_none());
        let again = PreparedNetwork::new(copy);
        assert!(!Arc::ptr_eq(&again.cond, &prep.cond));
        assert_eq!(again.cond.comp_of, prep.cond.comp_of);
    }

    #[test]
    fn network_without_points_gets_default_space() {
        let g = graph_from_edges(2, &[(0, 1)]);
        let net = GeosocialNetwork::new(g, vec![None, None]).unwrap();
        let prep = PreparedNetwork::new(net);
        assert_eq!(prep.network().num_spatial(), 0);
        assert!(!prep.range_reach_bfs(0, &prep.space()));
    }
}

//! The paper's running example (Figures 1–4, Table 1) as a ready-made
//! network, used across the test suites and the quickstart example.
//!
//! The 12 vertices `a..l` map to ids 0..11. The spatial vertices are
//! `e, f, h, i, l`; the canonical query region [`query_region`] contains
//! the points of `e` and `h`, so `RangeReach(G, a, R) = TRUE` while
//! `RangeReach(G, c, R) = FALSE` (Example 2.3).

use crate::{GeosocialNetwork, PreparedNetwork};
use gsr_geo::{Point, Rect};
use gsr_graph::{graph_from_edges, VertexId};

/// Vertex `a` of Figure 1.
pub const A: VertexId = 0;
/// Vertex `b` of Figure 1.
pub const B: VertexId = 1;
/// Vertex `c` of Figure 1.
pub const C: VertexId = 2;
/// Vertex `d` of Figure 1.
pub const D: VertexId = 3;
/// Vertex `e` of Figure 1 (spatial, inside the query region).
pub const E: VertexId = 4;
/// Vertex `f` of Figure 1 (spatial).
pub const F: VertexId = 5;
/// Vertex `g` of Figure 1.
pub const G: VertexId = 6;
/// Vertex `h` of Figure 1 (spatial, inside the query region).
pub const H: VertexId = 7;
/// Vertex `i` of Figure 1 (spatial).
pub const I: VertexId = 8;
/// Vertex `j` of Figure 1.
pub const J: VertexId = 9;
/// Vertex `k` of Figure 1.
pub const K: VertexId = 10;
/// Vertex `l` of Figure 1 (spatial).
pub const L: VertexId = 11;

/// The edge list of Figure 1 (spanning-tree edges of Figure 3 first, then
/// the non-spanning edges).
pub fn edges() -> Vec<(VertexId, VertexId)> {
    vec![
        (A, B),
        (A, D),
        (A, J),
        (B, E),
        (B, L),
        (E, F),
        (J, G),
        (J, H),
        (C, I),
        (C, K),
        (L, H),
        (B, D),
        (G, I),
        (I, F),
        (C, D),
    ]
}

/// Points of the spatial vertices, inside a `[0, 16] × [0, 16]` space.
pub fn points() -> Vec<Option<Point>> {
    let mut pts = vec![None; 12];
    pts[E as usize] = Some(Point::new(5.0, 9.0));
    pts[H as usize] = Some(Point::new(6.5, 10.5));
    pts[F as usize] = Some(Point::new(2.0, 2.0));
    pts[I as usize] = Some(Point::new(13.0, 3.0));
    pts[L as usize] = Some(Point::new(10.0, 14.0));
    pts
}

/// The query region `R` of Figure 1: contains `e.point` and `h.point`.
pub fn query_region() -> Rect {
    Rect::new(4.0, 8.0, 8.0, 12.0)
}

/// The running-example network.
pub fn network() -> GeosocialNetwork {
    // Static data from Figure 1; validation cannot fail.
    #[allow(clippy::expect_used)]
    GeosocialNetwork::new(graph_from_edges(12, &edges()), points()).expect("valid example")
}

/// The running-example network, condensed (it is already a DAG).
pub fn prepared() -> PreparedNetwork {
    PreparedNetwork::new(network())
}

/// A cyclic variant of the running example for the SCC handling of
/// Section 5: back edges create the components `{a, b, d}`, `{c, k}`,
/// `{h, j}` (one spatial member) and `{f, i}` (two spatial members).
pub fn cyclic_prepared() -> PreparedNetwork {
    let mut e = edges();
    e.extend_from_slice(&[(D, A), (K, C), (H, J), (F, I)]);
    // Static data from Figure 1; validation cannot fail.
    #[allow(clippy::expect_used)]
    let net = GeosocialNetwork::new(graph_from_edges(12, &e), points()).expect("valid example");
    PreparedNetwork::new(net)
}

/// A spread of probe regions exercising positive, negative, degenerate and
/// whole-space queries; used to cross-check every method against BFS.
pub fn probe_regions() -> Vec<Rect> {
    vec![
        query_region(),
        Rect::new(0.0, 0.0, 16.0, 16.0),        // whole space
        Rect::new(1.0, 1.0, 3.0, 3.0),          // around f only
        Rect::new(12.0, 2.0, 14.0, 4.0),        // around i only
        Rect::new(9.0, 13.0, 11.0, 15.0),       // around l only
        Rect::new(15.0, 15.0, 16.0, 16.0),      // empty corner
        Rect::from_point(Point::new(5.0, 9.0)), // exactly e
        Rect::new(0.0, 8.0, 16.0, 12.0),        // horizontal band: e, h
        Rect::new(4.9, 0.0, 5.1, 16.0),         // vertical sliver: e
        Rect::new(-10.0, -10.0, -5.0, -5.0),    // fully outside space
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_matches_paper_claims() {
        let prep = prepared();
        let r = query_region();
        // Example 2.3: a can geosocially reach R, c cannot.
        assert!(prep.range_reach_bfs(A, &r));
        assert!(!prep.range_reach_bfs(C, &r));
        // e and h are the spatial vertices inside R.
        let net = prep.network();
        let inside: Vec<VertexId> =
            net.spatial_vertices().filter(|(_, p)| r.contains_point(p)).map(|(v, _)| v).collect();
        assert_eq!(inside, vec![E, H]);
    }

    #[test]
    fn acyclic_example_has_twelve_singletons() {
        let prep = prepared();
        assert_eq!(prep.num_components(), 12);
    }

    #[test]
    fn cyclic_example_component_structure() {
        let prep = cyclic_prepared();
        assert_eq!(prep.comp(A), prep.comp(B));
        assert_eq!(prep.comp(A), prep.comp(D));
        assert_eq!(prep.comp(C), prep.comp(K));
        assert_eq!(prep.comp(H), prep.comp(J));
        assert_eq!(prep.comp(F), prep.comp(I));
        // 9 vertices collapse into 4 components; e, g, l stay singletons.
        assert_eq!(prep.num_components(), 7);
        // {f, i} has two spatial members with a non-degenerate MBR.
        let mbr = prep.comp_mbr(prep.comp(F)).unwrap();
        assert!(mbr.width() > 0.0 && mbr.height() > 0.0);
        // Queries still behave: a reaches R, and k now reaches d's component.
        assert!(prep.range_reach_bfs(A, &query_region()));
        assert!(prep.range_reach_bfs(K, &Rect::new(1.0, 1.0, 3.0, 3.0)), "k -> c -> d/i -> f");
    }
}

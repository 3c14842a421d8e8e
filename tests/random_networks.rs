//! Property-based integration tests on arbitrary proptest-generated
//! geosocial networks: every method answers as BFS does (through
//! `gsr_tests::assert_oracle`), its answers are monotone in the region, and
//! the BFS oracle agrees with the brute-force report and the online
//! evaluator.

use gsr_core::paper_example;
use gsr_core::{GeosocialNetwork, Method, PreparedNetwork, RangeReachIndex};
use gsr_geo::{Point, Rect};
use gsr_graph::{GraphBuilder, VertexId};
use gsr_tests::{all_snapshots, assert_oracle, check_bfs_oracle, check_member_table, Case};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct NetCase {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
    spatial: Vec<Option<(f64, f64)>>,
    regions: Vec<(f64, f64, f64, f64)>,
    query_vertices: Vec<VertexId>,
}

fn arb_case() -> impl Strategy<Value = NetCase> {
    (5usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..120);
        let spatial = prop::collection::vec(
            prop::option::weighted(0.5, (0.0..100.0f64, 0.0..100.0f64)),
            n..=n,
        );
        let regions = prop::collection::vec(
            (-10.0..110.0f64, -10.0..110.0f64, 0.0..60.0f64, 0.0..60.0f64),
            1..8,
        );
        let queries = prop::collection::vec(0..n as VertexId, 1..8);
        (Just(n), edges, spatial, regions, queries).prop_map(
            |(n, edges, spatial, regions, query_vertices)| NetCase {
                n,
                edges,
                spatial,
                regions,
                query_vertices,
            },
        )
    })
}

fn build(case: &NetCase) -> (PreparedNetwork, Vec<Rect>) {
    let mut b = GraphBuilder::new(case.n);
    for &(u, v) in &case.edges {
        b.add_edge(u, v);
    }
    let points: Vec<Option<Point>> =
        case.spatial.iter().map(|p| p.map(|(x, y)| Point::new(x, y))).collect();
    let prep = PreparedNetwork::new(GeosocialNetwork::new(b.build(), points).unwrap());
    let regions = case.regions.iter().map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h)).collect();
    (prep, regions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_methods_match_bfs(case in arb_case()) {
        let (prep, regions) = build(&case);
        let probe = |&v: &VertexId| regions.iter().map(move |&r| (v, r));
        let probes = case.query_vertices.iter().flat_map(probe).collect();
        assert_oracle(&[Case::of("random", prep, probes)], &Method::ALL, &["built"]);
    }

    #[test]
    fn whole_space_query_equals_any_spatial_descendant(case in arb_case()) {
        // Querying the whole plane answers "does v reach ANY spatial
        // vertex" — precisely GeoReach's GeoB bit.
        let (prep, _) = build(&case);
        let everything = Rect::new(-1e6, -1e6, 1e6, 1e6);
        let probes = (0..case.n as VertexId).map(|v| (v, everything)).collect();
        assert_oracle(&[Case::of("whole-plane", prep, probes)], &Method::ALL, &["built"]);
    }

    #[test]
    fn answers_are_monotone_in_the_region(case in arb_case()) {
        // If R1 ⊆ R2, a TRUE for R1 forces a TRUE for R2.
        let (prep, regions) = build(&case);
        let indexes = all_snapshots(&prep);
        for &v in &case.query_vertices {
            for region in &regions {
                let bigger = Rect::new(
                    region.min_x - 5.0,
                    region.min_y - 5.0,
                    region.max_x + 5.0,
                    region.max_y + 5.0,
                );
                for (name, idx) in &indexes {
                    if idx.query(v, region) {
                        prop_assert!(
                            idx.query(v, &bigger),
                            "{} not monotone at v={}, region={}",
                            name, v, region
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bfs_oracle_agrees_with_report_and_online(case in arb_case()) {
        let (prep, regions) = build(&case);
        check_member_table(&prep);
        check_bfs_oracle(&prep, &regions);
    }
}

/// The oracle cross-check and the member table on the paper's Figure 1
/// network and on its cyclic variant.
#[test]
fn bfs_oracle_agrees_on_the_paper_examples() {
    for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
        check_member_table(&prep);
        check_bfs_oracle(&prep, &paper_example::probe_regions());
    }
}

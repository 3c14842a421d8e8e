//! Section 5 of the paper: the MBR way to model the spatial extent of a
//! strongly connected component must refine its candidates, and the
//! condensation must behave like the original graph.

use gsr_core::methods::ThreeDReach;
use gsr_core::{GeosocialNetwork, Method, PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_geo::{Point, Rect};
use gsr_graph::GraphBuilder;
use gsr_tests::{assert_family, random_cases, random_network, random_regions, Case};

/// Replicate and MBR answer as BFS does, so as each other, for every method
/// that has both, the first network through every path. Dense graphs have large,
/// multi-member spatial SCCs, which is exactly where the two policies differ
/// structurally.
#[test]
fn policies_agree_on_cycle_heavy_networks() {
    let regions = |s| random_regions(20, (s - 900) * 3 + 1);
    let cases = random_cases("cycle-heavy", (120, 1400, 0.6), 900..905, 17, regions);
    assert!(cases.iter().all(|c| c.prep.stats().largest_scc >= 10), "want sizable SCCs");
    let both: Vec<Method> = Method::ALL.into_iter().filter(|m| m.supports_mbr()).collect();
    assert_family(&cases, &both);
}

/// The MBR policy indexes one box per spatial component; with partial
/// overlap the candidate must be refined, never assumed. This crafts the
/// adversarial case: an SCC whose MBR intersects the region while none of
/// its member points do. Every method, under both policies, is asked it
/// through every path, with the oracle's answers pinned by hand.
#[test]
fn mbr_partial_overlap_is_refined() {
    // SCC {0, 1} with members at opposite corners: MBR = [0,10]^2. The first
    // window sits inside the MBR but away from both points; the second holds
    // the member (0,0).
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1);
    b.add_edge(1, 0);
    b.add_edge(2, 0);
    let points = vec![Some(Point::new(0.0, 0.0)), Some(Point::new(10.0, 10.0)), None];
    let prep = PreparedNetwork::new(GeosocialNetwork::new(b.build(), points).unwrap());
    let (hole, corner) = (Rect::new(2.0, 4.0, 4.0, 6.0), Rect::new(-1.0, -1.0, 1.0, 1.0));
    let case = Case::new("scc-mbr-hole", prep, 3, &[hole, corner]);
    let from_2 = case.probes.iter().zip(&case.expected).filter(|(q, _)| q.0 == 2);
    assert_eq!(from_2.take(2).map(|(_, &a)| a).collect::<Vec<_>>(), [Some(false), Some(true)]);
    assert_family(&[case], &Method::ALL);
}

/// Condensation invariants on arbitrary graphs: intra-SCC queries behave
/// reflexively, and all members of an SCC give identical answers.
#[test]
fn scc_members_are_interchangeable_query_vertices() {
    for seed in 0..4 {
        let net = random_network(100, 900, 0.5, 50 + seed);
        let prep = PreparedNetwork::new(net);
        let idx = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let regions = random_regions(10, seed);

        // Group vertices by component and compare answers within groups.
        for c in 0..prep.num_components() as u32 {
            let members = prep.members(c);
            if members.len() < 2 {
                continue;
            }
            let reference = members[0];
            for region in &regions {
                let expected = idx.query(reference, region);
                for &m in &members[1..] {
                    assert_eq!(
                        idx.query(m, region),
                        expected,
                        "members {reference} and {m} of SCC {c} must agree"
                    );
                }
            }
        }
    }
}

//! Section 5 of the paper: the two ways to model the spatial extent of
//! strongly connected components must give identical answers, and the
//! condensation must behave like the original graph.

use gsr_core::methods::{SpaReachBfl, ThreeDReach};
use gsr_core::{Method, PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_tests::{random_network, random_regions};

/// Replicate vs MBR must agree on every query for every method that has
/// both variants.
#[test]
fn policies_agree_on_cycle_heavy_networks() {
    for seed in 0..5 {
        // Dense graphs produce large, multi-member spatial SCCs, which is
        // exactly where the two policies differ structurally.
        let net = random_network(120, 1400, 0.6, 900 + seed);
        let prep = PreparedNetwork::new(net);
        assert!(
            prep.stats().largest_scc >= 10,
            "seed {seed}: want a sizable SCC to make the test meaningful"
        );

        let pairs: Vec<_> = Method::ALL
            .into_iter()
            .filter(|m| m.supports_mbr())
            .map(|m| {
                let build = |policy| m.build(&prep, policy, 1);
                (build(SccSpatialPolicy::Replicate), build(SccSpatialPolicy::Mbr))
            })
            .collect();

        for region in random_regions(20, seed * 3 + 1) {
            for v in (0..120).step_by(7) {
                for (a, b) in &pairs {
                    assert_eq!(
                        a.query(v, &region),
                        b.query(v, &region),
                        "{} policies disagree at v={v}, region={region}",
                        a.name()
                    );
                }
            }
        }
    }
}

/// The MBR policy indexes one box per spatial component; with partial
/// overlap the candidate must be refined, never assumed. This crafts the
/// adversarial case: an SCC whose MBR intersects the region while none of
/// its member points do.
#[test]
fn mbr_partial_overlap_is_refined() {
    use gsr_core::GeosocialNetwork;
    use gsr_geo::{Point, Rect};
    use gsr_graph::GraphBuilder;

    // SCC {0, 1} with members at opposite corners: MBR = [0,10]^2.
    // Query region sits in the middle-left, inside the MBR but away from
    // both points.
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1);
    b.add_edge(1, 0);
    b.add_edge(2, 0);
    let points = vec![Some(Point::new(0.0, 0.0)), Some(Point::new(10.0, 10.0)), None];
    let prep = PreparedNetwork::new(GeosocialNetwork::new(b.build(), points).unwrap());

    let hole = Rect::new(2.0, 4.0, 4.0, 6.0); // inside MBR, contains no point
    let corner = Rect::new(-1.0, -1.0, 1.0, 1.0); // contains member (0,0)

    for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
        let idx = ThreeDReach::build(&prep, policy);
        assert!(!idx.query(2, &hole), "{policy:?}: MBR hit must be refined to FALSE");
        assert!(idx.query(2, &corner), "{policy:?}: member point inside region");
        let spa = SpaReachBfl::build(&prep, policy);
        assert!(!spa.query(2, &hole), "{policy:?}: SpaReach refinement");
        assert!(spa.query(2, &corner));
    }
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

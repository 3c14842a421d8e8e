//! Integration tests for the extension features: reporting/counting and
//! nearest-reachable, both validated on random cyclic networks against
//! brute force.

use gsr_core::methods::{report_bfs, NearestReach, ThreeDReporter};
use gsr_core::PreparedNetwork;
use gsr_geo::{Point, Rect};
use gsr_tests::{random_network, random_regions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn reporter_matches_bfs_on_random_networks() {
    for seed in 0..5 {
        let net = random_network(120, 420, 0.4, 700 + seed);
        let prep = PreparedNetwork::new(net);
        let reporter = ThreeDReporter::build(&prep);
        for region in random_regions(10, seed) {
            for v in (0..120).step_by(11) {
                let expected = report_bfs(&prep, v, &region);
                assert_eq!(reporter.report(v, &region), expected, "v={v} region={region}");
                assert_eq!(reporter.count(v, &region), expected.len());
                assert_eq!(reporter.exists(v, &region), !expected.is_empty());
            }
        }
    }
}

#[test]
fn nearest_reach_matches_brute_force_on_random_networks() {
    for seed in 0..5 {
        let net = random_network(100, 350, 0.5, 300 + seed);
        let prep = PreparedNetwork::new(net);
        let idx = NearestReach::build(&prep);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..12 {
            let target = Point::new(rng.gen_range(-20.0..120.0), rng.gen_range(-20.0..120.0));
            for v in (0..100).step_by(13) {
                // Brute force over the full report of the whole space.
                let everything = Rect::new(-1e9, -1e9, 1e9, 1e9);
                let reachable = report_bfs(&prep, v, &everything);
                let expected = reachable
                    .iter()
                    .map(|&u| prep.network().point(u).unwrap().distance(&target))
                    .fold(f64::INFINITY, f64::min);
                match idx.nearest(v, &target) {
                    None => assert!(reachable.is_empty(), "v={v}: missing answer"),
                    Some((_, _, d)) => {
                        assert!(
                            (d - expected).abs() < 1e-9,
                            "v={v} target={target}: {d} vs {expected}"
                        );
                    }
                }
            }
        }
    }
}

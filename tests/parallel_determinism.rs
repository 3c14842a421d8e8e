//! Parallel builds must be bit-for-bit identical to sequential builds.
//!
//! The work-pool (`gsr_graph::par`) places every result by its input
//! index and the construction algorithms are level-scheduled, so the
//! number of worker threads must never change what gets built. These tests
//! pin that contract on generated dataset analogs, for every parallelized
//! structure: the interval labeling, the BFL filters, the STR-packed
//! R-tree, and the full evaluation methods composed from them.

use gsr_core::{Method, PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::NetworkSpec;
use gsr_geo::Aabb;
use gsr_index::{RTree, RTreeParams};
use gsr_reach::bfl::{BflIndex, BflParams};
use gsr_reach::interval::{BuildOptions, IntervalLabeling};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn datasets() -> Vec<PreparedNetwork> {
    vec![
        PreparedNetwork::new(NetworkSpec::weeplaces(0.08).generate()),
        PreparedNetwork::new(NetworkSpec::gowalla(0.04).generate()),
    ]
}

#[test]
fn interval_labeling_is_thread_count_invariant() {
    for prep in datasets() {
        for compress in [true, false] {
            let sequential = IntervalLabeling::build_with(
                prep.dag(),
                BuildOptions { compress, threads: 1, ..BuildOptions::default() },
            );
            for threads in THREAD_COUNTS {
                let parallel = IntervalLabeling::build_with(
                    prep.dag(),
                    BuildOptions { compress, threads, ..BuildOptions::default() },
                );
                assert_eq!(parallel, sequential, "compress={compress} threads={threads}");
            }
        }
    }
}

#[test]
fn bfl_filters_are_thread_count_invariant() {
    for prep in datasets() {
        let params = |threads| BflParams { threads, ..BflParams::default() };
        let sequential = BflIndex::build_with(prep.dag(), params(1));
        for threads in THREAD_COUNTS {
            let parallel = BflIndex::build_with(prep.dag(), params(threads));
            assert_eq!(parallel.filters(), sequential.filters(), "threads={threads}");
        }
    }
}

#[test]
fn rtree_str_packing_is_thread_count_invariant() {
    for prep in datasets() {
        let entries: Vec<(Aabb<2>, u32)> = prep
            .network()
            .spatial_vertices()
            .map(|(v, p)| (Aabb::from_point([p.x, p.y]), v))
            .collect();
        assert!(entries.len() > 100, "dataset too small to exercise slab tiling");
        let sequential = RTree::bulk_load_with_params(entries.clone(), RTreeParams::default());
        for threads in THREAD_COUNTS {
            let parallel =
                RTree::bulk_load_parallel(entries.clone(), RTreeParams::default(), threads);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }
}

/// Whole-method determinism: the composed builds (labeling + replication
/// pass + R-tree packing) must answer every probe exactly like their
/// sequential counterparts and report the same index size.
#[test]
fn method_builds_are_thread_count_invariant() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.05).generate());
    let n = prep.network().num_vertices() as u32;
    let probes: Vec<(u32, gsr_geo::Rect)> = (0..n)
        .step_by((n / 25).max(1) as usize)
        .flat_map(|v| {
            [
                (v, gsr_geo::Rect::new(0.0, 0.0, 40.0, 40.0)),
                (v, gsr_geo::Rect::new(60.0, 60.0, 100.0, 100.0)),
            ]
        })
        .collect();
    for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
        let methods: Vec<Method> =
            Method::ALL.into_iter().filter(|m| m.policies().contains(&policy)).collect();
        let sequential: Vec<_> = methods.iter().map(|m| m.build(&prep, policy, 1)).collect();
        for threads in THREAD_COUNTS {
            // A clone starts with nothing derived, so 3DReach labels it
            // again — at this thread count — instead of reusing `prep`'s.
            let prep = PreparedNetwork::new(prep.network().clone());
            for (method, seq) in methods.iter().zip(&sequential) {
                let par = method.build(&prep, policy, threads);
                let name = method.name();
                assert_eq!(
                    par.index_bytes(),
                    seq.index_bytes(),
                    "{name}{} threads={threads}: index size changed",
                    policy.suffix()
                );
                for (v, r) in &probes {
                    assert_eq!(
                        par.query(*v, r),
                        seq.query(*v, r),
                        "{name}{} threads={threads} v={v} r={r}",
                        policy.suffix()
                    );
                }
            }
        }
    }
}

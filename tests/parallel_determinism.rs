//! Parallel builds must be bit-for-bit identical to sequential builds.
//!
//! The work-pool (`gsr_graph::par`) places every result by its input
//! index and the construction algorithms are level-scheduled, so the
//! number of worker threads must never change what gets built. These tests
//! pin that contract on generated dataset analogs, for every parallelized
//! structure: the interval labeling, the BFL filters and the STR-packed
//! R-tree, and for the methods composed from them.

use gsr_core::{Method, PreparedNetwork};
use gsr_datagen::NetworkSpec;
use gsr_geo::{Aabb, Rect};
use gsr_index::{RTree, RTreeParams};
use gsr_reach::bfl::{BflIndex, BflParams};
use gsr_reach::interval::{BuildOptions, IntervalLabeling};
use gsr_tests::{assert_oracle, Case};

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn datasets() -> Vec<PreparedNetwork> {
    vec![
        PreparedNetwork::new(NetworkSpec::weeplaces(0.08).generate()),
        PreparedNetwork::new(NetworkSpec::gowalla(0.04).generate()),
    ]
}

/// Every method under every policy, built at 2 and 8 threads over the
/// network prepared anew (so 3DReach labels it at that count too), answers
/// as BFS does and costs and weighs what its one-thread build does.
#[test]
fn method_builds_are_thread_count_invariant() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.05).generate());
    let halves = [Rect::new(0.0, 0.0, 40.0, 40.0), Rect::new(60.0, 60.0, 100.0, 100.0)];
    let case = Case::new("yelp", prep, 25, &halves);
    assert_oracle(&[case], &Method::ALL, &["built-2", "built-8"]);
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

//! Thread count and caching must be invisible to query semantics.
//!
//! Batches split over any number of workers and the server-side result
//! cache are performance features: the answers — and for batches the
//! aggregated work counters — must be bit-identical to a one-worker
//! batch, which itself must agree with the online BFS oracle, on both SCC
//! spatial policies.

use gsr_core::methods::{SpaReachBfl, ThreeDReach};
use gsr_core::{
    BatchExecutor, BatchOptions, BatchOutcome, BatchQuery, PreparedNetwork, RangeReachIndex,
    SccSpatialPolicy,
};
use gsr_datagen::workload::WorkloadGen;
use gsr_datagen::NetworkSpec;
use gsr_graph::stats::DegreeBucket;
use gsr_server::ResultCache;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SEEDS: [u64; 3] = [1, 42, 0xD0_5E_ED];

fn datasets() -> Vec<PreparedNetwork> {
    vec![
        PreparedNetwork::new(NetworkSpec::weeplaces(0.06).generate()),
        PreparedNetwork::new(NetworkSpec::gowalla(0.03).generate()),
    ]
}

/// One unlimited batch on `threads` workers; every query must complete.
fn run(threads: usize, idx: &dyn RangeReachIndex, queries: &[BatchQuery]) -> BatchOutcome {
    let outcome = BatchExecutor::new(threads).run_bounded(idx, queries, &BatchOptions::unlimited());
    assert!(outcome.is_complete(), "{} threads={threads}", idx.name());
    outcome
}

fn indexes(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Vec<Box<dyn RangeReachIndex>> {
    vec![Box::new(SpaReachBfl::build(prep, policy)), Box::new(ThreeDReach::build(prep, policy))]
}

#[test]
fn batches_agree_with_bfs_at_every_thread_count_on_both_policies() {
    for prep in datasets() {
        let bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];
        let gen = WorkloadGen::new(&prep);
        for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
            for idx in indexes(&prep, policy) {
                for seed in SEEDS {
                    let w = gen.extent_degree(5.0, bucket, 150, seed);
                    let plain = run(1, idx.as_ref(), &w.queries);
                    // The one-worker batch must match the online oracle.
                    for (i, (v, r)) in w.queries.iter().enumerate() {
                        assert_eq!(
                            plain.answers[i],
                            Some(prep.range_reach_bfs(*v, r)),
                            "{}{} seed={seed} query {i} disagrees with BFS",
                            idx.name(),
                            policy.suffix()
                        );
                    }
                    // Any thread count must be bit-identical: same answers,
                    // same total cost.
                    for threads in THREAD_COUNTS {
                        let split = run(threads, idx.as_ref(), &w.queries);
                        assert_eq!(
                            split.answers,
                            plain.answers,
                            "{}{} seed={seed} threads={threads}: answers changed",
                            idx.name(),
                            policy.suffix()
                        );
                        assert_eq!(
                            split.cost,
                            plain.cost,
                            "{}{} seed={seed} threads={threads}: cost changed",
                            idx.name(),
                            policy.suffix()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn result_cache_agrees_with_plain_execution_on_both_policies() {
    for prep in datasets() {
        let bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];
        let gen = WorkloadGen::new(&prep);
        for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
            for idx in indexes(&prep, policy) {
                let w = gen.extent_degree(5.0, bucket, 120, 7);
                // Duplicate each query back-to-back so the cache serves
                // real hits even while 120 distinct keys thrash a
                // 32-entry LRU (which exercises the eviction path).
                let repeated: Vec<_> = w.queries.iter().flat_map(|q| [*q, *q]).collect();
                let cache = ResultCache::new(32);
                for (i, (v, r)) in repeated.iter().enumerate() {
                    let expect = idx.query(*v, r);
                    let got = match cache.get_at(0, *v, r) {
                        Some(hit) => hit,
                        None => {
                            let answer = idx.query(*v, r);
                            cache.insert_at(0, *v, r, answer);
                            answer
                        }
                    };
                    assert_eq!(
                        got,
                        expect,
                        "{}{} query {i}: cached answer diverged",
                        idx.name(),
                        policy.suffix()
                    );
                }
                let stats = cache.stats();
                assert_eq!(stats.hits + stats.misses, repeated.len() as u64);
                assert!(stats.hits > 0, "repeated workload must produce cache hits");
                assert!(stats.evictions > 0, "a 32-entry cache over 120 keys must evict");
            }
        }
    }
}

//! Thread count and caching must be invisible to query semantics.
//!
//! Batches split over any number of workers and the server-side result
//! cache are performance features: a batch must answer as BFS does, with
//! the work counters of the one-thread build summed, and a cached answer
//! must be the one the index gives, on both SCC spatial policies.

use gsr_core::methods::{SpaReachBfl, ThreeDReach};
use gsr_core::{Method, PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::workload::WorkloadGen;
use gsr_datagen::NetworkSpec;
use gsr_graph::stats::DegreeBucket;
use gsr_server::ResultCache;
use gsr_tests::{assert_oracle, workload_case};

/// The networks both tests ask.
fn specs() -> [NetworkSpec; 2] {
    [NetworkSpec::weeplaces(0.06), NetworkSpec::gowalla(0.03)]
}

fn indexes(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Vec<Box<dyn RangeReachIndex>> {
    vec![Box::new(SpaReachBfl::build(prep, policy)), Box::new(ThreeDReach::build(prep, policy))]
}

#[test]
fn batches_agree_with_bfs_at_every_thread_count_on_both_policies() {
    let workloads = [1, 42, 0xD0_5E_ED].map(|seed| (DegreeBucket::DEFAULT_INDEX, 150, seed));
    let cases = specs().map(|spec| workload_case(spec, &workloads));
    let methods = [Method::SpaReachBfl, Method::ThreeDReach];
    assert_oracle(&cases, &methods, &["batch-1", "batch-2", "batch-4", "batch-8"]);
}

#[test]
fn result_cache_agrees_with_plain_execution_on_both_policies() {
    for prep in specs().map(|spec| PreparedNetwork::new(spec.generate())) {
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

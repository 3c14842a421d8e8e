//! Pins the zero-allocation guarantee of the steady-state query kernels.
//!
//! Linking `gsr-bench` installs its counting global allocator; this suite
//! runs without the libtest harness (see `Cargo.toml`) so the process is
//! single-threaded and quiet, making the process-global allocation counter
//! an exact measurement.
//!
//! Protocol per (method, SCC policy): one warm-up pass over the whole
//! workload pays the one-time thread-local scratch allocation, then a
//! second identical pass must perform exactly zero heap allocations. The
//! serving path is held to the same: a [`Session`] fed the same
//! 1 024-line `REACH` batch a second time allocates nothing, without a
//! result cache and with a warm one.

use gsr_bench::{allocation_count, Dataset};
use gsr_core::{Method, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::workload::WorkloadGen;
use gsr_datagen::NetworkSpec;
use gsr_geo::Rect;
use gsr_graph::stats::DegreeBucket;
use gsr_graph::VertexId;
use gsr_server::{Engine, ServerConfig, Session};
use std::sync::Arc;

const EXTENT_PCT: f64 = 5.0;
const QUERIES: usize = 300;
const SEED: u64 = 0xD0_5E_ED;
const BATCH_LINES: usize = 1024;

/// Runs the workload once and returns the allocations it performed.
fn allocations_during(queries: &[(VertexId, Rect)], mut run: impl FnMut(VertexId, &Rect)) -> u64 {
    let before = allocation_count();
    for (v, region) in queries {
        run(*v, region);
    }
    allocation_count() - before
}

fn main() {
    let datasets = [
        Dataset::from_spec(&NetworkSpec::weeplaces(0.05)),
        Dataset::from_spec(&NetworkSpec::yelp(0.02)),
    ];
    let bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];
    let mut failures = 0usize;
    let mut checks = 0usize;

    for ds in &datasets {
        let w = WorkloadGen::new(&ds.prep).extent_degree(EXTENT_PCT, bucket, QUERIES, SEED);

        for method in Method::ALL {
            for &policy in method.policies() {
                let idx = method.build(&ds.prep, policy, 1);
                // Warm-up: first queries may allocate (thread-local scratch).
                for (v, region) in &w.queries {
                    std::hint::black_box(idx.query(*v, region));
                }
                let allocs = allocations_during(&w.queries, |v, r| {
                    std::hint::black_box(idx.query(v, r));
                });
                checks += 1;
                if allocs == 0 {
                    println!("ok   {} / {} / {:?}: 0 allocations", ds.name, idx.name(), policy);
                } else {
                    failures += 1;
                    eprintln!(
                        "FAIL {} / {} / {:?}: {allocs} allocations over {} steady-state queries",
                        ds.name,
                        idx.name(),
                        policy,
                        w.queries.len()
                    );
                }
            }
        }

        // The online BFS oracle shares the same scratch discipline.
        let sample = &w.queries[..w.queries.len().min(50)];
        for (v, region) in sample {
            std::hint::black_box(ds.prep.range_reach_bfs(*v, region));
        }
        let allocs = allocations_during(sample, |v, r| {
            std::hint::black_box(ds.prep.range_reach_bfs(v, r));
        });
        checks += 1;
        if allocs == 0 {
            println!("ok   {} / online BFS: 0 allocations", ds.name);
        } else {
            failures += 1;
            eprintln!(
                "FAIL {} / online BFS: {allocs} allocations over {} steady-state queries",
                ds.name,
                sample.len()
            );
        }

        // The serving path: one pipelined batch through a session, fed
        // once to warm its buffers (and the cache), then measured.
        let batch: String = (w.queries.iter().cycle().take(BATCH_LINES))
            .map(|(v, r)| format!("REACH {v} {} {} {} {}\n", r.min_x, r.min_y, r.max_x, r.max_y))
            .collect();
        for cache_entries in [0, 2 * BATCH_LINES] {
            let index: Arc<dyn RangeReachIndex> =
                Arc::new(Method::ThreeDReach.build(&ds.prep, SccSpatialPolicy::Replicate, 1));
            let datasets = vec![("default".to_string(), index)];
            let config = ServerConfig { cache_entries, ..ServerConfig::default() };
            let engine = Engine::new(datasets, config).unwrap();
            let mut session = engine.session();
            let mut out = Vec::new();
            let mut feed = |session: &mut Session<'_>| {
                out.clear();
                session.feed(batch.as_bytes(), &mut out);
                assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), BATCH_LINES);
            };
            feed(&mut session);
            let before = allocation_count();
            feed(&mut session);
            let allocs = allocation_count() - before;
            checks += 1;
            let what = format!("{} / Session::feed, cache_entries={cache_entries}", ds.name);
            if allocs == 0 {
                println!("ok   {what}: 0 allocations");
            } else {
                failures += 1;
                eprintln!("FAIL {what}: {allocs} allocations over a {BATCH_LINES}-line batch");
            }
        }
    }

    println!("{} zero-allocation checks, {} failures", checks, failures);
    assert!(checks >= 2 * (Method::ALL.len() + 3), "suite must cover every method and session");
    if failures > 0 {
        std::process::exit(1);
    }
}

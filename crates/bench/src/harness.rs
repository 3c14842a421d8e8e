//! Shared plumbing: datasets and timing.

use gsr_core::{PreparedNetwork, RangeReachIndex};
use gsr_datagen::workload::Workload;
use gsr_datagen::NetworkSpec;
use std::time::Instant;

/// Harness configuration (CLI-settable).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Dataset scale: 1.0 generates ~1% of the paper's network sizes
    /// (tens of thousands of vertices, ~10^5..10^6 edges).
    pub scale: f64,
    /// Queries per measurement point (the paper uses 1000).
    pub queries: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config { scale: 1.0, queries: 1000, seed: 0xD0_5E_ED }
    }
}

/// A generated, prepared dataset.
pub struct Dataset {
    /// Display name ("Foursquare", ...).
    pub name: &'static str,
    /// The condensed network all methods build on.
    pub prep: PreparedNetwork,
}

impl Dataset {
    /// Generates one dataset from a spec.
    pub fn from_spec(spec: &NetworkSpec) -> Dataset {
        Dataset { name: spec.name, prep: PreparedNetwork::new(spec.generate()) }
    }

    /// Generates all four paper datasets at the configured scale.
    pub fn load_all(cfg: &Config) -> Vec<Dataset> {
        NetworkSpec::paper_datasets(cfg.scale).iter().map(Dataset::from_spec).collect()
    }
}

/// Result of running one workload against one index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Average per-query time in microseconds.
    pub avg_micros: f64,
    /// Number of queries that answered TRUE.
    pub positives: usize,
    /// Number of queries executed.
    pub total: usize,
}

/// Runs every query of `workload` against `idx`, measuring wall time.
pub fn run_workload(idx: &dyn RangeReachIndex, workload: &Workload) -> RunResult {
    let mut positives = 0usize;
    let start = Instant::now();
    for (v, region) in &workload.queries {
        if idx.query(*v, region) {
            positives += 1;
        }
    }
    let elapsed = start.elapsed();
    RunResult {
        avg_micros: elapsed.as_secs_f64() * 1e6 / workload.queries.len().max(1) as f64,
        positives,
        total: workload.queries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_core::{Method, SccSpatialPolicy};
    use gsr_datagen::workload::WorkloadGen;
    use gsr_graph::stats::DegreeBucket;

    #[test]
    fn every_method_matches_bfs_on_a_generated_dataset() {
        let cfg = Config { scale: 0.05, queries: 40, seed: 11 };
        let ds = Dataset::from_spec(&NetworkSpec::yelp(cfg.scale));
        let gen = WorkloadGen::new(&ds.prep);
        let workload =
            gen.extent_degree(5.0, DegreeBucket::PAPER_BUCKETS[0], cfg.queries, cfg.seed);
        for method in Method::ALL {
            for &policy in method.policies() {
                let idx = method.build(&ds.prep, policy, 1);
                let bfs = |&(v, r): &(u32, gsr_geo::Rect)| ds.prep.range_reach_bfs(v, &r);
                let mismatch = workload.queries.iter().find(|q| idx.query(q.0, &q.1) != bfs(q));
                assert_eq!(mismatch, None, "{} {policy:?} disagrees with BFS", method.name());
            }
        }
    }

    #[test]
    fn run_workload_counts_positives() {
        let ds = Dataset::from_spec(&NetworkSpec::weeplaces(0.05));
        let gen = WorkloadGen::new(&ds.prep);
        let workload = gen.extent_degree(20.0, DegreeBucket::PAPER_BUCKETS[0], 25, 3);
        let idx = Method::ThreeDReach.build(&ds.prep, SccSpatialPolicy::Replicate, 1);
        let result = run_workload(&idx, &workload);
        assert_eq!(result.total, 25);
        let expected =
            workload.queries.iter().filter(|(v, r)| ds.prep.range_reach_bfs(*v, r)).count();
        assert_eq!(result.positives, expected);
        assert!(result.avg_micros >= 0.0);
    }
}

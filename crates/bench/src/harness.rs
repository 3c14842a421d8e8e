//! Shared plumbing: datasets, method construction and timing.

use gsr_core::methods::{
    GeoReach, SocReach, SpaReachBfl, SpaReachInt, ThreeDReach, ThreeDReachRev,
};
use gsr_core::{PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::workload::Workload;
use gsr_datagen::NetworkSpec;
use std::time::{Duration, Instant};

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
    /// Worker threads for the chaos drill's serving-index build (`0` =
    /// machine parallelism, `1` = sequential); the paper's experiments
    /// build sequentially, as the paper times them.
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { scale: 1.0, queries: 1000, seed: 0xD0_5E_ED, threads: 1 }
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

/// The evaluation methods of Section 6, in the paper's presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Spatial-first with BFL reachability.
    SpaReachBfl,
    /// Spatial-first with interval labeling.
    SpaReachInt,
    /// The prior state of the art.
    GeoReach,
    /// Social-first (Section 4.1).
    SocReach,
    /// 3-D transformation, forward labeling (Section 4.2).
    ThreeDReach,
    /// 3-D transformation, reversed labeling.
    ThreeDReachRev,
}

/// All methods in display order.
pub const ALL_METHODS: [MethodKind; 6] = [
    MethodKind::SpaReachBfl,
    MethodKind::SpaReachInt,
    MethodKind::GeoReach,
    MethodKind::SocReach,
    MethodKind::ThreeDReach,
    MethodKind::ThreeDReachRev,
];

/// The subset compared in the final evaluation (Figure 7): the best
/// spatial-first method plus GeoReach and the paper's contributions.
pub const FINAL_METHODS: [MethodKind; 5] = [
    MethodKind::SpaReachBfl,
    MethodKind::GeoReach,
    MethodKind::SocReach,
    MethodKind::ThreeDReach,
    MethodKind::ThreeDReachRev,
];

impl MethodKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            MethodKind::SpaReachBfl => "SpaReach-BFL",
            MethodKind::SpaReachInt => "SpaReach-INT",
            MethodKind::GeoReach => "GeoReach",
            MethodKind::SocReach => "SocReach",
            MethodKind::ThreeDReach => "3DReach",
            MethodKind::ThreeDReachRev => "3DReach-REV",
        }
    }

    /// Whether the method has an MBR-based SCC variant (Section 5 applies
    /// only to methods with spatial indexing; GeoReach is non-MBR by design
    /// and SocReach has no spatial index).
    pub fn supports_mbr(&self) -> bool {
        !matches!(self, MethodKind::GeoReach | MethodKind::SocReach)
    }

    /// Builds the method's index over a prepared network.
    pub fn build(
        &self,
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
    ) -> Box<dyn RangeReachIndex> {
        match self {
            MethodKind::SpaReachBfl => Box::new(SpaReachBfl::build(prep, policy)),
            MethodKind::SpaReachInt => Box::new(SpaReachInt::build(prep, policy)),
            MethodKind::GeoReach => Box::new(GeoReach::build(prep)),
            MethodKind::SocReach => Box::new(SocReach::build(prep)),
            MethodKind::ThreeDReach => Box::new(ThreeDReach::build(prep, policy)),
            MethodKind::ThreeDReachRev => Box::new(ThreeDReachRev::build(prep, policy)),
        }
    }

    /// Builds and times the construction (the measurement of Table 5).
    pub fn timed_build(
        &self,
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
    ) -> (Box<dyn RangeReachIndex>, Duration) {
        let start = Instant::now();
        let idx = self.build(prep, policy);
        (idx, start.elapsed())
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

/// Cross-checks that an index answers exactly like the BFS ground truth on
/// every query of a workload; returns the first mismatch, if any.
pub fn validate_against_bfs(
    prep: &PreparedNetwork,
    idx: &dyn RangeReachIndex,
    workload: &Workload,
) -> Option<(gsr_graph::VertexId, gsr_geo::Rect)> {
    workload
        .queries
        .iter()
        .find(|(v, r)| idx.query(*v, r) != prep.range_reach_bfs(*v, r))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_datagen::workload::WorkloadGen;
    use gsr_graph::stats::DegreeBucket;

    #[test]
    fn every_method_matches_bfs_on_a_generated_dataset() {
        let cfg = Config { scale: 0.05, queries: 40, seed: 11, threads: 1 };
        let ds = Dataset::from_spec(&NetworkSpec::yelp(cfg.scale));
        let gen = WorkloadGen::new(&ds.prep);
        let workload =
            gen.extent_degree(5.0, DegreeBucket::PAPER_BUCKETS[0], cfg.queries, cfg.seed);
        for method in ALL_METHODS {
            for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
                if policy == SccSpatialPolicy::Mbr && !method.supports_mbr() {
                    continue;
                }
                let idx = method.build(&ds.prep, policy);
                assert_eq!(
                    validate_against_bfs(&ds.prep, idx.as_ref(), &workload),
                    None,
                    "{} {:?} disagrees with BFS",
                    method.name(),
                    policy
                );
            }
        }
    }

    #[test]
    fn run_workload_counts_positives() {
        let ds = Dataset::from_spec(&NetworkSpec::weeplaces(0.05));
        let gen = WorkloadGen::new(&ds.prep);
        let workload = gen.extent_degree(20.0, DegreeBucket::PAPER_BUCKETS[0], 25, 3);
        let idx = MethodKind::ThreeDReach.build(&ds.prep, SccSpatialPolicy::Replicate);
        let result = run_workload(idx.as_ref(), &workload);
        assert_eq!(result.total, 25);
        let expected = workload
            .queries
            .iter()
            .filter(|(v, r)| ds.prep.range_reach_bfs(*v, r))
            .count();
        assert_eq!(result.positives, expected);
        assert!(result.avg_micros >= 0.0);
    }
}

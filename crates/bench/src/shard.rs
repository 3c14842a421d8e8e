//! **Extension**: the sharded scatter-gather routing experiment behind
//! `repro shard`.
//!
//! Spatial-tile sharding only pays if the router can *skip* shards: a
//! query whose rectangle misses a shard's MBR needs no probe there, and a
//! probe that answers `TRUE` ends the query without touching the remaining
//! shards. This experiment proves both effects on the Yelp-analog dataset:
//! for each shard count it partitions the check-ins with
//! [`gsr_core::prepared_tiles`], builds one 3DReach index per tile view
//! (the tiles share the network's condensation and labels), replays the
//! Section 6.1-style workload through the
//! [`ShardedIndex`] scatter path, and cross-checks **every** answer
//! against a single-index oracle. The emitted `BENCH_shard.json` records,
//! per shard count, the probes executed, the probes pruned by MBR
//! disjointness, the average shards probed per query (the headline: it
//! must stay below the shard count), throughput against the unsharded
//! baseline, and a mismatch tally that any non-zero value fails.

use crate::harness::{Config, Dataset};
use crate::table::TextTable;
use gsr_core::methods::ThreeDReach;
use gsr_core::{
    prepared_tiles, BatchExecutor, PreparedNetwork, RangeReachIndex, SccSpatialPolicy,
    ShardMember, ShardedIndex,
};
use gsr_datagen::workload::WorkloadGen;
use gsr_datagen::NetworkSpec;
use gsr_graph::stats::DegreeBucket;
use std::sync::Arc;
use std::time::Instant;

/// Shard counts the experiment sweeps, smallest first. `1` is the
/// degenerate single-tile router, which pins the scatter-gather overhead
/// against the raw single-index baseline.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One shard count's measurements.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// Shards the dataset was partitioned into.
    pub shards: usize,
    /// Wall-clock to partition and build all per-tile indexes, ms.
    pub build_ms: f64,
    /// Queries replayed.
    pub queries: u64,
    /// Replayed queries answered differently from the single-index oracle
    /// (must be 0).
    pub mismatches: u64,
    /// Shard probes executed (post MBR pruning, pre short-circuit).
    pub probes: u64,
    /// Shard probes skipped because the shard MBR missed the rectangle.
    pub pruned: u64,
    /// `probes / queries` — the pruning headline; `< shards` means the
    /// router is skipping work.
    pub avg_shards_probed: f64,
    /// Scatter-path throughput, queries per second.
    pub qps: f64,
    /// Per-shard p99 of sub-batch probe wall time, microseconds.
    pub probe_p99_us: Vec<u64>,
    /// The router's heap footprint, bytes: every tile's own structures plus
    /// one copy of what the tiles share.
    pub index_bytes: u64,
}

/// Builds the N-shard router over `prep` (one 3DReach per spatial tile).
pub(crate) fn build_sharded(
    prep: &PreparedNetwork,
    shards: usize,
    threads: usize,
) -> Result<ShardedIndex, String> {
    let members = prepared_tiles(prep.network(), shards)
        .map(|(tile_prep, mbr)| ShardMember {
            index: Arc::new(ThreeDReach::build_threaded(
                &tile_prep,
                SccSpatialPolicy::Replicate,
                threads,
            )),
            mbr,
        })
        .collect();
    ShardedIndex::new(members).map_err(|e| format!("shard: assemble: {e}"))
}

/// Runs the experiment: one [`ShardPoint`] per entry of [`SHARD_COUNTS`],
/// plus the unsharded baseline throughput all points are compared against.
/// Returns `(table, baseline_qps, points)`.
pub fn run_experiment(cfg: &Config) -> Result<(TextTable, f64, Vec<ShardPoint>), String> {
    let ds = Dataset::from_spec(&NetworkSpec::yelp(cfg.scale));
    let gen = WorkloadGen::new(&ds.prep);
    let workload = gen.extent_degree(
        crate::experiments::DEFAULT_EXTENT,
        DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX],
        cfg.queries.max(1),
        cfg.seed,
    );
    let exec = BatchExecutor::new(cfg.threads);

    // The oracle is also the unsharded baseline: same method, same policy,
    // same executor — so the qps comparison isolates the routing layer.
    let oracle = ThreeDReach::build_threaded(&ds.prep, SccSpatialPolicy::Replicate, cfg.threads);
    let t = Instant::now();
    let expected = exec.run(&oracle, &workload.queries);
    let baseline_qps = workload.queries.len() as f64 / t.elapsed().as_secs_f64().max(1e-9);

    let mut points = Vec::with_capacity(SHARD_COUNTS.len());
    for &n in &SHARD_COUNTS {
        let t = Instant::now();
        let sharded = build_sharded(&ds.prep, n, cfg.threads)?;
        let build_ms = t.elapsed().as_secs_f64() * 1000.0;

        sharded.reset_shard_stats();
        let t = Instant::now();
        let answers = sharded.scatter(&exec, &workload.queries);
        let qps = workload.queries.len() as f64 / t.elapsed().as_secs_f64().max(1e-9);

        let mismatches =
            answers.iter().zip(&expected).filter(|(got, want)| got != want).count() as u64;
        let stats = sharded
            .shard_stats()
            .ok_or_else(|| "shard: router reported no shard stats".to_string())?;
        points.push(ShardPoint {
            shards: n,
            build_ms,
            queries: workload.queries.len() as u64,
            mismatches,
            probes: stats.probes,
            pruned: stats.pruned,
            avg_shards_probed: stats.probes as f64 / workload.queries.len().max(1) as f64,
            qps,
            probe_p99_us: stats.probe_p99_us,
            index_bytes: sharded.index_bytes() as u64,
        });
    }

    let mut table = TextTable::new([
        "shards",
        "build_ms",
        "qps",
        "vs_single",
        "avg_probed",
        "probes",
        "pruned",
        "mismatches",
        "index_MB",
    ]);
    for p in &points {
        table.row([
            p.shards.to_string(),
            format!("{:.0}", p.build_ms),
            format!("{:.0}", p.qps),
            format!("{:.2}x", p.qps / baseline_qps.max(1e-9)),
            format!("{:.2}", p.avg_shards_probed),
            p.probes.to_string(),
            p.pruned.to_string(),
            p.mismatches.to_string(),
            format!("{:.2}", p.index_bytes as f64 / (1024.0 * 1024.0)),
        ]);
    }
    Ok((table, baseline_qps, points))
}

/// Renders the sweep as the `BENCH_shard.json` artifact. The
/// `"mismatches"` fields use the same spelling as `BENCH_loadtest.json`,
/// so the same `grep '"mismatches": [^0]'` smoke check covers both.
pub fn shard_json(cfg: &Config, baseline_qps: f64, points: &[ShardPoint]) -> String {
    let mut s = String::from("{\n  \"experiment\": \"shard\",\n");
    s.push_str(&format!(
        "  \"scale\": {}, \"queries\": {}, \"seed\": {}, \"threads\": {}, \
         \"single_index_qps\": {:.1},\n  \"results\": [\n",
        cfg.scale, cfg.queries, cfg.seed, cfg.threads, baseline_qps,
    ));
    for (i, p) in points.iter().enumerate() {
        let p99s: Vec<String> = p.probe_p99_us.iter().map(u64::to_string).collect();
        s.push_str(&format!(
            "    {{\"shards\": {}, \"build_ms\": {:.1}, \"queries\": {}, \
             \"mismatches\": {}, \"probes\": {}, \"pruned\": {}, \
             \"avg_shards_probed\": {:.3}, \"qps\": {:.1}, \
             \"probe_p99_us\": [{}], \"index_bytes\": {}}}{}\n",
            p.shards,
            p.build_ms,
            p.queries,
            p.mismatches,
            p.probes,
            p.pruned,
            p.avg_shards_probed,
            p.qps,
            p99s.join(", "),
            p.index_bytes,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let cfg = Config::default();
        let p = ShardPoint {
            shards: 4,
            build_ms: 12.5,
            queries: 1000,
            mismatches: 0,
            probes: 1800,
            pruned: 2200,
            avg_shards_probed: 1.8,
            qps: 52000.0,
            probe_p99_us: vec![15, 31, 31, 63],
            index_bytes: 4096,
        };
        let json = shard_json(&cfg, 48000.0, std::slice::from_ref(&p));
        assert!(json.contains("\"experiment\": \"shard\""));
        assert!(json.contains("\"single_index_qps\": 48000.0"));
        assert!(json.contains("\"avg_shards_probed\": 1.800"));
        assert!(json.contains("\"probe_p99_us\": [15, 31, 31, 63]"));
        assert!(json.contains("\"mismatches\": 0"));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn tiny_run_agrees_with_the_oracle_and_prunes() {
        let cfg = Config { scale: 0.02, queries: 64, ..Config::default() };
        let (_table, baseline_qps, points) = run_experiment(&cfg).expect("shard experiment");
        assert!(baseline_qps > 0.0);
        assert_eq!(points.len(), SHARD_COUNTS.len());
        for p in &points {
            assert_eq!(p.mismatches, 0, "{} shards disagreed with the oracle", p.shards);
            assert!(
                p.avg_shards_probed <= p.shards as f64,
                "probed more shards than exist at {}",
                p.shards
            );
            assert_eq!(p.probe_p99_us.len(), p.shards);
        }
        // With real partitioning, MBR pruning must actually fire.
        let multi = points.iter().find(|p| p.shards > 1).expect("multi-shard point");
        assert!(
            multi.avg_shards_probed < multi.shards as f64,
            "no pruning at {} shards: avg {}",
            multi.shards,
            multi.avg_shards_probed
        );
    }
}

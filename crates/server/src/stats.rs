//! Lock-free service counters over the workspace-shared latency histogram.
//!
//! The histogram is [`gsr_core::hist::LatencyHistogram`], the one
//! latency histogram of the workspace; this module layers the `STATS`
//! counters on top of it.

use gsr_core::hist::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters shared by all worker threads of a query server.
#[derive(Debug, Default)]
pub struct ServerStats {
    queries: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    rejected: AtomicU64,
    accept_errors: AtomicU64,
    reloads: AtomicU64,
    /// Admitted connections currently open, which `max_conns` bounds: the
    /// socket layer counts them in and out; `RESET` leaves them.
    pub(crate) live: AtomicU64,
    load_us: AtomicU64,
    snapshot_format: AtomicU64,
    hist: LatencyHistogram,
}

impl ServerStats {
    /// Records one evaluated batch of `queries` answered `REACH` requests,
    /// `errors` of which were answered with an `ERR` line, each with the
    /// batch's wall-clock time as its latency — one update per batch, not
    /// per query.
    pub fn record_batch(&self, queries: u64, errors: u64, latency_us: u64) {
        self.queries.fetch_add(queries, Ordering::Relaxed);
        if errors > 0 {
            self.errors.fetch_add(errors, Ordering::Relaxed);
        }
        self.hist.record_n_us(latency_us, queries);
    }

    /// Records a protocol-level error (malformed or unknown line) that
    /// never became a query. Also used for failed control verbs (e.g. a
    /// `RELOAD` whose snapshot would not load): it counts `ERR` reply
    /// lines that are not per-query answers.
    pub fn record_protocol_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection shed because the pending accept→worker queue
    /// was at `--max-pending`.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection rejected because `--max-conns` live
    /// connections were already admitted.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an `accept()` failure (EMFILE storms and kin); the accept
    /// loop backs off exponentially while these persist.
    pub fn record_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a successful `RELOAD` index swap.
    pub fn record_reload(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records how the served snapshot was (last) loaded: wall-clock load
    /// time (kept to the microsecond — a mapped load takes a few
    /// milliseconds) and the snapshot wire-format version (0 when
    /// the index was built in-process rather than loaded). Set at startup
    /// and on every successful `RELOAD`; `RESET` leaves it alone — restart
    /// cost is a property of the serving index, not of the traffic window.
    pub fn record_load(&self, load: std::time::Duration, snapshot_format: u32) {
        self.load_us.store(load.as_micros().min(u64::MAX as u128) as u64, Ordering::Relaxed);
        self.snapshot_format.store(snapshot_format as u64, Ordering::Relaxed);
    }

    /// Zeroes the query/error counters and the latency histogram, for a
    /// `RESET` request. Counter wipes are not a transaction; requests in
    /// flight may straddle the reset, which a load driver avoids by
    /// resetting between steps on an otherwise idle server.
    pub fn reset(&self) {
        self.queries.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.shed.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.accept_errors.store(0, Ordering::Relaxed);
        self.reloads.store(0, Ordering::Relaxed);
        self.hist.reset();
    }

    /// A consistent-enough snapshot of the counters (each counter is read
    /// atomically; the set is not a transaction, which monitoring does not
    /// need).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            p50_us: self.hist.quantile_us(0.50),
            p99_us: self.hist.quantile_us(0.99),
            p999_us: self.hist.quantile_us(0.999),
            index_bytes: 0,
            cache: crate::cache::CacheStats::default(),
            shed: self.shed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            live: self.live.load(Ordering::Relaxed),
            load_us: self.load_us.load(Ordering::Relaxed),
            snapshot_format: self.snapshot_format.load(Ordering::Relaxed) as u32,
            shards: 0,
            probes: 0,
            pruned: 0,
        }
    }
}

/// Point-in-time view of a server's counters, as reported by `STATS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `REACH` requests answered (including error replies).
    pub queries: u64,
    /// `ERR` replies sent (query errors and protocol errors).
    pub errors: u64,
    /// Median request latency, microseconds (bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds (bucket upper bound).
    pub p99_us: u64,
    /// 99.9th-percentile request latency, microseconds (bucket upper
    /// bound): the tail that a median and a p99 both hide.
    pub p999_us: u64,
    /// Heap footprint of the served index in bytes
    /// ([`gsr_core::RangeReachIndex::index_bytes`]). Filled in by the
    /// server, which owns the index.
    pub index_bytes: u64,
    /// Result-cache counters; all zero when the cache is disabled. Filled
    /// in by the server, which owns the cache.
    pub cache: crate::cache::CacheStats,
    /// Connections shed because the pending queue was at `--max-pending`.
    pub shed: u64,
    /// Connections rejected because `--max-conns` were already live.
    pub rejected: u64,
    /// `accept()` failures absorbed with backoff.
    pub accept_errors: u64,
    /// Successful `RELOAD` index swaps.
    pub reloads: u64,
    /// Admitted connections currently open (queued or being served) — a
    /// gauge, not a counter; `RESET` does not touch it. Always 0 for an
    /// [`Engine`](crate::Engine) served without a socket.
    pub live: u64,
    /// Wall-clock microseconds the serving index took to load (startup or
    /// last `RELOAD`), printed as fractional `load_ms=`; 0 when it was built
    /// in-process. `RESET` does not touch it.
    pub load_us: u64,
    /// Snapshot wire-format version the serving index was loaded from:
    /// always [`gsr_store::FORMAT_VERSION`], the only version a loader reads
    /// (formats 1–5 are retired); 0 when built in-process. `RESET` does not
    /// touch it.
    pub snapshot_format: u32,
    /// Shard count of the served index when it is a sharded
    /// scatter-gather router ([`gsr_core::ShardedIndex`]); 0 for a plain
    /// single index. Filled in by the server from
    /// [`gsr_core::RangeReachIndex::shard_stats`].
    pub shards: u64,
    /// Shard probes actually executed (post MBR pruning, pre
    /// short-circuit); 0 for a plain single index. Filled in by the
    /// server.
    pub probes: u64,
    /// Shard probes skipped because the shard's MBR missed the query
    /// rectangle; 0 for a plain single index. Filled in by the server.
    pub pruned: u64,
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} errors={} p50_us={} p99_us={} p999_us={} index_bytes={} \
             cache_hits={} cache_misses={} cache_evictions={} \
             shed={} rejected={} accept_errors={} reloads={} live={} \
             load_ms={:.3} snapshot_format={} shards={} probes={} pruned={}",
            self.queries,
            self.errors,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.index_bytes,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.shed,
            self.rejected,
            self.accept_errors,
            self.reloads,
            self.live,
            self.load_us as f64 / 1e3,
            self.snapshot_format,
            self.shards,
            self.probes,
            self.pruned,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_land_in_the_right_buckets() {
        let h = LatencyHistogram::default();
        // 99 fast samples in [64, 128), one slow outlier in [65536, 131072).
        for _ in 0..99 {
            h.record_us(100);
        }
        h.record_us(100_000);
        assert_eq!(h.quantile_us(0.50), 127);
        assert_eq!(h.quantile_us(0.99), 127);
        assert_eq!(h.quantile_us(1.0), 131_071);
    }

    #[test]
    fn zero_latency_is_not_lost() {
        let h = LatencyHistogram::default();
        h.record_us(0);
        assert_eq!(h.quantile_us(0.5), 1, "sub-microsecond samples land in bucket 0");
    }

    #[test]
    fn stats_snapshot_formats_one_line() {
        let s = ServerStats::default();
        s.record_batch(2, 1, 10);
        s.record_protocol_error();
        s.record_shed();
        s.record_shed();
        s.record_rejected();
        s.record_accept_error();
        s.record_reload();
        s.record_load(std::time::Duration::from_micros(7_250), 3);
        let snap = s.snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.errors, 2);
        assert_eq!(
            snap.to_string(),
            "queries=2 errors=2 p50_us=15 p99_us=15 p999_us=15 index_bytes=0 \
             cache_hits=0 cache_misses=0 cache_evictions=0 \
             shed=2 rejected=1 accept_errors=1 reloads=1 live=0 \
             load_ms=7.250 snapshot_format=3 shards=0 probes=0 pruned=0"
        );
    }

    #[test]
    fn reset_zeroes_counters_and_histogram() {
        let s = ServerStats::default();
        s.record_batch(1, 0, 10);
        s.record_batch(1, 1, 1000);
        s.record_protocol_error();
        s.record_shed();
        s.record_rejected();
        s.record_accept_error();
        s.record_reload();
        s.record_load(std::time::Duration::from_micros(12_004), 3);
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.p999_us, 0);
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.rejected, 0);
        assert_eq!(snap.accept_errors, 0);
        assert_eq!(snap.reloads, 0);
        // Restart cost describes the serving index, not the traffic
        // window: RESET must not wipe it.
        assert_eq!(snap.load_us, 12_004);
        assert_eq!(snap.snapshot_format, 3);
    }
}

//! # gsr-server: the `RangeReach` query service
//!
//! Serves `RangeReach` queries over a newline-delimited text protocol (see
//! [`proto`]) from an immutable, [`Arc`]-shared index — typically one
//! loaded from a `gsr-store` snapshot, so a service replica goes from
//! process start to serving without rebuilding anything. It has three
//! parts:
//!
//! * The **[`Engine`]** is the service without a socket: the registry of
//!   named datasets (a connection's `USE <dataset>` selects one) with their
//!   globally unique cache epochs, the optional sharded [`ResultCache`],
//!   the [`ServerStats`] counters, the limits of [`ServerConfig`] and the
//!   cancellation flag.
//! * A **[`Session`]** is one connection's protocol state on an engine. It
//!   is fed bytes however they were cut ([`Session::feed`], then
//!   [`Session::finish`] at EOF) and appends one reply line per request
//!   line. It assembles lines across feeds, parsing complete lines where
//!   they lie and copying only an unterminated tail; caps their length
//!   ([`ServerConfig::max_line`]: `ERR 2 line too long` and close, which
//!   also stops a slow-loris writer); evaluates the consecutive `REACH`
//!   lines of a feed as one batch through
//!   [`gsr_core::BatchExecutor::run_bounded_into`] under the budget and the
//!   cancellation flag, probing the cache first; and serves `USE`, `STATS`,
//!   `RESET`, `RELOAD` and `SHUTDOWN`. Nothing in it needs a socket, so a
//!   test or an embedding process speaks the protocol in memory.
//! * The **[`QueryServer`]** is the TCP transport: one accept loop asleep
//!   in `accept()` and a fixed pool of workers on `gsr_graph::par`'s
//!   scoped threads, handed connections through a `Mutex<VecDeque>` +
//!   `Condvar` queue. A worker only reads, feeds its connection's session
//!   and writes the replies. What only a socket has stays there: admission
//!   control ([`ServerConfig::max_pending`], [`ServerConfig::max_conns`]; a
//!   refused connection gets `ERR 7 busy retry_ms=<hint>` and a close),
//!   the idle and write deadlines (socket timeouts, so nothing wakes on a
//!   timer), backoff on `accept()` failures, and the stop: a [`StopHandle`]
//!   or a client's `SHUTDOWN`, once its `OK shutdown` is on the wire,
//!   wakes `accept()`, the idle workers and every open connection, and
//!   [`QueryServer::run`] returns within milliseconds.
//!
//! `RELOAD <path>` loads and CRC-validates a snapshot, or a sharded
//! snapshot set, on a dedicated panic-fenced thread, then swaps the
//! dataset's index and cache epoch as one pair: in-flight batches finish on
//! the old index, and a load failure leaves it serving and replies a typed
//! `ERR`. `STATS` reports the counters, p50/p99/p999 latency, the cache and
//! overload tallies and, for a [`gsr_core::ShardedIndex`], its routing
//! counters; `RESET` zeroes them and nothing else. Every failure a query
//! can hit maps onto one `ERR <code> <msg>` line mirroring the
//! [`GsrError`] taxonomy; a malformed line never kills the connection, and
//! a panicking index is fenced off by the batch executor's per-query
//! isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod proto;
mod socket;
mod stats;

pub use cache::{CacheStats, ResultCache};
pub use socket::{QueryServer, StopHandle};
pub use stats::{ServerStats, StatsSnapshot};

use gsr_core::{
    BatchExecutor, BatchOptions, BatchOutcome, BatchQuery, CancelToken, GsrError, RangeReachIndex,
};
use proto::{error_reply, parse_line, Request, PROTOCOL_ERR};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Size of a connection's socket read buffer — and so of the largest feed
/// that is parsed, evaluated and answered as one piece. A session's tail
/// grows past it only while one request line longer than it is being
/// assembled (which [`ServerConfig::max_line`] bounds), and shrinks back
/// afterwards.
const READ_BUF: usize = 64 * 1024;

/// Configuration of an [`Engine`] and of the [`QueryServer`] around it.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handler pool size; `0` means machine parallelism.
    pub threads: usize,
    /// Per-request time budget applied to each pipelined batch of `REACH`
    /// queries; `None` means unlimited. Exceeding it answers the remaining
    /// queries of the batch with `ERR 5`.
    pub budget: Option<Duration>,
    /// Total capacity of the sharded result cache ([`ResultCache`]);
    /// `0` disables caching. Cached answers are exact — they are keyed to
    /// the served index's epoch — and only successful answers are cached.
    pub cache_entries: usize,
    /// Bound on the accept→worker hand-off queue; a connection arriving
    /// with the queue full is shed (`ERR 7 busy` + close) and counted as
    /// `shed`. `0` means unbounded (the pre-hardening behavior).
    pub max_pending: usize,
    /// Bound on admitted connections (queued plus being served); beyond
    /// it new connections are refused (`ERR 7 busy` + close) and counted
    /// as `rejected`. `0` means unlimited.
    pub max_conns: usize,
    /// Maximum request-line length in bytes. An oversize line — complete,
    /// or still being dribbled in by a slow-loris writer — answers
    /// `ERR 2 line too long` and closes the connection. `0` = unlimited.
    pub max_line: usize,
    /// Maximum pipelined `REACH` queries evaluated as one batch; longer
    /// pipelines are split at the cap (answers unchanged, not an error),
    /// bounding per-batch memory and budget-check granularity. `0` =
    /// unlimited.
    pub max_batch: usize,
    /// Reap connections that have been silent this long with
    /// `ERR 7 idle timeout` + close; `None` = never reap.
    pub idle_timeout: Option<Duration>,
    /// Write deadline for reply flushes, so one stalled reader cannot
    /// wedge a worker forever; `None` = unlimited.
    pub write_timeout: Option<Duration>,
    /// Skip the eager CRC pass when `RELOAD` loads a snapshot
    /// ([`gsr_store::LoadOptions::trust`]). Structural validation always
    /// runs; only enable this for snapshots this deployment wrote itself.
    pub trust_snapshot: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            budget: None,
            cache_entries: 0,
            max_pending: 1024,
            max_conns: 0,
            max_line: 64 * 1024,
            max_batch: 4096,
            idle_timeout: None,
            write_timeout: Some(Duration::from_secs(10)),
            trust_snapshot: false,
        }
    }
}

/// `0`-means-unlimited limits, normalized for comparisons.
fn cap_or_max(cap: usize) -> usize {
    if cap == 0 {
        usize::MAX
    } else {
        cap
    }
}

/// The reply for a request line over [`ServerConfig::max_line`].
fn line_too_long(max: usize) -> String {
    format!("ERR {PROTOCOL_ERR} line too long (max {max} bytes)\n")
}

/// The error of the queries a batch's budget or a stop kept from running.
fn not_run_error(outcome: &BatchOutcome, budget: Option<Duration>) -> GsrError {
    if outcome.timed_out {
        let budget_ms = budget.unwrap_or_default().as_millis().min(u64::MAX as u128) as u64;
        GsrError::Timeout { budget_ms }
    } else if outcome.cancelled {
        GsrError::Cancelled
    } else {
        GsrError::Internal("query produced no answer".into())
    }
}

/// What the caller of a [`Session`] does once a feed is answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineAction {
    /// Keep reading requests.
    Continue,
    /// Close this connection (a lifecycle limit fired); the server stays
    /// up.
    Close,
    /// `SHUTDOWN` was requested: the whole server stops once the replies
    /// are delivered.
    Shutdown,
}

/// One named dataset registered in the engine: the served index and its
/// cache epoch, swapped together by `RELOAD` so a batch can never pair a
/// new index with an old epoch or vice versa.
struct DatasetSlot {
    name: String,
    /// `(index, cache epoch)` behind a lock only so `RELOAD` can swap the
    /// pair; the read path clones the `Arc` once per batch.
    index: RwLock<(Arc<dyn RangeReachIndex>, u64)>,
}

/// The protocol engine: what every connection of one service shares — the
/// dataset registry, the result cache, the counters, the limits and the
/// cancellation flag. It binds no socket; [`Engine::session`] opens a
/// connection's protocol state on it, and a [`QueryServer`] moves socket
/// bytes through those sessions.
pub struct Engine {
    /// The dataset registry, fixed at construction (`USE` selects,
    /// `RELOAD` swaps contents; entries are never added or removed).
    datasets: Vec<DatasetSlot>,
    /// Allocator of globally unique cache epochs: every `(dataset,
    /// index-version)` pair ever served gets its own epoch, so cached
    /// answers from different datasets (or superseded indexes) can never
    /// collide in the shared [`ResultCache`].
    epoch_alloc: AtomicU64,
    config: ServerConfig,
    /// The limits of every batch: the configured budget and `cancel`.
    batch_options: BatchOptions,
    /// Set by `SHUTDOWN` (and by the transport's stop): batches still
    /// running answer `ERR 6`.
    cancel: CancelToken,
    stats: Arc<ServerStats>,
    cache: Option<ResultCache>,
}

impl Engine {
    /// An engine serving a registry of named indexes. Sessions start on
    /// the first entry and switch with `USE <name>`; `RELOAD` swaps the
    /// selected dataset's index in place. Names must be non-empty and
    /// unique.
    pub fn new(
        indexes: Vec<(String, Arc<dyn RangeReachIndex>)>,
        config: ServerConfig,
    ) -> Result<Self, GsrError> {
        if indexes.is_empty() {
            return Err(GsrError::Internal("server: no datasets to serve".into()));
        }
        for (i, (name, _)) in indexes.iter().enumerate() {
            if name.is_empty() {
                return Err(GsrError::Internal("server: empty dataset name".into()));
            }
            if indexes.iter().take(i).any(|(other, _)| other == name) {
                return Err(GsrError::Internal(format!("server: duplicate dataset name {name:?}")));
            }
        }
        // Epochs 0..n seed the datasets; the allocator continues from n so
        // every reload (of any dataset) gets a fresh, never-reused epoch.
        let epoch_alloc = AtomicU64::new(indexes.len() as u64);
        let datasets = indexes
            .into_iter()
            .enumerate()
            .map(|(i, (name, index))| DatasetSlot { name, index: RwLock::new((index, i as u64)) })
            .collect();
        let cancel = CancelToken::new();
        Ok(Engine {
            datasets,
            epoch_alloc,
            batch_options: BatchOptions { budget: config.budget, cancel: Some(cancel.clone()) },
            cancel,
            cache: (config.cache_entries > 0).then(|| ResultCache::new(config.cache_entries)),
            config,
            stats: Arc::new(ServerStats::default()),
        })
    }

    /// A new connection's protocol state, on the first registered dataset.
    pub fn session(&self) -> Session<'_> {
        Session {
            engine: self,
            dataset: 0,
            tail: Vec::new(),
            batch: Vec::new(),
            outcome: BatchOutcome::default(),
            probed: Vec::new(),
            misses: Vec::new(),
            missed: Vec::new(),
        }
    }

    /// Pins a dataset's served index and its cache epoch as one consistent
    /// pair. `reload` swaps both under the write lock, so a batch can
    /// never see a new index with an old epoch or vice versa — and because
    /// epochs are allocated globally (never reused across datasets or
    /// reloads), a cache entry keyed to one pair can never answer for
    /// another.
    fn pinned(&self, dataset: usize) -> (Arc<dyn RangeReachIndex>, u64) {
        let g = match self.datasets[dataset].index.read() {
            Ok(g) => g,
            // A poisoned lock means a panic while swapping; the pair inside
            // is still whole, so keep serving it.
            Err(e) => e.into_inner(),
        };
        (Arc::clone(&g.0), g.1)
    }

    /// Handles `RELOAD <path>` for a session's selected dataset: loads and
    /// validates the snapshot on a dedicated thread (so a deserializer
    /// panic is fenced), then swaps the dataset's `(index, epoch)` pair —
    /// with a freshly allocated, never-reused epoch — and clears the result
    /// cache under the dataset's write lock. A directory path loads as a
    /// **sharded snapshot set** ([`gsr_store::load_served_index`]), so one
    /// `RELOAD` swaps a whole shard set atomically under one epoch.
    /// In-flight batches pinned the old pair and finish on the old index;
    /// new batches see the new pair. On any failure the old index keeps
    /// serving. Returns the new index's heap footprint and the wall-clock
    /// load time (which, with the mmap path, is the restart cost a replica
    /// would pay).
    fn reload(&self, dataset: usize, path: &str) -> Result<(u64, Duration), GsrError> {
        let owned = path.to_string();
        let trust = self.config.trust_snapshot;
        let started = Instant::now();
        let (fresh, info) = std::thread::Builder::new()
            .name("gsr-reload".into())
            .spawn(move || gsr_store::load_served_index(&owned, gsr_store::LoadOptions { trust }))
            .map_err(|e| GsrError::Internal(format!("reload: spawn loader: {e}")))?
            .join()
            .map_err(|_| GsrError::Internal("reload: snapshot loader panicked".into()))??;
        let load = started.elapsed();
        let index_bytes = fresh.index_bytes() as u64;
        let epoch = self.epoch_alloc.fetch_add(1, Ordering::Relaxed);
        {
            let mut g = match self.datasets[dataset].index.write() {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            *g = (fresh, epoch);
            if let Some(cache) = &self.cache {
                // Old entries are unreachable already (their epoch is
                // retired); dropping them now just frees the memory.
                cache.clear();
            }
        }
        self.stats.record_reload();
        self.stats.record_load(load, info.format);
        Ok((index_bytes, load))
    }
}

/// One connection's protocol state on an [`Engine`]: which dataset its
/// lines address (selected with `USE <dataset>`), the unterminated line it
/// has been fed so far, and the buffers its batches reuse.
pub struct Session<'e> {
    engine: &'e Engine,
    dataset: usize,
    /// The start of a line whose newline has not been fed yet.
    tail: Vec<u8>,
    /// The consecutive `REACH` lines gathered so far.
    batch: Vec<BatchQuery>,
    /// Where `batch` (without a cache) or its cache misses are evaluated.
    outcome: BatchOutcome,
    /// With a cache: the batch's answers, cache hits first, then the
    /// misses' answers scattered in.
    probed: Vec<Option<bool>>,
    /// With a cache: the batch positions that missed, ascending.
    misses: Vec<usize>,
    /// With a cache: the queries at those positions.
    missed: Vec<BatchQuery>,
}

impl Session<'_> {
    /// Serves the next bytes of the connection: appends to `out` the reply
    /// of every request line they complete, and keeps an unterminated last
    /// line for the next feed (or [`Session::finish`]). Pipelining pays: a
    /// client that writes 1000 queries before reading gets one bounded
    /// batch, split at [`ServerConfig::max_batch`], not 1000 round trips.
    /// A line over [`ServerConfig::max_line`], complete or not, answers
    /// `ERR 2 line too long`, and nothing after it is served.
    pub fn feed(&mut self, bytes: &[u8], out: &mut Vec<u8>) -> LineAction {
        let engine = self.engine;
        let mut action = LineAction::Continue;
        let rest = match bytes.iter().rposition(|&b| b == b'\n') {
            None => bytes,
            Some(nl) => {
                let mut lines = bytes[..nl].split(|&b| b == b'\n');
                if !self.tail.is_empty() {
                    // The first line began in an earlier feed.
                    let mut line = std::mem::take(&mut self.tail);
                    line.extend_from_slice(lines.next().unwrap_or_default());
                    action = self.serve_line(&line, out);
                    line.clear();
                    self.tail = line;
                }
                for raw in lines {
                    if action != LineAction::Continue {
                        break;
                    }
                    action = self.serve_line(raw, out);
                }
                self.flush_batch(out);
                &bytes[nl + 1..]
            }
        };
        if action == LineAction::Continue {
            self.tail.extend_from_slice(rest);
            if self.tail.len() > cap_or_max(engine.config.max_line) {
                // Already over the cap before its newline: buffered bytes
                // stay bounded, and a slow-loris line is never finished.
                engine.stats.record_protocol_error();
                out.extend_from_slice(line_too_long(engine.config.max_line).as_bytes());
                action = LineAction::Close;
            }
        }
        self.tail.shrink_to(READ_BUF);
        action
    }

    /// Serves what is left at EOF: a last line the peer never terminated
    /// (it may have half-closed and be waiting for the reply).
    pub fn finish(&mut self, out: &mut Vec<u8>) -> LineAction {
        let line = std::mem::take(&mut self.tail);
        let action = self.serve_line(&line, out);
        self.flush_batch(out);
        action
    }

    /// Serves one request line: a `REACH` joins the batch, every other verb
    /// is answered at once, after the batch before it.
    fn serve_line(&mut self, raw: &[u8], out: &mut Vec<u8>) -> LineAction {
        let engine = self.engine;
        if raw.len() > cap_or_max(engine.config.max_line) {
            // Flush first so replies stay in request order, then answer
            // the oversize line and drop the connection.
            self.flush_batch(out);
            engine.stats.record_protocol_error();
            out.extend_from_slice(line_too_long(engine.config.max_line).as_bytes());
            return LineAction::Close;
        }
        let parsed = match std::str::from_utf8(raw) {
            Ok(line) => parse_line(line),
            Err(_) => parse_line(&String::from_utf8_lossy(raw)),
        };
        let Some(request) = parsed.transpose() else {
            return LineAction::Continue; // a blank line
        };
        if let Ok(Request::Reach(v, r)) = &request {
            self.batch.push((*v, *r));
            if self.batch.len() >= cap_or_max(engine.config.max_batch) {
                self.flush_batch(out);
            }
            return LineAction::Continue;
        }
        // Every other verb flushes first, so a pipelined batch always runs
        // against the dataset that was selected when its queries arrived.
        self.flush_batch(out);
        match request {
            Ok(Request::Use(name)) => match engine.datasets.iter().position(|d| d.name == name) {
                Some(i) => {
                    self.dataset = i;
                    let _ = writeln!(out, "OK use {name}");
                }
                None => {
                    engine.stats.record_protocol_error();
                    let known: Vec<&str> =
                        engine.datasets.iter().map(|d| d.name.as_str()).collect();
                    let _ = writeln!(
                        out,
                        "ERR {PROTOCOL_ERR} unknown dataset {name:?} (have: {})",
                        known.join(", ")
                    );
                }
            },
            Ok(Request::Stats) => {
                let index = engine.pinned(self.dataset).0;
                let mut snap = engine.stats.snapshot();
                snap.index_bytes = index.index_bytes() as u64;
                if let Some(cache) = &engine.cache {
                    snap.cache = cache.stats();
                }
                // Routing counters of a sharded router, plus a per-shard
                // probe-latency tail appended after the fixed fields
                // (absent for plain indexes).
                let mut extra = String::new();
                if let Some(s) = index.shard_stats() {
                    snap.shards = s.shards;
                    snap.probes = s.probes;
                    snap.pruned = s.pruned;
                    let p99: Vec<String> = s.probe_p99_us.iter().map(u64::to_string).collect();
                    extra = format!(" probe_p99_us={}", p99.join(","));
                }
                let _ = writeln!(out, "STATS {snap}{extra}");
            }
            Ok(Request::Reset) => {
                engine.stats.reset();
                if let Some(cache) = &engine.cache {
                    cache.reset_stats();
                }
                for i in 0..engine.datasets.len() {
                    engine.pinned(i).0.reset_shard_stats();
                }
                out.extend_from_slice(b"OK reset\n");
            }
            Ok(Request::Reload(path)) => match engine.reload(self.dataset, &path) {
                Ok((index_bytes, load)) => {
                    let load_ms = load.as_secs_f64() * 1e3;
                    let _ =
                        writeln!(out, "OK reload index_bytes={index_bytes} load_ms={load_ms:.3}");
                }
                Err(e) => {
                    // The old index keeps serving; the client learns why
                    // the swap did not happen.
                    engine.stats.record_protocol_error();
                    let _ = writeln!(out, "{}", error_reply(&e));
                }
            },
            Ok(Request::Shutdown) => {
                // Only the flag here, so nothing after this line is served;
                // the transport wakes its sleepers once this reply is out.
                out.extend_from_slice(b"OK shutdown\n");
                engine.cancel.cancel();
                return LineAction::Shutdown;
            }
            Err(msg) => {
                engine.stats.record_protocol_error();
                let _ = writeln!(out, "ERR {PROTOCOL_ERR} {msg}");
            }
            // Gathered into the batch above.
            Ok(Request::Reach(..)) => {}
        }
        LineAction::Continue
    }

    /// Evaluates the accumulated `REACH` batch and appends one reply line
    /// per query. Request latency is recorded per query as its batch's
    /// wall-clock time — under pipelining, that is the time from batch
    /// start to the reply being ready.
    ///
    /// With the result cache enabled, the batch is probed first and only
    /// the misses are evaluated; successful answers are inserted back.
    /// Errors, timeouts and cancellations are never cached, so degraded
    /// replies cannot be replayed once the condition clears.
    fn flush_batch(&mut self, out: &mut Vec<u8>) {
        let Session { engine, dataset, batch, outcome, probed, misses, missed, .. } = self;
        if batch.is_empty() {
            return;
        }
        // Pin the dataset's index and cache epoch as one pair for the
        // whole batch: a concurrent RELOAD redirects *new* batches while
        // this one finishes on the index it started with, and its cache
        // inserts stay keyed to that index's epoch (unreachable after a
        // swap). Epochs are globally unique across datasets, so a batch
        // for one dataset can never hit another's cached answers.
        let (index, epoch) = engine.pinned(*dataset);
        let executor = BatchExecutor::new(1);
        let options = &engine.batch_options;
        let started = Instant::now();
        let answers: &[Option<bool>] = match &engine.cache {
            None => {
                executor.run_bounded_into(index.as_ref(), batch, options, outcome);
                &outcome.answers
            }
            Some(cache) => {
                probed.clear();
                probed.extend(batch.iter().map(|(v, r)| cache.get_at(epoch, *v, r)));
                misses.clear();
                misses.extend((0..batch.len()).filter(|&i| probed[i].is_none()));
                missed.clear();
                missed.extend(misses.iter().map(|&i| batch[i]));
                executor.run_bounded_into(index.as_ref(), missed, options, outcome);
                for (&i, answer) in misses.iter().zip(&outcome.answers) {
                    if let Some(hit) = *answer {
                        let (v, r) = &batch[i];
                        cache.insert_at(epoch, *v, r, hit);
                    }
                    probed[i] = *answer;
                }
                // Sub-batch error indexes map back through `misses`;
                // `misses` is ascending, so order is preserved.
                for (j, _) in &mut outcome.errors {
                    *j = misses[*j];
                }
                probed
            }
        };
        let elapsed_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;

        // `errors` is sorted by query index and every entry belongs to an
        // unanswered query, so one cursor walks it alongside the answers.
        let mut errors = outcome.errors.iter().peekable();
        // The reply of queries a budget or a stop kept from running.
        let mut not_run: Option<String> = None;
        let mut error_replies = 0u64;
        for (i, answer) in answers.iter().enumerate() {
            match answer {
                Some(true) => out.extend_from_slice(b"TRUE\n"),
                Some(false) => out.extend_from_slice(b"FALSE\n"),
                None => {
                    error_replies += 1;
                    match errors.next_if(|(j, _)| *j == i) {
                        Some((_, e)) => out.extend_from_slice(error_reply(e).as_bytes()),
                        None => out.extend_from_slice(
                            not_run
                                .get_or_insert_with(|| {
                                    error_reply(&not_run_error(outcome, engine.config.budget))
                                })
                                .as_bytes(),
                        ),
                    }
                    out.push(b'\n');
                }
            }
        }
        engine.stats.record_batch(answers.len() as u64, error_replies, elapsed_us);
        batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_core::methods::ThreeDReach;
    use gsr_core::paper_example::{self, A, C};
    use gsr_core::SccSpatialPolicy;

    fn paper_index() -> Arc<dyn RangeReachIndex> {
        Arc::new(ThreeDReach::build(&paper_example::prepared(), SccSpatialPolicy::Replicate))
    }

    fn test_engine(config: ServerConfig) -> Engine {
        Engine::new(vec![("default".to_string(), paper_index())], config).unwrap()
    }

    /// The `REACH` line of vertex `v` over the paper's query region.
    fn reach(v: u32) -> String {
        let r = paper_example::query_region();
        format!("REACH {v} {} {} {} {}\n", r.min_x, r.min_y, r.max_x, r.max_y)
    }

    /// Feeds `bytes` to `session` and returns the replies.
    fn serve(session: &mut Session<'_>, bytes: &[u8]) -> (String, LineAction) {
        let mut out = Vec::new();
        let action = session.feed(bytes, &mut out);
        (String::from_utf8(out).unwrap(), action)
    }

    /// Feeds `bytes` to a fresh session.
    fn serve_lines(engine: &Engine, bytes: &[u8]) -> (String, LineAction) {
        serve(&mut engine.session(), bytes)
    }

    #[test]
    fn an_engine_needs_datasets_with_distinct_nonempty_names() {
        let named = |names: &[&str]| -> Vec<(String, Arc<dyn RangeReachIndex>)> {
            names.iter().map(|n| (n.to_string(), paper_index())).collect()
        };
        for names in [&[][..], &[""], &["a", "b", "a"]] {
            let err = Engine::new(named(names), ServerConfig::default()).err();
            assert!(matches!(err, Some(GsrError::Internal(_))), "{names:?}");
        }
        assert!(Engine::new(named(&["a", "b"]), ServerConfig::default()).is_ok());
    }

    #[test]
    fn serve_lines_answers_in_request_order() {
        let engine = test_engine(ServerConfig::default());
        let input = format!("{}{}STATS\n", reach(A), reach(C));
        let (replies, action) = serve_lines(&engine, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE");
        assert_eq!(lines[1], "FALSE");
        assert!(lines[2].starts_with("STATS queries=2 errors=0"), "{}", lines[2]);
        assert!(
            lines[2].contains("index_bytes=") && !lines[2].contains("index_bytes=0 "),
            "STATS must report the served index's heap footprint: {}",
            lines[2]
        );
        assert_eq!(action, LineAction::Continue);
    }

    #[test]
    fn zero_budget_times_out_with_err_5() {
        let config = ServerConfig { budget: Some(Duration::ZERO), ..ServerConfig::default() };
        let (replies, _) = serve_lines(&test_engine(config), b"REACH 0 0 0 1 1\nREACH 1 0 0 1 1\n");
        assert_eq!(replies.lines().count(), 2);
        for reply in replies.lines() {
            assert!(reply.starts_with("ERR 5 time budget of 0 ms exceeded"), "{reply}");
        }
    }

    #[test]
    fn cache_repeats_answers_and_counts_hits() {
        let engine = test_engine(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        let (first, _) = serve_lines(&engine, reach(A).as_bytes());
        assert_eq!(first, "TRUE\n");
        let (second, _) = serve_lines(&engine, reach(A).as_bytes());
        assert_eq!(second, first, "cached reply must match the computed one");
        let (stats, _) = serve_lines(&engine, b"STATS\n");
        assert!(stats.contains("cache_hits=1"), "{stats}");
        assert!(stats.contains("cache_misses=1"), "{stats}");
        assert!(stats.contains("cache_evictions=0"), "{stats}");
    }

    #[test]
    fn cache_preserves_order_and_does_not_cache_errors() {
        let engine = test_engine(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        // A mixed pipelined batch: good, invalid, good.
        let input = format!("{}REACH 9999 0 0 1 1\n{}", reach(A), reach(C));
        let (replies, _) = serve_lines(&engine, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE");
        assert!(lines[1].starts_with("ERR 4 invalid query vertex"), "{}", lines[1]);
        assert_eq!(lines[2], "FALSE");
        // Replaying the invalid query still fails (errors are not cached)
        // and the good queries now hit.
        let (again, _) = serve_lines(&engine, input.as_bytes());
        assert_eq!(again, replies);
        let (stats, _) = serve_lines(&engine, b"STATS\n");
        assert!(stats.contains("cache_hits=2"), "{stats}");
        assert!(stats.contains("cache_misses=4"), "{stats}");
    }

    #[test]
    fn reset_zeroes_counters_but_not_the_cache_entries() {
        let engine = test_engine(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        serve_lines(&engine, reach(A).as_bytes());
        let (reply, action) = serve_lines(&engine, b"RESET\n");
        assert_eq!(reply, "OK reset\n");
        assert_eq!(action, LineAction::Continue);
        let (stats, _) = serve_lines(&engine, b"STATS\n");
        assert!(stats.contains("queries=0 errors=0 p50_us=0 p99_us=0 p999_us=0"), "{stats}");
        // Cached entries survive the reset: replaying the query is a hit.
        let (again, _) = serve_lines(&engine, reach(A).as_bytes());
        assert_eq!(again, "TRUE\n");
        let (stats, _) = serve_lines(&engine, b"STATS\n");
        assert!(stats.contains("queries=1"), "{stats}");
        assert!(stats.contains("cache_hits=1"), "{stats}");
        assert!(stats.contains("cache_misses=0"), "{stats}");
    }

    #[test]
    fn shutdown_line_cancels_the_server() {
        let engine = test_engine(ServerConfig::default());
        let (replies, action) = serve_lines(&engine, b"SHUTDOWN\nREACH 0 0 0 1 1\n");
        assert_eq!(replies, "OK shutdown\n", "requests after SHUTDOWN are not served");
        assert_eq!(action, LineAction::Shutdown);
        assert!(engine.cancel.is_cancelled());
        // The flag is the engine's: a batch of any other session stops too.
        let (after, _) = serve_lines(&engine, reach(A).as_bytes());
        assert!(after.starts_with("ERR 6 "), "{after}");
    }

    #[test]
    fn oversize_line_answers_err_2_and_closes() {
        let engine = test_engine(ServerConfig { max_line: 24, ..ServerConfig::default() });
        let good = reach(A);
        assert!(good.len() <= 25, "test setup: the good line must fit the cap");
        let long = format!("REACH 0 0 0 1 1{}", " ".repeat(64));
        let input = format!("{good}{long}\n{good}");
        let (replies, action) = serve_lines(&engine, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE", "queries before the oversize line are served in order");
        assert_eq!(lines[1], "ERR 2 line too long (max 24 bytes)");
        assert_eq!(lines.len(), 2, "nothing after the oversize line is served");
        assert_eq!(action, LineAction::Close);
    }

    #[test]
    fn batches_split_at_the_cap_with_identical_answers() {
        let engine = test_engine(ServerConfig { max_batch: 2, ..ServerConfig::default() });
        let input = [A, C, A, C, A].map(reach).concat();
        let (replies, action) = serve_lines(&engine, input.as_bytes());
        assert_eq!(replies, "TRUE\nFALSE\nTRUE\nFALSE\nTRUE\n");
        assert_eq!(action, LineAction::Continue);
        let (stats, _) = serve_lines(&engine, b"STATS\n");
        assert!(stats.contains("queries=5"), "splitting must not drop queries: {stats}");
    }

    /// A whole batch of invalid-vertex lines: every reply comes from the
    /// error list, which the reply loop must walk once, not once per query.
    #[test]
    fn a_full_batch_of_invalid_vertices_answers_err_4_per_line() {
        let engine = test_engine(ServerConfig::default());
        let max_batch = engine.config.max_batch;
        // One line past the cap, so the split batch is covered too.
        let input = "REACH 9999 0 0 1 1\n".repeat(max_batch + 1);
        let (replies, action) = serve_lines(&engine, input.as_bytes());
        assert_eq!(action, LineAction::Continue);
        assert_eq!(replies.lines().count(), max_batch + 1);
        let want = error_reply(&GsrError::InvalidVertex {
            vertex: 9999,
            num_vertices: paper_example::network().num_vertices(),
        });
        assert!(want.starts_with("ERR 4 "), "{want}");
        assert!(replies.lines().all(|l| l == want), "{}", replies.lines().next().unwrap());
        let snap = engine.stats.snapshot();
        assert_eq!((snap.queries, snap.errors), (max_batch as u64 + 1, max_batch as u64 + 1));
    }

    #[test]
    fn unanswered_queries_mix_their_own_errors_with_the_batch_verdict() {
        // A zero budget stops the batch before its first query: lines with
        // errors of their own never got as far as validation either.
        let engine = test_engine(ServerConfig {
            budget: Some(Duration::ZERO),
            cache_entries: 16,
            ..ServerConfig::default()
        });
        let (replies, _) = serve_lines(&engine, b"REACH 0 0 0 1 1\nREACH 9999 0 0 1 1\n");
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with("ERR 5 time budget of 0 ms exceeded")));
    }

    #[test]
    fn lines_that_are_not_utf8_are_quoted_lossily_and_neighbours_are_untouched() {
        let engine = test_engine(ServerConfig::default());
        let mut input = reach(A).into_bytes();
        input.extend_from_slice(b"F\xffTCH 1\r\n");
        input.extend_from_slice(reach(A).as_bytes());
        let (replies, action) = serve_lines(&engine, &input);
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE");
        assert!(lines[1].starts_with("ERR 2 unknown command \"F\u{fffd}TCH\""), "{}", lines[1]);
        assert_eq!(lines[2], "TRUE");
        assert_eq!(action, LineAction::Continue);
    }

    #[test]
    fn reload_of_a_missing_path_keeps_the_old_index_serving() {
        let engine = test_engine(ServerConfig::default());
        let input = format!("RELOAD /definitely/not/a/snapshot.gsr\n{}STATS\n", reach(A));
        let (replies, action) = serve_lines(&engine, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert!(lines[0].starts_with("ERR 3 "), "load failures are typed: {}", lines[0]);
        assert_eq!(lines[1], "TRUE", "the old index answers as before");
        assert!(lines[2].contains("reloads=0"), "failed swaps are not counted: {}", lines[2]);
        assert_eq!(action, LineAction::Continue);
    }

    /// Two datasets: "default" is the paper example with its points, "void"
    /// is the same graph with every point stripped (all queries FALSE) — so
    /// a cross-dataset cache collision flips an answer.
    fn two_dataset_engine(config: ServerConfig) -> Engine {
        let net = paper_example::network();
        let stripped =
            gsr_core::GeosocialNetwork::new(net.graph().clone(), vec![None; net.num_vertices()])
                .unwrap();
        let void_prep = gsr_core::PreparedNetwork::new(stripped);
        let void: Arc<dyn RangeReachIndex> =
            Arc::new(ThreeDReach::build(&void_prep, SccSpatialPolicy::Replicate));
        let datasets = vec![("default".to_string(), paper_index()), ("void".to_string(), void)];
        Engine::new(datasets, config).unwrap()
    }

    #[test]
    fn use_switches_datasets_and_unknown_names_are_typed_errors() {
        let engine = two_dataset_engine(ServerConfig::default());
        let mut session = engine.session();
        let input = format!("{0}USE void\n{0}USE default\n{0}USE nope\n", reach(A));
        let (replies, action) = serve(&mut session, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE");
        assert_eq!(lines[1], "OK use void");
        assert_eq!(lines[2], "FALSE", "the same query against the pointless dataset");
        assert_eq!(lines[3], "OK use default");
        assert_eq!(lines[4], "TRUE");
        assert!(
            lines[5].starts_with("ERR 2 unknown dataset \"nope\"") && lines[5].contains("void"),
            "{}",
            lines[5]
        );
        assert_eq!(action, LineAction::Continue);
        assert_eq!(session.dataset, 0, "a failed USE must not switch the session");
    }

    #[test]
    fn cache_entries_never_collide_across_datasets() {
        let engine =
            two_dataset_engine(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        let mut session = engine.session();
        // Miss + insert under dataset "default"'s epoch.
        let (first, _) = serve(&mut session, reach(A).as_bytes());
        assert_eq!(first, "TRUE\n");
        // The identical (vertex, rect) under "void" must be a fresh miss
        // answering FALSE — a shared-key cache would replay TRUE here.
        let (second, _) = serve(&mut session, format!("USE void\n{}", reach(A)).as_bytes());
        assert_eq!(second, "OK use void\nFALSE\n");
        let (stats, _) = serve(&mut session, b"STATS\n");
        assert!(stats.contains("cache_hits=0"), "{stats}");
        assert!(stats.contains("cache_misses=2"), "{stats}");
        // Each dataset replays its own answer from its own entry.
        let (again, _) = serve(&mut session, reach(A).as_bytes());
        assert_eq!(again, "FALSE\n");
        let (original, _) = serve_lines(&engine, reach(A).as_bytes());
        assert_eq!(original, "TRUE\n");
        let (stats, _) = serve(&mut session, b"STATS\n");
        assert!(stats.contains("cache_hits=2"), "{stats}");
    }

    #[test]
    fn stats_reports_shard_routing_counters_and_reset_zeroes_them() {
        let net = paper_example::network();
        let members: Vec<gsr_core::ShardMember> = gsr_core::prepared_tiles(&net, 2)
            .map(|(prep, mbr)| gsr_core::ShardMember {
                index: Arc::new(ThreeDReach::build(&prep, SccSpatialPolicy::Replicate)),
                mbr,
            })
            .collect();
        let sharded: Arc<dyn RangeReachIndex> =
            Arc::new(gsr_core::ShardedIndex::new(members).unwrap());
        let engine = Engine::new(vec![("default".into(), sharded)], ServerConfig::default());
        let engine = engine.unwrap();
        let (replies, _) = serve_lines(&engine, format!("{}STATS\n", reach(A)).as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE");
        assert!(lines[1].contains("shards=2"), "{}", lines[1]);
        assert!(!lines[1].contains("probes=0 "), "a served query must probe: {}", lines[1]);
        assert!(lines[1].contains("probe_p99_us="), "{}", lines[1]);
        let (after_reset, _) = serve_lines(&engine, b"RESET\nSTATS\n");
        assert!(
            after_reset.contains("shards=2 probes=0 pruned=0"),
            "RESET must zero the routing counters: {after_reset}"
        );
    }

    #[test]
    fn reload_swaps_the_index_and_clears_the_cache() {
        let scratch = gsr_datagen::faults::ScratchDir::new("gsr_server_reload_unit").unwrap();
        let path = scratch.path().join("snap.gsr");
        let prep = paper_example::prepared();
        let snapshot = gsr_store::SnapshotIndex::ThreeDReach(ThreeDReach::build(
            &prep,
            SccSpatialPolicy::Replicate,
        ));
        gsr_store::save_to_path(&path, &snapshot).unwrap();

        let engine = test_engine(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        let (first, _) = serve_lines(&engine, reach(A).as_bytes());
        assert_eq!(first, "TRUE\n");

        let (reply, action) =
            serve_lines(&engine, format!("RELOAD {}\n", path.display()).as_bytes());
        assert!(reply.starts_with("OK reload index_bytes="), "{reply}");
        assert_eq!(action, LineAction::Continue);

        // Same answer from the swapped-in index, but recomputed: the
        // cache was cleared, so this is a second miss, not a hit.
        let (again, _) = serve_lines(&engine, reach(A).as_bytes());
        assert_eq!(again, "TRUE\n");
        let (stats, _) = serve_lines(&engine, b"STATS\n");
        assert!(stats.contains("cache_hits=0"), "{stats}");
        assert!(stats.contains("cache_misses=2"), "{stats}");
        assert!(stats.contains("reloads=1"), "{stats}");
    }
}

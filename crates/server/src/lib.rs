//! # gsr-server: a multi-threaded TCP query service
//!
//! Serves `RangeReach` queries over a newline-delimited text protocol (see
//! [`proto`]) from an immutable, [`Arc`]-shared index — typically one
//! loaded from a `gsr-store` snapshot, so a service replica goes from
//! process start to serving without rebuilding anything.
//!
//! ## Architecture
//!
//! * One **accept loop** asleep in a blocking `accept()` plus a **fixed
//!   worker pool** of `N` connection handlers, all running as blocking
//!   tasks on `gsr_graph::par`'s scoped-thread pool — the same primitive
//!   the index builders parallelize with, so the service adds no new
//!   threading machinery. Accepted connections are handed to workers
//!   through a `Mutex<VecDeque>` + `Condvar` queue. Nothing in the
//!   connection path wakes on a timer: an idle worker sleeps on the
//!   `Condvar`, a serving worker sleeps in `read()`, and every wake-up is
//!   an event (a connection, request bytes, the idle deadline, shutdown).
//! * Each connection is **pipelined**: every flush of consecutive `REACH`
//!   lines is evaluated as one batch through
//!   [`gsr_core::BatchExecutor::run_bounded_into`], under the server's
//!   per-request time budget and its cancellation flag. Replies come back
//!   in request order, one line each. Request lines are parsed in place
//!   from one per-connection read buffer, and the batch, answer and reply
//!   buffers are reused from flush to flush.
//! * **Graceful shutdown**: a [`StopHandle`] (from
//!   [`QueryServer::cancel_token`]) or a client's `SHUTDOWN` line sets the
//!   cancellation flag, wakes `accept()` with a connection from the server
//!   to itself, notifies every idle worker, and shuts down the socket of
//!   every open connection so its `read()` returns.
//!   [`QueryServer::run`] then returns, within milliseconds.
//! * An optional **sharded result cache** ([`ResultCache`], enabled via
//!   [`ServerConfig::cache_entries`]) memoizes `(vertex, rectangle)`
//!   answers across connections; batches probe it first and only the
//!   misses reach the index.
//! * A **dataset registry** ([`QueryServer::bind_many`]): one process can
//!   serve several named indexes; a per-connection `USE <dataset>` line
//!   selects which one subsequent requests address. Cache entries are
//!   keyed to globally unique per-dataset epochs, so answers from
//!   different datasets can never collide in the shared cache.
//! * **Sharded serving**: when the served index is a
//!   [`gsr_core::ShardedIndex`] (loaded from a sharded snapshot directory
//!   via [`gsr_store::load_served_index`]), each query fans out only to
//!   the shards whose MBR intersects its rectangle and short-circuits on
//!   the first `TRUE`; `STATS` additionally reports `shards=`, `probes=`,
//!   `pruned=` and a per-shard `probe_p99_us=` list.
//! * `STATS` reports queries served, error replies, p50/p99/p999 request
//!   latency from a fixed-bucket histogram ([`ServerStats`], built on the
//!   workspace-shared [`gsr_core::hist`] module), the cache's
//!   hit/miss/eviction counters, and the overload tallies
//!   (`shed`/`rejected`/`accept_errors`/`reloads`). `RESET` zeroes those
//!   counters — and nothing else — so an external load driver can make
//!   each measurement step stand alone.
//!
//! ## Overload and failure hardening
//!
//! * **Admission control**: the accept→worker queue is bounded
//!   ([`ServerConfig::max_pending`]) and so is the number of admitted
//!   connections ([`ServerConfig::max_conns`]). A connection past either
//!   limit is *shed*: one best-effort `ERR 7 busy retry_ms=<hint>` line,
//!   then close — never an unbounded queue.
//! * **Lifecycle limits**: request lines are capped at
//!   [`ServerConfig::max_line`] bytes (oversize → `ERR 2 line too long` +
//!   close, which also defeats slow-loris writers), pipelined batches are
//!   split at [`ServerConfig::max_batch`] queries, silent connections are
//!   reaped after [`ServerConfig::idle_timeout`] (the socket's read
//!   timeout — the only one a connection ever has), and replies carry a
//!   write deadline ([`ServerConfig::write_timeout`]) so one stalled
//!   reader cannot wedge a worker. Every limit surfaces as a typed
//!   protocol error; none panics or hangs.
//! * **Hot reload**: `RELOAD <path>` loads and CRC-validates a snapshot on
//!   a dedicated thread (off the worker pool, panic-fenced), then swaps
//!   the served index under a write lock. In-flight batches pin the index
//!   `Arc` (and the cache epoch) at batch start and finish on the old
//!   index; the result cache is cleared atomically with the swap. Any
//!   load failure leaves the old index serving and replies a typed `ERR`.
//! * The accept loop absorbs transient `accept()` failures (EMFILE
//!   storms) with capped exponential backoff instead of hot-spinning,
//!   counting them as `accept_errors`.
//!
//! Every failure a query can hit maps onto one `ERR <code> <msg>` line
//! mirroring the [`GsrError`] taxonomy; a malformed line never kills the
//! connection, and a panicking index implementation is fenced off by the
//! batch executor's per-query isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod proto;
mod stats;

pub use cache::{CacheStats, ResultCache};
pub use stats::{LatencyHistogram, ServerStats, StatsSnapshot};

use gsr_core::{
    BatchExecutor, BatchOptions, BatchOutcome, BatchQuery, CancelToken, GsrError, RangeReachIndex,
};
use proto::{busy_reply, error_reply, parse_line, Request, BUSY_ERR, PROTOCOL_ERR};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// First sleep of the accept loop's exponential backoff on `accept()`
/// failures.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(25);

/// Ceiling of the accept loop's exponential backoff on repeated
/// `accept()` failures. Also bounds shutdown latency during such a storm.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// The `retry_ms` hint sent with `ERR 7 busy` shed replies. A courtesy
/// backoff suggestion, not a promise of capacity.
const BUSY_RETRY_MS: u64 = 100;

/// Write deadline of the one `ERR 7 busy` line a shed connection gets.
/// The accept loop writes it, so it must be short: a refused peer that
/// does not take twelve bytes at once forfeits the courtesy.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(25);

/// How long a stop waits for the connection that wakes `accept()`.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Size of a connection's read buffer — and so of the largest flush that
/// is parsed, evaluated and answered as one piece. It grows past this only
/// while a single request line longer than it is being assembled (which
/// [`ServerConfig::max_line`] bounds), and shrinks back afterwards.
const READ_BUF: usize = 64 * 1024;

/// Configuration of a [`QueryServer`].
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

/// Locks a mutex whose data every update leaves whole (a queue push or
/// pop, a map insert or remove), so a holder's panic cannot have left it
/// half-written: the poison flag is ignored and shutdown can still reach
/// every connection.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a connection should do after serving a flush of request lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineAction {
    /// Keep reading requests.
    Continue,
    /// Close this connection (a lifecycle limit fired); the server stays
    /// up.
    Close,
    /// `SHUTDOWN` was requested: the whole server stops.
    Shutdown,
}

/// One named dataset registered in the server: the served index and its
/// cache epoch, swapped together by `RELOAD` so a batch can never pair a
/// new index with an old epoch or vice versa.
struct DatasetSlot {
    name: String,
    /// `(index, cache epoch)` behind a lock only so `RELOAD` can swap the
    /// pair; the read path clones the `Arc` once per batch.
    index: RwLock<(Arc<dyn RangeReachIndex>, u64)>,
}

/// Per-connection state: the protocol state proper — which registered
/// dataset this connection's `REACH`/`STATS`/`RELOAD` lines address
/// (selected with `USE <dataset>`; every connection starts on the first
/// registered dataset) — and the buffers its flushes reuse.
#[derive(Debug, Default)]
struct ConnState {
    dataset: usize,
    /// The reply lines of the flush being served, in request order.
    replies: String,
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

/// What stopping the server must reach, shared between the
/// [`QueryServer`] and every [`StopHandle`] it handed out.
struct Shared {
    cancel: CancelToken,
    /// Where a stop connects to wake `accept()`: the listener's own
    /// address (loopback when it listens on every interface).
    wake_addr: SocketAddr,
    /// The accept→worker hand-off queue: admitted connections with their
    /// ids, waiting for a worker.
    pending: Mutex<VecDeque<(u64, TcpStream)>>,
    /// Signalled per queued connection, and to all on stop.
    ready: Condvar,
    /// A second handle on the socket of every admitted connection (queued
    /// or being served), by connection id: what a stop shuts down to get
    /// workers out of `read()`, and what `max_conns` and `live=` count.
    /// Entered at admission, removed by [`LiveGuard`].
    live: Mutex<HashMap<u64, TcpStream>>,
}

impl Shared {
    /// Stops the server: sets the flag, then wakes every place a thread
    /// can be asleep — `accept()`, the queue's `Condvar`, a connection's
    /// `read()` or `write()`. Idempotent.
    ///
    /// The flag is set first and every sleeper re-checks it before going
    /// back to sleep, so none can miss the stop: a worker checks it under
    /// the queue lock (taken here before notifying) and before every
    /// `read()` of a connection that was registered before its first.
    fn stop(&self) {
        self.cancel.cancel();
        // Best-effort: when it fails the listener's backlog is full (so
        // `accept()` is about to return anyway) or the server is gone.
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_CONNECT_TIMEOUT);
        drop(lock(&self.pending));
        self.ready.notify_all();
        for stream in lock(&self.live).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Stops a running [`QueryServer`] from outside it. Clones (and the
/// handles of one server) are interchangeable.
#[derive(Clone)]
pub struct StopHandle(Arc<Shared>);

impl StopHandle {
    /// Stops the server: the accept loop exits, idle workers wake and
    /// drain, every open connection is shut down (its client sees EOF),
    /// and [`QueryServer::run`] returns. Idempotent.
    pub fn cancel(&self) {
        self.0.stop();
    }

    /// Whether the server has been told to stop (by any handle or by a
    /// client's `SHUTDOWN`).
    pub fn is_cancelled(&self) -> bool {
        self.0.cancel.is_cancelled()
    }
}

/// A bound TCP query service. Construct with [`QueryServer::bind`] (one
/// index) or [`QueryServer::bind_many`] (a named registry), then call
/// [`QueryServer::run`] to serve until shutdown.
pub struct QueryServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    /// The dataset registry, fixed at bind time (`USE` selects, `RELOAD`
    /// swaps contents; entries are never added or removed while serving).
    datasets: Vec<DatasetSlot>,
    /// Allocator of globally unique cache epochs: every `(dataset,
    /// index-version)` pair ever served gets its own epoch, so cached
    /// answers from different datasets (or superseded indexes) can never
    /// collide in the shared [`ResultCache`].
    epoch_alloc: AtomicU64,
    config: ServerConfig,
    /// The limits of every batch: the configured budget and the server's
    /// cancellation flag.
    batch_options: BatchOptions,
    shared: Arc<Shared>,
    stats: Arc<ServerStats>,
    cache: Option<ResultCache>,
}

/// Ends a connection's admission on drop: takes its second socket handle
/// out of the live registry and closes it. Declared before the handler is
/// given the stream, so it drops *after* the handler's handle — only then
/// is the socket's last handle gone and the FIN sent, as the admission
/// slot frees, even if a handler returns early.
struct LiveGuard<'a> {
    live: &'a Mutex<HashMap<u64, TcpStream>>,
    id: u64,
}

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        lock(self.live).remove(&self.id);
    }
}

impl QueryServer {
    /// Binds the service to `addr` (use port 0 to let the OS pick one; the
    /// chosen port is available via [`QueryServer::local_addr`]), serving
    /// one index registered under the dataset name `"default"`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        index: Arc<dyn RangeReachIndex>,
        config: ServerConfig,
    ) -> Result<Self, GsrError> {
        Self::bind_many(addr, vec![("default".to_string(), index)], config)
    }

    /// Binds the service with a registry of named indexes. Connections
    /// start on the first entry and switch with `USE <name>`; `RELOAD`
    /// swaps the selected dataset's index in place. Names must be
    /// non-empty and unique.
    pub fn bind_many(
        addr: impl ToSocketAddrs,
        indexes: Vec<(String, Arc<dyn RangeReachIndex>)>,
        config: ServerConfig,
    ) -> Result<Self, GsrError> {
        if indexes.is_empty() {
            return Err(GsrError::Internal("server bind: no datasets to serve".into()));
        }
        for (i, (name, _)) in indexes.iter().enumerate() {
            if name.is_empty() {
                return Err(GsrError::Internal("server bind: empty dataset name".into()));
            }
            if indexes.iter().take(i).any(|(other, _)| other == name) {
                return Err(GsrError::Internal(format!(
                    "server bind: duplicate dataset name {name:?}"
                )));
            }
        }
        let listener =
            TcpListener::bind(addr).map_err(|e| GsrError::Internal(format!("server bind: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| GsrError::Internal(format!("server local_addr: {e}")))?;
        let cache = match config.cache_entries {
            0 => None,
            n => Some(ResultCache::new(n)),
        };
        // Epochs 0..n seed the datasets; the allocator continues from n so
        // every reload (of any dataset) gets a fresh, never-reused epoch.
        let epoch_alloc = AtomicU64::new(indexes.len() as u64);
        let datasets = indexes
            .into_iter()
            .enumerate()
            .map(|(i, (name, index))| DatasetSlot { name, index: RwLock::new((index, i as u64)) })
            .collect();
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let cancel = CancelToken::new();
        let batch_options = BatchOptions { budget: config.budget, cancel: Some(cancel.clone()) };
        Ok(QueryServer {
            listener,
            local_addr,
            datasets,
            epoch_alloc,
            config,
            batch_options,
            shared: Arc::new(Shared {
                cancel,
                wake_addr,
                pending: Mutex::default(),
                ready: Condvar::new(),
                live: Mutex::default(),
            }),
            stats: Arc::new(ServerStats::default()),
            cache,
        })
    }

    /// The currently served index of a dataset (a cheap `Arc` clone).
    fn current_index(&self, dataset: usize) -> Arc<dyn RangeReachIndex> {
        self.pinned(dataset).0
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

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that stops the server when cancelled: the accept loop
    /// exits, idle workers wake and drain, open connections are shut down,
    /// and [`QueryServer::run`] returns.
    pub fn cancel_token(&self) -> StopHandle {
        StopHandle(Arc::clone(&self.shared))
    }

    /// The live service counters (shared with the workers).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Serves until stopped (by a [`StopHandle`] or a client's
    /// `SHUTDOWN`), then returns once every worker has let go of its
    /// connection.
    pub fn run(self) -> Result<(), GsrError> {
        let workers = gsr_graph::par::effective_threads(self.config.threads);

        // Task 0 is the accept loop; tasks 1..=workers are the fixed
        // connection-handler pool. All are blocking tasks on the same
        // scoped-thread pool the index builders use; requesting exactly
        // `workers + 1` threads gives every task its own OS thread.
        gsr_graph::par::map_indexed(workers + 1, workers + 1, |i| {
            if i == 0 {
                self.accept_loop();
            } else {
                self.worker_loop();
            }
        });
        Ok(())
    }

    fn accept_loop(&self) {
        let mut backoff = ACCEPT_BACKOFF_START;
        let mut next_id = 0u64;
        loop {
            let accepted = self.listener.accept();
            if self.shared.cancel.is_cancelled() {
                // Whatever woke the loop — the stop's own connection or a
                // late client — is closed unanswered.
                return;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    backoff = ACCEPT_BACKOFF_START;
                    self.admit(stream, next_id);
                    next_id += 1;
                }
                Err(_) => {
                    // Transient accept failure (EMFILE storms, aborted
                    // handshakes): count it and back off with capped
                    // exponential sleep instead of hot-spinning, so a
                    // persistent storm costs a bounded trickle of wakeups.
                    self.stats.record_accept_error();
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(ACCEPT_BACKOFF_CAP);
                }
            }
        }
    }

    /// Admission control: queue the connection for a worker, or shed it
    /// with one `ERR 7 busy` line and a close. Shedding at the door keeps
    /// both the hand-off queue and total connection state bounded no
    /// matter how fast clients arrive.
    fn admit(&self, stream: TcpStream, id: u64) {
        let shared = &self.shared;
        if lock(&shared.live).len() >= cap_or_max(self.config.max_conns) {
            self.stats.record_rejected();
            Self::shed(stream);
            return;
        }
        let mut pending = lock(&shared.pending);
        if shared.cancel.is_cancelled() {
            // Checked under the queue lock, under which the workers decide
            // to exit: nothing is queued once they may all be gone.
            return;
        }
        if pending.len() >= cap_or_max(self.config.max_pending) {
            drop(pending);
            self.stats.record_shed();
            Self::shed(stream);
            return;
        }
        let Ok(twin) = stream.try_clone() else {
            // Out of descriptors: the same storm `accept()` fails in.
            self.stats.record_accept_error();
            return;
        };
        // Registered before any worker can read from it, so a stop that
        // comes after a worker's cancellation check finds it here.
        lock(&shared.live).insert(id, twin);
        pending.push_back((id, stream));
        drop(pending);
        shared.ready.notify_one();
    }

    /// Refuses a connection: one busy line under a short write deadline,
    /// then close (on drop). Best-effort — the close is the mechanism,
    /// the hint is a courtesy.
    fn shed(mut stream: TcpStream) {
        let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
        let _ = stream.write_all(busy_reply(BUSY_RETRY_MS).as_bytes());
    }

    fn worker_loop(&self) {
        let shared = &self.shared;
        loop {
            let (id, stream) = {
                let mut pending = lock(&shared.pending);
                loop {
                    if let Some(next) = pending.pop_front() {
                        break next;
                    }
                    if shared.cancel.is_cancelled() {
                        return;
                    }
                    pending = shared.ready.wait(pending).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Guard first, stream into the handler second: the handler's
            // handle drops before the registry's.
            let _live = LiveGuard { live: &shared.live, id };
            self.handle_connection(stream);
        }
    }

    /// Serves one connection until EOF, a fatal socket error, a lifecycle
    /// limit (oversize line, idle timeout), or shutdown.
    fn handle_connection(&self, mut stream: TcpStream) {
        // The only read timeout a connection has is its idle deadline: the
        // worker sleeps in `read()` until request bytes, EOF, that
        // deadline, or a stop shutting the socket down. (The OS rejects a
        // zero timeout, hence the floor.)
        let idle = self.config.idle_timeout.map(|idle| idle.max(Duration::from_millis(1)));
        let _ = stream.set_read_timeout(idle);
        // A write deadline keeps one stalled reader from wedging this
        // worker: a reply flush that cannot make progress errors out and
        // the connection closes.
        let _ = stream.set_write_timeout(self.config.write_timeout);
        let _ = stream.set_nodelay(true);

        let line_cap = cap_or_max(self.config.max_line);
        // `buf[..filled]` is what has been read and not yet served: at the
        // top of the loop, the start of one unterminated line.
        let mut buf = vec![0u8; READ_BUF];
        let mut filled = 0;
        let mut conn = ConnState::default();
        loop {
            if self.shared.cancel.is_cancelled() {
                return;
            }
            if filled == buf.len() {
                // A single line has outgrown the buffer and is still under
                // the cap; make room for the rest of it.
                buf.resize(buf.len() * 2, 0);
            }
            let n = match stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    // EOF. A trailing unterminated line is still served (the
                    // peer may have half-closed and be waiting for replies).
                    if filled > 0 {
                        self.serve_flush(&mut stream, &buf[..filled], &mut conn);
                    }
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if let Some(idle) = self.config.idle_timeout {
                        // Reap the silent connection; the reply names the
                        // reason so a live-but-lazy client can tell this
                        // from a crash.
                        self.stats.record_protocol_error();
                        let reply =
                            format!("ERR {BUSY_ERR} idle timeout after {} ms\n", idle.as_millis());
                        let _ = stream.write_all(reply.as_bytes());
                    }
                    return;
                }
                Err(_) => return,
            };
            // Only the new bytes can hold a newline: the rest was searched
            // when it arrived.
            let searched = filled;
            filled += n;
            if let Some(nl) = buf[searched..filled].iter().rposition(|&b| b == b'\n') {
                let complete = searched + nl + 1;
                if !self.serve_flush(&mut stream, &buf[..complete], &mut conn) {
                    return;
                }
                buf.copy_within(complete..filled, 0);
                filled -= complete;
                if buf.len() > READ_BUF && filled < READ_BUF {
                    buf.truncate(READ_BUF);
                    buf.shrink_to_fit();
                }
            }
            if filled > line_cap {
                // The line still being assembled is already over the cap —
                // a slow-loris writer never gets to finish it, and buffered
                // bytes stay bounded.
                self.stats.record_protocol_error();
                let _ = stream.write_all(line_too_long(self.config.max_line).as_bytes());
                return;
            }
        }
    }

    /// Serves one flush of request lines and writes its replies with one
    /// `write_all`; a `SHUTDOWN` among them stops the server once its
    /// `OK shutdown` is on the wire. Returns whether the connection goes on.
    fn serve_flush(&self, stream: &mut TcpStream, lines: &[u8], conn: &mut ConnState) -> bool {
        let action = self.serve_lines_conn(lines, conn);
        let written = stream.write_all(conn.replies.as_bytes());
        // A flush of many short malformed lines is answered with far more
        // bytes than it had; do not keep that for the connection's life.
        conn.replies.clear();
        conn.replies.shrink_to(READ_BUF);
        if action == LineAction::Shutdown {
            self.shared.stop();
        }
        written.is_ok() && action == LineAction::Continue
    }

    /// Serves a flush of request lines with explicit per-connection state
    /// — `USE` switches `conn.dataset`, and every other verb addresses the
    /// dataset the connection currently has selected — leaving the reply
    /// text (one line per request, in order) in `conn.replies` and
    /// returning what the connection should do next.
    ///
    /// Consecutive `REACH` lines form one batch through
    /// [`BatchExecutor::run_bounded_into`] — that is what makes pipelining
    /// pay: a client that writes 1000 queries before reading gets them
    /// evaluated as one bounded batch, not 1000 round trips. Batches are
    /// split at [`ServerConfig::max_batch`] queries so a pathological
    /// pipeline cannot grow one batch without bound.
    ///
    /// Lines are parsed where they lie in `bytes`; only a line that is not
    /// UTF-8 is copied, into its lossy decoding, so that the `ERR 2` it
    /// earns can quote it.
    fn serve_lines_conn(&self, bytes: &[u8], conn: &mut ConnState) -> LineAction {
        conn.replies.clear();
        let line_cap = cap_or_max(self.config.max_line);
        let batch_cap = cap_or_max(self.config.max_batch);

        for raw in bytes.split(|&b| b == b'\n') {
            if raw.len() > line_cap {
                // Flush first so replies stay in request order, then
                // answer the oversize line and drop the connection.
                self.flush_batch(conn);
                self.stats.record_protocol_error();
                conn.replies.push_str(&line_too_long(self.config.max_line));
                return LineAction::Close;
            }
            let parsed = match std::str::from_utf8(raw) {
                Ok(line) => parse_line(line),
                Err(_) => parse_line(&String::from_utf8_lossy(raw)),
            };
            let Some(request) = parsed.transpose() else {
                continue; // a blank line
            };
            if let Ok(Request::Reach(v, r)) = &request {
                conn.batch.push((*v, *r));
                if conn.batch.len() >= batch_cap {
                    self.flush_batch(conn);
                }
                continue;
            }
            // Every non-REACH verb flushes first, so a pipelined batch
            // always runs against the dataset that was selected when its
            // queries arrived.
            self.flush_batch(conn);
            let replies = &mut conn.replies;
            match request {
                Ok(Request::Use(name)) => match self.datasets.iter().position(|d| d.name == name) {
                    Some(i) => {
                        conn.dataset = i;
                        replies.push_str(&format!("OK use {name}\n"));
                    }
                    None => {
                        self.stats.record_protocol_error();
                        let known: Vec<&str> =
                            self.datasets.iter().map(|d| d.name.as_str()).collect();
                        replies.push_str(&format!(
                            "ERR {PROTOCOL_ERR} unknown dataset {name:?} (have: {})\n",
                            known.join(", ")
                        ));
                    }
                },
                Ok(Request::Stats) => {
                    let index = self.current_index(conn.dataset);
                    let mut snap = self.stats.snapshot();
                    snap.index_bytes = index.index_bytes() as u64;
                    snap.live = lock(&self.shared.live).len() as u64;
                    if let Some(cache) = &self.cache {
                        snap.cache = cache.stats();
                    }
                    // Routing counters of a sharded router, plus a
                    // per-shard probe-latency tail appended after the
                    // fixed fields (absent for plain indexes).
                    let mut extra = String::new();
                    if let Some(s) = index.shard_stats() {
                        snap.shards = s.shards;
                        snap.probes = s.probes;
                        snap.pruned = s.pruned;
                        let p99: Vec<String> = s.probe_p99_us.iter().map(u64::to_string).collect();
                        extra = format!(" probe_p99_us={}", p99.join(","));
                    }
                    replies.push_str(&format!("STATS {snap}{extra}\n"));
                }
                Ok(Request::Reset) => {
                    self.stats.reset();
                    if let Some(cache) = &self.cache {
                        cache.reset_stats();
                    }
                    for i in 0..self.datasets.len() {
                        self.current_index(i).reset_shard_stats();
                    }
                    replies.push_str("OK reset\n");
                }
                Ok(Request::Reload(path)) => match self.reload(conn.dataset, &path) {
                    Ok((index_bytes, load)) => {
                        replies.push_str(&format!(
                            "OK reload index_bytes={index_bytes} load_ms={:.3}\n",
                            load.as_secs_f64() * 1e3
                        ));
                    }
                    Err(e) => {
                        // The old index keeps serving; the client learns
                        // why the swap did not happen.
                        self.stats.record_protocol_error();
                        replies.push_str(&error_reply(&e));
                        replies.push('\n');
                    }
                },
                Ok(Request::Shutdown) => {
                    // Only the flag here, so nothing after this line is
                    // served; the caller wakes the sleepers once this
                    // reply has been written.
                    replies.push_str("OK shutdown\n");
                    self.shared.cancel.cancel();
                    return LineAction::Shutdown;
                }
                Err(msg) => {
                    self.stats.record_protocol_error();
                    replies.push_str(&format!("ERR {PROTOCOL_ERR} {msg}\n"));
                }
                // Gathered into the batch above.
                Ok(Request::Reach(..)) => {}
            }
        }
        self.flush_batch(conn);
        LineAction::Continue
    }

    /// Handles `RELOAD <path>` for the connection's selected dataset:
    /// loads and validates the snapshot on a dedicated thread (off the
    /// worker pool, so a deserializer panic is fenced), then swaps the
    /// dataset's `(index, epoch)` pair — with a freshly allocated,
    /// never-reused epoch — and clears the result cache under the
    /// dataset's write lock. A directory path loads as a **sharded
    /// snapshot set** ([`gsr_store::load_served_index`]), so one `RELOAD`
    /// swaps a whole shard set atomically under one epoch. In-flight
    /// batches pinned the old pair and finish on the old index; new
    /// batches see the new pair. On any failure the old index keeps
    /// serving. Returns the new index's heap footprint and the wall-clock
    /// load time (which, with the mmap path, is the restart cost a
    /// replica would pay).
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

    /// Evaluates the accumulated `REACH` batch and appends one reply line
    /// per query. Request latency is recorded per query as its batch's
    /// wall-clock time — under pipelining, that is the time from batch
    /// start to the reply being ready.
    ///
    /// With the result cache enabled, the batch is probed first and only
    /// the misses are evaluated; successful answers are inserted back.
    /// Errors, timeouts and cancellations are never cached, so degraded
    /// replies cannot be replayed once the condition clears.
    fn flush_batch(&self, conn: &mut ConnState) {
        let ConnState { dataset, replies, batch, outcome, probed, misses, missed } = conn;
        if batch.is_empty() {
            return;
        }
        // Pin the dataset's index and cache epoch as one pair for the
        // whole batch: a concurrent RELOAD redirects *new* batches while
        // this one finishes on the index it started with, and its cache
        // inserts stay keyed to that index's epoch (unreachable after a
        // swap). Epochs are globally unique across datasets, so a batch
        // for one dataset can never hit another's cached answers.
        let (index, epoch) = self.pinned(*dataset);
        let executor = BatchExecutor::new(1);
        let started = Instant::now();
        let answers: &[Option<bool>] = match &self.cache {
            None => {
                executor.run_bounded_into(index.as_ref(), batch, &self.batch_options, outcome);
                &outcome.answers
            }
            Some(cache) => {
                probed.clear();
                probed.extend(batch.iter().map(|(v, r)| cache.get_at(epoch, *v, r)));
                misses.clear();
                misses.extend((0..batch.len()).filter(|&i| probed[i].is_none()));
                missed.clear();
                missed.extend(misses.iter().map(|&i| batch[i]));
                executor.run_bounded_into(index.as_ref(), missed, &self.batch_options, outcome);
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
                Some(true) => replies.push_str("TRUE\n"),
                Some(false) => replies.push_str("FALSE\n"),
                None => {
                    error_replies += 1;
                    match errors.next_if(|(j, _)| *j == i) {
                        Some((_, e)) => replies.push_str(&error_reply(e)),
                        None => replies.push_str(not_run.get_or_insert_with(|| {
                            error_reply(&if outcome.timed_out {
                                let budget = self.config.budget.unwrap_or_default();
                                GsrError::Timeout {
                                    budget_ms: budget.as_millis().min(u64::MAX as u128) as u64,
                                }
                            } else if outcome.cancelled {
                                GsrError::Cancelled
                            } else {
                                GsrError::Internal("query produced no answer".into())
                            })
                        })),
                    }
                    replies.push('\n');
                }
            }
        }
        self.stats.record_batch(answers.len() as u64, error_replies, elapsed_us);
        batch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_core::methods::ThreeDReach;
    use gsr_core::{paper_example, SccSpatialPolicy};

    fn test_server(config: ServerConfig) -> QueryServer {
        let prep = paper_example::prepared();
        let index: Arc<dyn RangeReachIndex> =
            Arc::new(ThreeDReach::build(&prep, SccSpatialPolicy::Replicate));
        QueryServer::bind(("127.0.0.1", 0), index, config).unwrap()
    }

    /// Serves one flush on `conn` and returns its replies.
    fn serve_lines_conn(
        server: &QueryServer,
        bytes: &[u8],
        conn: &mut ConnState,
    ) -> (String, LineAction) {
        let action = server.serve_lines_conn(bytes, conn);
        (conn.replies.clone(), action)
    }

    /// Serves one flush with fresh connection state.
    fn serve_lines(server: &QueryServer, bytes: &[u8]) -> (String, LineAction) {
        serve_lines_conn(server, bytes, &mut ConnState::default())
    }

    #[test]
    fn serve_lines_answers_in_request_order() {
        let server = test_server(ServerConfig::default());
        let r = paper_example::query_region();
        let input = format!(
            "REACH {} {} {} {} {}\nREACH {} {} {} {} {}\nSTATS\n",
            paper_example::A,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
            paper_example::C,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
        );
        let (replies, action) = serve_lines(&server, input.as_bytes());
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
    fn serve_lines_maps_all_error_shapes() {
        let server = test_server(ServerConfig::default());
        let input = "REACH 9999 0 0 1 1\nREACH 0 5 5 1 1\nREACH nope\nFETCH\n";
        let (replies, _) = serve_lines(&server, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert!(lines[0].starts_with("ERR 4 invalid query vertex"), "{}", lines[0]);
        assert!(lines[1].starts_with("ERR 4 invalid query rectangle"), "{}", lines[1]);
        assert!(lines[2].starts_with("ERR 2 "), "{}", lines[2]);
        assert!(lines[3].starts_with("ERR 2 unknown command"), "{}", lines[3]);
    }

    #[test]
    fn zero_budget_times_out_with_err_5() {
        let server = test_server(ServerConfig {
            threads: 1,
            budget: Some(Duration::ZERO),
            ..ServerConfig::default()
        });
        let (replies, _) = serve_lines(&server, b"REACH 0 0 0 1 1\n");
        assert!(replies.starts_with("ERR 5 time budget of 0 ms exceeded"), "{replies}");
    }

    #[test]
    fn cache_repeats_answers_and_counts_hits() {
        let server = test_server(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        let r = paper_example::query_region();
        let line = format!(
            "REACH {} {} {} {} {}\n",
            paper_example::A,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
        );
        let (first, _) = serve_lines(&server, line.as_bytes());
        assert_eq!(first, "TRUE\n");
        let (second, _) = serve_lines(&server, line.as_bytes());
        assert_eq!(second, first, "cached reply must match the computed one");
        let (stats, _) = serve_lines(&server, b"STATS\n");
        assert!(stats.contains("cache_hits=1"), "{stats}");
        assert!(stats.contains("cache_misses=1"), "{stats}");
        assert!(stats.contains("cache_evictions=0"), "{stats}");
    }

    #[test]
    fn cache_preserves_order_and_does_not_cache_errors() {
        let server = test_server(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        let r = paper_example::query_region();
        let reach = |v: u32| format!("REACH {v} {} {} {} {}\n", r.min_x, r.min_y, r.max_x, r.max_y);
        // A mixed pipelined batch: good, invalid, good.
        let input =
            format!("{}REACH 9999 0 0 1 1\n{}", reach(paper_example::A), reach(paper_example::C));
        let (replies, _) = serve_lines(&server, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE");
        assert!(lines[1].starts_with("ERR 4 invalid query vertex"), "{}", lines[1]);
        assert_eq!(lines[2], "FALSE");
        // Replaying the invalid query still fails (errors are not cached)
        // and the good queries now hit.
        let (again, _) = serve_lines(&server, input.as_bytes());
        assert_eq!(again, replies);
        let (stats, _) = serve_lines(&server, b"STATS\n");
        assert!(stats.contains("cache_hits=2"), "{stats}");
        assert!(stats.contains("cache_misses=4"), "{stats}");
    }

    #[test]
    fn reset_zeroes_counters_but_not_the_cache_entries() {
        let server = test_server(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        let r = paper_example::query_region();
        let line = format!(
            "REACH {} {} {} {} {}\n",
            paper_example::A,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
        );
        let (_, _) = serve_lines(&server, line.as_bytes());
        let (reply, action) = serve_lines(&server, b"RESET\n");
        assert_eq!(reply, "OK reset\n");
        assert_eq!(action, LineAction::Continue);
        let (stats, _) = serve_lines(&server, b"STATS\n");
        assert!(stats.contains("queries=0 errors=0 p50_us=0 p99_us=0 p999_us=0"), "{stats}");
        // Cached entries survive the reset: replaying the query is a hit.
        let (again, _) = serve_lines(&server, line.as_bytes());
        assert_eq!(again, "TRUE\n");
        let (stats, _) = serve_lines(&server, b"STATS\n");
        assert!(stats.contains("cache_hits=1"), "{stats}");
        assert!(stats.contains("cache_misses=0"), "{stats}");
    }

    #[test]
    fn shutdown_line_cancels_the_server() {
        let server = test_server(ServerConfig::default());
        let token = server.cancel_token();
        let (replies, action) = serve_lines(&server, b"SHUTDOWN\nREACH 0 0 0 1 1\n");
        assert_eq!(replies, "OK shutdown\n", "requests after SHUTDOWN are not served");
        assert_eq!(action, LineAction::Shutdown);
        assert!(token.is_cancelled());
    }

    #[test]
    fn oversize_line_answers_err_2_and_closes() {
        let server = test_server(ServerConfig { max_line: 24, ..ServerConfig::default() });
        let r = paper_example::query_region();
        let good =
            format!("REACH {} {} {} {} {}", paper_example::A, r.min_x, r.min_y, r.max_x, r.max_y,);
        assert!(good.len() <= 24, "test setup: the good line must fit the cap");
        let long = format!("REACH 0 0 0 1 1{}", " ".repeat(64));
        let input = format!("{good}\n{long}\n{good}\n");
        let (replies, action) = serve_lines(&server, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE", "queries before the oversize line are served in order");
        assert_eq!(lines[1], "ERR 2 line too long (max 24 bytes)");
        assert_eq!(lines.len(), 2, "nothing after the oversize line is served");
        assert_eq!(action, LineAction::Close);
    }

    #[test]
    fn batches_split_at_the_cap_with_identical_answers() {
        let server = test_server(ServerConfig { max_batch: 2, ..ServerConfig::default() });
        let r = paper_example::query_region();
        let reach = |v: u32| format!("REACH {v} {} {} {} {}\n", r.min_x, r.min_y, r.max_x, r.max_y);
        let input = format!(
            "{}{}{}{}{}",
            reach(paper_example::A),
            reach(paper_example::C),
            reach(paper_example::A),
            reach(paper_example::C),
            reach(paper_example::A),
        );
        let (replies, action) = serve_lines(&server, input.as_bytes());
        assert_eq!(replies, "TRUE\nFALSE\nTRUE\nFALSE\nTRUE\n");
        assert_eq!(action, LineAction::Continue);
        let (stats, _) = serve_lines(&server, b"STATS\n");
        assert!(stats.contains("queries=5"), "splitting must not drop queries: {stats}");
    }

    /// A whole batch of invalid-vertex lines: every reply comes from the
    /// error list, which the reply loop must walk once, not once per query.
    #[test]
    fn a_full_batch_of_invalid_vertices_answers_err_4_per_line() {
        let server = test_server(ServerConfig::default());
        let max_batch = server.config.max_batch;
        // One line past the cap, so the split batch is covered too.
        let input = "REACH 9999 0 0 1 1\n".repeat(max_batch + 1);
        let (replies, action) = serve_lines(&server, input.as_bytes());
        assert_eq!(action, LineAction::Continue);
        assert_eq!(replies.lines().count(), max_batch + 1);
        let want = error_reply(&GsrError::InvalidVertex {
            vertex: 9999,
            num_vertices: paper_example::network().num_vertices(),
        });
        assert!(want.starts_with("ERR 4 "), "{want}");
        assert!(replies.lines().all(|l| l == want), "{}", replies.lines().next().unwrap());
        let snap = server.stats.snapshot();
        assert_eq!((snap.queries, snap.errors), (max_batch as u64 + 1, max_batch as u64 + 1));
    }

    #[test]
    fn unanswered_queries_mix_their_own_errors_with_the_batch_verdict() {
        // A zero budget stops the batch before its first query: lines with
        // errors of their own never got as far as validation either.
        let server = test_server(ServerConfig {
            budget: Some(Duration::ZERO),
            cache_entries: 16,
            ..ServerConfig::default()
        });
        let (replies, _) = serve_lines(&server, b"REACH 0 0 0 1 1\nREACH 9999 0 0 1 1\n");
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with("ERR 5 time budget of 0 ms exceeded")));
    }

    #[test]
    fn lines_that_are_not_utf8_are_quoted_lossily_and_neighbours_are_untouched() {
        let server = test_server(ServerConfig::default());
        let r = paper_example::query_region();
        let good = format!(
            "REACH {} {} {} {} {}\n",
            paper_example::A,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
        );
        let mut input = good.clone().into_bytes();
        input.extend_from_slice(b"F\xffTCH 1\r\n");
        input.extend_from_slice(good.as_bytes());
        let (replies, action) = serve_lines(&server, &input);
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE");
        assert!(lines[1].starts_with("ERR 2 unknown command \"F\u{fffd}TCH\""), "{}", lines[1]);
        assert_eq!(lines[2], "TRUE");
        assert_eq!(action, LineAction::Continue);
    }

    #[test]
    fn reload_of_a_missing_path_keeps_the_old_index_serving() {
        let server = test_server(ServerConfig::default());
        let r = paper_example::query_region();
        let input = format!(
            "RELOAD /definitely/not/a/snapshot.gsr\nREACH {} {} {} {} {}\nSTATS\n",
            paper_example::A,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
        );
        let (replies, action) = serve_lines(&server, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert!(lines[0].starts_with("ERR 3 "), "load failures are typed: {}", lines[0]);
        assert_eq!(lines[1], "TRUE", "the old index answers as before");
        assert!(lines[2].contains("reloads=0"), "failed swaps are not counted: {}", lines[2]);
        assert_eq!(action, LineAction::Continue);
    }

    /// Two-dataset server: "default" is the paper example with its points,
    /// "void" is the same graph with every point stripped (all queries
    /// FALSE) — so a cross-dataset cache collision flips an answer.
    fn two_dataset_server(config: ServerConfig) -> QueryServer {
        let prep = paper_example::prepared();
        let with_points: Arc<dyn RangeReachIndex> =
            Arc::new(ThreeDReach::build(&prep, SccSpatialPolicy::Replicate));
        let net = paper_example::network();
        let stripped =
            gsr_core::GeosocialNetwork::new(net.graph().clone(), vec![None; net.num_vertices()])
                .unwrap();
        let void_prep = gsr_core::PreparedNetwork::new(stripped);
        let void: Arc<dyn RangeReachIndex> =
            Arc::new(ThreeDReach::build(&void_prep, SccSpatialPolicy::Replicate));
        QueryServer::bind_many(
            ("127.0.0.1", 0),
            vec![("default".to_string(), with_points), ("void".to_string(), void)],
            config,
        )
        .unwrap()
    }

    #[test]
    fn use_switches_datasets_and_unknown_names_are_typed_errors() {
        let server = two_dataset_server(ServerConfig::default());
        let r = paper_example::query_region();
        let reach = format!(
            "REACH {} {} {} {} {}\n",
            paper_example::A,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
        );
        let mut conn = ConnState::default();
        let input = format!("{reach}USE void\n{reach}USE default\n{reach}USE nope\n");
        let (replies, action) = serve_lines_conn(&server, input.as_bytes(), &mut conn);
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
        assert_eq!(conn.dataset, 0, "a failed USE must not switch the connection");
    }

    #[test]
    fn cache_entries_never_collide_across_datasets() {
        let server =
            two_dataset_server(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        let r = paper_example::query_region();
        let reach = format!(
            "REACH {} {} {} {} {}\n",
            paper_example::A,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
        );
        let mut conn = ConnState::default();
        // Miss + insert under dataset "default"'s epoch.
        let (first, _) = serve_lines_conn(&server, reach.as_bytes(), &mut conn);
        assert_eq!(first, "TRUE\n");
        // The identical (vertex, rect) under "void" must be a fresh miss
        // answering FALSE — a shared-key cache would replay TRUE here.
        let input = format!("USE void\n{reach}");
        let (second, _) = serve_lines_conn(&server, input.as_bytes(), &mut conn);
        assert_eq!(second, "OK use void\nFALSE\n");
        let (stats, _) = serve_lines_conn(&server, b"STATS\n", &mut conn);
        assert!(stats.contains("cache_hits=0"), "{stats}");
        assert!(stats.contains("cache_misses=2"), "{stats}");
        // Each dataset replays its own answer from its own entry.
        let (again, _) = serve_lines_conn(&server, reach.as_bytes(), &mut conn);
        assert_eq!(again, "FALSE\n");
        let mut fresh = ConnState::default();
        let (original, _) = serve_lines_conn(&server, reach.as_bytes(), &mut fresh);
        assert_eq!(original, "TRUE\n");
        let (stats, _) = serve_lines_conn(&server, b"STATS\n", &mut conn);
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
        let server = QueryServer::bind(("127.0.0.1", 0), sharded, ServerConfig::default()).unwrap();
        let r = paper_example::query_region();
        let input = format!(
            "REACH {} {} {} {} {}\nSTATS\n",
            paper_example::A,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
        );
        let (replies, _) = serve_lines(&server, input.as_bytes());
        let lines: Vec<&str> = replies.lines().collect();
        assert_eq!(lines[0], "TRUE");
        assert!(lines[1].contains("shards=2"), "{}", lines[1]);
        assert!(!lines[1].contains("probes=0 "), "a served query must probe: {}", lines[1]);
        assert!(lines[1].contains("probe_p99_us="), "{}", lines[1]);
        let (after_reset, _) = serve_lines(&server, b"RESET\nSTATS\n");
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

        let server = test_server(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
        let r = paper_example::query_region();
        let line = format!(
            "REACH {} {} {} {} {}\n",
            paper_example::A,
            r.min_x,
            r.min_y,
            r.max_x,
            r.max_y,
        );
        let (first, _) = serve_lines(&server, line.as_bytes());
        assert_eq!(first, "TRUE\n");

        let (reply, action) =
            serve_lines(&server, format!("RELOAD {}\n", path.display()).as_bytes());
        assert!(reply.starts_with("OK reload index_bytes="), "{reply}");
        assert_eq!(action, LineAction::Continue);

        // Same answer from the swapped-in index, but recomputed: the
        // cache was cleared, so this is a second miss, not a hit.
        let (again, _) = serve_lines(&server, line.as_bytes());
        assert_eq!(again, "TRUE\n");
        let (stats, _) = serve_lines(&server, b"STATS\n");
        assert!(stats.contains("cache_hits=0"), "{stats}");
        assert!(stats.contains("cache_misses=2"), "{stats}");
        assert!(stats.contains("reloads=1"), "{stats}");
    }
}

//! **Extension**: an open-loop load generator for `gsr-server`.
//!
//! Every other measurement in this crate is *closed-loop*: one caller
//! issues a query, waits for the answer, then issues the next. Closed
//! loops famously understate tail latency through *coordinated omission* —
//! when the server stalls, the generator stops sending, so the stall is
//! recorded once instead of once per request that *would* have arrived.
//! An online service with millions of independent users has no such mercy:
//! load keeps arriving at its own rate regardless of how the server feels.
//!
//! This module replays Section 6.1-style `REACH` workloads against a real
//! TCP `gsr-server` at a **fixed offered rate** on a deterministic
//! schedule. Request `n` (of `total`, round-robined over `K` pipelined
//! clients) has the *intended* start time `start + n / rate`; the writer
//! sleeps until that instant and then sends, and recorded latency is
//! always `completion − intended start`. A stalled server therefore
//! inflates the recorded latency of every request scheduled during the
//! stall — queueing delay is charged to the server, never silently
//! absorbed by the generator.
//!
//! Correctness is first-class: every generated query is pre-answered by a
//! freshly built in-process oracle index via [`BatchExecutor`], and every
//! server reply is checked against it. A load test that returns wrong
//! answers fails loudly, not fast.
//!
//! The sweep driver steps the offered rate up a geometric schedule until
//! p99 blows past a threshold, `RESET`-ing the server's counters between
//! steps and reconciling its `STATS` tallies (queries, errors, cache
//! hits/misses) against the driver's own counts after each step.
//!
//! After the sweep, an **overload step** ([`run_overload`]) drives the
//! server past its `--max-conns` admission limit: while persistent
//! "holder" clients replay the trace at the base rate, a burst of one-shot
//! "flooder" connections arrives all at once. Admission control must turn
//! the excess away with `ERR 7 busy` at the door — and the driver proves
//! it did, reconciling its own count of busy replies against the server's
//! `shed=`/`rejected=` counters and checking that the held connections'
//! p99 stayed under the bound while the flood raged.

use crate::harness::{Config, Dataset, MethodKind};
use crate::table::TextTable;
use gsr_core::hist::LatencyHistogram;
use gsr_core::methods::ThreeDReach;
use gsr_core::{BatchExecutor, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::workload::{Workload, WorkloadGen};
use gsr_datagen::NetworkSpec;
use gsr_graph::stats::DegreeBucket;
use gsr_server::{QueryServer, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a server reply relates to the oracle's expected answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyOutcome {
    /// `TRUE`/`FALSE`, agreeing with the oracle.
    Ok,
    /// An `ERR` (or otherwise unparseable) reply line.
    Err,
    /// `TRUE`/`FALSE`, *disagreeing* with the oracle — the worst outcome.
    Mismatch,
}

/// A thread-safe latency-and-outcome recorder: the workspace-shared
/// [`LatencyHistogram`] plus completion/error/mismatch tallies. One lives
/// in each client; merged recorders report step-level quantiles.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    hist: LatencyHistogram,
    completed: AtomicU64,
    errors: AtomicU64,
    mismatches: AtomicU64,
}

impl LatencyRecorder {
    /// Records one reply: its latency and how it compared to the oracle.
    pub fn record(&self, latency_us: u64, outcome: ReplyOutcome) {
        self.hist.record_us(latency_us);
        self.completed.fetch_add(1, Ordering::Relaxed);
        match outcome {
            ReplyOutcome::Ok => {}
            ReplyOutcome::Err => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
            ReplyOutcome::Mismatch => {
                self.mismatches.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Folds another recorder's histogram and tallies into this one.
    pub fn merge_from(&self, other: &LatencyRecorder) {
        self.hist.merge_from(&other.hist);
        self.completed.fetch_add(other.completed(), Ordering::Relaxed);
        self.errors.fetch_add(other.errors(), Ordering::Relaxed);
        self.mismatches.fetch_add(other.mismatches(), Ordering::Relaxed);
    }

    /// Replies recorded (including errors and mismatches).
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// `ERR` replies recorded.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Oracle disagreements recorded.
    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }

    /// Latency quantile over everything recorded so far (microseconds,
    /// bucket upper bound).
    pub fn quantile_us(&self, q: f64) -> u64 {
        self.hist.quantile_us(q)
    }
}

/// A replayable trace: pre-rendered request lines plus the oracle's answer
/// for each. Rendering once up front keeps the send path allocation-free
/// and — because `f64`'s `Display` round-trips through `parse` — every
/// replay of query `i` is byte-identical, so the server's result cache
/// sees one key per distinct query.
#[derive(Debug, Clone)]
pub struct ReplayPlan {
    /// `REACH ...\n` lines, one per workload query.
    pub lines: Vec<String>,
    /// The oracle's answer to each line, same order.
    pub expected: Vec<bool>,
}

impl ReplayPlan {
    /// Renders a workload and answers every query through `oracle` (a
    /// fresh, independently built index) with [`BatchExecutor`].
    pub fn from_workload(workload: &Workload, oracle: &dyn RangeReachIndex) -> ReplayPlan {
        let lines = workload
            .queries
            .iter()
            .map(|(v, r)| format!("REACH {v} {} {} {} {}\n", r.min_x, r.min_y, r.max_x, r.max_y))
            .collect();
        let expected = BatchExecutor::new(1).run(oracle, &workload.queries);
        ReplayPlan { lines, expected }
    }

    /// Number of distinct queries in the trace.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the trace holds no queries.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

/// The deterministic schedule: request `n`'s intended start time at
/// `rate_qps` offered queries per second.
pub fn intended_start(start: Instant, n: u64, rate_qps: f64) -> Instant {
    start + Duration::from_secs_f64(n as f64 / rate_qps.max(1e-9))
}

/// One client's reply tallies, for per-worker balance reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientTally {
    /// Replies received by this client.
    pub completed: u64,
    /// `ERR` replies among them.
    pub errors: u64,
    /// Oracle disagreements among them.
    pub mismatches: u64,
}

/// One measured generator run (open- or closed-loop): the pooled recorder,
/// per-client tallies, and the wall clock from the schedule origin to the
/// last reply.
#[derive(Debug)]
pub struct LoopMeasurement {
    /// All clients' samples, merged.
    pub recorder: LatencyRecorder,
    /// Per-client reply tallies, index = client id.
    pub per_client: Vec<ClientTally>,
    /// Requests written to the sockets.
    pub sent: u64,
    /// Schedule origin to last reply.
    pub elapsed: Duration,
}

/// Parameters of one generator run against an already-running server.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// The trace to replay (cycled when `total` exceeds its length).
    pub plan: &'a ReplayPlan,
    /// Concurrent TCP clients; request `n` goes to client `n % clients`.
    /// The server's worker pool must be at least this large — each worker
    /// owns one connection until EOF.
    pub clients: usize,
    /// Offered rate, queries per second across all clients.
    pub rate_qps: f64,
    /// Total requests to send.
    pub total: u64,
}

pub(crate) fn classify(reply: &str, expected: bool) -> ReplyOutcome {
    match reply {
        "TRUE" if expected => ReplyOutcome::Ok,
        "FALSE" if !expected => ReplyOutcome::Ok,
        "TRUE" | "FALSE" => ReplyOutcome::Mismatch,
        _ => ReplyOutcome::Err,
    }
}

/// Socket read timeout: generously past any deliberate test stall, but
/// finite so a wedged server fails the run instead of hanging it.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(60);

fn connect(addr: SocketAddr, c: usize) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("client {c}: connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// The open-loop writer: sends each of the client's requests at its
/// intended start (sleeping ahead of schedule, never skipping behind it),
/// then half-closes so the server replies to everything and EOFs the
/// reader. A saturated server exerts TCP backpressure here — the writer
/// may block — but accounting uses intended starts, so that queueing
/// delay shows up as recorded latency rather than vanishing.
fn open_writer(
    mut stream: TcpStream,
    spec: &LoopSpec<'_>,
    c: usize,
    start: Instant,
) -> Result<u64, String> {
    let len = spec.plan.len() as u64;
    let mut sent = 0u64;
    let mut n = c as u64;
    while n < spec.total {
        let at = intended_start(start, n, spec.rate_qps);
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        let line = &spec.plan.lines[(n % len) as usize];
        stream.write_all(line.as_bytes()).map_err(|e| format!("client {c}: write: {e}"))?;
        sent += 1;
        n += spec.clients as u64;
    }
    let _ = stream.shutdown(Shutdown::Write);
    Ok(sent)
}

/// The reader half: consumes reply lines until EOF. Reply `j` of client
/// `c` answers global request `j * clients + c` — the protocol is strictly
/// one reply per request, in order — which pins down both the expected
/// answer and the intended start to measure against.
fn open_reader(
    stream: TcpStream,
    spec: &LoopSpec<'_>,
    c: usize,
    start: Instant,
    rec: &LatencyRecorder,
) -> Result<(), String> {
    let _ = stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT));
    let len = spec.plan.len() as u64;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut j = 0u64;
    loop {
        line.clear();
        let n_read = reader.read_line(&mut line).map_err(|e| format!("client {c}: read: {e}"))?;
        if n_read == 0 {
            return Ok(());
        }
        let n = j * spec.clients as u64 + c as u64;
        let latency = Instant::now().saturating_duration_since(intended_start(start, n, spec.rate_qps));
        let latency_us = latency.as_micros().min(u64::MAX as u128) as u64;
        let expected = spec.plan.expected[(n % len) as usize];
        rec.record(latency_us, classify(line.trim_end(), expected));
        j += 1;
    }
}

/// Runs the open-loop generator: per client, a writer thread pacing the
/// deterministic schedule and a reader thread recording
/// `completion − intended start`. Returns the pooled measurement.
pub fn run_open_loop(spec: &LoopSpec<'_>) -> Result<LoopMeasurement, String> {
    if spec.clients == 0 {
        return Err("loadtest: need at least one client".into());
    }
    if spec.plan.is_empty() {
        return Err("loadtest: empty replay plan".into());
    }
    let recorders: Vec<LatencyRecorder> =
        (0..spec.clients).map(|_| LatencyRecorder::default()).collect();
    let mut streams = Vec::with_capacity(spec.clients);
    for c in 0..spec.clients {
        streams.push(connect(spec.addr, c)?);
    }
    // A small lead keeps request 0's intended start in the future, so the
    // schedule is not already late before the first write.
    let start = Instant::now() + Duration::from_millis(5);

    let sent = std::thread::scope(|s| -> Result<u64, String> {
        let mut writers = Vec::with_capacity(spec.clients);
        let mut readers = Vec::with_capacity(spec.clients);
        for (c, stream) in streams.iter().enumerate() {
            let w = stream.try_clone().map_err(|e| format!("client {c}: clone: {e}"))?;
            let r = stream.try_clone().map_err(|e| format!("client {c}: clone: {e}"))?;
            let rec = &recorders[c];
            writers.push(s.spawn(move || open_writer(w, spec, c, start)));
            readers.push(s.spawn(move || open_reader(r, spec, c, start, rec)));
        }
        let mut sent = 0u64;
        for h in writers {
            sent += h.join().map_err(|_| "loadtest: writer thread panicked".to_string())??;
        }
        for h in readers {
            h.join().map_err(|_| "loadtest: reader thread panicked".to_string())??;
        }
        Ok(sent)
    })?;
    let elapsed = start.elapsed();

    let pooled = LatencyRecorder::default();
    let mut per_client = Vec::with_capacity(spec.clients);
    for rec in &recorders {
        pooled.merge_from(rec);
        per_client.push(ClientTally {
            completed: rec.completed(),
            errors: rec.errors(),
            mismatches: rec.mismatches(),
        });
    }
    Ok(LoopMeasurement { recorder: pooled, per_client, sent, elapsed })
}

/// Runs the same trace *closed-loop* for comparison: each client sends a
/// request no earlier than its intended start but never before the
/// previous reply arrived, and latency is measured from the **actual**
/// send. This is the coordinated-omission-prone measurement the module
/// exists to replace — during a server stall the generator simply stops
/// sending, so the stall is recorded once instead of once per request the
/// schedule owed. Kept for the regression test that pins that gap.
pub fn run_closed_loop(spec: &LoopSpec<'_>) -> Result<LoopMeasurement, String> {
    if spec.clients == 0 {
        return Err("loadtest: need at least one client".into());
    }
    if spec.plan.is_empty() {
        return Err("loadtest: empty replay plan".into());
    }
    let recorders: Vec<LatencyRecorder> =
        (0..spec.clients).map(|_| LatencyRecorder::default()).collect();
    let start = Instant::now() + Duration::from_millis(5);

    let sent = std::thread::scope(|s| -> Result<u64, String> {
        let mut handles = Vec::with_capacity(spec.clients);
        for (c, rec) in recorders.iter().enumerate() {
            handles.push(s.spawn(move || -> Result<u64, String> {
                let mut stream = connect(spec.addr, c)?;
                let _ = stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT));
                let reader_half =
                    stream.try_clone().map_err(|e| format!("client {c}: clone: {e}"))?;
                let mut reader = BufReader::new(reader_half);
                let len = spec.plan.len() as u64;
                let mut line = String::new();
                let mut sent = 0u64;
                let mut n = c as u64;
                while n < spec.total {
                    let at = intended_start(start, n, spec.rate_qps);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    let send_at = Instant::now();
                    let q = (n % len) as usize;
                    stream
                        .write_all(spec.plan.lines[q].as_bytes())
                        .map_err(|e| format!("client {c}: write: {e}"))?;
                    sent += 1;
                    line.clear();
                    let n_read =
                        reader.read_line(&mut line).map_err(|e| format!("client {c}: read: {e}"))?;
                    if n_read == 0 {
                        return Err(format!("client {c}: server closed mid-trace"));
                    }
                    let latency_us =
                        send_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
                    rec.record(latency_us, classify(line.trim_end(), spec.plan.expected[q]));
                    n += spec.clients as u64;
                }
                let _ = stream.shutdown(Shutdown::Write);
                Ok(sent)
            }));
        }
        let mut sent = 0u64;
        for h in handles {
            sent += h.join().map_err(|_| "loadtest: client thread panicked".to_string())??;
        }
        Ok(sent)
    })?;
    let elapsed = start.elapsed();

    let pooled = LatencyRecorder::default();
    let mut per_client = Vec::with_capacity(spec.clients);
    for rec in &recorders {
        pooled.merge_from(rec);
        per_client.push(ClientTally {
            completed: rec.completed(),
            errors: rec.errors(),
            mismatches: rec.mismatches(),
        });
    }
    Ok(LoopMeasurement { recorder: pooled, per_client, sent, elapsed })
}

/// Sends one control command (`RESET\n`, `STATS\n`) on its own short-lived
/// connection and returns the single reply line. Control connections are
/// strictly sequential with the load clients, so they never compete for
/// the server's one-worker-per-connection pool.
pub(crate) fn control_roundtrip(addr: SocketAddr, command: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("control connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT));
    stream.write_all(command.as_bytes()).map_err(|e| format!("control write: {e}"))?;
    let _ = stream.shutdown(Shutdown::Write);
    let mut reply = String::new();
    stream.read_to_string(&mut reply).map_err(|e| format!("control read: {e}"))?;
    Ok(reply.trim_end().to_string())
}

/// Extracts `key=value` from a `STATS` reply line.
pub(crate) fn stat_u64(reply: &str, key: &str) -> Result<u64, String> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
        .ok_or_else(|| format!("STATS reply missing {key}=: {reply:?}"))?
        .parse()
        .map_err(|_| format!("STATS {key} is not a number: {reply:?}"))
}

/// One rate step of a sweep: what was offered, what came back, and the
/// server's own view of the same interval.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Offered rate, queries per second.
    pub offered_qps: f64,
    /// Achieved rate: replies per second of wall clock.
    pub achieved_qps: f64,
    /// Requests sent.
    pub sent: u64,
    /// Replies received.
    pub completed: u64,
    /// `ERR` replies.
    pub errors: u64,
    /// Oracle disagreements.
    pub mismatches: u64,
    /// Median recorded latency (µs, intended-start accounting).
    pub p50_us: u64,
    /// 99th-percentile recorded latency (µs).
    pub p99_us: u64,
    /// 99.9th-percentile recorded latency (µs).
    pub p999_us: u64,
    /// Replies per client, index = client id (worker balance).
    pub per_client_completed: Vec<u64>,
    /// The server's `queries=` counter for this step.
    pub server_queries: u64,
    /// The server's `errors=` counter for this step.
    pub server_errors: u64,
    /// The server's `cache_hits=` counter for this step.
    pub cache_hits: u64,
    /// The server's `cache_misses=` counter for this step.
    pub cache_misses: u64,
    /// Result-cache hit rate over this step (0 when the cache is off).
    pub cache_hit_rate: f64,
    /// Wall clock of the step, milliseconds.
    pub elapsed_ms: f64,
}

impl StepResult {
    /// Cross-checks the driver's tallies against the server's counters:
    /// every request answered exactly once, the error counts agree, and —
    /// with the cache enabled — every query probed the cache exactly once.
    /// Any daylight between the two sides means lost or duplicated
    /// replies, so callers should fail loudly on `Err`.
    pub fn reconcile(&self, cache_enabled: bool) -> Result<(), String> {
        if self.mismatches > 0 {
            return Err(format!("{} replies disagree with the oracle", self.mismatches));
        }
        if self.sent != self.completed {
            return Err(format!("sent {} requests but got {} replies", self.sent, self.completed));
        }
        if self.server_queries != self.completed {
            return Err(format!(
                "server counted {} queries, driver received {} replies",
                self.server_queries, self.completed
            ));
        }
        if self.server_errors != self.errors {
            return Err(format!(
                "server counted {} errors, driver saw {}",
                self.server_errors, self.errors
            ));
        }
        if cache_enabled && self.cache_hits + self.cache_misses != self.server_queries {
            return Err(format!(
                "cache probes ({} hits + {} misses) != {} queries",
                self.cache_hits, self.cache_misses, self.server_queries
            ));
        }
        Ok(())
    }
}

/// Sweep configuration; see [`run_sweep`].
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Concurrent pipelined clients (default 4).
    pub clients: usize,
    /// Duration of each rate step, milliseconds (default 1000).
    pub duration_ms: u64,
    /// Offered rate of the first step, queries per second (default 1000).
    pub base_rate_qps: f64,
    /// Multiplier between steps (default 2.0).
    pub growth: f64,
    /// Hard cap on the number of steps (default 6).
    pub max_steps: usize,
    /// Minimum steps before the p99 stop-rule may end the sweep (default
    /// 4), so a sweep always maps out part of the curve.
    pub min_steps: usize,
    /// Stop once a step's p99 exceeds this, microseconds (default 100 ms).
    pub p99_stop_us: u64,
    /// Whether the server under test has its result cache enabled (drives
    /// the cache-probe reconciliation check).
    pub cache_enabled: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            clients: 4,
            duration_ms: 1000,
            base_rate_qps: 1000.0,
            growth: 2.0,
            max_steps: 6,
            min_steps: 4,
            p99_stop_us: 100_000,
            cache_enabled: true,
        }
    }
}

/// Runs one rate step: `RESET`s the server's counters, drives the
/// open-loop generator for the step's duration, then reconciles against a
/// fresh `STATS` snapshot.
pub fn run_step(
    addr: SocketAddr,
    plan: &ReplayPlan,
    rate_qps: f64,
    opts: &SweepOptions,
) -> Result<StepResult, String> {
    let reset = control_roundtrip(addr, "RESET\n")?;
    if reset != "OK reset" {
        return Err(format!("RESET failed: {reset:?}"));
    }
    let total = ((rate_qps * opts.duration_ms as f64 / 1000.0).round() as u64).max(1);
    let spec = LoopSpec { addr, plan, clients: opts.clients, rate_qps, total };
    let m = run_open_loop(&spec)?;
    let stats = control_roundtrip(addr, "STATS\n")?;

    let completed = m.recorder.completed();
    let elapsed_s = m.elapsed.as_secs_f64().max(1e-9);
    let cache_hits = stat_u64(&stats, "cache_hits")?;
    let cache_misses = stat_u64(&stats, "cache_misses")?;
    let probes = cache_hits + cache_misses;
    let step = StepResult {
        offered_qps: rate_qps,
        achieved_qps: completed as f64 / elapsed_s,
        sent: m.sent,
        completed,
        errors: m.recorder.errors(),
        mismatches: m.recorder.mismatches(),
        p50_us: m.recorder.quantile_us(0.50),
        p99_us: m.recorder.quantile_us(0.99),
        p999_us: m.recorder.quantile_us(0.999),
        per_client_completed: m.per_client.iter().map(|t| t.completed).collect(),
        server_queries: stat_u64(&stats, "queries")?,
        server_errors: stat_u64(&stats, "errors")?,
        cache_hits,
        cache_misses,
        cache_hit_rate: if probes == 0 { 0.0 } else { cache_hits as f64 / probes as f64 },
        elapsed_ms: m.elapsed.as_secs_f64() * 1000.0,
    };
    Ok(step)
}

/// Sweeps the offered rate up a geometric schedule
/// (`base_rate_qps * growth^i`), stopping early once p99 exceeds the
/// threshold — but never before `min_steps` steps, so the result always
/// shows the shape of the latency-under-throughput curve.
pub fn run_sweep(
    addr: SocketAddr,
    plan: &ReplayPlan,
    opts: &SweepOptions,
) -> Result<Vec<StepResult>, String> {
    let mut steps = Vec::new();
    for i in 0..opts.max_steps.max(1) {
        let rate = opts.base_rate_qps * opts.growth.powi(i as i32);
        let step = run_step(addr, plan, rate, opts)?;
        let saturated = step.p99_us > opts.p99_stop_us;
        steps.push(step);
        if saturated && steps.len() >= opts.min_steps {
            break;
        }
    }
    Ok(steps)
}

/// How one flooder connection ended: turned away at the door, or admitted
/// and eventually answered.
#[derive(Debug, Clone, Copy)]
enum FloodOutcome {
    /// First reply line was `ERR 7 busy ...` — admission control shed it.
    Busy,
    /// The server answered the query; how it compared to the oracle.
    Served(ReplyOutcome),
}

/// One flooder: connect, send a single query, half-close, and read the one
/// reply line that decides its fate. A generous read timeout lets a
/// flooder that was admitted-but-queued wait for a worker to free up, so
/// every flooder ends in exactly one tallied outcome and the request/reply
/// ledger still balances.
fn flood_once(
    addr: SocketAddr,
    f: usize,
    line: &str,
    expected: bool,
) -> Result<FloodOutcome, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("flooder {f}: connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT));
    stream.write_all(line.as_bytes()).map_err(|e| format!("flooder {f}: write: {e}"))?;
    let _ = stream.shutdown(Shutdown::Write);
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    let n =
        reader.read_line(&mut reply).map_err(|e| format!("flooder {f}: read: {e}"))?;
    if n == 0 {
        return Err(format!("flooder {f}: connection closed with no reply at all"));
    }
    let reply = reply.trim_end();
    if reply.starts_with(&format!("ERR {} busy", gsr_server::proto::BUSY_ERR)) {
        Ok(FloodOutcome::Busy)
    } else {
        Ok(FloodOutcome::Served(classify(reply, expected)))
    }
}

/// The overload step's ledger: what the flood offered, what the server
/// turned away, and what happened to the traffic it kept serving.
#[derive(Debug, Clone)]
pub struct OverloadResult {
    /// Offered rate of the held (served) clients, queries per second.
    pub offered_qps: f64,
    /// Persistent connections replaying the trace through the flood.
    pub holders: usize,
    /// One-shot connections hurled at the server all at once.
    pub flooders: usize,
    /// Flooders answered `ERR 7 busy` and turned away at the door.
    pub busy: u64,
    /// Flooders admitted and answered (possibly after queueing).
    pub flooder_served: u64,
    /// Requests the holders sent.
    pub holder_sent: u64,
    /// Replies the holders received.
    pub holder_completed: u64,
    /// `ERR` replies that were not busy-shedding, across both populations.
    pub errors: u64,
    /// Oracle disagreements, across both populations.
    pub mismatches: u64,
    /// Holder median latency under flood (µs, intended-start accounting).
    pub served_p50_us: u64,
    /// Holder p99 under flood (µs).
    pub served_p99_us: u64,
    /// Holder p99.9 under flood (µs).
    pub served_p999_us: u64,
    /// Bound `served_p99_us` must stay under for the step to pass.
    pub served_p99_bound_us: u64,
    /// The server's `queries=` counter for the step.
    pub server_queries: u64,
    /// The server's `shed=` counter (pending queue full).
    pub server_shed: u64,
    /// The server's `rejected=` counter (`--max-conns` reached).
    pub server_rejected: u64,
    /// Wall clock of the step, milliseconds.
    pub elapsed_ms: f64,
}

impl OverloadResult {
    /// Fraction of flooders turned away at the door.
    pub fn shed_rate(&self) -> f64 {
        if self.flooders == 0 {
            0.0
        } else {
            self.busy as f64 / self.flooders as f64
        }
    }

    /// Cross-checks the overload ledger: every connection ended in exactly
    /// one outcome, the driver's busy tally equals the server's
    /// `shed + rejected`, the flood actually got shed (an absorbed flood
    /// means admission control never engaged), answers stayed
    /// oracle-correct, and the held clients' p99 stayed under the bound.
    pub fn reconcile(&self) -> Result<(), String> {
        if self.mismatches > 0 {
            return Err(format!("{} replies disagree with the oracle", self.mismatches));
        }
        if self.errors > 0 {
            return Err(format!("{} non-busy ERR replies under flood", self.errors));
        }
        if self.holder_sent != self.holder_completed {
            return Err(format!(
                "holders sent {} requests but got {} replies",
                self.holder_sent, self.holder_completed
            ));
        }
        if self.busy + self.flooder_served != self.flooders as u64 {
            return Err(format!(
                "{} flooders, but {} busy + {} served",
                self.flooders, self.busy, self.flooder_served
            ));
        }
        if self.busy != self.server_shed + self.server_rejected {
            return Err(format!(
                "driver saw {} busy replies, server counted shed={} + rejected={}",
                self.busy, self.server_shed, self.server_rejected
            ));
        }
        if self.busy == 0 {
            return Err("the flood was never shed — admission control did not engage".into());
        }
        if self.server_queries != self.holder_completed + self.flooder_served {
            return Err(format!(
                "server counted {} queries, driver received {} + {} replies",
                self.server_queries, self.holder_completed, self.flooder_served
            ));
        }
        if self.served_p99_us > self.served_p99_bound_us {
            return Err(format!(
                "served p99 {} µs exceeded the {} µs bound under flood",
                self.served_p99_us, self.served_p99_bound_us
            ));
        }
        Ok(())
    }
}

/// Runs the overload step against a server whose `--max-conns` admits the
/// holder clients with only a couple of slots to spare: `RESET`s the
/// counters, starts an open-loop holder run at the base rate, waits until
/// every holder connection is live (observed through the `STATS live=`
/// gauge — while the polling control connection is being served, `live`
/// counts the holders plus itself), then launches `4 * (clients + 2)`
/// concurrent flooders and reconciles the combined ledger against the
/// server's counters.
pub fn run_overload(
    addr: SocketAddr,
    plan: &ReplayPlan,
    opts: &SweepOptions,
) -> Result<OverloadResult, String> {
    if plan.is_empty() {
        return Err("overload: empty replay plan".into());
    }
    let reset = control_roundtrip(addr, "RESET\n")?;
    if reset != "OK reset" {
        return Err(format!("RESET failed: {reset:?}"));
    }
    let rate_qps = opts.base_rate_qps;
    let total = ((rate_qps * opts.duration_ms as f64 / 1000.0).round() as u64).max(1);
    let spec = LoopSpec { addr, plan, clients: opts.clients, rate_qps, total };
    let flooders = (opts.clients + 2) * 4;

    let t0 = Instant::now();
    let (m, flood) = std::thread::scope(
        |s| -> Result<(LoopMeasurement, Vec<FloodOutcome>), String> {
            let holders = s.spawn(|| run_open_loop(&spec));
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                let stats = control_roundtrip(addr, "STATS\n")?;
                if stat_u64(&stats, "live")? > spec.clients as u64 {
                    break;
                }
                if Instant::now() > deadline {
                    return Err("overload: holder connections never became live".into());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            let mut handles = Vec::with_capacity(flooders);
            for f in 0..flooders {
                let q = f % plan.len();
                let line = &plan.lines[q];
                let expected = plan.expected[q];
                handles.push(s.spawn(move || flood_once(addr, f, line, expected)));
            }
            let mut flood = Vec::with_capacity(flooders);
            for h in handles {
                flood.push(
                    h.join().map_err(|_| "overload: flooder thread panicked".to_string())??,
                );
            }
            let m = holders
                .join()
                .map_err(|_| "overload: holder loop panicked".to_string())??;
            Ok((m, flood))
        },
    )?;
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1000.0;

    let stats = control_roundtrip(addr, "STATS\n")?;
    let mut busy = 0u64;
    let mut flooder_served = 0u64;
    let mut errors = m.recorder.errors();
    let mut mismatches = m.recorder.mismatches();
    for outcome in &flood {
        match outcome {
            FloodOutcome::Busy => busy += 1,
            FloodOutcome::Served(ReplyOutcome::Ok) => flooder_served += 1,
            FloodOutcome::Served(ReplyOutcome::Err) => {
                flooder_served += 1;
                errors += 1;
            }
            FloodOutcome::Served(ReplyOutcome::Mismatch) => {
                flooder_served += 1;
                mismatches += 1;
            }
        }
    }
    Ok(OverloadResult {
        offered_qps: rate_qps,
        holders: opts.clients,
        flooders,
        busy,
        flooder_served,
        holder_sent: m.sent,
        holder_completed: m.recorder.completed(),
        errors,
        mismatches,
        served_p50_us: m.recorder.quantile_us(0.50),
        served_p99_us: m.recorder.quantile_us(0.99),
        served_p999_us: m.recorder.quantile_us(0.999),
        served_p99_bound_us: opts.p99_stop_us,
        server_queries: stat_u64(&stats, "queries")?,
        server_shed: stat_u64(&stats, "shed")?,
        server_rejected: stat_u64(&stats, "rejected")?,
        elapsed_ms,
    })
}

/// CLI-settable options of the `repro loadtest` experiment.
#[derive(Debug, Clone, Copy)]
pub struct LoadtestOptions {
    /// Concurrent pipelined clients.
    pub clients: usize,
    /// Per-step duration, milliseconds.
    pub duration_ms: u64,
    /// Offered rate (first step's rate when sweeping), queries per second.
    pub rate_qps: f64,
    /// Sweep the rate geometrically instead of measuring one step.
    pub sweep: bool,
    /// Server result-cache capacity (0 disables it).
    pub cache_entries: usize,
    /// Spatial shards for the side-by-side comparison run (`<= 1` = no
    /// comparison). With `N > 1` the sweep runs twice — once against the
    /// single index, once against an N-shard [`ShardedIndex`] over the same
    /// dataset — and both series land in `BENCH_loadtest.json`.
    pub shards: usize,
}

impl Default for LoadtestOptions {
    fn default() -> Self {
        LoadtestOptions {
            clients: 4,
            duration_ms: 1000,
            rate_qps: 1000.0,
            sweep: false,
            cache_entries: 4096,
            shards: 1,
        }
    }
}

/// The sharded half of a sharded-vs-unsharded comparison: the same sweep,
/// served by an N-shard [`ShardedIndex`] instead of the single index.
#[derive(Debug, Clone)]
pub struct ShardComparison {
    /// Shard count of the comparison index.
    pub shards: usize,
    /// The sharded server's sweep, same rate schedule as the baseline.
    pub steps: Vec<StepResult>,
}

/// Binds a fresh loopback server over `index`, drives the sweep (and the
/// overload step when asked), and tears the server down.
fn serve_and_sweep(
    index: Arc<dyn RangeReachIndex>,
    plan: &ReplayPlan,
    opts: &LoadtestOptions,
    sweep_opts: &SweepOptions,
    with_overload: bool,
) -> Result<(Vec<StepResult>, Option<OverloadResult>), String> {
    let server = QueryServer::bind(
        ("127.0.0.1", 0),
        index,
        ServerConfig {
            threads: opts.clients + 1,
            budget: None,
            cache_entries: opts.cache_entries,
            // Real admission headroom: the pipelined clients, one slot for
            // the sequential control connections, and one spare so a
            // just-closed connection's server-side teardown can straddle
            // the next step's connects without a spurious rejection.
            max_conns: opts.clients + 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("loadtest: bind: {e}"))?;
    let addr = server.local_addr();
    let token = server.cancel_token();
    let handle = std::thread::spawn(move || server.run());

    let outcome = run_sweep(addr, plan, sweep_opts).and_then(|steps| {
        if with_overload {
            run_overload(addr, plan, sweep_opts).map(|o| (steps, Some(o)))
        } else {
            Ok((steps, None))
        }
    });

    token.cancel();
    let _ = handle.join();
    outcome
}

/// **Extension**: the full open-loop saturation experiment.
///
/// Generates the Yelp-analog dataset at `cfg.scale`, builds one 3DReach
/// index for serving and a *second, independent* 3DReach build as the
/// oracle, starts a real TCP [`QueryServer`] on a loopback port (worker
/// pool sized `clients + 1` so every pipelined client owns a worker, with
/// `max_conns` two past the client count so admission control is real but
/// the sweep itself never sheds), and drives the sweep followed by the
/// overload step. Every step must reconcile; the caller decides how loudly
/// to fail on mismatches via [`StepResult::reconcile`] and
/// [`OverloadResult::reconcile`].
///
/// With `opts.shards > 1` the same sweep then runs a second time against a
/// fresh server holding an N-shard [`ShardedIndex`] over the same dataset
/// (replies still checked against the single-index oracle), returned as
/// the [`ShardComparison`].
pub fn run_experiment(
    cfg: &Config,
    opts: &LoadtestOptions,
) -> Result<(TextTable, Vec<StepResult>, OverloadResult, Option<ShardComparison>), String> {
    let ds = Dataset::from_spec(&NetworkSpec::yelp(cfg.scale));
    let gen = WorkloadGen::new(&ds.prep);
    let workload = gen.extent_degree(
        crate::experiments::DEFAULT_EXTENT,
        DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX],
        cfg.queries.max(1),
        cfg.seed,
    );
    let oracle =
        MethodKind::ThreeDReach.build(&ds.prep, SccSpatialPolicy::Replicate);
    let plan = ReplayPlan::from_workload(&workload, oracle.as_ref());

    let serve_index: Arc<dyn RangeReachIndex> = Arc::new(ThreeDReach::build_threaded(
        &ds.prep,
        SccSpatialPolicy::Replicate,
        cfg.threads,
    ));
    let sweep_opts = SweepOptions {
        clients: opts.clients,
        duration_ms: opts.duration_ms,
        base_rate_qps: opts.rate_qps,
        max_steps: if opts.sweep { SweepOptions::default().max_steps } else { 1 },
        min_steps: if opts.sweep { SweepOptions::default().min_steps } else { 1 },
        cache_enabled: opts.cache_entries > 0,
        ..SweepOptions::default()
    };
    let (steps, overload) = serve_and_sweep(serve_index, &plan, opts, &sweep_opts, true)?;
    let overload = overload.ok_or_else(|| "loadtest: overload step missing".to_string())?;

    let sharded = if opts.shards > 1 {
        let index = crate::shard::build_sharded(&ds.prep, opts.shards, cfg.threads)?;
        let (sharded_steps, _) =
            serve_and_sweep(Arc::new(index), &plan, opts, &sweep_opts, false)?;
        Some(ShardComparison { shards: opts.shards, steps: sharded_steps })
    } else {
        None
    };

    let mut table = TextTable::new([
        "index",
        "offered_qps",
        "achieved_qps",
        "p50_us",
        "p99_us",
        "p999_us",
        "errors",
        "mismatches",
        "hit_rate",
        "balance",
    ]);
    let mut emit_rows = |label: &str, steps: &[StepResult]| {
        for s in steps {
            let min = s.per_client_completed.iter().min().copied().unwrap_or(0);
            let max = s.per_client_completed.iter().max().copied().unwrap_or(0);
            table.row([
                label.to_string(),
                format!("{:.0}", s.offered_qps),
                format!("{:.0}", s.achieved_qps),
                s.p50_us.to_string(),
                s.p99_us.to_string(),
                s.p999_us.to_string(),
                s.errors.to_string(),
                s.mismatches.to_string(),
                format!("{:.3}", s.cache_hit_rate),
                format!("{min}/{max}"),
            ]);
        }
    };
    emit_rows("single", &steps);
    if let Some(sh) = &sharded {
        emit_rows(&format!("shard{}", sh.shards), &sh.steps);
    }
    Ok((table, steps, overload, sharded))
}

/// One step as a JSON object (no indent, no trailing comma).
fn step_json(p: &StepResult) -> String {
    let per_client: Vec<String> = p.per_client_completed.iter().map(u64::to_string).collect();
    format!(
        "{{\"offered_qps\": {:.1}, \"achieved_qps\": {:.1}, \"sent\": {}, \
         \"completed\": {}, \"errors\": {}, \"mismatches\": {}, \
         \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_hit_rate\": {:.4}, \
         \"per_client_completed\": [{}], \"elapsed_ms\": {:.1}}}",
        p.offered_qps,
        p.achieved_qps,
        p.sent,
        p.completed,
        p.errors,
        p.mismatches,
        p.p50_us,
        p.p99_us,
        p.p999_us,
        p.cache_hits,
        p.cache_misses,
        p.cache_hit_rate,
        per_client.join(", "),
        p.elapsed_ms,
    )
}

/// Renders the sweep (and, when present, the overload step and the
/// sharded-vs-unsharded comparison) as the `BENCH_loadtest.json` artifact.
pub fn loadtest_json(
    cfg: &Config,
    opts: &LoadtestOptions,
    steps: &[StepResult],
    overload: Option<&OverloadResult>,
    sharded: Option<&ShardComparison>,
) -> String {
    let mut s = String::from("{\n  \"experiment\": \"loadtest\",\n");
    s.push_str(&format!(
        "  \"scale\": {}, \"queries\": {}, \"seed\": {}, \"clients\": {}, \
         \"duration_ms\": {}, \"cache_entries\": {}, \"sweep\": {},\n  \"steps\": [\n",
        cfg.scale,
        cfg.queries,
        cfg.seed,
        opts.clients,
        opts.duration_ms,
        opts.cache_entries,
        opts.sweep,
    ));
    for (i, p) in steps.iter().enumerate() {
        s.push_str(&format!(
            "    {}{}\n",
            step_json(p),
            if i + 1 == steps.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]");
    if let Some(sh) = sharded {
        s.push_str(&format!(",\n  \"sharded\": {{\"shards\": {}, \"steps\": [\n", sh.shards));
        for (i, p) in sh.steps.iter().enumerate() {
            s.push_str(&format!(
                "    {}{}\n",
                step_json(p),
                if i + 1 == sh.steps.len() { "" } else { "," }
            ));
        }
        s.push_str("  ]}");
    }
    if let Some(o) = overload {
        s.push_str(&format!(
            ",\n  \"overload\": {{\"offered_qps\": {:.1}, \"holders\": {}, \
             \"flooders\": {}, \"busy\": {}, \"flooder_served\": {}, \
             \"shed_rate\": {:.4}, \"holder_completed\": {}, \"errors\": {}, \
             \"mismatches\": {}, \"served_p50_us\": {}, \"served_p99_us\": {}, \
             \"served_p999_us\": {}, \"server_shed\": {}, \"server_rejected\": {}, \
             \"server_queries\": {}, \"elapsed_ms\": {:.1}}}\n}}\n",
            o.offered_qps,
            o.holders,
            o.flooders,
            o.busy,
            o.flooder_served,
            o.shed_rate(),
            o.holder_completed,
            o.errors,
            o.mismatches,
            o.served_p50_us,
            o.served_p99_us,
            o.served_p999_us,
            o.server_shed,
            o.server_rejected,
            o.server_queries,
            o.elapsed_ms,
        ));
    } else {
        s.push_str("\n}\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_monotone() {
        let start = Instant::now();
        // 1000 qps: request n starts exactly n ms after the origin.
        for n in 0..100u64 {
            let t = intended_start(start, n, 1000.0);
            assert_eq!(t - start, Duration::from_micros(n * 1000));
        }
        assert!(intended_start(start, 5, 100.0) < intended_start(start, 6, 100.0));
        // The schedule depends only on (n, rate), never on send times.
        assert_eq!(
            intended_start(start, 42, 250.0) - start,
            Duration::from_millis(168),
        );
    }

    #[test]
    fn round_robin_covers_every_request_exactly_once() {
        let total = 103u64;
        for clients in [1usize, 2, 4, 5] {
            let mut seen = vec![0u32; total as usize];
            for c in 0..clients {
                let mut n = c as u64;
                while n < total {
                    seen[n as usize] += 1;
                    n += clients as u64;
                }
            }
            assert!(seen.iter().all(|&k| k == 1), "clients={clients}");
        }
    }

    #[test]
    fn classify_checks_against_the_oracle() {
        assert_eq!(classify("TRUE", true), ReplyOutcome::Ok);
        assert_eq!(classify("FALSE", false), ReplyOutcome::Ok);
        assert_eq!(classify("TRUE", false), ReplyOutcome::Mismatch);
        assert_eq!(classify("FALSE", true), ReplyOutcome::Mismatch);
        assert_eq!(classify("ERR 4 invalid query", true), ReplyOutcome::Err);
        assert_eq!(classify("", false), ReplyOutcome::Err);
    }

    #[test]
    fn recorder_merge_pools_counts() {
        let a = LatencyRecorder::default();
        let b = LatencyRecorder::default();
        a.record(10, ReplyOutcome::Ok);
        a.record(20, ReplyOutcome::Err);
        b.record(1000, ReplyOutcome::Mismatch);
        let pooled = LatencyRecorder::default();
        pooled.merge_from(&a);
        pooled.merge_from(&b);
        assert_eq!(pooled.completed(), 3);
        assert_eq!(pooled.errors(), 1);
        assert_eq!(pooled.mismatches(), 1);
        assert_eq!(pooled.quantile_us(1.0), 1023);
    }

    #[test]
    fn stat_parsing_reads_the_stats_line() {
        let line = "STATS queries=12 errors=3 p50_us=7 p99_us=9 p999_us=11 \
                    index_bytes=100 cache_hits=4 cache_misses=8 cache_evictions=0";
        assert_eq!(stat_u64(line, "queries"), Ok(12));
        assert_eq!(stat_u64(line, "p999_us"), Ok(11));
        assert_eq!(stat_u64(line, "cache_hits"), Ok(4));
        assert!(stat_u64(line, "nope").is_err());
    }

    #[test]
    fn replay_plan_renders_round_trippable_lines() {
        use gsr_core::paper_example;
        let prep = paper_example::prepared();
        let r = paper_example::query_region();
        let workload = Workload {
            label: "t".into(),
            queries: vec![(paper_example::A, r), (paper_example::C, r)],
        };
        let oracle = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let plan = ReplayPlan::from_workload(&workload, &oracle);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.expected, vec![true, false]);
        for (line, (v, rect)) in plan.lines.iter().zip(&workload.queries) {
            assert!(line.ends_with('\n'));
            let parsed = gsr_server::proto::parse_line(line.trim_end());
            assert_eq!(
                parsed,
                Ok(Some(gsr_server::proto::Request::Reach(*v, *rect))),
                "rendered line must parse back to the exact query"
            );
        }
    }

    #[test]
    fn reconcile_rejects_daylight() {
        let ok = StepResult {
            offered_qps: 100.0,
            achieved_qps: 99.0,
            sent: 10,
            completed: 10,
            errors: 0,
            mismatches: 0,
            p50_us: 1,
            p99_us: 2,
            p999_us: 3,
            per_client_completed: vec![5, 5],
            server_queries: 10,
            server_errors: 0,
            cache_hits: 4,
            cache_misses: 6,
            cache_hit_rate: 0.4,
            elapsed_ms: 101.0,
        };
        assert_eq!(ok.reconcile(true), Ok(()));
        let mut bad = ok.clone();
        bad.mismatches = 1;
        assert!(bad.reconcile(true).is_err());
        let mut bad = ok.clone();
        bad.server_queries = 9;
        assert!(bad.reconcile(true).is_err());
        let mut bad = ok.clone();
        bad.cache_hits = 5;
        assert!(bad.reconcile(true).is_err());
        assert_eq!(bad.reconcile(false), Ok(()), "no cache, no probe invariant");
    }

    #[test]
    fn json_shape_is_stable() {
        let cfg = Config::default();
        let opts = LoadtestOptions::default();
        let step = StepResult {
            offered_qps: 1000.0,
            achieved_qps: 998.5,
            sent: 1000,
            completed: 1000,
            errors: 0,
            mismatches: 0,
            p50_us: 255,
            p99_us: 1023,
            p999_us: 2047,
            per_client_completed: vec![250, 250, 250, 250],
            server_queries: 1000,
            server_errors: 0,
            cache_hits: 900,
            cache_misses: 100,
            cache_hit_rate: 0.9,
            elapsed_ms: 1001.5,
        };
        let json = loadtest_json(&cfg, &opts, std::slice::from_ref(&step), None, None);
        assert!(json.contains("\"experiment\": \"loadtest\""));
        assert!(json.contains("\"p999_us\": 2047"));
        assert!(json.contains("\"per_client_completed\": [250, 250, 250, 250]"));
        assert!(json.ends_with("  ]\n}\n"));

        let json =
            loadtest_json(&cfg, &opts, std::slice::from_ref(&step), Some(&balanced_overload()), None);
        assert!(json.contains("\"overload\": {\"offered_qps\": 500.0"));
        assert!(json.contains("\"shed_rate\": 0.8750"));
        assert!(json.contains("\"server_rejected\": 14"));
        assert!(json.ends_with("}\n}\n"));

        // The sharded comparison nests between the baseline steps and the
        // overload ledger.
        let sharded = ShardComparison { shards: 4, steps: vec![step.clone()] };
        let json =
            loadtest_json(&cfg, &opts, &[step], Some(&balanced_overload()), Some(&sharded));
        assert!(json.contains("\"sharded\": {\"shards\": 4, \"steps\": ["));
        let shard_at = json.find("\"sharded\"").unwrap();
        let overload_at = json.find("\"overload\"").unwrap();
        assert!(shard_at < overload_at, "sharded block precedes overload");
        assert!(json.ends_with("}\n}\n"));
    }

    /// An overload ledger in which every cross-check balances.
    fn balanced_overload() -> OverloadResult {
        OverloadResult {
            offered_qps: 500.0,
            holders: 2,
            flooders: 16,
            busy: 14,
            flooder_served: 2,
            holder_sent: 100,
            holder_completed: 100,
            errors: 0,
            mismatches: 0,
            served_p50_us: 300,
            served_p99_us: 2000,
            served_p999_us: 4000,
            served_p99_bound_us: 100_000,
            server_queries: 102,
            server_shed: 0,
            server_rejected: 14,
            elapsed_ms: 250.0,
        }
    }

    #[test]
    fn overload_reconcile_rejects_daylight() {
        let ok = balanced_overload();
        assert_eq!(ok.reconcile(), Ok(()));
        assert!((ok.shed_rate() - 0.875).abs() < 1e-12);

        let mut bad = ok.clone();
        bad.mismatches = 1;
        assert!(bad.reconcile().is_err(), "oracle disagreement must fail");
        let mut bad = ok.clone();
        bad.errors = 1;
        assert!(bad.reconcile().is_err(), "non-busy ERR must fail");
        let mut bad = ok.clone();
        bad.flooder_served = 3;
        assert!(bad.reconcile().is_err(), "outcomes must partition the flooders");
        let mut bad = ok.clone();
        bad.server_rejected = 13;
        assert!(bad.reconcile().is_err(), "busy tally must match shed+rejected");
        let mut bad = ok.clone();
        bad.busy = 0;
        bad.flooder_served = 16;
        bad.server_rejected = 0;
        bad.server_queries = 116;
        assert!(bad.reconcile().is_err(), "an absorbed flood means no admission control");
        let mut bad = ok.clone();
        bad.server_queries = 103;
        assert!(bad.reconcile().is_err(), "server query count must match served replies");
        let mut bad = ok.clone();
        bad.served_p99_us = bad.served_p99_bound_us + 1;
        assert!(bad.reconcile().is_err(), "served p99 must stay under the bound");
    }
}

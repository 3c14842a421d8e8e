//! **Extension**: a chaos harness that attacks a live `gsr-server` and a
//! snapshot store the way a hostile network and an unreliable machine
//! would, then audits the wreckage.
//!
//! `benchmark/` measures how fast the server is under well-behaved load;
//! this module proves it is *unkillable* under badly-behaved load. Each
//! scenario mounts one class of attack against a real TCP server (its own
//! instance, so limits and counters are scenario-local) and checks three
//! things afterwards:
//!
//! 1. **Typed refusals** — every attack ends in the documented protocol
//!    error (`ERR 2 line too long`, `ERR 7 busy`, `ERR 7 idle timeout`),
//!    never a hang, a panic, or a silent drop.
//! 2. **Exact ledgers** — the driver's tally of refusals reconciles
//!    against the server's `STATS` counters (`shed=`, `rejected=`,
//!    `reloads=`), and the `live=` gauge returns to baseline, so no
//!    connection state leaks.
//! 3. **Correctness under fire** — queries answered *during* an attack
//!    (including concurrent hot `RELOAD`s) still match a freshly built
//!    in-process oracle.
//!
//! The storage scenarios need no server: a kill-during-save sweep plants
//! truncated staging files at ~100 byte offsets — exactly the debris a
//! `kill -9` leaves behind the atomic-rename save — and a corruption sweep
//! flips payload bytes; the previous snapshot must stay loadable and every
//! damaged file must fail with a typed error, never a panic and never
//! silently wrong data.
//!
//! `repro chaos` runs the full drill and exits nonzero if any scenario's
//! `handled` count falls short of its `attempts` — one unexplained
//! outcome fails the build.

use crate::harness::{Config, Dataset, MethodKind};
use crate::table::TextTable;
use gsr_core::methods::ThreeDReach;
use gsr_core::{BatchExecutor, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::faults::ScratchDir;
use gsr_datagen::workload::{Workload, WorkloadGen};
use gsr_datagen::NetworkSpec;
use gsr_graph::stats::DegreeBucket;
use gsr_server::{QueryServer, ServerConfig};
use gsr_store::SnapshotIndex;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Knobs of the chaos drill; every scenario stays deterministic in its
/// *assertions* for any setting (counts scale, invariants do not).
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// Attack connections per network scenario.
    pub attackers: usize,
    /// Truncation points of the kill-during-save sweep.
    pub kill_points: usize,
    /// Hot `RELOAD`s issued while query clients run.
    pub reloads: usize,
    /// Query clients kept running through the reload storm.
    pub clients: usize,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions { attackers: 8, kill_points: 100, reloads: 6, clients: 2 }
    }
}

/// One scenario's ledger. The scenario passes iff every attempt ended in
/// its expected, typed outcome.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name, stable for the JSON artifact.
    pub name: &'static str,
    /// Attack attempts mounted.
    pub attempts: u64,
    /// Attempts that ended in the expected typed outcome.
    pub handled: u64,
    /// Human-readable tally ("8/8 ERR 2, health ok", …).
    pub detail: String,
}

impl ScenarioResult {
    /// Whether every attempt was handled as specified.
    pub fn passed(&self) -> bool {
        self.handled == self.attempts
    }
}

/// Read timeout for attack sockets: generous, but finite, so a wedged
/// server fails the drill instead of hanging it.
const ATTACK_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// The request-line cap the line-length scenarios run against.
const CHAOS_MAX_LINE: usize = 256;

/// The idle reaper deadline the idle scenario runs against.
const CHAOS_IDLE_MS: u64 = 150;

/// How a server reply relates to the oracle's expected answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplyOutcome {
    /// `TRUE`/`FALSE`, agreeing with the oracle.
    Ok,
    /// An `ERR` (or otherwise unparseable) reply line.
    Err,
    /// `TRUE`/`FALSE`, *disagreeing* with the oracle — the worst outcome.
    Mismatch,
}

/// A replayable trace: pre-rendered request lines plus the oracle's answer
/// for each. Because `f64`'s `Display` round-trips through `parse`, every
/// replay of query `i` is byte-identical, so the server's result cache
/// sees one key per distinct query.
#[derive(Debug, Clone)]
struct ReplayPlan {
    /// `REACH ...\n` lines, one per workload query.
    lines: Vec<String>,
    /// The oracle's answer to each line, same order.
    expected: Vec<bool>,
}

impl ReplayPlan {
    /// Renders a workload and answers every query through `oracle` (a
    /// fresh, independently built index) with [`BatchExecutor`].
    fn from_workload(workload: &Workload, oracle: &dyn RangeReachIndex) -> ReplayPlan {
        let lines = workload
            .queries
            .iter()
            .map(|(v, r)| format!("REACH {v} {} {} {} {}\n", r.min_x, r.min_y, r.max_x, r.max_y))
            .collect();
        let expected = BatchExecutor::new(1).run(oracle, &workload.queries);
        ReplayPlan { lines, expected }
    }

    /// Number of distinct queries in the trace.
    fn len(&self) -> usize {
        self.lines.len()
    }
}

fn classify(reply: &str, expected: bool) -> ReplyOutcome {
    match reply {
        "TRUE" if expected => ReplyOutcome::Ok,
        "FALSE" if !expected => ReplyOutcome::Ok,
        "TRUE" | "FALSE" => ReplyOutcome::Mismatch,
        _ => ReplyOutcome::Err,
    }
}

/// Sends one control command (`RESET\n`, `STATS\n`, `RELOAD …\n`) on its
/// own short-lived connection and returns the single reply line.
fn control_roundtrip(addr: SocketAddr, command: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("control connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(ATTACK_READ_TIMEOUT));
    stream.write_all(command.as_bytes()).map_err(|e| format!("control write: {e}"))?;
    let _ = stream.shutdown(Shutdown::Write);
    let mut reply = String::new();
    stream.read_to_string(&mut reply).map_err(|e| format!("control read: {e}"))?;
    Ok(reply.trim_end().to_string())
}

/// Extracts `key=value` from a `STATS` reply line.
fn stat_u64(reply: &str, key: &str) -> Result<u64, String> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
        .ok_or_else(|| format!("STATS reply missing {key}=: {reply:?}"))?
        .parse()
        .map_err(|_| format!("STATS {key} is not a number: {reply:?}"))
}

fn base_config(threads: usize) -> ServerConfig {
    ServerConfig { threads, budget: None, ..ServerConfig::default() }
}

/// Spawns a scenario-local server and returns its address plus a stopper
/// that cancels and joins it.
fn spawn_server(
    index: std::sync::Arc<dyn RangeReachIndex>,
    config: ServerConfig,
) -> Result<(SocketAddr, impl FnOnce()), String> {
    let server = QueryServer::bind(("127.0.0.1", 0), index, config)
        .map_err(|e| format!("chaos: bind: {e}"))?;
    let addr = server.local_addr();
    let token = server.cancel_token();
    let handle = std::thread::spawn(move || server.run());
    Ok((addr, move || {
        token.cancel();
        let _ = handle.join();
    }))
}

/// One correct-answer probe on a fresh connection — the "is the server
/// still sane" check every attack scenario ends with.
fn health_probe(addr: SocketAddr, plan: &ReplayPlan) -> Result<(), String> {
    let reply = control_roundtrip(addr, &plan.lines[0])?;
    if classify(&reply, plan.expected[0]) == ReplyOutcome::Ok {
        Ok(())
    } else {
        Err(format!("health probe got {reply:?}"))
    }
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("chaos connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ATTACK_READ_TIMEOUT));
    Ok(stream)
}

/// A connection that sends a query, awaits the correct answer, and then
/// *holds* — pinning one worker and one admission slot so flood scenarios
/// know exactly how many slots remain.
fn primed_holder(
    addr: SocketAddr,
    plan: &ReplayPlan,
    i: usize,
) -> Result<TcpStream, String> {
    let mut stream = connect(addr)?;
    let q = i % plan.len();
    stream
        .write_all(plan.lines[q].as_bytes())
        .map_err(|e| format!("holder {i}: write: {e}"))?;
    let clone = stream.try_clone().map_err(|e| format!("holder {i}: clone: {e}"))?;
    let mut line = String::new();
    BufReader::new(clone)
        .read_line(&mut line)
        .map_err(|e| format!("holder {i}: read: {e}"))?;
    if classify(line.trim_end(), plan.expected[q]) != ReplyOutcome::Ok {
        return Err(format!("holder {i}: wrong prime reply {line:?}"));
    }
    Ok(stream)
}

/// Lets go of a held connection and waits until the server has closed its
/// side too. The server closes a connection as it frees the admission slot,
/// so once this returns the slot is free: what follows is never refused on
/// account of `holder`.
fn release(mut holder: TcpStream) -> Result<(), String> {
    let _ = holder.shutdown(Shutdown::Write);
    let mut rest = Vec::new();
    holder.read_to_end(&mut rest).map_err(|e| format!("release: read: {e}"))?;
    Ok(())
}

/// How a no-data knock (connect, immediate write-half close, read) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KnockOutcome {
    /// Turned away with `ERR 7 busy ...`.
    Busy,
    /// Admitted and closed with no reply (a worker saw the clean EOF).
    Eof,
}

/// Knocks on the server with an empty connection: sends only FIN, never
/// data, so the reply (or clean close) is delivered reliably even when the
/// server sheds at the door.
fn knock(addr: SocketAddr) -> Result<KnockOutcome, String> {
    let stream = connect(addr)?;
    let _ = stream.shutdown(Shutdown::Write);
    let mut line = String::new();
    let n = BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("knock read: {e}"))?;
    if n == 0 {
        return Ok(KnockOutcome::Eof);
    }
    let line = line.trim_end();
    if line.starts_with(&format!("ERR {} busy", gsr_server::proto::BUSY_ERR)) {
        Ok(KnockOutcome::Busy)
    } else {
        Err(format!("knock got unexpected reply {line:?}"))
    }
}

/// Polls `STATS` on a fresh control connection, retrying while the server
/// still sheds (flood scenarios read counters right after dropping their
/// holders, whose slots free only once their workers have seen the close).
fn stats_when_admitted(addr: SocketAddr) -> Result<String, String> {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let reply = control_roundtrip(addr, "STATS\n")?;
        if reply.starts_with("STATS ") {
            return Ok(reply);
        }
        if std::time::Instant::now() > deadline {
            return Err(format!("STATS never got through: {reply:?}"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Oversize request lines: each attacker sends one complete line far over
/// the cap and must get `ERR 2 line too long` followed by a close.
fn oversize_lines(
    index: std::sync::Arc<dyn RangeReachIndex>,
    plan: &ReplayPlan,
    opts: &ChaosOptions,
) -> Result<ScenarioResult, String> {
    let mut config = base_config(2);
    config.max_line = CHAOS_MAX_LINE;
    let (addr, stop) = spawn_server(index, config)?;
    let want = format!("ERR 2 line too long (max {CHAOS_MAX_LINE} bytes)");
    let mut handled = 0u64;
    let payload = format!("REACH {}\n", "9".repeat(2 * CHAOS_MAX_LINE));
    for _ in 0..opts.attackers {
        if control_roundtrip(addr, &payload)? == want {
            handled += 1;
        }
    }
    let health = health_probe(addr, plan);
    stop();
    health?;
    Ok(ScenarioResult {
        name: "oversize-line",
        attempts: opts.attackers as u64,
        handled,
        detail: format!("{handled}/{} answered {want:?}, health ok", opts.attackers),
    })
}

/// Slow-loris writers: dribble an unterminated line past the cap in small
/// pauses. The server must refuse the line *while it is still being
/// assembled* — buffered bytes stay bounded and the socket closes.
fn slow_loris(
    index: std::sync::Arc<dyn RangeReachIndex>,
    plan: &ReplayPlan,
    opts: &ChaosOptions,
) -> Result<ScenarioResult, String> {
    let mut config = base_config(2);
    config.max_line = CHAOS_MAX_LINE;
    let (addr, stop) = spawn_server(index, config)?;
    let want = format!("ERR 2 line too long (max {CHAOS_MAX_LINE} bytes)");
    let attackers = opts.attackers.min(4);
    let mut handled = 0u64;
    for a in 0..attackers {
        let mut stream = connect(addr)?;
        // Five 64-byte dribbles: crosses the 256-byte cap mid-line, never
        // sends a newline, never stops politely.
        for _ in 0..5 {
            stream
                .write_all(&[b'a'; 64])
                .map_err(|e| format!("loris {a}: write: {e}"))?;
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut reply = String::new();
        stream
            .read_to_string(&mut reply)
            .map_err(|e| format!("loris {a}: read: {e}"))?;
        if reply.trim_end() == want {
            handled += 1;
        }
    }
    let health = health_probe(addr, plan);
    stop();
    health?;
    Ok(ScenarioResult {
        name: "slow-loris",
        attempts: attackers as u64,
        handled,
        detail: format!("{handled}/{attackers} refused mid-dribble, health ok"),
    })
}

/// Silent connections must be reaped by the idle timeout with a typed
/// reason, freeing their worker.
fn idle_reap(
    index: std::sync::Arc<dyn RangeReachIndex>,
    plan: &ReplayPlan,
    opts: &ChaosOptions,
) -> Result<ScenarioResult, String> {
    let mut config = base_config(2);
    config.idle_timeout = Some(Duration::from_millis(CHAOS_IDLE_MS));
    let (addr, stop) = spawn_server(index, config)?;
    let want = format!("ERR 7 idle timeout after {CHAOS_IDLE_MS} ms");
    let attackers = opts.attackers.min(3);
    let mut handled = 0u64;
    for a in 0..attackers {
        let stream = connect(addr)?;
        let mut reply = String::new();
        let mut reader = BufReader::new(stream);
        reader
            .read_to_string(&mut reply)
            .map_err(|e| format!("idler {a}: read: {e}"))?;
        if reply.trim_end() == want {
            handled += 1;
        }
    }
    let health = health_probe(addr, plan);
    stop();
    health?;
    Ok(ScenarioResult {
        name: "idle-reap",
        attempts: attackers as u64,
        handled,
        detail: format!("{handled}/{attackers} reaped with {want:?}, health ok"),
    })
}

/// Torn pipelines: each attacker first drops a connection mid-line with no
/// warning, then sends three queries plus a truncated fourth and
/// half-closes. The three complete queries must come back oracle-correct,
/// the torn tail must answer a typed `ERR`, and the server must stay
/// healthy throughout.
fn torn_pipelines(
    index: std::sync::Arc<dyn RangeReachIndex>,
    plan: &ReplayPlan,
    opts: &ChaosOptions,
) -> Result<ScenarioResult, String> {
    let (addr, stop) = spawn_server(index, base_config(2))?;
    let mut handled = 0u64;
    for a in 0..opts.attackers {
        {
            // Half-open abuse: a fragment, then vanish. Nothing to assert
            // on this socket — the health probe below is the assertion.
            let mut stream = connect(addr)?;
            let _ = stream.write_all(b"REACH 1 2");
        }
        let mut stream = connect(addr)?;
        let mut sent = String::new();
        let mut expected = Vec::new();
        for j in 0..3 {
            let q = (a * 3 + j) % plan.len();
            sent.push_str(&plan.lines[q]);
            expected.push(plan.expected[q]);
        }
        sent.push_str("REACH 1 2"); // torn: no newline, wrong arity
        stream.write_all(sent.as_bytes()).map_err(|e| format!("torn {a}: write: {e}"))?;
        let _ = stream.shutdown(Shutdown::Write);
        let mut replies = String::new();
        BufReader::new(stream)
            .read_to_string(&mut replies)
            .map_err(|e| format!("torn {a}: read: {e}"))?;
        let lines: Vec<&str> = replies.lines().collect();
        let answers_ok = lines.len() == 4
            && expected
                .iter()
                .zip(&lines)
                .all(|(&e, l)| classify(l, e) == ReplyOutcome::Ok)
            && lines[3].starts_with("ERR ");
        if answers_ok {
            handled += 1;
        }
    }
    let health = health_probe(addr, plan);
    stop();
    health?;
    Ok(ScenarioResult {
        name: "torn-pipeline",
        attempts: opts.attackers as u64,
        handled,
        detail: format!(
            "{handled}/{} pipelines answered 3 correct + typed ERR tail, health ok",
            opts.attackers
        ),
    })
}

/// Connection flood past `--max-conns`: with every admission slot pinned
/// by primed holders, every flooder must be turned away with `ERR 7 busy`,
/// and the server's `rejected=` counter must equal the driver's tally.
fn connection_flood(
    index: std::sync::Arc<dyn RangeReachIndex>,
    plan: &ReplayPlan,
    opts: &ChaosOptions,
) -> Result<ScenarioResult, String> {
    let slots = 3usize;
    let mut config = base_config(slots);
    config.max_conns = slots;
    let (addr, stop) = spawn_server(index, config)?;
    let run = || -> Result<(u64, u64, u64), String> {
        let mut holders = Vec::with_capacity(slots);
        for i in 0..slots {
            holders.push(primed_holder(addr, plan, i)?);
        }
        let mut busy = 0u64;
        for _ in 0..opts.attackers {
            if knock(addr)? == KnockOutcome::Busy {
                busy += 1;
            }
        }
        for holder in holders {
            release(holder)?;
        }
        let stats = stats_when_admitted(addr)?;
        let refused = stat_u64(&stats, "shed")? + stat_u64(&stats, "rejected")?;
        let live = stat_u64(&stats, "live")?;
        Ok((busy, refused, live))
    };
    let outcome = run();
    let health = health_probe(addr, plan);
    stop();
    let (busy, refused, live) = outcome?;
    health?;
    // `live` includes the STATS control connection itself, so baseline
    // after the flood is exactly 1 — anything more is a leaked slot.
    let handled = if busy == refused && live == 1 { busy } else { 0 };
    Ok(ScenarioResult {
        name: "conn-flood",
        attempts: opts.attackers as u64,
        handled,
        detail: format!(
            "{busy}/{} busy replies, server refused {refused}, live back to {live}",
            opts.attackers
        ),
    })
}

/// Flood of the accept→worker queue: one worker, a one-deep pending
/// queue, and a held connection. The first flooder parks in the queue (and
/// ends in a clean EOF once the holder releases the worker); every flooder
/// after it must be shed with `ERR 7 busy`, counted under `shed=`.
fn queue_shed(
    index: std::sync::Arc<dyn RangeReachIndex>,
    plan: &ReplayPlan,
    opts: &ChaosOptions,
) -> Result<ScenarioResult, String> {
    let mut config = base_config(1);
    config.max_pending = 1;
    let (addr, stop) = spawn_server(index, config)?;
    let attempts = opts.attackers as u64;
    let run = || -> Result<(u64, u64, u64), String> {
        let holder = primed_holder(addr, plan, 0)?;
        let busy = AtomicU64::new(0);
        let eof = AtomicU64::new(0);
        let failures = std::thread::scope(|s| -> Result<u64, String> {
            let mut handles = Vec::with_capacity(opts.attackers);
            for _ in 0..opts.attackers {
                handles.push(s.spawn(|| knock(addr)));
            }
            // Let every knock reach the accept loop while the holder still
            // owns the only worker, then release it so the queued knock
            // drains to a clean EOF.
            std::thread::sleep(Duration::from_millis(100));
            drop(holder);
            let mut failures = 0u64;
            for h in handles {
                match h.join().map_err(|_| "queue_shed: knock panicked".to_string())? {
                    Ok(KnockOutcome::Busy) => {
                        busy.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(KnockOutcome::Eof) => {
                        eof.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => failures += 1,
                }
            }
            Ok(failures)
        })?;
        if failures > 0 {
            return Err(format!("queue_shed: {failures} knocks errored"));
        }
        let stats = stats_when_admitted(addr)?;
        Ok((
            busy.load(Ordering::Relaxed),
            eof.load(Ordering::Relaxed),
            stat_u64(&stats, "shed")?,
        ))
    };
    let outcome = run();
    let health = health_probe(addr, plan);
    stop();
    let (busy, eof, shed) = outcome?;
    health?;
    // Exactly one knock fit the one-deep queue; the rest were shed, and
    // the driver and server must agree on how many.
    let handled = if busy == shed && busy + eof == attempts && eof == 1 { attempts } else { 0 };
    Ok(ScenarioResult {
        name: "queue-shed",
        attempts,
        handled,
        detail: format!("{busy} shed (server says {shed}), {eof} drained to EOF"),
    })
}

/// Hot `RELOAD` storm under live query load: while clients hammer the
/// server and verify every answer against the oracle, a reloader swaps in
/// the snapshot over and over (plus one bogus path that must fail typed
/// and leave the old index serving). Afterwards the `reloads=` counter,
/// the query ledger, and the single expected protocol error must all
/// reconcile.
fn reload_storm(
    index: std::sync::Arc<dyn RangeReachIndex>,
    plan: &ReplayPlan,
    snap_path: &Path,
    opts: &ChaosOptions,
) -> Result<ScenarioResult, String> {
    let mut config = base_config(opts.clients + 2);
    config.cache_entries = 256;
    let (addr, stop) = spawn_server(index, config)?;
    let run = || -> Result<(u64, u64, u64, String), String> {
        let stop_flag = AtomicBool::new(false);
        let correct = AtomicU64::new(0);
        let wrong = AtomicU64::new(0);
        let reloads_ok = std::thread::scope(|s| -> Result<u64, String> {
            let mut clients = Vec::with_capacity(opts.clients);
            for c in 0..opts.clients {
                let stop_flag = &stop_flag;
                let correct = &correct;
                let wrong = &wrong;
                clients.push(s.spawn(move || -> Result<(), String> {
                    let mut stream = connect(addr)?;
                    let clone =
                        stream.try_clone().map_err(|e| format!("client {c}: clone: {e}"))?;
                    let mut reader = BufReader::new(clone);
                    let mut line = String::new();
                    let mut q = c;
                    while !stop_flag.load(Ordering::Relaxed) {
                        let i = q % plan.len();
                        stream
                            .write_all(plan.lines[i].as_bytes())
                            .map_err(|e| format!("client {c}: write: {e}"))?;
                        line.clear();
                        let n = reader
                            .read_line(&mut line)
                            .map_err(|e| format!("client {c}: read: {e}"))?;
                        if n == 0 {
                            return Err(format!("client {c}: server closed mid-storm"));
                        }
                        if classify(line.trim_end(), plan.expected[i]) == ReplyOutcome::Ok {
                            correct.fetch_add(1, Ordering::Relaxed);
                        } else {
                            wrong.fetch_add(1, Ordering::Relaxed);
                        }
                        q += 1;
                    }
                    Ok(())
                }));
            }
            let reload_line = format!("RELOAD {}\n", snap_path.display());
            let mut reloads_ok = 0u64;
            for _ in 0..opts.reloads {
                std::thread::sleep(Duration::from_millis(15));
                let reply = control_roundtrip(addr, &reload_line)?;
                if reply.starts_with("OK reload index_bytes=") {
                    reloads_ok += 1;
                } else {
                    return Err(format!("RELOAD failed mid-storm: {reply:?}"));
                }
            }
            // A reload that cannot load must leave the old index serving.
            let bogus = control_roundtrip(addr, "RELOAD /nonexistent/chaos.snap\n")?;
            if !bogus.starts_with("ERR ") {
                return Err(format!("bogus RELOAD was not refused: {bogus:?}"));
            }
            stop_flag.store(true, Ordering::Relaxed);
            for h in clients {
                h.join().map_err(|_| "reload_storm: client panicked".to_string())??;
            }
            Ok(reloads_ok)
        })?;
        let stats = stats_when_admitted(addr)?;
        let served = correct.load(Ordering::Relaxed) + wrong.load(Ordering::Relaxed);
        let ledger = format!(
            "queries={} vs served={}, reloads={} vs ok={}, errors={}",
            stat_u64(&stats, "queries")?,
            served,
            stat_u64(&stats, "reloads")?,
            reloads_ok,
            stat_u64(&stats, "errors")?,
        );
        let balanced = stat_u64(&stats, "queries")? == served
            && stat_u64(&stats, "reloads")? == reloads_ok
            && reloads_ok == opts.reloads as u64
            && stat_u64(&stats, "errors")? == 1; // exactly the bogus RELOAD
        Ok((correct.load(Ordering::Relaxed), wrong.load(Ordering::Relaxed), balanced as u64, ledger))
    };
    let outcome = run();
    let health = health_probe(addr, plan);
    stop();
    let (correct, wrong, balanced, ledger) = outcome?;
    health?;
    let attempts = correct + wrong;
    let handled = if wrong == 0 && balanced == 1 { attempts } else { 0 };
    Ok(ScenarioResult {
        name: "reload-storm",
        attempts,
        handled,
        detail: format!("{correct} correct / {wrong} wrong under reload; {ledger}"),
    })
}

/// Kill-during-save sweep: the atomic-rename save means a kill at *any*
/// byte leaves only a truncated staging file beside an intact snapshot.
/// For ~`kill_points` truncation offsets, plant exactly that debris and
/// require: the target still loads, the debris itself fails typed, and a
/// fresh save sweeps the debris away.
fn kill_during_save(
    snap: &SnapshotIndex,
    dir: &Path,
    opts: &ChaosOptions,
) -> Result<ScenarioResult, String> {
    let target = dir.join("kill.snap");
    gsr_store::save_to_path(&target, snap).map_err(|e| format!("kill sweep: seed save: {e}"))?;
    let mut bytes = Vec::new();
    gsr_store::save(&mut bytes, snap).map_err(|e| format!("kill sweep: render: {e}"))?;
    let staging = gsr_store::staging_path(&target);
    let points = opts.kill_points.max(2);
    let mut handled = 0u64;
    for i in 0..points {
        // Strictly truncated: offsets span [0, len), never a full copy.
        let cut = i * (bytes.len() - 1) / (points - 1);
        std::fs::write(&staging, &bytes[..cut])
            .map_err(|e| format!("kill sweep: plant debris: {e}"))?;
        let target_survives = gsr_store::load_from_path(&target).is_ok();
        let debris_refused = gsr_store::load_from_path(&staging).is_err();
        let resave = gsr_store::save_to_path(&target, snap).is_ok() && !staging.exists();
        if target_survives && debris_refused && resave {
            handled += 1;
        }
    }
    Ok(ScenarioResult {
        name: "kill-during-save",
        attempts: points as u64,
        handled,
        detail: format!(
            "{handled}/{points} truncation offsets over {} bytes left the snapshot intact",
            bytes.len()
        ),
    })
}

/// Bit-rot sweep: flipping any payload byte must make the snapshot fail
/// its checksum with a typed error — never load silently wrong.
fn snapshot_corruption(snap: &SnapshotIndex, dir: &Path) -> Result<ScenarioResult, String> {
    let mut bytes = Vec::new();
    gsr_store::save(&mut bytes, snap).map_err(|e| format!("corruption sweep: render: {e}"))?;
    let path = dir.join("corrupt.snap");
    let points = 16usize.min(bytes.len().saturating_sub(16));
    let mut handled = 0u64;
    for i in 0..points {
        // Spread flips across the payload, clear of nothing — any byte
        // is load-bearing once the checksum covers the file.
        let pos = 8 + i * (bytes.len() - 9) / points.max(1);
        let mut damaged = bytes.clone();
        damaged[pos] ^= 0x40;
        std::fs::write(&path, &damaged)
            .map_err(|e| format!("corruption sweep: write: {e}"))?;
        if gsr_store::load_from_path(&path).is_err() {
            handled += 1;
        }
    }
    Ok(ScenarioResult {
        name: "snapshot-corruption",
        attempts: points as u64,
        handled,
        detail: format!("{handled}/{points} single-byte flips refused with a typed error"),
    })
}

/// Runs the whole drill: builds the dataset, oracle, and serving index
/// once, then mounts every scenario (each on its own server instance) and
/// returns the table plus per-scenario ledgers. Infrastructure failures
/// (bind errors, wedged sockets) surface as `Err`; attack outcomes that
/// merely differ from the specification show up as `handled < attempts`.
pub fn run_experiment(
    cfg: &Config,
    opts: &ChaosOptions,
) -> Result<(TextTable, Vec<ScenarioResult>), String> {
    let ds = Dataset::from_spec(&NetworkSpec::yelp(cfg.scale));
    let gen = WorkloadGen::new(&ds.prep);
    let workload = gen.extent_degree(
        crate::experiments::DEFAULT_EXTENT,
        DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX],
        cfg.queries.max(1),
        cfg.seed,
    );
    let oracle = MethodKind::ThreeDReach.build(&ds.prep, SccSpatialPolicy::Replicate);
    let plan = ReplayPlan::from_workload(&workload, oracle.as_ref());

    let built = ThreeDReach::build_threaded(&ds.prep, SccSpatialPolicy::Replicate, cfg.threads);
    let snap = SnapshotIndex::ThreeDReach(built.clone());
    let index: std::sync::Arc<dyn RangeReachIndex> = std::sync::Arc::new(built);

    // Its own directory per call, so concurrent drills never share files.
    let staging = ScratchDir::new("gsr_chaos").map_err(|e| format!("chaos: mkdir: {e}"))?;
    let dir = staging.path();
    let snap_path = dir.join("reload.snap");
    gsr_store::save_to_path(&snap_path, &snap).map_err(|e| format!("chaos: save: {e}"))?;

    let scenarios = vec![
        oversize_lines(index.clone(), &plan, opts)?,
        slow_loris(index.clone(), &plan, opts)?,
        idle_reap(index.clone(), &plan, opts)?,
        torn_pipelines(index.clone(), &plan, opts)?,
        connection_flood(index.clone(), &plan, opts)?,
        queue_shed(index.clone(), &plan, opts)?,
        reload_storm(index.clone(), &plan, &snap_path, opts)?,
        kill_during_save(&snap, dir, opts)?,
        snapshot_corruption(&snap, dir)?,
    ];

    let mut table = TextTable::new(["scenario", "attempts", "handled", "verdict", "detail"]);
    for s in &scenarios {
        table.row([
            s.name.to_string(),
            s.attempts.to_string(),
            s.handled.to_string(),
            if s.passed() { "ok".to_string() } else { "FAIL".to_string() },
            s.detail.clone(),
        ]);
    }
    Ok((table, scenarios))
}

/// Renders the drill as the `BENCH_chaos.json` artifact.
pub fn chaos_json(cfg: &Config, opts: &ChaosOptions, scenarios: &[ScenarioResult]) -> String {
    let mut s = String::from("{\n  \"experiment\": \"chaos\",\n");
    s.push_str(&format!(
        "  \"scale\": {}, \"queries\": {}, \"seed\": {}, \"attackers\": {}, \
         \"kill_points\": {}, \"reloads\": {},\n  \"scenarios\": [\n",
        cfg.scale, cfg.queries, cfg.seed, opts.attackers, opts.kill_points, opts.reloads,
    ));
    for (i, r) in scenarios.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"attempts\": {}, \"handled\": {}, \
             \"passed\": {}, \"detail\": {:?}}}{}\n",
            r.name,
            r.attempts,
            r.handled,
            r.passed(),
            r.detail,
            if i + 1 == scenarios.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_passes_only_when_every_attempt_is_handled() {
        let mut r = ScenarioResult {
            name: "t",
            attempts: 8,
            handled: 8,
            detail: "all".into(),
        };
        assert!(r.passed());
        r.handled = 7;
        assert!(!r.passed());
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
    fn json_shape_is_stable() {
        let cfg = Config::default();
        let opts = ChaosOptions::default();
        let rows = vec![
            ScenarioResult { name: "a", attempts: 2, handled: 2, detail: "fine".into() },
            ScenarioResult { name: "b", attempts: 3, handled: 1, detail: "2 leaked".into() },
        ];
        let json = chaos_json(&cfg, &opts, &rows);
        assert!(json.contains("\"experiment\": \"chaos\""));
        assert!(json.contains("\"name\": \"a\", \"attempts\": 2, \"handled\": 2, \"passed\": true"));
        assert!(json.contains("\"passed\": false"));
        assert!(json.ends_with("  ]\n}\n"));
    }
}

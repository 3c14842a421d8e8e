//! The served side: the `gsr serve` child process and the load generator.
//!
//! The generator is one thread multiplexing its non-blocking sockets. A
//! closed loop keeps a fixed window of requests in flight per connection; an
//! open loop spin-paces a fixed schedule and times every request from its
//! **intended** send time, so a stall is charged to every request it delays.
//! Every reply is compared with the expected one; a request that is refused,
//! unanswered or answered wrongly counts as failed, never as skipped.

use crate::inputs::Plan;
use crate::measure::{ns32, Phase, Slice};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a phase waits for outstanding replies after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

/// Every `TRACE_EVERY`th request of a traced phase gets a span.
const TRACE_EVERY: u64 = 64;

/// A running `gsr serve`, killed and reaped when dropped — on every exit
/// path, unwinding included. Its pid is also written next to the snapshots,
/// so `run.sh` can reap it if the benchmark itself is killed.
pub struct ServeChild {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pid_file: PathBuf,
    pub addr: SocketAddr,
    pub spawn_to_listen: Duration,
}

impl ServeChild {
    pub fn spawn(
        gsr: &Path,
        snapshot: &Path,
        threads: usize,
        cache_entries: usize,
        tmp: &Path,
    ) -> Result<ServeChild, String> {
        let started = Instant::now();
        let mut child = Command::new(gsr)
            .arg("serve")
            .arg("--load")
            .arg(snapshot)
            .args([
                "--port",
                "0",
                "--threads",
                &threads.to_string(),
                "--cache-entries",
                &cache_entries.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", gsr.display()))?;
        let pid_file = tmp.join(format!("serve-{}.pid", child.id()));
        // From here on the guard owns the child: an early return kills it.
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut guard = ServeChild {
            child,
            _stdout: stdout,
            pid_file,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawn_to_listen: Duration::ZERO,
        };
        std::fs::write(&guard.pid_file, guard.child.id().to_string())
            .map_err(|e| format!("pid file: {e}"))?;
        let mut line = String::new();
        loop {
            line.clear();
            let n = guard
                ._stdout
                .read_line(&mut line)
                .map_err(|e| format!("gsr serve stdout: {e}"))?;
            if n == 0 {
                return Err("gsr serve exited before listening".into());
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                guard.addr = addr
                    .parse()
                    .map_err(|e| format!("listening line {line:?}: {e}"))?;
                guard.spawn_to_listen = started.elapsed();
                return Ok(guard);
            }
        }
    }

    /// `VmHWM` of the child, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// User + system CPU seconds the child has used so far.
    pub fn cpu_seconds(&self) -> f64 {
        // Fields 14 and 15 of /proc/<pid>/stat, counted after the command
        // name's closing parenthesis, in clock ticks of 1/100 s.
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: u64 = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse::<u64>().ok())
            .sum();
        ticks as f64 / 100.0
    }

    /// Waits for the child to exit after a `SHUTDOWN`; the drop kills it if
    /// it has not gone by the deadline.
    pub fn wait_exit(&mut self, deadline: Duration) -> bool {
        let until = Instant::now() + deadline;
        while Instant::now() < until {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.pid_file);
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB; 0 when unreadable.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parses a `STATS k=v k=v ...` reply into its integer fields.
pub fn parse_stats(reply: &str) -> BTreeMap<String, u64> {
    reply
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
        .collect()
}

/// What the client saw, in the terms the server's `STATS` counts in, so the
/// two can be reconciled exactly.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    /// Replies that differ from the expected answer or `ERR` code.
    pub wrong: u64,
    /// Requests sent that never got a reply (time-out, refusal, reset).
    pub unanswered: u64,
    /// Replies to request lines that parse into a `REACH` (`queries=`).
    pub queries: u64,
    /// `ERR` reply lines received (`errors=`).
    pub err_replies: u64,
    /// `OK reload` replies received (`reloads=`).
    pub reloads: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.wrong + self.unanswered
    }
}

#[derive(Debug, Clone, Copy)]
enum What {
    Query(u32),
    Control,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    what: What,
    k: u64,
    due: Instant,
    sent: Instant,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    carry: Vec<u8>,
    inflight: VecDeque<Pending>,
    queries_inflight: usize,
    dead: bool,
}

/// One sampled request of a traced phase: due → sent → reply.
#[derive(Debug, Clone, Copy)]
pub struct TracedRequest {
    pub k: u64,
    pub pool_idx: u32,
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

/// What one slice of a phase produced.
pub struct SliceOut {
    pub duration: Duration,
    /// Latency of every reply, in arrival order.
    pub latencies_ns: Vec<u32>,
    /// How late each send ran against the schedule (open loop only).
    pub late_ns: Vec<u32>,
    pub offered: u64,
    /// Replies that arrived before the slice's time was up.
    pub on_time: u64,
    /// Replies to in-band control verbs, with send → reply time.
    pub control: Vec<(String, Duration)>,
    pub traced: Vec<TracedRequest>,
}

impl SliceOut {
    fn new(duration: Duration, expected: usize) -> SliceOut {
        SliceOut {
            duration,
            latencies_ns: Vec::with_capacity(expected),
            late_ns: Vec::new(),
            offered: 0,
            on_time: 0,
            control: Vec::new(),
            traced: Vec::new(),
        }
    }
}

/// A phase gathered from its slices.
#[derive(Default)]
pub struct PhaseOut {
    pub phase: Phase,
    pub late_ns: Vec<u32>,
    pub offered: u64,
    pub on_time: u64,
    pub control: Vec<(String, Duration)>,
    pub traced: Vec<TracedRequest>,
}

impl PhaseOut {
    /// Adds a slice; its rate counts the replies that arrived in time.
    pub fn add(&mut self, out: SliceOut) {
        let mut slice = Slice::timed(out.duration, out.latencies_ns);
        slice.completed = out.on_time;
        self.phase.slices.push(slice);
        self.late_ns.extend(out.late_ns);
        self.offered += out.offered;
        self.on_time += out.on_time;
        self.control.extend(out.control);
        self.traced.extend(out.traced);
    }

    pub fn achieved_frac(&self) -> f64 {
        self.on_time as f64 / self.offered.max(1) as f64
    }
}

/// The load generator: `conns` persistent connections driven from one thread.
pub struct Client<'p> {
    conns: Vec<Conn>,
    plan: &'p Plan,
    /// Compare replies with the plan's expectations (off only against the
    /// echo socket, which answers `TRUE` to everything).
    check: bool,
    next_k: u64,
    pub tally: Tally,
    pub trace: bool,
    buf: Vec<u8>,
}

impl<'p> Client<'p> {
    pub fn connect(
        addr: SocketAddr,
        conns: usize,
        plan: &'p Plan,
        check: bool,
    ) -> std::io::Result<Client<'p>> {
        let mut list = Vec::with_capacity(conns);
        for _ in 0..conns {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            list.push(Conn {
                stream,
                out: Vec::with_capacity(1 << 16),
                written: 0,
                carry: Vec::new(),
                inflight: VecDeque::with_capacity(1 << 12),
                queries_inflight: 0,
                dead: false,
            });
        }
        Ok(Client {
            conns: list,
            plan,
            check,
            next_k: 0,
            tally: Tally::default(),
            trace: false,
            buf: vec![0u8; 1 << 16],
        })
    }

    fn enqueue_query(&mut self, ci: usize, now: Instant, due: Instant) {
        let k = self.next_k;
        self.next_k += 1;
        let idx = self.plan.at(k);
        let conn = &mut self.conns[ci];
        conn.out.extend_from_slice(self.plan.line(idx));
        conn.inflight.push_back(Pending {
            what: What::Query(idx),
            k,
            due,
            sent: now,
        });
        conn.queries_inflight += 1;
        self.tally.attempted += 1;
    }

    fn enqueue_control(&mut self, ci: usize, line: &str, now: Instant) {
        let conn = &mut self.conns[ci];
        conn.out.extend_from_slice(line.as_bytes());
        conn.inflight.push_back(Pending {
            what: What::Control,
            k: 0,
            due: now,
            sent: now,
        });
    }

    fn flush(&mut self, ci: usize) {
        let conn = &mut self.conns[ci];
        while conn.written < conn.out.len() && !conn.dead {
            match conn.stream.write(&conn.out[conn.written..]) {
                Ok(0) => conn.dead = true,
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => conn.dead = true,
            }
        }
        if conn.written == conn.out.len() {
            conn.out.clear();
            conn.written = 0;
        }
    }

    /// Reads whatever connection `ci` has ready and accounts every complete
    /// reply line against the oldest request in flight.
    fn poll(&mut self, ci: usize, end: Instant, out: &mut SliceOut) {
        loop {
            let conn = &mut self.conns[ci];
            if conn.dead {
                return;
            }
            let n = match conn.stream.read(&mut self.buf) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            };
            let now = Instant::now();
            let mut rest = &self.buf[..n];
            while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
                let (head, tail) = rest.split_at(nl);
                rest = &tail[1..];
                let conn = &mut self.conns[ci];
                let line: &[u8] = if conn.carry.is_empty() {
                    head
                } else {
                    conn.carry.extend_from_slice(head);
                    &conn.carry
                };
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                match conn.inflight.pop_front() {
                    // A reply nobody asked for: the stream is out of step.
                    None => self.tally.wrong += 1,
                    Some(Pending {
                        what: What::Control,
                        sent,
                        ..
                    }) => {
                        let text = String::from_utf8_lossy(line).into_owned();
                        if text.starts_with("OK reload") {
                            self.tally.reloads += 1;
                        } else if text.starts_with("ERR") {
                            self.tally.err_replies += 1;
                        }
                        out.control.push((text, now - sent));
                    }
                    Some(Pending {
                        what: What::Query(idx),
                        k,
                        due,
                        sent,
                    }) => {
                        conn.queries_inflight -= 1;
                        if !self.check || self.plan.expected[idx as usize].matches(line) {
                            self.tally.ok += 1;
                        } else {
                            self.tally.wrong += 1;
                        }
                        if self.plan.queries[idx as usize].is_some() {
                            self.tally.queries += 1;
                        }
                        if line.starts_with(b"ERR") {
                            self.tally.err_replies += 1;
                        }
                        out.latencies_ns
                            .push(ns32(now.saturating_duration_since(due)));
                        if now <= end {
                            out.on_time += 1;
                        }
                        if self.trace && k % TRACE_EVERY == 0 {
                            out.traced.push(TracedRequest {
                                k,
                                pool_idx: idx,
                                due,
                                sent,
                                done: now,
                            });
                        }
                    }
                }
                self.conns[ci].carry.clear();
            }
            self.conns[ci].carry.extend_from_slice(rest);
            if n < self.buf.len() {
                return;
            }
        }
    }

    fn inflight(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Waits for outstanding replies; whatever is still missing at the
    /// deadline (or sits on a dead connection) is counted unanswered.
    fn drain(&mut self, end: Instant, out: &mut SliceOut) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.inflight() > 0 && Instant::now() < deadline && self.conns.iter().any(|c| !c.dead)
        {
            for ci in 0..self.conns.len() {
                self.flush(ci);
                self.poll(ci, end, out);
            }
        }
        for conn in &mut self.conns {
            let lost = conn
                .inflight
                .iter()
                .filter(|p| matches!(p.what, What::Query(_)))
                .count();
            self.tally.unanswered += lost as u64;
            conn.inflight.clear();
            conn.queries_inflight = 0;
        }
    }

    /// Closed loop for `dur`: each connection pipelines `window` requests in
    /// one write, waits for all their replies, and sends the next `window`. (A
    /// sliding window that tops itself up reply by reply settles, for seconds
    /// at a time, into one of several batching patterns between client and
    /// server that differ by 30 % in throughput; whole batches do not.)
    /// `controls` are in-band verbs for connection 0, each sent ahead of the
    /// first batch after the phase has run for the given time.
    pub fn closed_loop(
        &mut self,
        dur: Duration,
        window: usize,
        controls: &[(Duration, String)],
    ) -> SliceOut {
        let mut out = SliceOut::new(dur, 1 << 20);
        let start = Instant::now();
        let end = start + dur;
        let mut next_control = 0;
        loop {
            if Instant::now() >= end {
                break;
            }
            for ci in 0..self.conns.len() {
                self.poll(ci, end, &mut out);
                if self.conns[ci].queries_inflight == 0 && !self.conns[ci].dead {
                    let now = Instant::now();
                    if ci == 0
                        && next_control < controls.len()
                        && now - start >= controls[next_control].0
                    {
                        self.enqueue_control(0, &controls[next_control].1, now);
                        next_control += 1;
                    }
                    for _ in 0..window {
                        self.enqueue_query(ci, now, now);
                    }
                    out.offered += window as u64;
                }
                self.flush(ci);
            }
            if self.conns.iter().all(|c| c.dead) {
                break;
            }
        }
        self.drain(end, &mut out);
        out
    }

    /// Open loop: request `i` is due at `start + i / rate` whatever the
    /// server does; latency runs from that instant.
    pub fn open_loop(&mut self, dur: Duration, rate: f64) -> SliceOut {
        let total = (dur.as_secs_f64() * rate) as u64;
        let mut out = SliceOut::new(dur, total as usize);
        out.late_ns.reserve(total as usize);
        out.offered = total;
        let interval_ns = 1e9 / rate;
        let start = Instant::now();
        let end = start + dur;
        let conns = self.conns.len() as u64;
        let mut issued = 0u64;
        loop {
            let now = Instant::now();
            let elapsed = now.saturating_duration_since(start).as_nanos() as f64;
            let due_count = (((elapsed / interval_ns) as u64).saturating_add(1)).min(total);
            while issued < due_count {
                let due = start + Duration::from_nanos((issued as f64 * interval_ns) as u64);
                self.enqueue_query((issued % conns) as usize, now, due);
                out.late_ns.push(ns32(now.saturating_duration_since(due)));
                issued += 1;
            }
            for ci in 0..self.conns.len() {
                if !self.conns[ci].out.is_empty() {
                    self.flush(ci);
                }
                self.poll(ci, end, &mut out);
            }
            if issued == total || self.conns.iter().all(|c| c.dead) {
                break;
            }
        }
        self.drain(end, &mut out);
        out
    }

    /// Sends one control verb on an idle connection and waits for its reply.
    pub fn control(&mut self, ci: usize, line: &str) -> Result<(String, Duration), String> {
        let start = Instant::now();
        let mut out = SliceOut::new(DRAIN_TIMEOUT, 0);
        self.enqueue_control(ci, line, start);
        self.flush(ci);
        while out.control.is_empty() && start.elapsed() < DRAIN_TIMEOUT && !self.conns[ci].dead {
            self.flush(ci);
            self.poll(ci, start + DRAIN_TIMEOUT, &mut out);
        }
        self.conns[ci].inflight.clear();
        out.control
            .pop()
            .ok_or_else(|| format!("no reply to {:?}", line.trim()))
    }
}

/// Connect, send one request line, read its reply line (returned without the
/// newline), close.
pub fn one_shot(addr: SocketAddr, line: &[u8]) -> std::io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(DRAIN_TIMEOUT))?;
    stream.write_all(line)?;
    let mut reply = Vec::with_capacity(64);
    let mut buf = [0u8; 64];
    while !reply.ends_with(b"\n") {
        match stream.read(&mut buf)? {
            0 => return Err(ErrorKind::UnexpectedEof.into()),
            n => reply.extend_from_slice(&buf[..n]),
        }
    }
    reply.pop();
    Ok(reply)
}

/// Connection churn: connect → one request → reply → close, one after the
/// other for `dur`. Latency is the whole cycle.
pub fn churn(
    addr: SocketAddr,
    plan: &Plan,
    first_k: u64,
    dur: Duration,
    tally: &mut Tally,
) -> Slice {
    let mut cycles = Vec::with_capacity(1024);
    let start = Instant::now();
    let mut k = first_k;
    while start.elapsed() < dur {
        let idx = plan.at(k);
        k += 1;
        tally.attempted += 1;
        let t = Instant::now();
        let reply = one_shot(addr, plan.line(idx));
        let done = Instant::now();
        match reply {
            Err(_) => tally.unanswered += 1,
            Ok(line) => {
                if plan.expected[idx as usize].matches(&line) {
                    tally.ok += 1;
                } else {
                    tally.wrong += 1;
                }
                if plan.queries[idx as usize].is_some() {
                    tally.queries += 1;
                }
                if line.starts_with(b"ERR") {
                    tally.err_replies += 1;
                }
                cycles.push(ns32(done - t));
            }
        }
    }
    Slice::timed(dur, cycles)
}

/// An echo socket inside the benchmark: answers `TRUE` to every line. The
/// same generator run against it measures what the client, the loopback and
/// the scheduler cost with no server work at all (`client.wire_floor_us`).
pub struct Echo {
    pub addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl Echo {
    pub fn spawn(conns: usize) -> std::io::Result<Echo> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let acceptor = std::thread::spawn(move || {
            let handlers: Vec<_> = (0..conns)
                .filter_map(|_| listener.accept().ok())
                .map(|(mut stream, _)| {
                    std::thread::spawn(move || {
                        let _ = stream.set_nodelay(true);
                        let mut buf = [0u8; 4096];
                        let mut replies = Vec::with_capacity(4096);
                        while let Ok(n) = stream.read(&mut buf) {
                            if n == 0 {
                                break;
                            }
                            replies.clear();
                            for _ in buf[..n].iter().filter(|&&b| b == b'\n') {
                                replies.extend_from_slice(b"TRUE\n");
                            }
                            if stream.write_all(&replies).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(Echo {
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// Joins the echo threads; call after the client's connections closed.
    pub fn join(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

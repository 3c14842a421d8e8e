//! The query service on loopback sockets: what only a socket has —
//! admission control, the idle deadline, the stop, the `gsr serve` CLI
//! path, a reload storm under live clients — and that a socket gives the
//! bytes a session gives, however a pipeline is cut. The protocol itself is
//! tested through socket-free sessions in `session.rs` and in `gsr-server`.

use gsr_cli::{exit_code, parse_args, run};
use gsr_core::PreparedNetwork;
use gsr_datagen::faults::ScratchDir;
use gsr_server::{Engine, QueryServer, ServerConfig, StopHandle};
use gsr_tests::{
    corpus, oracle_lines, paper_datasets, served_files, session_replies, stat_field,
    without_latencies, ServedFiles,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A `Write` sink the serve thread and the test can share: the test polls
/// it for the `listening on ADDR` line to learn the OS-assigned port.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn args(s: &[&str]) -> Vec<String> {
    s.iter().map(|x| x.to_string()).collect()
}

/// `gsr serve` of [`served_files`]' snapshot on a loopback port, in a background
/// thread, with its shared output.
struct ServeFixture {
    addr: SocketAddr,
    out: SharedBuf,
    thread: std::thread::JoinHandle<()>,
    files: ServedFiles,
}

fn start_serve(tag: &str, extra: &[&str]) -> ServeFixture {
    let files = served_files(tag);
    let mut serve_args = vec!["serve", "--load", &files.snap_path, "--port", "0", "--threads", "2"];
    serve_args.extend_from_slice(extra);
    let cmd = parse_args(&args(&serve_args)).unwrap();
    let out = SharedBuf::default();
    let thread = {
        let mut out = out.clone();
        std::thread::spawn(move || {
            run(cmd, &mut out).expect("serve must exit cleanly");
        })
    };

    // Poll for the announced address (the serve thread prints it before
    // blocking on the accept loop).
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        let text = out.contents();
        if let Some(line) = text.lines().find(|l| l.starts_with("listening on ")) {
            break line["listening on ".len()..].parse::<SocketAddr>().unwrap();
        }
        assert!(Instant::now() < deadline, "server never announced an address:\n{text}");
        std::thread::sleep(Duration::from_millis(10));
    };
    ServeFixture { addr, out, thread, files }
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (reader, stream)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    line.trim_end().to_string()
}

#[test]
fn serve_with_a_corrupt_snapshot_is_a_load_error_exit() {
    let dir = ScratchDir::new("gsr_server_integration_corrupt").unwrap();
    let snap = dir.path().join("bad.snap");
    std::fs::write(&snap, b"GSRSNAP\0garbage").unwrap();
    let snap_path = snap.to_string_lossy().to_string();

    let e = run(parse_args(&args(&["serve", "--load", &snap_path])).unwrap(), &mut Vec::new())
        .unwrap_err();
    assert_eq!(exit_code(e.as_ref()), 3, "{e}");

    // A file of a retired format is refused by number, with the same exit.
    for version in [5u32, 6] {
        let mut retired = gsr_store::MAGIC.to_vec();
        retired.extend_from_slice(&version.to_le_bytes());
        retired.resize(4096, 0);
        std::fs::write(&snap, &retired).unwrap();
        let e = run(parse_args(&args(&["serve", "--load", &snap_path])).unwrap(), &mut Vec::new())
            .unwrap_err();
        assert_eq!(exit_code(e.as_ref()), 3, "{e}");
        assert!(e.to_string().contains(&format!("unsupported format version {version} ")), "{e}");
    }
}

/// A [`QueryServer`] over [`paper_datasets`], run on a thread of this
/// process on an OS-assigned port.
struct InProcess {
    addr: SocketAddr,
    stop: StopHandle,
    thread: std::thread::JoinHandle<()>,
}

fn start_in_process(config: ServerConfig) -> InProcess {
    let server = QueryServer::bind_many(("127.0.0.1", 0), paper_datasets(), config).unwrap();
    let addr = server.local_addr();
    let stop = server.cancel_token();
    let thread = std::thread::spawn(move || server.run().unwrap());
    InProcess { addr, stop, thread }
}

impl InProcess {
    /// Waits for `run()` to return — which something must already have
    /// asked for — and returns how long that took.
    fn join(self) -> Duration {
        let started = Instant::now();
        while !self.thread.is_finished() {
            assert!(started.elapsed() < Duration::from_secs(10), "run() never returned");
            std::thread::sleep(Duration::from_millis(1));
        }
        let waited = started.elapsed();
        self.thread.join().expect("run() must return cleanly");
        waited
    }

    fn stop_and_join(self) -> Duration {
        self.stop.cancel();
        self.join()
    }
}

/// In-process variant pinning the graceful-shutdown contract of
/// [`QueryServer`] directly: cancelling the handle (not a client SHUTDOWN)
/// must also stop `run()`, with nobody connected and every thread of the
/// server asleep in `accept()` or on the queue.
#[test]
fn cancel_token_stops_the_server_without_a_client() {
    let server = start_in_process(ServerConfig::default());
    std::thread::sleep(Duration::from_millis(50));
    let waited = server.stop_and_join();
    assert!(waited < Duration::from_millis(250), "run() returned only after {waited:?}");
}

const QUERY_A: &[u8] = b"REACH 0 4 8 8 12\n";

/// `n` connections that have each been answered once — so each is in the
/// hands of a worker — and are now silent.
fn idle_connections(addr: SocketAddr, n: usize) -> Vec<(BufReader<TcpStream>, TcpStream)> {
    (0..n)
        .map(|_| {
            let (mut reader, mut stream) = connect(addr);
            stream.write_all(QUERY_A).unwrap();
            assert_eq!(read_line(&mut reader), "TRUE");
            (reader, stream)
        })
        .collect()
}

/// A new connection is answered when it arrives, not at the next tick of
/// anything: accept, hand-off and first read are all woken by the event.
#[test]
fn a_fresh_connection_is_answered_within_milliseconds() {
    let server = start_in_process(ServerConfig { threads: 2, ..ServerConfig::default() });
    let mut cycles: Vec<Duration> = (0..40)
        .map(|_| {
            let started = Instant::now();
            let (mut reader, mut stream) = connect(server.addr);
            stream.write_all(QUERY_A).unwrap();
            assert_eq!(read_line(&mut reader), "TRUE");
            drop((reader, stream));
            started.elapsed()
        })
        .collect();
    cycles.sort_unstable();
    let median = cycles[cycles.len() / 2];
    assert!(median < Duration::from_millis(5), "median connect→reply→close cycle {median:?}");
    server.stop_and_join();
}

/// With every worker asleep in `read()` on an idle connection, a stop —
/// through the handle, or through a client's `SHUTDOWN` — wakes them all:
/// `run()` returns at once and every client sees its connection closed.
#[test]
fn a_stop_wakes_workers_blocked_on_idle_connections() {
    for by_client in [false, true] {
        let server = start_in_process(ServerConfig { threads: 8, ..ServerConfig::default() });
        let mut clients = idle_connections(server.addr, 8);
        let waited = if by_client {
            let (reader, stream) = &mut clients[3];
            stream.write_all(b"SHUTDOWN\n").unwrap();
            assert_eq!(read_line(reader), "OK shutdown");
            server.join()
        } else {
            server.stop_and_join()
        };
        assert!(
            waited < Duration::from_millis(250),
            "by_client={by_client}: run() returned only after {waited:?}"
        );
        for (i, (reader, _stream)) in clients.iter_mut().enumerate() {
            let mut rest = String::new();
            let n = reader.read_line(&mut rest).unwrap_or_else(|e| panic!("client {i}: {e}"));
            assert_eq!(n, 0, "client {i} must see EOF, got {rest:?}");
        }
    }
}

/// The idle deadline is the connection's read timeout: a silent connection
/// is reaped when it expires, not a poll later, and a slow-loris writer —
/// never silent for long — still runs into the line cap. A client that
/// vanishes mid-line, never reading, leaves the server answering.
#[test]
fn idle_timeout_reaps_the_silent_and_max_line_stops_the_dribbler() {
    let server = start_in_process(ServerConfig {
        threads: 2,
        max_line: 32,
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    });

    let (mut reader, _stream) = connect(server.addr);
    let started = Instant::now();
    assert_eq!(read_line(&mut reader), "ERR 7 idle timeout after 100 ms");
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(100) && waited < Duration::from_millis(200),
        "reaped after {waited:?}"
    );
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "the reaped connection is closed");

    let (mut reader, mut stream) = connect(server.addr);
    stream.set_nodelay(true).unwrap();
    for _ in 0..40 {
        // Past the cap the server has hung up; those writes may fail.
        let _ = stream.write_all(b"a");
    }
    assert_eq!(read_line(&mut reader), "ERR 2 line too long (max 32 bytes)");
    // Closed: EOF, or a reset where bytes past the cap were still unread.
    let closed = reader
        .read_line(&mut rest)
        .map_or_else(|e| e.kind() == ErrorKind::ConnectionReset, |n| n == 0);
    assert!(closed, "an oversize line closes the connection");

    let (_, mut stream) = connect(server.addr);
    stream.write_all(b"REACH 1 2").unwrap();
    drop(stream);
    let (mut reader, mut stream) = connect(server.addr);
    stream.write_all(QUERY_A).unwrap();
    assert_eq!(read_line(&mut reader), "TRUE");

    server.stop_and_join();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However a pipeline is cut into feeds — single bytes, cuts one either
    /// side of 4 KiB and of the 64 KiB socket read buffer — its replies are
    /// those of the same lines fed one at a time, and of the whole pipeline
    /// fed at once: the tail's assembly, growth and shrinking, the
    /// in-place line split, the per-line UTF-8 fallback and the batch
    /// boundaries are all invisible in the reply bytes.
    #[test]
    fn replies_do_not_depend_on_how_a_pipeline_is_fragmented(
        corpus_seed in any::<u64>(),
        random_cuts in prop::collection::vec(1usize..70_000, 0..24),
        single_bytes_from in 0usize..66_000,
    ) {
        let pipeline = corpus(corpus_seed, 70_000);
        let mut cuts = random_cuts.clone();
        cuts.extend([4_095, 4_096, 4_097, 65_535, 65_536, 65_537]);
        cuts.extend(single_bytes_from..single_bytes_from + 24);
        let line_ends: Vec<usize> =
            (0..pipeline.len()).filter(|&i| pipeline[i] == b'\n').map(|i| i + 1).collect();

        let engine = Engine::new(paper_datasets(), ServerConfig::default()).unwrap();
        let fragmented = session_replies(&engine, &pipeline, &cuts);
        let one_at_a_time = session_replies(&engine, &pipeline, &line_ends);
        let whole = session_replies(&engine, &pipeline, &[]);

        let answered = pipeline
            .split(|&b| b == b'\n')
            .filter(|line| !line.iter().all(u8::is_ascii_whitespace))
            .count();
        prop_assert_eq!(one_at_a_time.iter().filter(|&&b| b == b'\n').count(), answered);
        prop_assert_eq!(without_latencies(&fragmented), without_latencies(&one_at_a_time));
        prop_assert_eq!(without_latencies(&whole), without_latencies(&one_at_a_time));
    }
}

/// The socket adapter adds nothing and loses nothing: a pipeline written
/// in fragments, reading the replies owed after each, with a torn last
/// line served at the half-close, gets the bytes a session gives.
#[test]
fn a_socket_replies_with_the_bytes_of_a_session() {
    let mut pipeline = corpus(7, 140_000);
    pipeline.extend_from_slice(b"REACH 0 0 0");
    let cuts = [1, 2, 3, 4_096, 65_536, 65_537, 100_000, 100_001, pipeline.len()];
    // The offset just past every answered line's newline.
    let answered_ends: Vec<usize> = (0..pipeline.len())
        .filter(|&i| pipeline[i] == b'\n')
        .filter(|&i| {
            let start = pipeline[..i].iter().rposition(|&b| b == b'\n').map_or(0, |s| s + 1);
            !pipeline[start..i].iter().all(u8::is_ascii_whitespace)
        })
        .map(|i| i + 1)
        .collect();

    let server = start_in_process(ServerConfig { threads: 1, ..ServerConfig::default() });
    let (mut reader, mut stream) = connect(server.addr);
    stream.set_nodelay(true).unwrap();
    let (mut replies, mut sent, mut read) = (Vec::new(), 0, 0);
    for cut in cuts {
        stream.write_all(&pipeline[sent..cut]).unwrap();
        sent = cut;
        while read < answered_ends.len() && answered_ends[read] <= sent {
            assert!(reader.read_until(b'\n', &mut replies).unwrap() > 0, "closed early");
            read += 1;
        }
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    reader.read_to_end(&mut replies).unwrap();
    server.stop_and_join();

    let session = session_replies(
        &Engine::new(paper_datasets(), ServerConfig::default()).unwrap(),
        &pipeline,
        &[],
    );
    let torn = String::from_utf8_lossy(&session).lines().last().unwrap().to_string();
    assert!(torn.starts_with("ERR 2 REACH: missing"), "the torn line is served at EOF: {torn}");
    assert_eq!(without_latencies(&replies), without_latencies(&session));
}

/// `STATS` on its own connection, retrying while admission control still
/// sheds (used right after flood tests drop their held connections).
fn stats_with_retry(addr: SocketAddr) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (mut reader, mut stream) = connect(addr);
        stream.write_all(b"STATS\n").unwrap();
        let reply = read_line(&mut reader);
        if reply.starts_with("STATS ") {
            return reply;
        }
        assert!(Instant::now() < deadline, "STATS never got through: {reply}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// With `--max-conns` at the worker count, held connections pin every
/// admission slot: new arrivals get one `ERR 7 busy` line and a close,
/// counted under `rejected=`, and the slots come back once the holders
/// leave.
#[test]
fn connections_past_max_conns_are_rejected_with_busy() {
    let fx = start_serve("shed", &["--max-conns", "2"]);

    let mut holders = Vec::new();
    for _ in 0..2 {
        let (mut reader, mut stream) = connect(fx.addr);
        stream.write_all(b"REACH 0 0 0 1 1\n").unwrap();
        let reply = read_line(&mut reader);
        assert!(reply == "TRUE" || reply == "FALSE", "{reply}");
        holders.push((reader, stream));
    }
    for k in 0..3 {
        let (mut reader, _stream) = connect(fx.addr);
        let reply = read_line(&mut reader);
        assert!(
            reply.starts_with("ERR 7 busy retry_ms="),
            "arrival {k} must be turned away typed: {reply}"
        );
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "busy closes the connection");
    }
    // The server closes a connection as it frees its slot: once a holder has
    // read EOF its slot is back, and the STATS below is not refused for it.
    for (mut reader, stream) in holders {
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "{rest}");
    }

    let stats = stats_with_retry(fx.addr);
    assert_eq!(stat_field(&stats, "rejected"), 3, "{stats}");
    assert_eq!(stat_field(&stats, "shed"), 0, "{stats}");
    assert_eq!(stat_field(&stats, "queries"), 2, "only the held connections queried: {stats}");
    assert_eq!(stat_field(&stats, "errors"), 0, "busy refusals are not errors: {stats}");
    assert_eq!(stat_field(&stats, "live"), 1, "slots must come back (STATS counts itself)");
    // Restart-cost fields: `serve --load` started from a snapshot, so STATS
    // carries the load time and wire-format version.
    assert!(stats.contains(" load_ms="), "STATS must report load_ms: {stats}");
    assert_eq!(stat_field(&stats, "snapshot_format"), gsr_store::FORMAT_VERSION as u64);

    shutdown_and_join(fx);
}

/// With one worker and a one-deep hand-off queue, a held connection owns
/// the worker and the next arrival waits in the queue: every arrival after
/// that is shed at the door with `ERR 7 busy`, counted under `shed=`, not
/// `rejected=`. The kernel's backlog is FIFO and the accept loop serial, so
/// the order of `connect`s alone decides which arrival queued.
#[test]
fn connections_past_max_pending_are_shed_with_busy() {
    const KNOCKS: u64 = 4;
    let server =
        start_in_process(ServerConfig { threads: 1, max_pending: 1, ..ServerConfig::default() });
    let (mut holder_reader, mut holder) = connect(server.addr);
    holder.write_all(QUERY_A).unwrap();
    assert_eq!(read_line(&mut holder_reader), "TRUE");

    // Sends only FIN, never data, so the shed reply is never reset away.
    let knock = || {
        let (reader, stream) = connect(server.addr);
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        reader
    };
    let mut queued = knock();
    for k in 0..KNOCKS {
        let mut reader = knock();
        let reply = read_line(&mut reader);
        assert!(reply.starts_with("ERR 7 busy retry_ms="), "knock {k} must be shed: {reply}");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "busy closes the connection");
    }

    // Released, the worker takes the queued arrival, which sees a clean EOF.
    holder.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = String::new();
    assert_eq!(holder_reader.read_line(&mut rest).unwrap(), 0, "{rest}");
    assert_eq!(queued.read_line(&mut rest).unwrap(), 0, "the queued arrival got {rest:?}");

    let (mut reader, mut stream) = connect(server.addr);
    stream.write_all(b"STATS\n").unwrap();
    let stats = read_line(&mut reader);
    assert_eq!(stat_field(&stats, "shed"), KNOCKS, "{stats}");
    assert_eq!(stat_field(&stats, "rejected"), 0, "{stats}");
    assert_eq!(stat_field(&stats, "live"), 1, "slots must come back (STATS counts itself)");

    server.stop_and_join();
}

/// Hot `RELOAD`s under live query load: two clients replay oracle-answered
/// queries while a third connection reloads the served snapshot, then asks
/// for a missing one, which fails typed and leaves the old index serving.
/// Before each reload the reloader waits, on a counter and not a clock,
/// until every client has been answered again, so every reload lands
/// among answered queries. `STATS` then reconciles exactly: one query per
/// answer the clients read, one count per reload, and one error.
#[test]
fn reload_storm_under_concurrent_clients_keeps_answers_and_ledger_exact() {
    const CLIENTS: usize = 2;
    const RELOADS: u64 = 4;
    let fx = start_serve("reload_storm", &["--cache-entries", "256", "--threads", "4"]);
    let net = gsr_datagen::io::load_network(std::path::Path::new(&fx.files.net_path)).unwrap();
    let prep = PreparedNetwork::new(net);
    let snap_path = std::path::Path::new(&fx.files.snap_path);
    // Each client publishes its answer count with `Release`; the reloader
    // reads it with `Acquire`. `done` pairs the same way the other way.
    let answered: [AtomicU64; CLIENTS] = Default::default();
    let wrong = AtomicU64::new(0);
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for (client, answered) in answered.iter().enumerate() {
            let queries = oracle_lines(&prep, client as u32 * 31);
            let (wrong, done) = (&wrong, &done);
            scope.spawn(move || {
                let (mut reader, mut stream) = connect(fx.addr);
                for (line, expect) in queries.iter().cycle() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    stream.write_all(line.as_bytes()).unwrap();
                    if read_line(&mut reader) != *expect {
                        wrong.fetch_add(1, Ordering::Relaxed);
                    }
                    answered.fetch_add(1, Ordering::Release);
                }
            });
        }

        let (mut reader, mut stream) = connect(fx.addr);
        let mut reload = |path: &std::path::Path| {
            let seen: Vec<u64> = answered.iter().map(|a| a.load(Ordering::Acquire)).collect();
            let started = Instant::now();
            while answered.iter().zip(&seen).any(|(a, &s)| a.load(Ordering::Acquire) <= s) {
                assert!(started.elapsed() < Duration::from_secs(30), "a client stopped");
                std::thread::yield_now();
            }
            stream.write_all(format!("RELOAD {}\n", path.display()).as_bytes()).unwrap();
            read_line(&mut reader)
        };
        for r in 0..RELOADS {
            let reply = reload(snap_path);
            assert!(reply.starts_with("OK reload index_bytes="), "reload {r}: {reply}");
        }
        let refused = reload(std::path::Path::new("/nonexistent/never.snap"));
        assert!(refused.starts_with("ERR 3 "), "a missing snapshot is a load error: {refused}");
        done.store(true, Ordering::Release);
    });

    assert_eq!(wrong.load(Ordering::Relaxed), 0, "answers changed under RELOAD");
    let (mut reader, mut stream) = connect(fx.addr);
    stream.write_all(b"STATS\n").unwrap();
    let stats = read_line(&mut reader);
    let served: u64 = answered.iter().map(|a| a.load(Ordering::Relaxed)).sum();
    assert_eq!(stat_field(&stats, "queries"), served, "{stats}");
    assert_eq!(stat_field(&stats, "reloads"), RELOADS, "{stats}");
    assert_eq!(stat_field(&stats, "errors"), 1, "only the missing snapshot failed: {stats}");

    shutdown_and_join(fx);
}

fn shutdown_and_join(fx: ServeFixture) {
    let (mut reader, mut stream) = connect(fx.addr);
    stream.write_all(b"SHUTDOWN\n").unwrap();
    assert_eq!(read_line(&mut reader), "OK shutdown");
    fx.thread.join().expect("serve thread must exit cleanly after SHUTDOWN");
    let text = fx.out.contents();
    assert!(text.contains("server stopped"), "{text}");
    // Startup logging: `serve --load` announces how the snapshot loaded
    // (format, mapping) and its time-to-first-query.
    let format = format!("format v{}", gsr_store::FORMAT_VERSION);
    assert!(text.contains("loaded ") && text.contains(&format), "{text}");
    assert!(text.contains("ready to serve in "), "{text}");
}

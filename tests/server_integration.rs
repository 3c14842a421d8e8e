//! End-to-end tests of the TCP query service: the real `gsr serve` code
//! path (CLI layer included) on a loopback socket, exercised by concurrent
//! pipelining clients, malformed input, per-request budgets and a graceful
//! `SHUTDOWN`.

use gsr_cli::{exit_code, parse_args, run};
use gsr_core::methods::ThreeDReach;
use gsr_core::{RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::faults::ScratchDir;
use gsr_server::{QueryServer, ServerConfig, StopHandle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
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

/// Generates a network, snapshots one method, and starts `gsr serve` on a
/// loopback port in a background thread. Returns the address, the serve
/// thread handle, its shared output, and the network path for oracle use.
struct ServeFixture {
    addr: SocketAddr,
    out: SharedBuf,
    thread: std::thread::JoinHandle<()>,
    dir: ScratchDir,
    net_path: String,
}

fn start_serve(tag: &str, extra: &[&str]) -> ServeFixture {
    let dir = ScratchDir::new(&format!("gsr_server_integration_{tag}")).unwrap();
    let net = dir.path().join("net.gsr");
    let snap = dir.path().join("idx.snap");
    let net_path = net.to_string_lossy().to_string();
    let snap_path = snap.to_string_lossy().to_string();

    run(
        parse_args(&args(&[
            "generate", "--preset", "yelp", "--scale", "0.02", "--out", &net_path,
        ]))
        .unwrap(),
        &mut Vec::new(),
    )
    .unwrap();
    run(
        parse_args(&args(&[
            "build", &net_path, "--method", "3dreach", "--save", &snap_path,
        ]))
        .unwrap(),
        &mut Vec::new(),
    )
    .unwrap();

    let mut serve_args =
        vec!["serve", "--load", &snap_path, "--port", "0", "--threads", "2"];
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
    ServeFixture { addr, out, thread, dir, net_path }
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
fn concurrent_pipelined_clients_get_correct_ordered_replies() {
    let fx = start_serve("concurrent", &[]);

    // Oracle: the same method built fresh from the same network.
    let net = gsr_datagen::io::load_network(std::path::Path::new(&fx.net_path)).unwrap();
    let prep = gsr_core::PreparedNetwork::new(net);
    let oracle = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
    let n = prep.network().num_vertices() as u32;
    let space = prep.space();

    std::thread::scope(|scope| {
        for client in 0..4u32 {
            let oracle = &oracle;
            let space = &space;
            scope.spawn(move || {
                let (mut reader, mut stream) = connect(fx.addr);
                // Pipeline a full batch before reading anything.
                let queries: Vec<(u32, gsr_geo::Rect)> = (0..25)
                    .map(|i| {
                        let v = (client * 31 + i * 7) % n;
                        let w = space.width() * (0.05 + 0.2 * ((i % 5) as f64));
                        let x = space.min_x + (i as f64 / 25.0) * space.width();
                        let y = space.min_y + ((i * 13 % 25) as f64 / 25.0) * space.height();
                        (v, gsr_geo::Rect { min_x: x, min_y: y, max_x: x + w, max_y: y + w })
                    })
                    .collect();
                let mut request = String::new();
                for (v, r) in &queries {
                    request.push_str(&format!(
                        "REACH {v} {} {} {} {}\n",
                        r.min_x, r.min_y, r.max_x, r.max_y
                    ));
                }
                stream.write_all(request.as_bytes()).unwrap();

                for (v, r) in &queries {
                    let reply = read_line(&mut reader);
                    let expect = if oracle.query(*v, r) { "TRUE" } else { "FALSE" };
                    assert_eq!(reply, expect, "client {client}: v={v} r={r}");
                }
            });
        }
    });

    shutdown_and_join(fx);
}

/// The result cache must be invisible to clients (answers identical to a
/// fresh uncached index) while its counters show up in `STATS`.
#[test]
fn cached_server_agrees_with_oracle_under_concurrent_clients() {
    let fx = start_serve("cache", &["--cache-entries", "256"]);

    let net = gsr_datagen::io::load_network(std::path::Path::new(&fx.net_path)).unwrap();
    let prep = gsr_core::PreparedNetwork::new(net);
    let oracle = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
    let n = prep.network().num_vertices() as u32;
    let space = prep.space();

    // All clients pipeline the SAME 25 queries twice, so every later probe
    // of a key the sub-batch already answered can be served by the cache.
    let queries: Vec<(u32, gsr_geo::Rect)> = (0..25)
        .map(|i| {
            let v = (i * 7) % n;
            let w = space.width() * (0.05 + 0.2 * ((i % 5) as f64));
            let x = space.min_x + (i as f64 / 25.0) * space.width();
            let y = space.min_y + ((i * 13 % 25) as f64 / 25.0) * space.height();
            (v, gsr_geo::Rect { min_x: x, min_y: y, max_x: x + w, max_y: y + w })
        })
        .collect();

    std::thread::scope(|scope| {
        for client in 0..4u32 {
            let oracle = &oracle;
            let queries = &queries;
            scope.spawn(move || {
                let (mut reader, mut stream) = connect(fx.addr);
                let mut request = String::new();
                for (v, r) in queries.iter().chain(queries) {
                    request.push_str(&format!(
                        "REACH {v} {} {} {} {}\n",
                        r.min_x, r.min_y, r.max_x, r.max_y
                    ));
                }
                stream.write_all(request.as_bytes()).unwrap();
                for (v, r) in queries.iter().chain(queries) {
                    let reply = read_line(&mut reader);
                    let expect = if oracle.query(*v, r) { "TRUE" } else { "FALSE" };
                    assert_eq!(reply, expect, "client {client}: v={v} r={r}");
                }
            });
        }
    });

    // Every valid REACH probes the cache exactly once: 4 clients x 50.
    let (mut reader, mut stream) = connect(fx.addr);
    stream.write_all(b"STATS\n").unwrap();
    let stats = read_line(&mut reader);
    let field = |name: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("{name} missing from {stats}"))
            .parse()
            .unwrap()
    };
    assert_eq!(field("cache_hits") + field("cache_misses"), 200, "{stats}");
    assert!(field("cache_hits") > 0, "repeated queries must hit: {stats}");
    assert!(field("cache_misses") >= 25, "each distinct key misses once: {stats}");
    assert_eq!(field("cache_evictions"), 0, "256 entries fit 25 keys: {stats}");
    assert_eq!(field("errors"), 0, "{stats}");

    shutdown_and_join(fx);
}

#[test]
fn malformed_and_out_of_range_requests_get_protocol_errors() {
    let fx = start_serve("errors", &[]);
    let (mut reader, mut stream) = connect(fx.addr);

    stream
        .write_all(
            b"REACH 0 0 0 1 1\n\
              FETCH 1\n\
              REACH not-a-vertex 0 0 1 1\n\
              REACH 99999999 0 0 1 1\n\
              REACH 0 5 5 1 1\n\
              REACH 0 NaN 0 1 1\n\
              \n\
              STATS\n",
        )
        .unwrap();

    let first = read_line(&mut reader);
    assert!(first == "TRUE" || first == "FALSE", "{first}");
    assert!(read_line(&mut reader).starts_with("ERR 2 unknown command"));
    assert!(read_line(&mut reader).starts_with("ERR 2 REACH: vertex id"));
    assert!(read_line(&mut reader).starts_with("ERR 4 invalid query vertex"));
    assert!(read_line(&mut reader).starts_with("ERR 4 invalid query rectangle"));
    assert!(read_line(&mut reader).starts_with("ERR 4 invalid query rectangle"));
    let stats = read_line(&mut reader);
    assert!(stats.starts_with("STATS queries="), "{stats}");
    // 4 REACH lines became queries (1 answer + 3 query errors); 2 were
    // protocol errors; the blank line was ignored.
    assert!(stats.contains("queries=4"), "{stats}");
    assert!(stats.contains("errors=5"), "{stats}");

    shutdown_and_join(fx);
}

/// `STATS` must report the full percentile set including `p999_us`, and
/// `RESET` must zero the counters (including the cache tallies) while
/// leaving the loaded index and the cached entries untouched. Argument
/// validation matches the other no-argument commands.
#[test]
fn stats_reports_p999_and_reset_zeroes_counters_but_not_the_index() {
    let fx = start_serve("reset", &["--cache-entries", "64"]);
    let (mut reader, mut stream) = connect(fx.addr);

    // Two separate flushes: the second probe of the same query must be
    // served from the cache populated by the first.
    stream.write_all(b"REACH 0 0 0 1 1\n").unwrap();
    let first = read_line(&mut reader);
    assert!(first == "TRUE" || first == "FALSE", "{first}");
    stream.write_all(b"REACH 0 0 0 1 1\nFETCH\nSTATS\n").unwrap();
    assert_eq!(read_line(&mut reader), first, "second probe is the cached answer");
    assert!(read_line(&mut reader).starts_with("ERR 2 unknown command"));
    let stats = read_line(&mut reader);
    assert!(stats.contains("queries=2"), "{stats}");
    assert!(stats.contains("errors=1"), "{stats}");
    assert!(stats.contains(" p999_us="), "STATS must report p999: {stats}");
    assert!(stats.contains("cache_hits=1"), "{stats}");
    assert!(stats.contains("cache_misses=1"), "{stats}");
    let index_bytes = stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("index_bytes="))
        .unwrap()
        .parse::<u64>()
        .unwrap();
    assert!(index_bytes > 0, "{stats}");
    // Restart-cost fields: the server was started from a snapshot, so
    // STATS must carry the load time and wire-format version.
    assert!(stats.contains(" load_ms="), "STATS must report load_ms: {stats}");
    assert!(
        stats.contains(&format!("snapshot_format={}", gsr_store::FORMAT_VERSION)),
        "STATS must report the served snapshot's format: {stats}"
    );

    // RESET takes no arguments, like STATS and SHUTDOWN.
    stream.write_all(b"RESET now\n").unwrap();
    assert!(read_line(&mut reader).starts_with("ERR 2 RESET takes no arguments"));

    stream.write_all(b"RESET\nSTATS\n").unwrap();
    assert_eq!(read_line(&mut reader), "OK reset");
    let stats = read_line(&mut reader);
    assert!(
        stats.contains("queries=0 errors=0 p50_us=0 p99_us=0 p999_us=0"),
        "RESET must zero counters and the histogram: {stats}"
    );
    assert!(stats.contains("cache_hits=0"), "{stats}");
    assert!(stats.contains("cache_misses=0"), "{stats}");
    assert!(
        stats.contains(&format!("index_bytes={index_bytes}")),
        "RESET must not touch the loaded index: {stats}"
    );
    assert!(
        stats.contains(&format!("snapshot_format={}", gsr_store::FORMAT_VERSION)),
        "RESET must not wipe the restart-cost fields: {stats}"
    );

    // The index still answers, and the cached entry survived the reset.
    stream.write_all(b"REACH 0 0 0 1 1\nSTATS\n").unwrap();
    assert_eq!(read_line(&mut reader), first, "index must answer as before the RESET");
    let stats = read_line(&mut reader);
    assert!(stats.contains("queries=1"), "{stats}");
    assert!(stats.contains("cache_hits=1"), "cached entries survive RESET: {stats}");
    assert!(stats.contains("cache_misses=0"), "{stats}");

    shutdown_and_join(fx);
}

#[test]
fn zero_budget_times_out_every_query() {
    let fx = start_serve("budget", &["--budget-ms", "0"]);
    let (mut reader, mut stream) = connect(fx.addr);

    stream.write_all(b"REACH 0 0 0 1 1\nREACH 1 0 0 1 1\n").unwrap();
    for _ in 0..2 {
        let reply = read_line(&mut reader);
        assert!(reply.starts_with("ERR 5 time budget of 0 ms exceeded"), "{reply}");
    }
    shutdown_and_join(fx);
}

#[test]
fn serve_with_a_corrupt_snapshot_is_a_load_error_exit() {
    let dir = ScratchDir::new("gsr_server_integration_corrupt").unwrap();
    let snap = dir.path().join("bad.snap");
    std::fs::write(&snap, b"GSRSNAP\0garbage").unwrap();
    let snap_path = snap.to_string_lossy().to_string();

    let e = run(
        parse_args(&args(&["serve", "--load", &snap_path])).unwrap(),
        &mut Vec::new(),
    )
    .unwrap_err();
    assert_eq!(exit_code(e.as_ref()), 3, "{e}");

    // A file of a retired format is refused by number, with the same exit.
    let mut retired = gsr_store::MAGIC.to_vec();
    retired.extend_from_slice(&5u32.to_le_bytes());
    retired.resize(4096, 0);
    std::fs::write(&snap, &retired).unwrap();
    let e = run(
        parse_args(&args(&["serve", "--load", &snap_path])).unwrap(),
        &mut Vec::new(),
    )
    .unwrap_err();
    assert_eq!(exit_code(e.as_ref()), 3, "{e}");
    assert!(e.to_string().contains("unsupported format version 5 "), "{e}");
}

/// A [`QueryServer`] over the paper example, run on a thread of this
/// process on an OS-assigned port. Dataset `default` is the example itself;
/// `void` is the same graph with every point stripped (all queries FALSE).
struct InProcess {
    addr: SocketAddr,
    stop: StopHandle,
    thread: std::thread::JoinHandle<()>,
}

fn start_in_process(config: ServerConfig) -> InProcess {
    let prep = gsr_core::paper_example::prepared();
    let net = gsr_core::paper_example::network();
    let stripped =
        gsr_core::GeosocialNetwork::new(net.graph().clone(), vec![None; net.num_vertices()])
            .unwrap();
    let void_prep = gsr_core::PreparedNetwork::new(stripped);
    let indexes: Vec<(String, Arc<dyn RangeReachIndex>)> = vec![
        ("default".into(), Arc::new(ThreeDReach::build(&prep, SccSpatialPolicy::Replicate))),
        ("void".into(), Arc::new(ThreeDReach::build(&void_prep, SccSpatialPolicy::Replicate))),
    ];
    let server = QueryServer::bind_many(("127.0.0.1", 0), indexes, config).unwrap();
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
/// never silent for long — still runs into the line cap.
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
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(read_line(&mut reader), "ERR 2 line too long (max 32 bytes)");

    server.stop_and_join();
}

/// One request line of the fragmentation property's corpus, rendered from
/// its kind and its position in the pipeline.
fn corpus_line(kind: u8, i: usize) -> Vec<u8> {
    let v = i % 12;
    let (x, y) = ((i % 13) as f64 * 0.75, (i % 11) as f64 * 1.25);
    let reach = format!("REACH {v} {x} {y} {} {}", x + 4.5, y + 4.25);
    match kind {
        // Most lines are queries, so flushes are mostly batches.
        0..=7 => format!("{reach}\n").into_bytes(),
        8 => format!("{reach}\r\n").into_bytes(),
        9 => format!("  reach {v} 0 0 16 16  \n").into_bytes(),
        10 => b"REACH 9999 0 0 1 1\n".to_vec(),
        11 => b"REACH 0 5 5 1 1\n".to_vec(),
        12 => b"REACH 0 NaN 0 1 1\r\n".to_vec(),
        13 => b"REACH nope\n".to_vec(),
        14 => b"REACH 1 2\n".to_vec(),
        15 => b"FETCH 1\n".to_vec(),
        16 => b"F\xffTCH \xc3\x28\n".to_vec(),
        17 => b"REACH 0 0 0 \xf0\x9f 1\r\n".to_vec(),
        18 => b"USE void\n".to_vec(),
        19 => b"USE default\r\n".to_vec(),
        20 => b"USE nope\n".to_vec(),
        21 => b"STATS\n".to_vec(),
        22 => b"STATS now\n".to_vec(),
        23 => b"\n".to_vec(),
        _ => b"  \r\n".to_vec(),
    }
}

const CORPUS_KINDS: u8 = 25;

/// Whether a corpus line is answered at all (blank lines are not).
fn is_answered(line: &[u8]) -> bool {
    !line.iter().all(u8::is_ascii_whitespace)
}

/// Sends `lines` cut into the fragments that end at `cuts` (ascending byte
/// offsets into the concatenated pipeline), reading after each fragment the
/// reply of every line completed so far — so the server has served one
/// fragment before it gets the next — then half-closes and returns every
/// reply byte up to EOF.
fn replies_to_fragments(addr: SocketAddr, lines: &[Vec<u8>], cuts: &[usize]) -> Vec<u8> {
    let pipeline: Vec<u8> = lines.concat();
    // For every line, the offset just past its newline, if it is answered.
    let mut end = 0;
    let answered_ends: Vec<usize> = lines
        .iter()
        .filter_map(|line| {
            end += line.len();
            is_answered(line).then_some(end)
        })
        .collect();

    let (mut reader, mut stream) = connect(addr);
    stream.set_nodelay(true).unwrap();
    let mut replies = Vec::new();
    let (mut sent, mut read) = (0, 0);
    for &cut in cuts.iter().chain([&pipeline.len()]) {
        let cut = cut.min(pipeline.len());
        if cut <= sent {
            continue;
        }
        stream.write_all(&pipeline[sent..cut]).unwrap();
        sent = cut;
        while read < answered_ends.len() && answered_ends[read] <= sent {
            let n = reader.read_until(b'\n', &mut replies).unwrap();
            assert!(n > 0, "connection closed with {} replies still owed", answered_ends.len() - read);
            read += 1;
        }
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    reader.read_to_end(&mut replies).unwrap();
    replies
}

/// Blanks the three `STATS` fields that are timings; everything else in a
/// reply stream is a function of the request lines alone.
fn without_latencies(replies: &[u8]) -> String {
    String::from_utf8_lossy(replies)
        .split_inclusive('\n')
        .map(|line| {
            if !line.starts_with("STATS ") {
                return line.to_string();
            }
            let kept: Vec<&str> = line
                .split_whitespace()
                .filter(|kv| !["p50_us=", "p99_us=", "p999_us="].iter().any(|p| kv.starts_with(p)))
                .collect();
            kept.join(" ") + "\n"
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// However a pipeline is cut into writes — single bytes, cuts one
    /// either side of the old 4 KiB read size and of the 64 KiB read buffer
    /// — its replies are those of the same lines sent one at a time: the
    /// read buffer's compaction, its growth for nothing here, the in-place
    /// line split, the per-line UTF-8 fallback and the batch boundaries are
    /// all invisible in the bytes a client reads.
    #[test]
    fn replies_do_not_depend_on_how_a_pipeline_is_fragmented(
        corpus_seed in any::<u64>(),
        random_cuts in prop::collection::vec(1usize..70_000, 0..24),
        single_bytes_from in 0usize..66_000,
    ) {
        // `RESET` first: the counters `STATS` lines report then start from
        // zero in both runs. Then lines of random kinds until the pipeline
        // is past the last cut.
        let mut rng = StdRng::seed_from_u64(corpus_seed);
        let mut lines = vec![b"RESET\n".to_vec()];
        let mut total = 0;
        while total <= 70_000 {
            let line = corpus_line(rng.gen_range(0..CORPUS_KINDS), lines.len());
            total += line.len();
            lines.push(line);
        }

        let mut cuts = random_cuts.clone();
        cuts.extend([4_095, 4_096, 4_097, 65_535, 65_536, 65_537]);
        cuts.extend(single_bytes_from..single_bytes_from + 24);
        cuts.sort_unstable();

        let server = start_in_process(ServerConfig { threads: 1, ..ServerConfig::default() });
        let fragmented = replies_to_fragments(server.addr, &lines, &cuts);
        let mut end = 0;
        let line_ends: Vec<usize> = lines.iter().map(|l| { end += l.len(); end }).collect();
        let one_at_a_time = replies_to_fragments(server.addr, &lines, &line_ends);
        server.stop_and_join();

        let answered = lines.iter().filter(|l| is_answered(l)).count();
        prop_assert_eq!(one_at_a_time.iter().filter(|&&b| b == b'\n').count(), answered);
        prop_assert_eq!(without_latencies(&fragmented), without_latencies(&one_at_a_time));
    }
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

fn stat_field(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("{name} missing from {stats}"))
        .parse()
        .unwrap()
}

/// RESET zeroes counters but keeps both the index and the cached entries;
/// RELOAD swaps the index (here: the same snapshot, so answers must not
/// change) and *clears* the cache, so the next probe misses again. A
/// RELOAD of a missing path is a typed load error that leaves the old
/// index serving.
#[test]
fn reset_keeps_the_cache_where_reload_clears_it() {
    let fx = start_serve("reload", &["--cache-entries", "64"]);
    let snap_path = fx.dir.path().join("idx.snap").to_string_lossy().to_string();
    let (mut reader, mut stream) = connect(fx.addr);

    // Prime the cache, then RESET: the entry must survive.
    stream.write_all(b"REACH 0 0 0 1 1\n").unwrap();
    let first = read_line(&mut reader);
    assert!(first == "TRUE" || first == "FALSE", "{first}");
    stream.write_all(b"RESET\nREACH 0 0 0 1 1\nSTATS\n").unwrap();
    assert_eq!(read_line(&mut reader), "OK reset");
    assert_eq!(read_line(&mut reader), first);
    let stats = read_line(&mut reader);
    assert_eq!(stat_field(&stats, "cache_hits"), 1, "RESET keeps cache entries: {stats}");
    assert_eq!(stat_field(&stats, "reloads"), 0, "{stats}");
    let index_bytes = stat_field(&stats, "index_bytes");
    assert!(index_bytes > 0, "{stats}");

    // A RELOAD that cannot load is a typed load error; the old index and
    // the cache keep serving.
    stream.write_all(b"RELOAD /nonexistent/never.snap\nREACH 0 0 0 1 1\n").unwrap();
    assert!(read_line(&mut reader).starts_with("ERR 3 "), "missing snapshot is a load error");
    assert_eq!(read_line(&mut reader), first, "old index keeps serving after a failed RELOAD");

    // So is a file in a retired format (or one from the future): a header
    // of any version but the current one is refused at the prefix, by
    // number.
    for version in [1u32, 2, 3, 4, 5, 99] {
        let retired_path = fx.dir.path().join(format!("retired.v{version}.snap"));
        let mut retired = std::fs::read(&snap_path).unwrap();
        retired[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&retired_path, &retired).unwrap();
        stream
            .write_all(format!("RELOAD {}\nREACH 0 0 0 1 1\n", retired_path.display()).as_bytes())
            .unwrap();
        let refused = read_line(&mut reader);
        let named = refused.contains(&format!("unsupported format version {version} "));
        assert!(refused.starts_with("ERR 3 ") && named, "{refused}");
        assert_eq!(read_line(&mut reader), first, "old index keeps serving after a refused RELOAD");
    }

    // So is a well-framed snapshot (valid CRCs) whose R-tree has a leaf MBR
    // that no longer covers its entries: the arena checks refuse it.
    let shrunk_path = fx.dir.path().join("shrunk-mbr.snap");
    let mut shrunk = std::fs::read(&snap_path).unwrap();
    gsr_tests::shrink_last_leaf_mbr(&mut shrunk);
    std::fs::write(&shrunk_path, &shrunk).unwrap();
    stream
        .write_all(format!("RELOAD {}\nREACH 0 0 0 1 1\n", shrunk_path.display()).as_bytes())
        .unwrap();
    let refused = read_line(&mut reader);
    assert!(refused.starts_with("ERR 3 ") && refused.contains("outside its mbr"), "{refused}");
    assert_eq!(read_line(&mut reader), first, "old index keeps serving after a refused RELOAD");

    // And a shard-set directory in the retired layout (manifest version 1,
    // no shared file).
    let retired_set = fx.dir.path().join("retired.v1.shards");
    std::fs::create_dir_all(&retired_set).unwrap();
    let mut manifest = gsr_store::shard::SHARD_MAGIC.to_vec();
    manifest.extend_from_slice(&1u32.to_le_bytes());
    manifest.extend_from_slice(&[0u8; 16]);
    std::fs::write(retired_set.join(gsr_store::shard::SHARD_MANIFEST), &manifest).unwrap();
    stream
        .write_all(format!("RELOAD {}\nREACH 0 0 0 1 1\n", retired_set.display()).as_bytes())
        .unwrap();
    let refused = read_line(&mut reader);
    assert!(
        refused.starts_with("ERR 3 ") && refused.contains("shard manifest version 1 "),
        "{refused}"
    );
    assert_eq!(read_line(&mut reader), first, "old index keeps serving after a refused RELOAD");

    // And a shard set with one bit flipped in its *shared* file. A section
    // is checksummed when a structure first claims it, so the set is refused
    // by the section's name — by the loader, and by RELOAD.
    let flipped_set = fx.dir.path().join("flipped.shards");
    let flipped_set_path = flipped_set.to_string_lossy().to_string();
    let build = ["build", &fx.net_path, "--method", "3dreach", "--shards", "2", "--save", &flipped_set_path];
    run(parse_args(&args(&build)).unwrap(), &mut Vec::new()).unwrap();
    let shared = flipped_set.join(gsr_store::shard::read_manifest(&flipped_set).unwrap().shared);
    let mut bytes = std::fs::read(&shared).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01; // the last section: the label bytes, 0x51
    std::fs::write(&shared, &bytes).unwrap();
    let named = "section 0x51: crc mismatch";
    match gsr_store::load_served_index(&flipped_set, gsr_store::LoadOptions::default()) {
        Err(gsr_core::GsrError::Load(msg)) => assert!(msg.contains(named), "{msg}"),
        other => panic!("a flipped shared file loaded: {:?}", other.map(|(i, _)| i.name())),
    }
    stream
        .write_all(format!("RELOAD {flipped_set_path}\nREACH 0 0 0 1 1\n").as_bytes())
        .unwrap();
    let refused = read_line(&mut reader);
    assert!(refused.starts_with("ERR 3 ") && refused.contains(named), "{refused}");
    assert_eq!(read_line(&mut reader), first, "old index keeps serving after a refused RELOAD");

    // A real RELOAD swaps the index and clears the cache: the reload
    // counter advances, and the same query must re-miss afterwards.
    stream.write_all(format!("RELOAD {snap_path}\nSTATS\n").as_bytes()).unwrap();
    let reload = read_line(&mut reader);
    assert!(reload.starts_with("OK reload index_bytes="), "{reload}");
    assert!(
        reload.contains(" load_ms="),
        "RELOAD must report its time-to-first-query: {reload}"
    );
    let stats = read_line(&mut reader);
    assert_eq!(stat_field(&stats, "reloads"), 1, "{stats}");
    assert_eq!(
        stat_field(&stats, "snapshot_format"),
        gsr_store::FORMAT_VERSION as u64,
        "a successful RELOAD refreshes the restart-cost fields: {stats}"
    );
    let hits_before = stat_field(&stats, "cache_hits");
    let misses_before = stat_field(&stats, "cache_misses");
    stream.write_all(b"REACH 0 0 0 1 1\nSTATS\n").unwrap();
    assert_eq!(read_line(&mut reader), first, "the reloaded snapshot answers identically");
    let stats = read_line(&mut reader);
    assert_eq!(stat_field(&stats, "cache_hits"), hits_before, "RELOAD clears the cache: {stats}");
    assert_eq!(stat_field(&stats, "cache_misses"), misses_before + 1, "{stats}");
    assert_eq!(stat_field(&stats, "index_bytes"), index_bytes, "same snapshot, same size");

    shutdown_and_join(fx);
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

    shutdown_and_join(fx);
}

/// Connection-lifecycle limits through the CLI flags: an oversize line is
/// refused with `ERR 2` and a close, a blank-line flood is ignored without
/// counters moving, and a mid-pipeline disconnect still answers every
/// complete line plus one typed error for the torn tail — with `STATS`
/// reconciling the whole session exactly.
#[test]
fn lifecycle_limits_refuse_oversize_blank_and_torn_input() {
    let fx = start_serve("limits", &["--max-line", "64"]);

    // Oversize: refused, typed, closed.
    let (mut reader, mut stream) = connect(fx.addr);
    let long = format!("REACH {}\n", "9".repeat(200));
    stream.write_all(long.as_bytes()).unwrap();
    assert_eq!(read_line(&mut reader), "ERR 2 line too long (max 64 bytes)");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "oversize closes the connection");

    // Blank-line flood: ignored entirely; the connection stays usable.
    let (mut reader, mut stream) = connect(fx.addr);
    let flood = "\n".repeat(10_000);
    stream.write_all(flood.as_bytes()).unwrap();
    stream.write_all(b"REACH 0 0 0 1 1\n").unwrap();
    let answer = read_line(&mut reader);
    assert!(answer == "TRUE" || answer == "FALSE", "{answer}");
    drop((reader, stream));

    // Mid-pipeline disconnect: five complete queries plus a torn tail,
    // then a half-close. Every complete line answers; the tail is one
    // typed protocol error.
    let (mut reader, mut stream) = connect(fx.addr);
    let mut request = String::new();
    for v in 0..5 {
        request.push_str(&format!("REACH {v} 0 0 1 1\n"));
    }
    request.push_str("REACH 0 0 0"); // torn: no newline, wrong arity
    stream.write_all(request.as_bytes()).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        replies.push(line.trim_end().to_string());
    }
    assert_eq!(replies.len(), 6, "5 answers + 1 torn-tail error: {replies:?}");
    for (v, reply) in replies[..5].iter().enumerate() {
        assert!(reply == "TRUE" || reply == "FALSE", "query {v}: {reply}");
    }
    assert!(replies[5].starts_with("ERR 2 "), "torn tail must be typed: {}", replies[5]);

    // Exact reconciliation of the whole session: 1 (blank-flood probe)
    // + 5 (pipeline) queries; 1 oversize + 1 torn tail = 2 errors.
    let stats = stats_with_retry(fx.addr);
    assert_eq!(stat_field(&stats, "queries"), 6, "{stats}");
    assert_eq!(stat_field(&stats, "errors"), 2, "{stats}");
    assert_eq!(stat_field(&stats, "shed") + stat_field(&stats, "rejected"), 0, "{stats}");

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

//! The query protocol through socket-free sessions: batching and its
//! answers under concurrent sessions, the result cache, malformed input,
//! `STATS`/`RESET`, `RELOAD` refusals and the line limits, each driven
//! through [`Session::feed`] on an [`Engine`] without a socket.
//! `server_integration.rs` covers what only a socket has.

use gsr_core::methods::ThreeDReach;
use gsr_core::{PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_server::{Engine, LineAction, ServerConfig, Session};
use gsr_tests::{oracle_lines, paper_datasets, served_files, stat_field};
use std::sync::Arc;

/// Feeds `text` to `session` and returns its reply lines.
fn ask(session: &mut Session<'_>, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    session.feed(text.as_bytes(), &mut out);
    String::from_utf8(out).unwrap().lines().map(str::to_string).collect()
}

fn paper_engine(config: ServerConfig) -> Engine {
    Engine::new(paper_datasets(), config).unwrap()
}

/// Yelp's analog, in process, and an engine serving its 3DReach index.
fn yelp_engine(config: ServerConfig) -> (PreparedNetwork, Engine) {
    let prep = PreparedNetwork::new(gsr_datagen::NetworkSpec::yelp(0.02).generate());
    let index: Arc<dyn RangeReachIndex> =
        Arc::new(ThreeDReach::build(&prep, SccSpatialPolicy::Replicate));
    let engine = Engine::new(vec![("default".into(), index)], config).unwrap();
    (prep, engine)
}

#[test]
fn concurrent_pipelined_clients_get_correct_ordered_replies() {
    let (prep, engine) = yelp_engine(ServerConfig::default());
    std::thread::scope(|scope| {
        for client in 0..4u32 {
            let queries = oracle_lines(&prep, client * 31);
            let engine = &engine;
            scope.spawn(move || {
                // A full pipeline in one feed, answered in order.
                let request: String = queries.iter().map(|(line, _)| line.as_str()).collect();
                let replies = ask(&mut engine.session(), &request);
                let want: Vec<&str> = queries.iter().map(|(_, expect)| *expect).collect();
                assert_eq!(replies, want, "client {client}");
            });
        }
    });
}

/// The result cache must be invisible to clients (answers identical to the
/// oracle) while its counters show up in `STATS`.
#[test]
fn cached_server_agrees_with_oracle_under_concurrent_clients() {
    let (prep, engine) = yelp_engine(ServerConfig { cache_entries: 256, ..Default::default() });
    // All clients pipeline the SAME 25 queries twice, so every later probe
    // of a key the sub-batch already answered can be served by the cache.
    let queries = oracle_lines(&prep, 0);
    let request: String = queries.iter().chain(&queries).map(|(line, _)| line.as_str()).collect();
    let want: Vec<&str> = queries.iter().chain(&queries).map(|(_, expect)| *expect).collect();
    std::thread::scope(|scope| {
        for client in 0..4u32 {
            let (engine, request, want) = (&engine, &request, &want);
            scope.spawn(move || {
                assert_eq!(ask(&mut engine.session(), request), *want, "client {client}");
            });
        }
    });

    // Every valid REACH probes the cache exactly once: 4 clients x 50.
    let stats = ask(&mut engine.session(), "STATS\n").remove(0);
    let field = |name: &str| stat_field(&stats, name);
    assert_eq!(field("cache_hits") + field("cache_misses"), 200, "{stats}");
    assert!(field("cache_hits") > 0, "repeated queries must hit: {stats}");
    assert!(field("cache_misses") >= 25, "each distinct key misses once: {stats}");
    assert_eq!(field("cache_evictions"), 0, "256 entries fit 25 keys: {stats}");
    assert_eq!(field("errors"), 0, "{stats}");
}

#[test]
fn malformed_and_out_of_range_requests_get_protocol_errors() {
    let engine = paper_engine(ServerConfig::default());
    let replies = ask(
        &mut engine.session(),
        "REACH 0 0 0 1 1\nFETCH 1\nREACH not-a-vertex 0 0 1 1\nREACH 99999999 0 0 1 1\n\
         REACH 0 5 5 1 1\nREACH 0 NaN 0 1 1\n\nSTATS\n",
    );
    assert!(replies[0] == "TRUE" || replies[0] == "FALSE", "{}", replies[0]);
    assert!(replies[1].starts_with("ERR 2 unknown command"));
    assert!(replies[2].starts_with("ERR 2 REACH: vertex id"));
    assert!(replies[3].starts_with("ERR 4 invalid query vertex"));
    assert!(replies[4].starts_with("ERR 4 invalid query rectangle"));
    assert!(replies[5].starts_with("ERR 4 invalid query rectangle"));
    let stats = &replies[6];
    assert!(stats.starts_with("STATS queries="), "{stats}");
    // 4 REACH lines became queries (1 answer + 3 query errors); 2 were
    // protocol errors; the blank line was ignored.
    assert!(stats.contains("queries=4"), "{stats}");
    assert!(stats.contains("errors=5"), "{stats}");
}

/// `STATS` must report the full percentile set including `p999_us`, and
/// `RESET` must zero the counters (including the cache tallies) while
/// leaving the served index untouched. Argument validation matches the
/// other no-argument commands.
#[test]
fn stats_reports_p999_and_reset_zeroes_counters_but_not_the_index() {
    let engine = paper_engine(ServerConfig { cache_entries: 64, ..ServerConfig::default() });
    let mut session = engine.session();

    // Two separate feeds: the second probe of the same query must be
    // served from the cache populated by the first.
    let first = ask(&mut session, "REACH 0 0 0 1 1\n").remove(0);
    let replies = ask(&mut session, "REACH 0 0 0 1 1\nFETCH\nSTATS\n");
    assert_eq!(replies[0], first, "second probe is the cached answer");
    assert!(replies[1].starts_with("ERR 2 unknown command"));
    let stats = &replies[2];
    assert!(stats.contains("queries=2"), "{stats}");
    assert!(stats.contains("errors=1"), "{stats}");
    assert!(stats.contains(" p999_us="), "STATS must report p999: {stats}");
    assert!(stats.contains("cache_hits=1"), "{stats}");
    assert!(stats.contains("cache_misses=1"), "{stats}");
    let index_bytes = stat_field(stats, "index_bytes");
    assert!(index_bytes > 0, "{stats}");

    // RESET takes no arguments, like STATS and SHUTDOWN.
    assert!(ask(&mut session, "RESET now\n")[0].starts_with("ERR 2 RESET takes no arguments"));

    let replies = ask(&mut session, "RESET\nSTATS\n");
    assert_eq!(replies[0], "OK reset");
    let stats = &replies[1];
    assert!(
        stats.contains("queries=0 errors=0 p50_us=0 p99_us=0 p999_us=0"),
        "RESET must zero counters and the histogram: {stats}"
    );
    assert!(stats.contains("cache_hits=0"), "{stats}");
    assert!(stats.contains("cache_misses=0"), "{stats}");
    assert_eq!(stat_field(stats, "index_bytes"), index_bytes, "RESET must keep the index");
}

/// RESET zeroes counters but keeps both the index and the cached entries;
/// RELOAD swaps the index (here: the same snapshot, so answers must not
/// change) and *clears* the cache, so the next probe misses again. A
/// snapshot that cannot be loaded is a typed load error that leaves the old
/// index serving.
#[test]
fn reset_keeps_the_cache_where_reload_clears_it() {
    let files = served_files("reload");
    let (index, _) =
        gsr_store::load_served_index(&files.snap_path, gsr_store::LoadOptions::default()).unwrap();
    let config = ServerConfig { cache_entries: 64, ..ServerConfig::default() };
    let engine = Engine::new(vec![("default".into(), index)], config).unwrap();
    let mut session = engine.session();

    // Prime the cache, then RESET: the entry must survive.
    let first = ask(&mut session, "REACH 0 0 0 1 1\n").remove(0);
    assert!(first == "TRUE" || first == "FALSE", "{first}");
    let replies = ask(&mut session, "RESET\nREACH 0 0 0 1 1\nSTATS\n");
    assert_eq!(replies[..2], ["OK reset", first.as_str()]);
    assert_eq!(stat_field(&replies[2], "cache_hits"), 1, "RESET keeps cache entries");
    assert_eq!(stat_field(&replies[2], "reloads"), 0);
    let index_bytes = stat_field(&replies[2], "index_bytes");

    // Refused with a typed load error, by name, and the old index keeps
    // serving: a file in a retired format or one from the future (a header
    // of any version but the current one is refused at the prefix, by
    // number).
    let mut refuse = |path: &std::path::Path, named: &str| {
        let replies = ask(&mut session, &format!("RELOAD {}\nREACH 0 0 0 1 1\n", path.display()));
        assert!(replies[0].starts_with("ERR 3 ") && replies[0].contains(named), "{replies:?}");
        assert_eq!(replies[1], first, "old index keeps serving after a refused RELOAD");
    };
    for version in [1u32, 2, 3, 4, 5, 99] {
        let retired_path = files.dir.path().join(format!("retired.v{version}.snap"));
        let mut retired = std::fs::read(&files.snap_path).unwrap();
        retired[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&retired_path, &retired).unwrap();
        refuse(&retired_path, &format!("unsupported format version {version} "));
    }

    // So is a well-framed snapshot (valid CRCs) whose R-tree has a leaf MBR
    // that no longer covers its entries: the arena checks refuse it.
    let shrunk_path = files.dir.path().join("shrunk-mbr.snap");
    let mut shrunk = std::fs::read(&files.snap_path).unwrap();
    gsr_tests::shrink_last_leaf_mbr(&mut shrunk);
    std::fs::write(&shrunk_path, &shrunk).unwrap();
    refuse(&shrunk_path, "outside its mbr");

    // And a shard-set directory in the retired layout (manifest version 1,
    // no shared file).
    let retired_set = files.dir.path().join("retired.v1.shards");
    std::fs::create_dir_all(&retired_set).unwrap();
    let mut manifest = gsr_store::shard::SHARD_MAGIC.to_vec();
    manifest.extend_from_slice(&1u32.to_le_bytes());
    manifest.extend_from_slice(&[0u8; 16]);
    std::fs::write(retired_set.join(gsr_store::shard::SHARD_MANIFEST), &manifest).unwrap();
    refuse(&retired_set, "shard manifest version 1 ");

    // And a shard set with one bit flipped in its *shared* file. A section
    // is checksummed when a structure first claims it, so the set is refused
    // by the section's name — by the loader, and by RELOAD.
    let flipped_set = files.dir.path().join("flipped.shards");
    let flipped = flipped_set.to_string_lossy().to_string();
    let build =
        ["build", &files.net_path, "--method", "3dreach", "--shards", "2", "--save", &flipped];
    let build: Vec<String> = build.iter().map(|a| a.to_string()).collect();
    gsr_cli::run(gsr_cli::parse_args(&build).unwrap(), &mut Vec::new()).unwrap();
    let shared = flipped_set.join(gsr_store::shard::read_manifest(&flipped_set).unwrap().shared);
    let mut bytes = std::fs::read(&shared).unwrap();
    *bytes.last_mut().unwrap() ^= 0x01; // the last section: the label bytes, 0x51
    std::fs::write(&shared, &bytes).unwrap();
    let named = "section 0x51: crc mismatch";
    match gsr_store::load_served_index(&flipped_set, gsr_store::LoadOptions::default()) {
        Err(gsr_core::GsrError::Load(msg)) => assert!(msg.contains(named), "{msg}"),
        other => panic!("a flipped shared file loaded: {:?}", other.map(|(i, _)| i.name())),
    }
    refuse(&flipped_set, named);

    // A real RELOAD swaps the index and clears the cache: the reload
    // counter advances, and the same query must re-miss afterwards.
    let replies = ask(&mut session, &format!("RELOAD {}\nSTATS\n", files.snap_path));
    assert!(replies[0].starts_with("OK reload index_bytes="), "{}", replies[0]);
    assert!(replies[0].contains(" load_ms="), "RELOAD must report its time: {}", replies[0]);
    let stats = &replies[1];
    assert_eq!(stat_field(stats, "reloads"), 1, "{stats}");
    assert_eq!(
        stat_field(stats, "snapshot_format"),
        gsr_store::FORMAT_VERSION as u64,
        "a successful RELOAD refreshes the restart-cost fields: {stats}"
    );
    let (hits_before, misses_before) =
        (stat_field(stats, "cache_hits"), stat_field(stats, "cache_misses"));
    let replies = ask(&mut session, "REACH 0 0 0 1 1\nSTATS\n");
    assert_eq!(replies[0], first, "the reloaded snapshot answers identically");
    let stats = &replies[1];
    assert_eq!(stat_field(stats, "cache_hits"), hits_before, "RELOAD clears the cache: {stats}");
    assert_eq!(stat_field(stats, "cache_misses"), misses_before + 1, "{stats}");
    assert_eq!(stat_field(stats, "index_bytes"), index_bytes, "same snapshot, same size");
}

/// Connection-lifecycle limits: an oversize line is refused with `ERR 2`
/// and a close, and so is a slow-loris line that is never finished; a
/// blank-line flood is ignored without counters moving; and a
/// mid-pipeline disconnect still answers every complete line plus one
/// typed error for the torn tail — with `STATS` reconciling it all.
#[test]
fn lifecycle_limits_refuse_oversize_blank_and_torn_input() {
    let engine = paper_engine(ServerConfig { max_line: 64, ..ServerConfig::default() });
    let mut out = Vec::new();

    // Oversize: refused, typed, closed.
    let long = format!("REACH {}\n", "9".repeat(200));
    assert_eq!(engine.session().feed(long.as_bytes(), &mut out), LineAction::Close);
    assert_eq!(out, b"ERR 2 line too long (max 64 bytes)\n");

    // A dribbler, one byte per feed, is refused the byte its line passes
    // the cap, with no newline yet.
    let mut session = engine.session();
    out.clear();
    let dribbled = (1..=65).take_while(|_| session.feed(b"a", &mut out) == LineAction::Continue);
    assert_eq!(dribbled.count(), 64);
    assert_eq!(out, b"ERR 2 line too long (max 64 bytes)\n");

    // Blank-line flood: ignored entirely; the session stays usable.
    let mut session = engine.session();
    out.clear();
    assert_eq!(session.feed("\n".repeat(10_000).as_bytes(), &mut out), LineAction::Continue);
    assert!(out.is_empty());
    let answer = ask(&mut session, "REACH 0 0 0 1 1\n").remove(0);
    assert!(answer == "TRUE" || answer == "FALSE", "{answer}");

    // Mid-pipeline disconnect: five complete queries plus a torn tail.
    // Every complete line answers; at EOF the tail is one typed protocol
    // error.
    let mut session = engine.session();
    let mut request: String = (0..5).map(|v| format!("REACH {v} 0 0 1 1\n")).collect();
    request.push_str("REACH 0 0 0"); // torn: no newline, wrong arity
    let mut replies = ask(&mut session, &request);
    out.clear();
    assert_eq!(session.finish(&mut out), LineAction::Continue);
    replies.extend(String::from_utf8(out).unwrap().lines().map(str::to_string));
    assert_eq!(replies.len(), 6, "5 answers + 1 torn-tail error: {replies:?}");
    for (v, reply) in replies[..5].iter().enumerate() {
        assert!(reply == "TRUE" || reply == "FALSE", "query {v}: {reply}");
    }
    assert!(replies[5].starts_with("ERR 2 "), "torn tail must be typed: {}", replies[5]);

    // Exact reconciliation: 1 (blank-flood probe) + 5 (pipeline) queries;
    // 1 oversize + 1 dribbler + 1 torn tail = 3 errors.
    let stats = ask(&mut engine.session(), "STATS\n").remove(0);
    assert_eq!(stat_field(&stats, "queries"), 6, "{stats}");
    assert_eq!(stat_field(&stats, "errors"), 3, "{stats}");
    assert_eq!(stat_field(&stats, "shed") + stat_field(&stats, "rejected"), 0, "{stats}");
}

//! Per-layer probes of a traced run: every layer timed from outside, through
//! the public function the layers above call it through, on the workload's
//! own network and request stream. Layer = crate name.

use crate::client::TracedRequest;
use crate::inputs::Plan;
use crate::measure::{median, ms};
use crate::trace::NONE;
use crate::Ctx;
use gsr_core::{BatchExecutor, PreparedNetwork, RangeReachIndex};
use gsr_geo::Aabb;
use gsr_graph::{HeapBytes, VertexId};
use gsr_index::RTree;
use gsr_reach::bfl::BflIndex;
use gsr_reach::compact::CompactLabels;
use gsr_reach::interval::IntervalLabeling;
use gsr_reach::Reachability;
use gsr_server::proto::{parse_line, Request};
use gsr_server::ResultCache;
use gsr_store::LoadOptions;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Input<'a> {
    pub prep: &'a PreparedNetwork,
    /// The index under test (the reference index on `embed_sharded`).
    pub index: &'a dyn RangeReachIndex,
    pub plan: &'a Plan,
    /// A plain snapshot of `index`.
    pub snapshot: &'a Path,
    /// Capacity of the cache the replay probes (the served cache's, where
    /// the workload has one).
    pub cache_entries: usize,
}

/// How long each tight-loop probe runs.
const PROBE: Duration = Duration::from_millis(60);

/// Nanoseconds per call of `f` over `items`, cycling for [`PROBE`].
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for item in items {
            f(item);
        }
        calls += items.len() as u64;
        let elapsed = start.elapsed();
        if elapsed >= PROBE {
            return elapsed.as_nanos() as f64 / calls as f64;
        }
    }
}

pub fn probe(ctx: &mut Ctx, input: &Input<'_>) -> Result<(), String> {
    let net = input.prep.network();
    let (queries, _) = input.plan.stream_queries();
    let queries = &queries[..queries.len().min(1 << 16)];

    // datagen: the text round trip `gsr build FILE` starts with.
    let mut text = Vec::new();
    let (back, d) = ctx.tracer.timed("datagen.read_network", NONE, || {
        gsr_datagen::io::write_network(net, &mut text).map_err(|e| e.to_string())?;
        gsr_datagen::io::read_network(&text[..]).map_err(|e| e.to_string())
    });
    if back?.num_vertices() != net.num_vertices() {
        return Err("network text round trip changed the vertex count".into());
    }
    drop(text);
    ctx.report.set("datagen.read_network_ms", ms(d), "ms");

    // reach: the three labelings the methods are built on, and their probes
    // between the components of the query vertices and of random venues.
    let dag = input.prep.dag();
    let (labeling, d) = ctx.tracer.timed("reach.interval_build", NONE, || {
        IntervalLabeling::build(dag)
    });
    ctx.report.set("reach.interval_build_ms", ms(d), "ms");
    let (compact, d) = ctx.tracer.timed("reach.compact_build", NONE, || {
        CompactLabels::from_labeling(&labeling)
    });
    ctx.report.set("reach.compact_build_ms", ms(d), "ms");
    let (bfl, d) = ctx
        .tracer
        .timed("reach.bfl_build", NONE, || BflIndex::build(dag));
    ctx.report.set("reach.bfl_build_ms", ms(d), "ms");
    ctx.report
        .set("reach.label_bytes", compact.heap_bytes() as f64, "B");
    let venues: Vec<VertexId> = net.spatial_vertices().map(|(v, _)| v).collect();
    let pairs: Vec<(u32, u32)> = queries
        .iter()
        .enumerate()
        .map(|(i, (v, _))| {
            let venue = venues[i.wrapping_mul(0x9E37_79B1) % venues.len()];
            (input.prep.comp(*v), input.prep.comp(venue))
        })
        .collect();
    let covers = ns_per_call(&pairs, |(from, to)| {
        black_box(compact.covers_post(*from, labeling.post(*to)));
    });
    ctx.report.set("reach.covers_post_ns", covers, "ns");
    let reaches = ns_per_call(&pairs, |(from, to)| {
        black_box(bfl.reaches(*from, *to));
    });
    ctx.report.set("reach.bfl_reaches_ns", reaches, "ns");
    drop((labeling, compact, bfl));

    // index: the 2-D R-tree over the venues, probed with the workload rects.
    let entries: Vec<(Aabb<2>, ())> = net
        .spatial_vertices()
        .map(|(_, p)| (Aabb::from_point([p.x, p.y]), ()))
        .collect();
    let (tree, d) = ctx
        .tracer
        .timed("index.rtree_bulk_load", NONE, || RTree::bulk_load(entries));
    ctx.report.set("index.rtree_bulk_load_ms", ms(d), "ms");
    ctx.report
        .set("index.rtree_nodes", tree.num_nodes() as f64, "count");
    ctx.report
        .set("index.rtree_bytes", tree.heap_bytes() as f64, "B");
    let mut stack = Vec::new();
    let exists = ns_per_call(queries, |(_, r)| {
        black_box(tree.query_exists_with(&Aabb::from(*r), &mut stack));
    });
    ctx.report.set("index.rtree_exists_ns", exists, "ns");
    drop(tree);

    // core: the batch path a pipelined flush takes inside the server.
    let exec = BatchExecutor::new(1);
    let batch = &queries[..queries.len().min(4096)];
    let per_query = ns_per_call(std::slice::from_ref(&batch), |b| {
        black_box(exec.run(input.index, b));
    }) / batch.len() as f64;
    ctx.report.set("core.batch_qps", 1e9 / per_query, "1/s");

    // store: the load a restart or RELOAD pays, with and without the CRC pass.
    let bytes = std::fs::metadata(input.snapshot)
        .map_err(|e| e.to_string())?
        .len();
    ctx.report.set("store.snapshot_bytes", bytes as f64, "B");
    let mut load = |trust: bool, span: &'static str| -> Result<f64, String> {
        let mut times = Vec::new();
        for _ in 0..5 {
            let (loaded, d) = ctx.tracer.timed(span, NONE, || {
                gsr_store::load_from_path_with(input.snapshot, LoadOptions { trust })
            });
            loaded.map_err(|e| e.to_string())?;
            times.push(ms(d));
        }
        Ok(median(&times))
    };
    let load_ms = load(false, "store.load")?;
    let trust_ms = load(true, "store.load_trust")?;
    ctx.report.set("store.load_ms", load_ms, "ms");
    ctx.report.set("store.load_trust_ms", trust_ms, "ms");
    ctx.report.set(
        "store.load_mb_per_s",
        bytes as f64 / 1e6 / (load_ms / 1e3),
        "MB/s",
    );

    // server: request parsing and the result cache, replaying the stream.
    let lines: Vec<&str> = input
        .plan
        .order
        .iter()
        .take(1 << 16)
        .map(|&i| {
            std::str::from_utf8(input.plan.line(i))
                .expect("request lines are ASCII")
                .trim_end()
        })
        .collect();
    let parse = ns_per_call(&lines, |l| {
        black_box(parse_line(l).ok());
    });
    ctx.report.set("server.parse_line_ns", parse, "ns");
    let warm = ResultCache::new(queries.len() * 2);
    for (v, r) in queries {
        warm.insert_at(0, *v, r, true);
    }
    let hit = ns_per_call(queries, |(v, r)| {
        black_box(warm.get_at(0, *v, r));
    });
    ctx.report.set("server.cache_hit_ns", hit, "ns");
    // A cold cache smaller than the key set: every probe misses, every
    // insert past the capacity evicts. A new epoch per round keeps it cold.
    let cold = ResultCache::new(input.cache_entries);
    let mut epoch = 0u64;
    let miss = ns_per_call(std::slice::from_ref(&queries), |qs| {
        epoch += 1;
        for (v, r) in qs.iter() {
            if cold.get_at(epoch, *v, r).is_none() {
                cold.insert_at(epoch, *v, r, true);
            }
        }
    }) / queries.len() as f64;
    ctx.report.set("server.cache_miss_insert_ns", miss, "ns");
    Ok(())
}

/// Replays each sampled request in-process, one `replay.request` span with a
/// child per step the server takes on it: parse, cache probe, index probe,
/// cache insert, reply formatting.
pub fn replay(
    ctx: &mut Ctx,
    plan: &Plan,
    index: &dyn RangeReachIndex,
    cache: Option<&ResultCache>,
    traced: &[TracedRequest],
) {
    let t = &mut ctx.tracer;
    let mut reply = String::with_capacity(64);
    for tr in traced {
        let line = std::str::from_utf8(plan.line(tr.pool_idx))
            .expect("request lines are ASCII")
            .trim_end();
        let root = t.open("replay.request", NONE, tr.k);
        let t0 = Instant::now();
        let parsed = parse_line(line);
        t.record("server.parse_line", t0, Instant::now(), root, tr.k);
        reply.clear();
        match parsed {
            Ok(Some(Request::Reach(v, r))) => {
                let cached = cache.and_then(|c| {
                    let t0 = Instant::now();
                    let hit = c.get_at(0, v, &r);
                    t.record("server.cache_get", t0, Instant::now(), root, tr.k);
                    hit
                });
                let answer = cached.map(Ok).unwrap_or_else(|| {
                    let t0 = Instant::now();
                    let answer = index.try_query(v, &r);
                    t.record("core.try_query", t0, Instant::now(), root, tr.k);
                    if let (Some(c), Ok(a)) = (cache, &answer) {
                        let t0 = Instant::now();
                        c.insert_at(0, v, &r, *a);
                        t.record("server.cache_insert", t0, Instant::now(), root, tr.k);
                    }
                    answer
                });
                let t0 = Instant::now();
                match answer {
                    Ok(true) => reply.push_str("TRUE\n"),
                    Ok(false) => reply.push_str("FALSE\n"),
                    Err(e) => reply.push_str(&format!("{}\n", gsr_server::proto::error_reply(&e))),
                }
                t.record("reply.format", t0, Instant::now(), root, tr.k);
            }
            other => {
                let t0 = Instant::now();
                let msg = other.err().unwrap_or_default();
                reply.push_str(&format!("ERR {} {msg}\n", gsr_server::proto::PROTOCOL_ERR));
                t.record("reply.format", t0, Instant::now(), root, tr.k);
            }
        }
        black_box(&reply);
        t.close(root);
    }
}

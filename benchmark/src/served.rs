//! The served workloads: a real `gsr serve` child process over loopback TCP.
//!
//! `serve_unique` keeps the kernel cheap (3DReach, no cache) so the server's
//! connection path does nearly all the work; `serve_skewed` keeps it
//! expensive (SpaReach-BFL behind the result cache, Zipf traffic, in-band
//! `RELOAD`s) so the cache and the heavy method's probe dominate.

use crate::client::{self, Client, Echo, PhaseOut, ServeChild, Tally};
use crate::embedded::{build_span, timed_pass, FOURSQUARE_SCALE, GOWALLA_SCALE};
use crate::inputs::{self, Plan};
use crate::measure::{due, median, ms, percentile, Good, Phase, Spread, SLICES};
use crate::trace::NONE;
use crate::{layers, nproc, Ctx, SetUp};
use gsr_core::{GeosocialNetwork, PreparedNetwork, RangeReachIndex};
use gsr_datagen::workload::WorkloadGen;
use gsr_server::ResultCache;
use gsr_store::SnapshotIndex;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub struct Spec {
    name: &'static str,
    gowalla: bool,
    method: &'static str,
    cache_entries: usize,
    /// Distinct valid queries in the pool.
    pool: usize,
    /// Zipf(1.0) draws over the pool plus 1 % invalid lines and in-band
    /// `RELOAD`s, instead of every query once.
    skewed: bool,
    /// Open-loop rates, requests per second; `lat_*` come from `rates[main_rate]`.
    rates: &'static [f64],
    main_rate: usize,
    /// Slices every phase is cut into.
    slices: usize,
}

pub const SERVE_UNIQUE: Spec = Spec {
    name: "serve_unique",
    gowalla: false,
    method: "3dreach",
    cache_entries: 0,
    pool: 200_000,
    skewed: false,
    rates: &[5_000.0, 20_000.0, 80_000.0],
    main_rate: 1,
    slices: SLICES,
};

pub const SERVE_SKEWED: Spec = Spec {
    name: "serve_skewed",
    gowalla: true,
    method: "spareach-bfl",
    cache_entries: 16_384,
    pool: 65_536,
    skewed: true,
    rates: &[4_000.0],
    main_rate: 0,
    // Half as many, twice as long: every saturate slice holds a `RELOAD`,
    // and the cache must have the time to fill again after it.
    slices: SLICES / 2,
};

/// Requests pipelined per connection and batch in a closed loop: enough that
/// the server's worker is busy nearly all the time. With 64 it idles a third
/// of each round trip waiting for the next batch, and `ops_per_s` measures the
/// wake-up latency between two cores of this machine — which moves by 25 %
/// for minutes at a time with where the host places them — not the server.
const WINDOW: usize = 1024;

/// A p99 above this at an open-loop step means the step is past the knee.
const KNEE_P99_US: f64 = 1000.0;

/// Connections, and `gsr serve --threads`: the server is worker per
/// connection, so more connections than workers would queue behind each
/// other, and the generator's one spinning thread needs a core of its own —
/// generator threads plus connections never exceed `nproc`.
fn connections() -> usize {
    nproc().saturating_sub(1).clamp(1, 2)
}

struct Setup {
    prep: PreparedNetwork,
    index: SnapshotIndex,
    plan: Plan,
    snapshot: PathBuf,
    child: ServeChild,
    build: Duration,
}

impl SetUp for Setup {
    fn build_time(&self) -> Duration {
        self.build
    }
    fn prepared(&self) -> &PreparedNetwork {
        &self.prep
    }
    fn plan(&self) -> &Plan {
        &self.plan
    }
}

fn make_plan(
    spec: &Spec,
    prep: &PreparedNetwork,
    oracle: &dyn RangeReachIndex,
    pool: usize,
    seed: u64,
) -> Plan {
    let gen = WorkloadGen::new(prep);
    let queries = inputs::paper_mix(&gen, pool, seed);
    let expected = inputs::expected_from(oracle, &queries);
    let mut plan = Plan::unique(&queries, expected);
    if spec.skewed {
        plan.push_invalid(pool / 100, prep.network().num_vertices());
        plan.order = inputs::zipf_order(pool, plan.pool_len(), 1 << 20, 1.0, 0.01, seed);
    }
    plan
}

fn setup(ctx: &mut Ctx, spec: &Spec, rep: usize) -> Result<Setup, String> {
    let root = ctx.tracer.open("setup", NONE, 0);
    let scale = ctx.scale(if spec.gowalla {
        GOWALLA_SCALE
    } else {
        FOURSQUARE_SCALE
    });
    let net_spec = inputs::network_spec(spec.gowalla, scale);
    let (net, d_gen) = ctx
        .tracer
        .timed("datagen.generate", root, || net_spec.generate());
    let (prep, d_prep) = ctx
        .tracer
        .timed("graph.prepare", root, || PreparedNetwork::new(net));
    let (index, d_build) = ctx.tracer.timed(build_span(spec.method), root, || {
        inputs::build_method(spec.method, &prep)
    });
    // Expected answers come from 3DReach (sub-microsecond per query); where
    // that is not the method under test it is built as the oracle only.
    let oracle = (spec.method != "3dreach").then(|| {
        ctx.tracer
            .timed("setup.oracle_build", root, || {
                inputs::build_method("3dreach", &prep)
            })
            .0
    });
    let pool = if ctx.args.smoke {
        spec.pool / 8
    } else {
        spec.pool
    };
    let seed = ctx.args.seed;
    let (plan, d_work) = ctx.tracer.timed("datagen.workload", root, || {
        make_plan(spec, &prep, oracle.as_ref().unwrap_or(&index), pool, seed)
    });
    drop(oracle);
    let snapshot = ctx.tmp.0.join(format!("{}-{rep}.snap", spec.name));
    let (saved, d_save) = ctx.tracer.timed("store.save", root, || {
        gsr_store::save_to_path(&snapshot, &index)
    });
    saved.map_err(|e| e.to_string())?;
    let conns = connections();
    let (child, _) = ctx.tracer.timed("cli.spawn", root, || {
        ctx.cores.spawn_other(|| {
            ServeChild::spawn(
                &ctx.args.gsr,
                &snapshot,
                conns,
                spec.cache_entries,
                &ctx.tmp.0,
            )
        })
    });
    let child = child?;
    // Warm-up: the same closed loop as the saturate phase, so the server's
    // threads, buffers and (where it has one) cache are in their steady state.
    let (warm, _) = ctx
        .tracer
        .timed("setup.warmup", root, || -> Result<Tally, String> {
            let mut client = Client::connect(child.addr, conns, &plan, true)
                .map_err(|e| format!("connect: {e}"))?;
            client.closed_loop(Duration::from_millis(300), WINDOW, &[]);
            Ok(client.tally)
        });
    let warm = warm?;
    ctx.tracer.close(root);
    if warm.failed() > 0 || warm.ok == 0 {
        return Err(format!("warm-up failed: {warm:?}"));
    }
    if rep == 0 {
        let r = &mut ctx.report;
        r.set("datagen.generate_ms", ms(d_gen), "ms");
        r.set("graph.prepare_ms", ms(d_prep), "ms");
        r.set("datagen.workload_ms", ms(d_work), "ms");
        r.set(&format!("core.build_ms.{}", spec.method), ms(d_build), "ms");
        r.set("store.save_ms", ms(d_save), "ms");
    }
    Ok(Setup {
        prep,
        index,
        plan,
        snapshot,
        child,
        build: d_prep + d_build,
    })
}

/// Restart cycles behind `ready_ms`.
const READY_CYCLES: u32 = 25;

/// Builds of the index under test beside those of the set-ups. It takes
/// 0.15 s here: ten more of it cost less than one more set-up.
const REBUILDS: usize = 10;

/// The accept loop of `gsr serve` polls on a 25 ms tick, so how long a new
/// connection waits depends on when in the tick it arrives: connecting the
/// instant the `listening on` line appears is a coin flip between no wait and
/// a whole tick, and the median of that flips with it. The cycles therefore
/// spread their connects evenly over one tick.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// Snapshot on disk → first correct answer, once: spawn `gsr serve --load` →
/// the `listening on` line, plus connect → first correct reply, with the
/// connect of cycle `i` held back by `i/25` of an accept tick (the hold is not
/// counted). Returns `(ready ms, spawn-to-listen ms)`.
fn ready_cycle(ctx: &mut Ctx, spec: &Spec, s: &Setup, i: u32) -> Result<(f64, f64), String> {
    let first = s.plan.at(0);
    let t = Instant::now();
    let child = ctx.cores.spawn_other(|| {
        ServeChild::spawn(
            &ctx.args.gsr,
            &s.snapshot,
            connections(),
            spec.cache_entries,
            &ctx.tmp.0,
        )
    })?;
    std::thread::sleep(ACCEPT_TICK * i / READY_CYCLES);
    let connect = Instant::now();
    let reply = client::one_shot(child.addr, s.plan.line(first));
    let answered = connect.elapsed();
    let ok = reply.is_ok_and(|line| s.plan.expected[first as usize].matches(&line));
    ctx.report.count(1, !ok as u64);
    ctx.tracer
        .record("cli.spawn", t, t + child.spawn_to_listen, NONE, 0);
    Ok((
        ms(child.spawn_to_listen + answered),
        ms(child.spawn_to_listen),
    ))
}

/// `PreparedNetwork::new` and the build of the index under test once more,
/// from a copy of the network; returns their time.
fn rebuild(spec: &Spec, net: GeosocialNetwork) -> Duration {
    let t = Instant::now();
    let prep = PreparedNetwork::new(net);
    let index = inputs::build_method(spec.method, &prep);
    let d = t.elapsed();
    drop((index, prep));
    d
}

/// Records the sampled requests of a traced phase: `client.request` is due →
/// reply, its child `client.send_wait` is due → sent.
fn record_client_spans(ctx: &mut Ctx, out: &PhaseOut) {
    for tr in &out.traced {
        let root = ctx
            .tracer
            .record("client.request", tr.due, tr.done, NONE, tr.k);
        ctx.tracer
            .record("client.send_wait", tr.due, tr.sent, root, tr.k);
    }
}

fn lateness_p99_us(out: &PhaseOut) -> f64 {
    let mut late = out.late_ns.clone();
    late.sort_unstable();
    percentile(&late, 0.99) as f64 / 1e3
}

/// One open-loop step with the server's CPU time beside it, so a step that
/// fell short of its rate can be told apart from a generator that did.
struct Step {
    rate: f64,
    share: f64,
    out: PhaseOut,
    server_cpu_s: f64,
}

fn report_step(ctx: &mut Ctx, step: &Step, conns: usize) {
    let tag = format!("paced.{}", step.rate as u64);
    let n = step.out.phase.count();
    let achieved = step.out.achieved_frac();
    let busy = step.server_cpu_s / (ctx.share(step.share).as_secs_f64() * conns as f64);
    // Short of the offered rate with the server's workers not saturated: the
    // generator was the limit, and this step's latencies say nothing.
    let limited = achieved < 0.99 && busy < 0.9;
    let r = &ctx.report;
    r.info(&format!("{tag}.offered"), step.out.offered);
    r.info(&format!("{tag}.achieved_frac"), achieved);
    r.info(&format!("{tag}.server_cpu_frac"), busy);
    r.info(&format!("{tag}.generator_limited"), limited);
    r.info(&format!("{tag}.late_p99_us"), lateness_p99_us(&step.out));
    r.info_spread(
        &format!("{tag}.lat_p50_us"),
        step.out.phase.quantile_us(0.50),
        n,
    );
    r.info_spread(
        &format!("{tag}.lat_p99_us"),
        step.out.phase.quantile_us(0.99),
        n,
    );
    r.info(
        &format!("{tag}.samples_beyond_p99"),
        step.out.phase.samples_beyond(0.99),
    );
}

/// The in-band `RELOAD` of one saturate slice on the skewed workload, sent
/// in the middle of it: every slice then holds the same mix of reads, one
/// invalidation and the cache refilling after it, and the median slice is
/// not a choice between slices with and without a reload.
fn reload(spec: &Spec, snapshot: &Path, slice: Duration) -> Vec<(Duration, String)> {
    if !spec.skewed {
        return Vec::new();
    }
    vec![(slice / 2, format!("RELOAD {}\n", snapshot.display()))]
}

pub fn run(ctx: &mut Ctx, spec: &Spec) -> Result<(), String> {
    // One core for the generator, the others for the server (the embedded
    // workloads, a single busy thread, are left to the scheduler).
    ctx.cores.pin_own();
    let mut s = ctx.set_up(3, |ctx, rep| setup(ctx, spec, rep))?;
    ctx.report
        .set("index_bytes", s.index.index_bytes() as f64, "B");

    let conns = connections();
    ctx.report.info("connections", conns);
    let trace = ctx.tracer.enabled();
    let mut client =
        Client::connect(s.child.addr, conns, &s.plan, true).map_err(|e| format!("connect: {e}"))?;
    // Counters start here: everything from now on must reconcile.
    client.control(0, "RESET\n")?;

    // Phase shares of --seconds: saturate, each open-loop step other than the
    // one `lat_*` come from, that step, churn. An untraced run spends all its
    // time on saturate, which `ops_per_s` comes from (the open loop and churn
    // feed per-layer metrics only); a traced run runs every phase, saturate
    // twice (tracing off, then on), and adds the echo-socket floor.
    let unique = !spec.skewed;
    let (sat_share, side_share, main_share, churn_share) = match (unique, trace) {
        (_, false) => (1.0, 0.0, 0.0, 0.0),
        (true, true) => (0.10, 0.10, 0.10, 0.08),
        (false, true) => (0.17, 0.0, 0.25, 0.0),
    };
    let slices = spec.slices;
    let mut steps: Vec<Step> = spec
        .rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| Step {
            rate: if ctx.args.smoke { rate / 4.0 } else { rate },
            share: if i == spec.main_rate {
                main_share
            } else {
                side_share
            },
            out: PhaseOut::default(),
            server_cpu_s: 0.0,
        })
        .collect();

    // The slices of the phases are interleaved: one slice of saturate, one of
    // every open-loop step, and round again. Between the rounds, while the
    // server under test sits idle, come the restarts behind `ready_ms` (each a
    // `gsr serve` of its own) and, in a run that reports `build_s`, the
    // rebuilds: spread over the whole run they see as much of the host's
    // weather as the slices do.
    let (mut sat, mut sat_traced) = (PhaseOut::default(), PhaseOut::default());
    let sat_slice = ctx.share(sat_share) / slices as u32;
    let controls = reload(spec, &s.snapshot, sat_slice);
    let net = ctx.repeats().then(|| s.prep.network().clone());
    let (mut ready, mut listen) = (Vec::new(), Vec::new());
    for round in 0..slices {
        client.trace = false;
        sat.add(client.closed_loop(sat_slice, WINDOW, &controls));
        client.trace = trace;
        if trace {
            sat_traced.add(client.closed_loop(sat_slice, WINDOW, &controls));
        }
        for step in steps.iter_mut().filter(|step| step.share > 0.0) {
            let cpu = s.child.cpu_seconds();
            step.out
                .add(client.open_loop(ctx.share(step.share) / slices as u32, step.rate));
            step.server_cpu_s += s.child.cpu_seconds() - cpu;
        }
        for _ in 0..due(round, slices, READY_CYCLES as usize) {
            let (r, l) = ready_cycle(ctx, spec, &s, ready.len() as u32)?;
            ready.push(r);
            listen.push(l);
        }
        if let Some(net) = &net {
            for _ in 0..due(round, slices, REBUILDS) {
                ctx.build_s.push(rebuild(spec, net.clone()).as_secs_f64());
            }
        }
    }
    drop(net);
    ctx.report_build_s();
    ctx.report.info("saturate.reloads", sat.control.len());
    ctx.report.info(
        "saturate.slice_rates",
        format!("{:?}", sat.phase.slice_rates()),
    );
    ctx.report
        .set_spread("ops_per_s", sat.phase.rate(), "1/s", sat.phase.count());
    let mut reload_ms: Vec<f64> = sat.control.iter().map(|(_, d)| ms(*d)).collect();
    let mut traced = Vec::new();
    if trace {
        let (base, with) = (sat.phase.rate().value, sat_traced.phase.rate().value);
        ctx.report
            .set("trace.overhead_frac", 1.0 - with / base, "ratio");
        ctx.report.info("trace.overhead_base_qps", base);
        reload_ms.extend(sat_traced.control.iter().map(|(_, d)| ms(*d)));
        record_client_spans(ctx, &sat_traced);
        traced.append(&mut sat_traced.traced);
    }
    for step in steps.iter().filter(|step| step.share > 0.0) {
        report_step(ctx, step, conns);
        record_client_spans(ctx, &step.out);
        traced.extend(step.out.traced.iter().copied());
    }
    let main = &steps[spec.main_rate];
    if trace {
        let n = main.out.phase.count();
        ctx.report
            .set_spread("lat_p50_us", main.out.phase.quantile_us(0.50), "us", n);
        ctx.report
            .set_spread("lat_p99_us", main.out.phase.quantile_us(0.99), "us", n);
    }

    // Free the workers: churn needs one, and the server is worker per
    // connection.
    let mut tally = client.tally.clone();
    drop(client);

    if churn_share > 0.0 {
        let mut cycles = Phase::default();
        // Five slices: a cycle takes an accept tick, 25 ms.
        for _ in 0..5 {
            let first_k = tally.attempted;
            cycles.slices.push(client::churn(
                s.child.addr,
                &s.plan,
                first_k,
                ctx.share(churn_share) / 5,
                &mut tally,
            ));
        }
        let n = cycles.count();
        let (p50, p90) = (cycles.quantile_us(0.50), cycles.quantile_us(0.90));
        ctx.report
            .set_spread("client.conn_p50_ms", p50.scaled(1e-3), "ms", n);
        ctx.report
            .set_spread("client.conn_p90_ms", p90.scaled(1e-3), "ms", n);
    }

    // Reconcile: what the client counted against what STATS counted, exactly.
    let mut control = Client::connect(s.child.addr, 1, &s.plan, true)
        .map_err(|e| format!("control connect: {e}"))?;
    let (final_stats, _) = control.control(0, "STATS\n")?;
    let stats = client::parse_stats(&final_stats);
    let get = |k: &str| stats.get(k).copied().unwrap_or(0);
    ctx.report.info("stats", &final_stats);
    for (what, server, client_side) in [
        ("queries", get("queries"), tally.queries),
        ("errors", get("errors"), tally.err_replies),
        ("reloads", get("reloads"), tally.reloads),
        (
            "cache_hits+cache_misses",
            get("cache_hits") + get("cache_misses"),
            if spec.cache_entries > 0 {
                tally.queries
            } else {
                0
            },
        ),
        ("shed+rejected", get("shed") + get("rejected"), 0),
    ] {
        if server != client_side {
            ctx.report.violation(format!(
                "STATS {what}={server} but the client counted {client_side}"
            ));
        }
    }
    ctx.report.count(tally.attempted, tally.failed());
    ctx.report.info("tally", format!("{tally:?}"));
    ctx.report.set("peak_rss_mb", s.child.peak_rss_mb(), "MiB");

    if trace {
        let r = &mut ctx.report;
        let probes = (get("cache_hits") + get("cache_misses")).max(1) as f64;
        r.set(
            "server.cache_hit_rate",
            get("cache_hits") as f64 / probes,
            "ratio",
        );
        r.set(
            "server.cache_evictions_per_q",
            get("cache_evictions") as f64 / probes,
            "count",
        );
        r.set("server.stats_p50_us", get("p50_us") as f64, "us");
        r.set("server.stats_p99_us", get("p99_us") as f64, "us");
        r.set("server.err_replies", get("errors") as f64, "count");
        r.set(
            "server.shed_rejected",
            (get("shed") + get("rejected")) as f64,
            "count",
        );
        r.set("server.reload_ms", median(&reload_ms), "ms");
        r.set("client.late_p99_us", lateness_p99_us(&main.out), "us");
        r.set("client.achieved_frac", main.out.achieved_frac(), "ratio");
    }

    control.control(0, "SHUTDOWN\n")?;
    drop(control);
    if !s.child.wait_exit(Duration::from_secs(2)) {
        ctx.report
            .violation("gsr serve did not stop within 2 s of SHUTDOWN".into());
    }

    // The connects are spread evenly over a tick, so the samples are too,
    // over spawn time + [0, 25) ms: their median is as steady as their mean,
    // and a restart that met a stall does not move it.
    ctx.report.set_spread(
        "ready_ms",
        Spread {
            value: median(&ready),
            ..Spread::of(&ready, Good::Low)
        },
        "ms",
        ready.len(),
    );

    if trace {
        ctx.report
            .set("cli.spawn_to_listen_ms", median(&listen), "ms");
        trace_extras(ctx, spec, &s, &steps, &traced)?;
    }
    Ok(())
}

/// The parts of a traced served run that happen in-process after the server
/// is gone: the wire floor, the ladder's knee, the layer probes, the replay
/// of the sampled requests, and the residue nothing else explains.
fn trace_extras(
    ctx: &mut Ctx,
    spec: &Spec,
    s: &Setup,
    steps: &[Step],
    traced: &[client::TracedRequest],
) -> Result<(), String> {
    let conns = connections();
    let main = &steps[spec.main_rate];
    if !spec.skewed {
        ctx.report.set_spread(
            "client.lat_p99_us.r5k",
            steps[0].out.phase.quantile_us(0.99),
            "us",
            steps[0].out.phase.count(),
        );
        ctx.report.set_spread(
            "client.lat_p99_us.r80k",
            steps[2].out.phase.quantile_us(0.99),
            "us",
            steps[2].out.phase.count(),
        );
        let knee = steps
            .iter()
            .filter(|st| {
                st.out.phase.quantile_us(0.99).value <= KNEE_P99_US
                    && st.out.achieved_frac() >= 0.99
            })
            .map(|st| st.rate)
            .fold(0.0, f64::max);
        ctx.report.set("client.max_rate_ok_qps", knee, "1/s");

        // The same generator, rate and stream against an echo socket.
        let echo = ctx
            .cores
            .spawn_other(|| Echo::spawn(conns))
            .map_err(|e| format!("echo socket: {e}"))?;
        let mut floor = Client::connect(echo.addr, conns, &s.plan, false)
            .map_err(|e| format!("echo connect: {e}"))?;
        let mut out = PhaseOut::default();
        for _ in 0..SLICES {
            out.add(floor.open_loop(ctx.share(0.10) / SLICES as u32, main.rate));
        }
        ctx.report
            .count(floor.tally.attempted, floor.tally.failed());
        drop(floor);
        echo.join();
        ctx.report.set_spread(
            "client.wire_floor_us",
            out.phase.quantile_us(0.50),
            "us",
            out.phase.count(),
        );
        ctx.report.info(
            "client.wire_floor_p99_us",
            out.phase.quantile_us(0.99).value,
        );
    }

    let gsr = ctx.args.gsr.clone();
    let net_file = ctx.tmp.0.join("network.gsr");
    gsr_datagen::io::save_network(s.prep.network(), &net_file).map_err(|e| e.to_string())?;
    let built = ctx.tmp.0.join("cli-built.snap");
    let cores = ctx.cores.clone();
    let (status, d) = ctx.tracer.timed("cli.build_cmd", NONE, || {
        cores.spawn_anywhere(|| {
            std::process::Command::new(&gsr)
                .arg("build")
                .arg(&net_file)
                .args(["--method", spec.method, "--save"])
                .arg(&built)
                .stdout(std::process::Stdio::null())
                .status()
        })
    });
    if !status.map_err(|e| format!("gsr build: {e}"))?.success() {
        return Err("gsr build failed".into());
    }
    ctx.report.set("cli.build_cmd_ms", ms(d), "ms");

    layers::probe(
        ctx,
        &layers::Input {
            prep: &s.prep,
            index: &s.index,
            plan: &s.plan,
            snapshot: &s.snapshot,
            cache_entries: spec.cache_entries.max(1),
        },
    )?;
    let (queries, answers) = s.plan.stream_queries();
    timed_pass(&s.index, &queries, &answers, ctx.share(0.06)).report(
        ctx,
        spec.method,
        &s.index,
        &queries,
    );

    let cache = (spec.cache_entries > 0).then(|| ResultCache::new(spec.cache_entries));
    layers::replay(ctx, &s.plan, &s.index, cache.as_ref(), traced);

    if !spec.skewed {
        // By construction: floor + parse + probe + residue = client p50.
        let r = &mut ctx.report;
        let part = |r: &crate::measure::Report, name: &str| r.get(name).unwrap_or(0.0);
        let explained = part(r, "client.wire_floor_us")
            + part(r, "server.parse_line_ns") / 1e3
            + part(r, &format!("core.q_p50_us.{}", spec.method));
        let p50 = main.out.phase.quantile_us(0.50).value;
        r.set("server.unattributed_us", p50 - explained, "us");
        r.info("server.unattributed_us.of_lat_p50_us", p50);
    }
    Ok(())
}

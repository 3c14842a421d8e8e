//! One benchmark for the whole stack. See `benchmark/README.md`.
//!
//! `gsr-benchmark --workload NAME --seed N --seconds S --trace 0|1 --gsr PATH
//! --out DIR [--smoke]` runs one workload: it generates every input from the
//! seed, drives the system only through its public surfaces (the real
//! `gsr serve` process over loopback TCP, or the crates' public functions),
//! checks every answer, prints every metric by name and unit, and ends with
//! one JSON result line.

mod affinity;
mod client;
mod embedded;
mod inputs;
mod layers;
mod measure;
mod served;
mod trace;

use inputs::METHODS;
use measure::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("ready_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("index_bytes", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics that are not per method; the per-method ones are
/// [`PER_METHOD`] crossed with [`METHODS`]. `--trace 1` reports all of them;
/// a layer a workload does not cross reads 0. `lat_p50_us` and `lat_p99_us`
/// are end-to-end quantities demoted to this list: over loopback between two
/// vCPUs of a shared host they are the hypervisor's wake-up time, which moves
/// by 30 to 70 % for minutes at a time — wider than any bound a regression
/// gate may carry.
const PER_LAYER: [(&str, &str); 55] = [
    ("lat_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("datagen.generate_ms", "ms"),
    ("datagen.read_network_ms", "ms"),
    ("datagen.workload_ms", "ms"),
    ("graph.prepare_ms", "ms"),
    ("reach.interval_build_ms", "ms"),
    ("reach.compact_build_ms", "ms"),
    ("reach.bfl_build_ms", "ms"),
    ("reach.covers_post_ns", "ns"),
    ("reach.bfl_reaches_ns", "ns"),
    ("reach.label_bytes", "B"),
    ("index.rtree_bulk_load_ms", "ms"),
    ("index.rtree_exists_ns", "ns"),
    ("index.rtree_nodes", "count"),
    ("index.rtree_bytes", "B"),
    ("core.batch_qps", "1/s"),
    ("core.partition_ms", "ms"),
    ("core.shard_build_ms", "ms"),
    ("core.shard_probes_per_q", "count"),
    ("core.shard_pruned_per_q", "count"),
    ("core.shard_route_ns", "ns"),
    ("core.shard_bytes_ratio", "ratio"),
    ("core.shard_qps_ratio", "ratio"),
    ("core.scatter_qps", "1/s"),
    ("store.save_ms", "ms"),
    ("store.snapshot_bytes", "B"),
    ("store.load_ms", "ms"),
    ("store.load_trust_ms", "ms"),
    ("store.load_mb_per_s", "MB/s"),
    ("store.shard_save_ms", "ms"),
    ("store.shard_load_ms", "ms"),
    ("store.shard_snapshot_bytes", "B"),
    ("server.parse_line_ns", "ns"),
    ("server.cache_hit_ns", "ns"),
    ("server.cache_miss_insert_ns", "ns"),
    ("server.cache_hit_rate", "ratio"),
    ("server.cache_evictions_per_q", "count"),
    ("server.stats_p50_us", "us"),
    ("server.stats_p99_us", "us"),
    ("server.reload_ms", "ms"),
    ("server.err_replies", "count"),
    ("server.shed_rejected", "count"),
    ("server.unattributed_us", "us"),
    ("cli.spawn_to_listen_ms", "ms"),
    ("cli.build_cmd_ms", "ms"),
    ("client.wire_floor_us", "us"),
    ("client.late_p99_us", "us"),
    ("client.achieved_frac", "ratio"),
    ("client.lat_p99_us.r5k", "us"),
    ("client.lat_p99_us.r80k", "us"),
    ("client.max_rate_ok_qps", "1/s"),
    ("client.conn_p50_ms", "ms"),
    ("client.conn_p90_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-method layer metrics, reported as `<name>.<method key>`.
const PER_METHOD: [(&str, &str); 8] = [
    ("core.build_ms", "ms"),
    ("core.index_bytes", "B"),
    ("core.qps", "1/s"),
    ("core.q_p50_us", "us"),
    ("core.q_p99_us", "us"),
    ("core.q_true_us", "us"),
    ("core.q_false_us", "us"),
    ("core.cost_per_q", "count"),
];

pub const WORKLOADS: [&str; 4] = [
    "serve_unique",
    "serve_skewed",
    "embed_paper",
    "embed_sharded",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub gsr: PathBuf,
    pub out: PathBuf,
}

/// A per-run unique scratch directory under `--out`, removed on every exit
/// path. Nothing the benchmark writes has a fixed name outside it.
pub struct TmpDir(pub PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What every workload runs with.
pub struct Ctx {
    pub args: Args,
    pub tracer: Tracer,
    pub report: Report,
    pub tmp: TmpDir,
    pub cores: affinity::Cores,
    /// Seconds each build of the indexes under test took, so far.
    pub build_s: Vec<f64>,
}

impl Ctx {
    /// A share of `--seconds` as a phase duration.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.args.seconds * fraction)
    }

    /// Dataset scale: the workload's own, or 0.5 for the structural
    /// `--smoke` check.
    pub fn scale(&self, full: f64) -> f64 {
        if self.args.smoke {
            0.5
        } else {
            full
        }
    }
}

/// What a workload's set-up hands to [`Ctx::set_up`].
pub trait SetUp {
    /// Time spent in `PreparedNetwork::new` and the `build` calls of the
    /// indexes under test.
    fn build_time(&self) -> Duration;
    fn prepared(&self) -> &gsr_core::PreparedNetwork;
    fn plan(&self) -> &inputs::Plan;
}

impl Ctx {
    /// Runs a workload's set-up `reps` times (dropping each result before
    /// the next; once in a traced or smoke run, which report neither metric)
    /// and keeps the last, checks the expected answers against BFS, prints the
    /// fingerprint, and reports `setup_s`: the median repetition plus the
    /// one-off check. The build time of every repetition goes to
    /// [`Ctx::build_s`].
    pub fn set_up<S: SetUp>(
        &mut self,
        reps: usize,
        mut one: impl FnMut(&mut Ctx, usize) -> Result<S, String>,
    ) -> Result<S, String> {
        let reps = if self.repeats() { reps } else { 1 };
        let mut setup_s = Vec::new();
        let mut last = None;
        for rep in 0..reps {
            drop(last.take());
            let t = Instant::now();
            let s = one(self, rep)?;
            setup_s.push(t.elapsed().as_secs_f64());
            self.build_s.push(s.build_time().as_secs_f64());
            last = Some(s);
        }
        let s = last.expect("at least one set-up");
        let once = Instant::now();
        let checked = inputs::spot_check(s.prepared(), s.plan(), 2000, self.args.seed)?;
        self.report.info("oracle_bfs_checked", checked);
        self.report.info(
            "fingerprint",
            format!(
                "{:#018x}",
                inputs::fingerprint(s.prepared().network(), s.plan())
            ),
        );
        let once = once.elapsed().as_secs_f64();
        let stats = s.prepared().stats();
        self.report.info("network", format!("{stats:?}"));
        let yes = s
            .plan()
            .expected
            .iter()
            .filter(|e| **e == inputs::Expect::True)
            .count();
        self.report.info(
            "expected_true_share",
            yes as f64 / s.plan().pool_len() as f64,
        );
        self.report
            .info("setup_reps_s", format!("{setup_s:?} + {once} once"));
        self.report
            .set("setup_s", measure::median(&setup_s) + once, "s");
        Ok(s)
    }

    /// Whether this run repeats its set-up and builds: an untraced full run,
    /// the only kind whose `setup_s` and `build_s` are compared.
    pub fn repeats(&self) -> bool {
        !(self.args.trace || self.args.smoke)
    }

    /// Reports `build_s`: the first decile of the builds of the set-ups and of
    /// the rebuilds the workload spread between its slices. The first build of
    /// a process runs on memory it has never touched and takes up to twice as
    /// long; the others differ by what the host was doing in that second.
    pub fn report_build_s(&mut self) {
        self.report
            .info("build_reps_s", format!("{:?}", self.build_s));
        self.report.set(
            "build_s",
            measure::steady(&self.build_s, measure::Good::Low),
            "s",
        );
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: gsr-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] --gsr PATH --out DIR",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        smoke: false,
        gsr: PathBuf::new(),
        out: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--smoke" => args.smoke = true,
            "--gsr" => args.gsr = value().into(),
            "--out" => args.out = value().into(),
            _ => usage(),
        }
    }
    if args.seconds <= 0.0 {
        args.seconds = if args.smoke { 5.0 } else { 20.0 };
    }
    if !WORKLOADS.contains(&args.workload.as_str())
        || args.gsr.as_os_str().is_empty()
        || args.out.as_os_str().is_empty()
    {
        usage();
    }
    args
}

fn machine_info(report: &Report) {
    let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    report.info("nproc", nproc());
    report.info("cpu", cpu);
    report.info("kernel", read("/proc/sys/kernel/osrelease").trim());
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The metric names of a mode with their units, in `BENCHMARK.json` order.
fn metric_list(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
    }
    let mut list: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for (name, unit) in PER_METHOD {
        for m in METHODS {
            list.push((format!("{name}.{m}"), unit));
        }
    }
    list
}

fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in metric_list(trace) {
        let value = match report.get(&name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is {v}")),
            // A layer this workload does not cross.
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        fields.join(", ")
    ))
}

fn main() {
    let args = parse_args();
    let tmp = TmpDir(args.out.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("cannot create {}: {e}", tmp.0.display());
        std::process::exit(1);
    }
    let trace = args.trace;
    println!(
        "# gsr-benchmark workload={} seed={} seconds={} trace={} smoke={}",
        args.workload, args.seed, args.seconds, trace as u8, args.smoke
    );
    let cores = affinity::Cores::detect();
    let mut ctx = Ctx {
        // Sized for every 64th request of the fastest phase plus the
        // replays; allocated before any timing.
        tracer: Tracer::new(trace, 1 << 19),
        report: Report::default(),
        tmp,
        cores,
        args,
        build_s: Vec::new(),
    };
    machine_info(&ctx.report);
    ctx.report.info("cores", format!("{:?}", ctx.cores));

    let outcome = match ctx.args.workload.as_str() {
        "serve_unique" => served::run(&mut ctx, &served::SERVE_UNIQUE),
        "serve_skewed" => served::run(&mut ctx, &served::SERVE_SKEWED),
        "embed_paper" => embedded::run_paper(&mut ctx),
        _ => embedded::run_sharded(&mut ctx),
    };
    if let Err(e) = outcome {
        // Set-up or an I/O step failed: no result line, non-zero exit.
        eprintln!("gsr-benchmark: {}: {e}", ctx.args.workload);
        drop(ctx);
        std::process::exit(1);
    }

    if trace {
        ctx.tracer.print_self_times();
        let path = ctx
            .args
            .out
            .join(format!("trace-{}.json", ctx.args.workload));
        match ctx.tracer.write_json(&path) {
            Ok(()) => ctx.report.info("trace_file", path.display()),
            Err(e) => ctx
                .report
                .violation(format!("cannot write {}: {e}", path.display())),
        }
    }
    let line = match result_line(&ctx.report, trace) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("gsr-benchmark: {e}");
            drop(ctx);
            std::process::exit(1);
        }
    };
    let correct = ctx.report.correct();
    drop(ctx);
    println!("{line}");
    // The correctness gate: a run with a failed operation, counters that do
    // not reconcile or an oracle that disagrees with BFS is not a result.
    std::process::exit(if correct { 0 } else { 1 });
}

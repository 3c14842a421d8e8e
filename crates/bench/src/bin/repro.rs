//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! repro [EXPERIMENT..] [--scale S] [--queries N] [--seed K] [--threads T] [--csv]
//!
//! EXPERIMENT: table3 table4 table5 table6 fig5 fig6 fig7 all (default: all)
//! --scale    dataset scale; 1.0 ~ 1% of the paper's sizes (default 1.0)
//! --queries  queries per measurement point (default 1000, as in the paper)
//! --seed     workload RNG seed
//! --threads  workers for index construction (0 = machine parallelism)
//! --csv      additionally print each table as CSV
//!
//! The `loadtest` experiment (not part of `all`: it spins up a real TCP
//! server, sweeps the offered rate, then floods past `--max-conns` to
//! prove admission control sheds cleanly) adds:
//!
//! --rate         offered rate in queries/second (default 1000)
//! --clients      concurrent pipelined TCP clients (default 4)
//! --duration-ms  per-rate-step duration (default 1000)
//! --sweep        sweep the rate geometrically until p99 saturates
//! --cache-entries  server result-cache capacity (default 4096; 0 = off)
//! --shards       also sweep a second server holding an N-shard router,
//!                recorded side by side in BENCH_loadtest.json
//!
//! The `shard` experiment (also not part of `all`) partitions the
//! Yelp-analog dataset into 1/2/4/8 spatial tiles, routes the workload
//! through the MBR-pruned scatter-gather ShardedIndex, verifies every
//! answer against a single-index oracle, and writes BENCH_shard.json.
//! ```

use gsr_bench::experiments;
use gsr_bench::table::TextTable;
use gsr_bench::{Config, Dataset};
use std::collections::BTreeSet;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: repro [table3|..|fig7|backends|ablations|analysis|latency|throughput|hotpath|memory|parbuild|snapshot|loadtest|chaos|shard|all]... \
         [--scale S] [--queries N] [--seed K] [--threads T] [--csv] \
         [--rate QPS] [--clients K] [--duration-ms MS] [--sweep] [--cache-entries N] [--shards N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = Config::default();
    let mut lt_opts = gsr_bench::loadtest::LoadtestOptions::default();
    let mut experiments_wanted: BTreeSet<String> = BTreeSet::new();
    let mut csv = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                cfg.scale = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--queries" => {
                cfg.queries = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--seed" => {
                cfg.seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--threads" => {
                cfg.threads = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--rate" => {
                lt_opts.rate_qps =
                    args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--clients" => {
                lt_opts.clients =
                    args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--duration-ms" => {
                lt_opts.duration_ms =
                    args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--cache-entries" => {
                lt_opts.cache_entries =
                    args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--shards" => {
                lt_opts.shards =
                    args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--sweep" => lt_opts.sweep = true,
            "--csv" => csv = true,
            "all" | "table3" | "table4" | "table5" | "table6" | "fig5" | "fig6" | "fig7"
            | "backends" | "ablations" | "analysis" | "latency" | "throughput" | "hotpath"
            | "memory" | "parbuild" | "forests" | "georeach" | "reduction" | "spatial"
            | "polarity" | "snapshot" | "loadtest" | "chaos" | "shard" => {
                experiments_wanted.insert(arg);
            }
            _ => usage(),
        }
    }
    if experiments_wanted.is_empty() || experiments_wanted.contains("all") {
        for e in [
            "table3", "table4", "table5", "table6", "fig5", "fig6", "fig7", "backends",
            "ablations", "analysis", "latency", "throughput", "hotpath", "memory",
            "parbuild", "forests", "georeach", "reduction", "spatial", "polarity", "snapshot",
        ] {
            experiments_wanted.insert(e.to_string());
        }
        experiments_wanted.remove("all");
    }

    let wanted = |name: &str| experiments_wanted.contains(name);
    let emit = |title: &str, table: &TextTable| {
        println!("== {title} ==");
        print!("{}", table.render());
        if csv {
            println!("--- csv ---");
            print!("{}", table.render_csv());
        }
        println!();
    };

    println!(
        "# Fast Geosocial Reachability Queries — reproduction harness\n\
         # scale={} queries={} seed={} threads={}\n",
        cfg.scale, cfg.queries, cfg.seed, cfg.threads
    );

    let t0 = Instant::now();
    // `loadtest`, `chaos` and `shard` generate their own dataset (and the
    // first two spin up live servers); when only they are wanted, skip the
    // four-dataset generation.
    let needs_datasets =
        experiments_wanted.iter().any(|e| e != "loadtest" && e != "chaos" && e != "shard");
    let datasets = if needs_datasets {
        eprintln!("generating datasets (scale {}) ...", cfg.scale);
        let datasets = Dataset::load_all(&cfg);
        eprintln!("datasets ready in {:.1?}\n", t0.elapsed());
        datasets
    } else {
        Vec::new()
    };

    if wanted("table3") {
        emit("Table 3: dataset characteristics (synthetic analogs)", &experiments::table3(&datasets));
    }
    if wanted("table4") || wanted("table5") {
        let t = Instant::now();
        let (sizes, times) = experiments::tables_4_and_5(&datasets);
        eprintln!("built all indexes in {:.1?}", t.elapsed());
        if wanted("table4") {
            emit("Table 4: index size [MB] (MBR-based variant in parens)", &sizes);
        }
        if wanted("table5") {
            emit("Table 5: indexing time [secs] (MBR-based variant in parens)", &times);
        }
    }
    if wanted("table6") {
        emit("Table 6: interval-based labeling stats (# labels)", &experiments::table6(&datasets));
    }
    if wanted("fig5") {
        let (by_extent, by_degree) = experiments::fig5(&datasets, &cfg);
        emit("Figure 5a: SCC policy, avg query time [us], varying extent", &by_extent);
        emit("Figure 5b: SCC policy, avg query time [us], varying degree", &by_degree);
    }
    if wanted("fig6") {
        let (by_extent, by_degree) = experiments::fig6(&datasets, &cfg);
        emit("Figure 6a: best SpaReach, avg query time [us], varying extent", &by_extent);
        emit("Figure 6b: best SpaReach, avg query time [us], varying degree", &by_degree);
    }
    if wanted("fig7") {
        let (by_extent, by_degree) = experiments::fig7_extent_degree(&datasets, &cfg);
        emit("Figure 7a: all methods, avg query time [us], varying extent", &by_extent);
        emit("Figure 7b: all methods, avg query time [us], varying degree", &by_degree);
        let sel = experiments::fig7_selectivity(&datasets, &cfg);
        emit("Figure 7c: all methods, avg query time [us], varying selectivity", &sel);
    }

    if wanted("backends") {
        emit(
            "Extension: GReach back-ends behind SpaReach (BFL / INT / PLL / FELINE / GRAIL)",
            &experiments::backends(&datasets, &cfg),
        );
    }
    if wanted("ablations") {
        emit(
            "Extension: fidelity ablations (candidate materialization, descendant scan)",
            &experiments::ablations(&datasets, &cfg),
        );
    }
    if wanted("analysis") {
        emit(
            "Extension: average per-query work counters (the drivers of Figure 7)",
            &experiments::analysis(&datasets, &cfg),
        );
    }
    if wanted("polarity") {
        emit(
            "Extension: positive vs negative queries (the paper's motivating hard case)",
            &experiments::polarity(&datasets, &cfg),
        );
    }
    if wanted("spatial") {
        emit(
            "Extension: SpaReach spatial-index backends (Section 7.2 alternatives)",
            &experiments::spatial_backends(&datasets, &cfg),
        );
    }
    if wanted("reduction") {
        emit(
            "Extension: DAG reduction vs labeling size (related work, Section 7.1)",
            &experiments::reduction(&datasets),
        );
    }
    if wanted("georeach") {
        emit(
            "Extension: GeoReach construction-parameter sensitivity",
            &experiments::georeach_params(&datasets, &cfg),
        );
    }
    if wanted("forests") {
        emit(
            "Extension: spanning-forest strategies vs labeling size (Section 8 future work)",
            &experiments::forests(&datasets),
        );
    }
    if wanted("latency") {
        emit(
            "Extension: per-query latency percentiles (default workload)",
            &experiments::latency(&datasets, &cfg),
        );
    }
    if wanted("throughput") {
        emit(
            "Extension: multi-threaded throughput over one shared 3DReach index",
            &experiments::throughput(&datasets, &cfg),
        );
    }
    if wanted("hotpath") {
        let (table, points) = experiments::hotpath(&datasets, &cfg);
        emit("Extension: hot-path profile (latency, throughput, allocs/query)", &table);
        let json = experiments::hotpath_json(&cfg, &points);
        match std::fs::write("BENCH_hotpath.json", &json) {
            Ok(()) => eprintln!("wrote BENCH_hotpath.json ({} results)", points.len()),
            Err(e) => eprintln!("cannot write BENCH_hotpath.json: {e}"),
        }
    }
    if wanted("memory") {
        let (table, points) = experiments::memory(&datasets, &cfg);
        emit("Extension: memory footprint of the compact index layouts", &table);
        let json = experiments::memory_json(&cfg, &points);
        match std::fs::write("BENCH_memory.json", &json) {
            Ok(()) => eprintln!("wrote BENCH_memory.json ({} results)", points.len()),
            Err(e) => eprintln!("cannot write BENCH_memory.json: {e}"),
        }
    }
    if wanted("snapshot") {
        let (table, points) = experiments::snapshot(&datasets, &cfg);
        emit("Extension: cold-start rebuild vs snapshot load (gsr-store)", &table);
        let json = experiments::snapshot_json(&cfg, &points);
        match std::fs::write("BENCH_snapshot.json", &json) {
            Ok(()) => eprintln!("wrote BENCH_snapshot.json ({} results)", points.len()),
            Err(e) => eprintln!("cannot write BENCH_snapshot.json: {e}"),
        }
    }
    if wanted("parbuild") {
        emit(
            "Extension: parallel index construction, measured wall-clock at 1/2/4 threads",
            &experiments::parallel_build(&datasets),
        );
    }
    if wanted("loadtest") {
        eprintln!(
            "loadtest: rate={} qps, clients={}, duration={} ms, sweep={}, cache_entries={}, \
             shards={}",
            lt_opts.rate_qps, lt_opts.clients, lt_opts.duration_ms, lt_opts.sweep,
            lt_opts.cache_entries, lt_opts.shards
        );
        match gsr_bench::loadtest::run_experiment(&cfg, &lt_opts) {
            Ok((table, steps, overload, sharded)) => {
                emit("Extension: open-loop latency-under-throughput sweep", &table);
                eprintln!(
                    "overload: {} flooders vs {} holders -> busy={} served={} \
                     (shed_rate={:.2}, server shed={} rejected={}) served_p99_us={}",
                    overload.flooders,
                    overload.holders,
                    overload.busy,
                    overload.flooder_served,
                    overload.shed_rate(),
                    overload.server_shed,
                    overload.server_rejected,
                    overload.served_p99_us,
                );
                if let Some(sh) = &sharded {
                    for (base, shard_step) in steps.iter().zip(&sh.steps) {
                        eprintln!(
                            "sharded x{}: {} qps offered -> single {:.0} qps p99={} us, \
                             sharded {:.0} qps p99={} us",
                            sh.shards,
                            base.offered_qps,
                            base.achieved_qps,
                            base.p99_us,
                            shard_step.achieved_qps,
                            shard_step.p99_us,
                        );
                    }
                }
                let json = gsr_bench::loadtest::loadtest_json(
                    &cfg,
                    &lt_opts,
                    &steps,
                    Some(&overload),
                    sharded.as_ref(),
                );
                match std::fs::write("BENCH_loadtest.json", &json) {
                    Ok(()) => eprintln!("wrote BENCH_loadtest.json ({} steps)", steps.len()),
                    Err(e) => eprintln!("cannot write BENCH_loadtest.json: {e}"),
                }
                let cache_enabled = lt_opts.cache_entries > 0;
                let mut failed = false;
                let sharded_steps = sharded.as_ref().map(|s| s.steps.as_slice()).unwrap_or(&[]);
                for (i, step) in steps.iter().chain(sharded_steps).enumerate() {
                    if let Err(e) = step.reconcile(cache_enabled) {
                        eprintln!(
                            "loadtest: step {} ({} qps) failed reconciliation: {e}",
                            i + 1,
                            step.offered_qps
                        );
                        failed = true;
                    }
                }
                if let Err(e) = overload.reconcile() {
                    eprintln!("loadtest: overload step failed reconciliation: {e}");
                    failed = true;
                }
                if failed {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("loadtest failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if wanted("shard") {
        match gsr_bench::shard::run_experiment(&cfg) {
            Ok((table, baseline_qps, points)) => {
                emit(
                    "Extension: spatial-tile sharding with MBR-pruned scatter-gather routing",
                    &table,
                );
                eprintln!("shard: single-index baseline {baseline_qps:.0} qps");
                let json = gsr_bench::shard::shard_json(&cfg, baseline_qps, &points);
                match std::fs::write("BENCH_shard.json", &json) {
                    Ok(()) => eprintln!("wrote BENCH_shard.json ({} shard counts)", points.len()),
                    Err(e) => eprintln!("cannot write BENCH_shard.json: {e}"),
                }
                let mut failed = false;
                for p in &points {
                    if p.mismatches > 0 {
                        eprintln!(
                            "shard: {} shards disagreed with the oracle on {} queries",
                            p.shards, p.mismatches
                        );
                        failed = true;
                    }
                    if p.shards > 1 && p.avg_shards_probed >= p.shards as f64 {
                        eprintln!(
                            "shard: no pruning at {} shards (avg probed {:.2})",
                            p.shards, p.avg_shards_probed
                        );
                        failed = true;
                    }
                }
                if failed {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("shard failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if wanted("chaos") {
        let ch_opts = gsr_bench::chaos::ChaosOptions::default();
        eprintln!(
            "chaos: attackers={} kill_points={} reloads={} clients={}",
            ch_opts.attackers, ch_opts.kill_points, ch_opts.reloads, ch_opts.clients
        );
        match gsr_bench::chaos::run_experiment(&cfg, &ch_opts) {
            Ok((table, scenarios)) => {
                emit("Extension: chaos harness — overload and failure drill", &table);
                let json = gsr_bench::chaos::chaos_json(&cfg, &ch_opts, &scenarios);
                match std::fs::write("BENCH_chaos.json", &json) {
                    Ok(()) => {
                        eprintln!("wrote BENCH_chaos.json ({} scenarios)", scenarios.len());
                    }
                    Err(e) => eprintln!("cannot write BENCH_chaos.json: {e}"),
                }
                let mut failed = false;
                for s in &scenarios {
                    if !s.passed() {
                        eprintln!(
                            "chaos: scenario {} handled only {}/{}: {}",
                            s.name, s.handled, s.attempts, s.detail
                        );
                        failed = true;
                    }
                }
                if failed {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("chaos failed: {e}");
                std::process::exit(1);
            }
        }
    }

    eprintln!("total: {:.1?}", t0.elapsed());
}

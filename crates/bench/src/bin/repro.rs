//! The reproduction harness: regenerates every table and figure of the
//! paper's evaluation, and the paper's ablations and extensions.
//!
//! ```text
//! repro [EXPERIMENT..] [--scale S] [--queries N] [--seed K] [--csv]
//!
//! EXPERIMENT one of `EXPERIMENTS` below, or `all` (the default)
//! --scale    dataset scale, a finite number >= 0 whose largest network a
//!            network file can hold; 1.0 ~ 1% of the paper's sizes (default 1.0)
//! --queries  queries per measurement point, at least 1 (default 1000, as in
//!            the paper)
//! --seed     workload RNG seed
//! --csv      additionally print each table as CSV
//! ```
//!
//! Latency percentiles, throughput, index bytes, snapshot loads, shard
//! routing and served load are measured by `benchmark/` (see its README),
//! not here.

use gsr_bench::experiments;
use gsr_bench::table::TextTable;
use gsr_bench::{Config, Dataset};
use gsr_datagen::NetworkSpec;
use std::collections::BTreeSet;
use std::time::Instant;

/// Every experiment `repro` accepts, in run order.
const EXPERIMENTS: &[&str] = &[
    "table3",
    "table4",
    "table5",
    "table6",
    "fig5",
    "fig6",
    "fig7",
    "backends",
    "ablations",
    "analysis",
    "polarity",
    "georeach",
    "forests",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [EXPERIMENT|all]... [--scale S] [--queries N] [--seed K] [--csv]\n\
         EXPERIMENT: {}\n\
         all (the default) runs every experiment",
        EXPERIMENTS.join(" "),
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = Config::default();
    let mut experiments_wanted: BTreeSet<&str> = BTreeSet::new();
    let mut all = false;
    let mut csv = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                cfg.scale = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--queries" => {
                cfg.queries = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                cfg.seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--csv" => csv = true,
            "all" => all = true,
            name => {
                let known = EXPERIMENTS.iter().find(|&&e| e == name).unwrap_or_else(|| usage());
                experiments_wanted.insert(known);
            }
        }
    }
    if let Err(e) = gsr_datagen::check_scale(cfg.scale, &NetworkSpec::PRESETS) {
        eprintln!("repro: {e}");
        usage();
    }
    if all || experiments_wanted.is_empty() {
        experiments_wanted.extend(EXPERIMENTS);
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
         # scale={} queries={} seed={}\n",
        cfg.scale, cfg.queries, cfg.seed
    );

    let t0 = Instant::now();
    eprintln!("generating datasets (scale {}) ...", cfg.scale);
    let datasets = Dataset::load_all(&cfg);
    eprintln!("datasets ready in {:.1?}\n", t0.elapsed());

    if wanted("table3") {
        emit(
            "Table 3: dataset characteristics (synthetic analogs)",
            &experiments::table3(&datasets),
        );
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
            "Extension: GReach back-ends behind SpaReach (BFL / INT)",
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
    eprintln!("total: {:.1?}", t0.elapsed());
}

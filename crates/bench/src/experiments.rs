//! One driver per table/figure of the paper's evaluation.

use crate::harness::{run_workload, Config, Dataset};
use crate::table::{fmt_mb, fmt_micros, fmt_secs, TextTable};
use gsr_core::methods::{
    CandidateMode, GeoReach, GeoReachParams, ScanMode, SocReach, SpaReachBfl, SpaReachInt,
};
use gsr_core::{Method, QueryCost, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::workload::{WorkloadGen, PAPER_EXTENTS_PCT, PAPER_SELECTIVITIES_PCT};
use gsr_graph::dfs::ForestStrategy;
use gsr_graph::stats::DegreeBucket;
use gsr_reach::bfl::BflIndex;
use gsr_reach::interval::{BuildOptions, Builder, IntervalLabeling};
use gsr_reach::Reachability;
use std::time::Instant;

/// The default extent used while sweeping the degree (bold 5% in the paper).
pub const DEFAULT_EXTENT: f64 = 5.0;

/// The methods of the final comparison (Figure 7): the best spatial-first
/// method plus GeoReach and the paper's contributions.
pub const FIG7_METHODS: [Method; 5] = [
    Method::SpaReachBfl,
    Method::GeoReach,
    Method::SocReach,
    Method::ThreeDReach,
    Method::ThreeDReachRev,
];

/// **Table 3**: characteristics of the (synthetic analogs of the) datasets.
pub fn table3(datasets: &[Dataset]) -> TextTable {
    let mut t = TextTable::new([
        "dataset",
        "# users",
        "# venues",
        "|V|",
        "|E|",
        "|P|",
        "# SCCs",
        "# vertices in largest SCC",
    ]);
    for ds in datasets {
        let s = ds.prep.stats();
        t.row([
            ds.name.to_string(),
            s.users.to_string(),
            s.venues.to_string(),
            s.vertices.to_string(),
            s.edges.to_string(),
            s.points.to_string(),
            s.sccs.to_string(),
            s.largest_scc.to_string(),
        ]);
    }
    t
}

/// **Tables 4 and 5**: index size [MB] and indexing time [s] per method and
/// dataset; the MBR-based SCC variant in parentheses where it exists.
pub fn tables_4_and_5(datasets: &[Dataset]) -> (TextTable, TextTable) {
    let header: Vec<String> = std::iter::once("dataset".to_string())
        .chain(Method::ALL.iter().map(|m| m.name().to_string()))
        .collect();
    let mut sizes = TextTable::new(header.clone());
    let mut times = TextTable::new(header);

    for ds in datasets {
        let mut size_row = vec![ds.name.to_string()];
        let mut time_row = vec![ds.name.to_string()];
        for method in Method::ALL {
            let timed_build = |policy| {
                let start = Instant::now();
                let idx = method.build(&ds.prep, policy, 1);
                (idx, start.elapsed())
            };
            let (idx, build) = timed_build(SccSpatialPolicy::Replicate);
            let mut size_cell = fmt_mb(idx.index_bytes());
            let mut time_cell = fmt_secs(build);
            if method.supports_mbr() {
                let (mbr_idx, mbr_build) = timed_build(SccSpatialPolicy::Mbr);
                size_cell = format!("{size_cell} ({})", fmt_mb(mbr_idx.index_bytes()));
                time_cell = format!("{time_cell} ({})", fmt_secs(mbr_build));
            }
            size_row.push(size_cell);
            time_row.push(time_cell);
        }
        sizes.row(size_row);
        times.row(time_row);
    }
    (sizes, times)
}

/// **Table 6**: number of labels in the interval-based labeling, compressed
/// vs uncompressed, for the forward and reversed schemes.
pub fn table6(datasets: &[Dataset]) -> TextTable {
    let mut t = TextTable::new([
        "dataset",
        "fwd uncompressed",
        "fwd compressed",
        "rev uncompressed",
        "rev compressed",
    ]);
    for ds in datasets {
        let dag = ds.prep.dag();
        let rev = dag.reversed();
        let count = |g: &gsr_graph::DiGraph, compress: bool| {
            IntervalLabeling::build_with(
                g,
                BuildOptions { builder: Builder::BottomUp, compress, ..BuildOptions::default() },
            )
            .num_labels()
        };
        t.row([
            ds.name.to_string(),
            count(dag, false).to_string(),
            count(dag, true).to_string(),
            count(&rev, false).to_string(),
            count(&rev, true).to_string(),
        ]);
    }
    t
}

/// Shared sweep driver: average query time (µs) for each method/policy
/// combination, over the extent sweep (at the default degree bucket) and
/// the degree sweep (at the default extent). A column is labelled with the
/// method's name and the policy's suffix (`SpaReach-INT (MBR)`).
fn sweep(
    datasets: &[Dataset],
    cfg: &Config,
    methods: &[(Method, SccSpatialPolicy)],
) -> (TextTable, TextTable) {
    let labels = methods.iter().map(|(m, policy)| format!("{}{}", m.name(), policy.suffix()));
    let mut header = vec!["dataset".to_string(), "extent %".to_string()];
    header.extend(labels.clone());
    let mut by_extent = TextTable::new(header);

    let mut header = vec!["dataset".to_string(), "degree".to_string()];
    header.extend(labels);
    let mut by_degree = TextTable::new(header);

    let default_bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];

    for ds in datasets {
        let built: Vec<_> =
            methods.iter().map(|(m, policy)| m.build(&ds.prep, *policy, 1)).collect();
        let gen = WorkloadGen::new(&ds.prep);

        for extent in PAPER_EXTENTS_PCT {
            let w = gen.extent_degree(extent, default_bucket, cfg.queries, cfg.seed);
            let mut row = vec![ds.name.to_string(), format!("{extent}")];
            for idx in &built {
                row.push(fmt_micros(run_workload(idx, &w).avg_micros));
            }
            by_extent.row(row);
        }

        for bucket in DegreeBucket::PAPER_BUCKETS {
            let w = gen.extent_degree(DEFAULT_EXTENT, bucket, cfg.queries, cfg.seed);
            let mut row = vec![ds.name.to_string(), bucket.label()];
            for idx in &built {
                row.push(fmt_micros(run_workload(idx, &w).avg_micros));
            }
            by_degree.row(row);
        }
    }
    (by_extent, by_degree)
}

/// **Figure 5**: handling spatial SCCs — the non-MBR (replicate) variant of
/// SpaReach-INT against the MBR-based variant, varying query extent and
/// query-vertex degree.
pub fn fig5(datasets: &[Dataset], cfg: &Config) -> (TextTable, TextTable) {
    let methods = [
        (Method::SpaReachInt, SccSpatialPolicy::Replicate),
        (Method::SpaReachInt, SccSpatialPolicy::Mbr),
    ];
    sweep(datasets, cfg, &methods)
}

/// **Figure 6**: determining the best spatial-first method — SpaReach-BFL
/// vs SpaReach-INT on all four datasets.
pub fn fig6(datasets: &[Dataset], cfg: &Config) -> (TextTable, TextTable) {
    let methods = [
        (Method::SpaReachBfl, SccSpatialPolicy::Replicate),
        (Method::SpaReachInt, SccSpatialPolicy::Replicate),
    ];
    sweep(datasets, cfg, &methods)
}

/// **Figure 7** (extent & degree panels): the final comparison —
/// SpaReach-BFL, GeoReach, SocReach, 3DReach and 3DReach-REV.
pub fn fig7_extent_degree(datasets: &[Dataset], cfg: &Config) -> (TextTable, TextTable) {
    let methods = FIG7_METHODS.map(|m| (m, SccSpatialPolicy::Replicate));
    sweep(datasets, cfg, &methods)
}

/// **Figure 7** (selectivity panel): the same methods swept over the
/// spatial selectivity of the query region.
pub fn fig7_selectivity(datasets: &[Dataset], cfg: &Config) -> TextTable {
    let mut header = vec!["dataset".to_string(), "selectivity %".to_string()];
    header.extend(FIG7_METHODS.iter().map(|m| m.name().to_string()));
    let mut t = TextTable::new(header);

    let default_bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];
    for ds in datasets {
        let built = FIG7_METHODS.map(|m| m.build(&ds.prep, SccSpatialPolicy::Replicate, 1));
        let gen = WorkloadGen::new(&ds.prep);
        for sel in PAPER_SELECTIVITIES_PCT {
            let w = gen.selectivity(sel, default_bucket, cfg.queries, cfg.seed);
            let mut row = vec![ds.name.to_string(), format!("{sel}")];
            for idx in &built {
                row.push(fmt_micros(run_workload(idx, &w).avg_micros));
            }
            t.row(row);
        }
    }
    t
}

/// **Extension (beyond the paper's figures)**: the two `GReach` back-ends
/// behind SpaReach — BFL and interval labeling. Reports raw reachability
/// latency (the figures Figure 6's explanation cites), SpaReach query
/// latency, build time and index size per dataset.
pub fn backends(datasets: &[Dataset], cfg: &Config) -> TextTable {
    use std::time::Instant;

    let mut t = TextTable::new([
        "dataset",
        "backend",
        "build [s]",
        "index [MB]",
        "GReach [ns]",
        "SpaReach query [us]",
    ]);
    let default_bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];

    for ds in datasets {
        let gen = WorkloadGen::new(&ds.prep);
        let workload = gen.extent_degree(DEFAULT_EXTENT, default_bucket, cfg.queries, cfg.seed);

        // Deterministic GReach pair sample over the condensation.
        let ncomp = ds.prep.num_components() as u32;
        let pairs: Vec<(u32, u32)> = (0..10_000u64)
            .map(|i| {
                let a = (i.wrapping_mul(2654435761) % ncomp as u64) as u32;
                let b = (i.wrapping_mul(40503) % ncomp as u64) as u32;
                (a, b)
            })
            .collect();

        let mut run = |name: &str,
                       build: &dyn Fn() -> Box<dyn Reachability>,
                       spa: &dyn Fn() -> Box<dyn RangeReachIndex>| {
            let start = Instant::now();
            let reach = build();
            let build_time = start.elapsed();

            let start = Instant::now();
            let mut positives = 0usize;
            for &(a, b) in &pairs {
                positives += reach.reaches(a, b) as usize;
            }
            let greach_ns = start.elapsed().as_nanos() as f64 / pairs.len() as f64;
            std::hint::black_box(positives);

            let spa_idx = spa();
            let result = run_workload(spa_idx.as_ref(), &workload);
            t.row([
                ds.name.to_string(),
                name.to_string(),
                fmt_secs(build_time),
                fmt_mb(reach.heap_bytes()),
                fmt_micros(greach_ns),
                fmt_micros(result.avg_micros),
            ]);
        };

        let dag = ds.prep.dag();
        run("BFL", &|| Box::new(BflIndex::build(dag)), &|| {
            Box::new(SpaReachBfl::build(&ds.prep, SccSpatialPolicy::Replicate))
        });
        run("INT", &|| Box::new(IntervalLabeling::build(dag)), &|| {
            Box::new(SpaReachInt::build(&ds.prep, SccSpatialPolicy::Replicate))
        });
    }
    t
}

/// **Extension**: ablations of the fidelity knobs — the paper-faithful
/// two-phase SpaReach vs our streaming variant, and the paper-faithful
/// per-post SocReach scan vs our compacted point table.
pub fn ablations(datasets: &[Dataset], cfg: &Config) -> TextTable {
    let mut t = TextTable::new([
        "dataset",
        "extent %",
        "SpaReach materialize",
        "SpaReach streaming",
        "SocReach per-post",
        "SocReach compacted",
    ]);
    let default_bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];
    for ds in datasets {
        let spa_mat = SpaReachBfl::build(&ds.prep, SccSpatialPolicy::Replicate);
        let spa_str = SpaReachBfl::build(&ds.prep, SccSpatialPolicy::Replicate)
            .with_candidate_mode(CandidateMode::Streaming);
        let soc_post = SocReach::build_with(&ds.prep, ScanMode::PerPost);
        let soc_comp = SocReach::build_with(&ds.prep, ScanMode::Compacted);
        let gen = WorkloadGen::new(&ds.prep);
        for extent in [1.0, DEFAULT_EXTENT, 20.0] {
            let w = gen.extent_degree(extent, default_bucket, cfg.queries, cfg.seed);
            t.row([
                ds.name.to_string(),
                format!("{extent}"),
                fmt_micros(run_workload(&spa_mat, &w).avg_micros),
                fmt_micros(run_workload(&spa_str, &w).avg_micros),
                fmt_micros(run_workload(&soc_post, &w).avg_micros),
                fmt_micros(run_workload(&soc_comp, &w).avg_micros),
            ]);
        }
    }
    t
}

/// **Extension**: the work counters behind Figure 7's trends — average
/// per-query candidates, reachability tests, vertices traversed,
/// containment tests and 3-D range queries for every method, at small and
/// large extents. These counters are the quantities the paper's Section
/// 6.4 reasons about ("the average number of the necessary graph
/// reachability queries goes up", "more paths need to be traversed", ...).
pub fn analysis(datasets: &[Dataset], cfg: &Config) -> TextTable {
    let mut t = TextTable::new([
        "dataset",
        "method",
        "extent %",
        "candidates",
        "reach tests",
        "vertices visited",
        "containment tests",
        "range queries",
    ]);
    let default_bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];
    for ds in datasets {
        let built = FIG7_METHODS.map(|m| m.build(&ds.prep, SccSpatialPolicy::Replicate, 1));
        let gen = WorkloadGen::new(&ds.prep);
        for extent in [1.0, 20.0] {
            let w = gen.extent_degree(extent, default_bucket, cfg.queries, cfg.seed);
            for idx in &built {
                let mut total = QueryCost::default();
                for (v, region) in &w.queries {
                    let (_, cost) = idx.query_with_cost(*v, region);
                    total.accumulate(&cost);
                }
                let n = w.queries.len().max(1) as f64;
                let avg = |x: usize| format!("{:.1}", x as f64 / n);
                t.row([
                    ds.name.to_string(),
                    idx.name().to_string(),
                    format!("{extent}"),
                    avg(total.spatial_candidates),
                    avg(total.reach_tests),
                    avg(total.vertices_visited),
                    avg(total.containment_tests),
                    avg(total.range_queries),
                ]);
            }
        }
    }
    t
}

/// **Extension**: query polarity — the paper's motivating observation is
/// that "both methods may perform poorly for RangeReach queries with a
/// negative answer" (Section 2.2.3). This experiment separates three
/// regimes: the standard (mostly positive) workload, spatially negative
/// queries (empty regions — every method must exhaust its search), and
/// socially negative queries (vertices that reach no spatial vertex —
/// only possible on the many-SCC datasets).
pub fn polarity(datasets: &[Dataset], cfg: &Config) -> TextTable {
    let mut header = vec!["dataset".to_string(), "workload".to_string()];
    header.extend(FIG7_METHODS.iter().map(|m| m.name().to_string()));
    let mut t = TextTable::new(header);
    let default_bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];

    for ds in datasets {
        let built = FIG7_METHODS.map(|m| m.build(&ds.prep, SccSpatialPolicy::Replicate, 1));
        let gen = WorkloadGen::new(&ds.prep);

        let standard = gen.extent_degree(DEFAULT_EXTENT, default_bucket, cfg.queries, cfg.seed);
        let spatial_neg =
            gen.spatial_negative(DEFAULT_EXTENT, default_bucket, cfg.queries, cfg.seed);
        let social_neg = gen.social_negative(DEFAULT_EXTENT, cfg.queries, cfg.seed);

        let mut row_for = |label: &str, w: &gsr_datagen::workload::Workload| {
            let mut row = vec![ds.name.to_string(), label.to_string()];
            for idx in &built {
                row.push(fmt_micros(run_workload(idx, w).avg_micros));
            }
            t.row(row);
        };
        row_for("standard (mostly +)", &standard);
        if !spatial_neg.queries.is_empty() {
            row_for("spatial-negative", &spatial_neg);
        }
        match social_neg {
            Some(w) => row_for("social-negative", &w),
            None => t.row([
                ds.name.to_string(),
                "social-negative".to_string(),
                "n/a (all users reach venues)".to_string(),
            ]),
        }
    }
    t
}

/// **Extension**: sensitivity of the GeoReach baseline to its three
/// construction parameters (Section 2.2.2: `MAX_REACH_GRIDS`,
/// `MERGE_COUNT`, plus the grid resolution). The paper sets them "as
/// suggested by the authors"; this sweep shows what the knobs trade.
pub fn georeach_params(datasets: &[Dataset], cfg: &Config) -> TextTable {
    use std::time::Instant;

    let mut t = TextTable::new([
        "dataset",
        "params (grids/merge/exp)",
        "B-vertices",
        "R-vertices",
        "G-vertices",
        "build [ms]",
        "index [MB]",
        "query [us]",
    ]);
    let sweeps = [
        GeoReachParams {
            max_reach_grids: 8,
            merge_count: 1,
            finest_exp: 5,
            ..GeoReachParams::default()
        },
        GeoReachParams::default(), // 64 / 3 / 7
        GeoReachParams {
            max_reach_grids: 256,
            merge_count: 6,
            finest_exp: 9,
            ..GeoReachParams::default()
        },
        GeoReachParams { max_reach_grids: 0, merge_count: 1, finest_exp: 5, max_rmbr_frac: 0.8 },
    ];
    let default_bucket = DegreeBucket::PAPER_BUCKETS[DegreeBucket::DEFAULT_INDEX];
    for ds in datasets {
        let gen = WorkloadGen::new(&ds.prep);
        let w = gen.extent_degree(DEFAULT_EXTENT, default_bucket, cfg.queries, cfg.seed);
        for params in sweeps {
            let start = Instant::now();
            let idx = GeoReach::build_with(&ds.prep, params);
            let build = start.elapsed();
            let (b, r, g) = idx.class_counts();
            let result = run_workload(&idx, &w);
            t.row([
                ds.name.to_string(),
                format!("{}/{}/{}", params.max_reach_grids, params.merge_count, params.finest_exp),
                b.to_string(),
                r.to_string(),
                g.to_string(),
                format!("{:.1}", build.as_secs_f64() * 1e3),
                fmt_mb(idx.index_bytes()),
                fmt_micros(result.avg_micros),
            ]);
        }
    }
    t
}

/// **Extension**: the paper's Section 8 future work — how the spanning
/// forest's shape affects the interval labeling. Each strategy changes
/// which edges become tree edges; fewer/flatter trees mean more labels
/// from non-tree propagation. The vertex-order forest is labeled twice, by
/// the bottom-up builder and by the paper's literal Algorithm 1: their
/// compressed labels are identical, so the build column compares the two
/// builders. Algorithm 1 has no uncompressed count here: it starts every
/// vertex from its own post-order number rather than its subtree's interval,
/// so without adjacency merging it keeps about one interval per descendant
/// (13.9 M on Foursquare at scale 1, quadratic in the network).
pub fn forests(datasets: &[Dataset]) -> TextTable {
    use std::time::Instant;

    let mut t = TextTable::new([
        "dataset",
        "forest strategy",
        "labels (compressed)",
        "labels (uncompressed)",
        "build [ms]",
    ]);
    let strategies: [(&str, Builder, ForestStrategy); 5] = [
        ("vertex-order", Builder::BottomUp, ForestStrategy::VertexOrder),
        ("vertex-order (Algorithm 1)", Builder::PaperFaithful, ForestStrategy::VertexOrder),
        ("high-degree-first", Builder::BottomUp, ForestStrategy::HighDegreeFirst),
        ("low-degree-first", Builder::BottomUp, ForestStrategy::LowDegreeFirst),
        ("random", Builder::BottomUp, ForestStrategy::Random(7)),
    ];
    for ds in datasets {
        let dag = ds.prep.dag();
        for (name, builder, forest) in strategies {
            let start = Instant::now();
            let compressed = IntervalLabeling::build_with(
                dag,
                BuildOptions { builder, compress: true, forest, ..BuildOptions::default() },
            );
            let elapsed = start.elapsed();
            let raw = (builder == Builder::BottomUp).then(|| {
                IntervalLabeling::build_with(
                    dag,
                    BuildOptions { builder, compress: false, forest, ..BuildOptions::default() },
                )
            });
            t.row([
                ds.name.to_string(),
                name.to_string(),
                compressed.num_labels().to_string(),
                raw.map_or("-".into(), |raw| raw.num_labels().to_string()),
                format!("{:.1}", elapsed.as_secs_f64() * 1e3),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_datagen::NetworkSpec;

    fn tiny_datasets() -> Vec<Dataset> {
        vec![
            Dataset::from_spec(&NetworkSpec::weeplaces(0.03)),
            Dataset::from_spec(&NetworkSpec::yelp(0.01)),
        ]
    }

    #[test]
    fn table3_has_one_row_per_dataset() {
        let ds = tiny_datasets();
        let t = table3(&ds);
        assert_eq!(t.len(), 2);
        let rendered = t.render();
        assert!(rendered.contains("WeePlaces"));
        assert!(rendered.contains("Yelp"));
    }

    #[test]
    fn tables_4_5_have_mbr_parens_only_where_supported() {
        let ds = tiny_datasets();
        let (sizes, times) = tables_4_and_5(&ds[..1]);
        let s = sizes.render();
        let lines: Vec<&str> = s.lines().collect();
        // Data row: SpaReach columns have parens; GeoReach/SocReach do not.
        let data = lines[2];
        assert_eq!(data.matches('(').count(), 4, "4 methods have MBR variants: {data}");
        assert_eq!(times.len(), 1);
    }

    #[test]
    fn socreach_is_smaller_than_spareach_int_on_every_dataset() {
        // Table 4's ordering: the delta-compressed labels keep SocReach
        // below the plain interval labeling SpaReach-INT carries.
        for ds in tiny_datasets() {
            let bytes = |m: Method| m.build(&ds.prep, SccSpatialPolicy::Replicate, 1).index_bytes();
            let (soc, int) = (bytes(Method::SocReach), bytes(Method::SpaReachInt));
            assert!(soc > 0 && soc < int, "{}: SocReach {soc} B vs SpaReach-INT {int} B", ds.name);
        }
    }

    #[test]
    fn table6_counts_are_ordered() {
        let ds = tiny_datasets();
        let t = table6(&ds[..1]);
        let csv = t.render_csv();
        let row: Vec<&str> = csv.lines().nth(1).unwrap().split(',').collect();
        let fwd_unc: usize = row[1].parse().unwrap();
        let fwd_c: usize = row[2].parse().unwrap();
        assert!(fwd_c <= fwd_unc, "compression cannot add labels");
        assert!(fwd_c > 0);
    }

    #[test]
    fn polarity_table_renders() {
        let ds = tiny_datasets();
        let cfg = Config { scale: 0.03, queries: 6, seed: 1 };
        let t = polarity(&ds, &cfg);
        assert!(t.len() >= 4, "at least standard + one negative row per dataset");
    }

    #[test]
    fn georeach_sweep_renders() {
        let ds = tiny_datasets();
        let cfg = Config { scale: 0.03, queries: 6, seed: 1 };
        let t = georeach_params(&ds[..1], &cfg);
        assert_eq!(t.len(), 4, "one row per parameterization");
    }

    #[test]
    fn forests_table_has_four_strategies_per_dataset() {
        let ds = tiny_datasets();
        let t = forests(&ds[..1]);
        assert_eq!(t.len(), 5, "four strategies, vertex order built by both builders");
        let csv = t.render_csv();
        let rows: Vec<Vec<&str>> = csv.lines().skip(1).map(|l| l.split(',').collect()).collect();
        assert_eq!(rows[1][1], "vertex-order (Algorithm 1)");
        assert_eq!(rows[1][2], rows[0][2], "Algorithm 1 labels like the bottom-up builder");
        assert_eq!(rows[1][3], "-");
    }

    #[test]
    fn analysis_counters_are_plausible() {
        let ds = tiny_datasets();
        let cfg = Config { scale: 0.03, queries: 10, seed: 2 };
        let t = analysis(&ds[..1], &cfg);
        // 5 methods x 2 extents.
        assert_eq!(t.len(), 10);
        let csv = t.render_csv();
        // GeoReach rows must show traversal work; 3DReach rows must show
        // range queries.
        assert!(csv.lines().any(|l| l.starts_with("WeePlaces,GeoReach")));
        assert!(csv.lines().any(|l| l.starts_with("WeePlaces,3DReach")));
    }

    #[test]
    fn backends_and_ablations_render() {
        let ds = tiny_datasets();
        let cfg = Config { scale: 0.03, queries: 8, seed: 5 };
        let b = backends(&ds[..1], &cfg);
        assert_eq!(b.len(), 2, "one row per back-end");
        let a = ablations(&ds[..1], &cfg);
        assert_eq!(a.len(), 3, "one row per extent");
    }

    #[test]
    fn fig_sweeps_have_expected_shape() {
        let ds = tiny_datasets();
        let cfg = Config { scale: 0.03, queries: 8, seed: 5 };
        let (by_extent, by_degree) = fig6(&ds[..1], &cfg);
        assert_eq!(by_extent.len(), PAPER_EXTENTS_PCT.len());
        assert_eq!(by_degree.len(), DegreeBucket::PAPER_BUCKETS.len());
        let sel = fig7_selectivity(&ds[..1], &cfg);
        assert_eq!(sel.len(), PAPER_SELECTIVITIES_PCT.len());
    }
}

//! Shared helpers for the cross-crate integration tests.

use gsr_core::methods::SnapshotIndex;
use gsr_core::{
    prepared_tiles, BatchExecutor, BatchOptions, BatchQuery, GeosocialNetwork, GsrError, Method,
    OnlineReach, PreparedNetwork, QueryCost, RangeReachIndex, SccSpatialPolicy,
};
use gsr_datagen::faults::ScratchDir;
use gsr_datagen::workload::WorkloadGen;
use gsr_datagen::NetworkSpec;
use gsr_geo::{Point, Rect};
use gsr_graph::scc::CompId;
use gsr_graph::stats::DegreeBucket;
use gsr_graph::{GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The windows every probe of `prep` is asked over: `extra`, then the
/// shapes the kernels special-case. The whole plane and the populated space;
/// a `-0.0` zero-area window at the origin; windows straddling each corner of
/// the space and windows beyond it, outside every MBR; and, for the points
/// on the space's upper edges (with `all_points`, for every point), the
/// point as a zero-area window and the `-0.0`-cornered box up to it. A grid
/// or tree line computed by a rounded sum can fall short of those edges.
pub fn windows(prep: &PreparedNetwork, extra: &[Rect], all_points: bool) -> Vec<Rect> {
    let s = prep.space();
    let (w, h) = (s.width().max(1.0), s.height().max(1.0));
    let mut rects = extra.to_vec();
    rects.extend([
        Rect::new(-1e9, -1e9, 1e9, 1e9),
        s,
        Rect::new(-0.0, -0.0, 0.0, 0.0),
        Rect::new(s.min_x - w / 4.0, s.min_y - h / 4.0, s.min_x + w / 4.0, s.min_y + h / 4.0),
        Rect::new(s.max_x - w / 4.0, s.max_y - h / 4.0, s.max_x + w / 4.0, s.max_y + h / 4.0),
        Rect::new(s.max_x + 1.0, s.max_y + 1.0, s.max_x + 9.0, s.max_y + 9.0),
        Rect::new(s.min_x - 9.0, s.min_y - 9.0, s.min_x - 1.0, s.min_y - 1.0),
    ]);
    let mut points: Vec<Point> = prep.network().spatial_vertices().map(|(_, p)| p).collect();
    if !all_points {
        let top = |key: fn(&Point) -> f64| {
            points.iter().copied().max_by(|a, b| key(a).total_cmp(&key(b)))
        };
        points = [top(|p| p.x), top(|p| p.y)].into_iter().flatten().collect();
    }
    for p in points {
        rects.push(Rect::from_point(p));
        rects.push(Rect::new(-0.0, -0.0, p.x.max(0.0), p.y.max(0.0)));
    }
    rects
}

/// Cross-checks the BFS oracle on every vertex of `prep` against the
/// brute-force `RangeReport` and against [`OnlineReach`], over `regions` and
/// the [`windows`] of every spatial vertex.
///
/// A FALSE answer has tested every reachable member point, so its
/// `containment_tests` equals the number of spatial vertices `v` reaches; a
/// TRUE one has tested at least one and at most that many.
pub fn check_bfs_oracle(prep: &PreparedNetwork, regions: &[Rect]) {
    let everything = Rect::new(-1e9, -1e9, 1e9, 1e9);
    let rects = windows(prep, regions, true);
    let online = OnlineReach::new(Arc::new(prep.clone()));
    for v in prep.network().graph().vertices() {
        let reachable = prep.report_bfs(v, &everything).len();
        for r in &rects {
            let (found, cost) = prep.range_reach_bfs_with_cost(v, r);
            assert_eq!(found, prep.range_reach_bfs(v, r), "v={v} r={r}");
            assert_eq!(found, !prep.report_bfs(v, r).is_empty(), "report, v={v} r={r}");
            assert_eq!(online.query_with_cost(v, r), (found, cost), "online, v={v} r={r}");
            assert!(cost.vertices_visited <= prep.num_components(), "v={v} r={r}");
            if found {
                assert!((1..=reachable).contains(&cost.containment_tests), "v={v} r={r}");
            } else {
                assert_eq!(cost.containment_tests, reachable, "v={v} r={r}");
            }
        }
    }
}

/// Checks the member table of `prep` and of its tile views: each
/// component's points are those of `members(c)`, in member order, and
/// `comp_mbr` / `comp_is_spatial` agree with them.
pub fn check_member_table(prep: &PreparedNetwork) {
    let tiles = prepared_tiles(prep.network(), 3).map(|(tile, _)| tile);
    for p in std::iter::once(prep.clone()).chain(tiles) {
        let net = p.network();
        assert_eq!(p.num_components(), prep.num_components());
        for c in 0..p.num_components() as CompId {
            let points: Vec<Point> = p.members(c).iter().filter_map(|&v| net.point(v)).collect();
            assert_eq!(p.spatial_member_points(c), &points[..], "component {c}");
            assert_eq!(p.comp_mbr(c), Rect::mbr_of(points.iter().copied()), "component {c}");
            assert_eq!(p.comp_is_spatial(c), !points.is_empty(), "component {c}");
        }
    }
}

/// A random geosocial network: arbitrary directed edges (cycles allowed),
/// each vertex spatial with probability `fraction`.
pub fn random_network(n: usize, edges: usize, fraction: f64, seed: u64) -> GeosocialNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..edges {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        builder.add_edge(u, v);
    }
    let points: Vec<Option<Point>> = (0..n)
        .map(|_| {
            rng.gen_bool(fraction)
                .then(|| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        })
        .collect();
    GeosocialNetwork::new(builder.build(), points).expect("finite points")
}

/// A batch of random query regions over `[0, 100]^2`, in turn: a small
/// square, a large one, a degenerate point probe and a square that may lie
/// outside the populated space.
pub fn random_regions(count: usize, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let square = |rng: &mut StdRng, (lo, hi): (f64, f64), side: std::ops::Range<f64>| {
        let c = Point::new(rng.gen_range(lo..hi), rng.gen_range(lo..hi));
        Rect::square(c, rng.gen_range(side))
    };
    let point = |rng: &mut StdRng| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
    let region = |i: usize| match i % 4 {
        0 => square(&mut rng, (0.0, 100.0), 0.1..10.0),
        1 => square(&mut rng, (0.0, 100.0), 20.0..120.0),
        2 => Rect::from_point(point(&mut rng)),
        _ => square(&mut rng, (-50.0, 150.0), 1.0..30.0),
    };
    (0..count).map(region).collect()
}

// ---------------------------------------------------------------------------
// The differential oracle. Every cell — a case, a `(method, policy)` row and
// a path — answers the case's probes, and [`disagreements`] holds it to BFS
// and to the row's reference, the index as built. Each case is
// asked by one test: `tests/oracle.rs` or the suite that builds it.

/// A network, the probes every cell of the oracle asks of it, and the
/// oracle's answers.
pub struct Case {
    /// Names the case in a failing cell's report.
    pub name: String,
    /// The network, prepared once: the oracle and the reference build read it.
    pub prep: PreparedNetwork,
    /// `(v, window)` pairs.
    pub probes: Vec<BatchQuery>,
    /// Per probe, `range_reach_bfs`'s answer, or `None` where the window
    /// has an infinite side, which every path must refuse with a typed
    /// [`GsrError::InvalidRect`].
    pub expected: Vec<Option<bool>>,
}

impl Case {
    /// `prep` probed from about `vertices` query vertices spread evenly over
    /// it and from its last vertex, each over the [`windows`] with `extra`
    /// and over three windows with an infinite side, one of them infinite
    /// both ways in one dimension.
    pub fn new(name: &str, prep: PreparedNetwork, vertices: usize, extra: &[Rect]) -> Case {
        let n = prep.network().num_vertices() as VertexId;
        let mut rects = windows(&prep, extra, false);
        let inf = f64::INFINITY;
        rects.extend([
            Rect::new(-inf, 0.0, inf, 10.0),
            Rect::new(0.0, 0.0, 10.0, inf),
            Rect::new(-inf, -inf, inf, inf),
        ]);
        let step = (n as usize / vertices.max(1)).max(1);
        let mut from: Vec<VertexId> = (0..n).step_by(step).collect();
        from.extend((n > 0 && from.last() != Some(&(n - 1))).then(|| n - 1));
        let probes = from.iter().flat_map(|&v| rects.iter().map(move |&r| (v, r))).collect();
        Case::of(name, prep, probes)
    }

    /// `prep` probed with `probes` only.
    pub fn of(name: impl Into<String>, prep: PreparedNetwork, probes: Vec<BatchQuery>) -> Case {
        let finite = |r: &Rect| [r.min_x, r.min_y, r.max_x, r.max_y].iter().all(|c| c.is_finite());
        let oracle = |(v, r): &BatchQuery| finite(r).then(|| prep.range_reach_bfs(*v, r));
        let expected = probes.iter().map(oracle).collect();
        Case { name: name.into(), prep, probes, expected }
    }
}

/// `random_network(n, edges, fraction, seed)` at each of `seeds`, probed
/// from every `n / vertices`-th vertex over `regions(seed)`.
pub fn random_cases(
    family: &str,
    (n, edges, fraction): (usize, usize, f64),
    seeds: std::ops::Range<u64>,
    vertices: usize,
    regions: impl Fn(u64) -> Vec<Rect>,
) -> Vec<Case> {
    let case = |seed| {
        let prep = PreparedNetwork::new(random_network(n, edges, fraction, seed));
        let rects = regions(seed);
        let from = (0..n as VertexId).step_by((n / vertices).max(1));
        let probes = from.flat_map(|v| rects.iter().map(move |&r| (v, r))).collect();
        Case::of(format!("{family}-{seed}"), prep, probes)
    };
    seeds.map(case).collect()
}

/// `spec`'s network asked only its `extent_degree` workloads of 5 % extent,
/// one per `(bucket, count, seed)`, `bucket` indexing
/// [`DegreeBucket::PAPER_BUCKETS`].
pub fn workload_case(spec: NetworkSpec, workloads: &[(usize, usize, u64)]) -> Case {
    let prep = PreparedNetwork::new(spec.generate());
    let gen = WorkloadGen::new(&prep);
    let workload = |&(bucket, count, seed): &(usize, usize, u64)| {
        gen.extent_degree(5.0, DegreeBucket::PAPER_BUCKETS[bucket], count, seed).queries
    };
    let queries = workloads.iter().flat_map(workload).collect();
    Case::of(spec.name.to_lowercase(), prep, queries)
}

/// A network with exactly `spatial` spatial vertices, in sink components
/// of `group` members each (a cycle), and a sixteenth as many social
/// vertices, cyclic among themselves, pointing at them. Every R-tree of a
/// replicating method holds one entry per spatial vertex (3DReach-REV one
/// per label at least), every MBR-policy tree one per component.
fn sized_network(spatial: usize, group: usize, seed: u64) -> GeosocialNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let social = spatial.div_ceil(16);
    let mut builder = GraphBuilder::new(spatial + social);
    for v in 0..spatial {
        let next = (v + 1) % group + v / group * group;
        if next != v && next < spatial {
            builder.add_edge(v as VertexId, next as VertexId);
        }
    }
    for u in spatial..spatial + social {
        for _ in 0..3 {
            builder.add_edge(u as VertexId, rng.gen_range(0..spatial) as VertexId);
        }
        builder.add_edge(u as VertexId, rng.gen_range(spatial..spatial + social) as VertexId);
    }
    let points = (0..spatial + social)
        .map(|v| {
            (v < spatial).then(|| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        })
        .collect();
    GeosocialNetwork::new(builder.build(), points).expect("finite points")
}

/// The oracle's cases: the shapes the kernels special-case, on networks no
/// suite builds. The suites' networks (random cyclic, sparse, dense, no
/// spatial vertex, self-loops, the analogs, cycle-heavy, an SCC whose MBR
/// has a hole) are asked by the suites that build them ([`assert_family`]).
pub fn oracle_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    // The heaviest cases first, so that the oracle's workers finish together.
    // R-trees one entry short of, at and one past a full node and a level:
    // 4 097 entries in the replicating trees, whose MBR-policy trees hold
    // one per 16-member component, 257; the smaller sizes in every tree.
    for (entries, group) in [(4097, 16), (257, 1), (17, 1), (16, 1)] {
        let prep = PreparedNetwork::new(sized_network(entries, group, entries as u64));
        cases.push(Case::new(&format!("rtree-{entries}"), prep, 2, &[]));
    }
    // Networks small enough that every vertex asks every window.
    for k in 1..4u64 {
        let prep =
            PreparedNetwork::new(random_network(5 + 4 * k as usize, 15 * k as usize, 0.5, 700 + k));
        cases.push(Case::new(&format!("small-{k}"), prep, 6, &random_regions(2, k)));
    }
    // Every spatial vertex on one point: a window on it, one touching it and
    // one just missing it.
    let net = random_network(60, 150, 0.5, 77);
    let points = (0..60).map(|v| net.point(v).map(|_| Point::new(50.0, 50.0))).collect();
    let prep = PreparedNetwork::new(GeosocialNetwork::new(net.graph().clone(), points).unwrap());
    let at = [
        Rect::new(40.0, 40.0, 50.0, 50.0),
        Rect::new(50.0, 50.0, 60.0, 60.0),
        Rect::new(40.0, 40.0, 49.9, 60.0),
    ];
    cases.push(Case::new("all-equal-centres", prep, 6, &at));
    cases
}

/// Every `(method, policy)` row: [`Method::ALL`] × [`Method::policies`], the
/// methods with both policies first, policy by policy, then those with one.
pub fn rows() -> Vec<(Method, SccSpatialPolicy)> {
    let mut rows: Vec<_> =
        Method::ALL.into_iter().flat_map(|m| m.policies().iter().map(move |&p| (m, p))).collect();
    rows.sort_by_key(|&(m, p)| (m.policies().len() == 1, p != SccSpatialPolicy::Replicate));
    rows
}

/// Every method under every SCC policy it has, built and named by method
/// key (`"3dreach (MBR)"`), in [`rows`] order.
pub fn all_snapshots(prep: &PreparedNetwork) -> Vec<(String, SnapshotIndex)> {
    let build = |(m, p): (Method, SccSpatialPolicy)| {
        (format!("{}{}", m.key(), p.suffix()), m.build(prep, p))
    };
    rows().into_iter().map(build).collect()
}

/// What a cell's index answered on a case's probes.
#[derive(Debug, Default, Clone)]
pub struct Observed {
    /// The index's `index_bytes`.
    pub bytes: usize,
    /// Per probe, `try_query`'s result (a batch's per-query slot).
    pub answers: Vec<Result<bool, GsrError>>,
    /// Per probe, `try_query_with_cost`'s result; empty for a batch, which
    /// reports its counters summed only.
    pub counted: Vec<Result<(bool, QueryCost), GsrError>>,
    /// The counters summed over every probe answered.
    pub total: QueryCost,
}

/// Asks `index` every probe, both ways.
pub fn observe(index: &dyn RangeReachIndex, probes: &[BatchQuery]) -> Observed {
    let mut seen = Observed { bytes: index.index_bytes(), ..Observed::default() };
    for (v, r) in probes {
        seen.answers.push(index.try_query(*v, r));
        let counted = index.try_query_with_cost(*v, r);
        if let Ok((_, cost)) = &counted {
            seen.total.accumulate(cost);
        }
        seen.counted.push(counted);
    }
    seen
}

/// One `(method, policy)` row of the oracle on one case: its reference
/// index — built over the case's network, the `built` cell —
/// its snapshot `file` (saved on first read), and what it answered (`seen`,
/// what every cell is held to). Every path answers for the row from these.
struct Row<'a> {
    case: &'a Case,
    method: Method,
    policy: SccSpatialPolicy,
    reference: SnapshotIndex,
    file: std::sync::OnceLock<Vec<u8>>,
    seen: Observed,
}

impl<'a> Row<'a> {
    /// Builds and asks the row's reference.
    fn new(case: &'a Case, (method, policy): (Method, SccSpatialPolicy)) -> Self {
        let reference = method.build(&case.prep, policy);
        let seen = observe(&reference, &case.probes);
        Row { case, method, policy, reference, file: Default::default(), seen }
    }

    fn file(&self) -> &[u8] {
        self.file.get_or_init(|| {
            let mut file = Vec::new();
            gsr_store::save(&mut file, &self.reference).expect("the reference saves");
            file
        })
    }

    /// `method (policy)`, as a report names the row.
    fn name(&self) -> String {
        format!("{} ({:?})", self.method.key(), self.policy)
    }

    /// The reference snapshot read back from `bytes` with `trust`.
    fn loaded(&self, bytes: &[u8], trust: bool) -> Result<Observed, GsrError> {
        let index = gsr_store::load_with(&mut &bytes[..], gsr_store::LoadOptions { trust })?;
        Ok(observe(&index, &self.case.probes))
    }

    /// The reference snapshot read from a buffer three bytes into its
    /// allocation, so every section payload the reader sees is misaligned.
    fn misaligned(&self) -> Result<Observed, GsrError> {
        let staged = [&[0u8; 3][..], self.file()].concat();
        self.loaded(&staged[3..], false)
    }

    /// The reference snapshot written to a scratch file, mapped
    /// (`load_shared`), and probed from three scoped threads, a third of the
    /// probes each.
    fn mapped(&self) -> Result<Observed, GsrError> {
        let io = |e: std::io::Error| GsrError::Internal(e.to_string());
        let dir = ScratchDir::new("gsr_oracle_mapped").map_err(io)?;
        let path = dir.path().join("index.snap");
        std::fs::write(&path, self.file()).map_err(io)?;
        let shared = gsr_store::load_shared(&path)?;
        let chunks = self.case.probes.chunks(self.case.probes.len().div_ceil(3).max(1));
        std::thread::scope(|scope| {
            let threads: Vec<_> = chunks.map(|c| scope.spawn(|| observe(&*shared, c))).collect();
            let mut seen = Observed { bytes: shared.index_bytes(), ..Observed::default() };
            for part in threads.into_iter().map(|t| t.join().expect("a probing thread panicked")) {
                seen.answers.extend(part.answers);
                seen.counted.extend(part.counted);
                seen.total.accumulate(&part.total);
            }
            Ok(seen)
        })
    }

    /// The reference answering every probe as one unlimited
    /// `BatchExecutor::run_bounded` batch on `threads` workers.
    fn batch(&self, threads: usize) -> Observed {
        let (probes, unlimited) = (&self.case.probes, BatchOptions::unlimited());
        let outcome = BatchExecutor::new(threads).run_bounded(&self.reference, probes, &unlimited);
        let unanswered = || Err(GsrError::Internal("no answer and no error".into()));
        let mut answers: Vec<_> =
            outcome.answers.iter().map(|a| a.map_or_else(unanswered, Ok)).collect();
        for (i, e) in outcome.errors {
            answers[i] = Err(e);
        }
        let bytes = self.reference.index_bytes();
        Observed { bytes, answers, counted: Vec::new(), total: outcome.cost }
    }
}

/// One path: its name in a report, and how a row answers through it.
type PathRow = (&'static str, fn(&Row<'_>) -> Result<Observed, GsrError>);

/// Every in-process way to obtain an index and ask it. The first is the
/// reference every other path's counters and size are held to.
const PATHS: [PathRow; 9] = [
    ("built", |row| Ok(row.seen.clone())),
    ("owned", |row| row.loaded(row.file(), false)),
    ("misaligned", |row| row.misaligned()),
    ("mapped", |row| row.mapped()),
    ("trusted", |row| row.loaded(row.file(), true)),
    ("batch-1", |row| Ok(row.batch(1))),
    ("batch-2", |row| Ok(row.batch(2))),
    ("batch-4", |row| Ok(row.batch(4))),
    ("batch-8", |row| Ok(row.batch(8))),
];

/// Asks every row of `methods` (each under every policy it has) through
/// every path named in `names` over every case, on a few threads that each
/// take the next row of a case. Every cell runs even after one fails; then
/// this panics once, listing each failing cell as
/// `path / method (policy) / case / v / rect`. The cases are deterministic,
/// so that line is the reproduction.
pub fn assert_oracle(cases: &[Case], methods: &[Method], names: &[&str]) {
    let paths: Vec<&PathRow> = PATHS.iter().filter(|p| names.contains(&p.0)).collect();
    assert_eq!(paths.len(), names.len(), "an unknown path among {names:?}");
    let rows: Vec<_> = rows().into_iter().filter(|r| methods.contains(&r.0)).collect();
    let work: Vec<_> = cases.iter().flat_map(|c| rows.iter().map(move |&r| (c, r))).collect();
    assert!(!work.is_empty(), "no case or no row to ask");
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    // One row on one case, on each path: the report lines of its failing
    // cells, and of the row's cost law.
    let check_row = |(case, row): (&Case, (Method, SccSpatialPolicy))| {
        let row = Row::new(case, row);
        let mut failures = cost_law_breaks(&row);
        for (path, answer) in &paths {
            let name = format!("{path} / {}", row.name());
            match catch_unwind(AssertUnwindSafe(|| answer(&row))) {
                Ok(Ok(got)) => failures.extend(disagreements(&name, case, &row.seen, &got)),
                Ok(Err(e)) => failures.push(format!("{name} / {}: {e}", case.name)),
                Err(_) => failures.push(format!("{name} / {}: panicked", case.name)),
            }
        }
        failures
    };
    let reports = gsr_graph::par::map_indexed(workers, work.len(), |i| {
        let (case, (method, policy)) = work[i];
        let panicked = || vec![format!("{} ({policy:?}) / {}: panicked", method.key(), case.name)];
        catch_unwind(AssertUnwindSafe(|| check_row(work[i]))).unwrap_or_else(|_| panicked())
    });
    let failures = reports.concat();
    let cells = work.len() * paths.len();
    let (count, lines) = (failures.len(), failures.join("\n"));
    assert!(failures.is_empty(), "{count} disagreements in {cells} cells:\n{lines}");
}

/// Every path's name, in the path table's order (`built` first).
pub fn every_path() -> [&'static str; 9] {
    PATHS.map(|p| p.0)
}

/// A family of cases through [`assert_oracle`]: its first case through
/// every path, the rest on the index as built, the reference
/// every path is held to. Each network is built once, and the family
/// crosses every path.
pub fn assert_family(cases: &[Case], methods: &[Method]) {
    assert_oracle(&cases[..1], methods, &every_path());
    if cases.len() > 1 {
        assert_oracle(&cases[1..], methods, &["built"]);
    }
}

/// The comparator every cell is judged by. Each answer `got` gives, both
/// ways, must be the oracle's (a typed `InvalidRect` where the oracle has
/// none), and each counted probe must cost what it cost `reference`; the
/// summed counters and `index_bytes` must be the reference's too. Returns
/// one line per disagreement, each naming `cell / case / v / rect`.
pub fn disagreements(cell: &str, case: &Case, reference: &Observed, got: &Observed) -> Vec<String> {
    let whole = format!("{cell} / {}", case.name);
    let at = |i: usize| format!("{whole} / v={} / rect={}", case.probes[i].0, case.probes[i].1);
    let right = |expected: Option<bool>, answer: Result<bool, &GsrError>| match (expected, answer) {
        (Some(want), Ok(answer)) => want == answer,
        (None, Err(GsrError::InvalidRect { .. })) => true,
        _ => false,
    };
    let mut out = Vec::new();
    for (i, (answer, &bfs)) in got.answers.iter().zip(&case.expected).enumerate() {
        if !right(bfs, answer.as_ref().copied()) {
            out.push(format!("{}: try_query gave {answer:?}, BFS {bfs:?}", at(i)));
        }
    }
    let counted = got.counted.iter().zip(&reference.counted).zip(&case.expected);
    for (i, ((counted, want), &bfs)) in counted.enumerate() {
        let answer = counted.as_ref().map(|c| c.0);
        if !right(bfs, answer) {
            out.push(format!("{}: try_query_with_cost gave {answer:?}, BFS {bfs:?}", at(i)));
        } else if let (Ok((_, cost)), Ok((_, want))) = (counted, want) {
            if cost != want {
                out.push(format!("{}: cost {cost:?}, built {want:?}", at(i)));
            }
        }
    }
    let (n, answers, counted) = (case.probes.len(), got.answers.len(), got.counted.len());
    if answers != n || !(counted == 0 || counted == n) {
        out.push(format!("{whole}: {answers} and {counted} answers for {n} probes"));
    }
    if got.total != reference.total {
        out.push(format!("{whole}: summed cost {:?}, built {:?}", got.total, reference.total));
    }
    if got.bytes != reference.bytes {
        out.push(format!("{whole}: index_bytes {}, built {}", got.bytes, reference.bytes));
    }
    out
}

/// The counters' own laws, per method, on every probe `row`'s reference
/// counted. SpaReach draws one candidate per entry its window meets (a point
/// inside it, or a component MBR meeting it) and tests reachability to each
/// until a hit; SocReach scans at most, and on a FALSE exactly, the
/// descendants; GeoReach visits between one and every component; 3DReach
/// issues at most, and on a FALSE exactly, one cuboid query per label;
/// 3DReach-REV always one plane query.
fn cost_law_breaks(row: &Row<'_>) -> Vec<String> {
    let prep = &row.case.prep;
    let in_window = |r: &Rect| match row.policy {
        SccSpatialPolicy::Replicate => {
            prep.network().spatial_vertices().filter(|(_, p)| r.contains_point(p)).count()
        }
        SccSpatialPolicy::Mbr => (0..prep.num_components() as CompId)
            .filter(|&c| prep.comp_mbr(c).is_some_and(|m| m.intersects(r)))
            .count(),
    };
    let keeps_law = |v: VertexId, r: &Rect, answer: bool, cost: &QueryCost| match &row.reference {
        SnapshotIndex::SpaReachBfl(_) | SnapshotIndex::SpaReachInt(_) => {
            let candidates = in_window(r);
            cost.spatial_candidates == candidates
                && cost.reach_tests <= candidates
                && (answer || cost.reach_tests == candidates)
        }
        SnapshotIndex::SocReach(index) => {
            let descendants = index.descendant_count(v);
            cost.vertices_visited <= descendants && (answer || cost.vertices_visited == descendants)
        }
        SnapshotIndex::GeoReach(_) => (1..=prep.num_components()).contains(&cost.vertices_visited),
        SnapshotIndex::ThreeDReach(index) => {
            let labels = index.labels().num_intervals(prep.comp(v));
            (1..=labels).contains(&cost.range_queries) && (answer || cost.range_queries == labels)
        }
        SnapshotIndex::ThreeDReachRev(_) => cost.range_queries == 1,
    };
    let (name, case) = (row.name(), &row.case.name);
    let probes = row.case.probes.iter().zip(&row.seen.counted);
    let broken = probes.filter_map(|((v, r), counted)| match counted {
        Ok((answer, cost)) if !keeps_law(*v, r, *answer, cost) => {
            Some(format!("{name} / {case} / v={v} / rect={r}: {cost:?} breaks the cost law"))
        }
        _ => None,
    });
    broken.collect()
}

/// The corruption sweeps' verdict on one damaged snapshot `file` of the
/// index `reference` observed, loaded with `trust`: a typed
/// [`GsrError::Load`], or an index that answers each probe of `case` as the
/// oracle does at the reference's cost, or refuses it with a typed error.
/// With no `reference` — a trusted load of bytes flipped under their stale
/// CRCs — the index may answer anything, but must answer every probe without
/// a panic. Returns the disagreements, named by `context`.
pub fn judge_load(
    file: &[u8],
    trust: bool,
    case: &Case,
    reference: Option<&Observed>,
    context: &str,
) -> Vec<String> {
    let context = format!("{context} (trust {trust})");
    match gsr_store::load_with(&mut &file[..], gsr_store::LoadOptions { trust }) {
        Err(GsrError::Load(msg)) if !msg.is_empty() => Vec::new(),
        Err(other) => vec![format!("{context}: {other:?}")],
        Ok(index) => {
            let mut seen = observe(&index, &case.probes);
            let Some(reference) = reference else { return Vec::new() };
            for i in 0..case.probes.len() {
                if seen.answers[i].is_err() || seen.counted[i].is_err() {
                    seen.answers[i] = reference.answers[i].clone();
                    seen.counted[i] = reference.counted[i].clone();
                }
            }
            (seen.total, seen.bytes) = (reference.total, reference.bytes);
            disagreements(&context, case, reference, &seen)
        }
    }
}

/// Asserts that loading `file` with `trust` is a typed [`GsrError::Load`]
/// whose message holds `needle`; `context` names the file if it is not.
pub fn assert_load_error(file: &[u8], trust: bool, needle: &str, context: &str) {
    match gsr_store::load_with(&mut &file[..], gsr_store::LoadOptions { trust }) {
        Err(GsrError::Load(msg)) => assert!(msg.contains(needle), "{context}: {msg}"),
        other => panic!("{context}: {:?}", other.map(|index| index.name())),
    }
}

/// CRC-32 (IEEE, reflected), bit at a time: the checksum of a snapshot's
/// sections, computed here without the store's code.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| crc32_step(crc, b))
}

/// [`crc32`]'s register, one byte further.
pub fn crc32_step(crc: u32, byte: u8) -> u32 {
    (0..8).fold(crc ^ byte as u32, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 })
}

/// One section of a snapshot file: tag, element width, payload.
pub type Section = (u16, u8, Vec<u8>);

const HEADER_LEN: usize = 24;
const DIR_ENTRY_LEN: usize = 24;

/// The sections of the snapshot `file`, in file order.
pub fn snapshot_sections(file: &[u8]) -> Vec<Section> {
    let u64_at = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(file[12..16].try_into().unwrap()) as usize;
    let entries = (0..count).map(|i| HEADER_LEN + i * DIR_ENTRY_LEN);
    entries
        .map(|e| {
            let (off, len) = (u64_at(e + 8), u64_at(e + 16));
            (u16::from_le_bytes([file[e], file[e + 1]]), file[e + 2], file[off..off + len].to_vec())
        })
        .collect()
}

/// Where [`frame_sections`] puts each payload: at the next 64-byte boundary
/// after the directory, then after its predecessor.
pub fn section_offsets(sections: &[Section]) -> Vec<usize> {
    let mut end = HEADER_LEN + sections.len() * DIR_ENTRY_LEN;
    let place = |(_, _, payload): &Section| {
        let off = end.div_ceil(64) * 64;
        end = off + payload.len();
        off
    };
    sections.iter().map(place).collect()
}

/// Frames `sections` as a snapshot file of format `version`: header,
/// directory with every section's true CRC, payloads at 64-byte-aligned
/// offsets. Whatever is wrong with the result, the framing is not.
pub fn frame_sections(version: u32, sections: &[Section]) -> Vec<u8> {
    let offsets = section_offsets(sections);
    let mut file = b"GSRSNAP\0".to_vec();
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut ends = offsets.iter().zip(sections).map(|(off, s)| off + s.2.len());
    let file_len = ends.next_back().unwrap_or(HEADER_LEN);
    file.extend_from_slice(&(file_len as u64).to_le_bytes());
    for ((tag, elem, payload), off) in sections.iter().zip(&offsets) {
        file.extend_from_slice(&tag.to_le_bytes());
        file.extend_from_slice(&[*elem, 0]);
        file.extend_from_slice(&crc32(payload).to_le_bytes());
        file.extend_from_slice(&(*off as u64).to_le_bytes());
        file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    }
    for ((_, _, payload), off) in sections.iter().zip(&offsets) {
        file.resize(*off, 0);
        file.extend_from_slice(payload);
    }
    file
}

/// Shrinks the box of the last leaf of the R-tree stored in a snapshot (its
/// upper bound in the last dimension falls by one, so the leaf no longer
/// covers the entry that set it) and frames the file anew: it frames and
/// checksums correctly, only the R-tree's own validation can tell it is
/// wrong.
pub fn shrink_last_leaf_mbr(snapshot: &mut Vec<u8>) {
    // The node upper-bound columns: `0xC8 + d` as `f64`s, `0xE8 + d` as
    // `u32`s (DESIGN.md, "Snapshot layout").
    let node_hi = |tag: u16| (0xC8..0xD0).contains(&tag) || (0xE8..0xF0).contains(&tag);
    let mut sections = snapshot_sections(snapshot);
    let (_, elem, column) = sections
        .iter_mut()
        .filter(|s| node_hi(s.0))
        .max_by_key(|s| s.0 & 0x07)
        .expect("snapshot holds an R-tree");
    let last = column.len() - *elem as usize;
    if *elem == 4 {
        let max = u32::from_le_bytes(column[last..].try_into().unwrap());
        let shrunk = max.checked_sub(1).expect("the last leaf reaches above 0");
        column[last..].copy_from_slice(&shrunk.to_le_bytes());
    } else {
        let max = f64::from_le_bytes(column[last..].try_into().unwrap());
        column[last..].copy_from_slice(&(max - 1.0).to_le_bytes());
    }
    let version = u32::from_le_bytes(snapshot[8..12].try_into().unwrap());
    *snapshot = frame_sections(version, &sections);
}

/// The paper example as dataset `default`, and the same graph with every
/// point stripped (all queries FALSE) as `void`: the datasets the server
/// tests serve.
pub fn paper_datasets() -> Vec<(String, Arc<dyn RangeReachIndex>)> {
    let prep = gsr_core::paper_example::prepared();
    let net = gsr_core::paper_example::network();
    let stripped = GeosocialNetwork::new(net.graph().clone(), vec![None; net.num_vertices()]);
    let void_prep = PreparedNetwork::new(stripped.unwrap());
    let build = |p: &PreparedNetwork| -> Arc<dyn RangeReachIndex> {
        Arc::new(gsr_core::methods::ThreeDReach::build(p, SccSpatialPolicy::Replicate))
    };
    vec![("default".into(), build(&prep)), ("void".into(), build(&void_prep))]
}

/// A Yelp-analog network written by `gsr generate` and its 3DReach snapshot
/// written by `gsr build`, in a scratch directory.
pub struct ServedFiles {
    /// The scratch directory, removed on drop.
    pub dir: gsr_datagen::faults::ScratchDir,
    /// The network file.
    pub net_path: String,
    /// The snapshot file.
    pub snap_path: String,
}

/// Writes [`ServedFiles`] under a scratch directory named after `tag`.
pub fn served_files(tag: &str) -> ServedFiles {
    let dir = gsr_datagen::faults::ScratchDir::new(&format!("gsr_served_{tag}")).unwrap();
    let net_path = dir.path().join("net.gsr").to_string_lossy().to_string();
    let snap_path = dir.path().join("idx.snap").to_string_lossy().to_string();
    let generate = ["generate", "--preset", "yelp", "--scale", "0.02", "--out", &net_path];
    let build = ["build", &net_path, "--method", "3dreach", "--save", &snap_path];
    for argv in [&generate[..], &build[..]] {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        gsr_cli::run(gsr_cli::parse_args(&argv).unwrap(), &mut Vec::new()).unwrap();
    }
    ServedFiles { dir, net_path, snap_path }
}

/// 25 queries spread over the network's space, from vertex `first` on,
/// each as its `REACH` line and the BFS oracle's reply.
pub fn oracle_lines(prep: &PreparedNetwork, first: u32) -> Vec<(String, &'static str)> {
    let n = prep.network().num_vertices() as u32;
    let space = prep.space();
    (0..25)
        .map(|i| {
            let v = (first + i * 7) % n;
            let w = space.width() * (0.05 + 0.2 * ((i % 5) as f64));
            let x = space.min_x + (i as f64 / 25.0) * space.width();
            let y = space.min_y + ((i * 13 % 25) as f64 / 25.0) * space.height();
            let r = Rect { min_x: x, min_y: y, max_x: x + w, max_y: y + w };
            let line = format!("REACH {v} {} {} {} {}\n", r.min_x, r.min_y, r.max_x, r.max_y);
            (line, if prep.range_reach_bfs(v, &r) { "TRUE" } else { "FALSE" })
        })
        .collect()
}

/// One request line of a protocol corpus, rendered from its kind and its
/// position in the pipeline.
fn corpus_line(kind: u8, i: usize) -> Vec<u8> {
    let v = i % 12;
    let (x, y) = ((i % 13) as f64 * 0.75, (i % 11) as f64 * 1.25);
    let reach = format!("REACH {v} {x} {y} {} {}", x + 4.5, y + 4.25);
    match kind {
        // Most lines are queries, so feeds are mostly batches.
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

/// A pipeline over [`paper_datasets`]: `RESET` (so the counters `STATS`
/// lines report start from zero), then request lines of random kinds —
/// queries, malformed and non-UTF-8 lines, `USE`, `STATS`, blanks — until
/// it is past `len` bytes.
pub fn corpus(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pipeline = b"RESET\n".to_vec();
    for i in 1.. {
        if pipeline.len() > len {
            break;
        }
        pipeline.extend(corpus_line(rng.gen_range(0..25), i));
    }
    pipeline
}

/// Feeds `pipeline` to a fresh session cut at `cuts` (byte offsets, in
/// any order), ends it, and returns every reply byte.
pub fn session_replies(engine: &gsr_server::Engine, pipeline: &[u8], cuts: &[usize]) -> Vec<u8> {
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(pipeline.len())).collect();
    cuts.push(pipeline.len());
    cuts.sort_unstable();
    let (mut session, mut out, mut sent) = (engine.session(), Vec::new(), 0);
    for cut in cuts {
        if session.feed(&pipeline[sent..cut], &mut out) != gsr_server::LineAction::Continue {
            return out;
        }
        sent = cut;
    }
    session.finish(&mut out);
    out
}

/// Blanks the `STATS` fields that are timings, and `live=`, which counts
/// sockets; everything else in a reply stream is a function of the
/// request lines alone.
pub fn without_latencies(replies: &[u8]) -> String {
    String::from_utf8_lossy(replies)
        .split_inclusive('\n')
        .map(|line| {
            if !line.starts_with("STATS ") {
                return line.to_string();
            }
            let blanked = ["p50_us=", "p99_us=", "p999_us=", "live="];
            let kept: Vec<&str> = line
                .split_whitespace()
                .filter(|kv| !blanked.iter().any(|p| kv.starts_with(p)))
                .collect();
            kept.join(" ") + "\n"
        })
        .collect()
}

/// The value of field `name` in a `STATS` reply.
pub fn stat_field(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
        .unwrap_or_else(|| panic!("{name} missing from {stats}"))
        .parse()
        .unwrap()
}

//! Everything a workload is made of, generated from `--seed`: the network,
//! the request stream, the expected reply to every request, the BFS
//! spot-check of those expectations, and the workload fingerprint.

use crate::measure::Fnv;
use gsr_core::methods::{
    GeoReach, SocReach, SpaReachBfl, SpaReachInt, ThreeDReach, ThreeDReachRev,
};
use gsr_core::{GeosocialNetwork, PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::networks::ZipfSampler;
use gsr_datagen::workload::{WorkloadGen, PAPER_EXTENTS_PCT};
use gsr_datagen::NetworkSpec;
use gsr_geo::Rect;
use gsr_graph::stats::DegreeBucket;
use gsr_graph::VertexId;
use gsr_store::SnapshotIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The six methods of the paper, by their `gsr build --method` keys, in the
/// order every per-method table uses.
pub const METHODS: [&str; 6] = [
    "3dreach",
    "3dreach-rev",
    "socreach",
    "spareach-bfl",
    "spareach-int",
    "georeach",
];

/// Builds one method with its public `build`.
pub fn build_method(key: &str, prep: &PreparedNetwork) -> SnapshotIndex {
    let policy = SccSpatialPolicy::Replicate;
    match key {
        "3dreach" => SnapshotIndex::ThreeDReach(ThreeDReach::build(prep, policy)),
        "3dreach-rev" => SnapshotIndex::ThreeDReachRev(ThreeDReachRev::build(prep, policy)),
        "socreach" => SnapshotIndex::SocReach(SocReach::build(prep)),
        "spareach-bfl" => SnapshotIndex::SpaReachBfl(SpaReachBfl::build(prep, policy)),
        "spareach-int" => SnapshotIndex::SpaReachInt(SpaReachInt::build(prep, policy)),
        "georeach" => SnapshotIndex::GeoReach(GeoReach::build(prep)),
        other => panic!("unknown method key {other:?}"),
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The dataset analog a workload runs on. Like the paper's datasets it is
/// fixed: `--seed` draws the request stream over it, not the network. A
/// reseeded network moves its cities, and with them the share of TRUE answers
/// (0.81 to 0.94 over three seeds) and the throughput of every workload by
/// 30 %, which no bound on a regression could see through.
pub fn network_spec(gowalla: bool, scale: f64) -> NetworkSpec {
    if gowalla {
        NetworkSpec::gowalla(scale)
    } else {
        NetworkSpec::foursquare(scale)
    }
}

/// The expected reply to one request line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    True,
    False,
    /// A typed `ERR <code>` line (invalid requests only).
    Err(u8),
}

impl Expect {
    pub fn of(answer: bool) -> Expect {
        if answer {
            Expect::True
        } else {
            Expect::False
        }
    }

    /// Whether a reply line (without its newline) is the expected one.
    pub fn matches(&self, reply: &[u8]) -> bool {
        match self {
            Expect::True => reply == b"TRUE",
            Expect::False => reply == b"FALSE",
            Expect::Err(code) => {
                reply.len() > 5
                    && reply.starts_with(b"ERR ")
                    && reply[4] == b'0' + code
                    && reply[5] == b' '
            }
        }
    }

    fn text(&self) -> String {
        match self {
            Expect::True => "TRUE".into(),
            Expect::False => "FALSE".into(),
            Expect::Err(code) => format!("ERR {code}"),
        }
    }
}

/// A workload's requests: a pool of distinct request lines with the expected
/// reply to each, and the order in which the stream asks them.
#[derive(Debug, Clone)]
pub struct Plan {
    text: Vec<u8>,
    starts: Vec<u32>,
    pub expected: Vec<Expect>,
    /// The parsed query behind each pool entry; `None` for lines that never
    /// parse into a query.
    pub queries: Vec<Option<(VertexId, Rect)>>,
    /// Request `k` of the stream asks pool entry `order[k % order.len()]`.
    pub order: Vec<u32>,
}

pub fn reach_line(v: VertexId, r: &Rect) -> String {
    format!(
        "REACH {v} {} {} {} {}\n",
        r.min_x, r.min_y, r.max_x, r.max_y
    )
}

impl Plan {
    /// A plan over valid queries only, asked once each in pool order.
    pub fn unique(queries: &[(VertexId, Rect)], expected: Vec<Expect>) -> Plan {
        let mut plan = Plan {
            text: Vec::new(),
            starts: vec![0],
            expected,
            queries: Vec::new(),
            order: Vec::new(),
        };
        for (v, r) in queries {
            plan.push_line(&reach_line(*v, r), Some((*v, *r)));
        }
        plan.order = (0..queries.len() as u32).collect();
        plan
    }

    fn push_line(&mut self, line: &str, query: Option<(VertexId, Rect)>) {
        self.text.extend_from_slice(line.as_bytes());
        self.starts.push(self.text.len() as u32);
        self.queries.push(query);
    }

    /// Appends `count` invalid request lines, cycling four shapes, with the
    /// typed error each must get. `n` is the network's vertex count.
    pub fn push_invalid(&mut self, count: usize, n: usize) {
        for i in 0..count {
            let v = (i % n.max(1)) as VertexId;
            let (line, query, code) = match i % 4 {
                0 => {
                    let bad = (n + 7 + i) as VertexId;
                    let r = Rect {
                        min_x: 0.0,
                        min_y: 0.0,
                        max_x: 1.0,
                        max_y: 1.0,
                    };
                    (reach_line(bad, &r), Some((bad, r)), 4)
                }
                1 => {
                    let r = Rect {
                        min_x: 10.0,
                        min_y: 10.0,
                        max_x: 1.0,
                        max_y: 1.0,
                    };
                    (reach_line(v, &r), Some((v, r)), 4)
                }
                2 => (format!("REACH {v} 1 2 3\n"), None, 2),
                _ => (format!("FETCH {v}\n"), None, 2),
            };
            self.push_line(&line, query);
            self.expected.push(Expect::Err(code));
        }
    }

    pub fn pool_len(&self) -> usize {
        self.expected.len()
    }

    pub fn line(&self, pool_idx: u32) -> &[u8] {
        let i = pool_idx as usize;
        &self.text[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The pool entry request `k` of the stream asks.
    pub fn at(&self, k: u64) -> u32 {
        self.order[(k % self.order.len() as u64) as usize]
    }

    /// The stream's valid queries with their expected answers, in stream
    /// order (one pass over `order`), for the in-process passes.
    pub fn stream_queries(&self) -> (Vec<(VertexId, Rect)>, Vec<bool>) {
        let mut queries = Vec::with_capacity(self.order.len());
        let mut answers = Vec::with_capacity(self.order.len());
        for &i in &self.order {
            if let (Some(q), Expect::True | Expect::False) =
                (self.queries[i as usize], self.expected[i as usize])
            {
                queries.push(q);
                answers.push(self.expected[i as usize] == Expect::True);
            }
        }
        (queries, answers)
    }
}

/// The Section 6.1 mix: the five region extents crossed with the first four
/// out-degree buckets, in equal shares, shuffled so that every slice of a
/// phase sees the same mix.
pub fn paper_mix(gen: &WorkloadGen<'_>, count: usize, seed: u64) -> Vec<(VertexId, Rect)> {
    let cells = PAPER_EXTENTS_PCT.len() * 4;
    let per_cell = count.div_ceil(cells);
    let mut queries = Vec::with_capacity(per_cell * cells);
    for (e, extent) in PAPER_EXTENTS_PCT.iter().enumerate() {
        for (b, bucket) in DegreeBucket::PAPER_BUCKETS.iter().take(4).enumerate() {
            let cell_seed = seed.wrapping_add((e * 4 + b) as u64);
            queries.extend(
                gen.extent_degree(*extent, *bucket, per_cell, cell_seed)
                    .queries,
            );
        }
    }
    shuffle(&mut queries, seed);
    queries.truncate(count);
    queries
}

pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ 0x005A_FF1E));
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Extent of the empty regions behind spatially negative queries, in percent
/// of the space. At the paper's default of 5 % the rejection sampling takes
/// seconds on the dense Gowalla analog; at 1 % it takes a few hundred ms.
pub const NEGATIVE_EXTENT_PCT: f64 = 1.0;

/// Queries whose answer is FALSE for a social reason. Networks whose users
/// all reach the venue set have no such vertex with out-edges; there the
/// sinks (venues, which reach only themselves) stand in, paired with
/// regions that miss their own point.
pub fn social_negatives(
    gen: &WorkloadGen<'_>,
    prep: &PreparedNetwork,
    count: usize,
    seed: u64,
) -> Vec<(VertexId, Rect)> {
    if let Some(w) = gen.social_negative(5.0, count, seed) {
        return w.queries;
    }
    let net = prep.network();
    let sinks: Vec<VertexId> = net
        .graph()
        .vertices()
        .filter(|&v| net.graph().out_degree(v) == 0 && net.is_spatial(v))
        .collect();
    let regions = gen
        .spatial_negative(
            NEGATIVE_EXTENT_PCT,
            DegreeBucket::PAPER_BUCKETS[0],
            count,
            seed ^ 0x51,
        )
        .queries;
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ 0x50C1));
    regions
        .into_iter()
        .map(|(_, r)| (sinks[rng.gen_range(0..sinks.len())], r))
        .collect()
}

/// `count` rectangles beyond the far corner of the space: they intersect no
/// tile MBR, so a router answers them without a probe.
pub fn outside_space(prep: &PreparedNetwork, count: usize, seed: u64) -> Vec<(VertexId, Rect)> {
    let space = prep.space();
    let n = prep.network().num_vertices();
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ 0x0075_1DE5));
    (0..count)
        .map(|_| {
            let side = space.width() * rng.gen_range(0.01..0.2);
            let x = space.max_x + space.width() * rng.gen_range(0.05..1.0);
            let y = space.max_y + space.height() * rng.gen_range(0.05..1.0);
            (
                rng.gen_range(0..n) as VertexId,
                Rect::new(x, y, x + side, y + side),
            )
        })
        .collect()
}

/// A Zipf(`skew`) draw of `len` requests over the first `valid` pool
/// entries, with a `invalid_share` of uniform picks among the rest.
pub fn zipf_order(
    valid: usize,
    pool: usize,
    len: usize,
    skew: f64,
    invalid_share: f64,
    seed: u64,
) -> Vec<u32> {
    let zipf = ZipfSampler::new(valid, skew);
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ 0x21FF));
    // Rank r of the Zipf law is pool entry perm[r]: popularity is unrelated
    // to the order the pool was generated in.
    let mut perm: Vec<u32> = (0..valid as u32).collect();
    shuffle(&mut perm, seed ^ 0x9E);
    (0..len)
        .map(|_| {
            if pool > valid && rng.gen_range(0.0..1.0) < invalid_share {
                rng.gen_range(valid..pool) as u32
            } else {
                perm[zipf.sample(&mut rng)]
            }
        })
        .collect()
}

/// The oracle's answers to `queries`, as expected replies.
pub fn expected_from(oracle: &dyn RangeReachIndex, queries: &[(VertexId, Rect)]) -> Vec<Expect> {
    queries
        .iter()
        .map(|(v, r)| {
            Expect::of(
                oracle
                    .try_query(*v, r)
                    .expect("generated queries are valid"),
            )
        })
        .collect()
}

/// Checks a seeded sample of at least `sample` expectations against the BFS
/// ground truth; set-up aborts on the first disagreement.
pub fn spot_check(
    prep: &PreparedNetwork,
    plan: &Plan,
    sample: usize,
    seed: u64,
) -> Result<usize, String> {
    let valid: Vec<usize> = (0..plan.pool_len())
        .filter(|&i| plan.queries[i].is_some() && !matches!(plan.expected[i], Expect::Err(_)))
        .collect();
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ 0xBF5));
    let checks = sample.min(valid.len());
    for _ in 0..checks {
        let i = valid[rng.gen_range(0..valid.len())];
        let (v, r) = plan.queries[i].expect("filtered to parsed queries");
        let truth = Expect::of(prep.range_reach_bfs(v, &r));
        if truth != plan.expected[i] {
            return Err(format!(
                "oracle disagrees with BFS on RangeReach({v}, {r}): expected {:?}, BFS says {truth:?}",
                plan.expected[i]
            ));
        }
    }
    Ok(checks)
}

/// FNV-1a-64 over the network's text form, the pool's request lines with
/// their expected replies, and the stream order. Two result sets with
/// different fingerprints did not run the same workload.
pub fn fingerprint(net: &GeosocialNetwork, plan: &Plan) -> u64 {
    let mut h = Fnv::default();
    gsr_datagen::io::write_network(net, &mut h).expect("hashing sink never fails");
    for i in 0..plan.pool_len() {
        h.update(plan.line(i as u32));
        h.update(plan.expected[i].text().as_bytes());
    }
    for k in &plan.order {
        h.update(&k.to_le_bytes());
    }
    h.0
}

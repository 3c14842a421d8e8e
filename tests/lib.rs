//! Shared helpers for the cross-crate integration tests.

use gsr_core::methods::SnapshotIndex;
use gsr_core::{
    prepared_tiles, GeosocialNetwork, Method, OnlineReach, PreparedNetwork, RangeReachIndex,
    SccSpatialPolicy,
};
use gsr_geo::{Point, Rect};
use gsr_graph::scc::CompId;
use gsr_graph::{GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Every method under every SCC policy it has, named by method key
/// (`"3dreach (MBR)"`): the methods with both policies, policy by policy,
/// then those with one.
pub fn all_snapshots(prep: &PreparedNetwork) -> Vec<(String, SnapshotIndex)> {
    let (both, one): (Vec<Method>, Vec<Method>) =
        Method::ALL.into_iter().partition(|m| m.supports_mbr());
    let rows = [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr]
        .into_iter()
        .flat_map(|p| both.iter().map(move |&m| (m, p)))
        .chain(one.into_iter().map(|m| (m, SccSpatialPolicy::Replicate)));
    rows.map(|(m, p)| (format!("{}{}", m.key(), p.suffix()), m.build(prep, p, 1))).collect()
}

/// Cross-checks the BFS oracle on every vertex of `prep` against the
/// brute-force `RangeReport` and against [`OnlineReach`], over zero-area,
/// `-0.0`, outside-the-space and whole-space rects plus `regions`.
///
/// A FALSE answer has tested every reachable member point, so its
/// `containment_tests` equals the number of spatial vertices `v` reaches; a
/// TRUE one has tested at least one and at most that many.
pub fn check_bfs_oracle(prep: &PreparedNetwork, regions: &[Rect]) {
    let space = prep.space();
    let everything = Rect::new(-1e9, -1e9, 1e9, 1e9);
    let mut rects = regions.to_vec();
    rects.extend([everything, space, Rect::new(-0.0, -0.0, 0.0, 0.0)]);
    rects.push(Rect::new(
        space.max_x + 1.0,
        space.max_y + 1.0,
        space.max_x + 9.0,
        space.max_y + 9.0,
    ));
    rects.push(Rect::new(
        space.min_x - 9.0,
        space.min_y - 9.0,
        space.min_x - 1.0,
        space.min_y - 1.0,
    ));
    for (_, p) in prep.network().spatial_vertices() {
        rects.push(Rect::from_point(p));
        rects.push(Rect::new(-0.0, -0.0, p.x.max(0.0), p.y.max(0.0)));
    }
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

/// A random geosocial network: arbitrary directed edges (cycles allowed)
/// with a random subset of spatial vertices.
pub fn random_network(
    n: usize,
    edges: usize,
    spatial_fraction: f64,
    seed: u64,
) -> GeosocialNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..edges {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        builder.add_edge(u, v);
    }
    let points: Vec<Option<Point>> = (0..n)
        .map(|_| {
            rng.gen_bool(spatial_fraction)
                .then(|| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
        })
        .collect();
    GeosocialNetwork::new(builder.build(), points).expect("finite points")
}

/// A batch of random query regions over `[0, 100]^2` of mixed sizes,
/// including degenerate and out-of-space rectangles.
pub fn random_regions(count: usize, seed: u64) -> Vec<gsr_geo::Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let r = match i % 4 {
            0 => {
                // Small square anywhere.
                let c = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
                gsr_geo::Rect::square(c, rng.gen_range(0.1..10.0))
            }
            1 => {
                // Large region.
                let c = Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
                gsr_geo::Rect::square(c, rng.gen_range(20.0..120.0))
            }
            2 => {
                // Degenerate point probe.
                gsr_geo::Rect::from_point(Point::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                ))
            }
            _ => {
                // Possibly outside the populated space.
                let c = Point::new(rng.gen_range(-50.0..150.0), rng.gen_range(-50.0..150.0));
                gsr_geo::Rect::square(c, rng.gen_range(1.0..30.0))
            }
        };
        out.push(r);
    }
    out
}

/// CRC-32 (IEEE, reflected), bit at a time: the checksum of a snapshot's
/// sections, computed here without the store's code.
pub fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| {
        (0..8).fold(crc ^ b as u32, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 })
    })
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

/// Shrinks the MBR of the last leaf of the R-tree stored in a snapshot
/// (`max` falls below `min` in the last dimension, so the leaf no longer
/// covers its entries) and frames the file anew: it frames and checksums
/// correctly, only the R-tree's own validation can tell it is wrong.
pub fn shrink_last_leaf_mbr(snapshot: &mut Vec<u8>) {
    const RT_MBRS: u16 = 0x20;
    let mut sections = snapshot_sections(snapshot);
    let (_, elem, mbrs) =
        sections.iter_mut().find(|s| s.0 == RT_MBRS).expect("snapshot holds an R-tree");
    let dims = *elem as usize / 16; // element = min[N] + max[N] f64s
    let (last_max, last_min) = (mbrs.len() - 8, mbrs.len() - 8 - dims * 8);
    let min = f64::from_le_bytes(mbrs[last_min..last_min + 8].try_into().unwrap());
    mbrs[last_max..last_max + 8].copy_from_slice(&(min - 1.0).to_le_bytes());
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

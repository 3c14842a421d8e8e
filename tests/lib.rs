//! Shared helpers for the cross-crate integration tests.

use gsr_core::methods::{
    report_bfs, GeoReach, SocReach, SpaReachBfl, SpaReachInt, ThreeDReach, ThreeDReachRev,
};
use gsr_core::{
    prepared_tiles, GeosocialNetwork, OnlineReach, PreparedNetwork, RangeReachIndex,
    SccSpatialPolicy,
};
use gsr_geo::{Point, Rect};
use gsr_graph::scc::CompId;
use gsr_graph::{GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Builds every evaluation method (both SCC policies where supported) with
/// a describing label.
pub fn all_indexes(prep: &PreparedNetwork) -> Vec<(String, Box<dyn RangeReachIndex>)> {
    let mut out: Vec<(String, Box<dyn RangeReachIndex>)> = Vec::new();
    for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
        let tag = policy.suffix();
        out.push((format!("SpaReach-BFL{tag}"), Box::new(SpaReachBfl::build(prep, policy))));
        out.push((format!("SpaReach-INT{tag}"), Box::new(SpaReachInt::build(prep, policy))));
        out.push((format!("3DReach{tag}"), Box::new(ThreeDReach::build(prep, policy))));
        out.push((format!("3DReach-REV{tag}"), Box::new(ThreeDReachRev::build(prep, policy))));
    }
    out.push(("GeoReach".to_string(), Box::new(GeoReach::build(prep))));
    out.push(("SocReach".to_string(), Box::new(SocReach::build(prep))));
    out
}

/// The six methods as snapshots, under both SCC policies where a method has
/// them, named by method key (`"3dreach (MBR)"`).
pub fn all_snapshots(prep: &PreparedNetwork) -> Vec<(String, gsr_store::SnapshotIndex)> {
    use gsr_store::SnapshotIndex;
    let mut out = Vec::new();
    for p in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
        let named = |name: &str, index| (format!("{name}{}", p.suffix()), index);
        out.push(named("spareach-bfl", SnapshotIndex::SpaReachBfl(SpaReachBfl::build(prep, p))));
        out.push(named("spareach-int", SnapshotIndex::SpaReachInt(SpaReachInt::build(prep, p))));
        out.push(named("3dreach", SnapshotIndex::ThreeDReach(ThreeDReach::build(prep, p))));
        out.push(named("3dreach-rev", SnapshotIndex::ThreeDReachRev(ThreeDReachRev::build(prep, p))));
    }
    out.push(("georeach".into(), SnapshotIndex::GeoReach(GeoReach::build(prep))));
    out.push(("socreach".into(), SnapshotIndex::SocReach(SocReach::build(prep))));
    out
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
    rects.push(Rect::new(space.max_x + 1.0, space.max_y + 1.0, space.max_x + 9.0, space.max_y + 9.0));
    rects.push(Rect::new(space.min_x - 9.0, space.min_y - 9.0, space.min_x - 1.0, space.min_y - 1.0));
    for (_, p) in prep.network().spatial_vertices() {
        rects.push(Rect::from_point(p));
        rects.push(Rect::new(-0.0, -0.0, p.x.max(0.0), p.y.max(0.0)));
    }
    let online = OnlineReach::new(Arc::new(prep.clone()));
    for v in prep.network().graph().vertices() {
        let reachable = report_bfs(prep, v, &everything).len();
        for r in &rects {
            let (found, cost) = prep.range_reach_bfs_with_cost(v, r);
            assert_eq!(found, prep.range_reach_bfs(v, r), "v={v} r={r}");
            assert_eq!(found, !report_bfs(prep, v, r).is_empty(), "report, v={v} r={r}");
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

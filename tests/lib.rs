//! Shared helpers for the cross-crate integration tests.

use gsr_core::methods::{GeoReach, SocReach, SpaReachBfl, SpaReachInt, ThreeDReach, ThreeDReachRev};
use gsr_core::{GeosocialNetwork, PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_geo::Point;
use gsr_graph::{GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Shrinks the MBR of the last leaf of the R-tree stored in a v3 snapshot
/// (`max` falls below `min` in the last dimension, so the leaf no longer
/// covers its entries) and recomputes the section's CRC: the file frames and
/// checksums correctly, only `RTree::from_cols` can tell it is wrong.
pub fn shrink_last_leaf_mbr(snapshot: &mut [u8]) {
    const HEADER_LEN: usize = 24;
    const DIR_ENTRY_LEN: usize = 24;
    const RT_MBRS: u16 = 0x20;
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let sections = u32::from_le_bytes(snapshot[12..16].try_into().unwrap()) as usize;
    let entry = (0..sections)
        .map(|i| HEADER_LEN + i * DIR_ENTRY_LEN)
        .find(|&e| u16::from_le_bytes([snapshot[e], snapshot[e + 1]]) == RT_MBRS)
        .expect("snapshot holds an R-tree");
    let dims = snapshot[entry + 2] as usize / 16; // element = min[N] + max[N] f64s
    let (off, len) = (u64_at(snapshot, entry + 8) as usize, u64_at(snapshot, entry + 16) as usize);
    let (last_max, last_min) = (off + len - 8, off + len - 8 - dims * 8);
    let min = f64::from_le_bytes(snapshot[last_min..last_min + 8].try_into().unwrap());
    snapshot[last_max..last_max + 8].copy_from_slice(&(min - 1.0).to_le_bytes());
    // CRC-32 (IEEE, reflected), bit at a time.
    let crc = !snapshot[off..off + len].iter().fold(!0u32, |crc, &b| {
        (0..8).fold(crc ^ b as u32, |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 })
    });
    snapshot[entry + 4..entry + 8].copy_from_slice(&crc.to_le_bytes());
}

//! Pins the memory an index build may use to a multiple of what it builds.
//!
//! Linking `gsr-bench` installs its counting global allocator; like
//! `zero_alloc.rs` this suite runs without the libtest harness (see
//! `Cargo.toml`), so the process is single-threaded and quiet and the
//! process-global live-byte high-water mark is an exact measurement.
//!
//! Three families of checks:
//!
//! * `RTree::bulk_load` over uniform random points, in 2-D and 3-D: the
//!   peak of live heap bytes during the load stays within
//!   [`BULK_LOAD_FACTOR`] × (input + packed tree), and growing the input 8×
//!   grows the peak at most [`GROWTH_LIMIT`]× — the packer is linear in
//!   memory. (A packer that cuts owned slabs off the buffer holds
//!   `slabs × n / 2` entries, O(n^1.5) bytes, and fails both.)
//! * `GraphBuilder::build` over random edges with duplicates: the peak stays
//!   within [`GRAPH_BUILD_FACTOR`] × (edge list + CSR), and growing the
//!   edge list 8× grows the peak at most [`GROWTH_LIMIT`]×.
//! * each of the six methods' public `build` on the Gowalla analog at scale
//!   1: the scaffolding above the prepared network peaks within
//!   [`METHOD_FACTOR`] × the index's own `index_bytes()`.

use gsr_bench::alloc_track::{live_bytes, peak_live_bytes, reset_peak_live_bytes};
use gsr_bench::Dataset;
use gsr_core::{Method, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::NetworkSpec;
use gsr_geo::Aabb;
use gsr_graph::GraphBuilder;
use gsr_index::RTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Peak live bytes of a bulk load, as a multiple of input + result.
const BULK_LOAD_FACTOR: u64 = 4;
/// Largest allowed peak(160 000 entries) / peak(20 000 entries), and
/// peak(1 600 000 edges) / peak(200 000 edges).
const GROWTH_LIMIT: u64 = 9;
/// Peak live bytes of a CSR build, as a multiple of edge list + CSR.
/// Measured: 0.7; sorting the edge list in place and building both CSRs
/// from it read 1.0.
const GRAPH_BUILD_FACTOR: u64 = 2;
/// Peak live bytes of a method build above the prepared network, as a
/// multiple of the built index's `index_bytes()`. Measured: 1.0
/// (SpaReach-BFL) to 3.7 (GeoReach, whose scaffolding is its own); with a
/// slab-copying packer the four R-tree methods read 15 to 40.
const METHOD_FACTOR: u64 = 6;

/// Runs `build` and returns its result with the peak of live heap bytes
/// above `floor` while it ran.
fn peak_above<T>(floor: u64, build: impl FnOnce() -> T) -> (T, u64) {
    reset_peak_live_bytes();
    let built = build();
    (built, peak_live_bytes().saturating_sub(floor))
}

/// Bulk-loads `n` uniform points; returns (peak, allowed peak).
fn bulk_load_peak<const N: usize>(n: usize) -> (u64, u64) {
    let floor = live_bytes();
    let mut rng = StdRng::seed_from_u64(0xB01D + n as u64);
    let entries: Vec<(Aabb<N>, u32)> = (0..n as u32)
        .map(|i| (Aabb::from_point(std::array::from_fn(|_| rng.gen_range(0.0..1000.0))), i))
        .collect();
    let input = std::mem::size_of_val(&entries[..]) as u64;
    let (tree, peak) = peak_above(floor, || RTree::bulk_load(entries));
    assert_eq!(tree.len(), n);
    (peak, BULK_LOAD_FACTOR * (input + tree.heap_bytes() as u64))
}

/// Builds a graph from `m` random edges over `m / 8` vertices; returns
/// (peak, edge list + CSR).
fn graph_build_peak(m: usize) -> (u64, u64) {
    let floor = live_bytes();
    let n = (m / 8) as u32;
    let mut rng = StdRng::seed_from_u64(0xC5A + m as u64);
    let mut builder = GraphBuilder::with_capacity(n as usize, m);
    builder.extend_edges((0..m).map(|_| (rng.gen_range(0..n), rng.gen_range(0..n))));
    let input = (m * std::mem::size_of::<(u32, u32)>()) as u64;
    let (graph, peak) = peak_above(floor, || builder.build());
    assert_eq!(graph.num_vertices(), n as usize);
    (peak, input + graph.heap_bytes() as u64)
}

fn check(failures: &mut usize, ok: bool, line: String) {
    if ok {
        println!("ok   {line}");
    } else {
        *failures += 1;
        eprintln!("FAIL {line}");
    }
}

fn bulk_load_checks<const N: usize>(failures: &mut usize) {
    let (small, small_limit) = bulk_load_peak::<N>(20_000);
    let (large, large_limit) = bulk_load_peak::<N>(160_000);
    for (n, peak, limit) in [(20_000, small, small_limit), (160_000, large, large_limit)] {
        let line = format!("{N}-D bulk load of {n}: peak {peak} B, limit {limit} B");
        check(failures, peak <= limit, line);
    }
    let line = format!(
        "{N}-D bulk load, 8x the entries: peak x{:.1}, limit x{GROWTH_LIMIT}",
        large as f64 / small as f64
    );
    check(failures, large <= GROWTH_LIMIT * small, line);
}

fn graph_build_checks(failures: &mut usize) {
    let (small, small_base) = graph_build_peak(200_000);
    let (large, large_base) = graph_build_peak(1_600_000);
    for (m, peak, base) in [(200_000, small, small_base), (1_600_000, large, large_base)] {
        let line = format!(
            "CSR build of {m} edges: peak {peak} B = {:.1} x (edges + CSR), limit x{GRAPH_BUILD_FACTOR}",
            peak as f64 / base as f64
        );
        check(failures, peak <= GRAPH_BUILD_FACTOR * base, line);
    }
    let line = format!(
        "CSR build, 8x the edges: peak x{:.1}, limit x{GROWTH_LIMIT}",
        large as f64 / small as f64
    );
    check(failures, large <= GROWTH_LIMIT * small, line);
}

fn main() {
    let mut failures = 0usize;
    bulk_load_checks::<2>(&mut failures);
    bulk_load_checks::<3>(&mut failures);
    graph_build_checks(&mut failures);

    // A fresh prepared network per method: the forward labeling a method
    // leaves cached on it belongs to that method's index.
    let spec = NetworkSpec::gowalla(1.0);
    for method in Method::ALL {
        let ds = Dataset::from_spec(&spec);
        let (idx, peak) =
            peak_above(live_bytes(), || method.build(&ds.prep, SccSpatialPolicy::Replicate));
        let index = idx.index_bytes() as u64;
        let line = format!(
            "{} build: peak {peak} B = {:.1} x index ({index} B), limit x{METHOD_FACTOR}",
            idx.name(),
            peak as f64 / index as f64
        );
        check(&mut failures, peak <= METHOD_FACTOR * index, line);
    }

    println!("{} build-memory checks, {failures} failures", 3 * 3 + Method::ALL.len());
    if failures > 0 {
        std::process::exit(1);
    }
}

//! Pins the memory an index build may use to a multiple of what it builds.
//!
//! Linking `gsr-bench` installs its counting global allocator; like
//! `zero_alloc.rs` this suite runs without the libtest harness (see
//! `Cargo.toml`), so the process is single-threaded and quiet and the
//! process-global live-byte high-water mark is an exact measurement.
//!
//! Two families of checks:
//!
//! * `RTree::bulk_load` over uniform random points, in 2-D and 3-D: the
//!   peak of live heap bytes during the load stays within
//!   [`BULK_LOAD_FACTOR`] × (input + packed tree), and growing the input 8×
//!   grows the peak at most [`GROWTH_LIMIT`]× — the packer is linear in
//!   memory. (A packer that cuts owned slabs off the buffer holds
//!   `slabs × n / 2` entries, O(n^1.5) bytes, and fails both.)
//! * each of the six methods' public `build` on the Gowalla analog at scale
//!   1: the scaffolding above the prepared network peaks within
//!   [`METHOD_FACTOR`] × the index's own `index_bytes()`.

use gsr_bench::alloc_track::{live_bytes, peak_live_bytes, reset_peak_live_bytes};
use gsr_bench::Dataset;
use gsr_core::{Method, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::NetworkSpec;
use gsr_geo::Aabb;
use gsr_index::RTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Peak live bytes of a bulk load, as a multiple of input + result.
const BULK_LOAD_FACTOR: u64 = 4;
/// Largest allowed peak(160 000 entries) / peak(20 000 entries).
const GROWTH_LIMIT: u64 = 9;
/// Peak live bytes of a method build above the prepared network, as a
/// multiple of the built index's `index_bytes()`. Measured: 1.2
/// (SpaReach-BFL) to 4.9 (GeoReach, whose scaffolding is its own); with a
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

fn main() {
    let mut failures = 0usize;
    bulk_load_checks::<2>(&mut failures);
    bulk_load_checks::<3>(&mut failures);

    // A fresh prepared network per method: the forward labeling a method
    // leaves cached on it belongs to that method's index.
    let spec = NetworkSpec::gowalla(1.0);
    for method in Method::ALL {
        let ds = Dataset::from_spec(&spec);
        let (idx, peak) =
            peak_above(live_bytes(), || method.build(&ds.prep, SccSpatialPolicy::Replicate, 1));
        let index = idx.index_bytes() as u64;
        let line = format!(
            "{} build: peak {peak} B = {:.1} x index ({index} B), limit x{METHOD_FACTOR}",
            idx.name(),
            peak as f64 / index as f64
        );
        check(&mut failures, peak <= METHOD_FACTOR * index, line);
    }

    println!("{} build-memory checks, {failures} failures", 2 * 3 + Method::ALL.len());
    if failures > 0 {
        std::process::exit(1);
    }
}

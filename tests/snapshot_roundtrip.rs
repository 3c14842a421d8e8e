//! Snapshot round-trip and corruption tests for `gsr-store`.
//!
//! Every method's snapshot under every SCC policy, loaded owned, trusted,
//! mapped or from a misaligned buffer, must answer as BFS does at its built
//! index's cost and size (`gsr_tests::assert_oracle`). Every corruption —
//! bit flips, truncation, a shrunk leaf MBR, a retired version, I/O faults
//! mid-stream — must surface as a typed [`GsrError::Load`] or an index that
//! answers as the oracle does (`gsr_tests::judge_load`), never a panic.

use gsr_core::{GsrError, Method, PreparedNetwork};
use gsr_datagen::faults::{FailingReader, ScratchDir};
use gsr_datagen::NetworkSpec;
use gsr_store::SnapshotIndex;
use gsr_tests::{all_snapshots, assert_load_error, assert_oracle, judge_load};
use gsr_tests::{observe, random_regions, Case, Observed};

fn generated_prep() -> PreparedNetwork {
    PreparedNetwork::new(NetworkSpec::weeplaces(0.05).generate())
}

/// Flips each of `bits` of every 97th part of every snapshot of a Yelp
/// analog, one flip per file, and asserts that `judge` finds nothing wrong
/// with any, given the probes and what the intact index answered.
fn flip_sweep(bits: &[u8], judge: impl Fn(&[u8], &Case, &Observed, &str) -> Vec<String>) {
    let case =
        Case::new("yelp-0.02", PreparedNetwork::new(NetworkSpec::yelp(0.02).generate()), 3, &[]);
    let mut failures = Vec::new();
    for (name, original) in all_snapshots(&case.prep) {
        let (bytes, reference) = (saved(&original), observe(&original, &case.probes));
        for pos in (0..bytes.len()).step_by((bytes.len() / 97).max(1)) {
            for bit in bits {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                let context = format!("{name}: flip at byte {pos} bit {bit}");
                failures.extend(judge(&corrupt, &case, &reference, &context));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn saved(index: &SnapshotIndex) -> Vec<u8> {
    let mut bytes = Vec::new();
    gsr_store::save(&mut bytes, index).expect("save");
    bytes
}

#[test]
fn every_method_replays_a_workload_bit_identically() {
    let case = Case::new("weeplaces", generated_prep(), 20, &random_regions(20, 0xC0FFEE));
    assert_oracle(&[case], &Method::ALL, &["owned", "trusted"]);
}

/// A mapped snapshot file serves three concurrent readers.
#[test]
fn snapshot_files_round_trip_through_disk() {
    let case = Case::new("weeplaces", generated_prep(), 20, &random_regions(8, 42));
    assert_oracle(&[case], &Method::ALL, &["mapped"]);
}

/// Every single-bit flip anywhere in the snapshot must be caught — by the
/// magic/version check, a section CRC, or a structural validator — and
/// reported as `GsrError::Load`. A flip that still loads (the CRCs make it
/// vanishingly unlikely) must answer as the oracle does.
#[test]
fn bit_flips_are_typed_load_errors() {
    flip_sweep(&[0, 3, 7], |file, case, reference, context| {
        judge_load(file, false, case, Some(reference), context)
    });
}

#[test]
fn truncations_are_typed_load_errors() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    for (name, original) in all_snapshots(&prep) {
        let bytes = saved(&original);
        let stride = (bytes.len() / 61).max(1);
        for cut in (0..bytes.len()).step_by(stride) {
            assert_load_error(&bytes[..cut], false, "", &format!("{name}: cut at {cut}"));
        }
    }
}

/// I/O faults mid-stream (disk error rather than short file) must also map
/// to `GsrError::Load` with the underlying error in the message.
#[test]
fn io_faults_mid_stream_are_typed_load_errors() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    let bytes = saved(&all_snapshots(&prep).remove(0).1);
    for budget in [0, 1, 8, 11, bytes.len() / 2, bytes.len() - 1] {
        let mut reader = FailingReader::new(bytes.as_slice(), budget);
        let err = gsr_store::load(&mut reader).expect_err("faulted read must not load");
        assert!(matches!(err, GsrError::Load(_)), "budget {budget}: {err:?}");
    }
}

/// Saving a loaded index must reproduce the exact byte stream: the
/// compact layouts (columnar R-tree arenas, delta-compressed labels) are
/// canonical and the section directory is deterministic, so
/// save → load → save is the identity on bytes for every method.
#[test]
fn resaving_a_loaded_snapshot_is_byte_identical() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    for (name, original) in all_snapshots(&prep) {
        let bytes = saved(&original);
        let loaded = gsr_store::load(&mut bytes.as_slice()).expect("load");
        let mut again = Vec::new();
        gsr_store::save(&mut again, &loaded).expect("re-save");
        assert_eq!(bytes, again, "{name}: snapshot is not canonical");
    }
}

/// The written bytes are the format: the CRC-32 of every method's whole
/// snapshot of one fixed network, under both SCC policies, is pinned here.
/// A change to what is written — a column, a scalar, their order, the
/// framing — changes a hash, and is a bump of `FORMAT_VERSION`; a change
/// that only moves code leaves all ten alone.
#[test]
fn golden_snapshot_hashes() {
    const GOLDEN: [(&str, usize, u32); 10] = [
        ("spareach-bfl", 129440, 0x1BCEA70C),
        ("spareach-int", 65752, 0xAF9A0CF6),
        ("3dreach", 38144, 0x68422B24),
        ("3dreach-rev", 59904, 0xBC0981F2),
        ("spareach-bfl (MBR)", 129440, 0x4BC010DC),
        ("spareach-int (MBR)", 65752, 0xBFD62451),
        ("3dreach (MBR)", 57568, 0xDC058C5A),
        ("3dreach-rev (MBR)", 79328, 0x24CFBFDA),
        ("georeach", 45792, 0x76E917FA),
        ("socreach", 27872, 0xCDC57A31),
    ];
    let hashed = |(name, index): &(String, SnapshotIndex)| {
        let mut bytes = Vec::new();
        gsr_store::save(&mut bytes, index).expect("save");
        (name.clone(), bytes.len(), format!("0x{:08X}", gsr_tests::crc32(&bytes)))
    };
    let got: Vec<_> = gsr_tests::all_snapshots(&generated_prep()).iter().map(hashed).collect();
    let want: Vec<_> =
        GOLDEN.iter().map(|&(n, len, crc)| (n.to_string(), len, format!("0x{crc:08X}"))).collect();
    assert_eq!(got, want, "written bytes changed: bump FORMAT_VERSION, then these");
}

/// The store checksums with a carry-less-multiply kernel where the
/// processor has one and with table lookups elsewhere and for short inputs;
/// both must be the CRC-32 this crate computes a bit at a time from the
/// polynomial — for every length around the kernel's 64-byte blocks at every
/// start offset within a 16-byte lane, for a buffer long enough that the
/// folding loop does nearly all the work, and for the published vectors.
#[test]
fn crc_kernels_agree() {
    use gsr_store::wire::{crc32, crc32_portable};
    for (input, want) in [(&b"123456789"[..], 0xCBF4_3926u32), (b"", 0), (b"a", 0xE8B7_BE43)] {
        assert_eq!(gsr_tests::crc32(input), want);
        assert_eq!(crc32(input), want);
        assert_eq!(crc32_portable(input), want);
    }
    let mut word = 0x2545_F491_4F6C_DD1Du64;
    let mut noise = || {
        word ^= word << 13;
        word ^= word >> 7;
        word ^= word << 17;
        word as u8
    };
    let buf: Vec<u8> = (0..(1 << 20) + 16).map(|_| noise()).collect();
    for start in 0..=16 {
        // The reference register of `buf[start..start + len]`, extended a
        // byte per length.
        let mut register = !0u32;
        for len in 0..=1024 {
            let data = &buf[start..start + len];
            let want = !register;
            assert_eq!(crc32(data), want, "start {start}, len {len}");
            assert_eq!(crc32_portable(data), want, "portable path, start {start}, len {len}");
            register = gsr_tests::crc32_step(register, buf[start + len]);
        }
    }
    let mib = &buf[5..5 + (1 << 20)];
    let want = gsr_tests::crc32(mib);
    assert_eq!(crc32(mib), want);
    assert_eq!(crc32_portable(mib), want);
}

/// A stream staged at an odd offset inside a larger buffer, so every
/// section payload the reader sees is misaligned, loads the same index.
#[test]
fn misaligned_source_buffers_load_identically() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    let case = Case::new("yelp", prep, 30, &random_regions(4, 7));
    assert_oracle(&[case], &Method::ALL, &["misaligned"]);
}

/// `--trust-snapshot` skips only the CRC pass; the structural validators
/// still run. A bit-flip sweep under trusted loading must therefore never
/// panic: every flip either fails structurally with a typed
/// [`GsrError::Load`] or loads into an index that answers every probe
/// (values may differ — that is the documented trade of skipping CRCs).
#[test]
fn trusted_loads_of_corrupt_bytes_never_panic() {
    flip_sweep(&[0, 5], |file, case, _, context| judge_load(file, true, case, None, context));
}

/// A snapshot that frames and checksums correctly but whose R-tree has a
/// leaf MBR that no longer covers the leaf's entries. Queries on such a tree
/// would prune — or, with run-at-a-time scans, wave through — entries the
/// MBR misdescribes, so `RTree::from_cols` must refuse it: with the CRC pass
/// and, since the CRC is valid anyway, without it.
#[test]
fn a_shrunk_leaf_mbr_is_a_typed_load_error_even_when_trusted() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    for (name, original) in all_snapshots(&prep) {
        if matches!(original, SnapshotIndex::GeoReach(_) | SnapshotIndex::SocReach(_)) {
            continue; // no R-tree in these two
        }
        let mut bytes = saved(&original);
        gsr_tests::shrink_last_leaf_mbr(&mut bytes);
        for trust in [false, true] {
            let context = format!("{name} (trust {trust}): shrunk leaf mbr");
            assert_load_error(&bytes, trust, "outside its mbr", &context);
        }
    }
}

/// The retired formats — v1 (pointer-node R-trees, uncompressed labels),
/// v2 (framed streaming sections), v3 (this framing, with the R-tree's
/// `children` section), v4 (GeoReach's SPA table as one encoded section),
/// v5 (two fan-out scalars per R-tree) and v6 (node boxes as one `Aabb`
/// column, every coordinate an `f64`) — carry their version in the
/// header; both load entry points must reject them with a typed version
/// error naming it, not misparse the payload or panic.
#[test]
fn v1_snapshots_are_rejected_with_a_typed_version_error() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    let dir = ScratchDir::new("gsr_snapshot_retired_versions").unwrap();
    for (name, original) in all_snapshots(&prep) {
        let bytes = saved(&original);
        assert_eq!(&bytes[8..12], &gsr_store::FORMAT_VERSION.to_le_bytes(), "header version");

        for retired in [1u32, 2, 3, 4, 5, 6] {
            // Same magic, retired version field. The loader must stop at
            // the header: the retired payloads are not parseable as
            // sections, so anything past the version check would be
            // garbage-in.
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&retired.to_le_bytes());
            let path = dir.path().join(format!("{name}.v{retired}.snap"));
            std::fs::write(&path, &old).unwrap();
            let from_stream = gsr_store::load(&mut old.as_slice()).map(|_| ());
            let from_path =
                gsr_store::load_from_path_with(&path, gsr_store::LoadOptions::default())
                    .map(|_| ());
            for outcome in [from_stream, from_path] {
                match outcome {
                    Err(GsrError::Load(msg)) => assert!(
                        msg.contains(&format!("unsupported format version {retired} ")),
                        "{name}: diagnostic must name the unsupported version: {msg}"
                    ),
                    other => panic!("{name}: v{retired} snapshot gave {other:?}"),
                }
            }
        }
    }
}

#[test]
fn version_and_method_tag_mismatches_are_diagnosed() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    let bytes = saved(&all_snapshots(&prep).remove(0).1);

    // Future format version.
    let mut wrong = bytes.clone();
    wrong[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert_load_error(&wrong, false, "version", "future version");
    // Not a snapshot at all; empty input.
    assert_load_error(b"GSRSNAPx........", false, "", "not a snapshot");
    assert_load_error(b"", false, "", "empty input");

    // A SpaReach filter kind (`META` after the method tag) with a bit no
    // filter defines, framed with true CRCs.
    const META: u16 = 0x01;
    let mut sections = gsr_tests::snapshot_sections(&bytes);
    sections.iter_mut().find(|s| s.0 == META).expect("META").2[1] |= 0x80;
    let bad = gsr_tests::frame_sections(gsr_store::FORMAT_VERSION, &sections);
    for trust in [false, true] {
        let context = format!("undefined kind bit (trust {trust})");
        assert_load_error(&bad, trust, "spatial-filter kind", &context);
    }
}

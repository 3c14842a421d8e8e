//! Snapshot round-trip and corruption tests for `gsr-store`.
//!
//! Every method must come back from a snapshot answering bit-identically
//! (answers AND work counters) on a generated network; every corruption —
//! bit flips, truncation, I/O faults mid-stream — must surface as a typed
//! [`GsrError::Load`], never a panic or a silently different index.

use gsr_core::{GsrError, Method, PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::faults::{FailingReader, ScratchDir};
use gsr_datagen::NetworkSpec;
use gsr_store::SnapshotIndex;
use gsr_tests::random_regions;

/// All six methods as saveable snapshots over one prepared network.
fn snapshots(prep: &PreparedNetwork) -> Vec<SnapshotIndex> {
    Method::ALL.map(|m| m.build(prep, SccSpatialPolicy::Replicate, 1)).to_vec()
}

fn generated_prep() -> PreparedNetwork {
    PreparedNetwork::new(NetworkSpec::weeplaces(0.05).generate())
}

#[test]
fn every_method_replays_a_workload_bit_identically() {
    let prep = generated_prep();
    let n = prep.network().num_vertices() as u32;
    let regions = random_regions(20, 0xC0FFEE);

    for original in snapshots(&prep) {
        let mut bytes = Vec::new();
        gsr_store::save(&mut bytes, &original).expect("save");
        let loaded = gsr_store::load(&mut bytes.as_slice()).expect("load");
        assert_eq!(loaded.name(), original.name());
        assert_eq!(loaded.num_vertices(), original.num_vertices());
        assert_eq!(
            loaded.index_bytes(),
            original.index_bytes(),
            "{}: loaded index has a different memory footprint",
            original.name()
        );

        // Replay: every vertex x every region, answers AND QueryCost.
        for v in (0..n).step_by(7) {
            for r in &regions {
                let (a0, c0) = original.query_with_cost(v, r);
                let (a1, c1) = loaded.query_with_cost(v, r);
                assert_eq!(a0, a1, "{}: answer diverged at v={v} r={r}", original.name());
                assert_eq!(c0, c1, "{}: QueryCost diverged at v={v} r={r}", original.name());
            }
        }
    }
}

#[test]
fn snapshot_files_round_trip_through_disk() {
    let dir = ScratchDir::new("gsr_snapshot_roundtrip_test").unwrap();
    let prep = generated_prep();
    let regions = random_regions(8, 42);

    for original in snapshots(&prep) {
        let path = dir.path().join(format!("{}.snap", original.method().key()));
        gsr_store::save_to_path(&path, &original).expect("save_to_path");
        let shared = gsr_store::load_shared(&path).expect("load_shared");

        // The Arc-shared index serves concurrent readers.
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let shared = std::sync::Arc::clone(&shared);
                let original = &original;
                let regions = &regions;
                scope.spawn(move || {
                    for v in 0..original.num_vertices() as u32 {
                        for r in regions {
                            assert_eq!(shared.query(v, r), original.query(v, r));
                        }
                    }
                });
            }
        });
    }
}

/// Every single-bit flip anywhere in the snapshot must be caught — by the
/// magic/version check, a section CRC, or a structural validator — and
/// reported as `GsrError::Load`. A flip that still loads must at minimum
/// keep the method identity (CRCs make this vanishingly unlikely; the
/// assert documents the contract).
#[test]
fn bit_flips_are_typed_load_errors() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    for original in snapshots(&prep) {
        let mut bytes = Vec::new();
        gsr_store::save(&mut bytes, &original).expect("save");

        let stride = (bytes.len() / 97).max(1);
        for pos in (0..bytes.len()).step_by(stride) {
            for bit in [0u8, 3, 7] {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                match gsr_store::load(&mut corrupt.as_slice()) {
                    Err(GsrError::Load(msg)) => {
                        assert!(!msg.is_empty(), "empty diagnostic at byte {pos}");
                    }
                    Err(other) => panic!(
                        "{}: flip at byte {pos} bit {bit} gave non-Load error {other:?}",
                        original.name()
                    ),
                    Ok(loaded) => {
                        // A flip in section padding-free payload that still
                        // passes CRC is practically impossible; if it ever
                        // happens the index must still be self-consistent.
                        assert_eq!(loaded.name(), original.name());
                    }
                }
            }
        }
    }
}

#[test]
fn truncations_are_typed_load_errors() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    for original in snapshots(&prep) {
        let mut bytes = Vec::new();
        gsr_store::save(&mut bytes, &original).expect("save");
        let stride = (bytes.len() / 61).max(1);
        for cut in (0..bytes.len()).step_by(stride) {
            let err = gsr_store::load(&mut &bytes[..cut])
                .expect_err("a truncated snapshot must not load");
            assert!(
                matches!(err, GsrError::Load(_)),
                "{}: cut at {cut} gave {err:?}",
                original.name()
            );
        }
    }
}

/// I/O faults mid-stream (disk error rather than short file) must also map
/// to `GsrError::Load` with the underlying error in the message.
#[test]
fn io_faults_mid_stream_are_typed_load_errors() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    let original = snapshots(&prep).remove(0);
    let mut bytes = Vec::new();
    gsr_store::save(&mut bytes, &original).expect("save");

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
    for original in snapshots(&prep) {
        let mut bytes = Vec::new();
        gsr_store::save(&mut bytes, &original).expect("save");
        let loaded = gsr_store::load(&mut bytes.as_slice()).expect("load");
        let mut again = Vec::new();
        gsr_store::save(&mut again, &loaded).expect("re-save");
        assert_eq!(bytes, again, "{}: snapshot is not canonical", original.name());
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
        ("spareach-bfl", 129312, 0xE156316D),
        ("spareach-int", 65624, 0x2F321D80),
        ("3dreach", 42304, 0x3402CFB7),
        ("3dreach-rev", 73408, 0xC19AC825),
        ("spareach-bfl (MBR)", 129312, 0x9631B6FF),
        ("spareach-int (MBR)", 65624, 0xA50FC515),
        ("3dreach (MBR)", 61728, 0x8C5BDDCA),
        ("3dreach-rev (MBR)", 92832, 0xD21161EE),
        ("georeach", 45792, 0x167D8E79),
        ("socreach", 27872, 0x0F166689),
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
        for len in 0..=1024 {
            let data = &buf[start..start + len];
            let want = gsr_tests::crc32(data);
            assert_eq!(crc32(data), want, "start {start}, len {len}");
            assert_eq!(crc32_portable(data), want, "portable path, start {start}, len {len}");
        }
    }
    let mib = &buf[5..5 + (1 << 20)];
    assert_eq!(crc32(mib), gsr_tests::crc32(mib));
    assert_eq!(crc32_portable(mib), gsr_tests::crc32(mib));
}

/// The in-memory load path must not care where the caller's bytes live:
/// a stream read from a misaligned source buffer is realigned into the
/// owned arena and loads identically.
#[test]
fn misaligned_source_buffers_load_identically() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    let original = snapshots(&prep).remove(0);
    let mut bytes = Vec::new();
    gsr_store::save(&mut bytes, &original).expect("save");

    let regions = random_regions(4, 7);
    for shift in [1usize, 3, 7, 33] {
        // Stage the stream at an odd offset inside a larger buffer, so
        // every section payload the reader sees is misaligned.
        let mut staged = vec![0u8; shift];
        staged.extend_from_slice(&bytes);
        let loaded =
            gsr_store::load(&mut &staged[shift..]).unwrap_or_else(|e| panic!("shift {shift}: {e}"));
        for v in (0..original.num_vertices() as u32).step_by(13) {
            for r in &regions {
                assert_eq!(loaded.query(v, r), original.query(v, r), "shift {shift}");
            }
        }
    }
}

/// `--trust-snapshot` skips only the CRC pass; the structural validators
/// still run. A bit-flip sweep under trusted loading must therefore never
/// panic: every flip either fails structurally with a typed
/// [`GsrError::Load`] or loads into a self-consistent (if wrong-valued)
/// index.
#[test]
fn trusted_loads_of_corrupt_bytes_never_panic() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    let original = snapshots(&prep).remove(0);
    let mut bytes = Vec::new();
    gsr_store::save(&mut bytes, &original).expect("save");

    let trust = gsr_store::LoadOptions { trust: true };
    let stride = (bytes.len() / 97).max(1);
    for pos in (0..bytes.len()).step_by(stride) {
        for bit in [0u8, 5] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 1 << bit;
            match gsr_store::load_with(&mut corrupt.as_slice(), trust) {
                Ok(loaded) => {
                    // Structure survived; the index must still answer
                    // without panicking (values may differ — that is the
                    // documented trade of skipping CRCs).
                    let r = random_regions(1, 1)[0];
                    let _ = loaded.query(0, &r);
                }
                Err(GsrError::Load(msg)) => {
                    assert!(!msg.is_empty(), "empty diagnostic at byte {pos}");
                }
                Err(other) => panic!("flip at {pos} bit {bit}: non-Load error {other:?}"),
            }
        }
    }
}

/// A snapshot that frames and checksums correctly but whose R-tree has a
/// leaf MBR that no longer covers the leaf's entries. Queries on such a tree
/// would prune — or, with run-at-a-time scans, wave through — entries the
/// MBR misdescribes, so `RTree::from_cols` must refuse it: with the CRC pass
/// and, since the CRC is valid anyway, without it.
#[test]
fn a_shrunk_leaf_mbr_is_a_typed_load_error_even_when_trusted() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    for original in snapshots(&prep) {
        if matches!(original, SnapshotIndex::GeoReach(_) | SnapshotIndex::SocReach(_)) {
            continue; // no R-tree in these two
        }
        let mut bytes = Vec::new();
        gsr_store::save(&mut bytes, &original).expect("save");
        gsr_tests::shrink_last_leaf_mbr(&mut bytes);
        for trust in [false, true] {
            match gsr_store::load_with(&mut bytes.as_slice(), gsr_store::LoadOptions { trust }) {
                Err(GsrError::Load(msg)) => assert!(
                    msg.contains("outside its mbr"),
                    "{} (trust {trust}): {msg}",
                    original.name()
                ),
                other => panic!(
                    "{} (trust {trust}): shrunk leaf mbr gave {:?}",
                    original.name(),
                    other.map(|_| "a loaded index")
                ),
            }
        }
    }
}

/// The retired formats — v1 (pointer-node R-trees, uncompressed labels),
/// v2 (framed streaming sections), v3 (this framing, with the R-tree's
/// `children` section), v4 (GeoReach's SPA table as one encoded section)
/// and v5 (two fan-out scalars per R-tree) — carry their version in the
/// header; both load entry points must reject them with a typed version
/// error naming it, not misparse the payload or panic.
#[test]
fn v1_snapshots_are_rejected_with_a_typed_version_error() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    let dir = ScratchDir::new("gsr_snapshot_retired_versions").unwrap();
    for original in snapshots(&prep) {
        let mut bytes = Vec::new();
        gsr_store::save(&mut bytes, &original).expect("save");
        assert_eq!(&bytes[8..12], &gsr_store::FORMAT_VERSION.to_le_bytes(), "header version");

        for retired in [1u32, 2, 3, 4, 5] {
            // Same magic, retired version field. The loader must stop at
            // the header: the retired payloads are not parseable as
            // sections, so anything past the version check would be
            // garbage-in.
            let mut old = bytes.clone();
            old[8..12].copy_from_slice(&retired.to_le_bytes());
            let path = dir.path().join(format!("{}.v{retired}.snap", original.method().key()));
            std::fs::write(&path, &old).unwrap();
            let from_stream = gsr_store::load(&mut old.as_slice()).map(|_| ());
            let from_path =
                gsr_store::load_from_path_with(&path, gsr_store::LoadOptions::default())
                    .map(|_| ());
            for outcome in [from_stream, from_path] {
                match outcome {
                    Err(GsrError::Load(msg)) => assert!(
                        msg.contains(&format!("unsupported format version {retired} ")),
                        "{}: diagnostic must name the unsupported version: {msg}",
                        original.name()
                    ),
                    other => panic!("{}: v{retired} snapshot gave {other:?}", original.name()),
                }
            }
        }
    }
}

#[test]
fn version_and_method_tag_mismatches_are_diagnosed() {
    let prep = PreparedNetwork::new(NetworkSpec::yelp(0.02).generate());
    let original = snapshots(&prep).remove(0);
    let mut bytes = Vec::new();
    gsr_store::save(&mut bytes, &original).expect("save");

    // Future format version.
    let mut wrong = bytes.clone();
    wrong[8..12].copy_from_slice(&99u32.to_le_bytes());
    let err = gsr_store::load(&mut wrong.as_slice()).unwrap_err();
    match err {
        GsrError::Load(msg) => assert!(msg.contains("version"), "{msg}"),
        other => panic!("{other:?}"),
    }

    // Not a snapshot at all.
    let err = gsr_store::load(&mut &b"GSRSNAPx........"[..]).unwrap_err();
    assert!(matches!(err, GsrError::Load(_)), "{err:?}");

    // Empty input.
    let err = gsr_store::load(&mut &b""[..]).unwrap_err();
    assert!(matches!(err, GsrError::Load(_)), "{err:?}");

    // A SpaReach filter kind (`META` after the method tag) with a bit no
    // filter defines, framed with true CRCs.
    const META: u16 = 0x01;
    let mut sections = gsr_tests::snapshot_sections(&bytes);
    sections.iter_mut().find(|s| s.0 == META).expect("META").2[1] |= 0x80;
    let bad = gsr_tests::frame_sections(gsr_store::FORMAT_VERSION, &sections);
    for trust in [false, true] {
        match gsr_store::load_with(&mut bad.as_slice(), gsr_store::LoadOptions { trust }) {
            Err(GsrError::Load(msg)) => assert!(msg.contains("spatial-filter kind"), "{msg}"),
            other => panic!("undefined kind bit (trust {trust}) gave {:?}", other.map(|_| ())),
        }
    }
}

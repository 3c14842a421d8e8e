//! # gsr-store: versioned, checksummed index snapshots
//!
//! Building a `RangeReach` index over a large geosocial network is the
//! expensive part of the pipeline — SCC condensation, labeling
//! construction, R-tree packing. This crate persists a *built* index of any
//! of the paper's six methods to a compact binary snapshot and loads it
//! back **bit-identically**: the reloaded index returns the same answers
//! *and* the same [`gsr_core::QueryCost`] counters as the one that was
//! saved, because the encoding captures the exact arena layouts rather
//! than re-deriving them. The index type, [`SnapshotIndex`], is
//! re-exported from `gsr_core::methods`, where the method table
//! (`gsr_core::Method`) gives each method its snapshot tag and `load`.
//!
//! ## Wire format
//!
//! The format is **zero-copy**: after the magic and version,
//! a directory of tagged, CRC-32-checksummed entries describes sections
//! laid out at 64-byte-aligned offsets, and each section is a fixed-width
//! little-endian column image of the corresponding index arena (see
//! `frame` and the layout tables in `DESIGN.md`). Which columns an index has
//! is declared by the index structures themselves (`gsr_graph::Columns`);
//! this crate frames, checksums and maps them. Loading memory-maps the
//! file (or copies it once into an aligned buffer) and serves queries
//! from typed views into the mapped region — no per-element decode.
//! [`FORMAT_VERSION`] is the only format this crate writes or reads; every
//! retired version is rejected with a typed version error.
//!
//! ## Trust model
//!
//! A snapshot is *untrusted input*: loading revalidates every structural
//! invariant a query dereferences (CSR monotonicity, permutations,
//! component-id bounds, R-tree arena reachability) in the owning
//! structure's own `gsr_graph::Columns::load`. Corruption, truncation,
//! version mismatches and impossible structures all surface as
//! [`GsrError::Load`] — never a panic, never an unbounded allocation.
//! Each section's CRC-32 ([`wire::crc32`]) is verified when a structure
//! claims the section, just before it validates it; [`LoadOptions::trust`]
//! skips only that (for snapshots on trusted local disks); the structural
//! validation always runs.
//!
//! ```
//! use gsr_core::{paper_example, RangeReachIndex, SccSpatialPolicy};
//! use gsr_core::methods::ThreeDReach;
//! use gsr_store::SnapshotIndex;
//!
//! let prep = paper_example::prepared();
//! let built = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
//! let mut bytes = Vec::new();
//! gsr_store::save(&mut bytes, &SnapshotIndex::ThreeDReach(built)).unwrap();
//!
//! let loaded = gsr_store::load(&mut bytes.as_slice()).unwrap();
//! assert_eq!(loaded.name(), "3DReach");
//! assert!(loaded.query(paper_example::A, &paper_example::query_region()));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod frame;
pub mod shard;
pub mod wire;

pub use arena::ArenaBytes;

pub use gsr_core::methods::SnapshotIndex;

use gsr_core::{GsrError, RangeReachIndex};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// First eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"GSRSNAP\0";

/// Current snapshot format version. Bump on any incompatible layout
/// change; loaders reject other versions with a typed error instead of
/// misinterpreting bytes.
///
/// Version history:
/// * **1**, **2** — retired streaming formats; rejected with a typed
///   version error.
/// * **3** — zero-copy section layout: a checksummed directory followed by
///   the raw arena columns at 64-byte-aligned offsets, loadable by
///   memory-mapping the file with no deserialization. Retired like 1 and 2.
/// * **4** — the same framing; the R-tree no longer stores its `children`
///   column (section `0x22`), the identity `k + 1` under the breadth-first
///   node numbering. Which columns a file holds is declared by the index
///   structures (`gsr_graph::Columns`), so this was a change to the R-tree
///   and to this number. Retired.
/// * **5** — the same framing; GeoReach's SPA table is four columns
///   (`0x81`–`0x84`: kinds, a cell CSR, rectangles) that a loaded index
///   queries in place, instead of one encoded section (`0x80`) decoded
///   into a heap enum per component. A change to `georeach.rs` and to this
///   number. Retired.
/// * **6** — the same framing; an R-tree's `META` holds one scalar, its
///   fan-out `max_entries`, instead of two (Guttman's minimum fill, which
///   nothing read, is gone). A change to `rtree.rs` and to this number.
pub const FORMAT_VERSION: u32 = 6;

fn io_save(e: std::io::Error) -> GsrError {
    GsrError::Internal(format!("snapshot save: {e}"))
}

fn load_err(msg: String) -> GsrError {
    GsrError::Load(format!("snapshot: {msg}"))
}

// ---------------------------------------------------------------------------
// Save.

/// Serializes a built index to `w` in the current (zero-copy) snapshot
/// format: the section payloads are the index's own arena bytes,
/// written directly — no per-element encoding.
///
/// I/O failures are [`GsrError::Internal`].
pub fn save(w: &mut impl Write, index: &SnapshotIndex) -> Result<(), GsrError> {
    frame::FrameImage::new(frame::sections_of(index)).write(w)
}

// ---------------------------------------------------------------------------
// Load.

/// Options for loading a snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadOptions {
    /// Skip the CRC-32 verification of the section payloads. Only for
    /// snapshots on trusted local storage; structural validation (and
    /// therefore memory safety on garbage input) is unaffected.
    pub trust: bool,
}

/// How a snapshot was loaded — surfaced so servers can report their
/// restart cost truthfully.
#[derive(Clone, Copy, Debug)]
pub struct LoadInfo {
    /// Wire-format version of the file (always [`FORMAT_VERSION`] today;
    /// reported so a future format can be told apart).
    pub format: u32,
    /// Whether the snapshot is served from a memory-mapped file (unix)
    /// rather than a copied heap buffer.
    pub mapped: bool,
    /// On-disk size of the snapshot file, in bytes.
    pub file_bytes: u64,
}

/// Reads and checks the 12-byte magic + version prefix: anything but the
/// magic followed by [`FORMAT_VERSION`] is a typed error.
fn read_prefix(r: &mut impl Read) -> Result<(), GsrError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic).map_err(|e| load_err(format!("missing magic ({e})")))?;
    if magic != MAGIC {
        return Err(load_err(format!("bad magic {magic:02x?}: not a gsr snapshot")));
    }
    let mut version = [0u8; 4];
    r.read_exact(&mut version).map_err(|e| load_err(format!("missing format version ({e})")))?;
    match u32::from_le_bytes(version) {
        FORMAT_VERSION => Ok(()),
        v => Err(unsupported_version(v)),
    }
}

fn unsupported_version(version: u32) -> GsrError {
    load_err(format!(
        "unsupported format version {version} (this build reads and writes version {FORMAT_VERSION} only)"
    ))
}

/// Deserializes a snapshot, revalidating every structural invariant.
///
/// All failure modes — bad magic, unsupported version, truncation, CRC
/// mismatch, structurally impossible data, trailing bytes — are
/// [`GsrError::Load`] with a diagnostic naming the offending section.
pub fn load(r: &mut impl Read) -> Result<SnapshotIndex, GsrError> {
    load_with(r, LoadOptions::default())
}

/// [`load`] with explicit [`LoadOptions`].
///
/// The stream is read into a fresh 64-byte-aligned buffer in one pass
/// and served from typed views into it — callers with a file path should
/// prefer [`load_from_path`], which memory-maps instead of reading.
pub fn load_with(r: &mut impl Read, opts: LoadOptions) -> Result<SnapshotIndex, GsrError> {
    read_prefix(r)?;
    let mut full = Vec::new();
    full.extend_from_slice(&MAGIC);
    full.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    r.read_to_end(&mut full).map_err(|e| load_err(format!("i/o error reading snapshot: {e}")))?;
    let frame = frame::Frame::parse(Arc::new(ArenaBytes::copy_from_slice(&full)), opts.trust)?;
    frame::load_index(&frame, None)
}

// ---------------------------------------------------------------------------
// Path helpers.

/// The staging path a [`save_to_path`] writes through before the atomic
/// rename: `<path>.tmp`, always a sibling of the target so the rename
/// never crosses a filesystem boundary. Public so fault-injection
/// harnesses can plant the exact debris a killed save would leave.
pub fn staging_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map_or_else(std::ffi::OsString::new, |n| n.to_os_string());
    name.push(".tmp");
    path.with_file_name(name)
}

/// Saves a snapshot to a file path, **crash-safely**: the bytes go to the
/// sibling staging file ([`staging_path`]), are flushed and `sync_all`'d
/// to disk, and only then atomically renamed over the target. A process
/// killed at any byte of the save leaves the previous snapshot at `path`
/// intact (plus, at worst, a stale `.tmp` the next successful save
/// replaces) — the target is never truncated in place.
pub fn save_to_path(path: impl AsRef<Path>, index: &SnapshotIndex) -> Result<(), GsrError> {
    write_atomically(path.as_ref(), |w| save(w, index))
}

/// The crash-safe file write behind [`save_to_path`] and every file of a
/// shard set: `write` fills the staging file, which is synced and renamed
/// over `path`.
///
/// Saves into one directory take turns, across threads and processes: each
/// holds an exclusive lock on the directory from creating its staging file
/// until that file is renamed or removed. Two saves to one target would
/// otherwise share the staging file, and the first rename would hand the
/// target a file the second save was still writing.
fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> Result<(), GsrError>,
) -> Result<(), GsrError> {
    let tmp = staging_path(path);
    let save_err = |stage: &str, e: std::io::Error| {
        GsrError::Internal(format!("snapshot save {}: {stage}: {e}", path.display()))
    };
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let dir = std::fs::File::open(dir).map_err(|e| save_err("open directory", e))?;
    dir.lock().map_err(|e| save_err("lock directory", e))?;
    let result = (|| {
        let file = std::fs::File::create(&tmp).map_err(|e| save_err("create staging", e))?;
        let mut w = std::io::BufWriter::new(file);
        write(&mut w)?;
        let file = w.into_inner().map_err(|e| save_err("flush staging", e.into_error()))?;
        file.sync_all().map_err(|e| save_err("sync staging", e))?;
        std::fs::rename(&tmp, path).map_err(|e| save_err("rename into place", e))
    })();
    if result.is_err() {
        // Best-effort cleanup, still under the lock: the next save's staging
        // file has the same name. A leftover one is harmless either way (the
        // next successful save truncates and replaces it).
        let _ = std::fs::remove_file(&tmp);
    }
    drop(dir);
    result
}

/// Loads a snapshot from a file path: the file is memory-mapped and
/// served zero-copy.
pub fn load_from_path(path: impl AsRef<Path>) -> Result<SnapshotIndex, GsrError> {
    load_from_path_with(path, LoadOptions::default()).map(|(index, _)| index)
}

/// [`load_from_path`] with explicit [`LoadOptions`], also reporting how
/// the snapshot was loaded ([`LoadInfo`]).
pub fn load_from_path_with(
    path: impl AsRef<Path>,
    opts: LoadOptions,
) -> Result<(SnapshotIndex, LoadInfo), GsrError> {
    let (frame, info) = open_frame(path.as_ref(), opts)?;
    Ok((frame::load_index(&frame, None)?, info))
}

/// Maps the snapshot file at `path` and validates its framing.
fn open_frame(path: &Path, opts: LoadOptions) -> Result<(frame::Frame, LoadInfo), GsrError> {
    let mut file = std::fs::File::open(path)
        .map_err(|e| GsrError::Load(format!("snapshot {}: {e}", path.display())))?;
    let file_bytes = file
        .metadata()
        .map(|m| m.len())
        .map_err(|e| GsrError::Load(format!("snapshot {}: {e}", path.display())))?;
    read_prefix(&mut file)?;
    let arena = ArenaBytes::from_file(&file)
        .map_err(|e| load_err(format!("i/o error mapping snapshot: {e}")))?;
    let mapped = arena.is_mapped();
    let frame = frame::Frame::parse(Arc::new(arena), opts.trust)?;
    Ok((frame, LoadInfo { format: FORMAT_VERSION, mapped, file_bytes }))
}

/// Loads a snapshot into an immutable, reference-counted index that can be
/// shared across query worker threads ([`SnapshotIndex`] is `Send + Sync`).
pub fn load_shared(path: impl AsRef<Path>) -> Result<Arc<SnapshotIndex>, GsrError> {
    load_from_path(path).map(Arc::new)
}

/// Loads whatever lives at `path` into a servable index: a directory with
/// a [`shard::SHARD_MANIFEST`] loads as a sharded scatter-gather router
/// ([`gsr_core::ShardedIndex`]), anything else as a plain single-index
/// snapshot. This is the entry point servers route startup loads and
/// `RELOAD` through, so one path argument transparently serves both
/// layouts.
pub fn load_served_index(
    path: impl AsRef<Path>,
    opts: LoadOptions,
) -> Result<(Arc<dyn RangeReachIndex>, LoadInfo), GsrError> {
    let path = path.as_ref();
    if path.is_dir() {
        let (sharded, info) = shard::load_sharded_from_path_with(path, opts)?;
        Ok((Arc::new(sharded), info))
    } else {
        let (index, info) = load_from_path_with(path, opts)?;
        Ok((Arc::new(index), info))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_core::{paper_example, Method, PreparedNetwork, SccSpatialPolicy};
    use gsr_datagen::faults::{FailingWriter, ScratchDir};

    fn built_all() -> Vec<SnapshotIndex> {
        let prep = paper_example::prepared();
        Method::ALL.map(|m| m.build(&prep, SccSpatialPolicy::Replicate, 1)).to_vec()
    }

    /// Every method, and SpaReach in the streaming candidate mode (which
    /// the filter-kind scalar records) under both SCC policies.
    #[test]
    fn every_method_round_trips_in_memory() {
        use gsr_core::methods::{CandidateMode::Streaming, SpaReachBfl, SpaReachInt};
        let prep = paper_example::prepared();
        let mut indexes = built_all();
        for p in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
            indexes.extend([
                SnapshotIndex::SpaReachBfl(
                    SpaReachBfl::build(&prep, p).with_candidate_mode(Streaming),
                ),
                SnapshotIndex::SpaReachInt(
                    SpaReachInt::build(&prep, p).with_candidate_mode(Streaming),
                ),
            ]);
        }
        for index in indexes {
            let mut bytes = Vec::new();
            save(&mut bytes, &index).unwrap();
            let loaded = load(&mut bytes.as_slice()).unwrap();
            assert_eq!(loaded.name(), index.name());
            assert_eq!(loaded.method(), index.method());
            assert_eq!(loaded.num_vertices(), index.num_vertices());
            assert_eq!(loaded.index_bytes(), index.index_bytes());
            for v in prep.network().graph().vertices() {
                for r in paper_example::probe_regions() {
                    assert_eq!(
                        loaded.query_with_cost_unchecked(v, &r),
                        index.query_with_cost_unchecked(v, &r),
                        "{} v={v} r={r}",
                        index.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed_errors() {
        let mut bytes = Vec::new();
        save(&mut bytes, &built_all().remove(3)).unwrap();

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        match load(&mut wrong_magic.as_slice()) {
            Err(GsrError::Load(msg)) => assert!(msg.contains("magic"), "{msg}"),
            other => panic!("expected Load error, got {other:?}"),
        }

        // The retired versions and one from the future, by number.
        for version in [1u32, 2, 3, 4, 5, 99] {
            let mut wrong_version = bytes.clone();
            wrong_version[8..12].copy_from_slice(&version.to_le_bytes());
            let named = format!("unsupported format version {version} ");
            match load(&mut wrong_version.as_slice()) {
                Err(GsrError::Load(msg)) => assert!(msg.contains(&named), "{msg}"),
                other => panic!("expected Load error, got {other:?}"),
            }
        }

        let mut trailing = bytes.clone();
        trailing.push(0);
        match load(&mut trailing.as_slice()) {
            Err(GsrError::Load(msg)) => assert!(msg.contains("trailing"), "{msg}"),
            other => panic!("expected Load error, got {other:?}"),
        }
    }

    /// A `META` whose method tag names no method is a typed error naming the
    /// tag, also when the CRC pass that would catch the edit is skipped.
    #[test]
    fn unknown_method_tags_are_typed_errors() {
        let mut bytes = Vec::new();
        save(&mut bytes, &built_all().remove(4)).unwrap();
        // `META` is the first section; its payload opens with the tag.
        let meta_at = u64::from_le_bytes(bytes[24 + 8..24 + 16].try_into().unwrap()) as usize;
        assert_eq!(bytes[meta_at], Method::ThreeDReach.tag());
        for tag in [0u8, 7] {
            let mut edited = bytes.clone();
            edited[meta_at] = tag;
            match load_with(&mut edited.as_slice(), LoadOptions { trust: true }) {
                Err(GsrError::Load(msg)) => {
                    assert!(msg.contains(&format!("unknown method tag {tag}")), "{msg}")
                }
                other => panic!("tag {tag}: expected Load error, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for index in built_all() {
            let mut bytes = Vec::new();
            save(&mut bytes, &index).unwrap();
            // Truncating at *any* prefix length must be a typed Load error.
            let step = (bytes.len() / 64).max(1);
            for cut in (0..bytes.len()).step_by(step) {
                match load(&mut &bytes[..cut]) {
                    Err(GsrError::Load(_)) => {}
                    other => panic!(
                        "{}: truncation at {cut}/{} gave {other:?}",
                        index.name(),
                        bytes.len()
                    ),
                }
            }
        }
    }

    /// `trust` skips only the CRC pass; a trusted load of a pristine v3
    /// snapshot is identical to an untrusted one.
    #[test]
    fn trusted_v3_load_matches_untrusted() {
        for index in built_all() {
            let mut bytes = Vec::new();
            save(&mut bytes, &index).unwrap();
            assert_eq!(&bytes[8..12], &FORMAT_VERSION.to_le_bytes());
            let a = load_with(&mut bytes.as_slice(), LoadOptions { trust: false }).unwrap();
            let b = load_with(&mut bytes.as_slice(), LoadOptions { trust: true }).unwrap();
            assert_eq!(a.method(), b.method());
            assert_eq!(a.index_bytes(), b.index_bytes());
        }
    }

    /// The path loader memory-maps snapshot files (on unix) and reports
    /// the format and mapping mode truthfully.
    #[test]
    fn path_load_reports_format_and_mapping() {
        let dir = ScratchDir::new("gsr_store_load_info").unwrap();
        let path = dir.path().join("v3.snap");
        save_to_path(&path, &built_all()[3]).unwrap();
        let (idx, info) = load_from_path_with(&path, LoadOptions::default()).unwrap();
        assert_eq!(idx.method(), Method::SocReach);
        assert_eq!(info.format, FORMAT_VERSION);
        assert_eq!(info.file_bytes, std::fs::metadata(&path).unwrap().len());
        assert_eq!(info.mapped, cfg!(unix));
    }

    /// Every v3 section payload starts at a 64-byte-aligned file offset
    /// and the declared file length matches the byte count exactly.
    #[test]
    fn v3_sections_are_aligned_and_sized_exactly() {
        for index in built_all() {
            let mut bytes = Vec::new();
            save(&mut bytes, &index).unwrap();
            let n = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
            let file_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
            assert_eq!(file_len, bytes.len() as u64, "{}", index.name());
            let mut end_of_last = 24 + n * 24;
            for i in 0..n {
                let e = &bytes[24 + i * 24..][..24];
                let off = u64::from_le_bytes(e[8..16].try_into().unwrap()) as usize;
                let len = u64::from_le_bytes(e[16..24].try_into().unwrap()) as usize;
                assert_eq!(off % 64, 0, "{} section {i}", index.name());
                assert!(off >= end_of_last, "{} section {i} overlaps", index.name());
                end_of_last = off + len;
            }
            assert_eq!(end_of_last, bytes.len(), "{}", index.name());
        }
    }

    #[test]
    fn staging_path_is_a_sibling_with_tmp_suffix() {
        assert_eq!(staging_path(Path::new("/a/b/idx.snap")), Path::new("/a/b/idx.snap.tmp"));
        assert_eq!(staging_path(Path::new("idx.snap")), Path::new("idx.snap.tmp"));
    }

    #[test]
    fn save_to_path_replaces_atomically_and_cleans_staging() {
        let dir = ScratchDir::new("gsr_store_atomic_save").unwrap();
        let path = dir.path().join("idx.snap");
        let indexes = built_all();

        super::save_to_path(&path, &indexes[4]).unwrap();
        assert!(!staging_path(&path).exists(), "staging file must be renamed away");
        assert_eq!(load_from_path(&path).unwrap().method(), Method::ThreeDReach);

        // Overwriting with a different method swaps the whole file.
        super::save_to_path(&path, &indexes[2]).unwrap();
        assert_eq!(load_from_path(&path).unwrap().method(), Method::GeoReach);
        assert!(!staging_path(&path).exists());
    }

    /// Two saves racing to one target both succeed, one after the other: the
    /// target ends up byte-equal to one of the two images, and no staging
    /// file is left behind.
    #[test]
    fn concurrent_saves_to_one_target_both_land_whole() {
        let dir = ScratchDir::new("gsr_store_concurrent_save").unwrap();
        let path = dir.path().join("idx.snap");
        let prep = PreparedNetwork::new(gsr_datagen::NetworkSpec::weeplaces(0.1).generate());
        let pair = [Method::ThreeDReach, Method::SpaReachBfl]
            .map(|m| m.build(&prep, SccSpatialPolicy::Replicate, 1));
        let images = pair.each_ref().map(|index| {
            let mut bytes = Vec::new();
            save(&mut bytes, index).unwrap();
            bytes
        });
        for round in 0..20 {
            let barrier = std::sync::Barrier::new(2);
            let results = std::thread::scope(|s| {
                let saves = pair.each_ref().map(|index| {
                    s.spawn(|| {
                        barrier.wait();
                        save_to_path(&path, index)
                    })
                });
                saves.map(|save| save.join().unwrap())
            });
            for result in results {
                assert!(result.is_ok(), "round {round}: {result:?}");
            }
            let target = std::fs::read(&path).unwrap();
            assert!(images.contains(&target), "round {round}: the target holds neither image");
            assert!(!staging_path(&path).exists(), "round {round}: staging file left behind");
        }
    }

    /// The crash-safety contract: a save killed at *any* byte leaves the
    /// previous snapshot loadable. A kill mid-save leaves exactly the
    /// debris this test plants — a partial staging file next to the intact
    /// target — because the target is only ever touched by the final
    /// rename of a fully synced file.
    #[test]
    fn partial_staging_write_never_corrupts_the_previous_snapshot() {
        let dir = ScratchDir::new("gsr_store_crash_save").unwrap();
        let path = dir.path().join("idx.snap");
        let indexes = built_all();
        let old = &indexes[4];
        super::save_to_path(&path, old).unwrap();
        let old_answers: Vec<bool> =
            paper_example::probe_regions().iter().map(|r| old.query(paper_example::A, r)).collect();

        let mut new_bytes = Vec::new();
        save(&mut new_bytes, &indexes[5]).unwrap();
        let step = (new_bytes.len() / 32).max(1);
        for cut in (0..=new_bytes.len()).step_by(step) {
            // Simulate a kill after `cut` bytes of the staging write.
            std::fs::write(staging_path(&path), &new_bytes[..cut]).unwrap();
            if cut < new_bytes.len() {
                // The debris itself never loads as a snapshot.
                let debris = load_from_path(staging_path(&path));
                assert!(debris.is_err(), "debris loaded at cut {cut}");
            }
            let reloaded = load_from_path(&path)
                .unwrap_or_else(|e| panic!("old snapshot corrupted at cut {cut}: {e}"));
            assert_eq!(reloaded.method(), Method::ThreeDReach, "cut {cut}");
            for (r, expect) in paper_example::probe_regions().iter().zip(&old_answers) {
                assert_eq!(reloaded.query(paper_example::A, r), *expect, "cut {cut}");
            }
        }
        // After any such crash, the next save still succeeds and swaps in
        // the new index, clobbering the stale staging file.
        super::save_to_path(&path, &indexes[5]).unwrap();
        assert_eq!(load_from_path(&path).unwrap().method(), Method::ThreeDReachRev);
        assert!(!staging_path(&path).exists());
    }

    /// I/O faults while encoding surface as typed errors (never a panic),
    /// mirroring the `FailingReader` contract on the load side.
    #[test]
    fn failing_writer_faults_are_typed_errors() {
        let index = &built_all()[4];
        let mut full = Vec::new();
        save(&mut full, index).unwrap();
        let step = (full.len() / 16).max(1);
        for budget in (0..full.len()).step_by(step) {
            let mut w = FailingWriter::new(Vec::new(), budget);
            match save(&mut w, index) {
                Err(GsrError::Internal(msg)) => {
                    assert!(msg.contains("snapshot save"), "{msg}")
                }
                other => panic!("budget {budget}: expected Internal error, got {other:?}"),
            }
        }
    }

    /// A save that cannot even create its staging file (here: the staging
    /// path is a directory) fails with a typed error and leaves the
    /// existing snapshot byte-identical.
    #[test]
    fn unwritable_staging_path_leaves_the_target_untouched() {
        let dir = ScratchDir::new("gsr_store_unwritable_staging").unwrap();
        let path = dir.path().join("idx.snap");
        let indexes = built_all();
        super::save_to_path(&path, &indexes[4]).unwrap();
        let before = std::fs::read(&path).unwrap();

        std::fs::create_dir_all(staging_path(&path)).unwrap();
        match super::save_to_path(&path, &indexes[5]) {
            Err(GsrError::Internal(msg)) => assert!(msg.contains("staging"), "{msg}"),
            other => panic!("expected Internal error, got {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), before, "target must be untouched");
    }
}

//! Sharded snapshot sets: a directory holding one shared snapshot file, one
//! snapshot file per shard and a small checksummed manifest.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/
//!   MANIFEST.gsrshard          routing metadata and the file names (below)
//!   shared-<id>.gsr            the columns every shard holds by handle
//!   shard-000-<id>.gsr         shard 0's own columns
//!   shard-001-<id>.gsr         ...
//! ```
//!
//! The tiles of a shard set are views of one network, so their indexes keep
//! handles to one `comp_of` and one set of interval labels
//! (`gsr_core::tile_network`). A column that is the **same buffer** in every
//! shard — compared by address and length, never by content — is written
//! once, into the shared file; each shard file holds the rest of its index
//! (`META`, the tile's tree, whatever else is its own). All files use the
//! framing of [`crate::save_to_path`] — header, directory, 64-byte-aligned
//! sections, per-section CRC, [`LoadOptions::trust`] — and the same
//! crash-safe staging write. A load maps the shared file once and hands
//! every shard views into that mapping, so a loaded set shares its columns
//! exactly like the built one. Neither kind of file is an index by itself:
//! [`crate::load_from_path`] rejects both with a typed "missing section".
//!
//! `<id>` is the CRC-32 of the file's header and directory, i.e. of its
//! contents: a save never overwrites a file of a different set. The shared
//! file is written first, the manifest is renamed into place last, and only
//! then are the files the previous manifest named (and the new one does not)
//! removed — a save killed at any point leaves the previous set complete,
//! plus loose files no manifest names.
//!
//! ## Manifest wire format
//!
//! Little-endian, mirroring the snapshot framing:
//!
//! ```text
//! magic     [8]  "GSRSHRD\0"
//! version   u32  2
//! payload:
//!   num_shards    u32
//!   num_vertices  u64
//!   shared file   u64 len + bytes (UTF-8, no path separators)
//!   per shard:
//!     file name   u64 len + bytes (UTF-8, no path separators)
//!     has_mbr     u8 (0 | 1)
//!     mbr         f64 min_x, min_y, max_x, max_y (zeros when absent)
//! crc32     u32  over the payload bytes
//! ```
//!
//! Version 1 (one plain snapshot per shard, no shared file) is rejected
//! with a typed version error, like the retired snapshot versions.

use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use gsr_core::{GsrError, RangeReachIndex, ShardMember, ShardedIndex};
use gsr_geo::Rect;

use gsr_graph::columns::{Dec, Enc};
use gsr_graph::Column;

use crate::frame::{self, FrameImage};
use crate::wire::crc32;
use crate::{
    io_save, load_err, open_frame, write_atomically, LoadInfo, LoadOptions, SnapshotIndex,
};

/// First eight bytes of a shard-set manifest.
pub const SHARD_MAGIC: [u8; 8] = *b"GSRSHRD\0";

/// Current manifest format version.
pub const SHARD_MANIFEST_VERSION: u32 = 2;

/// File name of the manifest inside a shard-set directory.
pub const SHARD_MANIFEST: &str = "MANIFEST.gsrshard";

/// One shard of a set: its index and the MBR of its tile's points (`None`
/// for an empty tile).
pub type Shard = (SnapshotIndex, Option<Rect>);

/// Writes `sections` as the file `<stem>-<fingerprint>.gsr` in `dir` and
/// returns the file name.
fn save_frame(dir: &Path, stem: &str, sections: Vec<Column<'_>>) -> Result<String, GsrError> {
    let image = FrameImage::new(sections);
    let name = format!("{stem}-{:08x}.gsr", image.fingerprint());
    write_atomically(&dir.join(&name), |w| image.write(w))?;
    Ok(name)
}

/// Saves a sharded snapshot set to directory `dir`, creating it if needed.
///
/// Columns that are the same buffer in every shard go to the shared file,
/// once; see the module docs for the layout and the write order.
pub fn save_sharded_to_path(dir: impl AsRef<Path>, shards: &[Shard]) -> Result<(), GsrError> {
    let dir = dir.as_ref();
    let Some((first, _)) = shards.first() else {
        return Err(GsrError::Internal("sharded save: empty shard set".into()));
    };
    let num_vertices = first.num_vertices();
    if let Some(i) = shards.iter().position(|(index, _)| index.num_vertices() != num_vertices) {
        return Err(GsrError::Internal(format!(
            "sharded save: shard {i} has {} vertices, shard 0 has {num_vertices}",
            shards[i].0.num_vertices()
        )));
    }
    std::fs::create_dir_all(dir).map_err(|e| {
        GsrError::Internal(format!("sharded save {}: create dir: {e}", dir.display()))
    })?;
    let stale: Vec<String> =
        read_manifest(dir).map(|m| m.files().map(String::from).collect()).unwrap_or_default();

    let mut own: Vec<Vec<Column<'_>>> =
        shards.iter().map(|(index, _)| frame::sections_of(index)).collect();
    let shared: Vec<Column<'_>> = own[0]
        .iter()
        .filter(|s| own.iter().all(|sections| sections.iter().any(|o| o.same_buffer(s))))
        .cloned()
        .collect();
    for sections in &mut own {
        sections.retain(|s| !shared.iter().any(|c| c.tag == s.tag));
    }

    let mut e = Enc::default();
    e.u32(shards.len() as u32);
    e.u64(num_vertices as u64);
    let mut names = vec![save_frame(dir, "shared", shared)?];
    e.vec_u8(names[0].as_bytes());
    for (i, (sections, (_, mbr))) in own.into_iter().zip(shards).enumerate() {
        let name = save_frame(dir, &format!("shard-{i:03}"), sections)?;
        e.vec_u8(name.as_bytes());
        names.push(name);
        let r = mbr.unwrap_or(Rect::new(0.0, 0.0, 0.0, 0.0));
        e.u8(mbr.is_some() as u8);
        for x in [r.min_x, r.min_y, r.max_x, r.max_y] {
            e.f64(x);
        }
    }
    let payload = e.into_bytes();
    let mut manifest = SHARD_MAGIC.to_vec();
    manifest.extend_from_slice(&SHARD_MANIFEST_VERSION.to_le_bytes());
    manifest.extend_from_slice(&payload);
    manifest.extend_from_slice(&crc32(&payload).to_le_bytes());
    write_atomically(&dir.join(SHARD_MANIFEST), |w| w.write_all(&manifest).map_err(io_save))?;
    for old in stale.iter().filter(|old| !names.contains(old)) {
        let _ = std::fs::remove_file(dir.join(old));
    }
    Ok(())
}

/// One routing entry decoded from a shard-set manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEntry {
    /// The shard's file name relative to the manifest's directory.
    pub file: String,
    /// Tile MBR recorded at save time; `None` for an empty tile.
    pub mbr: Option<Rect>,
}

/// A decoded shard-set manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Vertex-count of every shard's index (all shards must agree).
    pub num_vertices: u64,
    /// Name of the file holding the columns all shards share.
    pub shared: String,
    /// Per-shard routing entries in shard order.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Every file the manifest names.
    fn files(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.shared.as_str()).chain(self.shards.iter().map(|s| s.file.as_str()))
    }
}

fn file_name(d: &mut Dec, what: &str) -> Result<String, GsrError> {
    let file = String::from_utf8(d.vec_u8("shard manifest").map_err(load_err)?)
        .map_err(|_| load_err(format!("{what}: file name is not UTF-8")))?;
    if file.is_empty() || file.contains(['/', '\\']) || file == ".." {
        return Err(load_err(format!("{what}: illegal file name {file:?}")));
    }
    Ok(file)
}

/// Reads and validates the manifest of the shard-set directory `dir`.
pub fn read_manifest(dir: impl AsRef<Path>) -> Result<ShardManifest, GsrError> {
    let path = dir.as_ref().join(SHARD_MANIFEST);
    let bytes = std::fs::read(&path)
        .map_err(|e| GsrError::Load(format!("shard manifest {}: {e}", path.display())))?;
    if bytes.len() < 16 {
        return Err(load_err("shard manifest truncated before header".into()));
    }
    if bytes[..8] != SHARD_MAGIC {
        return Err(load_err("bad shard manifest magic".into()));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != SHARD_MANIFEST_VERSION {
        return Err(load_err(format!(
            "unsupported shard manifest version {version} (this build reads and writes version \
             {SHARD_MANIFEST_VERSION} only)"
        )));
    }
    let (payload, crc_bytes) = bytes[12..].split_at(bytes.len() - 16);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(payload) != stored {
        return Err(load_err("shard manifest checksum mismatch".into()));
    }
    let mut d = Dec::new(payload);
    let num_shards = d.u32("shard manifest").map_err(load_err)?;
    if num_shards == 0 {
        return Err(load_err("shard manifest lists zero shards".into()));
    }
    let num_vertices = d.u64("shard manifest").map_err(load_err)?;
    let shared = file_name(&mut d, "shared file")?;
    let mut shards = Vec::with_capacity(num_shards as usize);
    for i in 0..num_shards {
        let file = file_name(&mut d, &format!("shard {i}"))?;
        let has_mbr = d.u8("shard manifest").map_err(load_err)?;
        let (min_x, min_y, max_x, max_y) = (
            d.f64("shard manifest").map_err(load_err)?,
            d.f64("shard manifest").map_err(load_err)?,
            d.f64("shard manifest").map_err(load_err)?,
            d.f64("shard manifest").map_err(load_err)?,
        );
        let mbr = match has_mbr {
            0 => None,
            1 => {
                if !(min_x.is_finite()
                    && min_y.is_finite()
                    && max_x.is_finite()
                    && max_y.is_finite())
                    || min_x > max_x
                    || min_y > max_y
                {
                    return Err(load_err(format!("shard {i}: malformed MBR")));
                }
                Some(Rect::new(min_x, min_y, max_x, max_y))
            }
            k => return Err(load_err(format!("shard {i}: bad MBR flag {k}"))),
        };
        shards.push(ShardEntry { file, mbr });
    }
    d.finish("shard manifest").map_err(load_err)?;
    Ok(ShardManifest { num_vertices, shared, shards })
}

/// Loads a sharded snapshot set from directory `dir` and assembles the
/// scatter-gather router. The shared file is mapped and checked once; every
/// shard file is mapped and checked under the same [`LoadOptions`] and its
/// index rebuilt from its own sections plus views into the shared mapping.
pub fn load_sharded_from_path_with(
    dir: impl AsRef<Path>,
    opts: LoadOptions,
) -> Result<(ShardedIndex, LoadInfo), GsrError> {
    let (set, info) = load_set(dir.as_ref(), opts)?;
    let members =
        set.into_iter().map(|(index, mbr)| ShardMember { index: Arc::new(index), mbr }).collect();
    Ok((ShardedIndex::new(members)?, info))
}

/// The inverse of [`save_sharded_to_path`].
fn load_set(dir: &Path, opts: LoadOptions) -> Result<(Vec<Shard>, LoadInfo), GsrError> {
    let manifest = read_manifest(dir)?;
    let (shared, mut total) = open_frame(&dir.join(&manifest.shared), opts)?;
    let mut set = Vec::with_capacity(manifest.shards.len());
    for (i, entry) in manifest.shards.iter().enumerate() {
        let (frame, info) = open_frame(&dir.join(&entry.file), opts)?;
        let index = frame::load_index(&frame, Some(&shared))?;
        if index.num_vertices() as u64 != manifest.num_vertices {
            return Err(load_err(format!(
                "shard {i}: snapshot has {} vertices, manifest says {}",
                index.num_vertices(),
                manifest.num_vertices
            )));
        }
        total.file_bytes += info.file_bytes;
        total.mapped &= info.mapped;
        set.push((index, entry.mbr));
    }
    Ok((set, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FORMAT_VERSION;
    use gsr_core::methods::ThreeDReach;
    use gsr_core::{
        paper_example, prepared_tiles, PreparedNetwork, RangeReachIndex, SccSpatialPolicy,
    };
    use gsr_datagen::faults::ScratchDir;

    const BOTH_TRUST_MODES: [LoadOptions; 2] =
        [LoadOptions { trust: false }, LoadOptions { trust: true }];

    fn build_set(shards: usize) -> Vec<Shard> {
        build_set_of(&paper_example::network(), shards)
    }

    fn build_set_of(net: &gsr_core::GeosocialNetwork, shards: usize) -> Vec<Shard> {
        prepared_tiles(net, shards)
            .map(|(prep, mbr)| {
                let built = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
                (SnapshotIndex::ThreeDReach(built), mbr)
            })
            .collect()
    }

    /// The answers of vertex `A` over the probe regions: what "the same
    /// set" means below.
    fn answers(index: &dyn RangeReachIndex) -> Vec<bool> {
        paper_example::probe_regions().iter().map(|r| index.query(paper_example::A, r)).collect()
    }

    fn expect_load_error(dir: &Path, opts: LoadOptions, needle: &str) {
        match load_sharded_from_path_with(dir, opts) {
            Err(GsrError::Load(msg)) => assert!(msg.contains(needle), "{opts:?}: {msg}"),
            other => panic!("{opts:?}: expected typed Load error, got {other:?}"),
        }
    }

    #[test]
    fn sharded_set_round_trips_and_routes_like_the_oracle() {
        let scratch = ScratchDir::new("gsr-shard-rt").unwrap();
        let dir = scratch.path();
        save_sharded_to_path(dir, &build_set(3)).unwrap();
        assert!(dir.join(SHARD_MANIFEST).is_file());

        let (sharded, info) = load_sharded_from_path_with(dir, LoadOptions::default()).unwrap();
        assert_eq!(info.format, FORMAT_VERSION);
        assert!(info.file_bytes > 0);
        assert_eq!(sharded.num_shards(), 3);

        let prep = paper_example::prepared();
        let oracle = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let region = paper_example::query_region();
        for v in 0..oracle.num_vertices() as u32 {
            assert_eq!(sharded.query(v, &region), oracle.query(v, &region), "v={v}");
        }
    }

    #[test]
    fn manifest_corruption_is_a_typed_load_error() {
        let scratch = ScratchDir::new("gsr-shard-corrupt").unwrap();
        let dir = scratch.path();
        save_sharded_to_path(dir, &build_set(2)).unwrap();

        let path = dir.join(SHARD_MANIFEST);
        let pristine = std::fs::read(&path).unwrap();
        let mut bytes = pristine.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        expect_load_error(dir, LoadOptions::default(), "checksum");

        // A version-1 manifest (the layout without a shared file) takes the
        // typed version exit, naming the version, before its CRC is looked at.
        let mut v1 = pristine;
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &v1).unwrap();
        expect_load_error(dir, LoadOptions::default(), "unsupported shard manifest version 1");

        // A missing manifest must be a typed error too, not a panic.
        std::fs::remove_file(&path).unwrap();
        expect_load_error(dir, LoadOptions::default(), "shard manifest");
    }

    #[test]
    fn mismatched_vertex_counts_are_rejected() {
        // Indexes over independent networks share no buffer: the shared file
        // is empty and every shard file carries its own `comp_of`.
        let whole = |net| {
            let built = ThreeDReach::build(&PreparedNetwork::new(net), SccSpatialPolicy::Replicate);
            (SnapshotIndex::ThreeDReach(built), None)
        };
        let tiny = || {
            gsr_core::GeosocialNetwork::new(
                gsr_graph::GraphBuilder::new(2).build(),
                vec![Some(gsr_geo::Point::new(0.0, 0.0)), None],
            )
            .unwrap()
        };
        let scratch = ScratchDir::new("gsr-shard-mismatch").unwrap();
        let (dir, other) = (scratch.path().join("set"), scratch.path().join("other"));
        save_sharded_to_path(
            &dir,
            &[whole(paper_example::network()), whole(paper_example::network())],
        )
        .unwrap();
        save_sharded_to_path(&other, &[whole(tiny()), whole(tiny())]).unwrap();
        let (manifest, foreign) = (read_manifest(&dir).unwrap(), read_manifest(&other).unwrap());
        assert_eq!(std::fs::metadata(dir.join(&manifest.shared)).unwrap().len(), 24, "header only");
        load_sharded_from_path_with(&dir, LoadOptions::default()).unwrap();

        // Overwrite shard 1 with a shard of the other network.
        std::fs::copy(other.join(&foreign.shards[1].file), dir.join(&manifest.shards[1].file))
            .unwrap();
        expect_load_error(&dir, LoadOptions::default(), "vertices");
    }

    /// The shared columns are one buffer before the save, one section on
    /// disk and one mapping after the load.
    #[test]
    fn shared_columns_are_written_once_and_loaded_pointer_equal() {
        let scratch = ScratchDir::new("gsr-shard-shared").unwrap();
        let dir = scratch.path();
        let set = build_set(3);
        // Address and length of every (non-empty) column `i` counts.
        let ids = |i: &dyn RangeReachIndex| {
            let list = i.columns().expect("3DReach declares its columns");
            let counted = list.cols.iter().filter(|c| c.counted && !c.bytes.is_empty());
            counted.map(|c| (c.bytes.as_ptr() as usize, c.bytes.len())).collect::<Vec<_>>()
        };
        // The columns of `i` that shard 0 of `members` holds too.
        let common = |i: &dyn RangeReachIndex, first: &dyn RangeReachIndex| {
            ids(i).into_iter().filter(|id| ids(first).contains(id)).collect::<Vec<_>>()
        };
        let shared = common(&set[1].0, &set[0].0);
        assert_eq!(shared.len(), 3, "comp_of, label offsets, label bytes");
        assert!(
            set[1..].iter().all(|(s, _)| common(s, &set[0].0) == shared),
            "tiles share by handle"
        );
        save_sharded_to_path(dir, &set).unwrap();

        let manifest = read_manifest(dir).unwrap();
        let len = |name: &str| std::fs::metadata(dir.join(name)).unwrap().len();
        let plain: u64 = set
            .iter()
            .map(|(index, _)| {
                let mut bytes = Vec::new();
                crate::save(&mut bytes, index).unwrap();
                bytes.len() as u64
            })
            .sum();
        let total: u64 = manifest.files().map(len).sum();
        assert!(total < plain, "{total} bytes on disk, {plain} as three plain snapshots");

        for opts in BOTH_TRUST_MODES {
            let (loaded, info) = load_sharded_from_path_with(dir, opts).unwrap();
            assert_eq!(info.file_bytes, total);
            let members = loaded.members();
            let first = members[0].index.as_ref();
            let shared = common(members[1].index.as_ref(), first);
            assert_eq!(shared.len(), 3, "one mapping, three views");
            for m in &members[1..] {
                assert_eq!(common(m.index.as_ref(), first), shared);
            }
            let sum: usize = members.iter().map(|m| m.index.index_bytes()).sum();
            let repeats: usize = shared.iter().map(|id| id.1).sum::<usize>() * 2;
            assert_eq!(loaded.index_bytes(), sum - repeats);
        }

        // Saving what was loaded writes the same files, byte for byte.
        let again = ScratchDir::new("gsr-shard-shared-again").unwrap();
        let (loaded, _) = load_set(dir, LoadOptions::default()).unwrap();
        save_sharded_to_path(again.path(), &loaded).unwrap();
        let read = |d: &Path, name: &str| std::fs::read(d.join(name)).unwrap();
        for name in manifest.files().chain([SHARD_MANIFEST]) {
            assert_eq!(read(again.path(), name), read(dir, name), "{name}");
        }
    }

    /// Every way the shared file can be wrong, and every way a file of the
    /// set can be mistaken for a snapshot, is a typed error under both
    /// trust modes.
    #[test]
    fn damaged_or_misused_files_are_typed_load_errors() {
        let scratch = ScratchDir::new("gsr-shard-damage").unwrap();
        let dir = scratch.path();
        save_sharded_to_path(dir, &build_set(2)).unwrap();
        let manifest = read_manifest(dir).unwrap();
        let shared = dir.join(&manifest.shared);
        let pristine = std::fs::read(&shared).unwrap();

        for opts in BOTH_TRUST_MODES {
            // Neither file is an index on its own.
            for name in [&manifest.shared, &manifest.shards[0].file] {
                match crate::load_from_path_with(dir.join(name), opts) {
                    Err(GsrError::Load(msg)) => assert!(msg.contains("missing section"), "{msg}"),
                    other => panic!("{name} loaded standalone: {other:?}"),
                }
            }

            // Truncation anywhere.
            for cut in [0, 11, 40, pristine.len() / 2, pristine.len() - 1] {
                std::fs::write(&shared, &pristine[..cut]).unwrap();
                expect_load_error(dir, opts, "snapshot");
            }

            // A flipped bit in the directory is structural: caught in both
            // modes. One in a payload is caught by the CRC, or — trusted —
            // by the label validation.
            let mut flipped = pristine.clone();
            flipped[16] ^= 0x01; // declared file length
            std::fs::write(&shared, &flipped).unwrap();
            expect_load_error(dir, opts, "snapshot");
            let mut flipped = pristine.clone();
            let last = flipped.len() - 1;
            flipped[last] = 0xFF; // last label byte: an unterminated varint
            std::fs::write(&shared, &flipped).unwrap();
            expect_load_error(
                dir,
                opts,
                if opts.trust { "compact labels" } else { "crc mismatch" },
            );

            // A file of the set written in a retired format.
            for version in [4u32, 5] {
                let mut retired = pristine.clone();
                retired[8..12].copy_from_slice(&version.to_le_bytes());
                std::fs::write(&shared, &retired).unwrap();
                expect_load_error(dir, opts, &format!("unsupported format version {version} "));
            }

            std::fs::remove_file(&shared).unwrap();
            expect_load_error(dir, opts, &manifest.shared);
            std::fs::write(&shared, &pristine).unwrap();
            load_sharded_from_path_with(dir, opts).unwrap();
        }
    }

    /// The crash-safety contract of a re-save into a live directory: killed
    /// at any step before the manifest rename, it leaves the previous set
    /// complete and untouched.
    #[test]
    fn a_killed_save_leaves_the_previous_set_loadable() {
        let scratch = ScratchDir::new("gsr-shard-kill").unwrap();
        let dir = scratch.path();
        save_sharded_to_path(dir, &build_set(2)).unwrap();
        let old_manifest = std::fs::read(dir.join(SHARD_MANIFEST)).unwrap();
        let (old, _) = load_sharded_from_path_with(dir, LoadOptions::default()).unwrap();
        let old_answers = answers(&old);
        drop(old);

        // What a completed save of another network's set writes, taken from
        // a scratch directory so the kill can be staged file by file.
        let other = paper_example::cyclic_prepared();
        let new_set = build_set_of(other.network(), 3);
        let donor = ScratchDir::new("gsr-shard-kill-donor").unwrap();
        save_sharded_to_path(donor.path(), &new_set).unwrap();
        let new = read_manifest(donor.path()).unwrap();
        let written: Vec<&str> = new.files().collect();
        assert_ne!(new.shared, read_manifest(dir).unwrap().shared, "a different shared file");

        // Killed after k files (k = 1: just after the shared file): they are
        // in place, the next one is a partial staging file, and the
        // manifest-to-be never appeared.
        for k in 1..written.len() {
            for name in &written[..k] {
                std::fs::copy(donor.path().join(name), dir.join(name)).unwrap();
            }
            let partial = std::fs::read(donor.path().join(written[k])).unwrap();
            std::fs::write(
                crate::staging_path(&dir.join(written[k])),
                &partial[..partial.len() / 2],
            )
            .unwrap();
            assert_eq!(std::fs::read(dir.join(SHARD_MANIFEST)).unwrap(), old_manifest);
            let (survivor, _) = load_sharded_from_path_with(dir, LoadOptions::default())
                .unwrap_or_else(|e| panic!("previous set lost after {k} files: {e}"));
            assert_eq!(survivor.num_shards(), 2);
            assert_eq!(answers(&survivor), old_answers, "after {k} files");
        }

        // The next save goes through, switches the set and removes the files
        // only the previous manifest named.
        let old_files: Vec<String> =
            read_manifest(dir).unwrap().files().map(String::from).collect();
        save_sharded_to_path(dir, &new_set).unwrap();
        let (now, _) = load_sharded_from_path_with(dir, LoadOptions::default()).unwrap();
        assert_eq!(now.num_shards(), 3);
        let oracle = ThreeDReach::build(&other, SccSpatialPolicy::Replicate);
        assert_eq!(answers(&now), answers(&oracle));
        for name in old_files.iter().filter(|n| !written.contains(&n.as_str())) {
            assert!(!dir.join(name).exists(), "{name} should have been removed");
        }
    }
}

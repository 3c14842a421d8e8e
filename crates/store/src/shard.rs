//! Sharded snapshot sets: a directory of per-shard v3 snapshots plus a
//! small checksummed manifest.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/
//!   MANIFEST.gsrshard     routing metadata (see below)
//!   shard-000.gsr         ordinary v3 snapshot of shard 0's index
//!   shard-001.gsr         ...
//! ```
//!
//! Each shard file is a **plain v3 snapshot** written through the same
//! crash-safe staging path as [`crate::save_to_path`], so every existing
//! corruption/trust guarantee applies per shard and the files load through
//! the zero-copy mmap path. The manifest is written *last* (also staged +
//! atomically renamed), so a save killed at any point leaves either the
//! complete previous shard set or loose shard files without a manifest —
//! never a manifest pointing at missing or half-written shards it did not
//! verify first.
//!
//! ## Manifest wire format
//!
//! Little-endian, mirroring the snapshot framing:
//!
//! ```text
//! magic     [8]  "GSRSHRD\0"
//! version   u32  1
//! payload:
//!   num_shards    u32
//!   num_vertices  u64
//!   per shard:
//!     file name   u64 len + bytes (UTF-8, no path separators)
//!     has_mbr     u8 (0 | 1)
//!     mbr         f64 min_x, min_y, max_x, max_y (zeros when absent)
//! crc32     u32  over the payload bytes
//! ```

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gsr_core::{GsrError, RangeReachIndex, ShardMember, ShardedIndex};
use gsr_geo::Rect;

use crate::wire::{crc32, Dec, Enc};
use crate::{load_err, staging_path, LoadInfo, LoadOptions, SnapshotIndex, FORMAT_VERSION};

/// First eight bytes of a shard-set manifest.
pub const SHARD_MAGIC: [u8; 8] = *b"GSRSHRD\0";

/// Current manifest format version.
pub const SHARD_MANIFEST_VERSION: u32 = 1;

/// File name of the manifest inside a shard-set directory.
pub const SHARD_MANIFEST: &str = "MANIFEST.gsrshard";

/// `true` when `path` is a shard-set directory (contains a manifest).
pub fn is_sharded_path(path: impl AsRef<Path>) -> bool {
    path.as_ref().join(SHARD_MANIFEST).is_file()
}

fn shard_file_name(i: usize) -> String {
    format!("shard-{i:03}.gsr")
}

/// Saves a sharded snapshot set to directory `dir`, creating it if needed.
///
/// Every shard snapshot goes through the crash-safe [`crate::save_to_path`]
/// staging dance; the manifest is staged and renamed into place last.
pub fn save_sharded_to_path(
    dir: impl AsRef<Path>,
    shards: &[(SnapshotIndex, Option<Rect>)],
) -> Result<(), GsrError> {
    let dir = dir.as_ref();
    if shards.is_empty() {
        return Err(GsrError::Internal("sharded save: empty shard set".into()));
    }
    let num_vertices = shards[0].0.num_vertices() as u64;
    for (i, (index, _)) in shards.iter().enumerate() {
        if index.num_vertices() as u64 != num_vertices {
            return Err(GsrError::Internal(format!(
                "sharded save: shard {i} has {} vertices, shard 0 has {num_vertices}",
                index.num_vertices()
            )));
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| {
        GsrError::Internal(format!("sharded save {}: create dir: {e}", dir.display()))
    })?;
    let mut e = Enc::new();
    e.u32(shards.len() as u32);
    e.u64(num_vertices);
    for (i, (index, mbr)) in shards.iter().enumerate() {
        let name = shard_file_name(i);
        crate::save_to_path(dir.join(&name), index)?;
        e.vec_u8(name.as_bytes());
        match mbr {
            Some(r) => {
                e.u8(1);
                e.f64(r.min_x);
                e.f64(r.min_y);
                e.f64(r.max_x);
                e.f64(r.max_y);
            }
            None => {
                e.u8(0);
                for _ in 0..4 {
                    e.f64(0.0);
                }
            }
        }
    }
    let payload = e.into_bytes();
    let mut bytes = Vec::with_capacity(payload.len() + 16);
    bytes.extend_from_slice(&SHARD_MAGIC);
    bytes.extend_from_slice(&SHARD_MANIFEST_VERSION.to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());

    let target = dir.join(SHARD_MANIFEST);
    let tmp = staging_path(&target);
    let save_err = |stage: &str, e: std::io::Error| {
        GsrError::Internal(format!("sharded save {}: {stage}: {e}", target.display()))
    };
    let result = (|| {
        std::fs::write(&tmp, &bytes).map_err(|e| save_err("write staging", e))?;
        std::fs::rename(&tmp, &target).map_err(|e| save_err("rename into place", e))
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// One routing entry decoded from a shard-set manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEntry {
    /// Snapshot file name relative to the manifest's directory.
    pub file: String,
    /// Tile MBR recorded at save time; `None` for an empty tile.
    pub mbr: Option<Rect>,
}

/// A decoded shard-set manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Vertex-count of every shard's index (all shards must agree).
    pub num_vertices: u64,
    /// Per-shard routing entries in shard order.
    pub shards: Vec<ShardEntry>,
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
        return Err(load_err(format!("unsupported shard manifest version {version}")));
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
    let mut shards = Vec::with_capacity(num_shards as usize);
    for i in 0..num_shards {
        let name_bytes = d.vec_u8("shard manifest").map_err(load_err)?;
        let file = String::from_utf8(name_bytes)
            .map_err(|_| load_err(format!("shard {i}: file name is not UTF-8")))?;
        if file.is_empty() || file.contains(['/', '\\']) || file == ".." {
            return Err(load_err(format!("shard {i}: illegal file name {file:?}")));
        }
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
                if !(min_x.is_finite() && min_y.is_finite() && max_x.is_finite() && max_y.is_finite())
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
    Ok(ShardManifest { num_vertices, shards })
}

/// Loads a sharded snapshot set from directory `dir` and assembles the
/// scatter-gather router. Every shard loads through the ordinary v3 path
/// (memory-mapped when possible) under the same [`LoadOptions`].
pub fn load_sharded_from_path_with(
    dir: impl AsRef<Path>,
    opts: LoadOptions,
) -> Result<(ShardedIndex, LoadInfo), GsrError> {
    let dir = dir.as_ref();
    let manifest = read_manifest(dir)?;
    let mut members = Vec::with_capacity(manifest.shards.len());
    let mut file_bytes = 0u64;
    let mut mapped = true;
    for (i, entry) in manifest.shards.iter().enumerate() {
        let (index, info) = crate::load_from_path_with(dir.join(&entry.file), opts)?;
        if index.num_vertices() as u64 != manifest.num_vertices {
            return Err(load_err(format!(
                "shard {i}: snapshot has {} vertices, manifest says {}",
                index.num_vertices(),
                manifest.num_vertices
            )));
        }
        file_bytes += info.file_bytes;
        mapped &= info.mapped;
        members.push(ShardMember { index: Arc::new(index), mbr: entry.mbr });
    }
    let sharded = ShardedIndex::new(members)?;
    Ok((sharded, LoadInfo { format: FORMAT_VERSION, mapped, file_bytes }))
}

/// The staging debris paths a killed sharded save could leave inside `dir`
/// (manifest staging file), exposed for fault-injection tests.
pub fn manifest_staging_path(dir: impl AsRef<Path>) -> PathBuf {
    staging_path(&dir.as_ref().join(SHARD_MANIFEST))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_core::methods::ThreeDReach;
    use gsr_datagen::faults::ScratchDir;
    use gsr_core::{
        partition_tiles, tile_network, paper_example, PreparedNetwork, RangeReachIndex,
        SccSpatialPolicy,
    };

    fn build_set(shards: usize) -> Vec<(SnapshotIndex, Option<Rect>)> {
        let net = paper_example::network();
        partition_tiles(&net, shards)
            .iter()
            .map(|tile| {
                let prep = PreparedNetwork::new(tile_network(&net, tile).unwrap());
                let built = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
                (SnapshotIndex::ThreeDReach(built), tile.mbr)
            })
            .collect()
    }

    #[test]
    fn sharded_set_round_trips_and_routes_like_the_oracle() {
        let scratch = ScratchDir::new("gsr-shard-rt").unwrap();
        let dir = scratch.path();
        save_sharded_to_path(dir, &build_set(3)).unwrap();
        assert!(is_sharded_path(dir));

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
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match load_sharded_from_path_with(dir, LoadOptions::default()) {
            Err(GsrError::Load(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected typed Load error, got {other:?}"),
        }

        // A missing manifest must be a typed error too, not a panic.
        std::fs::remove_file(&path).unwrap();
        assert!(!is_sharded_path(dir));
        assert!(matches!(
            load_sharded_from_path_with(dir, LoadOptions::default()),
            Err(GsrError::Load(_))
        ));
    }

    #[test]
    fn mismatched_vertex_counts_are_rejected() {
        let scratch = ScratchDir::new("gsr-shard-mismatch").unwrap();
        let dir = scratch.path();
        save_sharded_to_path(dir, &build_set(2)).unwrap();

        // Overwrite shard 1 with a snapshot of a different network.
        let tiny = gsr_core::GeosocialNetwork::new(
            gsr_graph::GraphBuilder::new(2).build(),
            vec![Some(gsr_geo::Point::new(0.0, 0.0)), None],
        )
        .unwrap();
        let prep = PreparedNetwork::new(tiny);
        let built = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        crate::save_to_path(dir.join("shard-001.gsr"), &SnapshotIndex::ThreeDReach(built))
            .unwrap();
        match load_sharded_from_path_with(dir, LoadOptions::default()) {
            Err(GsrError::Load(msg)) => assert!(msg.contains("vertices"), "{msg}"),
            other => panic!("expected typed Load error, got {other:?}"),
        }
    }
}

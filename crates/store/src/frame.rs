//! The zero-copy snapshot framing: the sections *are* the arenas.
//!
//! A snapshot file is a 24-byte header, a directory of fixed-width entries,
//! and then one section per index column, each laid out at a 64-byte-aligned
//! offset exactly as the in-memory arena stores it (fixed-width
//! little-endian elements, no framing inside the payload). Loading
//! therefore needs **zero deserialization**: the file is mapped (or read
//! once into an aligned buffer) and every column becomes a
//! [`gsr_graph::Col`] view into it.
//!
//! ```text
//! header      24 B   magic (8) | version u32 | section_count u32 | file_len u64
//! directory   24 B * section_count
//!               tag u16 | elem u8 | flags u8 | crc u32 | offset u64 | len u64
//! sections           payloads at ascending 64-byte-aligned offsets,
//!                    zero padding between, file_len = end of the last
//! ```
//!
//! Which sections an index has is not this module's business: every index
//! structure declares its columns and scalars itself
//! ([`gsr_graph::Columns`]). The writer frames the declared list — the
//! scalars, behind a method tag, become the `META` section — and the loader
//! hands the structure's own `load` a [`Source`] over the file's sections,
//! then insists that every section was claimed and every scalar read.
//!
//! The loader validates the directory structurally (alignment, ordering,
//! bounds, zeroed padding, exact `file_len`) and verifies a section's
//! CRC-32 when a structure claims it — immediately before that structure
//! validates it, so the payload makes one trip through the cache, and no
//! section reaches a structure unverified — unless the caller opts into
//! trusting the file; the structures validate what they load — so a
//! corrupt snapshot is a typed [`GsrError::Load`], never a panic, even
//! with CRC verification skipped.
//!
//! The framing (header, directory, sections) is a [`Frame`]; an index is
//! read from one frame, or — in a shard set — from the shard's own frame
//! plus the set's shared frame, which holds the columns every shard keeps
//! a handle to (`crate::shard`).

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::sync::Arc;

use gsr_core::{GsrError, Method};
use gsr_graph::columns::{Dec, Enc, Section};
use gsr_graph::{Column, ColumnList, Source};

use crate::arena::{ArenaBytes, ARENA_ALIGN};
use crate::wire::crc32;
use crate::{io_save, load_err, unsupported_version, SnapshotIndex, FORMAT_VERSION, MAGIC};

/// Header length: magic + version + section count + file length.
const HEADER_LEN: usize = 24;
/// Directory entry length.
const DIR_ENTRY_LEN: usize = 24;

/// Tag of the `META` section: the method tag, then the index's scalars.
const META: u16 = 0x01;

fn align_up(x: usize) -> usize {
    x.div_ceil(ARENA_ALIGN) * ARENA_ALIGN
}

// ---------------------------------------------------------------------------
// Save.

/// The sections of `index`'s snapshot: `META`, then its columns as it
/// declares them.
pub(crate) fn sections_of(index: &SnapshotIndex) -> Vec<Column<'_>> {
    let mut list = index.column_list();
    let mut meta = Enc::default();
    meta.u8(index.method().tag());
    meta.append(list.meta);
    let mut sections = ColumnList::default();
    sections.encoded(META, meta.into_bytes());
    sections.cols.append(&mut list.cols);
    sections.cols
}

/// A frame ready to be written: its sections with the header and the
/// CRC'd directory already encoded.
pub(crate) struct FrameImage<'a> {
    head: Vec<u8>,
    offsets: Vec<usize>,
    sections: Vec<Column<'a>>,
}

impl<'a> FrameImage<'a> {
    pub(crate) fn new(sections: Vec<Column<'a>>) -> Self {
        let n = sections.len();
        let dir_end = HEADER_LEN + n * DIR_ENTRY_LEN;
        let mut offsets = Vec::with_capacity(n);
        let mut cur = dir_end;
        for s in &sections {
            let off = align_up(cur);
            offsets.push(off);
            cur = off + s.bytes.len();
        }
        let mut head = Vec::with_capacity(dir_end);
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        head.extend_from_slice(&(n as u32).to_le_bytes());
        head.extend_from_slice(&(cur as u64).to_le_bytes());
        for (s, &off) in sections.iter().zip(&offsets) {
            head.extend_from_slice(&s.tag.to_le_bytes());
            head.push(s.elem);
            head.push(0); // flags: reserved
            head.extend_from_slice(&crc32(&s.bytes).to_le_bytes());
            head.extend_from_slice(&(off as u64).to_le_bytes());
            head.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes());
        }
        FrameImage { head, offsets, sections }
    }

    /// CRC-32 of the header and directory, which hold every section's tag,
    /// length and CRC: a fingerprint of the whole file.
    pub(crate) fn fingerprint(&self) -> u32 {
        crc32(&self.head)
    }

    /// Writes the frame: header, directory, then the section payloads —
    /// each one a single `write_all` of the borrowed arena bytes, so the
    /// save performs no per-element encoding work at all.
    pub(crate) fn write(&self, w: &mut impl Write) -> Result<(), GsrError> {
        w.write_all(&self.head).map_err(io_save)?;
        let zeros = [0u8; ARENA_ALIGN];
        let mut cur = self.head.len();
        for (s, &off) in self.sections.iter().zip(&self.offsets) {
            w.write_all(&zeros[..off - cur]).map_err(io_save)?;
            w.write_all(&s.bytes).map_err(io_save)?;
            cur = off + s.bytes.len();
        }
        w.flush().map_err(io_save)
    }
}

// ---------------------------------------------------------------------------
// Load.

struct DirEntry {
    tag: u16,
    start: usize,
    len: usize,
    crc: u32,
    /// Whether the payload has been held to `crc` — or never will be, the
    /// file being trusted.
    verified: Cell<bool>,
}

/// A file (or buffer) whose framing has been validated: header and
/// directory structure. A section's CRC is verified when the section is
/// first claimed ([`SectionMap::take`]).
pub(crate) struct Frame {
    arena: Arc<ArenaBytes>,
    entries: Vec<DirEntry>,
    /// The structural checks that passed on sections of this frame
    /// ([`Source::check_once`]): the sections' tags and the scalar they were
    /// read under.
    checked: RefCell<Vec<(Vec<u16>, u64)>>,
}

/// The sections an index is read from — the file's own frame and, for a
/// shard, the set's shared frame — with consumption tracking: every
/// section must be claimed by the index's `load` exactly once, so a
/// snapshot smuggling extra (or missing) sections is rejected even when
/// its CRCs are intact.
///
/// The claim is also where a section's CRC is verified, once per frame
/// entry: the structure that claimed it validates it next, while its bytes
/// are still in cache, and a section of a shard set's shared frame, claimed
/// by every shard, is checksummed for the first.
struct SectionMap<'a> {
    frames: Vec<(&'a Frame, Vec<bool>)>,
    /// The unread scalars of `META`.
    meta: Dec<'a>,
}

impl<'a> SectionMap<'a> {
    fn take(&mut self, tag: u16) -> Result<Option<(&'a Frame, usize, usize)>, String> {
        for (frame, used) in &mut self.frames {
            if let Some(i) = frame.entries.iter().position(|e| e.tag == tag) {
                if std::mem::replace(&mut used[i], true) {
                    return Ok(None);
                }
                let e = &frame.entries[i];
                if !e.verified.get() {
                    if crc32(&frame.arena.bytes()[e.start..e.start + e.len]) != e.crc {
                        return Err(format!("section 0x{tag:02x}: crc mismatch"));
                    }
                    e.verified.set(true);
                }
                return Ok(Some((*frame, e.start, e.len)));
            }
        }
        Ok(None)
    }

    fn finish(&self) -> Result<(), GsrError> {
        self.meta.finish("meta").map_err(load_err)?;
        for (frame, used) in &self.frames {
            if let Some((e, _)) = frame.entries.iter().zip(used).find(|(_, used)| !**used) {
                return Err(load_err(format!(
                    "unexpected section 0x{:02x} for this method",
                    e.tag
                )));
            }
        }
        Ok(())
    }
}

impl Source for SectionMap<'_> {
    type Owner = ArenaBytes;

    fn scalars(&mut self, n: usize) -> Result<&[u8], String> {
        self.meta.take(n, "meta")
    }

    fn claim(&mut self, tag: u16) -> Result<Option<Section<'_, ArenaBytes>>, String> {
        Ok(self.take(tag)?.map(|(frame, start, len)| (&frame.arena, start, len)))
    }

    /// A frame remembers the checks that passed on sections it holds all
    /// of: the shards of a set read the same views of the shared frame, and
    /// those need checking once.
    fn check_once(
        &mut self,
        tags: &[u16],
        key: u64,
        check: impl FnOnce() -> Result<(), String>,
    ) -> Result<(), String> {
        let holds = |frame: &Frame| tags.iter().all(|t| frame.entries.iter().any(|e| e.tag == *t));
        let Some((frame, _)) = self.frames.iter().find(|(frame, _)| holds(frame)) else {
            return check();
        };
        let mut checked = frame.checked.borrow_mut();
        if !checked.iter().any(|(seen, under)| seen == tags && *under == key) {
            check()?;
            checked.push((tags.to_vec(), key));
        }
        Ok(())
    }
}

/// The little-endian integer in `b` (at most eight bytes, already
/// length-checked by the caller).
fn le(b: &[u8]) -> u64 {
    b.iter().rev().fold(0, |acc, &byte| acc << 8 | byte as u64)
}

impl Frame {
    /// Validates the framing of a complete mapped (or aligned in-memory)
    /// file.
    ///
    /// `trust` skips only the per-section CRC verification at claim time —
    /// the structural directory checks and every structure's own validation
    /// still run, so even a trusted load of garbage is a typed error, not
    /// undefined behavior.
    pub(crate) fn parse(arena: Arc<ArenaBytes>, trust: bool) -> Result<Frame, GsrError> {
        let entries = parse_directory(arena.bytes(), trust)?;
        Ok(Frame { arena, entries, checked: RefCell::default() })
    }
}

fn parse_directory(bytes: &[u8], trust: bool) -> Result<Vec<DirEntry>, GsrError> {
    if !cfg!(target_endian = "little") {
        return Err(load_err(
            "snapshots are little-endian column images; this host is big-endian".into(),
        ));
    }
    if bytes.len() < HEADER_LEN {
        return Err(load_err(format!(
            "truncated header: {} bytes, need {HEADER_LEN}",
            bytes.len()
        )));
    }
    if bytes[0..8] != MAGIC {
        return Err(load_err(format!("bad magic {:02x?}: not a gsr snapshot", &bytes[0..8])));
    }
    let version = le(&bytes[8..12]) as u32;
    if version != FORMAT_VERSION {
        return Err(unsupported_version(version));
    }
    let n = le(&bytes[12..16]) as usize;
    let file_len = le(&bytes[16..24]);
    if file_len > bytes.len() as u64 {
        return Err(load_err(format!(
            "truncated: header declares {file_len} bytes, {} present",
            bytes.len()
        )));
    }
    if file_len < bytes.len() as u64 {
        return Err(load_err("trailing bytes after the final section".into()));
    }
    let dir_end = n
        .checked_mul(DIR_ENTRY_LEN)
        .and_then(|d| d.checked_add(HEADER_LEN))
        .filter(|&d| d <= bytes.len())
        .ok_or_else(|| load_err(format!("truncated section directory ({n} sections)")))?;

    let mut entries: Vec<DirEntry> = Vec::with_capacity(n);
    let mut cur = dir_end;
    for i in 0..n {
        let e = &bytes[HEADER_LEN + i * DIR_ENTRY_LEN..][..DIR_ENTRY_LEN];
        let etag = le(&e[0..2]) as u16;
        let elem = e[2] as usize;
        let flags = e[3];
        let crc = le(&e[4..8]) as u32;
        let off = le(&e[8..16]);
        let len = le(&e[16..24]);
        let sect = |msg: &str| load_err(format!("section 0x{etag:02x}: {msg}"));
        if flags != 0 {
            return Err(sect(&format!("unknown flags 0x{flags:02x}")));
        }
        if elem == 0 {
            return Err(sect("zero element size"));
        }
        let off = usize::try_from(off).map_err(|_| sect("offset overflows this platform"))?;
        let len = usize::try_from(len).map_err(|_| sect("length overflows this platform"))?;
        if off % ARENA_ALIGN != 0 {
            return Err(sect(&format!("offset {off} is not {ARENA_ALIGN}-byte aligned")));
        }
        if off < cur {
            return Err(sect("overlaps the previous section or the directory"));
        }
        let end = off
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| sect(&format!("range {off}+{len} runs past the end of the file")))?;
        if len % elem != 0 {
            return Err(sect(&format!("{len} bytes is not a multiple of element size {elem}")));
        }
        if bytes[cur..off].iter().any(|&b| b != 0) {
            return Err(sect("nonzero padding before the section"));
        }
        if entries.iter().any(|p| p.tag == etag) {
            return Err(sect("duplicate tag"));
        }
        entries.push(DirEntry { tag: etag, start: off, len, crc, verified: Cell::new(trust) });
        cur = end;
    }
    if cur != bytes.len() {
        return Err(load_err("trailing bytes after the final section".into()));
    }
    Ok(entries)
}

/// Rebuilds the index whose sections are `own`'s plus, for a member of a
/// shard set, the set's `shared` frame's. Every section of both must be
/// claimed: a shard file alone, or the shared file alone, is not an index.
pub(crate) fn load_index(own: &Frame, shared: Option<&Frame>) -> Result<SnapshotIndex, GsrError> {
    let frames = [Some(own), shared].into_iter().flatten();
    let mut map = SectionMap {
        frames: frames.map(|f| (f, vec![false; f.entries.len()])).collect(),
        meta: Dec::new(&[]),
    };
    let (frame, start, len) =
        map.take(META).map_err(load_err)?.ok_or_else(|| load_err("missing section meta".into()))?;
    map.meta = Dec::new(&frame.arena.bytes()[start..start + len]);
    let src = &mut map;
    let tag = src.u8().map_err(load_err)?;
    let method =
        Method::from_tag(tag).ok_or_else(|| load_err(format!("unknown method tag {tag}")))?;
    let index = method.load(src).map_err(load_err)?;
    map.finish()?;
    Ok(index)
}

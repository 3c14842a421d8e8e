//! The v3 zero-copy snapshot format: the sections *are* the arenas.
//!
//! A v3 file is a 24-byte header, a directory of fixed-width entries, and
//! then one section per index column, each laid out at a 64-byte-aligned
//! offset exactly as the in-memory arena stores it (fixed-width
//! little-endian elements, no framing inside the payload). Loading
//! therefore needs **zero deserialization**: the file is mapped (or read
//! once into an aligned buffer) and every column becomes a
//! [`gsr_graph::Col`] view into it. Only two small sections — `META` and
//! GeoReach's `SPA_INFO` — are `Enc`-encoded field by field, because their
//! contents are heterogeneous and tiny.
//!
//! ```text
//! header      24 B   magic (8) | version u32 = 3 | section_count u32 | file_len u64
//! directory   24 B * section_count
//!               tag u16 | elem u8 | flags u8 | crc u32 | offset u64 | len u64
//! sections           payloads at ascending 64-byte-aligned offsets,
//!                    zero padding between, file_len = end of the last
//! ```
//!
//! The loader validates the directory structurally (alignment, ordering,
//! bounds, zeroed padding, exact `file_len`), verifies every section's
//! CRC-32 unless the caller opts into trusting the file, and then rebuilds
//! the index through the owning crates' validated `from_cols`
//! constructors — so a corrupt snapshot is a typed [`GsrError::Load`],
//! never a panic, even with CRC verification skipped.
//!
//! The framing (header, directory, sections) is a [`Frame`]; an index is
//! read from one frame, or — in a shard set — from the shard's own frame
//! plus the set's shared frame, which holds the columns every shard keeps
//! a handle to (`crate::shard`).

use std::borrow::Cow;
use std::io::Write;
use std::sync::{Arc, OnceLock};

use gsr_core::methods::{
    ScanMode, SocReach, SpaInfoParts, SpaReachBfl, SpaReachFilterParts, SpaReachInt, ThreeDReach,
    ThreeDReachRev,
};
use gsr_core::{GsrError, SccSpatialPolicy};
use gsr_geo::{Aabb, Point};
use gsr_graph::{bytes_of, Col, DiGraph, Pod};
use gsr_index::{RTree, RTreeCols, RTreeParams};
use gsr_reach::bfl::BflIndex;
use gsr_reach::compact::{CompactLabels, DeltaArray};
use gsr_reach::interval::{Interval, IntervalLabeling};

use crate::arena::{ArenaBytes, ARENA_ALIGN};
use crate::codec::{dec_rect, dec_spa_info, enc_rect, enc_spa_info};
use crate::wire::{crc32, Dec, Enc};
use crate::{
    io_save, load_err, unsupported_version, SnapshotIndex, FORMAT_VERSION, MAGIC,
};

/// Header length: magic + version + section count + file length.
pub const HEADER_LEN: usize = 24;
/// Directory entry length.
pub const DIR_ENTRY_LEN: usize = 24;

/// Method tags stored in the META section.
mod method_tag {
    pub const SPAREACH_BFL: u8 = 1;
    pub const SPAREACH_INT: u8 = 2;
    pub const GEOREACH: u8 = 3;
    pub const SOCREACH: u8 = 4;
    pub const THREED: u8 = 5;
    pub const THREED_REV: u8 = 6;
}

/// Section tags. Multi-section structures reserve a contiguous tag block;
/// the per-dimension R-tree entry bounds add the dimension index to the
/// base tag (an absent `RT_ENTRY_HI + d` marks dimension `d` degenerate).
mod tag {
    pub const META: u16 = 0x01;
    pub const COMP_OF: u16 = 0x10;
    pub const MEMBER_OFFSETS: u16 = 0x11;
    pub const MEMBER_POINTS: u16 = 0x12;
    pub const RT_MBRS: u16 = 0x20;
    pub const RT_CHILD_START: u16 = 0x21;
    pub const RT_CHILDREN: u16 = 0x22;
    pub const RT_ENTRY_START: u16 = 0x23;
    pub const RT_VALUES: u16 = 0x24;
    pub const RT_ENTRY_LO: u16 = 0x30; // + dimension (0..N)
    pub const RT_ENTRY_HI: u16 = 0x38; // + dimension; absent = degenerate
    pub const LAB_POST: u16 = 0x40;
    pub const LAB_POST_TO_VERTEX: u16 = 0x41;
    pub const LAB_OFFSETS: u16 = 0x42;
    pub const LAB_INTERVALS: u16 = 0x43;
    pub const CL_OFFSETS: u16 = 0x50;
    pub const CL_BYTES: u16 = 0x51;
    pub const DAG_OUT_OFFSETS: u16 = 0x60;
    pub const DAG_OUT_TARGETS: u16 = 0x61;
    pub const DAG_IN_OFFSETS: u16 = 0x62;
    pub const DAG_IN_SOURCES: u16 = 0x63;
    pub const BFL_POST: u16 = 0x70;
    pub const BFL_TREE_MIN: u16 = 0x71;
    pub const BFL_OUT_FILTERS: u16 = 0x72;
    pub const BFL_IN_FILTERS: u16 = 0x73;
    pub const SPA_INFO: u16 = 0x80;
    pub const DA_ANCHORS: u16 = 0x90;
    pub const DA_STARTS: u16 = 0x91;
    pub const DA_BYTES: u16 = 0x92;
    pub const REV_POST: u16 = 0xA0;
    pub const SOC_POINTS: u16 = 0xB0;
}

fn align_up(x: usize) -> usize {
    x.div_ceil(ARENA_ALIGN) * ARENA_ALIGN
}

// ---------------------------------------------------------------------------
// Save.

#[derive(Clone)]
pub(crate) struct Section<'a> {
    pub(crate) tag: u16,
    elem: u8,
    bytes: Cow<'a, [u8]>,
}

impl Section<'_> {
    /// Whether both sections are the same column over the same (non-empty)
    /// buffer: two indexes holding one arena by handle.
    pub(crate) fn same_buffer(&self, other: &Section<'_>) -> bool {
        match (&self.bytes, &other.bytes) {
            (Cow::Borrowed(a), Cow::Borrowed(b)) => {
                self.tag == other.tag && !a.is_empty() && std::ptr::eq(*a, *b)
            }
            _ => false,
        }
    }
}

/// A section borrowing an arena column directly — the zero-copy save path.
fn sec<T: Pod>(tag: u16, xs: &[T]) -> Section<'_> {
    Section { tag, elem: std::mem::size_of::<T>() as u8, bytes: Cow::Borrowed(bytes_of(xs)) }
}

/// An `Enc`-encoded opaque section (META, SPA_INFO).
fn sec_enc(tag: u16, e: Enc) -> Section<'static> {
    Section { tag, elem: 1, bytes: Cow::Owned(e.into_bytes()) }
}

fn push_members<'a>(out: &mut Vec<Section<'a>>, offsets: &'a [u32], points: &'a [Point]) {
    out.push(sec(tag::MEMBER_OFFSETS, offsets));
    out.push(sec(tag::MEMBER_POINTS, points));
}

fn push_rtree<'a, const N: usize>(out: &mut Vec<Section<'a>>, t: &RTreeCols<'a, N, u32>) {
    out.push(sec(tag::RT_MBRS, t.mbrs));
    out.push(sec(tag::RT_CHILD_START, t.child_start));
    out.push(sec(tag::RT_CHILDREN, t.children));
    out.push(sec(tag::RT_ENTRY_START, t.entry_start));
    out.push(sec(tag::RT_VALUES, t.values));
    for d in 0..N {
        out.push(sec(tag::RT_ENTRY_LO + d as u16, t.entry_lo[d]));
        if let Some(hi) = t.entry_hi[d] {
            out.push(sec(tag::RT_ENTRY_HI + d as u16, hi));
        }
    }
}

fn push_digraph<'a>(out: &mut Vec<Section<'a>>, g: &'a DiGraph) {
    let (out_offsets, out_targets) = g.out_csr();
    let (in_offsets, in_sources) = g.in_csr();
    out.push(sec(tag::DAG_OUT_OFFSETS, out_offsets));
    out.push(sec(tag::DAG_OUT_TARGETS, out_targets));
    out.push(sec(tag::DAG_IN_OFFSETS, in_offsets));
    out.push(sec(tag::DAG_IN_SOURCES, in_sources));
}

fn meta_rtree_params(meta: &mut Enc, params: RTreeParams) {
    meta.u64(params.max_entries as u64);
    meta.u64(params.min_entries as u64);
}

fn meta_policy(meta: &mut Enc, policy: SccSpatialPolicy) {
    meta.u8(match policy {
        SccSpatialPolicy::Replicate => 0,
        SccSpatialPolicy::Mbr => 1,
    });
}

fn unsnapshottable() -> GsrError {
    GsrError::Internal(
        "this SpaReach configuration (ablation backend or streaming mode) cannot be snapshotted"
            .into(),
    )
}

pub(crate) fn sections_for(index: &SnapshotIndex) -> Result<Vec<Section<'_>>, GsrError> {
    let mut out = Vec::new();
    match index {
        SnapshotIndex::SpaReachBfl(i) => {
            let (comp_of, tree, is_mbr, reach, member_offsets, member_points) =
                i.cols().ok_or_else(unsnapshottable)?;
            let (g, post, tree_min, out_filters, in_filters, words) = reach.parts();
            let t = tree.cols();
            let mut meta = Enc::new();
            meta.u8(method_tag::SPAREACH_BFL);
            meta.u8(is_mbr as u8);
            meta_rtree_params(&mut meta, t.params);
            meta.u64(words as u64);
            out.push(sec_enc(tag::META, meta));
            out.push(sec(tag::COMP_OF, comp_of));
            push_members(&mut out, member_offsets, member_points);
            push_rtree(&mut out, &t);
            push_digraph(&mut out, g);
            out.push(sec(tag::BFL_POST, post));
            out.push(sec(tag::BFL_TREE_MIN, tree_min));
            out.push(sec(tag::BFL_OUT_FILTERS, out_filters));
            out.push(sec(tag::BFL_IN_FILTERS, in_filters));
        }
        SnapshotIndex::SpaReachInt(i) => {
            let (comp_of, tree, is_mbr, reach, member_offsets, member_points) =
                i.cols().ok_or_else(unsnapshottable)?;
            let (post, post_to_vertex, offsets, intervals) = reach.parts();
            let t = tree.cols();
            let mut meta = Enc::new();
            meta.u8(method_tag::SPAREACH_INT);
            meta.u8(is_mbr as u8);
            meta_rtree_params(&mut meta, t.params);
            out.push(sec_enc(tag::META, meta));
            out.push(sec(tag::COMP_OF, comp_of));
            push_members(&mut out, member_offsets, member_points);
            push_rtree(&mut out, &t);
            out.push(sec(tag::LAB_POST, post));
            out.push(sec(tag::LAB_POST_TO_VERTEX, post_to_vertex));
            out.push(sec(tag::LAB_OFFSETS, offsets));
            out.push(sec(tag::LAB_INTERVALS, intervals));
        }
        SnapshotIndex::GeoReach(i) => {
            let (comp_of, dag, space, finest_exp, member_offsets, member_points) = i.cols();
            let info: Vec<SpaInfoParts> = i.spa_info().collect();
            let mut meta = Enc::new();
            meta.u8(method_tag::GEOREACH);
            meta.u8(finest_exp);
            enc_rect(&mut meta, &space);
            out.push(sec_enc(tag::META, meta));
            out.push(sec(tag::COMP_OF, comp_of));
            push_digraph(&mut out, dag);
            let mut si = Enc::new();
            enc_spa_info(&mut si, &info);
            out.push(sec_enc(tag::SPA_INFO, si));
            push_members(&mut out, member_offsets, member_points);
        }
        SnapshotIndex::SocReach(i) => {
            let (comp_of, labels, post_offsets, points, mode) = i.cols();
            let (max_post, cl_offsets, cl_bytes) = labels.parts();
            let (da_len, da_anchors, da_starts, da_bytes) = post_offsets.cols();
            let mut meta = Enc::new();
            meta.u8(method_tag::SOCREACH);
            meta.u8(match mode {
                ScanMode::PerPost => 0,
                ScanMode::Compacted => 1,
            });
            meta.u32(max_post);
            meta.u64(da_len as u64);
            out.push(sec_enc(tag::META, meta));
            out.push(sec(tag::COMP_OF, comp_of));
            out.push(sec(tag::CL_OFFSETS, cl_offsets));
            out.push(sec(tag::CL_BYTES, cl_bytes));
            out.push(sec(tag::DA_ANCHORS, da_anchors));
            out.push(sec(tag::DA_STARTS, da_starts));
            out.push(sec(tag::DA_BYTES, da_bytes));
            out.push(sec(tag::SOC_POINTS, points));
        }
        SnapshotIndex::ThreeDReach(i) => {
            let (comp_of, labels, tree, policy, member_offsets, member_points) = i.cols();
            let (max_post, cl_offsets, cl_bytes) = labels.parts();
            let t = tree.cols();
            let mut meta = Enc::new();
            meta.u8(method_tag::THREED);
            meta_policy(&mut meta, policy);
            meta_rtree_params(&mut meta, t.params);
            meta.u32(max_post);
            out.push(sec_enc(tag::META, meta));
            out.push(sec(tag::COMP_OF, comp_of));
            out.push(sec(tag::CL_OFFSETS, cl_offsets));
            out.push(sec(tag::CL_BYTES, cl_bytes));
            push_rtree(&mut out, &t);
            push_members(&mut out, member_offsets, member_points);
        }
        SnapshotIndex::ThreeDReachRev(i) => {
            let (comp_of, rev_post, tree, policy, member_offsets, member_points) = i.cols();
            let t = tree.cols();
            let mut meta = Enc::new();
            meta.u8(method_tag::THREED_REV);
            meta_policy(&mut meta, policy);
            meta_rtree_params(&mut meta, t.params);
            out.push(sec_enc(tag::META, meta));
            out.push(sec(tag::COMP_OF, comp_of));
            out.push(sec(tag::REV_POST, rev_post));
            push_rtree(&mut out, &t);
            push_members(&mut out, member_offsets, member_points);
        }
    }
    Ok(out)
}

/// A frame ready to be written: its sections with the header and the
/// CRC'd directory already encoded.
pub(crate) struct FrameImage<'a> {
    head: Vec<u8>,
    offsets: Vec<usize>,
    sections: Vec<Section<'a>>,
}

impl<'a> FrameImage<'a> {
    pub(crate) fn new(sections: Vec<Section<'a>>) -> Self {
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

/// Writes `index` as a v3 snapshot.
pub(crate) fn save_v3(w: &mut impl Write, index: &SnapshotIndex) -> Result<(), GsrError> {
    FrameImage::new(sections_for(index)?).write(w)
}

// ---------------------------------------------------------------------------
// Load.

struct DirEntry {
    tag: u16,
    start: usize,
    len: usize,
}

/// A file (or buffer) whose v3 framing has been validated: header,
/// directory structure and — unless trusted — every section's CRC.
pub(crate) struct Frame {
    arena: Arc<ArenaBytes>,
    entries: Vec<DirEntry>,
    /// The compact labels last validated out of this frame
    /// ([`compact_labels`]).
    labels: OnceLock<CompactLabels>,
}

/// The sections an index is read from — the file's own frame and, for a
/// shard, the set's shared frame — with consumption tracking: every
/// section must be claimed by the method loader exactly once, so a
/// snapshot smuggling extra (or missing) sections is rejected even when
/// its CRCs are intact.
struct SectionMap<'a> {
    frames: Vec<(&'a Frame, Vec<bool>)>,
}

impl<'a> SectionMap<'a> {
    fn new(own: &'a Frame, shared: Option<&'a Frame>) -> Self {
        let frames =
            [Some(own), shared].into_iter().flatten().map(|f| (f, vec![false; f.entries.len()]));
        SectionMap { frames: frames.collect() }
    }

    fn take(&mut self, tag: u16) -> Option<(&'a Frame, usize, usize)> {
        for (frame, used) in &mut self.frames {
            if let Some(i) = frame.entries.iter().position(|e| e.tag == tag) {
                if std::mem::replace(&mut used[i], true) {
                    return None;
                }
                return Some((*frame, frame.entries[i].start, frame.entries[i].len));
            }
        }
        None
    }

    fn finish(&self) -> Result<(), GsrError> {
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

/// Claims a section and views it as a typed column borrowing its arena.
fn col<T: Pod>(map: &mut SectionMap, tag: u16, what: &str) -> Result<Col<T>, GsrError> {
    col_opt(map, tag, what)?.ok_or_else(|| load_err(format!("missing section {what}")))
}

/// Like [`col`], but `None` when the section is absent (degenerate R-tree
/// dimensions elide their upper-bound column).
fn col_opt<T: Pod>(
    map: &mut SectionMap,
    tag: u16,
    what: &str,
) -> Result<Option<Col<T>>, GsrError> {
    let Some((frame, start, len)) = map.take(tag) else { return Ok(None) };
    let elem = std::mem::size_of::<T>();
    if len % elem != 0 {
        return Err(load_err(format!(
            "section {what}: {len} bytes is not a whole number of {elem}-byte elements"
        )));
    }
    Col::view(&frame.arena, start, len / elem)
        .map(Some)
        .map_err(|e| load_err(format!("section {what}: {e}")))
}

fn take_payload<'a>(
    map: &mut SectionMap<'a>,
    tag: u16,
    what: &str,
) -> Result<&'a [u8], GsrError> {
    let (frame, start, len) =
        map.take(tag).ok_or_else(|| load_err(format!("missing section {what}")))?;
    Ok(&frame.arena.bytes()[start..start + len])
}

/// Claims and validates the compact-label sections. Validation decodes
/// every label, so the frame consulted last — the shared one, for a shard —
/// remembers its result: the shards of a set all read the same two shared
/// sections, and the same views of them need checking once.
fn compact_labels(map: &mut SectionMap, max_post: u32) -> Result<CompactLabels, GsrError> {
    let offsets: Col<u32> = col(map, tag::CL_OFFSETS, "compact-labels-offsets")?;
    let bytes: Col<u8> = col(map, tag::CL_BYTES, "compact-labels-bytes")?;
    let cache = map.frames.last().map(|(frame, _)| &frame.labels);
    if let Some(seen) = cache.and_then(OnceLock::get) {
        let (seen_max, seen_offsets, seen_bytes) = seen.parts();
        if seen_max == max_post
            && std::ptr::eq(seen_offsets, &*offsets)
            && std::ptr::eq(seen_bytes, &*bytes)
        {
            return Ok(seen.clone());
        }
    }
    let labels = CompactLabels::from_parts(max_post, offsets, bytes).map_err(load_err)?;
    if let Some(cache) = cache {
        let _ = cache.set(labels.clone());
    }
    Ok(labels)
}

fn meta_u8(d: &mut Dec) -> Result<u8, GsrError> {
    d.u8("meta").map_err(load_err)
}

fn meta_usize(d: &mut Dec) -> Result<usize, GsrError> {
    let v = d.u64("meta").map_err(load_err)?;
    usize::try_from(v).map_err(|_| load_err(format!("meta value {v} overflows this platform")))
}

fn meta_rt_params(d: &mut Dec) -> Result<RTreeParams, GsrError> {
    let max_entries = meta_usize(d)?;
    let min_entries = meta_usize(d)?;
    Ok(RTreeParams { max_entries, min_entries })
}

fn meta_scc_policy(d: &mut Dec) -> Result<SccSpatialPolicy, GsrError> {
    match meta_u8(d)? {
        0 => Ok(SccSpatialPolicy::Replicate),
        1 => Ok(SccSpatialPolicy::Mbr),
        k => Err(load_err(format!("unknown scc policy {k}"))),
    }
}

fn load_rtree<const N: usize>(
    map: &mut SectionMap,
    params: RTreeParams,
) -> Result<RTree<N, u32>, GsrError> {
    let mbrs = col::<Aabb<N>>(map, tag::RT_MBRS, "rtree-mbrs")?;
    let child_start = col(map, tag::RT_CHILD_START, "rtree-child-start")?;
    let children = col(map, tag::RT_CHILDREN, "rtree-children")?;
    let entry_start = col(map, tag::RT_ENTRY_START, "rtree-entry-start")?;
    let values = col(map, tag::RT_VALUES, "rtree-values")?;
    let mut lo = Vec::with_capacity(N);
    let mut hi = Vec::with_capacity(N);
    for d in 0..N {
        lo.push(col::<f64>(map, tag::RT_ENTRY_LO + d as u16, "rtree-entry-lo")?);
        hi.push(col_opt::<f64>(map, tag::RT_ENTRY_HI + d as u16, "rtree-entry-hi")?);
    }
    let entry_lo: [Col<f64>; N] =
        lo.try_into().unwrap_or_else(|_| unreachable!("lo has exactly N columns"));
    let entry_hi: [Option<Col<f64>>; N] =
        hi.try_into().unwrap_or_else(|_| unreachable!("hi has exactly N columns"));
    RTree::from_cols(params, mbrs, child_start, children, entry_start, entry_lo, entry_hi, values)
        .map_err(load_err)
}

fn load_digraph(map: &mut SectionMap) -> Result<DiGraph, GsrError> {
    let out_offsets = col(map, tag::DAG_OUT_OFFSETS, "dag-out-offsets")?;
    let out_targets = col(map, tag::DAG_OUT_TARGETS, "dag-out-targets")?;
    let in_offsets = col(map, tag::DAG_IN_OFFSETS, "dag-in-offsets")?;
    let in_sources = col(map, tag::DAG_IN_SOURCES, "dag-in-sources")?;
    DiGraph::from_csr_cols(out_offsets, out_targets, in_offsets, in_sources).map_err(load_err)
}

fn filter_of(kind: u8, tree: RTree<2, u32>) -> Result<SpaReachFilterParts, GsrError> {
    match kind {
        0 => Ok(SpaReachFilterParts::Points(tree)),
        1 => Ok(SpaReachFilterParts::CompBoxes(tree)),
        k => Err(load_err(format!("unknown spatial-filter kind {k}"))),
    }
}

/// `SpaReach::from_cols` bounds-checks component ids against the member
/// CSR; the reachability back-end's own vertex count is checked here,
/// because the `Reachability` trait does not expose one.
fn check_backend_coverage(ncomp: usize, backend_n: usize, what: &str) -> Result<(), GsrError> {
    if backend_n != ncomp {
        return Err(load_err(format!(
            "{what} covers {backend_n} components but the spatial side has {ncomp}"
        )));
    }
    Ok(())
}

fn load_spareach_bfl(
    map: &mut SectionMap,
    d: &mut Dec,
) -> Result<SnapshotIndex, GsrError> {
    let kind = meta_u8(d)?;
    let params = meta_rt_params(d)?;
    let words = meta_usize(d)?;
    d.finish("meta").map_err(load_err)?;
    let comp_of: Col<u32> = col(map, tag::COMP_OF, "comp-of")?;
    let member_offsets: Col<u32> = col(map, tag::MEMBER_OFFSETS, "member-offsets")?;
    let member_points: Col<Point> = col(map, tag::MEMBER_POINTS, "member-points")?;
    let tree = load_rtree::<2>(map, params)?;
    let g = load_digraph(map)?;
    let post: Col<u32> = col(map, tag::BFL_POST, "bfl-post")?;
    let tree_min: Col<u32> = col(map, tag::BFL_TREE_MIN, "bfl-tree-min")?;
    let out_filters: Col<u64> = col(map, tag::BFL_OUT_FILTERS, "bfl-out-filters")?;
    let in_filters: Col<u64> = col(map, tag::BFL_IN_FILTERS, "bfl-in-filters")?;
    let reach =
        BflIndex::from_parts(g, post, tree_min, out_filters, in_filters, words).map_err(load_err)?;
    let ncomp = member_offsets.len().saturating_sub(1);
    check_backend_coverage(ncomp, reach.parts().0.num_vertices(), "bfl")?;
    let filter = filter_of(kind, tree)?;
    Ok(SnapshotIndex::SpaReachBfl(
        SpaReachBfl::from_cols(comp_of, filter, reach, member_offsets, member_points, "SpaReach-BFL")
            .map_err(load_err)?,
    ))
}

fn load_spareach_int(
    map: &mut SectionMap,
    d: &mut Dec,
) -> Result<SnapshotIndex, GsrError> {
    let kind = meta_u8(d)?;
    let params = meta_rt_params(d)?;
    d.finish("meta").map_err(load_err)?;
    let comp_of: Col<u32> = col(map, tag::COMP_OF, "comp-of")?;
    let member_offsets: Col<u32> = col(map, tag::MEMBER_OFFSETS, "member-offsets")?;
    let member_points: Col<Point> = col(map, tag::MEMBER_POINTS, "member-points")?;
    let tree = load_rtree::<2>(map, params)?;
    let post: Col<u32> = col(map, tag::LAB_POST, "labeling-post")?;
    let post_to_vertex: Col<u32> = col(map, tag::LAB_POST_TO_VERTEX, "labeling-inverse")?;
    let offsets: Col<u32> = col(map, tag::LAB_OFFSETS, "labeling-offsets")?;
    let intervals: Col<Interval> = col(map, tag::LAB_INTERVALS, "labeling-intervals")?;
    let reach =
        IntervalLabeling::from_parts(post, post_to_vertex, offsets, intervals).map_err(load_err)?;
    let ncomp = member_offsets.len().saturating_sub(1);
    check_backend_coverage(ncomp, reach.num_vertices(), "labeling")?;
    let filter = filter_of(kind, tree)?;
    Ok(SnapshotIndex::SpaReachInt(
        SpaReachInt::from_cols(comp_of, filter, reach, member_offsets, member_points, "SpaReach-INT")
            .map_err(load_err)?,
    ))
}

fn load_georeach(
    map: &mut SectionMap,
    d: &mut Dec,
) -> Result<SnapshotIndex, GsrError> {
    let finest_exp = meta_u8(d)?;
    let space = dec_rect(d, "meta").map_err(load_err)?;
    d.finish("meta").map_err(load_err)?;
    let comp_of: Col<u32> = col(map, tag::COMP_OF, "comp-of")?;
    let dag = load_digraph(map)?;
    let payload = take_payload(map, tag::SPA_INFO, "spa-info")?;
    let mut sd = Dec::new(payload);
    let info = dec_spa_info(&mut sd, "spa-info").map_err(load_err)?;
    sd.finish("spa-info").map_err(load_err)?;
    let member_offsets: Col<u32> = col(map, tag::MEMBER_OFFSETS, "member-offsets")?;
    let member_points: Col<Point> = col(map, tag::MEMBER_POINTS, "member-points")?;
    Ok(SnapshotIndex::GeoReach(
        gsr_core::methods::GeoReach::from_cols(
            comp_of,
            dag,
            space,
            finest_exp,
            info,
            member_offsets,
            member_points,
        )
        .map_err(load_err)?,
    ))
}

fn load_socreach(
    map: &mut SectionMap,
    d: &mut Dec,
) -> Result<SnapshotIndex, GsrError> {
    let mode = match meta_u8(d)? {
        0 => ScanMode::PerPost,
        1 => ScanMode::Compacted,
        k => return Err(load_err(format!("unknown scan mode {k}"))),
    };
    let max_post = d.u32("meta").map_err(load_err)?;
    let da_len = meta_usize(d)?;
    d.finish("meta").map_err(load_err)?;
    let comp_of: Col<u32> = col(map, tag::COMP_OF, "comp-of")?;
    let labels = compact_labels(map, max_post)?;
    let da_anchors: Col<u32> = col(map, tag::DA_ANCHORS, "delta-anchors")?;
    let da_starts: Col<u32> = col(map, tag::DA_STARTS, "delta-starts")?;
    let da_bytes: Col<u8> = col(map, tag::DA_BYTES, "delta-bytes")?;
    let post_offsets =
        DeltaArray::from_cols(da_len, da_anchors, da_starts, da_bytes).map_err(load_err)?;
    let points: Col<Point> = col(map, tag::SOC_POINTS, "post-points")?;
    Ok(SnapshotIndex::SocReach(
        SocReach::from_cols(comp_of, labels, post_offsets, points, mode).map_err(load_err)?,
    ))
}

fn load_threed(
    map: &mut SectionMap,
    d: &mut Dec,
) -> Result<SnapshotIndex, GsrError> {
    let policy = meta_scc_policy(d)?;
    let params = meta_rt_params(d)?;
    let max_post = d.u32("meta").map_err(load_err)?;
    d.finish("meta").map_err(load_err)?;
    let comp_of: Col<u32> = col(map, tag::COMP_OF, "comp-of")?;
    let labels = compact_labels(map, max_post)?;
    let tree = load_rtree::<3>(map, params)?;
    let member_offsets: Col<u32> = col(map, tag::MEMBER_OFFSETS, "member-offsets")?;
    let member_points: Col<Point> = col(map, tag::MEMBER_POINTS, "member-points")?;
    Ok(SnapshotIndex::ThreeDReach(
        ThreeDReach::from_cols(comp_of, labels, tree, policy, member_offsets, member_points)
            .map_err(load_err)?,
    ))
}

fn load_threed_rev(
    map: &mut SectionMap,
    d: &mut Dec,
) -> Result<SnapshotIndex, GsrError> {
    let policy = meta_scc_policy(d)?;
    let params = meta_rt_params(d)?;
    d.finish("meta").map_err(load_err)?;
    let comp_of: Col<u32> = col(map, tag::COMP_OF, "comp-of")?;
    let rev_post: Col<u32> = col(map, tag::REV_POST, "rev-post")?;
    let tree = load_rtree::<3>(map, params)?;
    let member_offsets: Col<u32> = col(map, tag::MEMBER_OFFSETS, "member-offsets")?;
    let member_points: Col<Point> = col(map, tag::MEMBER_POINTS, "member-points")?;
    Ok(SnapshotIndex::ThreeDReachRev(
        ThreeDReachRev::from_cols(comp_of, rev_post, tree, policy, member_offsets, member_points)
            .map_err(load_err)?,
    ))
}

// Little-endian reads over slices the caller has already length-checked;
// the re-slice makes the width explicit so `copy_from_slice` cannot
// mismatch.
fn le_u16(b: &[u8]) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(&b[..2]);
    u16::from_le_bytes(a)
}

fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

impl Frame {
    /// Validates the framing of a complete mapped (or aligned in-memory)
    /// file.
    ///
    /// `trust` skips only the per-section CRC pass — the structural
    /// directory checks and every `from_cols` invariant still run, so even
    /// a trusted load of garbage is a typed error, not undefined behavior.
    pub(crate) fn parse(arena: Arc<ArenaBytes>, trust: bool) -> Result<Frame, GsrError> {
        let entries = parse_directory(arena.bytes(), trust)?;
        Ok(Frame { arena, entries, labels: OnceLock::new() })
    }
}

fn parse_directory(bytes: &[u8], trust: bool) -> Result<Vec<DirEntry>, GsrError> {
    if !cfg!(target_endian = "little") {
        return Err(load_err(
            "v3 snapshots are little-endian column images; this host is big-endian".into(),
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
    let version = le_u32(&bytes[8..12]);
    if version != FORMAT_VERSION {
        return Err(unsupported_version(version));
    }
    let n = le_u32(&bytes[12..16]) as usize;
    let file_len = le_u64(&bytes[16..24]);
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
        let etag = le_u16(&e[0..2]);
        let elem = e[2] as usize;
        let flags = e[3];
        let crc = le_u32(&e[4..8]);
        let off = le_u64(&e[8..16]);
        let len = le_u64(&e[16..24]);
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
        let end = off.checked_add(len).filter(|&e| e <= bytes.len()).ok_or_else(|| {
            sect(&format!("range {off}+{len} runs past the end of the file"))
        })?;
        if len % elem != 0 {
            return Err(sect(&format!("{len} bytes is not a multiple of element size {elem}")));
        }
        if bytes[cur..off].iter().any(|&b| b != 0) {
            return Err(sect("nonzero padding before the section"));
        }
        if entries.iter().any(|p| p.tag == etag) {
            return Err(sect("duplicate tag"));
        }
        if !trust && crc32(&bytes[off..end]) != crc {
            return Err(sect("crc mismatch"));
        }
        entries.push(DirEntry { tag: etag, start: off, len });
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
    let mut map = SectionMap::new(own, shared);
    let meta = take_payload(&mut map, tag::META, "meta")?;
    let mut d = Dec::new(meta);
    let index = match meta_u8(&mut d)? {
        method_tag::SPAREACH_BFL => load_spareach_bfl(&mut map, &mut d)?,
        method_tag::SPAREACH_INT => load_spareach_int(&mut map, &mut d)?,
        method_tag::GEOREACH => load_georeach(&mut map, &mut d)?,
        method_tag::SOCREACH => load_socreach(&mut map, &mut d)?,
        method_tag::THREED => load_threed(&mut map, &mut d)?,
        method_tag::THREED_REV => load_threed_rev(&mut map, &mut d)?,
        t => return Err(load_err(format!("unknown method tag {t}"))),
    };
    map.finish()?;
    Ok(index)
}

//! Delta-compressed storage for sorted label sets and monotone arrays.
//!
//! Post-order interval labels are sorted and disjoint per vertex, and the
//! per-post point offsets of SocReach are monotone — both are textbook
//! delta-compression targets (FERRARI makes the same observation for
//! reachability labels under size budgets). Two containers live here:
//!
//! * [`CompactLabels`] — an [`IntervalLabeling`]'s label sets re-encoded as
//!   per-vertex LEB128 varint streams of `(gap, length)` pairs. Methods
//!   that only ever *scan* a vertex's labels in order (SocReach, 3DReach)
//!   trade the 8-byte-per-interval array for ~2–4 bytes per interval with
//!   no loss of information; decoding is a forward pass that allocates
//!   nothing.
//! * [`DeltaArray`] — a monotone `u32` array stored as anchored varint
//!   deltas (one absolute anchor every [`DeltaArray::BLOCK`] entries), with
//!   `O(BLOCK)` random access and an amortized-`O(1)` sequential cursor.
//!
//! Both validate untrusted input — loaded columns, and the values handed to
//! `from_sorted` — and never panic on malformed bytes.

use crate::interval::{Interval, IntervalLabeling};
use gsr_graph::{Col, ColumnList, Columns, HeapBytes, Source, VertexId};

/// Appends `v` to `out` as an LEB128 varint (7 payload bits per byte,
/// high bit = continuation). At most 5 bytes for a `u32`.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `bytes` at `*pos`, advancing `*pos` past
/// it. Returns `None` on truncation or on a value that overflows `u32` —
/// never panics, so hostile streams are safe to feed.
#[inline]
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let mut acc: u32 = 0;
    let mut shift: u32 = 0;
    loop {
        let &byte = bytes.get(*pos)?;
        *pos += 1;
        let payload = (byte & 0x7f) as u32;
        if shift == 28 && payload > 0x0f {
            return None; // bits 32.. set: overflows u32
        }
        if shift > 28 {
            return None; // sixth byte: over-long even if zero
        }
        acc |= payload << shift;
        if byte & 0x80 == 0 {
            return Some(acc);
        }
        shift += 7;
    }
}

/// An [`IntervalLabeling`]'s label sets, delta-compressed.
///
/// Per vertex the stream encodes `varint(lo_1), varint(hi_1 - lo_1)`, then
/// for every further interval `varint(lo_k - hi_{k-1}), varint(hi_k - lo_k)`.
/// Gaps are ≥ 1 because label sets are sorted and disjoint. The stream
/// carries exactly the information of [`IntervalLabeling::intervals`]; the
/// post-order permutation itself is *not* stored — methods that need
/// `post(v)` or `vertex_of_post` keep those arrays separately (or, like
/// 3DReach, bake the post numbers into their spatial index and need no
/// table at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactLabels {
    /// Largest valid post-order number (`n` for a labeling of `n` posts).
    max_post: u32,
    /// CSR offsets into `bytes`: vertex `v`'s stream is
    /// `bytes[offsets[v] as usize .. offsets[v + 1] as usize]`.
    offsets: Col<u32>,
    /// Concatenated per-vertex varint streams.
    bytes: Col<u8>,
}

impl CompactLabels {
    /// Compresses the label sets of `labeling`. Lossless: decoding yields
    /// the exact interval sequence of every vertex.
    pub fn from_labeling(labeling: &IntervalLabeling) -> Self {
        let n = labeling.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut bytes = Vec::new();
        offsets.push(0u32);
        for v in 0..n as VertexId {
            let mut prev_hi = 0u32;
            for (k, iv) in labeling.intervals(v).iter().enumerate() {
                let gap = if k == 0 { iv.lo } else { iv.lo - prev_hi };
                write_varint(&mut bytes, gap);
                write_varint(&mut bytes, iv.hi - iv.lo);
                prev_hi = iv.hi;
            }
            debug_assert!(bytes.len() <= u32::MAX as usize, "label stream exceeds u32 offsets");
            offsets.push(bytes.len() as u32);
        }
        CompactLabels { max_post: n as u32, offsets: offsets.into(), bytes: bytes.into() }
    }

    /// Number of vertices with a label set.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Largest valid post-order number.
    #[inline]
    pub fn max_post(&self) -> u32 {
        self.max_post
    }

    /// The label set `L(v)` as a forward, allocation-free iterator of
    /// sorted, pairwise-disjoint intervals.
    #[inline]
    pub fn intervals(&self, v: VertexId) -> LabelIter<'_> {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        LabelIter { bytes: &self.bytes[..hi], pos: lo, prev_hi: 0, first: true }
    }

    /// Whether some label of `v` contains post-order number `p` — a forward
    /// scan with early exit once the stream passes `p`.
    #[inline]
    pub fn covers_post(&self, v: VertexId, p: u32) -> bool {
        for iv in self.intervals(v) {
            if iv.lo > p {
                return false;
            }
            if iv.hi >= p {
                return true;
            }
        }
        false
    }

    /// Number of intervals in `L(v)`.
    pub fn num_intervals(&self, v: VertexId) -> usize {
        self.intervals(v).count()
    }

    /// Number of descendants of `v` (including `v`): the total post count
    /// covered by `L(v)`.
    pub fn num_descendants(&self, v: VertexId) -> usize {
        self.intervals(v).map(|iv| iv.len() as usize).sum()
    }

    /// Total number of labels over all vertices.
    pub fn num_labels(&self) -> usize {
        (0..self.num_vertices() as VertexId).map(|v| self.num_intervals(v)).sum()
    }

    /// Checks columns that came from disk: the offsets must form a CSR over
    /// `bytes` and every per-vertex stream must decode to a sorted, disjoint
    /// interval set inside `1..=max_post`, consuming its byte range exactly.
    fn validate(&self) -> Result<(), String> {
        let CompactLabels { max_post, offsets, bytes } = self;
        if offsets.is_empty() {
            return Err("compact labels: empty offset array".into());
        }
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("compact labels: offsets not monotone from 0".into());
        }
        if offsets[offsets.len() - 1] as usize != bytes.len() {
            return Err(format!(
                "compact labels: offsets claim {} stream bytes but {} present",
                offsets[offsets.len() - 1],
                bytes.len()
            ));
        }
        for (v, w) in offsets.windows(2).enumerate() {
            let end = w[1] as usize;
            let mut pos = w[0] as usize;
            let mut prev_hi: u64 = 0;
            while pos < end {
                let gap = read_varint(&bytes[..end], &mut pos)
                    .ok_or_else(|| format!("compact labels: vertex {v} stream truncated"))?;
                let span = read_varint(&bytes[..end], &mut pos)
                    .ok_or_else(|| format!("compact labels: vertex {v} stream truncated"))?;
                if gap == 0 {
                    return Err(format!(
                        "compact labels: vertex {v} has zero gap (overlapping or zero lo)"
                    ));
                }
                let lo = prev_hi + gap as u64;
                let hi = lo + span as u64;
                if hi > *max_post as u64 {
                    return Err(format!(
                        "compact labels: vertex {v} interval ends at {hi} > max post {max_post}"
                    ));
                }
                prev_hi = hi;
            }
        }
        Ok(())
    }
}

/// Section tags of [`CompactLabels`].
mod labels_tag {
    pub const OFFSETS: u16 = 0x50;
    pub const BYTES: u16 = 0x51;
}

impl Columns for CompactLabels {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.meta.u32(self.max_post);
        out.col(labels_tag::OFFSETS, &self.offsets, true);
        out.col(labels_tag::BYTES, &self.bytes, true);
    }

    /// Validation decodes every label, and the shards of a set all read the
    /// same two shared sections: a source that has seen them pass lets them
    /// pass ([`Source::check_once`]).
    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let labels = CompactLabels {
            max_post: src.u32()?,
            offsets: src.col(labels_tag::OFFSETS, "compact-labels-offsets")?,
            bytes: src.col(labels_tag::BYTES, "compact-labels-bytes")?,
        };
        let sections = [labels_tag::OFFSETS, labels_tag::BYTES];
        src.check_once(&sections, labels.max_post as u64, || labels.validate())?;
        Ok(labels)
    }
}

impl HeapBytes for CompactLabels {
    fn heap_bytes(&self) -> usize {
        ColumnList::of(self).counted_bytes()
    }
}

/// Forward iterator over one vertex's compressed label stream.
#[derive(Debug, Clone)]
pub struct LabelIter<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev_hi: u32,
    first: bool,
}

impl Iterator for LabelIter<'_> {
    type Item = Interval;

    #[inline]
    fn next(&mut self) -> Option<Interval> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        // Streams are validated at construction, so decoding cannot fail;
        // the `?` keeps the path panic-free regardless.
        let gap = read_varint(self.bytes, &mut self.pos)?;
        let span = read_varint(self.bytes, &mut self.pos)?;
        let lo = if self.first { gap } else { self.prev_hi + gap };
        let hi = lo + span;
        self.prev_hi = hi;
        self.first = false;
        Some(Interval::new(lo, hi))
    }
}

/// A monotone (non-decreasing) `u32` array stored as anchored varint
/// deltas: every [`DeltaArray::BLOCK`]-th value is stored verbatim in
/// `anchors`, the rest as varint gaps from their predecessor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaArray {
    len: usize,
    /// `anchors[b]` = value at index `b * BLOCK`.
    anchors: Col<u32>,
    /// `starts[b]` = offset into `bytes` of block `b`'s delta stream.
    starts: Col<u32>,
    /// Concatenated varint deltas for the non-anchor positions.
    bytes: Col<u8>,
}

impl Default for DeltaArray {
    /// An empty array.
    fn default() -> Self {
        DeltaArray {
            len: 0,
            anchors: Col::default(),
            starts: Col::default(),
            bytes: Col::default(),
        }
    }
}

impl DeltaArray {
    /// Entries per absolute anchor: random access decodes at most
    /// `BLOCK - 1` deltas.
    pub const BLOCK: usize = 32;

    /// Compresses a monotone array. Returns a typed error (never panics)
    /// when the input decreases anywhere — `from_sorted` doubles as the
    /// validation step for untrusted snapshot payloads.
    pub fn from_sorted(values: &[u32]) -> Result<Self, String> {
        if let Some(i) = values.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!(
                "delta array: values decrease at index {i} ({} -> {})",
                values[i],
                values[i + 1]
            ));
        }
        let blocks = values.len().div_ceil(Self::BLOCK);
        let mut anchors = Vec::with_capacity(blocks);
        let mut starts = Vec::with_capacity(blocks);
        let mut bytes = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            if i % Self::BLOCK == 0 {
                anchors.push(v);
                debug_assert!(bytes.len() <= u32::MAX as usize);
                starts.push(bytes.len() as u32);
            } else {
                write_varint(&mut bytes, v - values[i - 1]);
            }
        }
        Ok(DeltaArray {
            len: values.len(),
            anchors: anchors.into(),
            starts: starts.into(),
            bytes: bytes.into(),
        })
    }

    /// Checks columns that came from disk, decoding every block's stream
    /// once (allocation-free): block counts must match `len`, `starts` must
    /// partition `bytes` exactly, every varint must be well-formed, running
    /// values must stay monotone within `u32`, and each block's anchor must
    /// not decrease relative to the previous block's last value — exactly
    /// the invariants [`DeltaArray::from_sorted`] establishes.
    fn validate(&self) -> Result<(), String> {
        let DeltaArray { len, anchors, starts, bytes } = self;
        let len = *len;
        let blocks = len.div_ceil(Self::BLOCK);
        if anchors.len() != blocks || starts.len() != blocks {
            return Err(format!(
                "delta array: {len} entries imply {blocks} blocks, got {} anchors / {} starts",
                anchors.len(),
                starts.len()
            ));
        }
        if blocks == 0 {
            if !bytes.is_empty() {
                return Err(format!("delta array: empty array with {} stream bytes", bytes.len()));
            }
            return Ok(());
        }
        if starts[0] != 0 {
            return Err(format!("delta array: starts[0] = {}, expected 0", starts[0]));
        }
        let mut prev_last: u64 = 0;
        for b in 0..blocks {
            let begin = starts[b] as usize;
            let end = if b + 1 < blocks { starts[b + 1] as usize } else { bytes.len() };
            if begin > end || end > bytes.len() {
                return Err(format!("delta array: block {b} stream [{begin}, {end}) malformed"));
            }
            let anchor = anchors[b] as u64;
            if b > 0 && anchor < prev_last {
                return Err(format!(
                    "delta array: anchor {anchor} of block {b} decreases below {prev_last}"
                ));
            }
            let in_block = (len - b * Self::BLOCK).min(Self::BLOCK);
            let mut value = anchor;
            let mut pos = begin;
            for _ in 1..in_block {
                let delta = read_varint(&bytes[..end], &mut pos)
                    .ok_or_else(|| format!("delta array: block {b} stream truncated"))?;
                value += delta as u64;
                if value > u32::MAX as u64 {
                    return Err(format!("delta array: block {b} overflows u32"));
                }
            }
            if pos != end {
                return Err(format!(
                    "delta array: block {b} stream has {} trailing bytes",
                    end - pos
                ));
            }
            prev_last = value;
        }
        Ok(())
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value at `i`, decoding at most `BLOCK - 1` deltas. Panics when
    /// `i >= len()`, like slice indexing.
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "delta array index {i} out of range {}", self.len);
        let block = i / Self::BLOCK;
        let mut value = self.anchors[block];
        let mut pos = self.starts[block] as usize;
        for _ in 0..i % Self::BLOCK {
            // Encoded by from_sorted, so the stream is well-formed; the
            // unwrap_or keeps the path panic-free for belt and braces.
            value += read_varint(&self.bytes, &mut pos).unwrap_or(0);
        }
        value
    }

    /// Sequential cursor over `values[start..]`, amortized `O(1)` per step
    /// and allocation-free — the shape the per-post scan of SocReach needs.
    /// A mid-block start pays one `O(BLOCK)` seek here; every subsequent
    /// step decodes a single delta.
    pub fn iter_from(&self, start: usize) -> DeltaIter<'_> {
        let mut value = 0u32;
        let mut pos = 0usize;
        if start < self.len && !start.is_multiple_of(Self::BLOCK) {
            // Seed the cursor with values[start - 1] and leave `pos` at the
            // delta for `start`.
            let block = start / Self::BLOCK;
            value = self.anchors[block];
            pos = self.starts[block] as usize;
            for _ in 0..(start % Self::BLOCK) - 1 {
                value += read_varint(&self.bytes, &mut pos).unwrap_or(0);
            }
        }
        DeltaIter { array: self, index: start, value, pos }
    }

    /// Decompresses into a plain vector (snapshot encoding).
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter_from(0).collect()
    }
}

/// Section tags of [`DeltaArray`].
mod delta_tag {
    pub const ANCHORS: u16 = 0x90;
    pub const STARTS: u16 = 0x91;
    pub const BYTES: u16 = 0x92;
}

/// `len` is a scalar of its own: it is not derivable from the columns (the
/// last block may be partial). The compressed columns load as they are —
/// never decompressed and recompressed.
impl Columns for DeltaArray {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.meta.u64(self.len as u64);
        out.col(delta_tag::ANCHORS, &self.anchors, true);
        out.col(delta_tag::STARTS, &self.starts, true);
        out.col(delta_tag::BYTES, &self.bytes, true);
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let array = DeltaArray {
            len: src.usize()?,
            anchors: src.col(delta_tag::ANCHORS, "delta-anchors")?,
            starts: src.col(delta_tag::STARTS, "delta-starts")?,
            bytes: src.col(delta_tag::BYTES, "delta-bytes")?,
        };
        array.validate()?;
        Ok(array)
    }
}

/// Sequential cursor produced by [`DeltaArray::iter_from`]. Invariant
/// between calls: `value` holds `values[index - 1]` and `pos` points at the
/// delta for `index` whenever `index` is not an anchor position (anchors
/// reset both).
#[derive(Debug, Clone)]
pub struct DeltaIter<'a> {
    array: &'a DeltaArray,
    index: usize,
    value: u32,
    pos: usize,
}

impl Iterator for DeltaIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.index >= self.array.len {
            return None;
        }
        if self.index.is_multiple_of(DeltaArray::BLOCK) {
            let block = self.index / DeltaArray::BLOCK;
            self.value = self.array.anchors[block];
            self.pos = self.array.starts[block] as usize;
        } else {
            self.value += read_varint(&self.array.bytes, &mut self.pos).unwrap_or(0);
        }
        self.index += 1;
        Some(self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_graph::columns::MemSource;
    use gsr_graph::graph_from_edges;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u32, 1, 127, 128, 16383, 16384, u32::MAX - 1, u32::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        // Truncated continuation.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
        // Overflowing fifth byte (bits 32.. set).
        let mut pos = 0;
        assert_eq!(read_varint(&[0xff, 0xff, 0xff, 0xff, 0x7f], &mut pos), None);
        // Over-long sixth byte.
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x00], &mut pos), None);
    }

    fn labeling() -> IntervalLabeling {
        // The paper's condensed example graph exercises multi-interval sets.
        let g = graph_from_edges(
            12,
            &[
                (0, 1),
                (0, 3),
                (0, 9),
                (1, 4),
                (1, 11),
                (4, 5),
                (9, 6),
                (9, 7),
                (2, 8),
                (2, 10),
                (11, 7),
                (1, 3),
                (6, 8),
                (8, 5),
                (2, 3),
            ],
        );
        IntervalLabeling::build(&g)
    }

    #[test]
    fn compact_labels_decode_exactly() {
        let l = labeling();
        let c = CompactLabels::from_labeling(&l);
        assert_eq!(c.num_vertices(), l.num_vertices());
        assert_eq!(c.num_labels(), l.num_labels());
        for v in 0..l.num_vertices() as VertexId {
            let decoded: Vec<Interval> = c.intervals(v).collect();
            assert_eq!(decoded.as_slice(), l.intervals(v), "vertex {v}");
            assert_eq!(c.num_descendants(v), l.num_descendants(v));
            for p in 1..=l.num_vertices() as u32 {
                assert_eq!(c.covers_post(v, p), l.covers_post(v, p), "vertex {v} post {p}");
            }
        }
        // The compressed form must not be larger than the interval array.
        assert!(c.heap_bytes() <= l.heap_bytes());
    }

    #[test]
    fn compact_labels_parts_round_trip_and_reject_corruption() {
        let c = CompactLabels::from_labeling(&labeling());
        let back: CompactLabels =
            MemSource::new(ColumnList::of(&c)).load().expect("valid columns reassemble");
        assert_eq!(back, c);
        assert_eq!(back.heap_bytes(), c.offsets.len() * 4 + c.bytes.len());

        let parts = |max_post, offsets: &[u32], bytes: &[u8]| CompactLabels {
            max_post,
            offsets: offsets.to_vec().into(),
            bytes: bytes.to_vec().into(),
        };
        assert!(parts(c.max_post, &c.offsets, &c.bytes).validate().is_ok());
        // Truncated stream.
        assert!(parts(c.max_post, &c.offsets, &c.bytes[..c.bytes.len() - 1]).validate().is_err());
        // Offsets that disagree with the byte count.
        assert!(parts(c.max_post, &[0, 1], &c.bytes).validate().is_err());
        // An interval escaping the post range.
        assert!(parts(0, &c.offsets, &c.bytes).validate().is_err());
        // Zero gap (overlap).
        let mut zero_gap = Vec::new();
        write_varint(&mut zero_gap, 0);
        write_varint(&mut zero_gap, 1);
        assert!(parts(5, &[0, zero_gap.len() as u32], &zero_gap).validate().is_err());
    }

    #[test]
    fn delta_array_random_and_sequential_access() {
        let values: Vec<u32> = (0..1000u32)
            .scan(0u32, |acc, i| {
                *acc += i % 7;
                Some(*acc)
            })
            .collect();
        let d = DeltaArray::from_sorted(&values).unwrap();
        assert_eq!(d.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(d.get(i), v, "get({i})");
        }
        for start in [0usize, 1, 31, 32, 33, 500, 999] {
            let tail: Vec<u32> = d.iter_from(start).collect();
            assert_eq!(tail.as_slice(), &values[start..], "iter_from({start})");
        }
        assert_eq!(d.to_vec(), values);
        let bytes = ColumnList::of(&d).counted_bytes();
        assert!(bytes < values.len() * 4, "compression must pay off on small deltas");
    }

    #[test]
    fn delta_array_cols_round_trip_and_reject_corruption() {
        let values: Vec<u32> = (0..100u32)
            .scan(0u32, |acc, i| {
                *acc += i % 5;
                Some(*acc)
            })
            .collect();
        let d = DeltaArray::from_sorted(&values).unwrap();
        let back: DeltaArray =
            MemSource::new(ColumnList::of(&d)).load().expect("faithful columns reassemble");
        assert_eq!(back, d);
        assert_eq!(back.to_vec(), values);

        let cols = |len, anchors: &[u32], starts: &[u32], bytes: &[u8]| DeltaArray {
            len,
            anchors: anchors.to_vec().into(),
            starts: starts.to_vec().into(),
            bytes: bytes.to_vec().into(),
        };
        let (len, anchors, starts, bytes) = (d.len, &d.anchors[..], &d.starts[..], &d.bytes[..]);
        assert!(cols(len, anchors, starts, bytes).validate().is_ok());
        // Wrong length: block count disagrees with the columns.
        assert!(cols(len + DeltaArray::BLOCK, anchors, starts, bytes).validate().is_err());
        // Truncated stream.
        assert!(cols(len, anchors, starts, &bytes[..bytes.len() - 1]).validate().is_err());
        // A decreasing anchor breaks monotonicity.
        let mut bad_anchor = anchors.to_vec();
        bad_anchor[1] = 0;
        assert!(cols(len, &bad_anchor, starts, bytes).validate().is_err());
        // Empty arrays must carry no stream bytes.
        assert!(cols(0, &[], &[], &[1u8]).validate().is_err());
        assert!(cols(0, &[], &[], &[]).validate().is_ok());
    }

    #[test]
    fn delta_array_empty_and_rejects_decreasing() {
        let d = DeltaArray::from_sorted(&[]).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.iter_from(0).count(), 0);
        assert!(DeltaArray::from_sorted(&[3, 2]).is_err());
    }
}

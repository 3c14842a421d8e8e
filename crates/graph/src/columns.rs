//! Columns declared once: the persistent state of an index structure as
//! one list, read by everything that needs to know it.
//!
//! A structure that can live in a snapshot implements [`Columns`]:
//! [`Columns::store`] appends its scalars and its columns — tag, element
//! width, the borrowed bytes, whether the bytes count towards the
//! structure's reported size — to a [`ColumnList`] in file order, and
//! [`Columns::load`] claims the same tags from a [`Source`] and validates
//! what it got. A structure made of others calls theirs. From that one
//! list follow
//!
//! * the snapshot writer (`gsr-store` frames the list, knowing no tag),
//! * the loader (the store is the [`Source`]; the structure checks itself),
//! * `heap_bytes` / `index_bytes` ([`ColumnList::counted_bytes`]),
//! * the total of a shard set, where tiles hold some buffers in common
//!   ([`ColumnList::counted_unseen`]: a buffer counts once, by address), and
//! * which sections of a shard set go to the shared file
//!   ([`Column::same_buffer`]).
//!
//! Everything read back is untrusted: [`Dec`] and [`Source`] bounds-check
//! every access and report defects as `Err(String)`, never a panic.

use crate::col::{bytes_of, Col, Pod, StableBytes};
use std::borrow::Cow;
use std::collections::HashSet;
use std::sync::Arc;

/// Growable payload encoder for the few field-by-field payloads of the
/// snapshot format (a structure's scalars, an encoded section, the shard
/// manifest). All multi-byte integers are little-endian and fixed-width;
/// floating-point values are IEEE-754 `f64` bit patterns.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an IEEE-754 `f64` bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed raw byte string.
    pub fn vec_u8(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends everything `other` encoded.
    pub fn append(&mut self, other: Enc) {
        self.buf.extend(other.buf);
    }
}

/// Bounds-checked decoder of what [`Enc`] wrote. Every byte is untrusted:
/// each read validates the remaining length first, so truncation,
/// impossible counts and trailing garbage all surface as `Err(String)` —
/// never as a panic or an unbounded allocation.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads the next `n` bytes.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated payload: {what} needs {n} bytes, {} left",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads an IEEE-754 `f64`.
    pub fn f64(&mut self, what: &str) -> Result<f64, String> {
        self.u64(what).map(f64::from_bits)
    }

    /// Reads a count prefix for elements of at least `elem_bytes` bytes
    /// each, rejecting counts the remaining payload cannot possibly hold —
    /// the guard that keeps a corrupt length from driving a huge
    /// allocation.
    pub fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, String> {
        let raw = self.u64(what)?;
        let n = usize::try_from(raw).map_err(|_| format!("{what}: count {raw} overflows"))?;
        let need = n.checked_mul(elem_bytes.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(format!(
                "{what}: count {n} x {elem_bytes} bytes exceeds the {} remaining",
                self.remaining()
            )),
        }
    }

    /// Reads a length-prefixed raw byte string.
    pub fn vec_u8(&mut self, what: &str) -> Result<Vec<u8>, String> {
        let n = self.count(1, what)?;
        Ok(self.take(n, what)?.to_vec())
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(&self, what: &str) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{what}: {} trailing bytes in section", self.remaining()));
        }
        Ok(())
    }
}

/// One declared column: a snapshot section as its owner describes it.
#[derive(Debug, Clone)]
pub struct Column<'a> {
    /// Section tag, unique within a snapshot.
    pub tag: u16,
    /// Element width in bytes.
    pub elem: u8,
    /// Whether the owner's `heap_bytes` / `index_bytes` include the column.
    pub counted: bool,
    /// The column image: the arena itself, or an encoding built for the
    /// save.
    pub bytes: Cow<'a, [u8]>,
}

impl Column<'_> {
    /// Whether both are the same column over the same (non-empty) buffer:
    /// two structures holding one arena by handle.
    pub fn same_buffer(&self, other: &Column<'_>) -> bool {
        match (&self.bytes, &other.bytes) {
            (Cow::Borrowed(a), Cow::Borrowed(b)) => {
                self.tag == other.tag && !a.is_empty() && std::ptr::eq(*a, *b)
            }
            _ => false,
        }
    }
}

/// What a structure declares through [`Columns::store`]. A mapped column
/// is attributed like an owned one: the bytes a query walks are resident
/// either way (page cache for mapped regions), and symmetric accounting
/// keeps `index_bytes` comparable across load paths.
#[derive(Debug, Default)]
pub struct ColumnList<'a> {
    /// The scalars, in declaration order.
    pub meta: Enc,
    /// The columns, in file order.
    pub cols: Vec<Column<'a>>,
    /// Counted bytes the structure keeps outside any column.
    pub extra: usize,
}

impl<'a> ColumnList<'a> {
    /// Everything `structure` declares.
    pub fn of(structure: &'a impl Columns) -> Self {
        let mut list = ColumnList::default();
        structure.store(&mut list);
        list
    }

    /// Declares everything `other` declares, after what is here.
    pub fn append(&mut self, mut other: ColumnList<'a>) {
        self.meta.append(other.meta);
        self.cols.append(&mut other.cols);
        self.extra += other.extra;
    }

    /// Declares the arena `xs` as column `tag`.
    pub fn col<T: Pod>(&mut self, tag: u16, xs: &'a [T], counted: bool) {
        let elem = std::mem::size_of::<T>() as u8;
        self.cols.push(Column { tag, elem, counted, bytes: Cow::Borrowed(bytes_of(xs)) });
    }

    /// Declares a column of opaque bytes encoded for the save — not what
    /// the structure keeps in memory, so never counted.
    pub fn encoded(&mut self, tag: u16, bytes: Vec<u8>) {
        self.cols.push(Column { tag, elem: 1, counted: false, bytes: Cow::Owned(bytes) });
    }

    /// Bytes of the counted columns, plus [`ColumnList::extra`]: the
    /// declaring structure's `heap_bytes`.
    pub fn counted_bytes(&self) -> usize {
        let counted = self.cols.iter().filter(|c| c.counted);
        self.extra + counted.map(|c| c.bytes.len()).sum::<usize>()
    }

    /// [`ColumnList::counted_bytes`] less the columns whose buffer — address
    /// and length — is in `seen` already; adds the rest to `seen`. Summed
    /// over structures that share buffers, every buffer counts once.
    pub fn counted_unseen(&self, seen: &mut HashSet<(usize, usize)>) -> usize {
        let counted = self.cols.iter().filter(|c| c.counted);
        let fresh = counted.filter(|c| seen.insert((c.bytes.as_ptr() as usize, c.bytes.len())));
        self.extra + fresh.map(|c| c.bytes.len()).sum::<usize>()
    }
}

/// A structure with persistent columns, declared in exactly this pair.
pub trait Columns: Sized {
    /// Appends the structure's scalars and columns to `out`, in file order.
    fn store<'a>(&'a self, out: &mut ColumnList<'a>);

    /// Reads back what [`Columns::store`] declared — scalars in the same
    /// order, columns by tag — and validates it: `src` is untrusted, and a
    /// structure that loads must be safe to query.
    fn load<S: Source>(src: &mut S) -> Result<Self, String>;
}

/// A claimed section: the region it lies in, its byte offset and its byte
/// length.
pub type Section<'a, O> = (&'a Arc<O>, usize, usize);

/// Where [`Columns::load`] reads from: a scalar stream and tagged sections
/// of some region that [`Col`]s can view.
pub trait Source {
    /// The region the sections lie in.
    type Owner: StableBytes;

    /// The next `n` bytes of the scalar stream.
    fn scalars(&mut self, n: usize) -> Result<&[u8], String>;

    /// Claims section `tag`. `None` when there is no such section or it was
    /// claimed before; an error when the source can tell that the section's
    /// bytes are not the ones that were written.
    fn claim(&mut self, tag: u16) -> Result<Option<Section<'_, Self::Owner>>, String>;

    /// Runs `check`, the validation of sections `tags` as they read under
    /// the scalar `key`. A source serving the same sections to several
    /// loads may skip a check that passed before.
    fn check_once(
        &mut self,
        _tags: &[u16],
        _key: u64,
        check: impl FnOnce() -> Result<(), String>,
    ) -> Result<(), String> {
        check()
    }

    /// Reads one scalar byte.
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.scalars(1)?[0])
    }

    /// Reads a little-endian `u32` scalar.
    fn u32(&mut self) -> Result<u32, String> {
        Dec::new(self.scalars(4)?).u32("meta")
    }

    /// Reads a little-endian `u64` scalar.
    fn u64(&mut self) -> Result<u64, String> {
        Dec::new(self.scalars(8)?).u64("meta")
    }

    /// Reads a `u64` scalar that must fit a `usize`.
    fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("meta value {v} overflows this platform"))
    }

    /// Claims section `tag` and views it as a typed column borrowing its
    /// region; `None` when the section is absent.
    fn col_opt<T: Pod>(&mut self, tag: u16, what: &str) -> Result<Option<Col<T>>, String> {
        let Some((owner, start, len)) = self.claim(tag)? else { return Ok(None) };
        let elem = std::mem::size_of::<T>();
        if len % elem != 0 {
            return Err(format!(
                "section {what}: {len} bytes is not a whole number of {elem}-byte elements"
            ));
        }
        Col::view(owner, start, len / elem).map(Some).map_err(|e| format!("section {what}: {e}"))
    }

    /// Like [`Source::col_opt`], for a section that must be there.
    fn col<T: Pod>(&mut self, tag: u16, what: &str) -> Result<Col<T>, String> {
        self.col_opt(tag, what)?.ok_or_else(|| format!("missing section {what}"))
    }
}

/// A [`Source`] over a private copy of a [`ColumnList`]: what a snapshot
/// round trip does to a structure, without the file.
pub struct MemSource {
    meta: Vec<u8>,
    read: usize,
    /// Tag, region, byte length, claimed.
    sections: Vec<(u16, Arc<Vec<u64>>, usize, bool)>,
}

impl MemSource {
    /// Copies the scalars and every column of `list`.
    pub fn new(list: ColumnList<'_>) -> Self {
        let word = |chunk: &[u8]| {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            u64::from_ne_bytes(w)
        };
        let copy = |c: &Column<'_>| {
            (c.tag, Arc::new(c.bytes.chunks(8).map(word).collect()), c.bytes.len(), false)
        };
        let sections = list.cols.iter().map(copy).collect();
        MemSource { meta: list.meta.into_bytes(), read: 0, sections }
    }

    /// Loads a `C`, and checks that it read every scalar and claimed every
    /// section, as the snapshot loader does.
    pub fn load<C: Columns>(mut self) -> Result<C, String> {
        let loaded = C::load(&mut self)?;
        Dec::new(&self.meta[self.read..]).finish("meta")?;
        match self.sections.iter().find(|s| !s.3) {
            Some((tag, ..)) => Err(format!("unexpected section 0x{tag:02x}")),
            None => Ok(loaded),
        }
    }
}

impl Source for MemSource {
    type Owner = Vec<u64>;

    fn scalars(&mut self, n: usize) -> Result<&[u8], String> {
        let bytes = Dec::new(&self.meta[self.read..]).take(n, "meta")?;
        self.read += n;
        Ok(bytes)
    }

    fn claim(&mut self, tag: u16) -> Result<Option<Section<'_, Vec<u64>>>, String> {
        let section = self.sections.iter_mut().find(|s| s.0 == tag);
        Ok(section.and_then(|(_, region, len, claimed)| {
            (!std::mem::replace(claimed, true)).then_some((&*region, 0, *len))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dec_rejects_absurd_counts() {
        let mut e = Enc::default();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.count(4, "test").is_err());
    }
}

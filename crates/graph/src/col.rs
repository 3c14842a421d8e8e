//! Zero-copy typed columns: the storage cell of every flat index arena.
//!
//! A [`Col<T>`] is an immutable, shared column of `T`s that is either
//! *owned* (an `Arc<Vec<T>>`, the result of an in-process build) or
//! *mapped* (a typed view into a byte region kept alive by an erased
//! [`StableBytes`] owner — typically a memory-mapped snapshot). Both
//! variants deref to `&[T]`, so query kernels index columns exactly as
//! they indexed the `Vec`s they replace, and both clone in O(1), which
//! preserves the cheap `Arc`-style index clones the server relies on when
//! fanning a snapshot out to worker threads.
//!
//! The mapped variant is the heart of the snapshot format: a load
//! validates bounds and alignment once, then every column of the index
//! *is* the file — no per-element decode, no allocation proportional to
//! the index.
//!
//! This module is the only place in the crate that needs `unsafe`: the
//! pointer-typed view and the byte reinterpretation casts. The safety
//! argument is local — [`Pod`] restricts element types to
//! padding-free, any-bit-pattern-valid layouts, and [`StableBytes`]
//! restricts owners to ones whose bytes never move while the owner is
//! alive.
#![allow(unsafe_code)]

use std::ops::Deref;
use std::sync::Arc;

/// Marker for plain-old-data element types.
///
/// # Safety
///
/// Implementors guarantee that `Self`
/// * has no padding bytes (`size_of::<Self>()` equals the sum of its
///   field sizes, recursively),
/// * is valid for **any** bit pattern (no niches, no invariants enforced
///   by construction), and
/// * has a stable, `#[repr(C)]`-or-primitive layout.
///
/// Together these make `&[u8] -> &[Self]` and `&[Self] -> &[u8]`
/// reinterpretation casts sound (given length and alignment checks).
/// Structural invariants beyond bit validity (sortedness, bounds) are
/// *not* part of the contract — loaders validate those separately.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

unsafe impl Pod for u8 {}
unsafe impl Pod for u16 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for f64 {}

/// An owner of a byte region whose address is stable for the owner's
/// lifetime.
///
/// # Safety
///
/// `stable_bytes` must return the same pointer and length every call, and
/// the region must stay valid (mapped, unmodified address) until the
/// owner is dropped. A `Vec<u8>` inside an `Arc` qualifies only if nothing
/// can reallocate it; owners in this workspace are immutable by
/// construction (aligned heap buffers and memory mappings in `gsr-store`).
pub unsafe trait StableBytes: Send + Sync + 'static {
    /// The owned byte region.
    fn stable_bytes(&self) -> &[u8];
}

// SAFETY: a `Vec` behind the `Arc` that `Col::view` takes cannot be reached
// mutably while a view (which holds a clone of the `Arc`) is alive, so its
// buffer stays where it is. Words, not bytes, so that the region is aligned
// for every element type.
unsafe impl StableBytes for Vec<u64> {
    fn stable_bytes(&self) -> &[u8] {
        bytes_of(self)
    }
}

/// Keep-alive handle for a column's storage; never read through, only
/// held. The element pointer and length live inline in [`Col`] so that
/// deref never touches the owner — query kernels index columns millions
/// of times per second, and an extra dependent load per access is
/// measurable on the hot path.
enum ColOwner<T> {
    Owned(Arc<Vec<T>>),
    Mapped(Arc<dyn StableBytes>),
}

/// An immutable shared column of `T`s: either an owned `Arc<Vec<T>>` or a
/// zero-copy typed view into a [`StableBytes`] region. Derefs to `&[T]`
/// from a cached inline pointer — the same cost as `Vec<T>` — and clones
/// in O(1) either way.
pub struct Col<T> {
    /// Cached at construction; always valid while `owner` is alive.
    ptr: *const T,
    len: usize,
    owner: ColOwner<T>,
}

impl<T> Col<T> {
    /// Whether two columns share the same underlying storage (same pointer
    /// and length) — the column analogue of `Arc::ptr_eq`.
    pub fn ptr_eq(a: &Col<T>, b: &Col<T>) -> bool {
        std::ptr::eq(a.ptr, b.ptr) && a.len == b.len
    }

    /// Whether this column borrows from a mapped region rather than owning
    /// its elements.
    pub fn is_mapped(&self) -> bool {
        matches!(self.owner, ColOwner::Mapped(_))
    }
}

impl<T: Pod> Col<T> {
    /// A zero-copy view of `count` elements starting `offset` bytes into
    /// `owner`'s region. Validates bounds, overflow and alignment; the
    /// returned column holds the owner alive. Untrusted offsets are safe:
    /// every defect is an `Err(String)`.
    pub fn view<A: StableBytes>(
        owner: &Arc<A>,
        offset: usize,
        count: usize,
    ) -> Result<Col<T>, String> {
        if count == 0 {
            return Ok(Col::from(Vec::new()));
        }
        let bytes = owner.stable_bytes();
        let elem = std::mem::size_of::<T>();
        let size = count
            .checked_mul(elem)
            .ok_or_else(|| format!("col: {count} x {elem}-byte elements overflows"))?;
        let end = offset
            .checked_add(size)
            .ok_or_else(|| format!("col: offset {offset} + {size} bytes overflows"))?;
        if end > bytes.len() {
            return Err(format!(
                "col: [{offset}, {end}) out of bounds of a {}-byte region",
                bytes.len()
            ));
        }
        let ptr = bytes[offset..].as_ptr();
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<T>()) {
            return Err(format!(
                "col: offset {offset} misaligned for {}-byte alignment",
                std::mem::align_of::<T>()
            ));
        }
        let owner: Arc<dyn StableBytes> = Arc::clone(owner) as Arc<dyn StableBytes>;
        // SAFETY: bounds and alignment checked above; T: Pod means any bit
        // pattern is a valid T; the owner Arc keeps the region alive and
        // StableBytes guarantees its address never changes.
        Ok(Col { ptr: ptr as *const T, len: count, owner: ColOwner::Mapped(owner) })
    }
}

/// Reinterprets a slice of [`Pod`] elements as its underlying bytes (in
/// native byte order — the snapshot writer is little-endian-host only
/// and checks before calling).
pub fn bytes_of<T: Pod>(slice: &[T]) -> &[u8] {
    // SAFETY: T: Pod has no padding, so every byte of the slice is
    // initialized; u8 has alignment 1.
    unsafe { std::slice::from_raw_parts(slice.as_ptr() as *const u8, std::mem::size_of_val(slice)) }
}

// SAFETY: both variants are immutable shared storage. Owned is Send+Sync
// whenever T is (Pod requires it; the Owned-only case for non-Pod T
// inherits the bound below). Mapped holds a Send+Sync owner and a pointer
// into its region that is only ever read.
unsafe impl<T: Send + Sync> Send for Col<T> {}
unsafe impl<T: Send + Sync> Sync for Col<T> {}

impl<T> Deref for Col<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `ptr`/`len` were validated at construction (`From<Vec>`
        // or `Col::view`) and `self.owner` keeps the region alive at a
        // fixed address for as long as `self` exists.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T> From<Vec<T>> for Col<T> {
    fn from(v: Vec<T>) -> Self {
        // The Vec's buffer never moves once boxed in the Arc: the column
        // is immutable by construction, so the cached pointer stays valid.
        let v = Arc::new(v);
        Col { ptr: v.as_ptr(), len: v.len(), owner: ColOwner::Owned(v) }
    }
}

impl<T> Default for Col<T> {
    fn default() -> Self {
        Col::from(Vec::new())
    }
}

impl<T> Clone for Col<T> {
    /// O(1): shares the `Arc`-owned vector or the mapped view.
    fn clone(&self) -> Self {
        let owner = match &self.owner {
            ColOwner::Owned(v) => ColOwner::Owned(Arc::clone(v)),
            ColOwner::Mapped(o) => ColOwner::Mapped(Arc::clone(o)),
        };
        Col { ptr: self.ptr, len: self.len, owner }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Col<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for Col<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Eq> Eq for Col<T> {}

impl<T: std::hash::Hash> std::hash::Hash for Col<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedRegion(Vec<u8>);

    // SAFETY (test-only): the Vec is never touched after construction and
    // the Arc keeps it at a fixed address.
    unsafe impl StableBytes for FixedRegion {
        fn stable_bytes(&self) -> &[u8] {
            &self.0
        }
    }

    #[test]
    fn owned_round_trip_and_cheap_clone() {
        let c: Col<u32> = vec![1, 2, 3].into();
        assert_eq!(&c[..], &[1, 2, 3]);
        let d = c.clone();
        assert!(Col::ptr_eq(&c, &d), "clone must share storage");
        assert_eq!(c, d);
        assert!(!c.is_mapped());
    }

    #[test]
    fn mapped_view_reads_the_region() {
        let mut bytes = Vec::new();
        for x in [7u32, 8, 9] {
            bytes.extend_from_slice(&x.to_ne_bytes());
        }
        let owner = Arc::new(FixedRegion(bytes));
        let c: Col<u32> = Col::view(&owner, 0, 3).unwrap();
        assert_eq!(&c[..], &[7, 8, 9]);
        assert!(c.is_mapped());
        let d = c.clone();
        assert!(Col::ptr_eq(&c, &d));
        drop(owner); // the column keeps the region alive
        assert_eq!(c[2], 9);
    }

    #[test]
    fn view_rejects_out_of_bounds_and_misalignment() {
        let owner = Arc::new(FixedRegion(vec![0u8; 16]));
        assert!(Col::<u32>::view(&owner, 0, 5).is_err(), "20 bytes > 16");
        assert!(Col::<u32>::view(&owner, usize::MAX, 1).is_err(), "offset overflow");
        assert!(Col::<u64>::view(&owner, usize::MAX / 8, usize::MAX / 4).is_err(), "size overflow");
        let aligned = Col::<u32>::view(&owner, 0, 4);
        let shifted = Col::<u32>::view(&owner, 1, 3);
        // The region itself is at least 1-aligned; exactly one of offset 0 /
        // offset 1 can be 4-aligned.
        assert!(aligned.is_ok() != shifted.is_ok());
    }

    #[test]
    fn empty_views_are_fine_at_any_offset() {
        let owner = Arc::new(FixedRegion(vec![0u8; 3]));
        let c: Col<u64> = Col::view(&owner, 1, 0).unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn bytes_of_round_trips_through_view() {
        let values = [u32::MAX, 0, 0xDEADBEEF];
        let owner = Arc::new(FixedRegion(bytes_of(&values[..]).to_vec()));
        let back: Col<u32> = Col::view(&owner, 0, 3).unwrap();
        assert_eq!(&back[..], &values[..]);
    }
}

//! [`ArenaBytes`]: the byte region a snapshot is served from.
//!
//! A snapshot's sections *are* the index arenas, so the load path needs
//! an immutable byte region whose address is stable for the lifetime of
//! the index — that is what `gsr_graph::Col` views borrow from. Two
//! flavors exist:
//!
//! * **Mapped** (unix): the file is `mmap(2)`'d read-only, so loading is
//!   O(1) and the kernel pages arenas in on demand at disk bandwidth. The
//!   syscall shim is declared here directly (three `extern "C"` items) —
//!   the build stays dependency-free.
//! * **Owned**: a 64-byte-aligned heap buffer filled with one bulk read —
//!   the fallback for non-unix targets, for readers that are not files,
//!   and for misaligned caller-provided slices (which are copied once to
//!   restore alignment).
//!
//! Either way the region implements [`StableBytes`], so columns built on
//! it keep it alive and queries never copy.
#![allow(unsafe_code)]

use gsr_graph::StableBytes;

/// Alignment of the owned buffer and of every section payload inside a
/// snapshot. 64 covers every column element type (max 8) with room for
/// cache-line and SIMD-friendly starts.
pub(crate) const ARENA_ALIGN: usize = 64;

#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct AlignedBlock([u8; ARENA_ALIGN]);

/// A 64-byte-aligned, immutable heap buffer. Backed by a `Vec` of aligned
/// blocks so no allocator shims are needed; `len` trims the tail padding.
struct AlignedBuf {
    blocks: Vec<AlignedBlock>,
    len: usize,
}

impl AlignedBuf {
    fn from_slice(bytes: &[u8]) -> Self {
        let nblocks = bytes.len().div_ceil(ARENA_ALIGN);
        let mut blocks = vec![AlignedBlock([0; ARENA_ALIGN]); nblocks];
        // SAFETY: `AlignedBlock` is a plain byte array (no padding), so the
        // block storage is valid `u8` storage of nblocks * 64 >= len bytes.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(blocks.as_mut_ptr() as *mut u8, nblocks * ARENA_ALIGN)
        };
        dst[..bytes.len()].copy_from_slice(bytes);
        AlignedBuf { blocks, len: bytes.len() }
    }

    fn as_bytes(&self) -> &[u8] {
        // SAFETY: same layout argument as in `from_slice`; `len` never
        // exceeds the allocated block bytes.
        unsafe { std::slice::from_raw_parts(self.blocks.as_ptr() as *const u8, self.len) }
    }
}

#[cfg(unix)]
mod mmap_sys {
    //! Minimal read-only `mmap` shim (no libc crate; the three symbols are
    //! part of every unix libc ABI this workspace targets).
    use std::os::raw::{c_int, c_void};

    pub(super) const PROT_READ: c_int = 1;
    pub(super) const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    pub(super) const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
}

/// A read-only private mapping of a whole file. Unmapped on drop.
#[cfg(unix)]
struct Mapping {
    ptr: *const u8,
    len: usize,
}

#[cfg(unix)]
impl Mapping {
    fn of_file(file: &std::fs::File, len: usize) -> std::io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        debug_assert!(len > 0, "empty files take the owned path");
        // SAFETY: fd is a valid open file for the duration of the call;
        // PROT_READ + MAP_PRIVATE never lets writes through to the file;
        // the result is checked against MAP_FAILED before use.
        let ptr = unsafe {
            mmap_sys::mmap(
                std::ptr::null_mut(),
                len,
                mmap_sys::PROT_READ,
                mmap_sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == mmap_sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Mapping { ptr: ptr as *const u8, len })
    }
}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from a successful mmap of exactly `len`
        // bytes and are unmapped exactly once (Drop).
        unsafe {
            mmap_sys::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

// SAFETY: the mapping is read-only and its address never changes until
// munmap in Drop; raw pointers are the only reason Send/Sync aren't derived.
#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

enum ArenaData {
    Owned(AlignedBuf),
    #[cfg(unix)]
    Mapped(Mapping),
}

/// An immutable byte region backing a loaded snapshot: a memory-mapped
/// file on unix, a 64-byte-aligned heap buffer otherwise. Implements
/// [`StableBytes`], so `Col` views hold it alive for as long as any column
/// borrows from it.
pub struct ArenaBytes {
    data: ArenaData,
}

impl ArenaBytes {
    /// Copies `bytes` into a fresh 64-byte-aligned owned buffer. This is
    /// the realignment path: the input may live anywhere (a test vector, a
    /// network buffer), the copy restores the alignment the zero-copy
    /// column views require.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        ArenaBytes { data: ArenaData::Owned(AlignedBuf::from_slice(bytes)) }
    }

    /// Maps (unix) or bulk-reads (elsewhere) a whole file. The mapping is
    /// read-only and private; loading cost is O(1) on the mapped path and
    /// one sequential read otherwise. Empty files become an empty owned
    /// buffer (`mmap` rejects zero-length maps).
    pub fn from_file(file: &std::fs::File) -> std::io::Result<Self> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "snapshot larger than memory")
        })?;
        if len == 0 {
            return Ok(ArenaBytes::copy_from_slice(&[]));
        }
        #[cfg(unix)]
        {
            Mapping::of_file(file, len).map(|m| ArenaBytes { data: ArenaData::Mapped(m) })
        }
        #[cfg(not(unix))]
        {
            use std::io::Read;
            let mut bytes = Vec::with_capacity(len);
            let mut r = std::io::BufReader::new(file);
            r.read_to_end(&mut bytes)?;
            Ok(ArenaBytes::copy_from_slice(&bytes))
        }
    }

    /// The full region.
    pub fn bytes(&self) -> &[u8] {
        match &self.data {
            ArenaData::Owned(b) => b.as_bytes(),
            #[cfg(unix)]
            // SAFETY: the mapping is alive (owned by self) and `len` bytes
            // long.
            ArenaData::Mapped(m) => unsafe { std::slice::from_raw_parts(m.ptr, m.len) },
        }
    }

    /// Whether the region is a file mapping (as opposed to an owned
    /// buffer) — surfaced in diagnostics.
    pub fn is_mapped(&self) -> bool {
        match &self.data {
            ArenaData::Owned(_) => false,
            #[cfg(unix)]
            ArenaData::Mapped(_) => true,
        }
    }
}

// SAFETY: both variants return the same pointer/length for life: the
// aligned buffer is never touched after construction, the mapping is
// fixed until munmap in Drop.
unsafe impl StableBytes for ArenaBytes {
    fn stable_bytes(&self) -> &[u8] {
        self.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_datagen::faults::ScratchDir;
    use std::sync::Arc;

    #[test]
    fn owned_buffer_is_aligned_and_round_trips() {
        for len in [0usize, 1, 63, 64, 65, 1000] {
            let src: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let arena = ArenaBytes::copy_from_slice(&src);
            assert_eq!(arena.bytes(), &src[..]);
            assert!(!arena.is_mapped());
            if len > 0 {
                assert_eq!(arena.bytes().as_ptr() as usize % ARENA_ALIGN, 0);
            }
        }
    }

    #[test]
    fn mapped_file_matches_its_contents() {
        let dir = ScratchDir::new("gsr_store_arena_mmap").unwrap();
        let path = dir.path().join("arena.bin");
        let src: Vec<u8> = (0..100_000u32).flat_map(|x| x.to_le_bytes()).collect();
        std::fs::write(&path, &src).unwrap();
        let arena = ArenaBytes::from_file(&std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(arena.bytes(), &src[..]);
        #[cfg(unix)]
        assert!(arena.is_mapped());
    }

    #[test]
    fn empty_file_maps_to_empty_owned_region() {
        let dir = ScratchDir::new("gsr_store_arena_empty").unwrap();
        let path = dir.path().join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let arena = ArenaBytes::from_file(&std::fs::File::open(&path).unwrap()).unwrap();
        assert!(arena.bytes().is_empty());
        assert!(!arena.is_mapped());
    }

    #[test]
    fn columns_keep_the_arena_alive() {
        let values: Vec<u64> = (0..1000).collect();
        let arena = Arc::new(ArenaBytes::copy_from_slice(gsr_graph::bytes_of(&values[..])));
        let col: gsr_graph::Col<u64> = gsr_graph::Col::view(&arena, 0, 1000).unwrap();
        drop(arena);
        assert_eq!(col[999], 999);
        assert!(col.is_mapped());
    }
}

//! A counting global allocator for the benchmark harness.
//!
//! Every binary that links `gsr-bench` (the `repro` driver and the
//! integration suites that depend on it) routes heap traffic through
//! `CountingAllocator`, which delegates to the system allocator and
//! keeps three relaxed atomics: the number of allocations, the bytes
//! currently live, and the high-water mark of the live bytes since the last
//! [`reset_peak_live_bytes`]. The count is what lets the zero-allocation
//! tests assert that the steady-state query kernels never touch the heap;
//! the peak is what lets `tests/build_memory.rs` bound an index build's
//! scaffolding by the size of what it builds.
//!
//! The counters are process-global: concurrent threads all feed the same
//! numbers. Callers that want a per-workload delta must measure on an
//! otherwise-quiet process (`tests/zero_alloc.rs` and
//! `tests/build_memory.rs` run without the libtest harness for exactly this
//! reason).
//!
//! This is the one module in the crate that needs `unsafe`: implementing
//! [`GlobalAlloc`] is inherently unsafe. Every unsafe block is a direct
//! delegation to [`System`] with the caller's own contract.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations observed since process start (`alloc`, `alloc_zeroed`, and
/// `realloc` calls; `dealloc` is not counted).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Bytes allocated and not yet freed, by requested size.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Largest value of [`LIVE_BYTES`] since the last reset.
static PEAK_LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Accounts one successful allocation of `size` bytes.
#[inline]
fn grew(ptr: *mut u8, size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if !ptr.is_null() {
        let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

/// The system allocator plus relaxed allocation and live-byte counters.
struct CountingAllocator;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's `GlobalAlloc` contract.
        let ptr = unsafe { System.alloc(layout) };
        grew(ptr, layout.size());
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's `GlobalAlloc` contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        grew(ptr, layout.size());
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded under the caller's `GlobalAlloc` contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        grew(new, new_size);
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded under the caller's `GlobalAlloc` contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Total heap allocations performed by this process so far.
///
/// Take a reading before and after a measured region and subtract; the
/// difference is exact on a quiet process and an upper bound when other
/// threads are running.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap bytes currently live (requested sizes; allocator overhead and
/// memory that never went through the global allocator are not seen).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The largest [`live_bytes`] reading since the last
/// [`reset_peak_live_bytes`] (or process start).
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark at the current live bytes, so the next
/// [`peak_live_bytes`] reading covers only what follows. Exact on a quiet
/// process, like [`allocation_count`].
pub fn reset_peak_live_bytes() {
    PEAK_LIVE_BYTES.store(live_bytes(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_advances_on_heap_allocation() {
        let before = allocation_count();
        let v: Vec<u64> = std::hint::black_box((0..64).collect());
        assert!(allocation_count() > before, "a fresh Vec must be counted");
        drop(v);
    }

    #[test]
    fn peak_follows_growth_and_survives_the_free() {
        // Other test threads allocate concurrently, so only bounds that
        // their traffic cannot break are asserted.
        const SIZE: usize = 64 << 20;
        reset_peak_live_bytes();
        let mut v: Vec<u8> = Vec::with_capacity(SIZE);
        std::hint::black_box(&mut v);
        assert!(live_bytes() >= SIZE as u64, "a live 64 MiB buffer must be counted");
        v.shrink_to(1 << 20); // a realloc
        drop(v);
        assert!(peak_live_bytes() >= SIZE as u64, "the peak must outlive the free");
        assert!(live_bytes() < peak_live_bytes(), "realloc and dealloc must give bytes back");
    }

    #[test]
    fn pure_arithmetic_does_not_advance_the_counter() {
        // Warm up: the assert machinery itself must not allocate lazily
        // during the measured window.
        let mut acc = 0u64;
        let before = allocation_count();
        for i in 0..1000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let after = allocation_count();
        // Other test threads may allocate concurrently; on a quiet run
        // this is exactly zero, so allow only a tiny cross-thread margin.
        assert!(after - before < 64, "arithmetic loop allocated {} times", after - before);
    }
}

//! Reusable per-thread query buffers — the zero-allocation kernel support.
//!
//! Every `RangeReach` method needs a handful of transient buffers while
//! answering a query: an R-tree traversal stack, a candidate list, a
//! visited set for graph traversal. Allocating them per query dominates
//! the allocator profile of the hot path (the paper's queries run in
//! microseconds, so even a single `malloc` is measurable). This module
//! owns those buffers in one [`QueryScratch`] value stored in a
//! thread-local slot: a query *takes* the scratch, runs with exclusive
//! access, and *puts it back* grown — so in steady state every buffer has
//! reached its high-water capacity and queries allocate nothing.
//!
//! ## Ownership model
//!
//! [`with_scratch`] moves the boxed scratch out of the thread-local
//! `Cell` for the duration of the closure and restores it afterwards.
//! Compared to a `RefCell`, the take/put protocol makes *re-entrancy*
//! safe instead of a panic: if a query kernel somehow calls back into
//! another kernel, the inner call finds the slot empty and falls back to a
//! fresh scratch — correct, merely not allocation-free. Kernels therefore
//! acquire the scratch exactly once, at the outermost `query_*_unchecked`
//! entry point; wrapper indexes (the shard router, caches) never acquire
//! it themselves.
//!
//! The visited set is an epoch-stamped `Vec<u32>` rather than a
//! `Vec<bool>`: clearing it between queries is a single epoch increment,
//! not an `O(n)` memset. On epoch wrap-around (once per `u32::MAX`
//! queries) the array is re-zeroed.

use gsr_geo::Aabb;
use gsr_graph::scc::CompId;
use gsr_graph::VertexId;
use std::cell::Cell;
use std::collections::VecDeque;

/// Reusable buffers for one in-flight `RangeReach` query.
///
/// Obtain one through [`with_scratch`]; the struct is public so that
/// kernels can borrow-split disjoint fields (`let QueryScratch { stack,
/// comps, .. } = scratch;`).
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// R-tree traversal stack (node ids), lent to
    /// `RTree::query_with`/`query_exists_with`.
    pub stack: Vec<u32>,
    /// Spatial candidate components (SpaReach point filter).
    pub comps: Vec<CompId>,
    /// Spatial candidate boxes (SpaReach MBR filter).
    pub boxes: Vec<(Aabb<2>, CompId)>,
    /// BFS frontier (GeoReach, the online BFS).
    pub queue: VecDeque<VertexId>,
    /// Epoch-stamped visited set; use via [`QueryScratch::begin_visit`],
    /// [`QueryScratch::mark`], [`QueryScratch::is_marked`].
    visited: Vec<u32>,
    epoch: u32,
}

impl QueryScratch {
    /// Prepares the visited set for a traversal over `n` vertices and
    /// clears the frontier buffers. Candidate buffers (`comps`, `boxes`)
    /// are left to the kernel to clear, since not every kernel uses them.
    pub fn begin_visit(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.queue.clear();
    }

    /// Marks `v` visited; returns `true` if it was not already marked
    /// this traversal.
    #[inline]
    pub fn mark(&mut self, v: VertexId) -> bool {
        let slot = &mut self.visited[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Whether `v` has been marked during the current traversal.
    #[inline]
    pub fn is_marked(&self, v: VertexId) -> bool {
        self.visited[v as usize] == self.epoch
    }
}

thread_local! {
    static SCRATCH: Cell<Option<Box<QueryScratch>>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's [`QueryScratch`], creating it on first
/// use. Re-entrant calls receive a fresh (allocating) scratch instead of
/// panicking; see the module docs for the ownership model.
pub fn with_scratch<R>(f: impl FnOnce(&mut QueryScratch) -> R) -> R {
    SCRATCH.with(|slot| {
        let mut scratch = slot.take().unwrap_or_default();
        let out = f(&mut scratch);
        slot.set(Some(scratch));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_visit_cycle() {
        let mut s = QueryScratch::default();
        s.begin_visit(4);
        assert!(s.mark(2));
        assert!(!s.mark(2));
        assert!(s.is_marked(2));
        assert!(!s.is_marked(3));
        // A new traversal forgets everything without touching memory.
        s.begin_visit(4);
        assert!(!s.is_marked(2));
        assert!(s.mark(2));
    }

    #[test]
    fn visited_grows_to_largest_request() {
        let mut s = QueryScratch::default();
        s.begin_visit(2);
        s.mark(1);
        s.begin_visit(10);
        assert!(!s.is_marked(1));
        assert!(s.mark(9));
    }

    #[test]
    fn epoch_wraparound_rezeros() {
        let mut s = QueryScratch::default();
        s.begin_visit(3);
        s.mark(0);
        s.epoch = u32::MAX; // pretend u32::MAX - 1 traversals happened
        s.begin_visit(3);
        assert_eq!(s.epoch, 1);
        assert!(!s.is_marked(0));
        assert!(s.mark(0));
    }

    #[test]
    fn thread_local_reuses_one_allocation() {
        let first = with_scratch(|s| {
            s.stack.reserve(64);
            s.stack.as_ptr() as usize
        });
        let second = with_scratch(|s| s.stack.as_ptr() as usize);
        assert_eq!(first, second, "scratch must be reused across calls");
    }

    #[test]
    fn reentrant_use_is_safe() {
        with_scratch(|outer| {
            outer.begin_visit(8);
            outer.mark(1);
            // A nested acquisition gets an independent scratch.
            with_scratch(|inner| {
                inner.begin_visit(8);
                assert!(!inner.is_marked(1));
            });
            assert!(outer.is_marked(1));
        });
    }
}

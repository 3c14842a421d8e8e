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
//! The visited set is a [`VisitedSet`]: clearing it between queries is a
//! single epoch increment, not an `O(n)` memset.

use gsr_geo::Aabb;
use gsr_graph::scc::CompId;
use gsr_graph::{VertexId, VisitedSet};
use std::cell::Cell;
use std::collections::VecDeque;

/// Reusable buffers for one in-flight `RangeReach` query.
///
/// Obtain one through [`with_scratch`]; the struct is public so that
/// kernels can borrow-split disjoint fields (`let QueryScratch { stack,
/// comps, .. } = scratch;`).
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// R-tree traversal stack (node ids), lent to `RTree::runs` and
    /// `RTree::collect_values`.
    pub stack: Vec<u32>,
    /// Spatial candidate components (SpaReach point filter).
    pub comps: Vec<CompId>,
    /// Spatial candidate boxes (SpaReach MBR filter).
    pub boxes: Vec<(Aabb<2>, CompId)>,
    /// BFS frontier (GeoReach, the online BFS).
    pub queue: VecDeque<VertexId>,
    /// Visited set of the traversal; started by
    /// [`QueryScratch::begin_visit`].
    pub visited: VisitedSet,
}

impl QueryScratch {
    /// Starts the visited set on a traversal over `n` vertices and clears
    /// the frontier. Candidate buffers (`comps`, `boxes`) are left to the
    /// kernel to clear, since not every kernel uses them.
    pub fn begin_visit(&mut self, n: usize) {
        self.visited.begin(n);
        self.queue.clear();
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
            outer.visited.mark(1);
            // A nested acquisition gets an independent scratch.
            with_scratch(|inner| {
                inner.begin_visit(8);
                assert!(!inner.visited.is_marked(1));
            });
            assert!(outer.visited.is_marked(1));
        });
    }
}

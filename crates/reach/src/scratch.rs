//! Reusable per-thread traversal buffers for BFL's guided-DFS fallback.
//!
//! BFL answers most `GReach` queries from its labels alone, but falls back
//! to a pruned DFS when the labels cannot decide. A naive fallback
//! allocates a visited set and a stack per query, which dominates the cost
//! of exactly the queries that are already the slow ones.
//! [`TraversalScratch`] keeps both alive per thread, and its
//! [`VisitedSet`] forgets a traversal's marks by an epoch stamp instead of
//! an `O(n)` clear, so steady-state queries perform zero heap allocations.
//!
//! This slot is separate from `gsr_core`'s query scratch on purpose: the
//! fallback runs inside a SpaReach query that already holds that one, so a
//! shared slot would make every nested fallback allocate.
//!
//! Access goes through [`with_traversal_scratch`], a take/put thread-local:
//! the scratch is moved out of the slot for the duration of the closure and
//! moved back afterwards. A re-entrant call simply builds a fresh scratch
//! (allocating, but correct), so nesting can never observe aliased buffers
//! or panic on a borrow check.

use gsr_graph::{VertexId, VisitedSet};
use std::cell::Cell;

/// Reusable DFS state: a visited set and a vertex stack.
#[derive(Debug, Default)]
pub(crate) struct TraversalScratch {
    /// Vertices visited by the current traversal.
    pub(crate) visited: VisitedSet,
    /// The DFS stack, cleared (but not shrunk) by [`TraversalScratch::begin`].
    pub(crate) stack: Vec<VertexId>,
}

impl TraversalScratch {
    /// Starts a new traversal over a graph of `n` vertices: starts the
    /// visited set (recycling all previous marks in `O(1)`) and clears the
    /// stack.
    pub(crate) fn begin(&mut self, n: usize) {
        self.visited.begin(n);
        self.stack.clear();
    }
}

thread_local! {
    static SCRATCH: Cell<Option<Box<TraversalScratch>>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's [`TraversalScratch`]. The scratch is taken
/// out of the thread-local slot for the duration of the call, so a nested
/// call falls back to a fresh (heap-allocated) scratch instead of aliasing.
pub(crate) fn with_traversal_scratch<R>(f: impl FnOnce(&mut TraversalScratch) -> R) -> R {
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
    fn epochs_recycle_marks_without_clearing() {
        let mut s = TraversalScratch::default();
        s.begin(4);
        s.stack.push(2);
        assert!(s.visited.mark(2));
        assert!(!s.visited.mark(2));
        s.begin(4);
        assert!(s.stack.is_empty(), "begin clears the stack");
        assert!(!s.visited.is_marked(2), "previous traversal's marks are stale");
        assert!(s.visited.mark(2));
    }

    #[test]
    fn begin_grows_for_larger_graphs() {
        let mut s = TraversalScratch::default();
        s.begin(2);
        s.visited.mark(1);
        s.begin(100);
        assert!(!s.visited.is_marked(99));
        assert!(s.visited.mark(99));
    }

    #[test]
    fn thread_local_scratch_is_reused() {
        let first = with_traversal_scratch(|s| {
            s.begin(8);
            s.visited.mark(3);
            s as *const TraversalScratch as usize
        });
        let second = with_traversal_scratch(|s| s as *const TraversalScratch as usize);
        assert_eq!(first, second, "same thread reuses the same buffers");
    }

    #[test]
    fn nested_use_falls_back_to_a_fresh_scratch() {
        with_traversal_scratch(|outer| {
            outer.begin(4);
            outer.visited.mark(1);
            with_traversal_scratch(|inner| {
                inner.begin(4);
                assert!(!inner.visited.is_marked(1), "nested scratch is independent");
            });
            assert!(outer.visited.is_marked(1));
        });
    }
}

//! Reusable per-thread traversal buffers for BFL's guided-DFS fallback.
//!
//! BFL answers most `GReach` queries from its labels alone, but falls back
//! to a pruned DFS when the labels cannot decide. A naive fallback allocates a `visited` vector and
//! a stack per query, which dominates the cost of exactly the queries that
//! are already the slow ones. [`TraversalScratch`] keeps both buffers
//! alive per thread and replaces the O(n) `visited` clear with an epoch
//! stamp, so steady-state queries perform zero heap allocations.
//!
//! Access goes through [`with_traversal_scratch`], a take/put thread-local:
//! the scratch is moved out of the slot for the duration of the closure and
//! moved back afterwards. A re-entrant call simply builds a fresh scratch
//! (allocating, but correct), so nesting can never observe aliased buffers
//! or panic on a borrow check.

use gsr_graph::VertexId;
use std::cell::Cell;

/// Reusable DFS state: an epoch-stamped visited array and a vertex stack.
#[derive(Debug, Default)]
pub struct TraversalScratch {
    /// `visited[v] == epoch` means `v` was visited by the *current*
    /// traversal; stale stamps from earlier traversals are ignored.
    visited: Vec<u32>,
    epoch: u32,
    /// The DFS stack, cleared (but not shrunk) by [`TraversalScratch::begin`].
    pub stack: Vec<VertexId>,
}

impl TraversalScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        TraversalScratch::default()
    }

    /// Starts a new traversal over a graph of `n` vertices: grows the
    /// visited array if needed, advances the epoch (recycling all previous
    /// marks in O(1)) and clears the stack. On the rare epoch wrap-around
    /// the stamps are re-zeroed once.
    pub fn begin(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.stack.clear();
    }

    /// Marks `v` visited; returns `true` when `v` was not yet visited by
    /// the current traversal.
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

    /// Whether `v` was visited by the current traversal.
    #[inline]
    pub fn is_marked(&self, v: VertexId) -> bool {
        self.visited[v as usize] == self.epoch
    }
}

thread_local! {
    static SCRATCH: Cell<Option<Box<TraversalScratch>>> = const { Cell::new(None) };
}

/// Runs `f` with this thread's [`TraversalScratch`]. The scratch is taken
/// out of the thread-local slot for the duration of the call, so a nested
/// call falls back to a fresh (heap-allocated) scratch instead of aliasing.
pub fn with_traversal_scratch<R>(f: impl FnOnce(&mut TraversalScratch) -> R) -> R {
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
        let mut s = TraversalScratch::new();
        s.begin(4);
        assert!(s.mark(2));
        assert!(!s.mark(2));
        assert!(s.is_marked(2));
        s.begin(4);
        assert!(!s.is_marked(2), "previous traversal's marks are stale");
        assert!(s.mark(2));
    }

    #[test]
    fn begin_grows_for_larger_graphs() {
        let mut s = TraversalScratch::new();
        s.begin(2);
        s.mark(1);
        s.begin(100);
        assert!(!s.is_marked(99));
        assert!(s.mark(99));
    }

    #[test]
    fn epoch_wraparound_rezeroes() {
        let mut s = TraversalScratch::new();
        s.begin(3);
        s.mark(0);
        s.epoch = u32::MAX; // force the next begin to wrap
        s.begin(3);
        assert_eq!(s.epoch, 1);
        assert!(!s.is_marked(0));
        assert!(s.mark(0));
    }

    #[test]
    fn thread_local_scratch_is_reused() {
        let first = with_traversal_scratch(|s| {
            s.begin(8);
            s.mark(3);
            s as *const TraversalScratch as usize
        });
        let second = with_traversal_scratch(|s| s as *const TraversalScratch as usize);
        assert_eq!(first, second, "same thread reuses the same buffers");
    }

    #[test]
    fn nested_use_falls_back_to_a_fresh_scratch() {
        with_traversal_scratch(|outer| {
            outer.begin(4);
            outer.mark(1);
            with_traversal_scratch(|inner| {
                inner.begin(4);
                assert!(!inner.is_marked(1), "nested scratch is independent");
            });
            assert!(outer.is_marked(1));
        });
    }
}

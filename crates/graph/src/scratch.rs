//! Per-traversal scratch state shared by the query kernels.
//!
//! A graph traversal needs a visited set, and a query kernel that runs in
//! microseconds cannot afford to allocate or clear an `O(n)` one per query.
//! [`VisitedSet`] is an epoch-stamped `Vec<u32>`: starting a traversal is a
//! single epoch increment, and the array is re-zeroed only on epoch
//! wrap-around (once per `u32::MAX` traversals). The kernels keep one in a
//! thread-local scratch (`gsr_core::scratch`, `gsr_reach::scratch`), so in
//! steady state a traversal allocates nothing.

use crate::VertexId;

/// An epoch-stamped visited set over dense vertex ids.
///
/// `stamps[v] == epoch` means `v` was marked by the *current* traversal;
/// stamps left by earlier traversals are ignored.
#[derive(Debug, Default)]
pub struct VisitedSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitedSet {
    /// Starts a new traversal over `n` vertices: grows the stamp array if
    /// needed and advances the epoch, forgetting every earlier mark in
    /// `O(1)`. On the rare epoch wrap-around the stamps are re-zeroed once.
    pub fn begin(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
    }

    /// Marks `v` visited; returns `true` when `v` was not yet marked by the
    /// current traversal.
    #[inline]
    pub fn mark(&mut self, v: VertexId) -> bool {
        let slot = &mut self.stamps[v as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// Whether `v` was marked by the current traversal.
    #[inline]
    pub fn is_marked(&self, v: VertexId) -> bool {
        self.stamps[v as usize] == self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_visit_cycle() {
        let mut s = VisitedSet::default();
        s.begin(4);
        assert!(s.mark(2));
        assert!(!s.mark(2));
        assert!(s.is_marked(2));
        assert!(!s.is_marked(3));
        // A new traversal forgets everything without touching memory.
        s.begin(4);
        assert!(!s.is_marked(2));
        assert!(s.mark(2));
    }

    #[test]
    fn visited_grows_to_largest_request() {
        let mut s = VisitedSet::default();
        s.begin(2);
        s.mark(1);
        s.begin(10);
        assert!(!s.is_marked(1));
        assert!(s.mark(9));
    }

    #[test]
    fn epoch_wraparound_rezeroes() {
        let mut s = VisitedSet::default();
        s.begin(3);
        s.mark(0);
        s.epoch = u32::MAX; // force the next begin to wrap
        s.begin(3);
        assert_eq!(s.epoch, 1);
        assert!(!s.is_marked(0));
        assert!(s.mark(0));
    }

    #[test]
    fn epoch_wraparound_rezeros() {
        // The wrapping `begin` also grows the array: stamps written at the
        // last epoch before the wrap must read as unmarked, and the epochs
        // after the wrap must count on normally.
        let mut s = VisitedSet::default();
        s.begin(3);
        s.epoch = u32::MAX - 1;
        s.begin(3);
        assert_eq!(s.epoch, u32::MAX);
        assert!(s.mark(1));
        s.begin(5);
        assert_eq!(s.epoch, 1);
        assert!(s.stamps.iter().all(|&st| st == 0));
        assert!((0..5).all(|v| !s.is_marked(v)));
        assert!(s.mark(4));
        s.begin(5);
        assert_eq!(s.epoch, 2);
        assert!(!s.is_marked(4));
    }
}

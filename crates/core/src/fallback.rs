//! Degraded-mode query answering when index construction cannot finish.
//!
//! Building a reachability index over a large network costs time and
//! memory; a robust service must still answer queries when the build is
//! cancelled (shutdown, rebalancing) or the finished index would blow a
//! memory cap. [`FallbackIndex`] packages that policy: it attempts a
//! primary index build under a [`CancelToken`] and an optional byte cap,
//! and on failure degrades to [`OnlineReach`] — an index-free evaluator
//! that answers every query by BFS over the SCC condensation
//! ([`PreparedNetwork::range_reach_bfs_with_cost`]). Degraded answers are
//! exact (the BFS is the ground truth the test suites validate against);
//! only latency degrades.

use crate::batch::CancelToken;
use crate::{PreparedNetwork, QueryCost, RangeReachIndex};
use gsr_geo::Rect;
use gsr_graph::VertexId;
use std::sync::Arc;

/// The index-free evaluator: answers `RangeReach` online by BFS over the
/// condensation DAG, testing a component's member points against the
/// region when the traversal first reaches it and answering at the first
/// hit. Its `QueryCost` counts the components tested (`vertices_visited`)
/// and the points tested (`containment_tests`).
///
/// Costs O(components + edges + points) per query and zero index bytes —
/// the extreme point of the space/time trade-off every indexed method
/// improves on. Used directly as the degraded mode of [`FallbackIndex`]
/// and as a baseline in benchmarks.
///
/// ```
/// use gsr_core::{OnlineReach, RangeReachIndex, paper_example};
/// use std::sync::Arc;
///
/// let online = OnlineReach::new(Arc::new(paper_example::prepared()));
/// assert!(online.query(paper_example::A, &paper_example::query_region()));
/// assert_eq!(online.index_bytes(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineReach {
    prep: Arc<PreparedNetwork>,
}

impl OnlineReach {
    /// Wraps a prepared network; no further construction work happens.
    pub fn new(prep: Arc<PreparedNetwork>) -> Self {
        OnlineReach { prep }
    }

    /// The underlying prepared network.
    pub fn prepared(&self) -> &PreparedNetwork {
        &self.prep
    }
}

impl RangeReachIndex for OnlineReach {
    fn num_vertices(&self) -> usize {
        self.prep.network().num_vertices()
    }

    fn query_unchecked(&self, v: VertexId, region: &Rect) -> bool {
        self.prep.range_reach_bfs(v, region)
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        self.prep.range_reach_bfs_with_cost(v, region)
    }

    fn index_bytes(&self) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "OnlineReach"
    }
}

/// Why a [`FallbackIndex`] is serving answers without its primary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradedReason {
    /// The build was cancelled through the supplied [`CancelToken`]
    /// (before or during construction).
    BuildCancelled,
    /// The finished index exceeded the configured memory cap.
    MemoryCapExceeded {
        /// The configured cap in bytes.
        cap_bytes: usize,
        /// What the built index would have occupied.
        index_bytes: usize,
    },
}

impl std::fmt::Display for DegradedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradedReason::BuildCancelled => write!(f, "index build was cancelled"),
            DegradedReason::MemoryCapExceeded { cap_bytes, index_bytes } => write!(
                f,
                "index needs {index_bytes} bytes, over the {cap_bytes}-byte cap"
            ),
        }
    }
}

/// Constraints applied to a [`FallbackIndex::build`].
#[derive(Debug, Clone, Default)]
pub struct FallbackOptions {
    /// Reject the primary index if its [`RangeReachIndex::index_bytes`]
    /// exceeds this many bytes; `None` means uncapped.
    pub memory_cap_bytes: Option<usize>,
    /// Cooperative cancellation: checked before and after the build
    /// closure runs (builders may also poll it themselves). `None` means
    /// not cancellable.
    pub cancel: Option<CancelToken>,
}

impl FallbackOptions {
    /// No cap, no cancellation — the primary index is always accepted.
    pub fn unlimited() -> Self {
        FallbackOptions::default()
    }

    /// Sets the memory cap in bytes.
    pub fn with_memory_cap(mut self, cap_bytes: usize) -> Self {
        self.memory_cap_bytes = Some(cap_bytes);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// A query index that degrades gracefully: it serves a primary index when
/// construction succeeded within its constraints, and otherwise answers
/// exactly (but more slowly) via [`OnlineReach`].
///
/// ```
/// use gsr_core::methods::ThreeDReach;
/// use gsr_core::{FallbackIndex, FallbackOptions, RangeReachIndex, SccSpatialPolicy};
/// use gsr_core::paper_example;
/// use std::sync::Arc;
///
/// let prep = Arc::new(paper_example::prepared());
/// // A 1-byte cap forces degraded mode; answers stay exact.
/// let idx = FallbackIndex::build(prep.clone(), &FallbackOptions::unlimited().with_memory_cap(1), {
///     let prep = prep.clone();
///     move || ThreeDReach::build(&prep, SccSpatialPolicy::Replicate)
/// });
/// assert!(idx.is_degraded());
/// assert!(idx.query(paper_example::A, &paper_example::query_region()));
/// ```
pub struct FallbackIndex {
    primary: Option<Box<dyn RangeReachIndex>>,
    online: OnlineReach,
    degraded: Option<DegradedReason>,
}

impl std::fmt::Debug for FallbackIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FallbackIndex")
            .field("primary", &self.primary.as_ref().map(|p| p.name()))
            .field("degraded", &self.degraded)
            .finish()
    }
}

impl FallbackIndex {
    /// Runs `build` under the constraints in `options`. If the token is
    /// cancelled (before or during the build) or the finished index is
    /// over the memory cap, the primary is dropped and the instance
    /// serves [`OnlineReach`] answers instead.
    pub fn build<F, I>(prep: Arc<PreparedNetwork>, options: &FallbackOptions, build: F) -> Self
    where
        F: FnOnce() -> I,
        I: RangeReachIndex + 'static,
    {
        let online = OnlineReach::new(prep);
        let cancelled =
            |opts: &FallbackOptions| opts.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
        if cancelled(options) {
            return FallbackIndex {
                primary: None,
                online,
                degraded: Some(DegradedReason::BuildCancelled),
            };
        }
        let built = build();
        if cancelled(options) {
            // The token flipped while the build ran; honor it even though
            // the work finished — the caller asked for the resources back.
            return FallbackIndex {
                primary: None,
                online,
                degraded: Some(DegradedReason::BuildCancelled),
            };
        }
        if let Some(cap) = options.memory_cap_bytes {
            let index_bytes = built.index_bytes();
            if index_bytes > cap {
                return FallbackIndex {
                    primary: None,
                    online,
                    degraded: Some(DegradedReason::MemoryCapExceeded {
                        cap_bytes: cap,
                        index_bytes,
                    }),
                };
            }
        }
        FallbackIndex { primary: Some(Box::new(built)), online, degraded: None }
    }

    /// Whether queries are served by the online BFS instead of the
    /// primary index.
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Why the instance is degraded, if it is.
    pub fn degraded_reason(&self) -> Option<&DegradedReason> {
        self.degraded.as_ref()
    }
}

impl RangeReachIndex for FallbackIndex {
    fn num_vertices(&self) -> usize {
        self.online.num_vertices()
    }

    fn query_unchecked(&self, v: VertexId, region: &Rect) -> bool {
        match &self.primary {
            Some(primary) => primary.query_unchecked(v, region),
            None => self.online.query_unchecked(v, region),
        }
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        match &self.primary {
            Some(primary) => primary.query_with_cost_unchecked(v, region),
            None => self.online.query_with_cost_unchecked(v, region),
        }
    }

    fn index_bytes(&self) -> usize {
        self.primary.as_ref().map_or(0, |p| p.index_bytes())
    }

    fn name(&self) -> &'static str {
        match &self.primary {
            Some(primary) => primary.name(),
            None => "OnlineReach",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::ThreeDReach;
    use crate::{paper_example, GsrError, SccSpatialPolicy};

    fn prep() -> Arc<PreparedNetwork> {
        Arc::new(paper_example::prepared())
    }

    #[test]
    fn online_reach_matches_ground_truth() {
        let prep = prep();
        let online = OnlineReach::new(prep.clone());
        for v in prep.network().graph().vertices() {
            for r in paper_example::probe_regions() {
                assert_eq!(online.query(v, &r), prep.range_reach_bfs(v, &r), "v={v} r={r}");
            }
        }
        assert_eq!(online.index_bytes(), 0);
    }

    #[test]
    fn online_reach_validates_inputs() {
        let online = OnlineReach::new(prep());
        let r = paper_example::query_region();
        assert!(matches!(
            online.try_query(9999, &r),
            Err(GsrError::InvalidVertex { vertex: 9999, .. })
        ));
        let bad = gsr_geo::Rect { min_x: 2.0, min_y: 0.0, max_x: 1.0, max_y: 1.0 };
        assert!(matches!(online.try_query(0, &bad), Err(GsrError::InvalidRect { .. })));
    }

    #[test]
    fn unconstrained_build_serves_primary() {
        let prep = prep();
        let idx = FallbackIndex::build(prep.clone(), &FallbackOptions::unlimited(), {
            let prep = prep.clone();
            move || ThreeDReach::build(&prep, SccSpatialPolicy::Replicate)
        });
        assert!(!idx.is_degraded());
        assert_eq!(idx.name(), "3DReach");
        assert!(idx.index_bytes() > 0);
        for v in prep.network().graph().vertices() {
            for r in paper_example::probe_regions() {
                assert_eq!(idx.query(v, &r), prep.range_reach_bfs(v, &r));
            }
        }
    }

    #[test]
    fn memory_cap_degrades_to_online_with_exact_answers() {
        let prep = prep();
        let options = FallbackOptions::unlimited().with_memory_cap(1);
        let idx = FallbackIndex::build(prep.clone(), &options, {
            let prep = prep.clone();
            move || ThreeDReach::build(&prep, SccSpatialPolicy::Replicate)
        });
        assert!(idx.is_degraded());
        assert_eq!(idx.name(), "OnlineReach");
        assert_eq!(idx.index_bytes(), 0);
        match idx.degraded_reason() {
            Some(DegradedReason::MemoryCapExceeded { cap_bytes: 1, index_bytes }) => {
                assert!(*index_bytes > 1);
            }
            other => panic!("expected MemoryCapExceeded, got {other:?}"),
        }
        for v in prep.network().graph().vertices() {
            for r in paper_example::probe_regions() {
                assert_eq!(idx.query(v, &r), prep.range_reach_bfs(v, &r));
            }
        }
    }

    #[test]
    fn cancelled_token_skips_the_build() {
        let prep = prep();
        let token = CancelToken::new();
        token.cancel();
        let options = FallbackOptions::unlimited().with_cancel(token);
        let ran = std::cell::Cell::new(false);
        let idx = FallbackIndex::build(prep.clone(), &options, {
            let prep = prep.clone();
            let ran = &ran;
            move || {
                ran.set(true);
                ThreeDReach::build(&prep, SccSpatialPolicy::Replicate)
            }
        });
        assert!(!ran.get(), "build closure must not run after cancellation");
        assert_eq!(idx.degraded_reason(), Some(&DegradedReason::BuildCancelled));
        assert!(idx.query(paper_example::A, &paper_example::query_region()));
    }

    #[test]
    fn cancellation_during_build_is_honored() {
        let prep = prep();
        let token = CancelToken::new();
        let options = FallbackOptions::unlimited().with_cancel(token.clone());
        let idx = FallbackIndex::build(prep.clone(), &options, {
            let prep = prep.clone();
            move || {
                // Simulate a cancel request arriving mid-build.
                token.cancel();
                ThreeDReach::build(&prep, SccSpatialPolicy::Replicate)
            }
        });
        assert_eq!(idx.degraded_reason(), Some(&DegradedReason::BuildCancelled));
    }
}

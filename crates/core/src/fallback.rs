//! [`OnlineReach`]: the BFS ground truth
//! ([`PreparedNetwork::range_reach_bfs_with_cost`]) as a [`RangeReachIndex`].

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
/// improves on.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_example, GsrError};

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
}

//! The common interface of all RangeReach evaluation methods.

use crate::error::{validate_query, GsrError};
use gsr_geo::Rect;
use gsr_graph::{ColumnList, VertexId};

/// How the spatial information of a strongly connected component with
/// spatial members is modeled (Section 5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SccSpatialPolicy {
    /// Replace the super-vertex by its spatial members, replicating the
    /// component's reachability information onto each member point. Indexes
    /// stay point-based. This is the non-MBR variant, which the paper's
    /// Figure 5 finds uniformly faster; it is the default.
    #[default]
    Replicate,
    /// Give the super-vertex the minimum bounding rectangle of its members'
    /// points as its spatial geometry. Indexes store one rectangle/box per
    /// spatial component; answers stay exact because partially overlapping
    /// candidates are refined against the actual member points.
    Mbr,
}

impl SccSpatialPolicy {
    /// Short label used in tables ("" for the default, "(MBR)" otherwise).
    pub fn suffix(&self) -> &'static str {
        match self {
            SccSpatialPolicy::Replicate => "",
            SccSpatialPolicy::Mbr => " (MBR)",
        }
    }
}

/// Work counters collected by [`RangeReachIndex::query_with_cost`]. Each
/// method fills the counters that describe *its* work, so the numbers
/// explain the performance trends of Section 6.4 (e.g. SpaReach's candidate
/// count grows with the region extent, GeoReach's traversal shrinks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCost {
    /// Spatial candidates produced by the first phase (SpaReach: range
    /// query results; 3DReach: entries inside the query cuboids).
    pub spatial_candidates: usize,
    /// Graph-reachability (`GReach`) tests issued (SpaReach).
    pub reach_tests: usize,
    /// Graph/DAG vertices visited by a traversal or descendant scan
    /// (GeoReach: BFS pops; SocReach: post-order numbers scanned).
    pub vertices_visited: usize,
    /// Point-in-rectangle containment tests performed.
    pub containment_tests: usize,
    /// Multidimensional range queries issued (3DReach: one per label;
    /// 3DReach-REV: always one).
    pub range_queries: usize,
}

impl QueryCost {
    /// Accumulates another cost into `self` (used to average workloads).
    pub fn accumulate(&mut self, other: &QueryCost) {
        self.spatial_candidates += other.spatial_candidates;
        self.reach_tests += other.reach_tests;
        self.vertices_visited += other.vertices_visited;
        self.containment_tests += other.containment_tests;
        self.range_queries += other.range_queries;
    }
}

/// Point-in-time routing counters of a sharded scatter-gather index
/// ([`crate::partition::ShardedIndex`]), surfaced through
/// [`RangeReachIndex::shard_stats`] so callers holding a
/// `dyn RangeReachIndex` (e.g. the query server's `STATS` handler) can
/// report routing effectiveness without downcasting.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Number of shards behind the router.
    pub shards: u64,
    /// Shard probes actually executed (post MBR pruning, pre
    /// short-circuit).
    pub probes: u64,
    /// Shard probes skipped because the shard MBR missed the query rect.
    pub pruned: u64,
    /// Per-shard 99th-percentile probe latency in microseconds, in shard
    /// order.
    pub probe_p99_us: Vec<u64>,
}

/// An evaluation method for `RangeReach(G, v, R)` queries (Problem 1).
///
/// Implementations are built once from a [`crate::PreparedNetwork`] and then
/// answer arbitrarily many queries. Reachability is reflexive: a query
/// vertex whose own point lies inside `R` yields `true`.
///
/// Indexes are immutable after construction, so the trait requires
/// `Send + Sync` and a shared reference can serve queries from many
/// threads concurrently (see the harness's parallel driver).
///
/// ## Checked and unchecked entry points
///
/// Implementors provide the *raw* evaluation,
/// [`RangeReachIndex::query_with_cost_unchecked`], which answers and counts
/// the work of one query. Its contract assumes validated input
/// (`v < num_vertices`, finite non-inverted `region`) and it may panic or
/// index out of bounds otherwise; [`RangeReachIndex::query_unchecked`] is
/// its answer alone. Callers holding untrusted input use
/// the provided [`RangeReachIndex::try_query`] /
/// [`RangeReachIndex::try_query_with_cost`], which validate first and
/// surface [`GsrError::InvalidVertex`] / [`GsrError::InvalidRect`] instead
/// of panicking. The infallible [`RangeReachIndex::query`] is a validated
/// wrapper that panics with a descriptive message on invalid input —
/// never with a raw index-out-of-bounds.
pub trait RangeReachIndex: Send + Sync {
    /// Number of vertices of the indexed network; valid query ids are
    /// `0..num_vertices`.
    fn num_vertices(&self) -> usize;

    /// Evaluates `RangeReach(G, v, region)` without validating the input —
    /// can `v` reach a vertex whose point lies inside `region`? — and
    /// returns the work counters of this query with the answer.
    ///
    /// The caller must guarantee `v < self.num_vertices()` and a finite,
    /// non-inverted `region`; violations may panic.
    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost);

    /// The answer of [`RangeReachIndex::query_with_cost_unchecked`] alone,
    /// under the same contract. An index that forwards to others (a method
    /// enum, a shard router) overrides it, so that a call through it does
    /// not count work nobody reads.
    fn query_unchecked(&self, v: VertexId, region: &Rect) -> bool {
        self.query_with_cost_unchecked(v, region).0
    }

    /// Validated evaluation: rejects out-of-range vertices and non-finite
    /// or inverted rectangles with a typed error instead of panicking.
    fn try_query(&self, v: VertexId, region: &Rect) -> Result<bool, GsrError> {
        validate_query(self.num_vertices(), v, region)?;
        Ok(self.query_unchecked(v, region))
    }

    /// Validated evaluation with work counters.
    fn try_query_with_cost(
        &self,
        v: VertexId,
        region: &Rect,
    ) -> Result<(bool, QueryCost), GsrError> {
        validate_query(self.num_vertices(), v, region)?;
        Ok(self.query_with_cost_unchecked(v, region))
    }

    /// Evaluates `RangeReach(G, v, region)`, panicking with a descriptive
    /// message when the input is invalid. Prefer
    /// [`RangeReachIndex::try_query`] on untrusted input.
    fn query(&self, v: VertexId, region: &Rect) -> bool {
        match self.try_query(v, region) {
            Ok(answer) => answer,
            Err(e) => panic!("{}: {e}", self.name()),
        }
    }

    /// Like [`RangeReachIndex::query`], additionally returning the work
    /// counters of this query.
    fn query_with_cost(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        match self.try_query_with_cost(v, region) {
            Ok(result) => result,
            Err(e) => panic!("{}: {e}", self.name()),
        }
    }

    /// Approximate heap footprint of the index structures in bytes —
    /// the "index size" column of Table 4. Everything the index keeps
    /// alive, whether or not another index holds the same buffer.
    fn index_bytes(&self) -> usize;

    /// The index's persistent columns (`gsr_graph::Columns::store`); `None`
    /// — the default — for an index that has none (the online BFS, a shard
    /// router). Every built method declares its columns. The list is what a
    /// snapshot of the index holds,
    /// what [`RangeReachIndex::index_bytes`] of a column-backed index adds
    /// up, and how a [`crate::ShardedIndex`] tells which buffers its
    /// members — tile views of one network — hold in common.
    fn columns(&self) -> Option<ColumnList<'_>> {
        None
    }

    /// Display name, e.g. `"3DReach"` or `"SpaReach-BFL"`.
    fn name(&self) -> &'static str;

    /// Routing counters when `self` is a sharded scatter-gather router;
    /// `None` (the default) for ordinary single indexes.
    fn shard_stats(&self) -> Option<ShardStats> {
        None
    }

    /// Zeroes the routing counters reported by
    /// [`RangeReachIndex::shard_stats`]; a no-op (the default) for
    /// ordinary single indexes. Wired to the server's `RESET` verb.
    fn reset_shard_stats(&self) {}
}

//! Spatial-tile partitioning and the sharded scatter-gather index.
//!
//! A [`GeosocialNetwork`] is split into `N` tiles by STR-style recursive
//! cuts: at every level the current point set's bounding rectangle is cut
//! across its *longest* dimension at the point-count median, so tiles are
//! balanced by check-in count rather than by area. Every tile is a *view*
//! of the network — the same graph, condensation and interval labels, only
//! its own tile's points ([`tile_network`]) — and one [`RangeReachIndex`]
//! (any of the six methods) is built per tile: a private spatial structure
//! over handles to the shared social columns. [`ShardedIndex`] then routes
//! `RangeReach(G, v, R)` to the shards whose MBR intersects `R` and
//! short-circuits on the first `TRUE`.
//!
//! ## Soundness of MBR pruning
//!
//! `RangeReach(G, v, R)` is true iff `v` reaches some vertex whose point
//! lies in `R`. The tiles partition the spatial vertices, so
//!
//! ```text
//! RangeReach(G, v, R)  ==  OR over shards s of RangeReach(G_s, v, R)
//! ```
//!
//! where `G_s` is the full graph with only shard `s`'s points. A shard
//! whose MBR does not intersect `R` contains no point inside `R`, hence
//! contributes `false` and can be skipped without being consulted; and
//! because `OR` is commutative, stopping at the first `true` (cooperative
//! cancellation of the remaining siblings) cannot change the answer.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gsr_geo::{Point, Rect};
use gsr_graph::VertexId;

use crate::error::GsrError;
use crate::hist::LatencyHistogram;
use crate::network::{GeosocialNetwork, NetworkError, PreparedNetwork};
use crate::traits::{QueryCost, RangeReachIndex, ShardStats};
use crate::{BatchExecutor, BatchQuery};

/// One spatial tile of a partitioned network: the spatial vertices assigned
/// to it and their minimum bounding rectangle (`None` for an empty tile).
#[derive(Debug, Clone, PartialEq)]
pub struct Tile {
    /// Spatial vertices assigned to this tile.
    pub vertices: Vec<VertexId>,
    /// MBR of the assigned points; `None` when the tile is empty.
    pub mbr: Option<Rect>,
}

/// Splits the spatial vertices of `net` into `shards` tiles balanced by
/// point count (STR-style longest-dimension median cuts).
///
/// The result is deterministic: ties on a coordinate are broken by vertex
/// id, and the recursion shape depends only on the point multiset. Tiles
/// may be empty when the network has fewer spatial vertices than `shards`.
pub fn partition_tiles(net: &GeosocialNetwork, shards: usize) -> Vec<Tile> {
    let shards = shards.max(1);
    let mut items: Vec<(VertexId, Point)> = net.spatial_vertices().collect();
    items.sort_unstable_by_key(|&(v, _)| v);
    let mut tiles = Vec::with_capacity(shards);
    split(&mut items, shards, &mut tiles);
    tiles
}

fn split(items: &mut [(VertexId, Point)], k: usize, out: &mut Vec<Tile>) {
    if k <= 1 {
        out.push(Tile {
            mbr: Rect::mbr_of(items.iter().map(|&(_, p)| p)),
            vertices: items.iter().map(|&(v, _)| v).collect(),
        });
        return;
    }
    // Cut the longest dimension of the current MBR at the point-count
    // median so both halves carry (k_left : k_right)-proportional shares.
    let cut_x = match Rect::mbr_of(items.iter().map(|&(_, p)| p)) {
        Some(r) => r.width() >= r.height(),
        None => true,
    };
    if cut_x {
        items.sort_unstable_by(|a, b| a.1.x.total_cmp(&b.1.x).then(a.0.cmp(&b.0)));
    } else {
        items.sort_unstable_by(|a, b| a.1.y.total_cmp(&b.1.y).then(a.0.cmp(&b.0)));
    }
    let k_left = k / 2;
    let cut = items.len() * k_left / k;
    let (left, right) = items.split_at_mut(cut);
    split(left, k_left, out);
    split(right, k - k_left, out);
}

/// The shard network for one tile: a view of `net` with only the tile's
/// points attached. Reachability over the whole graph is preserved; only the
/// spatial targets are restricted to the tile. The view shares `net`'s
/// social side — graph, condensation, forward labels, each computed once by
/// whichever of them needs it first — which is sound because none of the
/// three reads a point. Always `Ok`: the points were validated with `net`.
pub fn tile_network(net: &GeosocialNetwork, tile: &Tile) -> Result<GeosocialNetwork, NetworkError> {
    Ok(net.tile_view(&tile.vertices))
}

/// Partitions `net` into `shards` tiles and prepares each tile's view:
/// `(tile network, tile MBR)` in shard order, one at a time. What every
/// sharded build iterates over.
pub fn prepared_tiles(
    net: &GeosocialNetwork,
    shards: usize,
) -> impl Iterator<Item = (PreparedNetwork, Option<Rect>)> + '_ {
    partition_tiles(net, shards)
        .into_iter()
        .map(move |tile| (PreparedNetwork::new(net.tile_view(&tile.vertices)), tile.mbr))
}

/// One member of a [`ShardedIndex`]: the index over one tile plus the
/// tile's MBR used for routing.
#[derive(Clone)]
pub struct ShardMember {
    /// The per-tile index (any of the six methods).
    pub index: Arc<dyn RangeReachIndex>,
    /// MBR of the tile's points; `None` for an empty tile, which is never
    /// probed.
    pub mbr: Option<Rect>,
}

/// A router over `N` per-tile indexes with MBR-pruned scatter-gather
/// routing.
///
/// Queries fan out **only** to shards whose MBR intersects the query
/// rectangle, in shard-id order, and stop at the first `TRUE`
/// (short-circuit). The router keeps lock-free routing counters —
/// probes issued, shards pruned — and a per-shard probe-latency
/// histogram, surfaced through [`RangeReachIndex::shard_stats`].
///
/// Its `index_bytes` counts every distinct buffer once, by identity: a
/// counted column ([`RangeReachIndex::columns`]) that several members hold
/// is not multiplied by the shard count, and members that share nothing
/// add up to the plain sum.
pub struct ShardedIndex {
    shards: Vec<ShardMember>,
    num_vertices: usize,
    /// The members never change, so neither does this.
    index_bytes: usize,
    probes: AtomicU64,
    pruned: AtomicU64,
    probe_hists: Vec<LatencyHistogram>,
}

impl std::fmt::Debug for ShardMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardMember")
            .field("index", &self.index.name())
            .field("mbr", &self.mbr)
            .finish()
    }
}

impl std::fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards)
            .field("num_vertices", &self.num_vertices)
            .field("probes", &self.probes)
            .field("pruned", &self.pruned)
            .finish()
    }
}

impl ShardedIndex {
    /// Assembles a router over `shards`. Fails with [`GsrError::Load`] when
    /// the set is empty or the members disagree on the vertex-id space.
    pub fn new(shards: Vec<ShardMember>) -> Result<Self, GsrError> {
        let first = shards
            .first()
            .ok_or_else(|| GsrError::Load("sharded index: empty shard set".into()))?;
        let num_vertices = first.index.num_vertices();
        for (i, s) in shards.iter().enumerate() {
            if s.index.num_vertices() != num_vertices {
                return Err(GsrError::Load(format!(
                    "sharded index: shard {i} has {} vertices, shard 0 has {num_vertices}",
                    s.index.num_vertices()
                )));
            }
        }
        // A member's counted columns, where an earlier member has not
        // brought the same buffer in already.
        let mut seen = HashSet::new();
        let own_bytes = |shard: &ShardMember| match shard.index.columns() {
            Some(list) => list.counted_unseen(&mut seen),
            None => shard.index.index_bytes(),
        };
        let index_bytes = shards.iter().map(own_bytes).sum();
        let probe_hists = shards.iter().map(|_| LatencyHistogram::default()).collect();
        Ok(ShardedIndex {
            shards,
            num_vertices,
            index_bytes,
            probes: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            probe_hists,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard members, in routing order.
    pub fn members(&self) -> &[ShardMember] {
        &self.shards
    }

    /// Probes issued so far (shards actually consulted).
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Shards skipped by the MBR intersection test so far.
    pub fn pruned(&self) -> u64 {
        self.pruned.load(Ordering::Relaxed)
    }

    /// Routes a whole batch through the shard set on `exec`, returning
    /// answers in input order.
    ///
    /// The batch is scattered shard-major: for each shard in id order, the
    /// still-unanswered queries whose rectangle intersects the shard's MBR
    /// form a sub-batch executed on `exec`'s worker pool. A query answered
    /// `TRUE` at shard `k` is dropped from every later sub-batch — that
    /// drop *is* the cooperative cancellation of its in-flight siblings —
    /// and `OR`'s commutativity keeps the result identical to probing all
    /// shards. Queries that intersect no MBR answer `FALSE` without a
    /// single probe.
    pub fn scatter(&self, exec: &BatchExecutor, queries: &[BatchQuery]) -> Vec<bool> {
        let mut answers = vec![false; queries.len()];
        let mut open: Vec<usize> = (0..queries.len()).collect();
        for (s, shard) in self.shards.iter().enumerate() {
            if open.is_empty() {
                break;
            }
            let mut sub: Vec<BatchQuery> = Vec::new();
            let mut sub_ids: Vec<usize> = Vec::new();
            let mut still_open: Vec<usize> = Vec::new();
            for &qi in &open {
                if shard.mbr.is_some_and(|m| m.intersects(&queries[qi].1)) {
                    sub.push(queries[qi]);
                    sub_ids.push(qi);
                } else {
                    self.pruned.fetch_add(1, Ordering::Relaxed);
                    still_open.push(qi);
                }
            }
            if !sub.is_empty() {
                self.probes.fetch_add(sub.len() as u64, Ordering::Relaxed);
                let start = Instant::now();
                let hits = exec.run(shard.index.as_ref(), &sub);
                self.probe_hists[s].record_us(elapsed_us(start));
                for (j, &qi) in sub_ids.iter().enumerate() {
                    if hits[j] {
                        answers[qi] = true;
                    } else {
                        still_open.push(qi);
                    }
                }
                still_open.sort_unstable();
            }
            open = still_open;
        }
        answers
    }

    fn route(&self, region: &Rect, mut probe: impl FnMut(usize, &ShardMember) -> bool) -> bool {
        for (i, shard) in self.shards.iter().enumerate() {
            if !shard.mbr.is_some_and(|m| m.intersects(region)) {
                self.pruned.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // One probe in `PROBE_SAMPLE` is clocked: two clock reads cost
            // about as much as the probe they bracket.
            let sampled = self.probes.fetch_add(1, Ordering::Relaxed).is_multiple_of(PROBE_SAMPLE);
            let start = sampled.then(Instant::now);
            let hit = probe(i, shard);
            if let Some(start) = start {
                self.probe_hists[i].record_us(elapsed_us(start));
            }
            if hit {
                return true;
            }
        }
        false
    }
}

/// Single-query probes between two timed ones (the first after a reset is
/// timed).
const PROBE_SAMPLE: u64 = 64;

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

impl RangeReachIndex for ShardedIndex {
    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn query_unchecked(&self, v: VertexId, region: &Rect) -> bool {
        self.route(region, |_, shard| shard.index.query_unchecked(v, region))
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        let mut total = QueryCost::default();
        let hit = self.route(region, |_, shard| {
            let (hit, cost) = shard.index.query_with_cost_unchecked(v, region);
            total.accumulate(&cost);
            hit
        });
        (hit, total)
    }

    fn index_bytes(&self) -> usize {
        self.index_bytes
    }

    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        Some(ShardStats {
            shards: self.shards.len() as u64,
            probes: self.probes.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            probe_p99_us: self.probe_hists.iter().map(|h| h.quantile_us(0.99)).collect(),
        })
    }

    fn reset_shard_stats(&self) {
        self.probes.store(0, Ordering::Relaxed);
        self.pruned.store(0, Ordering::Relaxed);
        for h in &self.probe_hists {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::ThreeDReach;
    use crate::SccSpatialPolicy;
    use gsr_graph::GraphBuilder;

    fn grid_network(n: usize) -> GeosocialNetwork {
        // n*n spatial vertices on an integer grid, a chain of edges so
        // vertex 0 reaches everything.
        let mut g = GraphBuilder::new(n * n);
        for v in 1..n * n {
            g.add_edge((v - 1) as VertexId, v as VertexId);
        }
        let points = (0..n * n).map(|v| Some(Point::new((v % n) as f64, (v / n) as f64))).collect();
        GeosocialNetwork::new(g.build(), points).expect("grid network is valid")
    }

    fn build_sharded(net: &GeosocialNetwork, shards: usize) -> ShardedIndex {
        let members = prepared_tiles(net, shards)
            .map(|(prep, mbr)| ShardMember {
                index: Arc::new(ThreeDReach::build(&prep, SccSpatialPolicy::Replicate)),
                mbr,
            })
            .collect();
        ShardedIndex::new(members).expect("shard set is valid")
    }

    #[test]
    fn tiles_partition_the_spatial_vertices_and_balance_counts() {
        let net = grid_network(8); // 64 points
        for shards in [1, 2, 3, 4, 8] {
            let tiles = partition_tiles(&net, shards);
            assert_eq!(tiles.len(), shards);
            let mut seen: Vec<VertexId> = tiles.iter().flat_map(|t| t.vertices.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..64).collect::<Vec<_>>(), "tiles must partition");
            let max = tiles.iter().map(|t| t.vertices.len()).max().unwrap();
            let min = tiles.iter().map(|t| t.vertices.len()).min().unwrap();
            assert!(max - min <= 1, "{shards} shards: sizes {min}..{max} not balanced");
            for t in &tiles {
                let mbr = t.mbr.expect("non-empty tile has an MBR");
                for &v in &t.vertices {
                    assert!(mbr.contains_point(&net.point(v).unwrap()));
                }
            }
        }
    }

    #[test]
    fn partitioning_is_deterministic() {
        let net = grid_network(6);
        assert_eq!(partition_tiles(&net, 4), partition_tiles(&net, 4));
    }

    #[test]
    fn sharded_matches_single_index_and_prunes() {
        let net = grid_network(6);
        let prep = PreparedNetwork::new(net.clone());
        let oracle = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let sharded = build_sharded(&net, 4);
        let rects = [
            Rect::new(0.0, 0.0, 5.0, 5.0),
            Rect::new(2.0, 2.0, 3.0, 3.0),
            Rect::new(0.0, 0.0, 0.5, 0.5),
            Rect::new(4.5, 4.5, 5.0, 5.0),
        ];
        for v in 0..36 {
            for r in &rects {
                assert_eq!(sharded.query(v, r), oracle.query(v, r), "v={v} r={r:?}");
            }
        }
        let stats = sharded.shard_stats().expect("router reports shard stats");
        assert_eq!(stats.shards, 4);
        assert!(stats.probes > 0);
        assert!(stats.pruned > 0, "small rects must prune some shards");
    }

    #[test]
    fn rect_outside_every_mbr_answers_false_with_zero_probes() {
        let net = grid_network(4);
        let sharded = build_sharded(&net, 4);
        let far = Rect::new(100.0, 100.0, 101.0, 101.0);
        assert!(!sharded.query(0, &far));
        let stats = sharded.shard_stats().expect("router reports shard stats");
        assert_eq!(stats.probes, 0, "no shard may be consulted");
        assert_eq!(stats.pruned, 4, "all shards must be pruned");
    }

    #[test]
    fn scatter_agrees_with_per_query_routing_and_reset_zeroes_counters() {
        let net = grid_network(6);
        let sharded = build_sharded(&net, 4);
        let queries: Vec<BatchQuery> = (0..36)
            .map(|v| (v, Rect::new((v % 6) as f64, 0.0, (v % 6) as f64 + 1.5, 5.0)))
            .collect();
        let exec = BatchExecutor::new(1);
        let batch = sharded.scatter(&exec, &queries);
        let single: Vec<bool> = queries.iter().map(|(v, r)| sharded.query(*v, r)).collect();
        assert_eq!(batch, single);
        sharded.reset_shard_stats();
        let stats = sharded.shard_stats().expect("router reports shard stats");
        assert_eq!((stats.probes, stats.pruned), (0, 0));
        assert!(stats.probe_p99_us.iter().all(|&p| p == 0));
    }
}

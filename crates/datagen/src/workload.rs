//! Query workloads mirroring Section 6.1 of the paper.
//!
//! Each experiment measures the average runtime over a batch of
//! `RangeReach` queries while varying one parameter:
//!
//! * the **extent** of the query region `R` in `{1, 2, 5, 10, 20}%` of the
//!   space (default **5%**),
//! * the **out-degree of the query vertex** in the buckets `[1-49]`,
//!   `[50-99]`, `[100-149]` (default), `[150-199]`, `[200-..]`,
//! * the **spatial selectivity** of `R` in `{0.001, 0.01, 0.1, 1}%` of the
//!   network's vertices.

use gsr_core::PreparedNetwork;
use gsr_geo::{Aabb, Point, Rect};
use gsr_graph::stats::{vertices_in_bucket, DegreeBucket};
use gsr_graph::VertexId;
use gsr_index::RTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The extent sweep of the paper, in percent of the space area; the bold
/// default is 5%.
pub const PAPER_EXTENTS_PCT: [f64; 5] = [1.0, 2.0, 5.0, 10.0, 20.0];

/// The selectivity sweep of the paper, in percent of `|V|`.
pub const PAPER_SELECTIVITIES_PCT: [f64; 4] = [0.001, 0.01, 0.1, 1.0];

/// A batch of `RangeReach` queries.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable description, e.g. `"extent=5% degree=100-149"`.
    pub label: String,
    /// The `(query vertex, query region)` pairs.
    pub queries: Vec<(VertexId, Rect)>,
}

/// Generates query workloads for one prepared network.
#[derive(Debug)]
pub struct WorkloadGen<'a> {
    prep: &'a PreparedNetwork,
    /// Point index used to steer selectivity-targeted regions.
    points: RTree<2, ()>,
}

impl<'a> WorkloadGen<'a> {
    /// Prepares the generator (builds a throw-away point index).
    pub fn new(prep: &'a PreparedNetwork) -> Self {
        let entries: Vec<(Aabb<2>, ())> = prep
            .network()
            .spatial_vertices()
            .map(|(_, p)| (Aabb::from_point([p.x, p.y]), ()))
            .collect();
        WorkloadGen { prep, points: RTree::bulk_load(entries) }
    }

    /// Query vertices with out-degree inside `bucket`, falling back to the
    /// nearest non-empty bucket when the network has none (small scaled
    /// networks may lack 200+-degree vertices).
    fn vertex_pool(&self, bucket: DegreeBucket) -> Vec<VertexId> {
        let g = self.prep.network().graph();
        let pool = vertices_in_bucket(g, bucket);
        if !pool.is_empty() {
            return pool;
        }
        // Fallback: widen downwards, then to any positive out-degree.
        let widened =
            DegreeBucket { lo: bucket.lo.saturating_sub(bucket.lo / 2).max(1), hi: u32::MAX };
        let pool = vertices_in_bucket(g, widened);
        if !pool.is_empty() {
            return pool;
        }
        vertices_in_bucket(g, DegreeBucket { lo: 1, hi: u32::MAX })
    }

    /// A square region of the given area percentage, centred uniformly at
    /// random and clamped into the space.
    fn random_region<R: Rng>(&self, rng: &mut R, extent_pct: f64) -> Rect {
        let space = self.prep.space();
        let side = (space.area() * extent_pct / 100.0).sqrt();
        let cx = rng.gen_range(space.min_x..=space.max_x);
        let cy = rng.gen_range(space.min_y..=space.max_y);
        Rect::square(Point::new(cx, cy), side).clamp_within(&space)
    }

    /// The workload of the extent/degree sweeps: `count` queries with the
    /// given region extent (% of space area) and query-vertex bucket.
    pub fn extent_degree(
        &self,
        extent_pct: f64,
        bucket: DegreeBucket,
        count: usize,
        seed: u64,
    ) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE47E_17D0);
        let pool = self.vertex_pool(bucket);
        let queries = (0..count)
            .map(|_| {
                let v = pool[rng.gen_range(0..pool.len())];
                (v, self.random_region(&mut rng, extent_pct))
            })
            .collect();
        Workload { label: format!("extent={extent_pct}% degree={}", bucket.label()), queries }
    }

    /// The selectivity sweep: regions sized so that the number of contained
    /// spatial vertices is close to `selectivity_pct` percent of `|V|`.
    ///
    /// Each region is centred on a random venue (so low selectivities don't
    /// degenerate to empty regions) and its side is binary-searched until
    /// the contained-point count is within 25% of the target (or the search
    /// exhausts 40 iterations).
    pub fn selectivity(
        &self,
        selectivity_pct: f64,
        bucket: DegreeBucket,
        count: usize,
        seed: u64,
    ) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1E_C71F);
        let pool = self.vertex_pool(bucket);
        let venues: Vec<Point> = self.prep.network().spatial_vertices().map(|(_, p)| p).collect();
        let space = self.prep.space();
        let target =
            ((self.prep.network().num_vertices() as f64) * selectivity_pct / 100.0).max(1.0);

        let queries = (0..count)
            .map(|_| {
                let v = pool[rng.gen_range(0..pool.len())];
                let center = venues[rng.gen_range(0..venues.len())];
                let region = self.search_region(center, target, &space);
                (v, region)
            })
            .collect();
        Workload { label: format!("selectivity={selectivity_pct}%"), queries }
    }

    /// Binary search on the square side length for the target point count.
    fn search_region(&self, center: Point, target: f64, space: &Rect) -> Rect {
        let mut lo = 0.0f64;
        let mut hi = space.width().max(space.height()) * 2.0;
        let mut best = Rect::square(center, hi).clamp_within(space);
        for _ in 0..40 {
            let mid = (lo + hi) / 2.0;
            let candidate = Rect::square(center, mid).clamp_within(space);
            let count = self.points.count_in(&candidate.into()) as f64;
            if (count - target).abs() / target <= 0.25 {
                return candidate;
            }
            if count < target {
                lo = mid;
            } else {
                hi = mid;
                best = candidate;
            }
        }
        best
    }

    /// A workload of *spatially negative* queries: every region contains
    /// zero spatial vertices, so every method must exhaust its search —
    /// the adversarial case Section 2.2.3 calls out ("both methods may
    /// perform poorly for RangeReach queries with a negative answer").
    /// Regions are rejection-sampled at the given extent; when the space is
    /// too dense for empty regions of that size, the extent shrinks
    /// geometrically until sampling succeeds.
    pub fn spatial_negative(
        &self,
        extent_pct: f64,
        bucket: DegreeBucket,
        count: usize,
        seed: u64,
    ) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x000F_F5E7);
        let pool = self.vertex_pool(bucket);
        let mut queries = Vec::with_capacity(count);
        let mut extent = extent_pct;
        let mut attempts = 0usize;
        while queries.len() < count {
            let region = self.random_region(&mut rng, extent);
            if !self.points.query_exists(&region.into()) {
                let v = pool[rng.gen_range(0..pool.len())];
                queries.push((v, region));
            }
            attempts += 1;
            if attempts > 200 && queries.is_empty() {
                extent /= 2.0; // too dense: shrink until empty regions exist
                attempts = 0;
                if extent < 1e-6 {
                    break;
                }
            }
        }
        Workload { label: format!("spatial-negative extent<={extent_pct}%"), queries }
    }

    /// Query vertices that reach **no** spatial vertex at all (their
    /// queries are FALSE for every region): the social side of the
    /// negative-answer case. Returns `None` when the network has no such
    /// vertex with outgoing edges — e.g. the giant-SCC datasets, where
    /// every user reaches the whole venue set.
    pub fn social_negative(&self, extent_pct: f64, count: usize, seed: u64) -> Option<Workload> {
        // reaches_spatial per component, in reverse topological order.
        let dag = self.prep.dag();
        let order = gsr_graph::topo::topological_order(dag)?;
        let mut reaches_spatial = vec![false; self.prep.num_components()];
        for &c in order.iter().rev() {
            reaches_spatial[c as usize] = self.prep.comp_is_spatial(c)
                || dag.out_neighbors(c).iter().any(|&s| reaches_spatial[s as usize]);
        }
        let g = self.prep.network().graph();
        let pool: Vec<VertexId> = g
            .vertices()
            .filter(|&v| g.out_degree(v) >= 1 && !reaches_spatial[self.prep.comp(v) as usize])
            .collect();
        if pool.is_empty() {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0050_C1A7);
        let queries = (0..count)
            .map(|_| {
                let v = pool[rng.gen_range(0..pool.len())];
                (v, self.random_region(&mut rng, extent_pct))
            })
            .collect();
        Some(Workload { label: "social-negative".to_string(), queries })
    }

    /// Measured selectivity of a region: contained spatial vertices over
    /// `|V|`, in percent. Exposed for tests and harness diagnostics.
    pub fn measured_selectivity_pct(&self, region: &Rect) -> f64 {
        let contained = self.points.count_in(&(*region).into()) as f64;
        contained / self.prep.network().num_vertices() as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_core::PreparedNetwork;
    use gsr_graph::GraphBuilder;

    fn toy_prep() -> PreparedNetwork {
        // 20 users in a chain + 900 venues on a 30x30 grid, every user
        // checks in at a few venues. The dense grid keeps point counts
        // nearly continuous in the region side, which the selectivity
        // search relies on.
        let mut b = GraphBuilder::new(920);
        for u in 0..19u32 {
            b.add_edge(u, u + 1);
        }
        for u in 0..20u32 {
            for k in 0..5u32 {
                b.add_edge(u, 20 + (u * 45 + k * 7) % 900);
            }
        }
        let mut points = vec![None; 920];
        for i in 0..900usize {
            points[20 + i] = Some(Point::new(
                (i % 30) as f64 * 10.0 / 3.0 + 1.0,
                (i / 30) as f64 * 10.0 / 3.0 + 1.0,
            ));
        }
        PreparedNetwork::new(gsr_core::GeosocialNetwork::new(b.build(), points).unwrap())
    }

    #[test]
    fn extent_workload_shape() {
        let prep = toy_prep();
        let gen = WorkloadGen::new(&prep);
        let w = gen.extent_degree(5.0, DegreeBucket { lo: 1, hi: 49 }, 50, 42);
        assert_eq!(w.queries.len(), 50);
        let space = prep.space();
        for (v, r) in &w.queries {
            assert!(prep.network().graph().out_degree(*v) >= 1);
            assert!(space.contains_rect(r), "region inside space");
            // Area is at most the requested extent (clamping can shrink).
            assert!(r.area() <= space.area() * 0.05 + 1e-6);
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let prep = toy_prep();
        let gen = WorkloadGen::new(&prep);
        let a = gen.extent_degree(5.0, DegreeBucket { lo: 1, hi: 49 }, 20, 7);
        let b = gen.extent_degree(5.0, DegreeBucket { lo: 1, hi: 49 }, 20, 7);
        assert_eq!(a.queries, b.queries);
        let c = gen.extent_degree(5.0, DegreeBucket { lo: 1, hi: 49 }, 20, 8);
        assert_ne!(a.queries, c.queries, "different seeds differ");
    }

    #[test]
    fn degree_bucket_fallback() {
        let prep = toy_prep();
        let gen = WorkloadGen::new(&prep);
        // No vertex has out-degree 200+ here; the fallback must still
        // produce a workload.
        let w = gen.extent_degree(5.0, DegreeBucket { lo: 200, hi: u32::MAX }, 10, 1);
        assert_eq!(w.queries.len(), 10);
    }

    #[test]
    fn spatial_negative_regions_are_empty() {
        let prep = toy_prep();
        let gen = WorkloadGen::new(&prep);
        let w = gen.spatial_negative(1.0, DegreeBucket { lo: 1, hi: u32::MAX }, 20, 5);
        assert!(!w.queries.is_empty());
        for (_, r) in &w.queries {
            assert_eq!(gen.measured_selectivity_pct(r), 0.0, "region {r} must be empty");
        }
    }

    #[test]
    fn social_negative_vertices_reach_nothing_spatial() {
        // Add a user chain disconnected from all venues.
        let mut b = GraphBuilder::new(923);
        for u in 0..19u32 {
            b.add_edge(u, u + 1);
        }
        for u in 0..20u32 {
            b.add_edge(u, 20 + u); // checkins
        }
        b.add_edge(920, 921);
        b.add_edge(921, 922);
        let mut points = vec![None; 923];
        for i in 0..900usize {
            points[20 + i] = Some(Point::new(
                (i % 30) as f64 * 10.0 / 3.0 + 1.0,
                (i / 30) as f64 * 10.0 / 3.0 + 1.0,
            ));
        }
        let prep =
            PreparedNetwork::new(gsr_core::GeosocialNetwork::new(b.build(), points).unwrap());
        let gen = WorkloadGen::new(&prep);
        let w = gen.social_negative(5.0, 15, 3).expect("disconnected users exist");
        for (v, r) in &w.queries {
            assert!(!prep.range_reach_bfs(*v, r), "v={v} must be a guaranteed negative");
        }
    }

    #[test]
    fn selectivity_targets_are_hit() {
        let prep = toy_prep();
        let gen = WorkloadGen::new(&prep);
        // Target 5% of 920 vertices = 46 points.
        let w = gen.selectivity(5.0, DegreeBucket { lo: 1, hi: u32::MAX }, 30, 3);
        let mut ok = 0;
        for (_, r) in &w.queries {
            let sel = gen.measured_selectivity_pct(r);
            if (sel - 5.0).abs() / 5.0 <= 0.4 {
                ok += 1;
            }
        }
        assert!(ok >= 20, "most regions near the target selectivity, got {ok}/30");
    }
}

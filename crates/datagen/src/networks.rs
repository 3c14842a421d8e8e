//! Synthetic geosocial network generation.

use crate::io;
use gsr_core::GeosocialNetwork;
use gsr_geo::{Point, Rect};
use gsr_graph::{GraphBuilder, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How friendship (user–user) edges are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FriendshipStyle {
    /// Every friendship is bidirectional and the friendship graph is
    /// connected by construction, so *all users form one giant SCC* — the
    /// Gowalla/WeePlaces regime of Table 3, where the RangeReach cost is
    /// dominated by the spatial predicate.
    Symmetric,
    /// Directed "follows"; each edge is reciprocated independently with the
    /// given probability, producing many SCCs of varying size — the
    /// Foursquare/Yelp regime, where the cost is split between predicates.
    Directed {
        /// Probability that a follow edge is reciprocated.
        reciprocation: f64,
    },
}

/// A recipe for one synthetic geosocial network.
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    /// Display name ("Foursquare", ...).
    pub name: &'static str,
    /// Number of social vertices (users).
    pub users: usize,
    /// Number of spatial vertices (venues).
    pub venues: usize,
    /// Number of friendship *pairs* to draw among users.
    pub friendships: usize,
    /// Number of check-in edges (user -> venue) to draw; duplicates
    /// collapse, mirroring how repeated real check-ins dedup into one edge.
    pub checkins: usize,
    /// Friendship regime.
    pub style: FriendshipStyle,
    /// Number of Gaussian "cities" venues cluster around.
    pub cities: usize,
    /// City standard deviation as a fraction of the space side length.
    pub city_sigma: f64,
    /// Zipf skew of user activity and venue popularity (0 = uniform).
    pub skew: f64,
    /// The embedding space.
    pub space: Rect,
    /// RNG seed; the same spec always generates the same network.
    pub seed: u64,
}

impl NetworkSpec {
    /// Scaled analog of **Foursquare** (Table 3: 2.12M users, 1.13M venues,
    /// 19.7M edges, 1.4M SCCs with a 1.85M-vertex giant SCC). `scale = 1.0`
    /// corresponds to ~1% of the original.
    pub fn foursquare(scale: f64) -> NetworkSpec {
        NetworkSpec {
            name: "Foursquare",
            users: scaled(21_200, scale),
            venues: scaled(11_300, scale),
            friendships: scaled(149_000, scale),
            checkins: scaled(48_000, scale),
            style: FriendshipStyle::Directed { reciprocation: 0.5 },
            cities: 40,
            city_sigma: 0.02,
            skew: 1.0,
            space: default_space(),
            seed: 0xF0F0_0001,
        }
    }

    /// Scaled analog of **Gowalla** (407K users, 2.72M venues, 23.8M edges;
    /// all users in one SCC).
    pub fn gowalla(scale: f64) -> NetworkSpec {
        NetworkSpec {
            name: "Gowalla",
            users: scaled(4_100, scale),
            venues: scaled(27_200, scale),
            friendships: scaled(24_000, scale),
            checkins: scaled(214_000, scale),
            style: FriendshipStyle::Symmetric,
            cities: 60,
            city_sigma: 0.02,
            skew: 0.8,
            space: default_space(),
            seed: 0xF0F0_0002,
        }
    }

    /// Scaled analog of **WeePlaces** (16K users, 971K venues, 2.76M edges;
    /// all users in one SCC). Scaled a bit above 1% so it stays non-trivial.
    pub fn weeplaces(scale: f64) -> NetworkSpec {
        NetworkSpec {
            name: "WeePlaces",
            users: scaled(800, scale),
            venues: scaled(19_400, scale),
            friendships: scaled(4_500, scale),
            checkins: scaled(51_000, scale),
            style: FriendshipStyle::Symmetric,
            cities: 50,
            city_sigma: 0.025,
            skew: 0.8,
            space: default_space(),
            seed: 0xF0F0_0003,
        }
    }

    /// Scaled analog of **Yelp** (1.99M users, 150K venues, 21.4M edges,
    /// 1.24M SCCs with a 0.89M-vertex giant SCC).
    pub fn yelp(scale: f64) -> NetworkSpec {
        NetworkSpec {
            name: "Yelp",
            users: scaled(19_900, scale),
            venues: scaled(1_500, scale),
            friendships: scaled(144_000, scale),
            checkins: scaled(70_000, scale),
            style: FriendshipStyle::Directed { reciprocation: 0.2 },
            cities: 12,
            city_sigma: 0.03,
            skew: 1.2,
            space: default_space(),
            seed: 0xF0F0_0004,
        }
    }

    /// The four dataset analogs, in Table 3 order.
    pub const PRESETS: [fn(f64) -> NetworkSpec; 4] =
        [NetworkSpec::foursquare, NetworkSpec::gowalla, NetworkSpec::weeplaces, NetworkSpec::yelp];

    /// All four dataset analogs at the given scale, in Table 3 order.
    pub fn paper_datasets(scale: f64) -> Vec<NetworkSpec> {
        NetworkSpec::PRESETS.iter().map(|preset| preset(scale)).collect()
    }

    /// Generates the network. Deterministic in the spec (including seed).
    pub fn generate(&self) -> GeosocialNetwork {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_users = self.users.max(2);
        let n_venues = self.venues.max(1);
        let n = n_users + n_venues;

        // City centres, padded away from the space border.
        let w = self.space.width();
        let h = self.space.height();
        let centers: Vec<Point> = (0..self.cities.max(1))
            .map(|_| {
                Point::new(
                    self.space.min_x + w * rng.gen_range(0.1..0.9),
                    self.space.min_y + h * rng.gen_range(0.1..0.9),
                )
            })
            .collect();
        let city_sampler = ZipfSampler::new(centers.len(), self.skew);

        // Venue points: Gaussian around a Zipf-popular city, clamped into
        // the space.
        let sigma = self.city_sigma * w.min(h);
        let mut venue_city = Vec::with_capacity(n_venues);
        let mut points: Vec<Option<Point>> = vec![None; n];
        for venue in 0..n_venues {
            let city = city_sampler.sample(&mut rng);
            venue_city.push(city);
            let c = centers[city];
            let p = Point::new(
                (c.x + gaussian(&mut rng) * sigma).clamp(self.space.min_x, self.space.max_x),
                (c.y + gaussian(&mut rng) * sigma).clamp(self.space.min_y, self.space.max_y),
            );
            points[n_users + venue] = Some(p);
        }

        // Per-city venue lists for locality-biased check-ins.
        let mut city_venues: Vec<Vec<u32>> = vec![Vec::new(); centers.len()];
        for (venue, &city) in venue_city.iter().enumerate() {
            city_venues[city].push(venue as u32);
        }

        // Users: a home city and a Zipf activity weight.
        let user_city: Vec<usize> = (0..n_users).map(|_| city_sampler.sample(&mut rng)).collect();
        let user_sampler = ZipfSampler::new(n_users, self.skew);
        let venue_sampler = ZipfSampler::new(n_venues, self.skew);

        let mut builder = GraphBuilder::with_capacity(n, self.friendships * 2 + self.checkins);
        for v in 0..n as VertexId {
            builder.ensure_vertex(v);
        }

        // Friendships.
        match self.style {
            FriendshipStyle::Symmetric => {
                // A random spanning chain guarantees one giant user SCC,
                // exactly reproducing the "# vertices in largest SCC =
                // # users" rows of Table 3.
                let mut perm: Vec<u32> = (0..n_users as u32).collect();
                for i in (1..perm.len()).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                for pair in perm.windows(2) {
                    builder.add_undirected_edge(pair[0], pair[1]);
                }
                for _ in 0..self.friendships.saturating_sub(n_users - 1) {
                    let a = user_sampler.sample(&mut rng) as u32;
                    let b = user_sampler.sample(&mut rng) as u32;
                    if a != b {
                        builder.add_undirected_edge(a, b);
                    }
                }
            }
            FriendshipStyle::Directed { reciprocation } => {
                for _ in 0..self.friendships {
                    let a = user_sampler.sample(&mut rng) as u32;
                    let b = user_sampler.sample(&mut rng) as u32;
                    if a == b {
                        continue;
                    }
                    builder.add_edge(a, b);
                    if rng.gen_bool(reciprocation.clamp(0.0, 1.0)) {
                        builder.add_edge(b, a);
                    }
                }
            }
        }

        // Check-ins: user -> venue, 80% biased to the user's home city.
        for _ in 0..self.checkins {
            let user = user_sampler.sample(&mut rng) as u32;
            let city = user_city[user as usize];
            let venue = if !city_venues[city].is_empty() && rng.gen_bool(0.8) {
                let local = &city_venues[city];
                local[rng.gen_range(0..local.len())]
            } else {
                venue_sampler.sample(&mut rng) as u32
            };
            builder.add_edge(user, n_users as u32 + venue);
        }

        // Generated coordinates come from bounded uniform/normal draws,
        // so validation cannot fail.
        #[allow(clippy::expect_used)]
        GeosocialNetwork::new(builder.build(), points).expect("generated points are finite")
    }
}

/// Checks a `--scale` for `presets`: a finite number >= 0 at which each of
/// them gives at most [`io::DEFAULT_MAX_VERTICES`] vertices, the most a
/// network file may hold and still load back.
pub fn check_scale(scale: f64, presets: &[fn(f64) -> NetworkSpec]) -> Result<(), String> {
    if !(scale.is_finite() && scale >= 0.0) {
        return Err(format!("--scale must be a finite number >= 0, got {scale}"));
    }
    let cap = io::DEFAULT_MAX_VERTICES as usize;
    for preset in presets {
        let spec = preset(scale);
        let vertices = spec.users.saturating_add(spec.venues);
        if vertices > cap {
            return Err(format!(
                "--scale {scale} gives {} {vertices} vertices, over the {cap} a network file may hold",
                spec.name
            ));
        }
    }
    Ok(())
}

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale).round() as usize).max(2)
}

fn default_space() -> Rect {
    Rect::new(0.0, 0.0, 1000.0, 1000.0)
}

/// A standard normal sample via Box–Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Exact Zipf sampling over `0..n` by inverse CDF on precomputed cumulative
/// weights (`weight(i) ∝ (i + 1)^-skew`).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `0..n` with the given skew (0 = uniform).
    pub fn new(n: usize, skew: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n.max(1));
        let mut total = 0.0;
        for i in 0..n.max(1) {
            total += ((i + 1) as f64).powf(-skew);
            cumulative.push(total);
        }
        ZipfSampler { cumulative }
    }

    /// Draws one index.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        // `new` always pushes at least one entry (`n.max(1)` iterations).
        #[allow(clippy::expect_used)]
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= x).min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_core::PreparedNetwork;

    #[test]
    fn generation_is_deterministic() {
        let spec = NetworkSpec::yelp(0.05);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.graph().num_edges(), b.graph().num_edges());
        let ea: Vec<_> = a.graph().edges().collect();
        let eb: Vec<_> = b.graph().edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn symmetric_style_gives_one_giant_user_scc() {
        let spec = NetworkSpec::gowalla(0.05);
        let net = spec.generate();
        let users = spec.users;
        let prep = PreparedNetwork::new(net);
        let stats = prep.stats();
        assert_eq!(stats.largest_scc, users, "all users in one SCC (Table 3 regime)");
        assert_eq!(stats.sccs, stats.vertices - users + 1, "venues are singleton SCCs");
    }

    #[test]
    fn directed_style_gives_many_sccs() {
        let spec = NetworkSpec::foursquare(0.05);
        let net = spec.generate();
        let prep = PreparedNetwork::new(net);
        let stats = prep.stats();
        assert!(stats.sccs > spec.venues, "more components than venues");
        assert!(
            stats.largest_scc > spec.users / 10 && stats.largest_scc < spec.users,
            "a large but partial social core, got {} of {} users",
            stats.largest_scc,
            spec.users
        );
    }

    #[test]
    fn venues_are_spatial_sinks() {
        let spec = NetworkSpec::weeplaces(0.1);
        let n_users = spec.users;
        let net = spec.generate();
        for (v, _) in net.spatial_vertices() {
            assert!(v as usize >= n_users, "spatial vertices are venues");
            assert_eq!(net.graph().out_degree(v), 0, "venues have no outgoing edges");
        }
        assert_eq!(net.num_spatial(), spec.venues);
        // All venue points inside the declared space.
        let space = spec.space;
        for (_, p) in net.spatial_vertices() {
            assert!(space.contains_point(&p));
        }
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let sampler = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            let i = sampler.sample(&mut rng);
            counts[i] += 1;
        }
        assert!(counts[0] > counts[50] * 5, "head much heavier than tail");
        assert!(counts.iter().sum::<usize>() == 20_000);
    }

    #[test]
    fn zipf_uniform_when_skew_zero() {
        let sampler = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "roughly uniform, got {c}");
        }
    }

    #[test]
    fn degree_buckets_are_populated_at_default_scale() {
        // The workload sweeps out-degree buckets up to 200+; the generator
        // must produce such heavy users.
        let net = NetworkSpec::foursquare(1.0).generate();
        let g = net.graph();
        let max_deg = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        assert!(max_deg >= 200, "need 200+ degree vertices, got {max_deg}");
    }
}

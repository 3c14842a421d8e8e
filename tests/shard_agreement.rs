//! Sharded scatter-gather routing vs a single-index oracle.
//!
//! The soundness claim behind `gsr_core::partition`: check-in points are
//! *partitioned* across tiles while every tile keeps the full social
//! graph, so `RangeReach(G, v, R)` equals the OR over shards of the
//! per-shard answer. These tests exercise that claim at 1/2/4/8 shards,
//! under both SCC spatial policies, with query rectangles deliberately
//! chosen to straddle tile boundaries — plus the pruning contract that a
//! rectangle disjoint from every shard MBR answers FALSE with **zero**
//! probes executed, the sharing contract: the tiles of one network
//! hold one `comp_of` and one set of labels, built, saved and loaded, and
//! the router counts every buffer its members count, once — and the two
//! gates that follow from it: eight shards cost at most 1.3× the bytes of
//! one, and MBR pruning keeps the average probes per query below the shard
//! count.

use gsr_core::methods::{GeoReach, SpaReachBfl, SpaReachInt, ThreeDReach};
use gsr_core::{
    partition_tiles, prepared_tiles, tile_network, BatchExecutor, BatchQuery, GeosocialNetwork,
    PreparedNetwork, RangeReachIndex, SccSpatialPolicy, ShardMember, ShardedIndex,
};
use gsr_datagen::faults::ScratchDir;
use gsr_datagen::NetworkSpec;
use gsr_geo::Rect;
use gsr_graph::Column;
use gsr_store::SnapshotIndex;
use std::collections::HashSet;
use std::sync::Arc;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const POLICIES: [SccSpatialPolicy; 2] = [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr];

fn dataset() -> PreparedNetwork {
    PreparedNetwork::new(NetworkSpec::yelp(0.05).generate())
}

/// One 3DReach per tile view of `prep`'s network, with the tile's MBR.
fn build_tiles(
    prep: &PreparedNetwork,
    shards: usize,
    policy: SccSpatialPolicy,
) -> Vec<(ThreeDReach, Option<Rect>)> {
    prepared_tiles(prep.network(), shards)
        .map(|(tile_prep, mbr)| (ThreeDReach::build(&tile_prep, policy), mbr))
        .collect()
}

fn router_over(tiles: Vec<(ThreeDReach, Option<Rect>)>) -> ShardedIndex {
    let members =
        tiles.into_iter().map(|(index, mbr)| ShardMember { index: Arc::new(index), mbr }).collect();
    ShardedIndex::new(members).expect("assemble sharded index")
}

/// Partitions `prep`'s network into `shards` tiles and assembles the
/// scatter-gather router, one 3DReach per tile under `policy`.
fn build_sharded(prep: &PreparedNetwork, shards: usize, policy: SccSpatialPolicy) -> ShardedIndex {
    router_over(build_tiles(prep, shards, policy))
}

/// The columns `index` declares.
fn columns_of(index: &dyn RangeReachIndex) -> Vec<Column<'_>> {
    index.columns().unwrap_or_else(|| panic!("{} declares its columns", index.name())).cols
}

/// The sharing contract on a router, read off the members' column lists:
/// `shared` of the columns a member counts are the same buffer in every
/// member, the rest are its own, and the router's byte count is each
/// distinct buffer once.
fn assert_members_share(router: &ShardedIndex, shared: usize, context: &str) {
    let counted = |m: &ShardMember| -> Vec<(u16, usize, usize)> {
        let cols = columns_of(m.index.as_ref());
        let counted = cols.iter().filter(|c| c.counted && !c.bytes.is_empty());
        counted.map(|c| (c.tag, c.bytes.as_ptr() as usize, c.bytes.len())).collect()
    };
    let members = router.members();
    let first = counted(&members[0]);
    let mut distinct: HashSet<(u16, usize, usize)> = first.iter().copied().collect();
    for m in &members[1..] {
        let held_by_first = counted(m).into_iter().filter(|id| first.contains(id)).count();
        assert_eq!(held_by_first, shared, "{context}: columns a tile shares with tile 0");
        distinct.extend(counted(m));
    }
    let once = distinct.iter().map(|id| id.2).sum::<usize>();
    assert_eq!(router.index_bytes(), once, "{context}");
}

/// The query rectangles: per-tile MBRs (fully inside one tile), bands
/// spanning each pair of consecutive tiles' MBRs (guaranteed to straddle
/// the cut between them), the global extent, and slivers around tile
/// corners.
fn boundary_rects(prep: &PreparedNetwork, shards: usize) -> Vec<Rect> {
    let net = prep.network();
    let mbrs: Vec<Rect> = partition_tiles(net, shards).iter().filter_map(|t| t.mbr).collect();
    let mut rects = Vec::new();
    for m in &mbrs {
        rects.push(*m);
        // A sliver hugging the tile's min corner: partial overlap with
        // this tile, possibly reaching into a neighbor.
        rects.push(Rect::new(
            m.min_x - 0.5,
            m.min_y - 0.5,
            m.min_x + m.width() * 0.25,
            m.min_y + m.height() * 0.25,
        ));
    }
    for pair in mbrs.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        // A band from a's center to b's center straddles the cut line
        // between the two tiles by construction.
        let (acx, acy) = ((a.min_x + a.max_x) / 2.0, (a.min_y + a.max_y) / 2.0);
        let (bcx, bcy) = ((b.min_x + b.max_x) / 2.0, (b.min_y + b.max_y) / 2.0);
        rects.push(Rect::new(acx.min(bcx), acy.min(bcy), acx.max(bcx), acy.max(bcy)));
    }
    if let Some(first) = mbrs.first() {
        let global = mbrs.iter().fold(*first, |g, m| {
            Rect::new(
                g.min_x.min(m.min_x),
                g.min_y.min(m.min_y),
                g.max_x.max(m.max_x),
                g.max_y.max(m.max_y),
            )
        });
        rects.push(global);
    }
    rects
}

/// Every vertex (stride-sampled) x every boundary rectangle, as a batch.
fn queries_for(prep: &PreparedNetwork, rects: &[Rect]) -> Vec<BatchQuery> {
    let n = prep.network().num_vertices() as u32;
    let mut queries = Vec::new();
    for v in (0..n).step_by(7) {
        for r in rects {
            queries.push((v, *r));
        }
    }
    queries
}

#[test]
fn sharded_answers_match_the_single_index_oracle() {
    let prep = dataset();
    let exec = BatchExecutor::new(1);
    for policy in POLICIES {
        let oracle = ThreeDReach::build(&prep, policy);
        for shards in SHARD_COUNTS {
            let tiles = build_tiles(&prep, shards, policy);
            // Same buffer, not equal contents: the tiles (and the unsharded
            // index over the same network) hold handles to one `comp_of`
            // (section 0x10) and one set of labels (0x50, 0x51).
            let whole = columns_of(&oracle);
            for (tile, _) in &tiles {
                for (tile_col, col) in columns_of(tile).iter().zip(&whole) {
                    let shared = [0x10, 0x50, 0x51].contains(&col.tag);
                    assert_eq!(tile_col.same_buffer(col), shared, "section 0x{:02x}", col.tag);
                }
            }
            let sharded = router_over(tiles);
            assert_eq!(sharded.num_shards(), shards);
            if shards > 1 {
                assert_members_share(&sharded, 3, &format!("{policy:?} x{shards}"));
            }
            let queries = queries_for(&prep, &boundary_rects(&prep, shards));
            let want = exec.run(&oracle, &queries);
            for (i, (v, r)) in queries.iter().enumerate().step_by(13) {
                assert_eq!(want[i], prep.range_reach_bfs(*v, r), "oracle vs BFS ({v}, {r})");
            }
            // Scatter path (the server's batch route) ...
            let got = sharded.scatter(&exec, &queries);
            assert_eq!(got, want, "{policy:?} x{shards}: scatter disagrees with the oracle");
            // ... and the per-query route path must agree too.
            for (i, (v, r)) in queries.iter().enumerate().step_by(11) {
                assert_eq!(
                    sharded.query(*v, r),
                    want[i],
                    "{policy:?} x{shards}: route({v}, {r}) disagrees"
                );
                // One tile is the whole network: same work, counter for
                // counter, as the unsharded index.
                if shards == 1 {
                    assert_eq!(sharded.query_with_cost(*v, r), oracle.query_with_cost(*v, r));
                }
            }
        }
    }
}

/// Accounting is by identity, not by shard count: tiles built from
/// independent networks share nothing, and their router reports the sum.
#[test]
fn a_router_over_independent_tiles_reports_the_full_sum() {
    let prep = dataset();
    let net = prep.network();
    let members: Vec<ShardMember> = partition_tiles(net, 4)
        .iter()
        .map(|tile| {
            let view = tile_network(net, tile).expect("tile network");
            let points = net.graph().vertices().map(|v| view.point(v)).collect();
            let own = GeosocialNetwork::new(net.graph().clone(), points).expect("tile network");
            let index = ThreeDReach::build(&PreparedNetwork::new(own), SccSpatialPolicy::Replicate);
            ShardMember { index: Arc::new(index), mbr: tile.mbr }
        })
        .collect();
    let sum: usize = members.iter().map(|m| m.index.index_bytes()).sum();
    let independent = ShardedIndex::new(members).expect("assemble sharded index");
    assert_eq!(independent.index_bytes(), sum);

    // The same tiles as views of one network answer the same and cost a
    // fraction of that.
    let shared = build_sharded(&prep, 4, SccSpatialPolicy::Replicate);
    assert!(shared.index_bytes() < sum / 2, "{} vs {sum}", shared.index_bytes());
    for (v, r) in queries_for(&prep, &boundary_rects(&prep, 4)).iter().step_by(17) {
        assert_eq!(shared.query_with_cost(*v, r), independent.query_with_cost(*v, r));
    }
}

/// What the tiles of one network share differs by method, and the router's
/// total is the members' sum less the repeats of exactly the *counted*
/// shared bytes: the condensation DAG inside every SpaReach-BFL (4 columns),
/// nothing under SpaReach-INT (each tile labels the DAG itself), `comp_of`
/// and the DAG in GeoReach (5). `comp_of` is one buffer in all of them, but
/// SpaReach does not count it — so it is not to be subtracted either.
#[test]
fn a_router_counts_what_each_method_shares_once() {
    let prep = dataset();
    let dag_bytes = prep.dag().heap_bytes();
    let comp_of_bytes = 4 * prep.network().num_vertices();
    type Build = fn(&PreparedNetwork) -> Arc<dyn RangeReachIndex>;
    let methods: [(&str, Build, usize, usize); 3] = [
        (
            "SpaReach-BFL",
            |p| Arc::new(SpaReachBfl::build(p, SccSpatialPolicy::Replicate)),
            4,
            dag_bytes,
        ),
        ("SpaReach-INT", |p| Arc::new(SpaReachInt::build(p, SccSpatialPolicy::Replicate)), 0, 0),
        ("GeoReach", |p| Arc::new(GeoReach::build(p)), 5, dag_bytes + comp_of_bytes),
    ];
    for (name, build, shared_columns, shared_bytes) in methods {
        for shards in [2, 8] {
            let members: Vec<ShardMember> = prepared_tiles(prep.network(), shards)
                .map(|(tile_prep, mbr)| ShardMember { index: build(&tile_prep), mbr })
                .collect();
            let sum: usize = members.iter().map(|m| m.index.index_bytes()).sum();
            let router = ShardedIndex::new(members).expect("assemble sharded index");
            assert_eq!(
                router.index_bytes(),
                sum - (shards - 1) * shared_bytes,
                "{name} x{shards}: {sum} B in the members, {shared_bytes} B of it shared"
            );
            assert_members_share(&router, shared_columns, &format!("{name} x{shards}"));
        }
    }
}

/// Tiles are views, not copies: eight shards hold at most 1.3× the bytes of
/// one (6.7× when every tile carried its own social index).
#[test]
fn eight_shards_hold_at_most_1_3x_the_bytes_of_one() {
    let prep = dataset();
    let one = build_sharded(&prep, 1, SccSpatialPolicy::Replicate).index_bytes();
    let eight = build_sharded(&prep, 8, SccSpatialPolicy::Replicate).index_bytes();
    assert!(eight as f64 <= 1.3 * one as f64, "8 shards hold {eight} B, 1 shard {one} B");
}

/// MBR pruning fires: over the boundary workload, a multi-shard router
/// probes fewer tiles per query than it holds.
#[test]
fn multi_shard_routers_probe_fewer_tiles_per_query_than_they_hold() {
    let prep = dataset();
    let exec = BatchExecutor::new(1);
    for shards in [2, 4, 8] {
        let sharded = build_sharded(&prep, shards, SccSpatialPolicy::Replicate);
        let queries = queries_for(&prep, &boundary_rects(&prep, shards));
        sharded.reset_shard_stats();
        sharded.scatter(&exec, &queries);
        let stats = sharded.shard_stats().expect("a router reports shard stats");
        let per_query = stats.probes as f64 / queries.len() as f64;
        assert!(
            per_query < shards as f64,
            "{shards} shards: {per_query:.2} probes per query, {} pruned",
            stats.pruned
        );
    }
}

#[test]
fn rectangles_outside_every_mbr_answer_false_with_zero_probes() {
    let prep = dataset();
    let exec = BatchExecutor::new(1);
    for shards in SHARD_COUNTS {
        let sharded = build_sharded(&prep, shards, SccSpatialPolicy::Replicate);
        let mbrs: Vec<Rect> = sharded.members().iter().filter_map(|m| m.mbr).collect();
        assert!(!mbrs.is_empty());
        let max_x = mbrs.iter().fold(f64::MIN, |acc, m| acc.max(m.max_x));
        let max_y = mbrs.iter().fold(f64::MIN, |acc, m| acc.max(m.max_y));
        let outside = Rect::new(max_x + 10.0, max_y + 10.0, max_x + 20.0, max_y + 20.0);
        for m in &mbrs {
            assert!(!m.intersects(&outside), "fixture rect must miss every MBR");
        }

        let n = prep.network().num_vertices() as u32;
        let queries: Vec<BatchQuery> = (0..n).step_by(5).map(|v| (v, outside)).collect();

        sharded.reset_shard_stats();
        let scatter_answers = sharded.scatter(&exec, &queries);
        assert!(
            scatter_answers.iter().all(|a| !a),
            "{shards} shards: nothing is reachable outside every MBR"
        );
        assert_eq!(sharded.probes(), 0, "{shards} shards: scatter must not probe");
        assert_eq!(
            sharded.pruned(),
            (shards * queries.len()) as u64,
            "{shards} shards: every shard is pruned for every query"
        );

        sharded.reset_shard_stats();
        for &(v, r) in queries.iter().step_by(3) {
            assert!(!sharded.query(v, &r));
        }
        assert_eq!(sharded.probes(), 0, "{shards} shards: route must not probe");
    }
}

#[test]
fn sharded_snapshot_round_trips_through_the_store() {
    let prep = dataset();
    let exec = BatchExecutor::new(1);
    let scratch = ScratchDir::new("gsr_shard_agreement_roundtrip").expect("scratch dir");
    for policy in POLICIES {
        let oracle = ThreeDReach::build(&prep, policy);
        for shards in SHARD_COUNTS {
            let built: Vec<(SnapshotIndex, Option<Rect>)> = build_tiles(&prep, shards, policy)
                .into_iter()
                .map(|(index, mbr)| (SnapshotIndex::ThreeDReach(index), mbr))
                .collect();
            let dir = scratch.path().join(format!("{policy:?}-{shards}"));
            gsr_store::shard::save_sharded_to_path(&dir, &built).expect("save sharded");
            let (loaded, info) = gsr_store::shard::load_sharded_from_path_with(
                &dir,
                gsr_store::LoadOptions::default(),
            )
            .expect("load sharded");
            assert_eq!(info.format, gsr_store::FORMAT_VERSION);
            assert_eq!(loaded.num_shards(), shards);
            // Shared again after the load: one mapping, N views.
            if shards > 1 {
                assert_members_share(&loaded, 3, &format!("loaded {policy:?} x{shards}"));
            }

            let built = router_over(
                built
                    .into_iter()
                    .map(|(index, mbr)| match index {
                        SnapshotIndex::ThreeDReach(index) => (index, mbr),
                        other => unreachable!("built 3DReach, got {}", other.name()),
                    })
                    .collect(),
            );
            assert_eq!(loaded.index_bytes(), built.index_bytes(), "{policy:?} x{shards}");
            let queries = queries_for(&prep, &boundary_rects(&prep, shards));
            let want = exec.run(&oracle, &queries);
            let got = exec.run(&loaded, &queries);
            assert_eq!(got, want, "{policy:?} x{shards}: loaded set disagrees with the oracle");
            for (v, r) in queries.iter().step_by(11) {
                assert_eq!(
                    loaded.query_with_cost(*v, r),
                    built.query_with_cost(*v, r),
                    "{policy:?} x{shards}: loaded set does different work at ({v}, {r})"
                );
            }
        }
    }

    // `load_served_index` takes the directory like any snapshot path.
    let dir = scratch.path().join("Replicate-4");
    let (served, info) =
        gsr_store::load_served_index(&dir, gsr_store::LoadOptions { trust: false })
            .expect("load sharded");
    assert_eq!(info.format, gsr_store::FORMAT_VERSION);
    assert_eq!(served.shard_stats().expect("a router").shards, 4);
}

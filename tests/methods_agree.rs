//! Every evaluation method, under every SCC policy, must return exactly
//! the BFS ground-truth answer for every query — on DAGs, on cyclic
//! graphs, and on the generated dataset analogs.

use gsr_core::{BatchExecutor, PreparedNetwork, RangeReachIndex};
use gsr_datagen::workload::WorkloadGen;
use gsr_datagen::NetworkSpec;
use gsr_graph::stats::DegreeBucket;
use gsr_tests::{all_snapshots, random_network, random_regions};

fn check_network(prep: &PreparedNetwork, regions: &[gsr_geo::Rect], label: &str) {
    let indexes = all_snapshots(prep);
    let n = prep.network().num_vertices() as u32;
    // Probe a spread of query vertices, not all (keeps runtime bounded).
    let step = (n / 40).max(1);
    for v in (0..n).step_by(step as usize) {
        for region in regions {
            let expected = prep.range_reach_bfs(v, region);
            for (name, idx) in &indexes {
                assert_eq!(
                    idx.query(v, region),
                    expected,
                    "{label}: {name} disagrees with BFS at v={v}, region={region}"
                );
            }
        }
    }
}

#[test]
fn random_cyclic_networks() {
    for seed in 0..6 {
        let net = random_network(150, 500, 0.4, seed);
        let prep = PreparedNetwork::new(net);
        let regions = random_regions(12, seed * 31 + 7);
        check_network(&prep, &regions, &format!("random #{seed}"));
    }
}

#[test]
fn sparse_networks_with_few_spatial_vertices() {
    for seed in 0..4 {
        let net = random_network(200, 180, 0.05, 100 + seed);
        let prep = PreparedNetwork::new(net);
        let regions = random_regions(12, seed * 17 + 3);
        check_network(&prep, &regions, &format!("sparse #{seed}"));
    }
}

#[test]
fn dense_single_scc_network() {
    // Everything reaches everything: the Gowalla regime in the extreme.
    let net = random_network(80, 2500, 0.5, 42);
    let prep = PreparedNetwork::new(net);
    assert!(prep.stats().largest_scc > 60, "expected a giant SCC");
    check_network(&prep, &random_regions(16, 9), "dense");
}

#[test]
fn network_with_no_spatial_vertices() {
    let net = random_network(60, 200, 0.0, 5);
    let prep = PreparedNetwork::new(net);
    let indexes = all_snapshots(&prep);
    for (name, idx) in &indexes {
        for region in random_regions(8, 11) {
            assert!(!idx.query(0, &region), "{name}: nothing spatial, must be FALSE");
        }
    }
}

#[test]
fn generated_dataset_analogs_match_bfs() {
    for spec in NetworkSpec::paper_datasets(0.02) {
        let prep = PreparedNetwork::new(spec.generate());
        let gen = WorkloadGen::new(&prep);
        let indexes = all_snapshots(&prep);
        for bucket in [DegreeBucket::PAPER_BUCKETS[0], DegreeBucket::PAPER_BUCKETS[4]] {
            let workload = gen.extent_degree(5.0, bucket, 30, 77);
            for (v, region) in &workload.queries {
                let expected = prep.range_reach_bfs(*v, region);
                for (name, idx) in &indexes {
                    assert_eq!(
                        idx.query(*v, region),
                        expected,
                        "{}: {name} at v={v}, region={region}",
                        spec.name
                    );
                }
            }
        }
    }
}

#[test]
fn batch_executor_matches_bfs_for_every_method_and_policy() {
    // The agreement oracle, driven through the BatchExecutor: every method
    // under every SCC policy (all_snapshots builds Replicate and Mbr
    // variants) must return the BFS ground truth for the whole batch, in
    // input order, at every thread count — through the `SnapshotIndex`
    // the harness and CLI build.
    for seed in 0..3u64 {
        let net = random_network(130, 420, 0.4, 300 + seed);
        let prep = PreparedNetwork::new(net);
        let regions = random_regions(10, seed * 13 + 1);
        let n = prep.network().num_vertices() as u32;
        let step = (n / 30).max(1);
        let queries: Vec<(u32, gsr_geo::Rect)> = (0..n)
            .step_by(step as usize)
            .flat_map(|v| regions.iter().map(move |r| (v, *r)))
            .collect();
        let expected: Vec<bool> =
            queries.iter().map(|(v, r)| prep.range_reach_bfs(*v, r)).collect();
        for (name, idx) in all_snapshots(&prep) {
            for threads in [1, 2, 4] {
                let exec = BatchExecutor::new(threads);
                assert_eq!(
                    exec.run(&idx, &queries),
                    expected,
                    "seed {seed}: {name} disagrees with BFS at threads={threads}"
                );
                let (answers, _) = exec.run_with_cost(&idx, &queries);
                assert_eq!(
                    answers, expected,
                    "seed {seed}: {name} cost path disagrees at threads={threads}"
                );
            }
        }
    }
}

#[test]
fn self_loops_and_isolated_vertices() {
    use gsr_core::GeosocialNetwork;
    use gsr_geo::{Point, Rect};
    use gsr_graph::GraphBuilder;

    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 0); // self loop on a spatial vertex
    b.add_edge(1, 0);
    // Vertex 2: isolated spatial; vertex 3: isolated social.
    let points = vec![Some(Point::new(10.0, 10.0)), None, Some(Point::new(50.0, 50.0)), None];
    let prep = PreparedNetwork::new(GeosocialNetwork::new(b.build(), points).unwrap());

    let around0 = Rect::square(Point::new(10.0, 10.0), 2.0);
    let around2 = Rect::square(Point::new(50.0, 50.0), 2.0);
    for (name, idx) in all_snapshots(&prep) {
        assert!(idx.query(0, &around0), "{name}: self-loop vertex sees itself");
        assert!(idx.query(1, &around0), "{name}: 1 -> 0");
        assert!(idx.query(2, &around2), "{name}: isolated spatial vertex sees itself");
        assert!(!idx.query(3, &around0), "{name}: isolated social vertex reaches nothing");
        assert!(!idx.query(0, &around2), "{name}: 0 cannot reach 2");
    }
}

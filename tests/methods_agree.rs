//! Every method, under every SCC policy, answers as BFS does on the networks
//! this suite has always checked, each family asked through every path of
//! the differential oracle (`gsr_tests::assert_family`), and through
//! `run_bounded` batches. `tests/oracle.rs` asks the shapes no suite builds.

use gsr_core::{GeosocialNetwork, Method, PreparedNetwork};
use gsr_datagen::NetworkSpec;
use gsr_geo::{Point, Rect};
use gsr_graph::GraphBuilder;
use gsr_tests::{assert_family, assert_oracle, random_cases, random_regions, workload_case, Case};

#[test]
fn random_cyclic_networks() {
    let cases =
        random_cases("random", (150, 500, 0.4), 0..6, 40, |s| random_regions(12, s * 31 + 7));
    assert_family(&cases, &Method::ALL);
}

#[test]
fn sparse_networks_with_few_spatial_vertices() {
    let regions = |s| random_regions(12, (s - 100) * 17 + 3);
    assert_family(&random_cases("sparse", (200, 180, 0.05), 100..104, 40, regions), &Method::ALL);
}

/// Everything reaches everything: the Gowalla regime in the extreme.
#[test]
fn dense_single_scc_network() {
    let cases = random_cases("dense", (80, 2500, 0.5), 42..43, 40, |_| random_regions(16, 9));
    assert!(cases[0].prep.stats().largest_scc > 60, "expected a giant SCC");
    assert_family(&cases, &Method::ALL);
}

#[test]
fn network_with_no_spatial_vertices() {
    let cases = random_cases("no-spatial", (60, 200, 0.0), 5..6, 40, |_| random_regions(8, 11));
    assert!(cases[0].expected.iter().all(|&answer| answer != Some(true)), "nothing is spatial");
    assert_family(&cases, &Method::ALL);
}

#[test]
fn generated_dataset_analogs_match_bfs() {
    let case = |spec| workload_case(spec, &[(0, 30, 77), (4, 30, 77)]);
    let cases: Vec<Case> = NetworkSpec::paper_datasets(0.02).into_iter().map(case).collect();
    assert_family(&cases, &Method::ALL);
}

#[test]
fn batch_executor_matches_bfs_for_every_method_and_policy() {
    let regions = |s| random_regions(10, (s - 300) * 13 + 1);
    let cases = random_cases("batch", (130, 420, 0.4), 300..303, 30, regions);
    assert_oracle(&cases, &Method::ALL, &["batch-1", "batch-2", "batch-4"]);
}

/// A self-loop on a spatial vertex (0), its social source (1), an isolated
/// spatial vertex (2) and an isolated social one (3), with the oracle's
/// answers pinned by hand.
#[test]
fn self_loops_and_isolated_vertices() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 0);
    b.add_edge(1, 0);
    let points = vec![Some(Point::new(10.0, 10.0)), None, Some(Point::new(50.0, 50.0)), None];
    let prep = PreparedNetwork::new(GeosocialNetwork::new(b.build(), points).unwrap());
    let (at0, at2) =
        (Rect::square(Point::new(10.0, 10.0), 2.0), Rect::square(Point::new(50.0, 50.0), 2.0));
    let case = Case::of("self-loops", prep, vec![(0, at0), (1, at0), (2, at2), (3, at0), (0, at2)]);
    assert_eq!(case.expected, [true, true, true, false, false].map(Some));
    assert_family(&[case], &Method::ALL);
}

//! Consistency of the per-query work counters: they must agree with what
//! independent structures report about the same query.

use gsr_core::methods::{GeoReach, SocReach, SpaReachBfl, ThreeDReach};
use gsr_core::{
    BatchExecutor, BatchOptions, PreparedNetwork, QueryCost, RangeReachIndex, SccSpatialPolicy,
};
use gsr_datagen::workload::WorkloadGen;
use gsr_datagen::NetworkSpec;
use gsr_graph::stats::DegreeBucket;
use gsr_index::RTree;

fn setup() -> PreparedNetwork {
    PreparedNetwork::new(NetworkSpec::yelp(0.05).generate())
}

#[test]
fn spareach_candidates_equal_range_query_count() {
    let prep = setup();
    let idx = SpaReachBfl::build(&prep, SccSpatialPolicy::Replicate);

    // Independent count of spatial vertices per region.
    let tree: RTree<2, ()> = RTree::bulk_load(
        prep.network()
            .spatial_vertices()
            .map(|(_, p)| (gsr_geo::Aabb::from_point([p.x, p.y]), ()))
            .collect(),
    );

    let gen = WorkloadGen::new(&prep);
    let w = gen.extent_degree(5.0, DegreeBucket::PAPER_BUCKETS[0], 50, 9);
    for (v, region) in &w.queries {
        let (answer, cost) = idx.query_with_cost(*v, region);
        let expected = tree.count_in(&(*region).into());
        assert_eq!(cost.spatial_candidates, expected, "candidates for {region}");
        // Reach tests stop at the first positive.
        assert!(cost.reach_tests <= cost.spatial_candidates);
        if !answer {
            assert_eq!(
                cost.reach_tests, cost.spatial_candidates,
                "negative answers must test every candidate"
            );
        }
    }
}

#[test]
fn socreach_visits_exactly_its_descendants_on_negatives() {
    let prep = setup();
    let idx = SocReach::build(&prep);
    let gen = WorkloadGen::new(&prep);
    let w = gen.extent_degree(5.0, DegreeBucket::PAPER_BUCKETS[0], 60, 3);
    for (v, region) in &w.queries {
        let (answer, cost) = idx.query_with_cost(*v, region);
        let descendants = idx.descendant_count(*v);
        assert!(cost.vertices_visited <= descendants);
        if !answer {
            assert_eq!(
                cost.vertices_visited, descendants,
                "negative answers must scan the whole descendant set"
            );
        }
    }
}

#[test]
fn georeach_traversal_is_bounded_by_components() {
    let prep = setup();
    let idx = GeoReach::build(&prep);
    let gen = WorkloadGen::new(&prep);
    let w = gen.extent_degree(5.0, DegreeBucket::PAPER_BUCKETS[0], 60, 5);
    for (v, region) in &w.queries {
        let (_, cost) = idx.query_with_cost(*v, region);
        assert!(cost.vertices_visited >= 1, "the start component is always visited");
        assert!(cost.vertices_visited <= prep.num_components());
    }
}

#[test]
fn threedreach_issues_one_query_per_label_on_negatives() {
    let prep = setup();
    let idx = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
    let gen = WorkloadGen::new(&prep);
    let w = gen.extent_degree(5.0, DegreeBucket::PAPER_BUCKETS[0], 60, 7);
    for (v, region) in &w.queries {
        let (answer, cost) = idx.query_with_cost(*v, region);
        let labels = idx.labels().num_intervals(prep.comp(*v));
        assert!(cost.range_queries >= 1);
        assert!(cost.range_queries <= labels);
        if !answer {
            assert_eq!(cost.range_queries, labels, "negatives probe every label");
        }
        // The boolean fast path and the counted path agree.
        assert_eq!(idx.query(*v, region), answer);
    }
}

#[test]
fn batch_cost_accumulates_exactly_the_per_query_costs() {
    // The BatchExecutor's merged counters must be the plain sum of what
    // `query_with_cost` reports per query — for every method that counts
    // work, at every thread count.
    let prep = setup();
    let gen = WorkloadGen::new(&prep);
    let w = gen.extent_degree(5.0, DegreeBucket::PAPER_BUCKETS[0], 80, 21);
    let indexes: Vec<Box<dyn RangeReachIndex>> = vec![
        Box::new(SpaReachBfl::build(&prep, SccSpatialPolicy::Replicate)),
        Box::new(SpaReachBfl::build(&prep, SccSpatialPolicy::Mbr)),
        Box::new(ThreeDReach::build(&prep, SccSpatialPolicy::Replicate)),
        Box::new(SocReach::build(&prep)),
        Box::new(GeoReach::build(&prep)),
    ];
    for idx in &indexes {
        let mut expected = QueryCost::default();
        let expected_answers: Vec<bool> = w
            .queries
            .iter()
            .map(|(v, r)| {
                let (hit, cost) = idx.query_with_cost(*v, r);
                expected.accumulate(&cost);
                hit
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let outcome = BatchExecutor::new(threads).run_bounded(
                idx.as_ref(),
                &w.queries,
                &BatchOptions::unlimited(),
            );
            let answers: Vec<bool> = outcome.answers.iter().flatten().copied().collect();
            assert!(outcome.is_complete(), "{} threads={threads}", idx.name());
            assert_eq!(answers, expected_answers, "{} threads={threads}", idx.name());
            assert_eq!(outcome.cost, expected, "{} threads={threads}", idx.name());
        }
    }
}

#[test]
fn default_query_with_cost_reports_empty_counters() {
    // Methods without an override fall back to zeroed counters.
    struct Trivial;
    impl RangeReachIndex for Trivial {
        fn num_vertices(&self) -> usize {
            1
        }
        fn query_unchecked(&self, _: u32, _: &gsr_geo::Rect) -> bool {
            true
        }
        fn index_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "trivial"
        }
    }
    let (answer, cost) = Trivial.query_with_cost(0, &gsr_geo::Rect::new(0.0, 0.0, 1.0, 1.0));
    assert!(answer);
    assert_eq!(cost, gsr_core::QueryCost::default());
}

//! The per-query work counters keep each method's law (which the
//! differential oracle, `gsr_tests::assert_oracle`, checks on every row it
//! builds) on extent/degree workloads over the Yelp analog, and
//! a batch's summed counters are those of its queries at any thread count.

use gsr_core::Method;
use gsr_datagen::NetworkSpec;
use gsr_tests::{assert_oracle, workload_case};

/// `methods` asked a `count`-query workload of `seed` through `paths`.
fn check(methods: &[Method], (count, seed): (usize, u64), paths: &[&str]) {
    let case = workload_case(NetworkSpec::yelp(0.05), &[(0, count, seed)]);
    assert_oracle(&[case], methods, paths);
}

#[test]
fn spareach_candidates_equal_range_query_count() {
    check(&[Method::SpaReachBfl, Method::SpaReachInt], (50, 9), &["built-1"]);
}

#[test]
fn socreach_visits_exactly_its_descendants_on_negatives() {
    check(&[Method::SocReach], (60, 3), &["built-1"]);
}

#[test]
fn georeach_traversal_is_bounded_by_components() {
    check(&[Method::GeoReach], (60, 5), &["built-1"]);
}

#[test]
fn threedreach_issues_one_query_per_label_on_negatives() {
    check(&[Method::ThreeDReach, Method::ThreeDReachRev], (60, 7), &["built-1"]);
}

#[test]
fn batch_cost_accumulates_exactly_the_per_query_costs() {
    check(&Method::ALL, (80, 21), &["batch-1", "batch-2", "batch-4", "batch-8"]);
}

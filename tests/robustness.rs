//! Robustness contract of the fallible query layer: typed errors for bad
//! input on every method, time-budgeted batches with exact partial
//! answers and cooperative cancellation.

use gsr_core::{
    BatchExecutor, BatchOptions, CancelToken, GsrError, OnlineReach, PreparedNetwork, QueryCost,
    RangeReachIndex,
};
use gsr_geo::Rect;
use gsr_tests::{all_snapshots, random_network, random_regions};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn prepared(seed: u64) -> PreparedNetwork {
    PreparedNetwork::new(random_network(120, 400, 0.4, seed))
}

/// Every method (all six static evaluators under both SCC policies and the
/// online evaluator) rejects out-of-range vertices and malformed rectangles
/// with typed errors instead of panicking.
#[test]
fn every_method_rejects_bad_input_without_panicking() {
    let prep = prepared(11);
    let n = prep.network().num_vertices();
    let mut indexes: Vec<(String, Box<dyn RangeReachIndex>)> = all_snapshots(&prep)
        .into_iter()
        .map(|(label, index)| (label, Box::new(index) as Box<dyn RangeReachIndex>))
        .collect();
    indexes.push(("OnlineReach".to_string(), Box::new(OnlineReach::new(Arc::new(prepared(11))))));

    let good = Rect::new(10.0, 10.0, 60.0, 60.0);
    let bad_rects = [
        Rect { min_x: f64::NAN, min_y: 0.0, max_x: 1.0, max_y: 1.0 },
        Rect { min_x: 0.0, min_y: f64::NEG_INFINITY, max_x: 1.0, max_y: 1.0 },
        Rect { min_x: 0.0, min_y: 0.0, max_x: f64::INFINITY, max_y: 1.0 },
        Rect { min_x: 5.0, min_y: 0.0, max_x: 1.0, max_y: 1.0 },
        Rect { min_x: 0.0, min_y: 5.0, max_x: 1.0, max_y: 1.0 },
    ];

    for (label, idx) in &indexes {
        assert_eq!(idx.num_vertices(), n, "{label}");
        // Out-of-range vertices: first invalid id and far beyond.
        for v in [n as u32, u32::MAX] {
            match idx.try_query(v, &good) {
                Err(GsrError::InvalidVertex { vertex, num_vertices }) => {
                    assert_eq!(vertex, v, "{label}");
                    assert_eq!(num_vertices, n, "{label}");
                }
                other => panic!("{label}: expected InvalidVertex for {v}, got {other:?}"),
            }
            assert!(
                matches!(idx.try_query_with_cost(v, &good), Err(GsrError::InvalidVertex { .. })),
                "{label}: cost path must validate too"
            );
        }
        // Malformed rectangles.
        for bad in &bad_rects {
            assert!(
                matches!(idx.try_query(0, bad), Err(GsrError::InvalidRect { .. })),
                "{label}: rect {bad:?} must be rejected"
            );
        }
        // Valid input: try_query agrees with the infallible wrapper.
        for v in [0u32, (n - 1) as u32] {
            assert_eq!(idx.try_query(v, &good).unwrap(), idx.query(v, &good), "{label}");
        }
    }
}

/// Unbounded `run_bounded` agrees with one `try_query` per query for every
/// method at several thread counts.
#[test]
fn bounded_executor_agrees_with_unbounded_on_every_method() {
    let prep = prepared(23);
    let vertices: Vec<u32> = (0..prep.network().num_vertices() as u32).step_by(7).collect();
    let queries: Vec<(u32, Rect)> = vertices
        .iter()
        .flat_map(|&v| random_regions(4, 23 + v as u64).into_iter().map(move |r| (v, r)))
        .collect();
    for (label, idx) in all_snapshots(&prep) {
        let expected: Vec<bool> =
            queries.iter().map(|(v, r)| idx.try_query(*v, r).unwrap()).collect();
        for threads in [1, 3] {
            let outcome =
                BatchExecutor::new(threads).run_bounded(&idx, &queries, &BatchOptions::unlimited());
            assert!(outcome.is_complete(), "{label} threads={threads}");
            assert_eq!(outcome.completed, queries.len(), "{label}");
            let answers: Vec<bool> = outcome.answers.iter().map(|a| a.unwrap()).collect();
            assert_eq!(answers, expected, "{label} threads={threads}");
        }
    }
}

/// Acceptance criterion: a tiny budget on a large online workload returns
/// partial results with `timed_out == true`, and every completed answer
/// agrees with an untimed evaluation of that query.
#[test]
fn tiny_budget_yields_exact_partial_prefix() {
    let prep = Arc::new(PreparedNetwork::new(random_network(2000, 8000, 0.3, 37)));
    let online = OnlineReach::new(prep.clone());
    let regions = random_regions(8, 41);
    let queries: Vec<(u32, Rect)> =
        (0..2000u32).flat_map(|v| regions.iter().map(move |r| (v, *r))).collect();
    assert_eq!(queries.len(), 16_000);

    // One worker: the completed set is exactly a prefix of the input.
    let outcome = BatchExecutor::new(1).run_bounded(
        &online,
        &queries,
        &BatchOptions::unlimited().with_budget(Duration::from_millis(2)),
    );
    assert!(outcome.timed_out, "16k online BFS queries cannot finish in 2ms");
    assert!(!outcome.cancelled);
    assert!(outcome.errors.is_empty());
    assert!(outcome.completed < queries.len(), "partial by construction");
    for (i, answer) in outcome.answers.iter().enumerate() {
        match answer {
            Some(answer) => {
                assert!(i < outcome.completed, "answers form a prefix with one worker");
                let (v, r) = &queries[i];
                assert_eq!(*answer, online.query(*v, r), "query {i} must be exact");
            }
            None => assert!(i >= outcome.completed, "unanswered queries follow the prefix"),
        }
    }
    // The prefix cost equals the sequential cost over the same queries.
    let mut expected_cost = QueryCost::default();
    for (v, r) in &queries[..outcome.completed] {
        expected_cost.accumulate(&online.query_with_cost(*v, r).1);
    }
    assert_eq!(outcome.cost, expected_cost);
}

/// An index wrapper that cancels the shared token after a fixed number of
/// queries — a deterministic stand-in for a caller cancelling mid-batch.
struct CancelAfter<I> {
    inner: I,
    token: CancelToken,
    countdown: AtomicUsize,
}

impl<I: RangeReachIndex> RangeReachIndex for CancelAfter<I> {
    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }
    fn query_unchecked(&self, v: u32, region: &Rect) -> bool {
        if self.countdown.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.token.cancel();
        }
        self.inner.query_unchecked(v, region)
    }
    fn index_bytes(&self) -> usize {
        self.inner.index_bytes()
    }
    fn name(&self) -> &'static str {
        "cancel-after"
    }
}

/// Cancelling mid-batch stops at the next query boundary with the
/// already-computed answers retained.
#[test]
fn cancellation_mid_batch_keeps_partial_answers() {
    let prep = prepared(53);
    let token = CancelToken::new();
    const STOP_AFTER: usize = 25;
    let index = CancelAfter {
        inner: OnlineReach::new(Arc::new(prepared(53))),
        token: token.clone(),
        countdown: AtomicUsize::new(STOP_AFTER),
    };
    let queries: Vec<(u32, Rect)> =
        (0..100u32).map(|v| (v, Rect::new(0.0, 0.0, 100.0, 100.0))).collect();
    let outcome = BatchExecutor::new(1).run_bounded(
        &index,
        &queries,
        &BatchOptions { cancel: Some(token.clone()), ..BatchOptions::unlimited() },
    );
    assert!(outcome.cancelled);
    assert!(!outcome.timed_out);
    assert_eq!(outcome.completed, STOP_AFTER, "one worker stops exactly at the flip");
    for (i, answer) in outcome.answers.iter().enumerate() {
        assert_eq!(answer.is_some(), i < STOP_AFTER, "query {i}");
        if let Some(answer) = answer {
            let (v, r) = &queries[i];
            assert_eq!(*answer, prep.range_reach_bfs(*v, r), "partial answers stay exact");
        }
    }
    assert!(token.is_cancelled());
}

/// A batch mixing valid and invalid queries over every method isolates
/// the failures per query and answers the rest.
#[test]
fn mixed_batches_isolate_invalid_queries_on_every_method() {
    let prep = prepared(89);
    let n = prep.network().num_vertices() as u32;
    let good = Rect::new(0.0, 0.0, 100.0, 100.0);
    let nan = Rect { min_x: f64::NAN, min_y: 0.0, max_x: 1.0, max_y: 1.0 };
    let queries = vec![(0u32, good), (n + 5, good), (1, nan), (2, good)];
    for (label, idx) in all_snapshots(&prep) {
        let outcome = BatchExecutor::new(2).run_bounded(&idx, &queries, &BatchOptions::unlimited());
        assert_eq!(outcome.completed, 4, "{label}");
        assert_eq!(outcome.errors.len(), 2, "{label}");
        assert!(
            matches!(outcome.errors[0], (1, GsrError::InvalidVertex { .. })),
            "{label}: {:?}",
            outcome.errors
        );
        assert!(
            matches!(outcome.errors[1], (2, GsrError::InvalidRect { .. })),
            "{label}: {:?}",
            outcome.errors
        );
        assert_eq!(outcome.answers[0], Some(idx.query(0, &good)), "{label}");
        assert_eq!(outcome.answers[3], Some(idx.query(2, &good)), "{label}");
        assert!(outcome.answers[1].is_none() && outcome.answers[2].is_none(), "{label}");
    }
}

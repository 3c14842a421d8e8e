//! Batched evaluation of `RangeReach` queries across threads.
//!
//! Index structures are immutable after construction and
//! [`RangeReachIndex`] requires `Send + Sync`, so a shared reference can
//! serve queries from many threads at once. [`BatchExecutor`] packages
//! that pattern with one evaluation loop,
//! [`BatchExecutor::run_bounded_into`]: a slice of `(vertex, region)`
//! queries is split into contiguous chunks, each chunk is evaluated by one
//! worker accumulating its own [`QueryCost`], and the per-worker costs are
//! merged at the end. Every
//! query is validated and runs behind a panic fence, and the workers stop
//! at a budget or a cancellation between queries. Answers come back in
//! input order, and both answers and accumulated cost are identical to a
//! sequential evaluation at any thread count (every query is independent;
//! cost counters are sums, which commute).
//!
//! [`BatchExecutor::run`] and [`BatchExecutor::run_bounded`] are thin
//! wrappers over that loop. The CLI, the server's pipelined batches, the
//! shard router and the tests all run on it.

use crate::error::{validate_query, GsrError};
use crate::{QueryCost, RangeReachIndex};
use gsr_geo::Rect;
use gsr_graph::VertexId;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `RangeReach` query: the source vertex and the query region.
pub type BatchQuery = (VertexId, Rect);

/// A cooperative cancellation handle shared between the caller and a
/// running [`BatchExecutor::run_bounded`] batch.
///
/// Cloning produces another handle to the *same* flag. Workers check the
/// flag between queries, so cancellation stops the batch at the next
/// query boundary — an in-flight query is never interrupted.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Limits applied to a [`BatchExecutor::run_bounded`] run.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Wall-clock budget for the whole batch. Workers compare against the
    /// deadline between queries; `None` means unlimited.
    pub budget: Option<Duration>,
    /// Cooperative cancellation token; `None` means not cancellable.
    pub cancel: Option<CancelToken>,
}

impl BatchOptions {
    /// No budget, no cancellation: every query runs.
    pub fn unlimited() -> Self {
        BatchOptions::default()
    }

    /// Sets the wall-clock budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// The result of a bounded batch run: per-query answers where available,
/// plus what stopped the run early (if anything).
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// One slot per input query, in input order. `Some(answer)` for
    /// queries that completed, `None` for queries skipped due to
    /// timeout/cancellation or that failed (see [`BatchOutcome::errors`]).
    pub answers: Vec<Option<bool>>,
    /// Number of queries attempted (answered or errored) before the run
    /// stopped.
    pub completed: usize,
    /// Whether the time budget expired before every query ran.
    pub timed_out: bool,
    /// Whether the batch was cancelled via its [`CancelToken`].
    pub cancelled: bool,
    /// Per-query failures as `(query index, error)`, sorted by index.
    /// Validation failures and panics land here; the batch keeps going.
    pub errors: Vec<(usize, GsrError)>,
    /// Accumulated work counters over all completed queries.
    pub cost: QueryCost,
}

impl BatchOutcome {
    /// Whether every query produced an answer with no error.
    pub fn is_complete(&self) -> bool {
        !self.timed_out && !self.cancelled && self.errors.is_empty()
    }
}

/// Renders a panic payload into a `GsrError::Internal` message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "query panicked".to_string()
    }
}

/// The early-stop conditions of one bounded run, checked before every
/// query by whichever worker is about to evaluate it.
struct Limits<'a> {
    deadline: Option<Instant>,
    cancel: Option<&'a CancelToken>,
    timed_out: AtomicBool,
    cancelled: AtomicBool,
}

impl Limits<'_> {
    /// Whether the batch must stop before its next query, recording why.
    fn reached(&self) -> bool {
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            self.cancelled.store(true, Ordering::Relaxed);
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.timed_out.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

/// One query of a bounded run: validated, then evaluated behind a panic
/// fence, its work counters added to `cost`.
fn evaluate_isolated<I>(
    index: &I,
    num_vertices: usize,
    v: VertexId,
    region: &Rect,
    cost: &mut QueryCost,
) -> Result<bool, GsrError>
where
    I: RangeReachIndex + ?Sized,
{
    validate_query(num_vertices, v, region)?;
    // Index structures are immutable and queries take &self, so a caught
    // panic cannot leave observable broken state behind.
    match std::panic::catch_unwind(AssertUnwindSafe(|| index.query_with_cost_unchecked(v, region)))
    {
        Ok((hit, query_cost)) => {
            cost.accumulate(&query_cost);
            Ok(hit)
        }
        Err(payload) => Err(GsrError::Internal(panic_message(payload))),
    }
}

/// Evaluates slices of queries against a [`RangeReachIndex`] across N
/// threads.
///
/// ```
/// use gsr_core::methods::ThreeDReach;
/// use gsr_core::{BatchExecutor, SccSpatialPolicy};
/// use gsr_core::paper_example;
///
/// let prep = paper_example::prepared();
/// let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
/// let queries = vec![
///     (paper_example::A, paper_example::query_region()),
///     (paper_example::C, paper_example::query_region()),
/// ];
/// let exec = BatchExecutor::new(2);
/// assert_eq!(exec.run(&index, &queries), vec![true, false]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchExecutor {
    threads: usize,
}

impl Default for BatchExecutor {
    /// One worker per available core.
    fn default() -> Self {
        BatchExecutor::new(0)
    }
}

impl BatchExecutor {
    /// An executor with the given worker count: `0` means machine
    /// parallelism, `1` evaluates inline on the calling thread.
    pub fn new(threads: usize) -> Self {
        BatchExecutor { threads }
    }

    /// The resolved worker count.
    fn threads(&self) -> usize {
        gsr_graph::par::effective_threads(self.threads)
    }

    /// Evaluates every query, returning answers in input order.
    ///
    /// # Panics
    ///
    /// On the first query that fails — an out-of-range vertex, an invalid
    /// region or a panic inside the index — with that error's message, as
    /// [`RangeReachIndex::query`] does. [`BatchExecutor::run_bounded`]
    /// reports such failures per query instead.
    pub fn run<I>(&self, index: &I, queries: &[BatchQuery]) -> Vec<bool>
    where
        I: RangeReachIndex + ?Sized,
    {
        let outcome = self.run_bounded(index, queries, &BatchOptions::unlimited());
        if let Some((_, e)) = outcome.errors.first() {
            panic!("{}: {e}", index.name());
        }
        // Unlimited and error-free, so every slot holds an answer.
        outcome.answers.into_iter().flatten().collect()
    }

    /// Evaluates queries under a wall-clock budget and/or a cancellation
    /// token, with per-query fault isolation.
    ///
    /// Unlike [`BatchExecutor::run`], this never panics on bad input:
    /// out-of-range vertices and non-finite or inverted regions are
    /// reported per query in [`BatchOutcome::errors`], and a panic inside
    /// an index implementation is caught and surfaced as
    /// [`GsrError::Internal`] without poisoning the rest of the batch.
    ///
    /// Workers check the deadline and the token *between* queries
    /// (cooperatively), so an in-flight query always finishes; the
    /// granularity of enforcement is one query. On early stop the
    /// already-computed prefix of answers is retained — answers are
    /// identical to an unbounded run on the completed subset.
    ///
    /// ```
    /// use gsr_core::methods::ThreeDReach;
    /// use gsr_core::{BatchExecutor, BatchOptions, SccSpatialPolicy};
    /// use gsr_core::paper_example;
    /// use std::time::Duration;
    ///
    /// let prep = paper_example::prepared();
    /// let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
    /// let queries = vec![(paper_example::A, paper_example::query_region())];
    /// let exec = BatchExecutor::new(1);
    /// let outcome = exec.run_bounded(
    ///     &index,
    ///     &queries,
    ///     &BatchOptions::unlimited().with_budget(Duration::from_secs(60)),
    /// );
    /// assert!(outcome.is_complete());
    /// assert_eq!(outcome.answers, vec![Some(true)]);
    /// ```
    pub fn run_bounded<I>(
        &self,
        index: &I,
        queries: &[BatchQuery],
        options: &BatchOptions,
    ) -> BatchOutcome
    where
        I: RangeReachIndex + ?Sized,
    {
        let mut outcome = BatchOutcome::default();
        self.run_bounded_into(index, queries, options, &mut outcome);
        outcome
    }

    /// [`BatchExecutor::run_bounded`] into a caller-owned outcome: `out` is
    /// overwritten, and its `answers` and `errors` buffers are reused, so a
    /// caller that runs one batch after another (the query server, once per
    /// flush) allocates nothing per batch. With one worker the queries are
    /// evaluated inline, straight into `out`.
    pub fn run_bounded_into<I>(
        &self,
        index: &I,
        queries: &[BatchQuery],
        options: &BatchOptions,
        out: &mut BatchOutcome,
    ) where
        I: RangeReachIndex + ?Sized,
    {
        let limits = Limits {
            deadline: options.budget.map(|b| Instant::now() + b),
            cancel: options.cancel.as_ref(),
            timed_out: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
        };
        let num_vertices = index.num_vertices();
        out.answers.clear();
        out.errors.clear();
        out.cost = QueryCost::default();

        let threads = self.threads().min(queries.len().max(1));
        if threads == 1 {
            for (i, (v, region)) in queries.iter().enumerate() {
                if limits.reached() {
                    break;
                }
                match evaluate_isolated(index, num_vertices, *v, region, &mut out.cost) {
                    Ok(hit) => out.answers.push(Some(hit)),
                    Err(e) => {
                        out.answers.push(None);
                        out.errors.push((i, e));
                    }
                }
            }
            out.completed = out.answers.len();
            out.answers.resize(queries.len(), None);
        } else {
            let chunk_len = queries.len().div_ceil(threads);
            let chunks: Vec<&[BatchQuery]> = queries.chunks(chunk_len).collect();
            let per_chunk = gsr_graph::par::map_indexed(threads, chunks.len(), |ci| {
                let base = ci * chunk_len;
                let mut local_cost = QueryCost::default();
                let mut rows: Vec<(usize, Result<bool, GsrError>)> =
                    Vec::with_capacity(chunks[ci].len());
                for (offset, (v, region)) in chunks[ci].iter().enumerate() {
                    if limits.reached() {
                        break;
                    }
                    let result =
                        evaluate_isolated(index, num_vertices, *v, region, &mut local_cost);
                    rows.push((base + offset, result));
                }
                (rows, local_cost)
            });

            out.answers.resize(queries.len(), None);
            out.completed = 0;
            for (rows, chunk_cost) in per_chunk {
                out.cost.accumulate(&chunk_cost);
                for (i, result) in rows {
                    out.completed += 1;
                    match result {
                        Ok(hit) => out.answers[i] = Some(hit),
                        Err(e) => out.errors.push((i, e)),
                    }
                }
            }
            out.errors.sort_by_key(|(i, _)| *i);
        }
        out.timed_out = limits.timed_out.into_inner();
        out.cancelled = limits.cancelled.into_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{SpaReachBfl, ThreeDReach};
    use crate::{paper_example, SccSpatialPolicy};

    fn workload() -> Vec<BatchQuery> {
        let prep = paper_example::prepared();
        let mut queries = Vec::new();
        for v in prep.network().graph().vertices() {
            for r in paper_example::probe_regions() {
                queries.push((v, r));
            }
        }
        queries
    }

    #[test]
    fn batch_answers_match_single_queries_at_every_thread_count() {
        let prep = paper_example::prepared();
        let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let queries = workload();
        let expected: Vec<bool> = queries.iter().map(|(v, r)| index.query(*v, r)).collect();
        for threads in [1, 2, 3, 8] {
            let exec = BatchExecutor::new(threads);
            assert_eq!(exec.run(&index, &queries), expected, "threads = {threads}");
        }
    }

    #[test]
    fn batch_cost_equals_sum_of_per_query_costs() {
        let prep = paper_example::prepared();
        let index = SpaReachBfl::build(&prep, SccSpatialPolicy::Mbr);
        let queries = workload();
        let mut expected = QueryCost::default();
        for (v, r) in &queries {
            expected.accumulate(&index.query_with_cost(*v, r).1);
        }
        for threads in [1, 2, 4] {
            let got = BatchExecutor::new(threads).run_bounded(
                &index,
                &queries,
                &BatchOptions::unlimited(),
            );
            assert_eq!(got.cost, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let prep = paper_example::prepared();
        let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let exec = BatchExecutor::new(4);
        assert!(exec.run(&index, &[]).is_empty());
        let outcome = exec.run_bounded(&index, &[], &BatchOptions::unlimited());
        assert!(outcome.answers.is_empty() && outcome.is_complete());
        assert_eq!(outcome.cost, QueryCost::default());
    }

    #[test]
    fn bounded_unlimited_matches_unbounded_run() {
        let prep = paper_example::prepared();
        let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let queries = workload();
        let expected: Vec<bool> = queries.iter().map(|(v, r)| index.query(*v, r)).collect();
        for threads in [1, 2, 4] {
            let outcome = BatchExecutor::new(threads).run_bounded(
                &index,
                &queries,
                &BatchOptions::unlimited(),
            );
            assert!(outcome.is_complete(), "threads = {threads}");
            assert!(!outcome.timed_out && !outcome.cancelled);
            assert_eq!(outcome.completed, queries.len());
            let answers: Vec<bool> = outcome.answers.iter().map(|a| a.unwrap()).collect();
            assert_eq!(answers, expected, "threads = {threads}");
        }
    }

    #[test]
    fn bounded_into_overwrites_a_reused_outcome() {
        let prep = paper_example::prepared();
        let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let good = paper_example::query_region();
        let first = vec![(9999, good), (paper_example::A, good), (9999, good)];
        let second = vec![(paper_example::C, good), (paper_example::A, good)];
        for threads in [1, 2] {
            let exec = BatchExecutor::new(threads);
            let mut out = BatchOutcome::default();
            exec.run_bounded_into(&index, &first, &BatchOptions::unlimited(), &mut out);
            assert_eq!(out.answers, vec![None, Some(true), None], "threads = {threads}");
            assert_eq!(out.errors.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![0, 2]);
            // The second run must leave nothing of the first behind.
            exec.run_bounded_into(&index, &second, &BatchOptions::unlimited(), &mut out);
            let fresh = exec.run_bounded(&index, &second, &BatchOptions::unlimited());
            assert_eq!(out.answers, vec![Some(false), Some(true)], "threads = {threads}");
            assert!(out.is_complete() && out.completed == 2);
            assert_eq!((out.answers, out.cost), (fresh.answers, fresh.cost));
        }
    }

    #[test]
    fn zero_budget_times_out_before_any_query() {
        let prep = paper_example::prepared();
        let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let queries = workload();
        let options = BatchOptions::unlimited().with_budget(std::time::Duration::ZERO);
        let outcome = BatchExecutor::new(2).run_bounded(&index, &queries, &options);
        assert!(outcome.timed_out);
        assert_eq!(outcome.completed, 0);
        assert!(outcome.answers.iter().all(Option::is_none));
    }

    #[test]
    fn pre_cancelled_token_stops_immediately() {
        let prep = paper_example::prepared();
        let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let queries = workload();
        let token = CancelToken::new();
        token.cancel();
        let options = BatchOptions { cancel: Some(token.clone()), ..BatchOptions::unlimited() };
        let outcome = BatchExecutor::new(2).run_bounded(&index, &queries, &options);
        assert!(outcome.cancelled);
        assert!(!outcome.timed_out);
        assert_eq!(outcome.completed, 0);
        assert!(token.is_cancelled());
    }

    #[test]
    fn invalid_queries_are_isolated_not_fatal() {
        let prep = paper_example::prepared();
        let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let good = paper_example::query_region();
        let bad_rect = gsr_geo::Rect { min_x: f64::NAN, min_y: 0.0, max_x: 1.0, max_y: 1.0 };
        let queries = vec![
            (paper_example::A, good),
            (9999, good),                 // out-of-range vertex
            (paper_example::C, bad_rect), // non-finite region
            (paper_example::A, good),
        ];
        let outcome =
            BatchExecutor::new(1).run_bounded(&index, &queries, &BatchOptions::unlimited());
        assert_eq!(outcome.completed, 4, "bad queries still count as attempted");
        assert_eq!(outcome.answers[0], Some(true));
        assert_eq!(outcome.answers[1], None);
        assert_eq!(outcome.answers[2], None);
        assert_eq!(outcome.answers[3], Some(true));
        assert_eq!(outcome.errors.len(), 2);
        assert_eq!(outcome.errors[0].0, 1);
        assert!(matches!(outcome.errors[0].1, crate::GsrError::InvalidVertex { .. }));
        assert_eq!(outcome.errors[1].0, 2);
        assert!(matches!(outcome.errors[1].1, crate::GsrError::InvalidRect { .. }));
    }

    #[test]
    fn run_panics_with_the_first_failed_query() {
        let prep = paper_example::prepared();
        let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let good = paper_example::query_region();
        let queries = vec![(paper_example::A, good), (9999, good), (9998, good)];
        for threads in [1, 2] {
            let exec = BatchExecutor::new(threads);
            let run = AssertUnwindSafe(|| exec.run(&index, &queries));
            let payload = std::panic::catch_unwind(run).unwrap_err();
            let msg = panic_message(payload);
            assert!(msg.starts_with(index.name()), "threads = {threads}: {msg}");
            assert!(msg.contains("9999"), "threads = {threads}: {msg}");
        }
    }

    /// An index whose queries panic — exercises the catch_unwind fence.
    struct Panicky;

    impl crate::RangeReachIndex for Panicky {
        fn num_vertices(&self) -> usize {
            4
        }
        fn query_unchecked(&self, v: VertexId, _region: &Rect) -> bool {
            if v == 2 {
                panic!("injected fault at vertex {v}");
            }
            true
        }
        fn index_bytes(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "panicky"
        }
    }

    #[test]
    fn panicking_index_surfaces_internal_error() {
        let r = paper_example::query_region();
        let queries = vec![(0, r), (2, r), (3, r)];
        // Silence the default panic hook for the injected panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome =
            BatchExecutor::new(1).run_bounded(&Panicky, &queries, &BatchOptions::unlimited());
        std::panic::set_hook(prev);
        assert_eq!(outcome.answers, vec![Some(true), None, Some(true)]);
        assert_eq!(outcome.errors.len(), 1);
        let (idx, err) = &outcome.errors[0];
        assert_eq!(*idx, 1);
        match err {
            crate::GsrError::Internal(msg) => assert!(msg.contains("injected fault")),
            other => panic!("expected Internal, got {other:?}"),
        }
    }

    #[test]
    fn works_through_dyn_trait_objects() {
        let prep = paper_example::prepared();
        let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let dyn_index: &dyn crate::RangeReachIndex = &index;
        let queries = workload();
        let expected: Vec<bool> = queries.iter().map(|(v, r)| dyn_index.query(*v, r)).collect();
        assert_eq!(BatchExecutor::new(2).run(dyn_index, &queries), expected);
    }
}

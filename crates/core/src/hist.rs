//! A lock-free, fixed-bucket, power-of-two latency histogram.
//!
//! This is the one histogram implementation in the workspace: the query
//! server's `STATS` latencies (`gsr-server`'s `ServerStats`) and the shard
//! router's per-shard probe times ([`crate::partition`]) record into it, so
//! every latency the workspace reports is quantized the same way.
//!
//! Recording is a single relaxed atomic increment — the hot path never
//! contends on a lock — at the price of quantiles quantized to bucket
//! upper bounds, which is plenty for service monitoring and for deciding
//! where a saturation sweep's p99 blows up.
//!
//! The bucket layout is a stable contract: bucket `i` counts samples in
//! `[2^i, 2^(i+1))` microseconds, bucket `0` also absorbs sub-microsecond
//! samples, and the last bucket absorbs everything at or past `2^39` µs
//! (~6.4 days). The private `bucket_index` and `bucket_bounds` are that
//! mapping in both directions, and the unit tests pin that the boundaries
//! round-trip.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets. 40 buckets cover up to ~12.7
/// days of recorded latency, far past any realistic request.
const BUCKETS: usize = 40;

/// A fixed-bucket, power-of-two latency histogram; see the module docs
/// for the bucket contract.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

impl LatencyHistogram {
    /// The bucket a sample of `us` microseconds lands in.
    const fn bucket_index(us: u64) -> usize {
        let us = if us == 0 { 1 } else { us };
        let idx = (63 - us.leading_zeros()) as usize;
        if idx < BUCKETS - 1 {
            idx
        } else {
            BUCKETS - 1
        }
    }

    /// The inclusive `[lo, hi]` microsecond range of bucket `index`
    /// (clamped to the last bucket). Bucket 0 reports `[0, 1]` because it
    /// also absorbs sub-microsecond samples; the last bucket's `hi` is its
    /// nominal upper bound, although it absorbs every larger sample too.
    const fn bucket_bounds(index: usize) -> (u64, u64) {
        let index = if index < BUCKETS { index } else { BUCKETS - 1 };
        let lo = if index == 0 { 0 } else { 1u64 << index };
        (lo, (2u64 << index) - 1)
    }

    /// Records one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        self.record_n_us(us, 1);
    }

    /// Records `n` samples of the same latency with one atomic add — what
    /// a server does for a pipelined batch whose queries all share the
    /// batch's wall-clock time.
    pub fn record_n_us(&self, us: u64, n: u64) {
        self.buckets[Self::bucket_index(us)].fetch_add(n, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    #[cfg(test)]
    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the bucket counts.
    fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Zeroes every bucket. Not a transaction: samples recorded
    /// concurrently may land before or after the wipe, which monitoring
    /// (and a sweep step boundary on an idle server) does not need.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding it, in microseconds; 0 when no samples were recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_bounds(i).1;
            }
        }
        Self::bucket_bounds(BUCKETS - 1).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.quantile_us(0.999), 0);
    }

    #[test]
    fn bucket_contract_examples() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(2), 1);
        assert_eq!(LatencyHistogram::bucket_index(1024), 10);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_bounds(0), (0, 1));
        assert_eq!(LatencyHistogram::bucket_bounds(3), (8, 15));
    }

    #[test]
    fn counted_record_equals_repeated_records() {
        let (counted, repeated) = (LatencyHistogram::default(), LatencyHistogram::default());
        for (us, n) in [(0, 3), (100, 1), (5_000, 4096), (7, 0)] {
            counted.record_n_us(us, n);
            for _ in 0..n {
                repeated.record_us(us);
            }
        }
        assert_eq!(counted.bucket_counts(), repeated.bucket_counts());
        assert_eq!(counted.count(), 4100);
    }

    #[test]
    fn reset_zeroes_counts() {
        let h = LatencyHistogram::default();
        for us in [0, 5, 100, 1_000_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 4);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_us(0.99), 0);
    }

    /// Recording into one shared histogram from 1/2/4 threads at once
    /// produces bit-identical bucket counts (and hence quantiles) to
    /// sequential recording of the same samples — a relaxed increment
    /// loses nothing.
    #[test]
    fn histogram_is_thread_count_invariant() {
        // Deterministic LCG sample stream, heavy-tailed like real latencies.
        let samples: Vec<u64> = {
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            (0..10_000)
                .map(|_| {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (state >> 33) % 5_000_000
                })
                .collect()
        };
        let reference = LatencyHistogram::default();
        for &s in &samples {
            reference.record_us(s);
        }
        for threads in [1usize, 2, 4] {
            let hist = LatencyHistogram::default();
            std::thread::scope(|scope| {
                for chunk in samples.chunks(samples.len().div_ceil(threads)) {
                    let hist = &hist;
                    scope.spawn(move || {
                        for &s in chunk {
                            hist.record_us(s);
                        }
                    });
                }
            });
            assert_eq!(hist.bucket_counts(), reference.bucket_counts(), "threads={threads}");
            for q in [0.5, 0.99, 0.999] {
                assert_eq!(
                    hist.quantile_us(q),
                    reference.quantile_us(q),
                    "threads={threads} q={q}"
                );
            }
        }
    }

    proptest! {
        /// Quantiles are monotone in the quantile: for any recorded sample
        /// set and any pair q1 <= q2, quantile(q1) <= quantile(q2).
        #[test]
        fn quantiles_are_monotone(
            samples in prop::collection::vec(0u64..5_000_000, 1..200),
            a in 0.0f64..1.0,
            b in 0.0f64..1.0,
        ) {
            let h = LatencyHistogram::default();
            for &s in &samples {
                h.record_us(s);
            }
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(h.quantile_us(lo) <= h.quantile_us(hi));
            prop_assert!(h.quantile_us(0.0) <= h.quantile_us(1.0));
        }

        /// Bucket boundaries round-trip: both bounds of every bucket map
        /// back to that bucket, and any sample lands inside the bounds of
        /// the bucket it maps to.
        #[test]
        fn bucket_bounds_round_trip(us in 0u64..u64::MAX, i in 0usize..BUCKETS) {
            let (lo, hi) = LatencyHistogram::bucket_bounds(i);
            prop_assert_eq!(LatencyHistogram::bucket_index(lo), i);
            prop_assert_eq!(LatencyHistogram::bucket_index(hi), i);
            prop_assert!(lo <= hi);

            let idx = LatencyHistogram::bucket_index(us);
            let (blo, bhi) = LatencyHistogram::bucket_bounds(idx);
            if idx < BUCKETS - 1 {
                prop_assert!(blo <= us.max(1) && us <= bhi, "us={} in [{}, {}]", us, blo, bhi);
            } else {
                prop_assert!(us.max(1) >= blo, "last bucket absorbs the tail");
            }
        }
    }
}

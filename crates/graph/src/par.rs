//! A minimal scoped-thread work pool for the query side: the chunks of a
//! `gsr_core` `BatchExecutor` and the server's connection workers.
//!
//! [`map_indexed`] runs a batch of *independent* per-item jobs across N OS
//! threads with `std::thread::scope` — no runtime dependencies, no
//! `unsafe` — and places each result by its input index, so the output is
//! identical to the sequential loop regardless of how the scheduler
//! interleaves workers. That placement discipline is what lets the batch
//! tests assert identical answers at every thread count. Index builds are
//! sequential and do not use it.
//!
//! Work is distributed by an atomic cursor (work stealing in its simplest
//! form) rather than pre-chunking, so a few expensive items cannot strand
//! the other workers idle.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested thread count: `0` means "use the machine's
/// available parallelism", anything else is taken as-is.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    }
}

/// Runs `f(i)` for every `i in 0..n` across `threads` workers and returns
/// the results in index order.
///
/// With `threads <= 1` (after [`effective_threads`] resolution of `0`) the
/// loop runs inline on the calling thread — no spawn, no allocation beyond
/// the output — so the sequential path stays zero-overhead.
pub fn map_indexed<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut produced: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    produced.push((i, f(i)));
                }
                produced
            }));
        }
        for handle in handles {
            // A worker panic propagates here, failing the whole call just
            // like the sequential loop would.
            for (i, value) in handle.join().expect("worker thread panicked") {
                slots[i] = Some(value);
            }
        }
    });

    slots.into_iter().map(|slot| slot.expect("every index produced exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_requests_machine_parallelism() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn map_indexed_preserves_order_at_every_thread_count() {
        let expected: Vec<usize> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 8] {
            let got = map_indexed(threads, 257, |i| i * i);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_singleton() {
        assert_eq!(map_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(4, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn map_indexed_uneven_workloads_balance() {
        // Heavily skewed job costs must still produce ordered output.
        let got = map_indexed(4, 64, |i| {
            let spin = if i == 0 { 100_000 } else { 10 };
            (0..spin).fold(i as u64, |acc, x| acc.wrapping_add(x))
        });
        let expected: Vec<u64> = (0..64)
            .map(|i| {
                let spin = if i == 0 { 100_000u64 } else { 10 };
                (0..spin).fold(i as u64, |acc, x| acc.wrapping_add(x))
            })
            .collect();
        assert_eq!(got, expected);
    }
}

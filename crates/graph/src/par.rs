//! A minimal scoped-thread work pool for deterministic parallel
//! construction.
//!
//! Index builds in this workspace decompose into batches of *independent*
//! per-item jobs (one interval union or Bloom filter per DAG vertex within
//! a level, one sort per STR slab). This module runs such
//! batches across N OS threads with `std::thread::scope` — no runtime
//! dependencies, no `unsafe` — and places each result by its input index,
//! so the output is identical to the sequential loop regardless of how the
//! scheduler interleaves workers. That placement discipline is what lets
//! `tests/parallel_determinism.rs` assert byte-identical indexes at every
//! thread count.
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
    map_indexed_with(threads, n, || (), move |(), i| f(i))
}

/// Like [`map_indexed`], but each worker first builds private scratch state
/// with `init` and threads it through its jobs — the pattern for reusable
/// buffers that must not be shared across workers.
pub fn map_indexed_with<S, T, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = effective_threads(threads).min(n.max(1));
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut state = init();
                let mut produced: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    produced.push((i, f(&mut state, i)));
                }
                produced
            }));
        }
        for handle in handles {
            // A worker panic propagates here, failing the whole build just
            // like the sequential loop would.
            for (i, value) in handle.join().expect("worker thread panicked") {
                slots[i] = Some(value);
            }
        }
    });

    slots.into_iter().map(|slot| slot.expect("every index produced exactly once")).collect()
}

/// Consuming variant of [`map_indexed`]: moves each item of `items` into
/// exactly one `f` call and returns the results in input order. For jobs
/// that take ownership of their input (e.g. recursive partitioning of
/// owned buffers).
pub fn map_consume<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let threads = effective_threads(threads).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<I>>> =
        items.into_iter().map(|item| std::sync::Mutex::new(Some(item))).collect();
    map_indexed(threads, slots.len(), |i| {
        let item = slots[i]
            .lock()
            .expect("no worker panics while holding an item lock")
            .take()
            .expect("each item consumed exactly once");
        f(item)
    })
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
    fn map_indexed_with_gives_each_worker_private_state() {
        // Each worker's scratch accumulates only its own jobs; results must
        // still come back in index order.
        let got = map_indexed_with(4, 100, Vec::<usize>::new, |scratch, i| {
            scratch.push(i);
            (i, scratch.len())
        });
        for (idx, (i, seen)) in got.iter().enumerate() {
            assert_eq!(idx, *i);
            assert!(*seen >= 1 && *seen <= 100);
        }
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

    #[test]
    fn map_consume_moves_each_item_once() {
        let items: Vec<Vec<u32>> = (0..40).map(|i| vec![i; 3]).collect();
        for threads in [1, 2, 4] {
            let got = map_consume(threads, items.clone(), |v| v.into_iter().sum::<u32>());
            let expected: Vec<u32> = (0..40).map(|i| i * 3).collect();
            assert_eq!(got, expected, "threads = {threads}");
        }
    }
}

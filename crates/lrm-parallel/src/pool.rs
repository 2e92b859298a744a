//! Worker pool for chunk-parallel compression.
//!
//! The chunk engine in `lrm-core` decomposes a field into z-slabs and
//! compresses each slab independently; slabs compress at very different
//! speeds (PCA on a near-constant slab converges in one sweep, a
//! turbulent slab needs many), so a static split wastes cores. Workers
//! instead take the next item from one shared queue as they free up.
//! Results are returned in submission order, so callers get
//! deterministic output regardless of how the work was scheduled.
//!
//! Implemented on `std` primitives only (scoped threads and one
//! mutex-guarded iterator) — task granularity here is a whole z-slab or
//! matrix block, so queue synchronization cost is noise.

use std::sync::Mutex;

/// A fixed-size pool of worker threads fed from one queue.
///
/// The pool is a lightweight handle: threads are scoped to each
/// [`WorkerPool::run`] call, so a pool can be stored in a config struct
/// and reused without keeping idle threads alive between calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::auto()
    }
}

impl WorkerPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine: one worker per available core.
    pub fn auto() -> Self {
        Self::new(available_threads())
    }

    /// Number of worker threads this pool schedules onto.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, each worker taking the next item as
    /// it frees up, and returns the results **in the order the items
    /// were given** (index-stable, so output is deterministic for any
    /// thread count).
    ///
    /// `f` receives the item's index and the item. With one worker (or
    /// one item) everything runs inline on the calling thread — no
    /// threads are spawned, which keeps the single-threaded path
    /// bitwise identical to plain serial execution.
    ///
    /// # Panics
    /// Propagates a panic from any worker with its original payload.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }

        let queue = Mutex::new(items.into_iter().enumerate());
        let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some((i, item)) = next_item(&queue) {
                            mine.push((i, f(i, item)));
                        }
                        mine
                    })
                })
                .collect();
            // Join explicitly so a worker panic surfaces with its
            // original payload instead of scope's generic message.
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    }
}

/// The next `(index, item)` from the shared queue, or `None` when it is
/// empty. The lock is released before the caller runs the item.
fn next_item<I: Iterator>(queue: &Mutex<I>) -> Option<I::Item> {
    queue.lock().expect("pool: queue poisoned").next()
}

/// Number of hardware threads, with a safe fallback of 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_keep_submission_order() {
        for threads in [1, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            let out = pool.run((0..100).collect(), |i, v: usize| {
                assert_eq!(i, v);
                v * 2
            });
            assert_eq!(out, (0..100).map(|v| v * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = WorkerPool::new(4);
        let out = pool.run(vec![(); 1000], |_, ()| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn uneven_task_costs_are_balanced() {
        // Tasks with wildly different costs still all complete and stay
        // ordered; this exercises the shared queue's balancing.
        let pool = WorkerPool::new(4);
        let out = pool.run((0..32).collect(), |_, v: u64| {
            let spins = if v.is_multiple_of(7) { 200_000 } else { 10 };
            let mut acc = v;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            std::hint::black_box(acc);
            v
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn mutable_slices_can_be_dispatched() {
        // The pattern the numeric kernels use: split a buffer into
        // chunks, process each chunk on the pool.
        let mut data = vec![0.0f64; 64];
        let chunks: Vec<&mut [f64]> = data.chunks_mut(16).collect();
        WorkerPool::new(4).run(chunks, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as f64;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 16) as f64);
        }
    }

    #[test]
    fn empty_input_and_zero_threads_are_fine() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let out: Vec<i32> = pool.run(Vec::<i32>::new(), |_, v| v);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        WorkerPool::new(2).run(vec![0, 1, 2, 3], |_, v: i32| {
            if v == 2 {
                panic!("worker boom");
            }
            v
        });
    }

    #[test]
    fn auto_pool_has_at_least_one_thread() {
        assert!(WorkerPool::auto().threads() >= 1);
        assert!(available_threads() >= 1);
    }
}

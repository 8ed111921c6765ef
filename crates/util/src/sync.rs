//! Panic-robust synchronization shims over `std::sync`.
//!
//! The workspace previously used `parking_lot` for its unpoisonable locks
//! and `crossbeam` for scoped threads and channels. Under the zero-external-
//! dependency policy (DESIGN.md) those shrink to:
//!
//! - [`Mutex`] — a thin wrapper whose guard is acquired without a
//!   `Result`: a poisoned std lock is recovered instead of propagated,
//!   matching `parking_lot` semantics. All workspace invariants are
//!   per-shard and re-established at the start of each operation, so
//!   observing a value from a panicked critical section is safe here.
//! - [`claim_each`] — scoped workers claiming whole work items off one
//!   shared queue (what the crossbeam scoped threads and channels were used
//!   as): the sharded replay claims shards with it, the parameter sweep
//!   grid cells.
//! - [`cores`] — the worker count a `threads: 0` knob resolves to.
//!
//! # Example
//!
//! ```
//! use lhr_util::sync::Mutex;
//!
//! let shard = Mutex::new(vec![1u64, 2, 3]);
//! shard.lock().push(4);                  // no `.unwrap()` — guards are infallible
//! assert_eq!(shard.lock().len(), 4);
//! ```

use std::sync::PoisonError;

/// A mutual-exclusion lock whose [`lock`](Mutex::lock) never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard for [`Mutex`]; derefs to the protected value.
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the lock, returning the value (poison recovered).
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current thread. Poisoning from a
    /// panicked holder is recovered, not propagated.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The cores this process may run on (`std::thread::available_parallelism`),
/// or 1 when that cannot be told: what every `threads: 0` knob resolves to.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `work(worker, index, item)` exactly once for every item of `items`
/// on `threads` threads: the caller's (worker 0) and `threads - 1` scoped
/// ones, never more than there are items. A worker claims the next
/// unclaimed item, in slice order, whenever it finishes its last — so
/// *which* worker runs an item is a race, while each item is only ever
/// touched by the one worker that claimed it. Returns once every item is
/// done; with one thread nothing is spawned.
///
/// # Panics
///
/// A panic in `work` is re-raised on the caller's thread, after the other
/// workers have drained the queue — it never hangs and never detaches a
/// thread.
pub fn claim_each<T: Send>(
    items: &mut [T],
    threads: usize,
    work: impl Fn(usize, usize, &mut T) + Sync,
) {
    let threads = threads.clamp(1, items.len().max(1));
    let queue = Mutex::new(items.iter_mut().enumerate());
    let worker = |w: usize| loop {
        // The guard is a temporary of this statement: the queue is unlocked
        // again before `work` runs.
        let Some((i, item)) = queue.lock().next() else {
            break;
        };
        work(w, i, item);
    };
    std::thread::scope(|scope| {
        let worker = &worker;
        let spawned: Vec<_> = (1..threads)
            .map(|w| scope.spawn(move || worker(w)))
            .collect();
        worker(0);
        for handle in spawned {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn mutex_survives_poison() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: the lock is still usable.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn shared_across_scoped_threads() {
        let m = Mutex::new(0u64);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4000);
    }

    #[test]
    fn claim_each_runs_every_item_once_at_any_thread_count() {
        for threads in [0usize, 1, 2, 3, 8, 64] {
            let mut items = vec![0u32; 37];
            let max_worker = std::sync::atomic::AtomicUsize::new(0);
            claim_each(&mut items, threads, |w, i, item| {
                max_worker.fetch_max(w, std::sync::atomic::Ordering::Relaxed);
                *item += i as u32 + 1;
            });
            let expect: Vec<u32> = (1..=37).collect();
            assert_eq!(items, expect, "threads={threads}");
            assert!(max_worker.into_inner() < threads.clamp(1, 37));
        }
        // Nothing to claim: returns without calling `work`.
        claim_each(&mut [0u8; 0], 4, |_, _, _| unreachable!("no items"));
    }

    #[test]
    fn claim_each_reraises_a_worker_panic_with_its_payload() {
        for threads in [1usize, 2, 8] {
            let mut items = vec![0u32; 16];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                claim_each(&mut items, threads, |_, i, _| {
                    if i == 5 {
                        panic!("item five");
                    }
                });
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item five"));
        }
    }
}

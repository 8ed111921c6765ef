//! Panic-robust synchronization shims over `std::sync`, and the
//! workspace's two fan-out primitives.
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
//! - [`claim_each`] — workers claiming whole items off one queue: the
//!   sharded replay's shards, the sweep's grid cells, the threshold's
//!   shadow caches, `Trace::validate`'s classes, gbm's scoring chunks.
//! - [`crew`] — helpers spawned once that run what the caller submits and
//!   hand it back in order: the CSV reader's chunks, a GBM fit's shards.
//! - [`workers`] — the one spawn-cost rule every fan-out sizes itself by;
//!   [`cores`] / [`resolve_threads`] — what `threads: 0` means.
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

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, PoisonError};

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
}

/// The cores this process may run on (`std::thread::available_parallelism`),
/// or 1 when that cannot be told: what every `threads: 0` knob resolves to.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A thread-count knob: `0` means one thread per core ([`cores`]), anything
/// else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => cores(),
        n => n,
    }
}

/// Cost of one more scoped worker beside the caller — spawn, wake-up and
/// join — on the 2-vCPU reference host: 42–58 µs at the median over 2 000
/// empty `std::thread::scope`s with one worker, 108–122 µs with three.
/// Waking a running thread costs 16–20 µs, which is why a GBM fit keeps
/// one [`crew`] for all its levels.
pub const SPAWN_NS: f64 = 45_000.0;

/// Least work a worker must take off the caller to be worth its spawn: four
/// spawn costs, so the spawn is at most a quarter of the work handed over,
/// and still under half of it when a busy host doubles the spawn.
pub const MIN_SHARE_NS: f64 = 4.0 * SPAWN_NS;

/// How many of `threads` workers `work_ns` of divisible work amortises: one
/// per [`MIN_SHARE_NS`], and always at least the caller. Every fan-out
/// sizes itself by this from an estimate of its work, and reduces in a
/// fixed order, so what it returns never shows in a result.
pub fn workers(threads: usize, work_ns: f64) -> usize {
    threads.min((work_ns / MIN_SHARE_NS) as usize).max(1)
}

/// Runs `work(worker, index, item)` exactly once for every item of `items`
/// on `threads` threads: the caller's (worker 0) and `threads - 1` helpers
/// of a [`crew`], never more than there are items. A worker claims the
/// next unclaimed item, in slice order, whenever it finishes its last — so
/// *which* worker runs an item is a race, while each item is only ever
/// touched by the one worker that claimed it. Returns once every item is
/// done; with one thread nothing is spawned. A panic in `work` is
/// re-raised on the caller with its payload, as [`crew`] does.
pub fn claim_each<T: Send>(
    items: &mut [T],
    threads: usize,
    work: impl Fn(usize, usize, &mut T) + Sync,
) {
    let helpers = threads.clamp(1, items.len().max(1)) - 1;
    let work = |w, (i, item): &mut (usize, &mut T)| work(w, *i, item);
    crew(helpers, work, |crew| {
        items
            .iter_mut()
            .enumerate()
            .for_each(|item| crew.submit(item));
        while crew.next_done().is_some() {}
    });
}

/// Runs `body` beside `helpers` threads that run `work(worker, item)` on
/// the items it [submits](Crew::submit); [`Crew::next_done`] hands them back in
/// submission order. The helpers (workers `1..=helpers`; the caller is
/// worker 0) are spawned once and serve everything `body` submits, so a
/// caller that feeds work in rounds pays for one spawn, not one a round;
/// with no helpers nothing is spawned. The crew closes when `body` returns
/// or unwinds: queued items are dropped unrun, and `crew` returns once
/// every helper has finished the item it holds. Its own buffers are
/// allocated on the calling thread (a helper's allocations would stay in
/// its own malloc arena).
///
/// # Panics
///
/// A panic in a helper's `work` is re-raised on the caller, with its
/// payload: by the `next_done` that finds it, or else when `body` returns.
pub fn crew<T: Send, R>(
    helpers: usize,
    work: impl Fn(usize, &mut T) + Sync,
    body: impl FnOnce(&mut Crew<'_, T>) -> R,
) -> R {
    let shared = CrewShared {
        slots: Mutex::new(Slots {
            items: VecDeque::new(),
            returned: 0,
            claimed: 0,
            closed: false,
            panic: None,
        }),
        queued: Condvar::new(),
        done: Condvar::new(),
    };
    let out = std::thread::scope(|scope| {
        for w in 1..=helpers {
            let (shared, work) = (&shared, &work);
            scope.spawn(move || shared.help(w, work));
        }
        // Dropped on return and in a panic alike, closing the crew.
        body(&mut Crew {
            shared: &shared,
            work: &work,
        })
    });
    if let Some(panic) = shared.slots.into_inner().panic {
        resume_unwind(panic);
    }
    out
}

/// A [`crew`]'s items in flight, between the caller and its helpers.
pub struct Crew<'a, T> {
    shared: &'a CrewShared<T>,
    work: &'a (dyn Fn(usize, &mut T) + Sync),
}

struct CrewShared<T> {
    slots: Mutex<Slots<T>>,
    /// Signalled when an item is queued or the crew closes.
    queued: Condvar,
    /// Signalled when an item is done.
    done: Condvar,
}

/// The items in flight, numbered in submission order from `returned`.
/// They are claimed in that order, so those numbered below `claimed` are
/// running (`None`) or done (`Some`), and the rest are queued.
struct Slots<T> {
    items: VecDeque<Option<T>>,
    returned: usize,
    claimed: usize,
    /// Set when the caller is finished or a helper panicked: helpers leave.
    closed: bool,
    /// A helper's panic, for the caller to re-raise.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T> Slots<T> {
    /// The oldest queued item, and its number.
    fn claim(&mut self) -> Option<(usize, T)> {
        let item = self.items.get_mut(self.claimed - self.returned)?.take()?;
        self.claimed += 1;
        Some((self.claimed - 1, item))
    }

    /// Puts item `at` back, done.
    fn finish(&mut self, at: usize, item: T) {
        let at = at - self.returned;
        self.items[at] = Some(item);
    }
}

fn wait<'a, T>(cv: &Condvar, slots: MutexGuard<'a, Slots<T>>) -> MutexGuard<'a, Slots<T>> {
    cv.wait(slots).unwrap_or_else(PoisonError::into_inner)
}

impl<T> CrewShared<T> {
    /// Helper `w`: runs queued items until the crew closes.
    fn help(&self, w: usize, work: &(dyn Fn(usize, &mut T) + Sync)) {
        let mut slots = self.slots.lock();
        while !slots.closed {
            let Some((at, mut item)) = slots.claim() else {
                slots = wait(&self.queued, slots);
                continue;
            };
            drop(slots);
            let ran = catch_unwind(AssertUnwindSafe(|| work(w, &mut item)));
            slots = self.slots.lock();
            match ran {
                Ok(()) => slots.finish(at, item),
                Err(panic) => {
                    slots.panic = Some(panic);
                    slots.closed = true;
                    self.queued.notify_all();
                }
            }
            self.done.notify_one();
        }
    }
}

impl<T> Crew<'_, T> {
    /// Queues `item` for whichever thread is free first.
    pub fn submit(&mut self, item: T) {
        self.shared.slots.lock().items.push_back(Some(item));
        self.shared.queued.notify_one();
    }

    /// Items submitted and not yet handed back by [`next_done`](Crew::next_done).
    pub fn in_flight(&self) -> usize {
        self.shared.slots.lock().items.len()
    }

    /// The oldest item in flight, once it is done, or `None` if there is
    /// none. Until it is done the caller runs queued items itself, and
    /// waits only while helpers hold every item left.
    pub fn next_done(&mut self) -> Option<T> {
        let mut slots = self.shared.slots.lock();
        loop {
            if let Some(panic) = slots.panic.take() {
                drop(slots);
                resume_unwind(panic);
            }
            if slots.claimed > slots.returned {
                if let Some(item) = slots.items.front_mut()?.take() {
                    slots.items.pop_front();
                    slots.returned += 1;
                    return Some(item);
                }
            }
            if let Some((at, mut item)) = slots.claim() {
                drop(slots);
                (self.work)(0, &mut item);
                slots = self.shared.slots.lock();
                slots.finish(at, item);
            } else if slots.items.is_empty() {
                return None;
            } else {
                slots = wait(&self.shared.done, slots);
            }
        }
    }
}

impl<T> Drop for Crew<'_, T> {
    fn drop(&mut self) {
        self.shared.slots.lock().closed = true;
        self.shared.queued.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

    #[test]
    fn workers_grant_one_per_min_share() {
        assert_eq!(workers(8, MIN_SHARE_NS * 2.5), 2);
        assert_eq!(workers(2, MIN_SHARE_NS * 100.0), 2);
        assert_eq!(workers(0, 0.0), 1);
        assert_eq!(workers(8, MIN_SHARE_NS * 0.9), 1);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(0), cores());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn crew_hands_items_back_in_submission_order() {
        // Bursts of five, as the CSV reader submits: with helpers, a
        // burst's first item waits until the other four are done, so it
        // finishes last of them.
        const N: usize = 25;
        for helpers in [0usize, 1, 3, 7] {
            let done: Vec<AtomicBool> = (0..N).map(|_| AtomicBool::new(false)).collect();
            let finished = Mutex::new(Vec::new());
            let back = crew(
                helpers,
                |_, item: &mut (usize, usize)| {
                    let i = item.0;
                    if helpers > 0 && i.is_multiple_of(5) {
                        while !done[i + 1..i + 5].iter().all(|d| d.load(Ordering::SeqCst)) {
                            std::thread::yield_now();
                        }
                    }
                    item.1 = i * 10;
                    finished.lock().push(i);
                    done[i].store(true, Ordering::SeqCst);
                },
                |crew| {
                    let mut back = Vec::new();
                    for i in 0..N {
                        crew.submit((i, 0));
                        if i % 5 == 4 {
                            back.extend(crew.next_done());
                        }
                    }
                    assert_eq!(crew.in_flight(), N - back.len());
                    while let Some(item) = crew.next_done() {
                        back.push(item);
                    }
                    assert_eq!(crew.in_flight(), 0);
                    assert!(crew.next_done().is_none());
                    back
                },
            );
            let expect: Vec<(usize, usize)> = (0..N).map(|i| (i, i * 10)).collect();
            assert_eq!(back, expect, "helpers={helpers}");
            let finished = finished.into_inner();
            assert_eq!(finished.len(), N, "each item runs once");
            if helpers > 0 {
                assert_ne!(finished, (0..N).collect::<Vec<_>>(), "out of order");
            }
        }
    }

    #[test]
    fn a_crew_without_helpers_runs_everything_on_the_caller() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        crew(
            0,
            |w, item: &mut u32| {
                assert_eq!(w, 0);
                seen.lock().push(std::thread::current().id());
                *item += 1;
            },
            |crew| {
                for i in 0..10 {
                    crew.submit(i);
                }
                for i in 0..10 {
                    assert_eq!(crew.next_done(), Some(i + 1));
                }
            },
        );
        let seen = seen.into_inner();
        assert_eq!(seen.len(), 10);
        assert!(seen.iter().all(|&id| id == caller));
    }

    #[test]
    fn an_early_return_drops_what_is_queued_and_ends_every_helper() {
        for helpers in [1usize, 3] {
            let returning = AtomicBool::new(false);
            let (running, runs) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let got = crew(
                helpers,
                |_, item: &mut u32| {
                    running.fetch_add(1, Ordering::SeqCst);
                    // Everything but the first item is held up until the
                    // body is on its way out.
                    while *item > 0 && !returning.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    runs.fetch_add(1, Ordering::SeqCst);
                    running.fetch_sub(1, Ordering::SeqCst);
                },
                |crew| {
                    for i in 0..200 {
                        crew.submit(i);
                    }
                    // The `?` of an error, say: back with most still queued.
                    let first = crew.next_done();
                    returning.store(true, Ordering::SeqCst);
                    first
                },
            );
            assert_eq!(got, Some(0));
            // `crew` has joined every helper: none is running an item, and
            // each ran at most the one it held when the crew closed.
            assert_eq!(running.load(Ordering::SeqCst), 0);
            let ran = runs.load(Ordering::SeqCst);
            assert!(ran <= 1 + helpers, "queued items were run: {ran}");
        }
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_with_its_payload() {
        let caller = std::thread::current().id();
        let taken = AtomicBool::new(false);
        let work = |_, item: &mut u32| {
            if *item == 3 && std::thread::current().id() != caller {
                taken.store(true, Ordering::SeqCst);
                panic!("helper item three");
            }
        };
        // The caller claims nothing until a helper has taken item 3.
        let until_taken = || {
            while !taken.load(Ordering::SeqCst) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        // Found by `next_done`.
        for helpers in [1usize, 3] {
            taken.store(false, Ordering::SeqCst);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                crew(helpers, work, |crew| {
                    for i in 0..8 {
                        crew.submit(i);
                    }
                    until_taken();
                    while crew.next_done().is_some() {}
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper item three"));
        }
        // Found when the body returns without asking for the item.
        taken.store(false, Ordering::SeqCst);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            crew(1, work, |crew| {
                crew.submit(3);
                until_taken();
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper item three"));
    }
}

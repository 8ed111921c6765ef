//! Sharded, thread-parallel trace replay: partition once, then run each
//! shard start to finish.
//!
//! One core stepping one policy state is the scale ceiling of a plain
//! replay. This module — the driver under [`crate::Simulator::run_sharded`]
//! and `lhr-proto`'s engine and fleet — splits a trace across **shards**,
//! independent per-key-range states, in two stages:
//!
//! 1. **Partition.** The replay takes the trace's requests over and a
//!    counting sort regroups them **in place** by
//!    [`shard_of(id, n_shards)`](shard_of) into a [`Partition`]: each
//!    shard's requests one contiguous group, beside a `u32` per request
//!    that says where in the trace it stood. The trace is fully in memory
//!    before replay starts, so routing is a sort, not a pipeline stage. One
//!    shard is the degenerate partition — the trace reversed, no index
//!    built.
//! 2. **Run.** Each shard's group is stepped start to finish
//!    ([`Partition::run`]). On one thread the shards run one after another
//!    off the end of the buffer, which shrinks as they step past it, so the
//!    trace is given back while the replay runs; with more, scoped workers
//!    claim *whole shards* off a shared queue
//!    ([`lhr_util::sync::claim_each`]) until none is left, and the trace is
//!    freed when the last one finishes. There is no router thread, no
//!    channel and no static shard-to-worker assignment.
//!
//! **A shard's state lives exactly as long as its run.** The worker that
//! claims a shard builds its state, steps it, and consumes it into what the
//! caller merges, in that order and with nothing in between; so however many
//! shards there are, at most one state per worker is alive at any moment.
//! Policies, serving paths and fleet slices are dropped there, on the worker,
//! and only the merge's inputs wait for the other shards.
//!
//! Determinism needs nothing beyond what the partition gives:
//!
//! - The shard count is fixed and independent of the thread count. An
//!   object always lands on `shard_of(id, n_shards)`.
//! - Each shard's subsequence of the trace is stepped **sequentially in
//!   trace order** by exactly one worker, so per-shard state evolves
//!   identically at any thread count.
//! - Shards share nothing, so the order in which *shards* run — and which
//!   worker runs which — cannot be observed. That is what makes the
//!   shard-major order free, and it is also where the speed comes from on
//!   one thread: a shard's tables stay cache-hot for its whole run instead
//!   of all shards' tables cycling through the cache in arrival order.
//! - Results are merged on the caller's thread in fixed shard order
//!   (`0..n_shards`), so floating-point sums associate the same way every
//!   run.
//!
//! Together these make fixed-seed reports and `--obs` exports byte-identical
//! across thread counts (see `ARCHITECTURE.md`, "Determinism contract").

use lhr_trace::{ObjectId, Request, Trace};
use lhr_util::sync::{claim_each, resolve_threads, Mutex};
use std::borrow::Cow;

/// Maps an object id to its owning shard with a splitmix-style avalanche,
/// so sequential ids spread across shards. This is the one hash every
/// sharded component (`Simulator::run_sharded` here, `lhr-proto`'s engine
/// and fleet) must agree on.
#[inline]
pub fn shard_of(id: ObjectId, n_shards: usize) -> usize {
    let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 32;
    // Same value either way; the mask spares the usual power-of-two shard
    // counts (the CLI defaults are 16 and 8) a 64-bit division per request.
    if n_shards.is_power_of_two() {
        (x as usize) & (n_shards - 1)
    } else {
        (x as usize) % n_shards
    }
}

/// Derives a per-shard PRNG seed from a base seed: decorrelated across
/// shards, stable across thread counts. Shared by per-shard fault plans and
/// per-shard learned policies.
#[inline]
pub fn shard_seed(seed: u64, shard: usize) -> u64 {
    let mut x = seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    x
}

/// How many threads run the shards of a [`Partition`].
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// Worker threads; `0` means one per available core. Never more than
    /// there are shards.
    pub threads: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig { threads: 1 }
    }
}

/// A trace with more requests than a multi-shard [`Partition`] can index
/// (its index holds `u32` request indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceTooLong {
    /// The offending trace length.
    pub requests: usize,
}

impl std::fmt::Display for TraceTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace has {} requests; a sharded replay indexes at most {}",
            self.requests,
            u32::MAX
        )
    }
}

impl std::error::Error for TraceTooLong {}

/// The checked `usize → u32` conversion behind the partition's index:
/// the request count as a `u32`, or [`TraceTooLong`] — never a truncation.
/// Callers that take traces from outside the program check here first and
/// report the error; [`Partition::new`] panics on it.
pub fn indexable(requests: usize) -> Result<u32, TraceTooLong> {
    u32::try_from(requests).map_err(|_| TraceTooLong { requests })
}

/// Requests one worker steps between two shrinks of the trace (see
/// [`Partition::run`]).
const BLOCK: usize = 1 << 16;

/// Requests a shard's buffer in [`regroup`] collects before it is written
/// back as one run, at most.
const RUN: usize = 256;

/// Requests [`regroup`]'s buffers may hold in all: with more than 32
/// shards a run is shorter (one request long past this many shards).
const BUFFERED: usize = 1 << 13;

/// Regroups `requests`, the trace **last request first**, by [`shard_of`]:
/// shard `n_shards - 1`'s requests first, shard 0's last, each group in the
/// order it was given. `index` (as long as `requests`) receives each slot's
/// global trace index, and the result is [`Partition`]'s `bounds`.
///
/// The moves are sequential, so each costs about a copy, not a cache miss:
///
/// 1. The requests stream through one buffer per shard. A full buffer (a
///    run of [`RUN`] at most) is written back over requests already read,
///    so the front of the trace fills with runs, each of one shard, in the
///    order they filled; what is left in the buffers is each shard's tail.
/// 2. The runs are swapped into shard order, each shard's in the order
///    they were written.
/// 3. From the last group to the first, each shard's runs move up to
///    where its group begins (never below where they lie, nor over a
///    group not yet moved) and its buffer is written after them.
fn regroup(requests: &mut [Request], index: &mut [u32], n_shards: usize) -> Vec<usize> {
    let len = requests.len();
    let run = (BUFFERED / n_shards).clamp(1, RUN);
    let mut counts = vec![0usize; n_shards];
    let mut buffers: Vec<(Vec<Request>, Vec<u32>)> = (0..n_shards)
        .map(|_| (Vec::with_capacity(run), Vec::with_capacity(run)))
        .collect();
    // The shard of each run written, then the run's place in shard order.
    let mut runs: Vec<usize> = Vec::with_capacity(len / run);
    for r in 0..len {
        let s = shard_of(requests[r].id, n_shards);
        counts[s] += 1;
        let (reqs, idx) = &mut buffers[s];
        reqs.push(requests[r]);
        idx.push((len - 1 - r) as u32);
        if reqs.len() == run {
            // At least `run` requests are read past the runs written so
            // far, so this overwrites only requests already taken.
            let w = runs.len() * run;
            requests[w..w + run].copy_from_slice(reqs);
            index[w..w + run].copy_from_slice(idx);
            reqs.clear();
            idx.clear();
            runs.push(s);
        }
    }
    // Shard `s`'s runs begin at run `first[s]`: the later shards' come first.
    let mut first = vec![0usize; n_shards];
    let mut at = 0;
    for s in (0..n_shards).rev() {
        first[s] = at;
        at += counts[s] / run;
    }
    let mut next = first.clone();
    for place in &mut runs {
        let s = *place;
        *place = next[s];
        next[s] += 1;
    }
    for i in 0..runs.len() {
        while runs[i] != i {
            let j = runs[i];
            let (lo, hi) = (i.min(j) * run, i.max(j) * run);
            let (front, back) = requests.split_at_mut(hi);
            front[lo..lo + run].swap_with_slice(&mut back[..run]);
            let (front, back) = index.split_at_mut(hi);
            front[lo..lo + run].swap_with_slice(&mut back[..run]);
            runs.swap(i, j);
        }
    }
    let mut bounds = vec![len];
    for (s, (reqs, idx)) in buffers.iter().enumerate() {
        let end = bounds[s];
        let start = end - counts[s];
        let (from, full) = (first[s] * run, counts[s] - reqs.len());
        requests.copy_within(from..from + full, start);
        index.copy_within(from..from + full, start);
        requests[start + full..end].copy_from_slice(reqs);
        index[start + full..end].copy_from_slice(idx);
        bounds.push(start);
    }
    bounds
}

/// A trace's requests regrouped by owning shard, in place — built once,
/// before the first step, and consumed as the shards step through it.
///
/// The groups lie in **reverse**: shard 0's at the end of the buffer, shard
/// `n - 1`'s at the front, and each group last request first. So the
/// order one worker runs the shards in — shard 0 first, each in trace
/// order — is the buffer read from its end, and a stepped block is cut off
/// there and its memory given back without moving what is left.
///
/// Because it exists before any shard state does, it can also say exactly
/// how many requests each shard will see ([`Self::measured`]), which is what
/// the serving layers size their per-shard buffers from.
pub struct Partition {
    requests: Vec<Request>,
    /// Each slot's global trace index. Empty for one shard, whose group is
    /// the whole trace reversed: slot `k` holds trace index `len - 1 - k`.
    index: Vec<u32>,
    /// Shard `s`'s group is `requests[bounds[s + 1]..bounds[s]]`; `bounds[0]`
    /// is the trace's length.
    bounds: Vec<usize>,
}

impl Partition {
    /// Regroups `requests` by [`shard_of`] in place: the trace is reversed
    /// and [`regroup`] moves it, in runs, into shard order. Beside the
    /// trace this holds the `u32` index and, while it regroups, a buffer of
    /// up to 256 requests per shard (8 192 in all, or one a shard past that
    /// many shards). One shard
    /// is the degenerate partition: the trace reversed, no index.
    ///
    /// # Panics
    ///
    /// If `n_shards` is zero, or if there are several shards and the trace
    /// is [`TraceTooLong`] for a `u32` index (see [`indexable`]).
    pub fn new(mut requests: Vec<Request>, n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        let len = requests.len();
        if n_shards == 1 {
            requests.reverse();
            return Partition {
                requests,
                index: Vec::new(),
                bounds: vec![len, 0],
            };
        }
        indexable(len).unwrap_or_else(|e| panic!("{e}"));
        requests.reverse();
        let mut index = vec![0u32; len];
        let bounds = regroup(&mut requests, &mut index, n_shards);
        Partition {
            requests,
            index,
            bounds,
        }
    }

    /// The number of shards the trace was split across.
    pub fn n_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// How many of `shard`'s requests lie at or past global trace index
    /// `warmup` — exactly the number of measured requests it will step.
    pub fn measured(&self, shard: usize, warmup: usize) -> usize {
        if self.n_shards() == 1 {
            return self.bounds[0].saturating_sub(warmup);
        }
        // Last first, so the measured requests lead the group.
        self.index[self.bounds[shard + 1]..self.bounds[shard]]
            .partition_point(|&i| i as usize >= warmup)
    }

    /// Steps `requests[from..to]` from its end, in trace order, as
    /// `step(request_index, request)`.
    fn step_slots(&self, from: usize, to: usize, step: &mut impl FnMut(usize, &Request)) {
        let slots = &self.requests[from..to];
        if self.index.is_empty() {
            let len = self.bounds[0];
            for (k, req) in (from..to).zip(slots).rev() {
                step(len - 1 - k, req);
            }
        } else {
            for (&i, req) in self.index[from..to].iter().zip(slots).rev() {
                step(i as usize, req);
            }
        }
    }

    /// Steps the next block of up to [`BLOCK`] of `shard`'s requests off the
    /// end of the buffer, where the shard's group must lie, then cuts the
    /// buffer and the index short past them and shrinks both in place
    /// (glibc `mremap`s a large buffer smaller). Shrunk a block at a time,
    /// not freed whole: freeing a large buffer raises glibc's mmap
    /// threshold, and what is allocated after that lands on the heap, which
    /// does not give memory back. False once the shard is done.
    fn step_block(&mut self, shard: usize, step: &mut impl FnMut(usize, &Request)) -> bool {
        let (first, end) = (self.bounds[shard + 1], self.requests.len());
        let cut = end.saturating_sub(BLOCK).max(first);
        self.step_slots(cut, end, step);
        self.requests.truncate(cut);
        self.requests.shrink_to_fit();
        self.index.truncate(cut);
        self.index.shrink_to_fit();
        cut > first
    }

    /// Runs every shard start to finish on the configured number of worker
    /// threads and returns what `finish` kept of each, in shard order.
    /// Consumes the partition: on one worker, the trace shrinks every
    /// [`BLOCK`] requests as the shards step past them; on several, each
    /// steps its group in place and the trace is freed when the last shard
    /// finishes. Either way it is gone by the time the caller merges.
    ///
    /// The worker that claims shard `s` calls `start(s)` for its state,
    /// `step(state, s, request_index, request)` for each of its requests in
    /// trace order, and `finish(s, state)` right after the last one — so a
    /// state never leaves its worker, and at most one per worker is alive
    /// at any moment (the module docs). `finish` sees each shard's state
    /// exactly as `step` left it at any thread count; see the module docs
    /// for the full determinism argument. A panic in any of the three is
    /// re-raised here.
    pub fn run<S, R: Send>(
        mut self,
        config: &RouteConfig,
        start: impl Fn(usize) -> S + Sync,
        step: impl Fn(&mut S, usize, usize, &Request) + Sync,
        finish: impl Fn(usize, S) -> R + Sync,
    ) -> Vec<R> {
        let n_shards = self.n_shards();
        let threads = resolve_threads(config.threads);
        if threads.min(n_shards) == 1 {
            // One worker takes the shards in the order their groups lie
            // from the buffer's end.
            return (0..n_shards)
                .map(|s| {
                    let mut state = start(s);
                    while self.step_block(s, &mut |i, req| step(&mut state, s, i, req)) {}
                    finish(s, state)
                })
                .collect();
        }
        let mut done: Vec<Option<R>> = (0..n_shards).map(|_| None).collect();
        claim_each(&mut done, threads, |_, s, slot| {
            let mut state = start(s);
            let (from, to) = (self.bounds[s + 1], self.bounds[s]);
            self.step_slots(from, to, &mut |i, req| step(&mut state, s, i, req));
            *slot = Some(finish(s, state));
        });
        done.into_iter()
            .map(|kept| kept.expect("every shard is claimed once"))
            .collect()
    }
}

/// Routes every request of `trace` to its owning shard's state and applies
/// `step(state, shard, request_index, request)` there: partitions the trace
/// across `shards.len()` shards, then runs them ([`Partition::run`]) over
/// the states given. Returns the shard states in shard order. A trace
/// handed over by value is freed as the shards step past it; a borrowed one
/// is cloned first.
pub fn route<'t, S: Send>(
    trace: impl Into<Cow<'t, Trace>>,
    shards: Vec<S>,
    config: &RouteConfig,
    step: impl Fn(&mut S, usize, usize, &Request) + Sync,
) -> Vec<S> {
    let states: Vec<Mutex<Option<S>>> = shards.into_iter().map(|s| Mutex::new(Some(s))).collect();
    Partition::new(trace.into().into_owned().requests, states.len()).run(
        config,
        |s| states[s].lock().take().expect("each shard starts once"),
        step,
        |_, state| state,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::Time;
    use std::collections::HashSet;

    fn trace(n: usize, objects: u64) -> Trace {
        let mut t = Trace::new("shard-test");
        for i in 0..n {
            t.push(Request::new(
                Time::from_secs(i as u64),
                (i as u64 * 7) % objects,
                100,
            ));
        }
        t
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for id in 0..10_000u64 {
            let s = shard_of(id, 16);
            assert!(s < 16);
            assert_eq!(s, shard_of(id, 16));
        }
    }

    #[test]
    fn shard_of_spreads_sequential_ids() {
        let mut counts = [0usize; 8];
        for id in 0..8_000u64 {
            counts[shard_of(id, 8)] += 1;
        }
        for &c in &counts {
            assert!((500..1_500).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn shard_seeds_are_distinct() {
        let seeds: HashSet<u64> = (0..64).map(|s| shard_seed(42, s)).collect();
        assert_eq!(seeds.len(), 64);
        assert!(!seeds.contains(&42), "shard 0 must not reuse the base seed");
    }

    /// What `route` did, shard by shard: the request indices in the order
    /// they were stepped, from a borrowed and from an owned trace. Both
    /// must agree, and every request must be the trace's at its index, on
    /// its own shard.
    fn stepped(t: &Trace, n_shards: usize, threads: usize) -> Vec<Vec<usize>> {
        let config = RouteConfig { threads };
        let step = |seen: &mut Vec<usize>, s, i, req: &Request| {
            assert_eq!(
                *req, t.requests[i],
                "request {i} is not the one at index {i}"
            );
            assert_eq!(
                shard_of(req.id, n_shards),
                s,
                "request {i} on a foreign shard"
            );
            seen.push(i);
        };
        let borrowed = route(t, vec![Vec::new(); n_shards], &config, step);
        let owned = route(t.clone(), vec![Vec::new(); n_shards], &config, step);
        assert_eq!(borrowed, owned, "an owned trace steps as a borrowed one");
        borrowed
    }

    /// What each shard must step: its requests' indices, in trace order.
    fn expected(t: &Trace, n_shards: usize) -> Vec<Vec<usize>> {
        let mut shards = vec![Vec::new(); n_shards];
        for (i, req) in t.iter().enumerate() {
            shards[shard_of(req.id, n_shards)].push(i);
        }
        shards
    }

    #[test]
    fn route_steps_every_index_once_on_its_shard_in_trace_order() {
        use lhr_util::prop::{any_u64, range};
        use lhr_util::{prop_assert_eq, prop_check};
        prop_check!(cases: 24, (len in range(0usize..3_000), objects in range(1u64..400), seed in any_u64()) => {
            let mut t = Trace::new("prop");
            let mut state = seed | 1;
            for i in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                t.push(Request::new(Time::from_secs(i as u64), state % objects, 100));
            }
            for n_shards in [1usize, 2, 5, 16] {
                for threads in [1usize, 2, 3, 8, 64] {
                    prop_assert_eq!(
                        stepped(&t, n_shards, threads),
                        expected(&t, n_shards),
                        "shards={}, threads={}", n_shards, threads
                    );
                }
            }
        });
    }

    #[test]
    fn route_handles_empty_traces_idle_shards_and_spare_threads() {
        // No request at all: every state comes back untouched, in order.
        let empty = Trace::new("empty");
        for n_shards in [1usize, 16] {
            assert_eq!(stepped(&empty, n_shards, 8), vec![Vec::new(); n_shards]);
        }
        // One object: fifteen of sixteen shards receive nothing, and 64
        // threads find at most 16 shards to claim.
        let mut one = Trace::new("one-object");
        for i in 0..100 {
            one.push(Request::new(Time::from_secs(i), 7, 100));
        }
        for threads in [1usize, 2, 8, 64] {
            let shards = stepped(&one, 16, threads);
            for (s, seen) in shards.iter().enumerate() {
                if s == shard_of(7, 16) {
                    assert!(seen.iter().copied().eq(0..100));
                } else {
                    assert!(seen.is_empty());
                }
            }
        }
    }

    #[test]
    fn route_steps_traces_longer_than_a_block_at_1_2_and_8_threads() {
        // Several blocks per shard at 2 shards, and a block boundary that
        // falls inside a shard's group at 8.
        let t = trace(3 * BLOCK + 1_234, 5_000);
        for n_shards in [1usize, 2, 8] {
            let want = expected(&t, n_shards);
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    stepped(&t, n_shards, threads),
                    want,
                    "shards={n_shards}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn one_worker_gives_each_block_back_as_it_steps_past_it() {
        let t = trace(2 * BLOCK + 777, 3_000);
        for n_shards in [1usize, 2, 8] {
            let mut partition = Partition::new(t.requests.clone(), n_shards);
            let mut seen = Vec::new();
            for s in 0..n_shards {
                assert_eq!(partition.requests.len(), partition.bounds[s]);
                loop {
                    let more = partition.step_block(s, &mut |i, _| seen.push(i));
                    // Past every block the buffer holds exactly what is left.
                    assert_eq!(partition.requests.capacity(), partition.requests.len());
                    if n_shards > 1 {
                        assert_eq!(partition.index.capacity(), partition.index.len());
                    }
                    if !more {
                        break;
                    }
                }
                assert_eq!(partition.requests.len(), partition.bounds[s + 1]);
            }
            seen.sort_unstable();
            assert!(seen.into_iter().eq(0..t.len()), "shards={n_shards}");
        }
        // While a shard runs, its buffer is cut down block by block: at one
        // shard the trace's length and capacity fall by a block at a time.
        let mut partition = Partition::new(t.requests.clone(), 1);
        let mut sizes = vec![(partition.requests.len(), partition.requests.capacity())];
        while partition.step_block(0, &mut |_, _| {}) {
            sizes.push((partition.requests.len(), partition.requests.capacity()));
        }
        assert_eq!(
            sizes,
            vec![
                (t.len(), t.len()),
                (t.len() - BLOCK, t.len() - BLOCK),
                (t.len() - 2 * BLOCK, t.len() - 2 * BLOCK),
            ]
        );
        assert_eq!(partition.requests.capacity(), 0);
    }

    #[test]
    fn run_keeps_at_most_one_live_state_per_worker_and_returns_in_shard_order() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let t = trace(4_000, 200);
        for threads in [1usize, 2, 3, 8] {
            let (live, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let kept = Partition::new(t.requests.clone(), 16).run(
                &RouteConfig { threads },
                |_| {
                    most.fetch_max(live.fetch_add(1, SeqCst) + 1, SeqCst);
                    Vec::new()
                },
                |seen: &mut Vec<usize>, _, i, _| seen.push(i),
                |s, seen| {
                    live.fetch_sub(1, SeqCst);
                    (s, seen.len())
                },
            );
            assert_eq!(live.into_inner(), 0, "threads={threads}");
            assert!(most.into_inner() <= threads, "threads={threads}");
            assert!(kept.iter().map(|&(s, _)| s).eq(0..16), "{kept:?}");
            assert_eq!(kept.iter().map(|&(_, n)| n).sum::<usize>(), 4_000);
        }
    }

    #[test]
    fn regroup_lays_out_each_shards_requests_last_first_in_shard_order() {
        use lhr_util::rng::{rngs::StdRng, Rng, SeedableRng};
        use std::cmp::Reverse;
        let mut rng = StdRng::seed_from_u64(5);
        // Shard counts whose runs are `RUN` long (2, 16), shorter (100) and
        // one request long (more shards than `BUFFERED`); lengths around a
        // run and past many.
        for n_shards in [2usize, 3, 16, 100, BUFFERED + 5] {
            for len in [0usize, 1, 2, RUN - 1, RUN, RUN + 1, 3 * RUN + 7, 20_000] {
                let objects = rng.gen_range(1u64..2_000);
                let trace: Vec<Request> = (0..len)
                    .map(|i| {
                        Request::new(Time::from_micros(i as u64), rng.gen_range(0..objects), 1)
                    })
                    .collect();
                // What the layout must be: the shards from last to first,
                // each one's requests last first, with their indices.
                let mut want: Vec<(Request, u32)> =
                    trace.iter().zip(0..).map(|(req, i)| (*req, i)).collect();
                want.sort_by_key(|&(req, i)| Reverse((shard_of(req.id, n_shards), i)));
                let mut requests: Vec<Request> = trace.iter().rev().copied().collect();
                let mut index = vec![0u32; len];
                let bounds = regroup(&mut requests, &mut index, n_shards);
                let got: Vec<(Request, u32)> = requests.into_iter().zip(index).collect();
                assert!(got == want, "shards={n_shards}, len={len}");
                assert_eq!(bounds.len(), n_shards + 1);
                for s in 0..n_shards {
                    let group = &want[bounds[s + 1]..bounds[s]];
                    assert!(group.iter().all(|(req, _)| shard_of(req.id, n_shards) == s));
                }
            }
        }
    }

    #[test]
    fn partition_counts_each_shards_measured_requests_exactly() {
        let t = trace(5_000, 300);
        for n_shards in [1usize, 2, 7, 16] {
            let partition = Partition::new(t.requests.clone(), n_shards);
            assert_eq!(partition.n_shards(), n_shards);
            for warmup in [0usize, 1, 1_234, 2_500, 4_999, 5_000, 9_999] {
                for s in 0..n_shards {
                    let expect = t
                        .iter()
                        .enumerate()
                        .filter(|(i, req)| *i >= warmup && shard_of(req.id, n_shards) == s)
                        .count();
                    assert_eq!(partition.measured(s, warmup), expect);
                }
            }
        }
        // An empty trace measures nothing on any shard.
        for n_shards in [1usize, 16] {
            let empty = Partition::new(Vec::new(), n_shards);
            assert!((0..n_shards).all(|s| empty.measured(s, 0) == 0));
        }
    }

    #[test]
    fn a_panicking_step_reraises_from_route_and_never_hangs() {
        let t = trace(4_000, 200);
        for threads in [1usize, 2, 8] {
            let caught = std::panic::catch_unwind(|| {
                route(&t, vec![(); 8], &RouteConfig { threads }, |_, _, i, _| {
                    if i == 1_000 {
                        panic!("step {i} failed");
                    }
                })
            });
            let payload = caught.expect_err("the step's panic must reach route's caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("step 1000 failed"),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn index_conversion_is_checked_not_truncating() {
        assert_eq!(indexable(0), Ok(0));
        assert_eq!(indexable(u32::MAX as usize), Ok(u32::MAX));
        #[cfg(target_pointer_width = "64")]
        {
            // One past the last index a `u32` holds: `as u32` would wrap
            // this to 0 and silently replay an empty trace.
            let requests = u32::MAX as usize + 1;
            let err = indexable(requests).expect_err("must be refused");
            assert_eq!(err, TraceTooLong { requests });
            let line = err.to_string();
            assert!(
                line.contains("4294967296 requests") && !line.contains('\n'),
                "{line}"
            );
            assert!(indexable(usize::MAX).is_err());
        }
    }
}

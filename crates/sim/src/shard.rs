//! Sharded, thread-parallel trace replay: partition once, then run each
//! shard start to finish.
//!
//! One core stepping one policy state is the scale ceiling of a plain
//! replay. This module — the driver under [`crate::Simulator::run_sharded`]
//! and `lhr-proto`'s engine and fleet — splits a trace across **shards**,
//! independent per-key-range states, in two stages:
//!
//! 1. **Partition.** A counting sort over the trace buckets request
//!    indices by [`shard_of(id, n_shards)`](shard_of) into a [`Partition`]:
//!    a `u32` per request, each shard's bucket in trace order. The trace is
//!    fully in memory before replay starts, so routing is a sort, not a
//!    pipeline stage. One shard is the degenerate partition — the trace
//!    itself, no index built.
//! 2. **Run.** Each shard's bucket is stepped start to finish
//!    ([`Partition::run`]). On one thread the shards run one after another;
//!    with more, scoped workers claim *whole shards* off a shared queue
//!    ([`lhr_util::sync::claim_each`]) until none is left. There is no
//!    router thread, no channel and no static shard-to-worker assignment.
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

use lhr_trace::{ObjectId, Request, Time, Trace};
use lhr_util::sync::{claim_each, resolve_threads, Mutex};

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
/// (its buckets hold `u32` request indices).
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

/// Requests a shard run copies out of the trace at a time (see
/// [`Partition::run`]).
const GATHER: usize = 32;

/// A trace bucketed by owning shard — built once, before the first step.
///
/// Because it exists before any shard state does, it can also say exactly
/// how many requests each shard will see ([`Self::measured`]), which is what
/// the serving layers size their per-shard buffers from.
pub struct Partition<'t> {
    trace: &'t Trace,
    /// Shard `s` owns `order[starts[s]..starts[s + 1]]`.
    starts: Vec<usize>,
    /// Request indices grouped by shard, each group in trace order. Left
    /// empty for one shard, whose group is `0..trace.len()`.
    order: Vec<u32>,
}

impl<'t> Partition<'t> {
    /// Buckets `trace` by [`shard_of`] in two passes (count, then place), so
    /// the index is exactly 4 bytes per request with no growth slack.
    ///
    /// # Panics
    ///
    /// If `n_shards` is zero, or if there are several shards and the trace
    /// is [`TraceTooLong`] for a `u32` index (see [`indexable`]).
    pub fn new(trace: &'t Trace, n_shards: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        if n_shards == 1 {
            return Partition {
                trace,
                starts: vec![0, trace.len()],
                order: Vec::new(),
            };
        }
        let len = indexable(trace.len()).unwrap_or_else(|e| panic!("{e}"));
        let mut starts = vec![0usize; n_shards + 1];
        for req in trace.iter() {
            starts[shard_of(req.id, n_shards) + 1] += 1;
        }
        for s in 0..n_shards {
            starts[s + 1] += starts[s];
        }
        let mut next = starts.clone();
        let mut order = vec![0u32; trace.len()];
        for (i, req) in (0..len).zip(trace.iter()) {
            let slot = &mut next[shard_of(req.id, n_shards)];
            order[*slot] = i;
            *slot += 1;
        }
        Partition {
            trace,
            starts,
            order,
        }
    }

    /// The number of shards the trace was split across.
    pub fn n_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// How many of `shard`'s requests lie at or past global trace index
    /// `warmup` — exactly the number of measured requests it will step.
    pub fn measured(&self, shard: usize, warmup: usize) -> usize {
        if self.n_shards() == 1 {
            return self.trace.len().saturating_sub(warmup);
        }
        let bucket = &self.order[self.starts[shard]..self.starts[shard + 1]];
        bucket.len() - bucket.partition_point(|&i| (i as usize) < warmup)
    }

    /// Runs every shard start to finish on the configured number of worker
    /// threads and returns what `finish` kept of each, in shard order.
    /// Consumes the partition, so the index is freed before the caller
    /// starts merging.
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
        self,
        config: &RouteConfig,
        start: impl Fn(usize) -> S + Sync,
        step: impl Fn(&mut S, usize, usize, &Request) + Sync,
        finish: impl Fn(usize, S) -> R + Sync,
    ) -> Vec<R> {
        let requests = &self.trace.requests[..];
        let mut done: Vec<Option<R>> = (0..self.n_shards()).map(|_| None).collect();
        claim_each(&mut done, resolve_threads(config.threads), |_, s, slot| {
            let mut state = start(s);
            if self.n_shards() == 1 {
                for (i, req) in requests.iter().enumerate() {
                    step(&mut state, s, i, req);
                }
            } else {
                // A shard's requests lie scattered through the trace (at 16
                // shards, about one per cache line) where arrival order
                // streamed them. Copying a block ahead of stepping it issues
                // those loads back to back, so their misses overlap each
                // other instead of each stalling the step that needs it.
                let mut block = [Request::new(Time::ZERO, 0, 0); GATHER];
                for indices in self.order[self.starts[s]..self.starts[s + 1]].chunks(GATHER) {
                    for (slot, &i) in block.iter_mut().zip(indices) {
                        *slot = requests[i as usize];
                    }
                    for (req, &i) in block.iter().zip(indices) {
                        step(&mut state, s, i as usize, req);
                    }
                }
            }
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
/// the states given. Returns the shard states in shard order.
pub fn route<S: Send>(
    trace: &Trace,
    shards: Vec<S>,
    config: &RouteConfig,
    step: impl Fn(&mut S, usize, usize, &Request) + Sync,
) -> Vec<S> {
    let states: Vec<Mutex<Option<S>>> = shards.into_iter().map(|s| Mutex::new(Some(s))).collect();
    Partition::new(trace, states.len()).run(
        config,
        |s| states[s].lock().take().expect("each shard starts once"),
        step,
        |_, state| state,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
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
    /// they were stepped.
    fn stepped(t: &Trace, n_shards: usize, threads: usize) -> Vec<Vec<usize>> {
        route(
            t,
            vec![Vec::new(); n_shards],
            &RouteConfig { threads },
            |seen: &mut Vec<usize>, s, i, req| {
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
            },
        )
    }

    #[test]
    fn route_steps_every_index_once_on_its_shard_in_trace_order() {
        use lhr_util::prop::{any_u64, range};
        use lhr_util::{prop_assert, prop_assert_eq, prop_check};
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
                    let shards = stepped(&t, n_shards, threads);
                    prop_assert_eq!(shards.len(), n_shards);
                    let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
                    all.sort_unstable();
                    prop_assert!(
                        all.iter().copied().eq(0..len),
                        "every index exactly once (shards={n_shards}, threads={threads})"
                    );
                    for seen in &shards {
                        prop_assert!(
                            seen.windows(2).all(|w| w[0] < w[1]),
                            "shard subsequence out of trace order (shards={n_shards}, threads={threads})"
                        );
                    }
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
        let shards = stepped(&one, 16, 64);
        for (s, seen) in shards.iter().enumerate() {
            if s == shard_of(7, 16) {
                assert!(seen.iter().copied().eq(0..100));
            } else {
                assert!(seen.is_empty());
            }
        }
    }

    #[test]
    fn run_keeps_at_most_one_live_state_per_worker_and_returns_in_shard_order() {
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        let t = trace(4_000, 200);
        for threads in [1usize, 2, 3, 8] {
            let (live, most) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let kept = Partition::new(&t, 16).run(
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
    fn partition_counts_each_shards_measured_requests_exactly() {
        let t = trace(5_000, 300);
        for n_shards in [1usize, 2, 7, 16] {
            let partition = Partition::new(&t, n_shards);
            assert_eq!(partition.n_shards(), n_shards);
            for warmup in [0usize, 1, 1_234, 4_999, 5_000, 9_999] {
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

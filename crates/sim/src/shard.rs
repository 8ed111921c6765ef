//! Sharded, thread-parallel trace routing.
//!
//! The single-threaded [`crate::Simulator`] loop is the workspace's scale
//! ceiling: one core replays one request at a time. This module splits a
//! trace across **shards** — independent per-key-range policy states — and
//! replays it with N worker threads feeding those shards over bounded
//! channels, without giving up determinism:
//!
//! - The shard count is fixed and independent of the thread count. An
//!   object always lands on [`shard_of(id, n_shards)`](shard_of).
//! - Each shard's subsequence of the trace is processed **sequentially in
//!   trace order** by exactly one worker (shard `s` is owned by worker
//!   `s % threads`), so per-shard state evolves identically at any thread
//!   count.
//! - Results are merged on the caller's thread in fixed shard order
//!   (`0..n_shards`), so floating-point sums associate the same way every
//!   run.
//!
//! Together these make fixed-seed reports and `--obs` exports byte-identical
//! across thread counts (see `ARCHITECTURE.md`, "Determinism contract").
//!
//! Backpressure: the router thread batches request indices per worker and
//! sends them over [`std::sync::mpsc::sync_channel`] with a bounded queue;
//! when a worker falls behind, the router blocks instead of buffering the
//! whole trace.

use crate::metrics::SimMetrics;
use crate::policy::CachePolicy;
use crate::SimResult;
use lhr_obs::series::{SeriesAcc, Totals};
use lhr_obs::Obs;
use lhr_trace::{ObjectId, Request, Trace};
use lhr_util::sync::mpsc;
use std::time::Instant;

/// Maps an object id to its owning shard with a splitmix-style avalanche,
/// so sequential ids spread across shards. This is the one hash every
/// sharded component (the sharded simulator here, `lhr-proto`'s engine and
/// fleet) must agree on.
#[inline]
pub fn shard_of(id: ObjectId, n_shards: usize) -> usize {
    let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 32;
    (x as usize) % n_shards
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

/// How the router feeds workers.
#[derive(Debug, Clone)]
pub struct RouteConfig {
    /// Worker threads; `0` means one per available core.
    pub threads: usize,
    /// Request indices per channel message (amortizes channel overhead).
    pub batch: usize,
    /// Bounded channel depth in batches per worker — the backpressure knob:
    /// at most `batch × queue` requests are in flight to one worker.
    pub queue: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            threads: 1,
            batch: 1_024,
            queue: 64,
        }
    }
}

impl RouteConfig {
    /// The effective worker count: `threads`, or the number of available
    /// cores when `threads == 0`.
    pub fn resolve_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        }
    }
}

/// Routes every request of `trace` to its owning shard's state and applies
/// `step(state, shard, request_index, request)` there, using the configured
/// number of worker threads. Returns the shard states in shard order.
///
/// `step` observes each shard's subsequence sequentially in trace order
/// regardless of the thread count; see the module docs for the full
/// determinism argument. With one (effective) thread the channels are
/// skipped entirely and the trace is replayed inline.
pub fn route<S: Send>(
    trace: &Trace,
    mut shards: Vec<S>,
    config: &RouteConfig,
    step: impl Fn(&mut S, usize, usize, &Request) + Sync,
) -> Vec<S> {
    let n_shards = shards.len();
    assert!(n_shards > 0, "need at least one shard");
    let threads = config.resolve_threads().clamp(1, n_shards);
    if threads == 1 {
        for (i, req) in trace.iter().enumerate() {
            let s = shard_of(req.id, n_shards);
            step(&mut shards[s], s, i, req);
        }
        return shards;
    }

    let batch = config.batch.max(1);
    let queue = config.queue.max(1);
    let step = &step;
    // Static ownership: worker w owns every shard s with s % threads == w,
    // stored sparsely so workers index states by shard number directly.
    let mut per_worker: Vec<Vec<Option<S>>> = (0..threads)
        .map(|_| (0..n_shards).map(|_| None).collect())
        .collect();
    for (s, state) in shards.into_iter().enumerate() {
        per_worker[s % threads][s] = Some(state);
    }

    let finished: Vec<Vec<Option<S>>> = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        // Drained batch buffers flow back on a shared return channel, so
        // steady-state routing recycles instead of allocating: the pool
        // tops out at roughly `threads × queue` buffers.
        let (ret_tx, ret_rx) = mpsc::channel::<Vec<u64>>();
        for mut states in per_worker {
            let (tx, rx) = mpsc::sync_channel::<Vec<u64>>(queue);
            senders.push(tx);
            let ret_tx = ret_tx.clone();
            handles.push(scope.spawn(move || {
                for mut indices in rx {
                    for &i in &indices {
                        let req = &trace.requests[i as usize];
                        let s = shard_of(req.id, n_shards);
                        let state = states[s].as_mut().expect("request routed to unowned shard");
                        step(state, s, i as usize, req);
                    }
                    indices.clear();
                    // The router may already be past routing — dropped
                    // receiver just means the buffer is garbage now.
                    let _ = ret_tx.send(indices);
                }
                states
            }));
        }
        drop(ret_tx);
        let mut buffers: Vec<Vec<u64>> = (0..threads).map(|_| Vec::with_capacity(batch)).collect();
        for (i, req) in trace.iter().enumerate() {
            let w = shard_of(req.id, n_shards) % threads;
            let buf = &mut buffers[w];
            buf.push(i as u64);
            if buf.len() >= batch {
                let fresh = ret_rx
                    .try_recv()
                    .unwrap_or_else(|_| Vec::with_capacity(batch));
                let full = std::mem::replace(buf, fresh);
                // Blocking send: backpressure when the worker lags.
                senders[w].send(full).expect("worker hung up");
            }
        }
        for (w, buf) in buffers.into_iter().enumerate() {
            if !buf.is_empty() {
                senders[w].send(buf).expect("worker hung up");
            }
        }
        drop(senders);
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut out: Vec<Option<S>> = (0..n_shards).map(|_| None).collect();
    for states in finished {
        for (s, state) in states.into_iter().enumerate() {
            if let Some(state) = state {
                out[s] = Some(state);
            }
        }
    }
    out.into_iter()
        .map(|s| s.expect("shard state lost in transit"))
        .collect()
}

/// Configuration for [`ShardedSimulator`].
#[derive(Debug, Clone)]
pub struct ShardedSimConfig {
    /// Leading requests (by global trace index) excluded from the metrics;
    /// the policies still see them.
    pub warmup_requests: usize,
    /// Fixed shard count — part of the deterministic configuration, never
    /// derived from the thread count.
    pub n_shards: usize,
    /// Router threads and channel sizing.
    pub route: RouteConfig,
}

impl Default for ShardedSimConfig {
    fn default() -> Self {
        ShardedSimConfig {
            warmup_requests: 0,
            n_shards: 16,
            route: RouteConfig::default(),
        }
    }
}

/// Per-shard replay state of the sharded simulator.
struct SimShard<P> {
    policy: P,
    metrics: SimMetrics,
    obs: Option<Obs>,
    acc: Option<SeriesAcc>,
    peak_meta: u64,
    seen: u64,
    measured_started: bool,
    warmup_evictions: u64,
}

impl<P: CachePolicy> SimShard<P> {
    fn totals(&self) -> Totals {
        Totals {
            requests: self.metrics.requests,
            hits: self.metrics.hits,
            misses_admitted: self.metrics.misses_admitted,
            misses_bypassed: self.metrics.misses_bypassed,
            bytes_requested: self.metrics.bytes_requested,
            bytes_hit: self.metrics.bytes_hit,
            evictions: self.policy.evictions(),
        }
    }

    fn step(&mut self, warmup: usize, i: usize, req: &Request) {
        let measured = i >= warmup;
        if measured {
            if !self.measured_started {
                self.measured_started = true;
                self.warmup_evictions = self.policy.evictions();
            }
            if self.acc.is_some() {
                // Split borrows: snapshot before the policy sees the request
                // (same ordering as the single-threaded engine).
                let totals = self.totals();
                if let Some(acc) = self.acc.as_mut() {
                    acc.observe(req.ts.as_micros(), || totals);
                }
            }
        }
        let outcome = self.policy.handle(req);
        debug_assert!(
            self.policy.used_bytes() <= self.policy.capacity(),
            "policy {} overflowed its shard slice",
            self.policy.name(),
        );
        self.seen += 1;
        if self.seen % 1024 == 1 {
            self.peak_meta = self.peak_meta.max(self.policy.metadata_overhead_bytes());
        }
        if !measured {
            return;
        }
        self.metrics.requests += 1;
        self.metrics.bytes_requested += req.size as u128;
        match outcome {
            crate::policy::Outcome::Hit => {
                self.metrics.hits += 1;
                self.metrics.bytes_hit += req.size as u128;
            }
            crate::policy::Outcome::MissAdmitted => self.metrics.misses_admitted += 1,
            crate::policy::Outcome::MissBypassed => self.metrics.misses_bypassed += 1,
        }
    }
}

/// A thread-parallel [`crate::Simulator`]: shards the keyspace across
/// independent policy instances and replays the trace with N workers, with
/// reports and obs exports byte-identical at any thread count.
///
/// The hit ratio it measures is that of the *sharded* cache (capacity split
/// evenly, no global eviction ordering), which is also what a concurrent
/// production deployment measures — not a bit-for-bit reproduction of the
/// single-policy simulation.
#[derive(Debug, Clone, Default)]
pub struct ShardedSimulator {
    config: ShardedSimConfig,
    obs: Option<Obs>,
}

impl ShardedSimulator {
    /// Creates a sharded simulator with the given configuration.
    pub fn new(config: ShardedSimConfig) -> Self {
        ShardedSimulator { config, obs: None }
    }

    /// Attaches a master observability recorder. Each shard records into a
    /// private recorder; at the end of the run they are merged into this
    /// one in fixed shard order.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Replays `trace` across shards built by `build(shard_index, obs)` —
    /// the builder receives the shard's private recorder (present when the
    /// run is instrumented) so learned policies can attach to it. Returns
    /// merged metrics for the measured (post-warmup) portion.
    pub fn run<P: CachePolicy + Send>(
        &self,
        trace: &Trace,
        mut build: impl FnMut(usize, Option<&Obs>) -> P,
    ) -> SimResult {
        let n_shards = self.config.n_shards.max(1);
        let shards: Vec<SimShard<P>> = (0..n_shards)
            .map(|i| {
                let obs = self
                    .obs
                    .as_ref()
                    .map(|master| Obs::new(master.config().clone()));
                SimShard {
                    policy: build(i, obs.as_ref()),
                    metrics: SimMetrics::default(),
                    acc: obs.as_ref().map(|o| SeriesAcc::new(o.window())),
                    obs,
                    peak_meta: 0,
                    seen: 0,
                    measured_started: false,
                    warmup_evictions: 0,
                }
            })
            .collect();

        let warmup = self.config.warmup_requests;
        let wall_start = Instant::now();
        let mut shards = route(trace, shards, &self.config.route, |state, _s, i, req| {
            state.step(warmup, i, req)
        });
        let wall_secs = wall_start.elapsed().as_secs_f64();

        // Merge in fixed shard order (0..n_shards) on this thread.
        let mut metrics = SimMetrics::default();
        let mut peak_meta = 0u64;
        let mut evictions = 0u64;
        let mut warmup_evictions = 0u64;
        for shard in &mut shards {
            shard.peak_meta = shard.peak_meta.max(shard.policy.metadata_overhead_bytes());
            metrics.requests += shard.metrics.requests;
            metrics.hits += shard.metrics.hits;
            metrics.misses_admitted += shard.metrics.misses_admitted;
            metrics.misses_bypassed += shard.metrics.misses_bypassed;
            metrics.bytes_requested += shard.metrics.bytes_requested;
            metrics.bytes_hit += shard.metrics.bytes_hit;
            peak_meta += shard.peak_meta;
            evictions += shard.policy.evictions();
            warmup_evictions += if shard.measured_started {
                shard.warmup_evictions
            } else {
                shard.policy.evictions()
            };
        }
        let start_ts = trace
            .requests
            .get(warmup.min(trace.len().saturating_sub(1)))
            .map(|r| r.ts);
        if let (Some(start), Some(last)) = (start_ts, trace.requests.last()) {
            metrics.duration_secs = last.ts.saturating_sub(start).as_secs_f64();
        }

        let policy_name = shards
            .first()
            .map(|s| format!("sharded({})x{}", s.policy.name(), n_shards))
            .unwrap_or_default();

        if let Some(master) = &self.obs {
            // Metadata before the merge: a streaming sink writes its meta
            // line when the merged windows land in `absorb_shards`.
            master.set_meta("policy", policy_name.as_str());
            master.set_meta("trace", trace.name.as_str());
            master.set_meta("shards", n_shards as u64);
            // Finalize each shard's recorder, then merge them in shard
            // order; the merged export carries no trace of the thread count.
            let mut shard_obs = Vec::with_capacity(shards.len());
            for shard in &mut shards {
                if let (Some(obs), Some(acc)) = (shard.obs.take(), shard.acc.take()) {
                    let totals = Totals {
                        requests: shard.metrics.requests,
                        hits: shard.metrics.hits,
                        misses_admitted: shard.metrics.misses_admitted,
                        misses_bypassed: shard.metrics.misses_bypassed,
                        bytes_requested: shard.metrics.bytes_requested,
                        bytes_hit: shard.metrics.bytes_hit,
                        evictions: shard.policy.evictions(),
                    };
                    obs.push_windows(acc.finish_observed(totals));
                    obs.counter_add("sim.requests", shard.metrics.requests);
                    obs.counter_add("sim.hits", shard.metrics.hits);
                    obs.counter_add("sim.evictions", shard.policy.evictions());
                    shard_obs.push(obs);
                }
            }
            master.absorb_shards(&shard_obs);
            if warmup_evictions > 0 {
                master.counter_add("sim.warmup_evictions", warmup_evictions);
            }
            master.gauge_set("sim.peak_metadata_bytes", peak_meta as f64);
            master.gauge_set(
                "sim.wall_secs",
                if master.deterministic() {
                    0.0
                } else {
                    wall_secs
                },
            );
        }

        SimResult {
            policy: policy_name,
            trace: trace.name.clone(),
            metrics,
            series: Vec::new(),
            wall_secs,
            peak_metadata_bytes: peak_meta,
            evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Outcome;
    use lhr_trace::{Request, Time};
    use std::collections::HashSet;

    struct Infinite {
        cached: HashSet<ObjectId>,
        used: u64,
    }

    impl CachePolicy for Infinite {
        fn name(&self) -> &str {
            "infinite"
        }
        fn capacity(&self) -> u64 {
            u64::MAX
        }
        fn used_bytes(&self) -> u64 {
            self.used
        }
        fn contains(&self, id: ObjectId) -> bool {
            self.cached.contains(&id)
        }
        fn handle(&mut self, req: &Request) -> Outcome {
            if self.cached.contains(&req.id) {
                Outcome::Hit
            } else {
                self.cached.insert(req.id);
                self.used += req.size;
                Outcome::MissAdmitted
            }
        }
    }

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

    #[test]
    fn route_visits_every_request_once_in_shard_order() {
        let t = trace(10_000, 400);
        for threads in [1usize, 2, 5, 8] {
            let shards: Vec<Vec<usize>> = vec![Vec::new(); 7];
            let cfg = RouteConfig {
                threads,
                batch: 64,
                queue: 4,
            };
            let shards = route(&t, shards, &cfg, |seen, s, i, req| {
                assert_eq!(shard_of(req.id, 7), s);
                seen.push(i);
            });
            let total: usize = shards.iter().map(Vec::len).sum();
            assert_eq!(total, t.len());
            for seen in &shards {
                assert!(
                    seen.windows(2).all(|w| w[0] < w[1]),
                    "shard subsequence must stay in trace order (threads={threads})"
                );
            }
        }
    }

    #[test]
    fn sharded_run_is_identical_across_thread_counts() {
        let t = trace(20_000, 500);
        let run = |threads: usize| {
            let sim = ShardedSimulator::new(ShardedSimConfig {
                warmup_requests: 1_000,
                n_shards: 8,
                route: RouteConfig {
                    threads,
                    ..RouteConfig::default()
                },
            });
            sim.run(&t, |_, _| Infinite {
                cached: HashSet::new(),
                used: 0,
            })
            .stable_json()
        };
        let baseline = run(1);
        assert_eq!(baseline, run(2));
        assert_eq!(baseline, run(8));
    }

    #[test]
    fn sharded_metrics_match_unsharded_for_shardable_policy() {
        // A never-evicting cache is oblivious to sharding: the sharded hit
        // counts must equal the single-policy simulation exactly.
        let t = trace(5_000, 100);
        let mut single = Infinite {
            cached: HashSet::new(),
            used: 0,
        };
        let expect = crate::Simulator::new(crate::SimConfig::default()).run(&mut single, &t);
        let got = ShardedSimulator::new(ShardedSimConfig {
            n_shards: 4,
            ..ShardedSimConfig::default()
        })
        .run(&t, |_, _| Infinite {
            cached: HashSet::new(),
            used: 0,
        });
        assert_eq!(got.metrics.hits, expect.metrics.hits);
        assert_eq!(got.metrics.requests, expect.metrics.requests);
        assert_eq!(got.metrics.bytes_hit, expect.metrics.bytes_hit);
    }
}

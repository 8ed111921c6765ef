//! The sharded concurrent serving engine.
//!
//! [`crate::CdnServer::replay`] is single-threaded: one loop owns the
//! policy (freshness stamps included) and the fault machinery. This module scales
//! that serving path across cores without giving up reproducibility. The
//! keyspace is split into **shards** — each shard an independent
//! [`CdnServer`] (policy + fault plan + circuit breaker + in-flight map)
//! owning a fixed slice of it. The trace is partitioned by shard once
//! ([`lhr_sim::shard::Partition`]), each shard's requests run start to
//! finish on whichever of the N worker threads claims the shard, and the
//! per-shard results are merged in fixed shard order.
//!
//! # Determinism contract
//!
//! Reports and `--obs` exports are byte-identical at any `--threads`
//! setting because (see also `ARCHITECTURE.md`):
//!
//! - the shard count is configuration, never derived from the thread
//!   count, and objects map to shards with [`lhr_sim::shard::shard_of`];
//! - each shard's subsequence of the trace is served sequentially in trace
//!   order by exactly one worker ([`lhr_sim::shard::Partition::run`]);
//! - per-shard fault plans are seeded with [`lhr_sim::shard::shard_seed`],
//!   a pure function of (base seed, shard index);
//! - the merge concatenates and sums in shard order `0..n_shards`, so
//!   float arithmetic associates identically every run;
//! - the engine forces [`ServerConfig::deterministic`], so wall-clock
//!   policy compute never feeds the latency model, and
//!   [`EngineReport::stable_json`] zeroes the fields that legitimately
//!   depend on the machine (wall time, throughput, thread count).
//!
//! Origin-fetch coalescing is per shard: the trace is partitioned
//! by the same `shard_of` hash every sharded component in the workspace
//! uses, so a shard owns *all* requests for its objects and a miss can
//! only ever join an in-flight fetch recorded by its own shard. Each
//! shard's [`CdnServer`] therefore keeps a plain local in-flight map — no
//! lock, no second hash on a miss.
//!
//! A shard is a [`CdnServer`] plus a tally, stepped by the same
//! `CdnServer::step` the single-threaded replay loops over; the merge and
//! the report arithmetic are the crate's one of each (DESIGN.md, "Serving
//! core").

use crate::server::{CdnServer, ServerConfig, ServerReport};
use crate::tally::{announce, gauge_wall_secs, per_sec, Tally};
use lhr_obs::summary::SKEW_HINT_THRESHOLD;
use lhr_obs::Obs;
use lhr_sim::ledger::Ledger;
use lhr_sim::shard::{Partition, RouteConfig};
use lhr_sim::CachePolicy;
use lhr_trace::Trace;
use lhr_util::json::ToJson;
use lhr_util::sync::resolve_threads;
use std::borrow::Cow;
use std::time::Instant;

/// Configuration of the sharded serving engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Aggregate cache capacity in bytes, split evenly across shards.
    pub total_capacity: u64,
    /// Fixed shard count — part of the deterministic configuration, never
    /// derived from the thread count.
    pub n_shards: usize,
    /// Worker threads (`threads = 0` means one per available core).
    pub route: RouteConfig,
    /// The per-shard serving-path configuration. `deterministic` is forced
    /// on: the engine's reports must not depend on wall clocks.
    pub server: ServerConfig,
}

impl EngineConfig {
    /// A 16-shard single-threaded engine with the default serving path and
    /// the given aggregate capacity.
    pub fn new(total_capacity: u64) -> Self {
        EngineConfig {
            total_capacity,
            n_shards: 16,
            route: RouteConfig::default(),
            server: ServerConfig::default(),
        }
    }
}

/// What a threaded replay reports: the merged [`ServerReport`] plus the
/// engine-level figures (shard/thread counts, throughput).
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// The merged serving-path report; `replay_wall_secs` is the wall time
    /// of the whole threaded replay.
    pub report: ServerReport,
    /// Shards the keyspace was split across.
    pub n_shards: u64,
    /// Worker threads that replayed the trace (machine-dependent when
    /// `threads = 0` was configured; zeroed by [`Self::stable_json`]).
    pub threads: u64,
    /// Replayed requests (including warmup) per wall-clock second, the
    /// partition pass included; zeroed by [`Self::stable_json`].
    pub requests_per_sec: f64,
    /// Requests each shard served (including warmup), in shard order.
    pub per_shard_requests: Vec<u64>,
    /// Hottest-shard load over the mean shard load (1.0 = perfectly even).
    /// Pure function of `per_shard_requests`, so deterministic.
    pub shard_imbalance: f64,
    /// Suggested `--shards` when the keyspace is skewed enough that one
    /// shard dominates; equals `n_shards` when the split is even. See
    /// [`shard_skew`] for the heuristic and its limits.
    pub suggested_shards: u64,
}

lhr_util::impl_json!(struct EngineReport {
    report,
    n_shards,
    threads,
    requests_per_sec,
    per_shard_requests,
    shard_imbalance,
    suggested_shards,
});

/// Derives `(imbalance, suggested_shards)` from a per-shard request
/// histogram. Imbalance is `max / mean`. When it exceeds
/// [`SKEW_HINT_THRESHOLD`], the suggestion multiplies the shard count by
/// roughly the imbalance (clamped to 2–8×, rounded up to a power of two) so
/// the hot shard's keys spread over more peers. A single hot *object* can't
/// be split by sharding at all — the clamp keeps the hint from chasing one.
pub fn shard_skew(per_shard_requests: &[u64]) -> (f64, u64) {
    let n = per_shard_requests.len() as u64;
    if n == 0 {
        return (1.0, 0);
    }
    let total: u64 = per_shard_requests.iter().sum();
    let max = per_shard_requests.iter().copied().max().unwrap_or(0);
    if total == 0 || max == 0 {
        return (1.0, n);
    }
    let mean = total as f64 / n as f64;
    let imbalance = max as f64 / mean;
    if imbalance <= SKEW_HINT_THRESHOLD {
        return (imbalance, n);
    }
    let factor = (imbalance.ceil() as u64).clamp(2, 8);
    (imbalance, (n * factor).next_power_of_two())
}

impl EngineReport {
    /// JSON with every machine-dependent field zeroed — wall time,
    /// requests/sec, and the thread count itself. Two replays of the same
    /// trace, policy, and fault seed produce byte-identical output at any
    /// `--threads` setting; `scripts/verify.sh` diffs exactly this.
    pub fn stable_json(&self) -> String {
        let mut stable = self.clone();
        stable.report.replay_wall_secs = 0.0;
        stable.threads = 0;
        stable.requests_per_sec = 0.0;
        stable.to_json().to_string()
    }
}

/// One shard's replay state — a full serving path and its tally — owned
/// by exactly one worker.
struct EngineShard<P: CachePolicy> {
    server: CdnServer<P>,
    tally: Tally,
}

/// The sharded concurrent serving engine: replays a trace through
/// `n_shards` independent serving paths with N worker threads, then merges
/// the per-shard reports in fixed shard order.
///
/// The hit ratio it measures is that of the *sharded* cache (capacity
/// split evenly, no global eviction ordering) — what a concurrent
/// production deployment measures, not a bit-for-bit reproduction of the
/// single-server replay.
///
/// ```
/// use lhr_policies::Lru;
/// use lhr_proto::{EngineConfig, ShardedEngine};
/// use lhr_sim::shard::RouteConfig;
/// use lhr_trace::{Request, Time, Trace};
///
/// let mut trace = Trace::new("t");
/// for i in 0..4_000u64 {
///     trace.push(Request::new(Time::from_secs(i), (i * 7) % 100, 1 << 10));
/// }
/// let run = |threads: usize| {
///     let config = EngineConfig {
///         n_shards: 8,
///         route: RouteConfig { threads },
///         ..EngineConfig::new(32 << 10)
///     };
///     ShardedEngine::new(config).replay(&trace, |_shard, capacity, _obs| Lru::new(capacity))
/// };
/// // The determinism contract: byte-identical stable reports at any
/// // thread count.
/// assert_eq!(run(1).stable_json(), run(3).stable_json());
/// ```
pub struct ShardedEngine {
    config: EngineConfig,
    obs: Option<Obs>,
}

impl ShardedEngine {
    /// Creates an engine; `deterministic` is forced on (see
    /// [`EngineConfig::server`]).
    pub fn new(mut config: EngineConfig) -> Self {
        config.server.deterministic = true;
        ShardedEngine { config, obs: None }
    }

    /// Attaches a master observability recorder. Each shard records into a
    /// private recorder; at the end of the replay they are merged into
    /// this one in fixed shard order ([`Obs::absorb_shards`]).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Replays `trace` across shards built by
    /// `build(shard_index, shard_capacity, shard_obs)` — the builder gets
    /// the shard's capacity slice and private recorder so learned policies
    /// can attach to it (derive per-shard seeds with
    /// [`lhr_sim::shard::shard_seed`]).
    ///
    /// A shard's serving path — policy, fault plan, breaker, in-flight map
    /// — is built on the worker that claims the shard and dropped there
    /// right after the shard's last request; only its tally waits for the
    /// merge. So the builder must be `Fn + Sync`, and at most
    /// `route.threads` policies are alive at once.
    ///
    /// A trace handed over by value is consumed: each shard's requests are
    /// freed as its run steps past them ([`Partition`]), so the trace is
    /// gone by the merge. A borrowed one is cloned first.
    pub fn replay<'t, P: CachePolicy + Send>(
        &self,
        trace: impl Into<Cow<'t, Trace>>,
        build: impl Fn(usize, u64, Option<&Obs>) -> P + Sync,
    ) -> EngineReport {
        let n_shards = self.config.n_shards.max(1);
        let shard_capacity = (self.config.total_capacity / n_shards as u64).max(1);
        let warmup = self.config.server.warmup_requests;
        let master = self.obs.as_ref();
        let trace = trace.into().into_owned();
        let (len, duration) = (trace.len(), trace.duration());

        // The partition pass is replay work, and so is building each shard
        // when a worker claims it: both count towards the wall time.
        let wall_start = Instant::now();
        let partition = Partition::new(trace.requests, n_shards);
        let measured: Vec<usize> = (0..n_shards)
            .map(|s| partition.measured(s, warmup))
            .collect();
        // What a finished shard keeps: its tally and its policy's name.
        let mut shards: Vec<(Tally, String)> = partition.run(
            &self.config.route,
            |s| {
                let ledger = Ledger::shard(master, warmup);
                let policy = build(s, shard_capacity, ledger.obs());
                EngineShard {
                    server: CdnServer::new(policy, self.config.server.for_shard(s)),
                    tally: Tally::new(ledger, measured[s]),
                }
            },
            |state, _s, i, req| state.server.step(&mut state.tally, i, req),
            |_s, mut state| {
                state.server.finish(&mut state.tally);
                (state.tally, state.server.policy().name().to_string())
            },
        );
        let wall_secs = wall_start.elapsed().as_secs_f64();
        let threads = resolve_threads(self.config.route.threads).clamp(1, n_shards);

        // The name is known once shard 0's policy has been built. Nothing
        // reaches the master recorder during the run (shards record
        // privately), so what is stamped here still precedes every shard's
        // records.
        let name = format!("engine({})x{}", shards[0].1, n_shards);
        if let Some(master) = master {
            announce(master, &name, &trace.name, &self.config.server.faults);
            master.set_meta("shards", n_shards as u64);
        }

        // Merge in fixed shard order (0..n_shards) on this thread.
        let per_shard_requests: Vec<u64> = shards.iter().map(|(t, _)| t.ledger.seen()).collect();
        let (shard_imbalance, suggested_shards) = shard_skew(&per_shard_requests);
        let mut total = Tally::merge(shards.iter_mut().map(|(t, _)| t), master, len);
        if let Some(master) = master {
            // Both are pure functions of the deterministic per-shard
            // request counts, so they are safe in stable exports. The
            // summarizer turns them into the skew hint line.
            master.gauge_set("engine.shard_imbalance", shard_imbalance);
            master.gauge_set("engine.suggested_shards", suggested_shards as f64);
            gauge_wall_secs(master, wall_secs);
        }

        EngineReport {
            report: total.report(name, &trace.name, duration, wall_secs),
            n_shards: n_shards as u64,
            threads: threads as u64,
            requests_per_sec: per_sec(len, wall_secs),
            per_shard_requests,
            shard_imbalance,
            suggested_shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_policies::Lru;
    use lhr_trace::{Request, Time};
    use lhr_util::json::{FromJson, Json};

    fn trace(n: usize, objects: u64, size: u64) -> Trace {
        let mut t = Trace::new("engine-test");
        for i in 0..n {
            t.push(Request::new(
                Time::from_secs(i as u64),
                (i as u64 * 7) % objects,
                size,
            ));
        }
        t
    }

    fn engine(threads: usize, total_capacity: u64) -> ShardedEngine {
        ShardedEngine::new(EngineConfig {
            n_shards: 8,
            route: RouteConfig { threads },
            ..EngineConfig::new(total_capacity)
        })
    }

    #[test]
    fn replay_is_identical_across_thread_counts() {
        let t = trace(20_000, 300, 1 << 16);
        let run = |threads: usize| {
            engine(threads, 64 << 16)
                .replay(&t, |_, cap, _| Lru::new(cap))
                .stable_json()
        };
        let baseline = run(1);
        assert_eq!(baseline, run(2));
        assert_eq!(baseline, run(8));
    }

    #[test]
    fn faulted_replay_is_identical_across_thread_counts() {
        let t = trace(10_000, 200, 1 << 16);
        let run = |threads: usize| {
            let mut engine = engine(threads, 32 << 16);
            engine.config.server.faults =
                crate::FaultConfig::preset("flaky", 7, t.duration().as_secs_f64())
                    .expect("preset exists");
            engine.replay(&t, |_, cap, _| Lru::new(cap)).stable_json()
        };
        let baseline = run(1);
        assert_eq!(baseline, run(2));
        assert_eq!(baseline, run(8));
    }

    #[test]
    fn engine_matches_single_server_on_infallible_origin_counts() {
        // Hits depend on eviction order, so use a capacity where nothing
        // evicts: then the sharded and single-server replays must agree on
        // every counter.
        let t = trace(5_000, 100, 1 << 10);
        let mut single = CdnServer::new(
            Lru::new(100 << 10),
            ServerConfig {
                deterministic: true,
                ..ServerConfig::default()
            },
        );
        let expect = single.replay(&t);
        let got = engine(2, 800 << 10).replay(&t, |_, cap, _| Lru::new(cap));
        assert_eq!(got.report.errors_served, expect.errors_served);
        assert!((got.report.content_hit_pct - expect.content_hit_pct).abs() < 1e-9);
        assert!((got.report.wan_gbps - expect.wan_gbps).abs() < 1e-12);
    }

    #[test]
    fn warmup_is_global_and_respected() {
        let t = trace(1_000, 50, 1 << 10);
        let mut config = EngineConfig::new(400 << 10);
        config.server.warmup_requests = 400;
        let report = ShardedEngine::new(config).replay(&t, |_, cap, _| Lru::new(cap));
        let measured: u64 = 600;
        let total: u64 = report.per_shard_requests.iter().sum();
        assert_eq!(total, 1_000, "every request reaches a shard");
        let hits_plus_misses = (report.report.content_hit_pct / 100.0 * measured as f64).round()
            as u64
            + report.report.errors_served;
        assert!(hits_plus_misses <= measured);
    }

    #[test]
    fn skew_heuristic_flags_hot_key_traces() {
        // Even split: no suggestion beyond the current count.
        let (imb, sug) = shard_skew(&[100, 100, 100, 100]);
        assert!((imb - 1.0).abs() < 1e-12);
        assert_eq!(sug, 4);
        // Degenerate inputs stay sane.
        assert_eq!(shard_skew(&[]), (1.0, 0));
        assert_eq!(shard_skew(&[0, 0]).1, 2);

        // A synthetic hot-key trace: one object takes half the requests,
        // so its shard dwarfs the mean and the report should say so.
        let mut t = Trace::new("hot-key");
        for i in 0..8_000u64 {
            let id = if i % 2 == 0 { 42 } else { i % 500 };
            t.push(Request::new(Time::from_secs(i), id, 1 << 10));
        }
        let report = engine(2, 1 << 26).replay(&t, |_, cap, _| Lru::new(cap));
        assert!(
            report.shard_imbalance > SKEW_HINT_THRESHOLD,
            "hot key must show up as imbalance, got {}",
            report.shard_imbalance
        );
        assert!(
            report.suggested_shards > report.n_shards,
            "skewed replay should suggest more shards ({} vs {})",
            report.suggested_shards,
            report.n_shards
        );
        assert!(report.suggested_shards.is_power_of_two());
        // And the suggestion survives the stable JSON round trip.
        let json = report.stable_json();
        assert!(json.contains("\"suggested_shards\""), "{json}");
    }

    #[test]
    fn report_json_roundtrips() {
        let t = trace(2_000, 60, 1 << 10);
        let report = engine(1, 128 << 10).replay(&t, |_, cap, _| Lru::new(cap));
        let json = report.to_json().to_string();
        let back = EngineReport::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.to_json().to_string(), json);
        assert_eq!(back.n_shards, 8);
    }

    #[test]
    fn obs_export_is_identical_across_thread_counts() {
        use lhr_obs::{ObsConfig, ObsWindow};
        let t = trace(8_000, 150, 1 << 14);
        let run = |threads: usize| {
            let obs = Obs::new(ObsConfig {
                window: ObsWindow::Requests(500),
                deterministic: true,
                ..ObsConfig::default()
            });
            let mut engine = engine(threads, 64 << 14);
            engine.config.server.faults =
                crate::FaultConfig::preset("flaky", 11, t.duration().as_secs_f64())
                    .expect("preset exists");
            let _ = ShardedEngine {
                config: engine.config,
                obs: Some(obs.clone()),
            }
            .replay(&t, |_, cap, _| Lru::new(cap));
            obs.to_jsonl()
        };
        let baseline = run(1);
        assert!(baseline.contains("\"record\":\"window\""), "{baseline}");
        assert_eq!(baseline, run(2));
        assert_eq!(baseline, run(8));
    }
}

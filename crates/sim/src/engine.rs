//! The simulation driver: one per-request step and one finish over a
//! [`Ledger`] behind two entry points, [`Simulator::run`] over one borrowed
//! policy and [`Simulator::run_sharded`] over one owned policy per shard.

use crate::ledger::Ledger;
use crate::metrics::SimMetrics;
use crate::policy::{CachePolicy, Outcome};
use crate::shard::{Partition, RouteConfig};
use lhr_obs::Obs;
use lhr_trace::{Request, Trace};
use std::borrow::Cow;
use std::time::Instant;

/// Simulator configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Number of leading requests excluded from the metrics. The policy
    /// still sees them (they warm the cache and, for learned policies, the
    /// first training window).
    pub warmup_requests: usize,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Policy name, copied for convenience.
    pub policy: String,
    /// Trace name, copied for convenience.
    pub trace: String,
    /// Aggregated counters (measured interval only).
    pub metrics: SimMetrics,
    /// Wall-clock running time of the simulation in seconds (policy compute
    /// cost — the Figure 9 "running time" metric). This is the only
    /// wall-clock quantity in the engine and never feeds back into policy
    /// decisions.
    pub wall_secs: f64,
    /// Peak metadata overhead reported by the policy (bytes), sampled every
    /// 1 024 requests.
    pub peak_metadata_bytes: u64,
    /// Evictions performed by the policy over the whole trace.
    pub evictions: u64,
}

lhr_util::impl_json!(struct SimResult {
    policy,
    trace,
    metrics,
    wall_secs,
    peak_metadata_bytes,
    evictions,
});

impl SimResult {
    /// JSON with the wall-clock field zeroed: fixed-seed runs of the same
    /// trace and policy produce byte-identical output regardless of host
    /// speed or thread count (the determinism contract in ARCHITECTURE.md).
    pub fn stable_json(&self) -> String {
        use lhr_util::json::ToJson;
        let mut stable = self.clone();
        stable.wall_secs = 0.0;
        stable.to_json().to_string()
    }
}

/// The one per-request step: request `i` of the trace (measured iff past
/// the ledger's warmup cut) goes to `policy` and into `ledger`. The policy
/// is borrowed, so the plain run steps a borrowed `dyn` policy while a
/// shard owns its `(policy, ledger)` pair.
#[inline]
fn step<P: CachePolicy + ?Sized>(ledger: &mut Ledger, policy: &mut P, i: usize, req: &Request) {
    ledger.observe(i, req, || policy.evictions());
    let outcome = policy.handle(req);
    debug_assert!(
        policy.used_bytes() <= policy.capacity(),
        "policy {} overflowed: used {} > capacity {}",
        policy.name(),
        policy.used_bytes(),
        policy.capacity()
    );
    if ledger.tick(1024) {
        ledger.sample_meta(policy.metadata_overhead_bytes());
    }
    if ledger.measures(i) {
        let totals = ledger.count(req.size, outcome.is_hit());
        totals.misses_admitted += (outcome == Outcome::MissAdmitted) as u64;
        totals.misses_bypassed += (outcome == Outcome::MissBypassed) as u64;
    }
}

/// Closes the run of `policy`: takes the last metadata sample and flushes
/// the window series and run counters into the ledger's recorder.
fn finish<P: CachePolicy + ?Sized>(ledger: &mut Ledger, policy: &P) {
    ledger.sample_meta(policy.metadata_overhead_bytes());
    ledger.finish(policy.evictions());
    let Some(obs) = ledger.obs() else {
        return;
    };
    let totals = ledger.totals();
    obs.counter_add("sim.requests", totals.requests);
    obs.counter_add("sim.hits", totals.hits);
    obs.counter_add("sim.evictions", totals.evictions);
    if ledger.warmup_evictions() > 0 {
        obs.counter_add("sim.warmup_evictions", ledger.warmup_evictions());
    }
}

/// Drives traces through policies.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimConfig,
    obs: Option<Obs>,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Simulator { config, obs: None }
    }

    /// Attaches an observability recorder: a run feeds it a windowed metric
    /// series and run counters ([`run`](Self::run) a `sim.run` profiling
    /// span as well).
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Runs `policy` over `trace`, returning metrics for the measured
    /// (post-warmup) portion.
    pub fn run<P: CachePolicy + ?Sized>(&self, policy: &mut P, trace: &Trace) -> SimResult {
        let _run_span = self.obs.as_ref().map(|o| o.span("sim.run"));
        let mut ledger = Ledger::new(self.config.warmup_requests, self.obs.clone());
        let wall_start = Instant::now();
        for (i, req) in trace.iter().enumerate() {
            step(&mut ledger, policy, i, req);
        }
        let wall_secs = wall_start.elapsed().as_secs_f64();
        finish(&mut ledger, policy);
        let span = self.measured_secs(&trace.requests);
        self.result(&trace.name, span, policy.name(), wall_secs, &ledger)
    }

    /// Runs `trace` thread-parallel across `n_shards` independent policy
    /// instances built by `build(shard_index, obs)` — the builder receives
    /// the shard's private recorder (present when the run is instrumented)
    /// so learned policies can attach to it; the recorders are merged into
    /// the attached one in fixed shard order. `n_shards` is part of the
    /// deterministic configuration, never derived from the thread count:
    /// results and obs exports are byte-identical at any `route.threads`
    /// (see [`crate::shard`]).
    ///
    /// A shard's policy is built on the worker that claims the shard, just
    /// before its first request, and dropped right after its last, once the
    /// ledger has its final sample — so the builder must be `Fn + Sync`,
    /// and at most `route.threads` policies are alive at once.
    ///
    /// The hit ratio it measures is that of the *sharded* cache (the
    /// builder splits the capacity; there is no global eviction order),
    /// which is also what a concurrent production deployment measures — at
    /// one shard it is [`run`](Self::run)'s, counter for counter. The
    /// result is labelled `sharded(P)xN`.
    ///
    /// A trace handed over by value is consumed: each shard's requests are
    /// freed as its run steps past them (see [`crate::shard`]). A borrowed
    /// one is cloned first.
    pub fn run_sharded<'t, P: CachePolicy + Send>(
        &self,
        trace: impl Into<Cow<'t, Trace>>,
        n_shards: usize,
        route: &RouteConfig,
        build: impl Fn(usize, Option<&Obs>) -> P + Sync,
    ) -> SimResult {
        let n_shards = n_shards.max(1);
        let master = self.obs.as_ref();
        let warmup = self.config.warmup_requests;
        let Trace {
            name: trace_name,
            requests,
        } = trace.into().into_owned();
        let span = self.measured_secs(&requests);

        let wall_start = Instant::now();
        // What a finished shard keeps: its ledger and its policy's name.
        let mut shards: Vec<(Ledger, String)> = Partition::new(requests, n_shards).run(
            route,
            |s| {
                let ledger = Ledger::shard(master, warmup);
                (build(s, ledger.obs()), ledger)
            },
            |(policy, ledger), _s, i, req| step(ledger, policy, i, req),
            |_s, (policy, mut ledger)| {
                finish(&mut ledger, &policy);
                (ledger, policy.name().to_string())
            },
        );
        let wall_secs = wall_start.elapsed().as_secs_f64();

        // Merge in fixed shard order on this thread: the merged export
        // carries no trace of the thread count. (Shard recorders carry no
        // metadata, so the master's stays in the order set below.)
        let name = format!("sharded({})x{n_shards}", shards[0].1);
        let total = Ledger::merge(shards.iter_mut().map(|(ledger, _)| ledger), master);
        let result = self.result(&trace_name, span, &name, wall_secs, &total);
        if let Some(master) = master {
            master.set_meta("shards", n_shards as u64);
        }
        result
    }

    /// Trace time from the first measured request to the last; a warmup
    /// past the end of the trace clamps to the last request, a zero-length
    /// interval.
    fn measured_secs(&self, requests: &[Request]) -> f64 {
        requests.last().map_or(0.0, |last| {
            let start = requests[self.config.warmup_requests.min(requests.len() - 1)];
            last.ts.saturating_sub(start.ts).as_secs_f64()
        })
    }

    /// The result of a finished (or merged) `ledger` over the trace named
    /// `trace`, whose measured part spans `duration_secs`, and the run's
    /// identity, wall time and summed peak on the recorder.
    fn result(
        &self,
        trace: &str,
        duration_secs: f64,
        policy: &str,
        wall_secs: f64,
        ledger: &Ledger,
    ) -> SimResult {
        let peak_metadata_bytes = ledger.peak_meta();
        if let Some(obs) = &self.obs {
            obs.set_meta("policy", policy);
            obs.set_meta("trace", trace);
            // The one wall-clock quantity; zeroed under the determinism
            // contract so fixed-seed exports stay byte-identical.
            let wall = if obs.deterministic() { 0.0 } else { wall_secs };
            obs.gauge_set("sim.wall_secs", wall);
            obs.gauge_set("sim.peak_metadata_bytes", peak_metadata_bytes as f64);
        }
        let t = ledger.totals();
        SimResult {
            policy: policy.to_string(),
            trace: trace.to_string(),
            metrics: SimMetrics {
                requests: t.requests,
                hits: t.hits,
                misses_admitted: t.misses_admitted,
                misses_bypassed: t.misses_bypassed,
                bytes_requested: t.bytes_requested,
                bytes_hit: t.bytes_hit,
                errors: 0,
                duration_secs,
            },
            wall_secs,
            peak_metadata_bytes,
            evictions: t.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::testing::Infinite;
    use lhr_trace::Time;

    fn abab_trace(n: usize) -> Trace {
        let mut t = Trace::new("abab");
        for i in 0..n {
            t.push(Request::new(Time::from_secs(i as u64), (i % 2) as u64, 100));
        }
        t
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut p = Infinite::default();
        let r = Simulator::new(SimConfig::default()).run(&mut p, &abab_trace(10));
        assert_eq!(r.metrics.requests, 10);
        assert_eq!(r.metrics.misses_admitted, 2);
        assert_eq!(r.metrics.hits, 8);
        assert_eq!(r.metrics.bytes_hit, 800);
        assert!((r.metrics.object_hit_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn warmup_excludes_leading_requests() {
        let mut p = Infinite::default();
        let cfg = SimConfig { warmup_requests: 2 };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(10));
        // Both objects enter during warmup; all 8 measured requests hit.
        assert_eq!(r.metrics.requests, 8);
        assert_eq!(r.metrics.hits, 8);
        assert!((r.metrics.object_hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duration_covers_measured_interval() {
        let mut p = Infinite::default();
        let cfg = SimConfig { warmup_requests: 4 };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(10));
        // Measured interval runs from t=4s to t=9s.
        assert!((r.metrics.duration_secs - 5.0).abs() < 1e-9);
    }

    #[test]
    fn peak_metadata_is_tracked() {
        let mut p = Infinite::default();
        let r = Simulator::new(SimConfig::default()).run(&mut p, &abab_trace(10));
        assert_eq!(r.peak_metadata_bytes, 16);
    }

    #[test]
    fn empty_trace_is_fine() {
        let mut p = Infinite::default();
        let r = Simulator::new(SimConfig::default()).run(&mut p, &Trace::new("e"));
        assert_eq!(r.metrics.requests, 0);
        assert_eq!(r.metrics.object_hit_ratio(), 0.0);
    }

    #[test]
    fn obs_windows_reconcile_with_metrics() {
        use lhr_obs::{Obs, ObsConfig};
        let obs = Obs::new(ObsConfig {
            window: lhr_obs::ObsWindow::Requests(3),
            deterministic: true,
            ..ObsConfig::default()
        });
        let mut p = Infinite::default();
        let cfg = SimConfig { warmup_requests: 2 };
        let r = Simulator::new(cfg)
            .with_obs(obs.clone())
            .run(&mut p, &abab_trace(10));
        let windows = obs.windows();
        assert_eq!(windows.len(), 3); // 8 measured requests / 3 per window
        assert_eq!(
            windows.iter().map(|w| w.requests).sum::<u64>(),
            r.metrics.requests
        );
        assert_eq!(windows.iter().map(|w| w.hits).sum::<u64>(), r.metrics.hits);
        let jsonl = obs.to_jsonl();
        assert!(jsonl.contains("\"record\":\"meta\""), "{jsonl}");
        assert!(jsonl.contains("\"policy\":\"infinite\""), "{jsonl}");
        assert!(
            jsonl.contains("\"name\":\"sim.requests\",\"value\":8"),
            "{jsonl}"
        );
    }

    #[test]
    fn warmup_longer_than_trace_measures_nothing() {
        let mut p = Infinite::default();
        let cfg = SimConfig {
            warmup_requests: 100,
        };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(10));
        assert_eq!(r.metrics.requests, 0);
    }

    fn strided_trace(n: usize, objects: u64) -> Trace {
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
    fn sharded_run_is_identical_across_thread_counts() {
        let t = strided_trace(20_000, 500);
        let sim = Simulator::new(SimConfig {
            warmup_requests: 1_000,
        });
        let run = |threads: usize| {
            sim.run_sharded(&t, 8, &RouteConfig { threads }, |_, _| Infinite::default())
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
        let t = strided_trace(5_000, 100);
        let sim = Simulator::new(SimConfig::default());
        let expect = sim.run(&mut Infinite::default(), &t);
        let got = sim.run_sharded(&t, 4, &RouteConfig::default(), |_, _| Infinite::default());
        assert_eq!(got.policy, "sharded(infinite)x4");
        assert_eq!(got.metrics, expect.metrics);
    }
}

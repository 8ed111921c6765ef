//! The simulation driver: one per-request step and one finish ([`Replay`])
//! behind two entry points, [`Simulator::run`] over one borrowed policy and
//! [`Simulator::run_sharded`] over one owned policy per shard.

use crate::metrics::{SeriesPoint, SimMetrics};
use crate::policy::{CachePolicy, Outcome};
use crate::shard::{self, RouteConfig};
use lhr_obs::series::{SeriesAcc, Totals};
use lhr_obs::Obs;
use lhr_trace::{Request, Trace};
use std::time::Instant;

/// Simulator configuration.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    /// Number of leading requests excluded from the metrics. The policy
    /// still sees them (they warm the cache and, for learned policies, the
    /// first training window).
    pub warmup_requests: usize,
    /// When `Some(k)`, a [`SeriesPoint`] is recorded every `k` measured
    /// requests (Figures 7 / 13).
    pub series_every: Option<usize>,
}

lhr_util::impl_json!(struct SimConfig { warmup_requests, series_every });

/// Everything a simulation run produces.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Policy name, copied for convenience.
    pub policy: String,
    /// Trace name, copied for convenience.
    pub trace: String,
    /// Aggregated counters (measured interval only).
    pub metrics: SimMetrics,
    /// Hit-ratio time series, if requested.
    pub series: Vec<SeriesPoint>,
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
    series,
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

/// The cumulative totals the window series takes its deltas from.
fn totals(metrics: &SimMetrics, evictions: u64) -> Totals {
    Totals {
        requests: metrics.requests,
        hits: metrics.hits,
        misses_admitted: metrics.misses_admitted,
        misses_bypassed: metrics.misses_bypassed,
        bytes_requested: metrics.bytes_requested,
        bytes_hit: metrics.bytes_hit,
        evictions,
        ..Totals::default()
    }
}

/// The replay state of one policy instance — the whole run's, or one
/// shard's — holding everything *except* the policy: [`Replay::step`]
/// borrows that, so the plain run steps a borrowed `dyn` policy while a
/// shard owns its `(policy, replay)` pair.
#[derive(Default)]
struct Replay {
    /// Leading requests, by global trace index, that are not measured.
    warmup: usize,
    metrics: SimMetrics,
    /// The window series, and where this instance records: the attached
    /// recorder, or a shard's private one.
    recording: Option<(SeriesAcc, Obs)>,
    peak_meta: u64,
    /// Requests stepped so far, warmup included.
    seen: u64,
    /// The policy's eviction count when its first measured request arrived
    /// (tracked only while recording).
    warmup_evictions: Option<u64>,
}

impl Replay {
    fn new(warmup: usize, obs: Option<Obs>) -> Self {
        Replay {
            warmup,
            recording: obs.map(|o| (SeriesAcc::new(o.window()), o)),
            ..Replay::default()
        }
    }

    /// The one per-request step: request `i` of the trace (measured iff
    /// `i >= warmup`) goes to `policy` and into the counters.
    #[inline]
    fn step<P: CachePolicy + ?Sized>(&mut self, policy: &mut P, i: usize, req: &Request) {
        let measured = i >= self.warmup;
        if let (true, Some((acc, _))) = (measured, self.recording.as_mut()) {
            if self.warmup_evictions.is_none() {
                self.warmup_evictions = Some(policy.evictions());
            }
            // Observed before `metrics` and the policy see the request, so
            // each flushed window's delta covers exactly the requests and
            // evictions it contained. The counters are already kept in
            // `metrics`, so a request costs the series one boundary compare;
            // the snapshot — whose eviction-counter read through the trait
            // object costs more than the rest of the instrumentation — is
            // only taken at window edges.
            let metrics = &self.metrics;
            acc.observe(req.ts.as_micros(), || totals(metrics, policy.evictions()));
        }
        let outcome = policy.handle(req);
        debug_assert!(
            policy.used_bytes() <= policy.capacity(),
            "policy {} overflowed: used {} > capacity {}",
            policy.name(),
            policy.used_bytes(),
            policy.capacity()
        );
        if self.seen.is_multiple_of(1024) {
            self.peak_meta = self.peak_meta.max(policy.metadata_overhead_bytes());
        }
        self.seen += 1;
        if !measured {
            return;
        }
        self.metrics.requests += 1;
        self.metrics.bytes_requested += req.size as u128;
        match outcome {
            Outcome::Hit => {
                self.metrics.hits += 1;
                self.metrics.bytes_hit += req.size as u128;
            }
            Outcome::MissAdmitted => self.metrics.misses_admitted += 1,
            Outcome::MissBypassed => self.metrics.misses_bypassed += 1,
        }
    }

    /// Closes the run of `policy`: flushes the window series and run
    /// counters into this instance's recorder (handed back for the merge),
    /// takes the last metadata sample, and *adds* the outcome to `result` —
    /// shards finish in shard order, so sums associate the same way at any
    /// thread count, and `peak_metadata_bytes` is the sum of per-shard
    /// peaks, which need not have coincided.
    fn finish<P: CachePolicy + ?Sized>(self, policy: &P, result: &mut SimResult) -> Option<Obs> {
        let evictions = policy.evictions();
        result.metrics.requests += self.metrics.requests;
        result.metrics.hits += self.metrics.hits;
        result.metrics.misses_admitted += self.metrics.misses_admitted;
        result.metrics.misses_bypassed += self.metrics.misses_bypassed;
        result.metrics.bytes_requested += self.metrics.bytes_requested;
        result.metrics.bytes_hit += self.metrics.bytes_hit;
        result.peak_metadata_bytes += self.peak_meta.max(policy.metadata_overhead_bytes());
        result.evictions += evictions;
        let (acc, obs) = self.recording?;
        obs.push_windows(acc.finish_observed(totals(&self.metrics, evictions)));
        obs.counter_add("sim.requests", self.metrics.requests);
        obs.counter_add("sim.hits", self.metrics.hits);
        obs.counter_add("sim.evictions", evictions);
        // With no measured request, everything was warmup.
        let warmup_evictions = self.warmup_evictions.unwrap_or(evictions);
        if warmup_evictions > 0 {
            obs.counter_add("sim.warmup_evictions", warmup_evictions);
        }
        Some(obs)
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
        let warmup = self.config.warmup_requests;
        let mut replay = Replay::new(warmup, self.obs.clone());
        let mut series = Vec::new();
        // Hits and measured requests as of the last series point.
        let (mut point_hits, mut point_requests) = (0u64, 0u64);

        let wall_start = Instant::now();
        for (i, req) in trace.iter().enumerate() {
            replay.step(policy, i, req);
            if let Some(every) = self.config.series_every {
                let m = &replay.metrics;
                let bucket = m.requests - point_requests;
                if i >= warmup && bucket as usize >= every {
                    series.push(SeriesPoint {
                        requests: m.requests,
                        time_secs: req.ts.as_secs_f64(),
                        cumulative_hit_ratio: m.object_hit_ratio(),
                        window_hit_ratio: (m.hits - point_hits) as f64 / bucket as f64,
                    });
                    (point_hits, point_requests) = (m.hits, m.requests);
                }
            }
        }
        let wall_secs = wall_start.elapsed().as_secs_f64();

        let mut result = self.start_result(trace, policy.name(), wall_secs);
        result.series = series;
        replay.finish(policy, &mut result);
        self.close(result)
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
    /// The hit ratio it measures is that of the *sharded* cache (the
    /// builder splits the capacity; there is no global eviction order),
    /// which is also what a concurrent production deployment measures — at
    /// one shard it is [`run`](Self::run)'s, counter for counter. The
    /// result is labelled `sharded(P)xN` and carries no `series`.
    pub fn run_sharded<P: CachePolicy + Send>(
        &self,
        trace: &Trace,
        n_shards: usize,
        route: &RouteConfig,
        mut build: impl FnMut(usize, Option<&Obs>) -> P,
    ) -> SimResult {
        let n_shards = n_shards.max(1);
        let warmup = self.config.warmup_requests;
        let shards: Vec<(P, Replay)> = (0..n_shards)
            .map(|s| {
                let obs = self.obs.as_ref().map(|m| Obs::new(m.config().clone()));
                (build(s, obs.as_ref()), Replay::new(warmup, obs))
            })
            .collect();

        let wall_start = Instant::now();
        let shards = shard::route(trace, shards, route, |(policy, replay), _s, i, req| {
            replay.step(policy, i, req)
        });
        let wall_secs = wall_start.elapsed().as_secs_f64();

        let name = format!("sharded({})x{n_shards}", shards[0].0.name());
        let mut result = self.start_result(trace, &name, wall_secs);
        if let Some(master) = &self.obs {
            master.set_meta("shards", n_shards as u64);
        }
        // Finish, then merge, in fixed shard order on this thread: the
        // merged export carries no trace of the thread count.
        let shard_obs: Vec<Obs> = shards
            .into_iter()
            .filter_map(|(policy, replay)| replay.finish(&policy, &mut result))
            .collect();
        if let Some(master) = &self.obs {
            master.absorb_shards(&shard_obs);
        }
        self.close(result)
    }

    /// A result labelled and timed but with nothing counted yet — what
    /// [`Replay::finish`] adds to — and the run's metadata on the recorder.
    fn start_result(&self, trace: &Trace, policy: &str, wall_secs: f64) -> SimResult {
        if let Some(obs) = &self.obs {
            obs.set_meta("policy", policy);
            obs.set_meta("trace", trace.name.as_str());
            // The one wall-clock quantity; zeroed under the determinism
            // contract so fixed-seed exports stay byte-identical.
            let wall = if obs.deterministic() { 0.0 } else { wall_secs };
            obs.gauge_set("sim.wall_secs", wall);
        }
        let mut result = SimResult {
            policy: policy.to_string(),
            trace: trace.name.clone(),
            wall_secs,
            ..SimResult::default()
        };
        if let Some(last) = trace.requests.last() {
            // From the first measured request; a warmup past the end of the
            // trace clamps to the last one, a zero-length interval.
            let start = trace.requests[self.config.warmup_requests.min(trace.len() - 1)];
            result.metrics.duration_secs = last.ts.saturating_sub(start.ts).as_secs_f64();
        }
        result
    }

    /// Records the summed peak of a finished `result`.
    fn close(&self, result: SimResult) -> SimResult {
        if let Some(obs) = &self.obs {
            obs.gauge_set("sim.peak_metadata_bytes", result.peak_metadata_bytes as f64);
        }
        result
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
        let cfg = SimConfig {
            warmup_requests: 2,
            series_every: None,
        };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(10));
        // Both objects enter during warmup; all 8 measured requests hit.
        assert_eq!(r.metrics.requests, 8);
        assert_eq!(r.metrics.hits, 8);
        assert!((r.metrics.object_hit_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn series_buckets_are_emitted() {
        let mut p = Infinite::default();
        let cfg = SimConfig {
            warmup_requests: 0,
            series_every: Some(5),
        };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(20));
        assert_eq!(r.series.len(), 4);
        // Hit ratio climbs to 1 as the two objects get cached.
        assert!(r.series[3].cumulative_hit_ratio > r.series[0].window_hit_ratio - 1e-12);
        assert_eq!(r.series.last().unwrap().requests, 20);
    }

    #[test]
    fn duration_covers_measured_interval() {
        let mut p = Infinite::default();
        let cfg = SimConfig {
            warmup_requests: 4,
            series_every: None,
        };
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
        let cfg = SimConfig {
            warmup_requests: 2,
            series_every: None,
        };
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
            series_every: None,
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
            series_every: None,
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

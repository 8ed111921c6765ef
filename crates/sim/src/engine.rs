//! The simulation driver.

use crate::metrics::{SeriesPoint, SimMetrics};
use crate::policy::CachePolicy;
use lhr_obs::series::{SeriesAcc, Totals};
use lhr_obs::Obs;
use lhr_trace::Trace;
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
#[derive(Debug, Clone)]
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

    /// Attaches an observability recorder: the run feeds it a windowed
    /// metric series, run counters, and a `sim.run` profiling span.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Runs `policy` over `trace`, returning metrics for the measured
    /// (post-warmup) portion.
    pub fn run<P: CachePolicy + ?Sized>(&self, policy: &mut P, trace: &Trace) -> SimResult {
        let mut metrics = SimMetrics::default();
        let mut series = Vec::new();
        let mut bucket_hits = 0u64;
        let mut bucket_requests = 0u64;
        let mut peak_meta = 0u64;
        let start_ts = trace
            .requests
            .get(
                self.config
                    .warmup_requests
                    .min(trace.len().saturating_sub(1)),
            )
            .map(|r| r.ts);

        // Obs state lives outside the request loop: a local accumulator
        // (no locking per request) fed through the delta fast path — the
        // engine already keeps cumulative counters in `metrics`, so per
        // request the series costs one boundary compare, and the totals
        // snapshot (including the eviction-counter read through the trait
        // object, which costs more than the rest of the instrumentation)
        // only happens at window edges.
        let _run_span = self.obs.as_ref().map(|o| o.span("sim.run"));
        let mut acc = self.obs.as_ref().map(|o| SeriesAcc::new(o.window()));
        let mut warmup_evictions = 0u64;

        let wall_start = Instant::now();
        for (i, req) in trace.iter().enumerate() {
            if let Some(acc) = acc.as_mut() {
                if i >= self.config.warmup_requests {
                    if i == self.config.warmup_requests {
                        warmup_evictions = policy.evictions();
                    }
                    // Observed before `metrics` and the policy see the
                    // request, so each flushed window's delta covers
                    // exactly the requests and evictions it contained.
                    acc.observe(req.ts.as_micros(), || Totals {
                        requests: metrics.requests,
                        hits: metrics.hits,
                        misses_admitted: metrics.misses_admitted,
                        misses_bypassed: metrics.misses_bypassed,
                        bytes_requested: metrics.bytes_requested,
                        bytes_hit: metrics.bytes_hit,
                        evictions: policy.evictions(),
                        ..Totals::default()
                    });
                }
            }
            let outcome = policy.handle(req);
            debug_assert!(
                policy.used_bytes() <= policy.capacity(),
                "policy {} overflowed: used {} > capacity {}",
                policy.name(),
                policy.used_bytes(),
                policy.capacity()
            );
            if i % 1024 == 0 {
                peak_meta = peak_meta.max(policy.metadata_overhead_bytes());
            }
            if i < self.config.warmup_requests {
                continue;
            }

            metrics.requests += 1;
            metrics.bytes_requested += req.size as u128;
            match outcome {
                crate::policy::Outcome::Hit => {
                    metrics.hits += 1;
                    metrics.bytes_hit += req.size as u128;
                    bucket_hits += 1;
                }
                crate::policy::Outcome::MissAdmitted => metrics.misses_admitted += 1,
                crate::policy::Outcome::MissBypassed => metrics.misses_bypassed += 1,
            }
            bucket_requests += 1;
            if let Some(every) = self.config.series_every {
                if bucket_requests as usize >= every {
                    series.push(SeriesPoint {
                        requests: metrics.requests,
                        time_secs: req.ts.as_secs_f64(),
                        cumulative_hit_ratio: metrics.object_hit_ratio(),
                        window_hit_ratio: bucket_hits as f64 / bucket_requests as f64,
                    });
                    bucket_hits = 0;
                    bucket_requests = 0;
                }
            }
        }
        let wall_secs = wall_start.elapsed().as_secs_f64();
        peak_meta = peak_meta.max(policy.metadata_overhead_bytes());

        if let (Some(start), Some(last)) = (start_ts, trace.requests.last()) {
            metrics.duration_secs = last.ts.saturating_sub(start).as_secs_f64();
        }

        if let (Some(obs), Some(acc)) = (self.obs.as_ref(), acc) {
            if trace.len() <= self.config.warmup_requests {
                // The warmup-boundary sample never ran: everything was warmup.
                warmup_evictions = policy.evictions();
            }
            // Metadata before the windows: a streaming sink writes its
            // meta line with the first window record.
            obs.set_meta("policy", policy.name());
            obs.set_meta("trace", trace.name.as_str());
            obs.push_windows(acc.finish_observed(Totals {
                requests: metrics.requests,
                hits: metrics.hits,
                misses_admitted: metrics.misses_admitted,
                misses_bypassed: metrics.misses_bypassed,
                bytes_requested: metrics.bytes_requested,
                bytes_hit: metrics.bytes_hit,
                evictions: policy.evictions(),
                ..Totals::default()
            }));
            obs.counter_add("sim.requests", metrics.requests);
            obs.counter_add("sim.hits", metrics.hits);
            obs.counter_add("sim.evictions", policy.evictions());
            if warmup_evictions > 0 {
                obs.counter_add("sim.warmup_evictions", warmup_evictions);
            }
            obs.gauge_set("sim.peak_metadata_bytes", peak_meta as f64);
            // The one wall-clock quantity; zeroed under the determinism
            // contract so fixed-seed exports stay byte-identical.
            obs.gauge_set(
                "sim.wall_secs",
                if obs.deterministic() { 0.0 } else { wall_secs },
            );
        }

        SimResult {
            policy: policy.name().to_string(),
            trace: trace.name.clone(),
            metrics,
            series,
            wall_secs,
            peak_metadata_bytes: peak_meta,
            evictions: policy.evictions(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CachePolicy, Outcome};
    use lhr_trace::{ObjectId, Request, Time};
    use std::collections::hash_map::{Entry, HashMap};

    /// Admit-all, never-evict test double with unbounded capacity.
    struct Infinite {
        cached: HashMap<ObjectId, Time>,
        used: u64,
    }

    impl Infinite {
        fn new() -> Self {
            Infinite {
                cached: HashMap::new(),
                used: 0,
            }
        }
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
        fn admitted_at(&self, id: ObjectId) -> Option<Time> {
            self.cached.get(&id).copied()
        }
        fn restamp(&mut self, id: ObjectId, at: Time) {
            if let Some(stamp) = self.cached.get_mut(&id) {
                *stamp = at;
            }
        }
        fn handle(&mut self, req: &Request) -> Outcome {
            match self.cached.entry(req.id) {
                Entry::Occupied(_) => Outcome::Hit,
                Entry::Vacant(slot) => {
                    slot.insert(req.ts);
                    self.used += req.size;
                    Outcome::MissAdmitted
                }
            }
        }
        fn metadata_overhead_bytes(&self) -> u64 {
            self.cached.len() as u64 * 8
        }
    }

    fn abab_trace(n: usize) -> Trace {
        let mut t = Trace::new("abab");
        for i in 0..n {
            t.push(Request::new(Time::from_secs(i as u64), (i % 2) as u64, 100));
        }
        t
    }

    #[test]
    fn counts_hits_and_misses() {
        let mut p = Infinite::new();
        let r = Simulator::new(SimConfig::default()).run(&mut p, &abab_trace(10));
        assert_eq!(r.metrics.requests, 10);
        assert_eq!(r.metrics.misses_admitted, 2);
        assert_eq!(r.metrics.hits, 8);
        assert_eq!(r.metrics.bytes_hit, 800);
        assert!((r.metrics.object_hit_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn warmup_excludes_leading_requests() {
        let mut p = Infinite::new();
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
        let mut p = Infinite::new();
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
        let mut p = Infinite::new();
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
        let mut p = Infinite::new();
        let r = Simulator::new(SimConfig::default()).run(&mut p, &abab_trace(10));
        assert_eq!(r.peak_metadata_bytes, 16);
    }

    #[test]
    fn empty_trace_is_fine() {
        let mut p = Infinite::new();
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
        let mut p = Infinite::new();
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
        let mut p = Infinite::new();
        let cfg = SimConfig {
            warmup_requests: 100,
            series_every: None,
        };
        let r = Simulator::new(cfg).run(&mut p, &abab_trace(10));
        assert_eq!(r.metrics.requests, 0);
    }
}

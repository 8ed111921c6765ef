//! Chaos suite: replays traces through the CDN serving path under
//! escalating origin fault presets (flaky, brownout, full outage, recovery)
//! and asserts the graceful-degradation invariants — capacity and byte
//! accounting always hold, stale-serving lifts availability above the
//! no-stale baseline, the circuit breaker opens and closes at its
//! configured thresholds, and a fixed fault seed reproduces byte-identical
//! reports.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::policies::Lru;
use lhr_repro::proto::{
    presets, BreakerConfig, CdnServer, FaultConfig, ResilienceConfig, RetryPolicy, ServerConfig,
};
use lhr_repro::sim::store::SampleStore;
use lhr_repro::sim::{CachePolicy, CacheStore, Outcome};
use lhr_repro::trace::{Request, Time, Trace};

const MB: u64 = 1 << 20;

/// A trace of `n` all-distinct objects (every request is a compulsory
/// miss), one per second.
fn scan_trace(n: u64, size: u64) -> Trace {
    Trace::from_requests(
        "scan",
        (0..n)
            .map(|i| Request::new(Time::from_secs(i), i, size))
            .collect(),
    )
}

/// A mixed synthetic trace with skewed popularity and varied sizes,
/// expanded deterministically from `seed` (xorshift, as in properties.rs).
fn mixed_trace(n: u64, seed: u64) -> Trace {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut trace = Trace::new("mixed");
    for i in 0..n {
        // Rough Zipf-ish skew: half the traffic on 10 hot objects.
        let id = if next() % 2 == 0 {
            next() % 10
        } else {
            10 + next() % 200
        };
        let size = (id % 7 + 1) * 100_000;
        trace.push(Request::new(Time::from_secs(i), id, size));
    }
    trace
}

#[test]
fn fixed_seed_reports_are_byte_identical() {
    let trace = mixed_trace(3_000, 11);
    let duration = trace.duration().as_secs_f64();
    for preset in ["flaky", "brownout", "outage", "recovery"] {
        let mut config = presets::fault_preset(preset, 7, duration).expect("preset");
        config.deterministic = true;
        let run = |config: ServerConfig| {
            let mut server = CdnServer::new(Lru::new(40 * MB), config);
            server.replay(&trace).stable_json()
        };
        assert_eq!(
            run(config.clone()),
            run(config.clone()),
            "{preset}: same seed must reproduce byte-identical reports"
        );
        let mut lhr_config = config.clone();
        lhr_config.deterministic = true;
        let run_lhr = |config: ServerConfig| {
            let cache = LhrCache::new(
                40 * MB,
                LhrConfig {
                    seed: 5,
                    min_window_requests: 64,
                    ..LhrConfig::default()
                },
            );
            let mut server = CdnServer::new(cache, config);
            server.replay(&trace).stable_json()
        };
        assert_eq!(
            run_lhr(lhr_config.clone()),
            run_lhr(lhr_config),
            "{preset}: LHR-backed replay must also be reproducible"
        );
    }
}

#[test]
fn full_outage_stale_serving_beats_no_stale_baseline() {
    // One object, requested every 10 s with a 5 s freshness lifetime, so
    // every request after the first needs the origin — and the origin is
    // down for t ∈ [400, 600).
    let trace = Trace::from_requests(
        "stale-outage",
        (0..100u64)
            .map(|i| Request::new(Time::from_secs(i * 10), 1, MB))
            .collect(),
    );
    let faults = FaultConfig {
        outages: vec![(400.0, 600.0)],
        ..FaultConfig::default()
    };
    let run = |resilience: ResilienceConfig| {
        let config = ServerConfig {
            freshness_secs: Some(5.0),
            faults: faults.clone(),
            resilience,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(40 * MB), config);
        server.replay(&trace)
    };
    let baseline = run(ResilienceConfig::default()); // no stale serving
    let hardened = run(ResilienceConfig::hardened());

    // Analytic floor: every request outside the outage window is servable,
    // so with stale-serving (which covers the window itself) availability
    // can never fall below that fraction. The no-stale baseline may dip a
    // little further while the breaker cool-down drains post-outage.
    let outside_outage_pct = trace
        .iter()
        .filter(|r| {
            let t = r.ts.as_secs_f64();
            !(400.0..600.0).contains(&t)
        })
        .count() as f64
        / trace.len() as f64
        * 100.0;
    assert!(
        hardened.availability_pct >= outside_outage_pct - 1e-9,
        "stale-serving {} below analytic floor {}",
        hardened.availability_pct,
        outside_outage_pct
    );
    assert!(
        baseline.availability_pct >= outside_outage_pct - 5.0,
        "baseline {} far below floor {} (cool-down should cost a few requests at most)",
        baseline.availability_pct,
        outside_outage_pct
    );
    assert!(
        baseline.availability_pct < 100.0,
        "baseline must actually lose requests during the outage"
    );
    assert!(baseline.errors_served > 0);
    // Stale-serving covers the outage entirely: the cached copy stays
    // servable, so availability strictly exceeds the no-stale baseline.
    assert!(
        hardened.availability_pct > baseline.availability_pct,
        "stale-serving {} must beat baseline {}",
        hardened.availability_pct,
        baseline.availability_pct
    );
    assert!((hardened.availability_pct - 100.0).abs() < 1e-9);
    assert!(hardened.stale_served > 0);
    assert_eq!(hardened.errors_served, 0);
}

#[test]
fn breaker_opens_at_threshold_and_recovers_after_outage() {
    // Distinct-object misses once per second; origin down for t ∈ [10, 60).
    let trace = scan_trace(100, MB);
    let config = ServerConfig {
        resilience: ResilienceConfig {
            breaker: BreakerConfig {
                failure_threshold: 3,
                open_secs: 5.0,
                half_open_successes: 1,
            },
            coalesce: false,
            ..ResilienceConfig::default()
        },
        faults: FaultConfig {
            outages: vec![(10.0, 60.0)],
            ..FaultConfig::default()
        },
        ..ServerConfig::default()
    };
    let mut server = CdnServer::new(Lru::new(200 * MB), config);
    let r = server.replay(&trace);
    // The breaker trips once the threshold is hit, then keeps reopening on
    // failed half-open probes every `open_secs` until the outage ends, and
    // closes on the first successful probe after it.
    assert!(r.breaker_opens >= 2, "opens {}", r.breaker_opens);
    assert!(r.breaker_closes >= 1, "closes {}", r.breaker_closes);
    // Every in-outage request fails (50), plus at most a few fail-fast
    // requests while the last cool-down drains after recovery.
    assert!(
        (50..=55).contains(&r.errors_served),
        "errors {}",
        r.errors_served
    );
    assert!(
        r.availability_pct > 40.0 && r.availability_pct < 55.0,
        "availability {}",
        r.availability_pct
    );
}

#[test]
fn breaker_threshold_is_sharp_under_permanent_outage() {
    // Origin never answers and the breaker never re-probes (huge cool-down):
    // exactly `failure_threshold` requests run the full retry chain, so the
    // retry counter is exactly threshold × max_retries.
    let trace = scan_trace(100, MB);
    let config = ServerConfig {
        resilience: ResilienceConfig {
            retry: RetryPolicy {
                max_retries: 2,
                ..RetryPolicy::default()
            },
            breaker: BreakerConfig {
                failure_threshold: 3,
                open_secs: 1e12,
                half_open_successes: 1,
            },
            coalesce: false,
            ..ResilienceConfig::default()
        },
        faults: FaultConfig {
            outages: vec![(0.0, 1e12)],
            ..FaultConfig::default()
        },
        ..ServerConfig::default()
    };
    let mut server = CdnServer::new(Lru::new(200 * MB), config);
    let r = server.replay(&trace);
    assert_eq!(r.breaker_opens, 1);
    assert_eq!(r.breaker_closes, 0);
    assert_eq!(r.retries, 3 * 2, "threshold × max_retries retry attempts");
    assert_eq!(r.errors_served, 100);
    assert!((r.availability_pct - 0.0).abs() < 1e-9);
}

#[test]
fn flaky_origin_retries_recover_availability() {
    // All-miss trace against a flaky origin (≈7 % of attempts fail). The
    // breaker threshold is set out of reach so only retries matter.
    let trace = scan_trace(2_000, MB);
    let faults = FaultConfig::preset("flaky", 13, trace.duration().as_secs_f64()).expect("preset");
    let run = |max_retries: u32| {
        let config = ServerConfig {
            resilience: ResilienceConfig {
                retry: RetryPolicy {
                    max_retries,
                    ..RetryPolicy::default()
                },
                breaker: BreakerConfig {
                    failure_threshold: u32::MAX,
                    ..BreakerConfig::default()
                },
                ..ResilienceConfig::default()
            },
            faults: faults.clone(),
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 * MB), config);
        server.replay(&trace)
    };
    let no_retries = run(0);
    let with_retries = run(2);
    assert!(
        no_retries.errors_served > 50,
        "≈7% of 2000 should fail without retries, got {}",
        no_retries.errors_served
    );
    assert!(with_retries.retries > 0);
    assert!(
        with_retries.errors_served < no_retries.errors_served / 10,
        "retries {} vs none {}",
        with_retries.errors_served,
        no_retries.errors_served
    );
    assert!(with_retries.availability_pct > no_retries.availability_pct);
}

#[test]
fn brownout_inflates_degraded_latency_percentiles() {
    let trace = scan_trace(500, MB);
    let duration = trace.duration().as_secs_f64();
    let run = |preset: &str| {
        let mut config = presets::fault_preset(preset, 3, duration).expect("preset");
        config.deterministic = true;
        let mut server = CdnServer::new(Lru::new(10 * MB), config);
        server.replay(&trace)
    };
    let clean = run("none");
    let brownout = run("brownout");
    // A healthy origin degrades nothing.
    assert_eq!(clean.degraded_p90_latency_ms, 0.0);
    assert_eq!(clean.retries, 0);
    // Brownout: most fetches crawl at 1/10 rate, so the degraded
    // percentiles exist and overall latency is visibly worse.
    assert!(brownout.degraded_p90_latency_ms > clean.p90_latency_ms);
    // 75 % of fetches crawl at 1/10 origin rate: a 1 MB miss goes from
    // ~75 ms to ~111 ms, so the trace-wide mean rises by well over 20 %.
    assert!(
        brownout.mean_latency_ms > clean.mean_latency_ms * 1.2,
        "brownout {} vs clean {}",
        brownout.mean_latency_ms,
        clean.mean_latency_ms
    );
}

/// A policy that never caches: every request is a bypassed miss, which
/// keeps the coalescing window — not the cache — responsible for saving
/// origin fetches.
struct BypassAll {
    /// Zero bytes: holds nothing.
    store: SampleStore<()>,
}

impl CachePolicy for BypassAll {
    fn name(&self) -> &str {
        "BypassAll"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }
    fn handle(&mut self, _req: &Request) -> Outcome {
        Outcome::MissBypassed
    }
}

#[test]
fn coalescing_collapses_a_burst_of_misses_into_one_fetch() {
    // 20 requests for one object inside a few milliseconds — well within
    // the ~64 ms the origin fetch is in flight. The policy admits nothing,
    // so only coalescing can prevent 20 separate fetches.
    let n = 20u64;
    let trace = Trace::from_requests(
        "burst",
        (0..n)
            .map(|i| Request::new(Time::from_micros(i * 500), 1, MB))
            .collect(),
    );
    let duration = trace.duration().as_secs_f64();
    let run = |coalesce: bool| {
        let config = ServerConfig {
            resilience: ResilienceConfig {
                coalesce,
                ..ResilienceConfig::default()
            },
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(
            BypassAll {
                store: SampleStore::new(0),
            },
            config,
        );
        server.replay(&trace)
    };
    let on = run(true);
    let off = run(false);
    let wan_bytes = |r: &lhr_repro::proto::ServerReport| r.wan_gbps * duration * 1e9 / 8.0;
    assert_eq!(on.coalesced_fetches, n - 1);
    assert_eq!(off.coalesced_fetches, 0);
    assert!(
        (wan_bytes(&on) - MB as f64).abs() < 1.0,
        "coalesced burst fetches one object, got {} bytes",
        wan_bytes(&on)
    );
    assert!(
        (wan_bytes(&off) - (n * MB) as f64).abs() < 1.0,
        "uncoalesced burst fetches every time, got {} bytes",
        wan_bytes(&off)
    );
}

#[test]
fn capacity_and_accounting_invariants_under_all_presets() {
    let trace = mixed_trace(3_000, 42);
    let duration = trace.duration().as_secs_f64();
    let capacity = 20 * MB;
    for preset in FaultConfig::preset_names() {
        let config = presets::fault_preset(preset, 9, duration).expect("preset");

        // A classic and the learned policy, replayed under this preset;
        // closures so each gets a fresh instance.
        let checks: Vec<(
            &str,
            Box<dyn FnOnce() -> (u64, u64, lhr_repro::proto::ServerReport)>,
        )> = vec![
            (
                "lru",
                Box::new({
                    let config = config.clone();
                    let trace = &trace;
                    move || {
                        let mut s = CdnServer::new(Lru::new(capacity), config);
                        let r = s.replay(trace);
                        (s.policy().used_bytes(), s.policy().capacity(), r)
                    }
                }),
            ),
            (
                "lhr",
                Box::new({
                    let config = config.clone();
                    let trace = &trace;
                    move || {
                        let cache = LhrCache::new(
                            capacity,
                            LhrConfig {
                                seed: 3,
                                min_window_requests: 64,
                                ..LhrConfig::default()
                            },
                        );
                        let mut s = CdnServer::new(cache, config);
                        let r = s.replay(trace);
                        (s.policy().used_bytes(), s.policy().capacity(), r)
                    }
                }),
            ),
        ];

        for (name, check) in checks {
            let (used, cap, r) = check();
            let n = trace.len() as u64;
            assert!(
                used <= cap,
                "{preset}/{name}: capacity violated ({used} > {cap})"
            );
            assert!(
                (0.0..=100.0).contains(&r.availability_pct),
                "{preset}/{name}: availability {}",
                r.availability_pct
            );
            assert!(
                (0.0..=100.0).contains(&r.content_hit_pct),
                "{preset}/{name}: hit pct {}",
                r.content_hit_pct
            );
            assert!(r.errors_served <= n, "{preset}/{name}");
            assert!(r.stale_served <= n, "{preset}/{name}");
            assert!(r.coalesced_fetches <= n, "{preset}/{name}");
            // Errors and hits are disjoint outcomes of the measured window.
            assert!(
                r.errors_served + (r.content_hit_pct / 100.0 * n as f64).round() as u64 <= n,
                "{preset}/{name}: errors + hits exceed requests"
            );
            // Availability is exactly the non-error fraction.
            let expected = (n - r.errors_served) as f64 / n as f64 * 100.0;
            assert!(
                (r.availability_pct - expected).abs() < 1e-6,
                "{preset}/{name}: availability {} vs errors {}",
                r.availability_pct,
                r.errors_served
            );
            // The breaker can only close after having opened.
            assert!(r.breaker_closes <= r.breaker_opens, "{preset}/{name}");
            // A healthy origin must not degrade anything.
            if *preset == "none" {
                assert_eq!(r.errors_served, 0, "{name}");
                assert_eq!(r.retries, 0, "{name}");
                assert_eq!(r.breaker_opens, 0, "{name}");
                assert!((r.availability_pct - 100.0).abs() < 1e-9, "{name}");
            }
        }
    }
}

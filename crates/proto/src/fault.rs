//! Deterministic origin fault injection and the resilience primitives the
//! hardened serving path is built from.
//!
//! The paper's §6 prototype serves real traffic where origins time out,
//! brown out, and go down entirely. This module models that world without
//! giving up reproducibility:
//!
//! - [`FaultPlan`] draws a per-attempt [`OriginOutcome`] (success, error,
//!   timeout, latency spike) from a seeded schedule keyed on the global
//!   origin-attempt counter — pure [`lhr_util::rng`] arithmetic, no wall
//!   clock, so two replays with the same seed see byte-identical faults.
//!   Hard outage windows and post-outage slow-start ramps are driven by
//!   *trace* time.
//! - [`RetryPolicy`] is capped exponential backoff with deterministic
//!   jitter (the jitter draws come from their own stream of the plan's
//!   seed, so retries never perturb the fault schedule).
//! - [`CircuitBreaker`] is the classic closed → open → half-open machine:
//!   consecutive fetch failures trip it open, a trace-time cool-down later
//!   it admits probes, and enough probe successes close it again.
//! - [`ResilienceConfig`] bundles the above with the RFC 5861 stale-serving
//!   windows (`stale-if-error`, `stale-while-revalidate`) and the request
//!   coalescing switch.

use lhr_trace::Time;
use lhr_util::rng::{Rng, SeedableRng, SplitMix64};

/// Stream constants separating the plan's independent draw sequences.
const STREAM_OUTCOME: u64 = 0x0F_AC_ED;
const STREAM_JITTER: u64 = 0x31_77_E5;

/// One uniform draw in `[0, 1)` keyed on `(seed, stream, n)` — stateless,
/// so outcome number `n` is the same no matter what was drawn before it.
/// Crate-visible so [`crate::fleet`] can compile node-fault presets from
/// the same deterministic draw sequence.
pub(crate) fn keyed_uniform(seed: u64, stream: u64, n: u64) -> f64 {
    let mut rng = SplitMix64::seed_from_u64(
        seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(n.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    );
    rng.gen()
}

/// What the origin did with one fetch attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OriginOutcome {
    /// The fetch succeeds at the nominal origin rate.
    Success,
    /// The fetch succeeds but the origin transfers at `rate_scale` of its
    /// nominal rate (latency spike or slow-start epoch).
    Slow {
        /// Multiplier in `(0, 1]` on the origin transfer rate.
        rate_scale: f64,
    },
    /// The origin answered immediately with an error (costs one origin RTT).
    Error,
    /// No answer within the client timeout (costs the full timeout).
    Timeout,
}

/// A deterministic, seeded fault schedule for the origin.
///
/// Probabilities apply per *attempt* (retries of the same request draw
/// fresh outcomes). `outages` are hard windows of trace time during which
/// every attempt times out; each outage is followed by a linear slow-start
/// ramp of `slow_start_secs` during which successful fetches run at a
/// reduced rate climbing from 10 % back to 100 %.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the outcome and jitter draw streams.
    pub seed: u64,
    /// Probability an attempt returns an immediate origin error.
    pub error_prob: f64,
    /// Probability an attempt times out.
    pub timeout_prob: f64,
    /// Probability an attempt succeeds slowly (latency spike).
    pub slow_prob: f64,
    /// Rate multiplier applied on a latency spike.
    pub slow_rate_scale: f64,
    /// Hard outage windows `[start_secs, end_secs)` in trace time.
    pub outages: Vec<(f64, f64)>,
    /// Length of the slow-start ramp after each outage (0 disables).
    pub slow_start_secs: f64,
}

impl Default for FaultConfig {
    /// An infallible origin — the behaviour of the pre-fault serving path.
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            error_prob: 0.0,
            timeout_prob: 0.0,
            slow_prob: 0.0,
            slow_rate_scale: 1.0,
            outages: Vec::new(),
            slow_start_secs: 0.0,
        }
    }
}

impl FaultConfig {
    /// Names accepted by [`FaultConfig::preset`] (and `--faults` in the CLI).
    pub fn preset_names() -> &'static [&'static str] {
        &["none", "flaky", "brownout", "outage", "recovery"]
    }

    /// Builds a named preset scaled to a trace of `duration_secs`:
    ///
    /// - `none` — infallible origin.
    /// - `flaky` — 5 % errors, 2 % timeouts, 5 % latency spikes at ¼ rate.
    /// - `brownout` — most fetches crawl at 1/10 rate, some error outright.
    /// - `outage` — a hard outage over the middle fifth of the trace.
    /// - `recovery` — an outage followed by a slow-start ramp, plus light
    ///   background flakiness.
    pub fn preset(name: &str, seed: u64, duration_secs: f64) -> Option<FaultConfig> {
        let d = duration_secs.max(0.0);
        Some(match name {
            "none" => FaultConfig {
                seed,
                ..FaultConfig::default()
            },
            "flaky" => FaultConfig {
                seed,
                error_prob: 0.05,
                timeout_prob: 0.02,
                slow_prob: 0.05,
                slow_rate_scale: 0.25,
                ..FaultConfig::default()
            },
            "brownout" => FaultConfig {
                seed,
                error_prob: 0.05,
                slow_prob: 0.75,
                slow_rate_scale: 0.1,
                ..FaultConfig::default()
            },
            "outage" => FaultConfig {
                seed,
                outages: vec![(0.4 * d, 0.6 * d)],
                ..FaultConfig::default()
            },
            "recovery" => FaultConfig {
                seed,
                error_prob: 0.02,
                timeout_prob: 0.01,
                slow_prob: 0.02,
                slow_rate_scale: 0.25,
                outages: vec![(0.3 * d, 0.5 * d)],
                slow_start_secs: 0.2 * d,
                ..FaultConfig::default()
            },
            _ => return None,
        })
    }
}

/// The live fault schedule: a [`FaultConfig`] plus the draw counters.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    attempts: u64,
    jitters: u64,
}

impl FaultPlan {
    /// Builds a plan with fresh counters.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            config,
            attempts: 0,
            jitters: 0,
        }
    }

    /// The configuration this plan draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Total origin attempts drawn so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Whether trace time `now` falls inside a hard outage window.
    pub fn in_outage(&self, now: Time) -> bool {
        let t = now.as_secs_f64();
        self.config.outages.iter().any(|&(s, e)| t >= s && t < e)
    }

    /// Slow-start rate multiplier at `now`: ramps linearly from 0.1 to 1.0
    /// over `slow_start_secs` after each outage ends; 1.0 elsewhere.
    pub fn recovery_scale(&self, now: Time) -> f64 {
        if self.config.slow_start_secs <= 0.0 {
            return 1.0;
        }
        let t = now.as_secs_f64();
        let mut scale = 1.0f64;
        for &(_, end) in &self.config.outages {
            if t >= end && t < end + self.config.slow_start_secs {
                let frac = (t - end) / self.config.slow_start_secs;
                scale = scale.min(0.1 + 0.9 * frac);
            }
        }
        scale
    }

    /// Draws the outcome of the next origin attempt at trace time `now`.
    pub fn outcome(&mut self, now: Time) -> OriginOutcome {
        let n = self.attempts;
        self.attempts += 1;
        if self.in_outage(now) {
            return OriginOutcome::Timeout;
        }
        let c = &self.config;
        let u = keyed_uniform(c.seed, STREAM_OUTCOME, n);
        let base = if u < c.timeout_prob {
            OriginOutcome::Timeout
        } else if u < c.timeout_prob + c.error_prob {
            OriginOutcome::Error
        } else if u < c.timeout_prob + c.error_prob + c.slow_prob {
            OriginOutcome::Slow {
                rate_scale: c.slow_rate_scale,
            }
        } else {
            OriginOutcome::Success
        };
        let ramp = self.recovery_scale(now);
        match base {
            OriginOutcome::Success if ramp < 1.0 => OriginOutcome::Slow { rate_scale: ramp },
            OriginOutcome::Slow { rate_scale } if ramp < 1.0 => OriginOutcome::Slow {
                rate_scale: rate_scale * ramp,
            },
            other => other,
        }
    }

    /// The next deterministic jitter draw in `[0, 1)` (its own stream, so
    /// backoff jitter never shifts the fault schedule).
    pub fn jitter(&mut self) -> f64 {
        let n = self.jitters;
        self.jitters += 1;
        keyed_uniform(self.config.seed, STREAM_JITTER, n)
    }
}

/// Retry-with-exponential-backoff configuration for origin fetches.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// First backoff in milliseconds; doubles per retry.
    pub base_backoff_ms: f64,
    /// Backoff cap in milliseconds.
    pub max_backoff_ms: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a uniform
    /// factor in `[1 - jitter/2, 1 + jitter/2)`.
    pub jitter: f64,
    /// Client-side per-attempt timeout in milliseconds (the cost of an
    /// attempt the origin never answers).
    pub timeout_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 50.0,
            max_backoff_ms: 2_000.0,
            jitter: 0.5,
            timeout_ms: 500.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based), jittered by the
    /// uniform draw `u ∈ [0, 1)`.
    pub fn backoff_ms(&self, attempt: u32, u: f64) -> f64 {
        let exp = self.base_backoff_ms * 2f64.powi(attempt.min(30) as i32);
        exp.min(self.max_backoff_ms) * (1.0 - self.jitter * 0.5 + self.jitter * u)
    }
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive fetch failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Trace-time cool-down in seconds before half-open probing starts.
    pub open_secs: f64,
    /// Consecutive probe successes in half-open that close the breaker.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            open_secs: 30.0,
            half_open_successes: 2,
        }
    }
}

/// The breaker's observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Origin considered healthy; all fetches pass through.
    Closed,
    /// Origin considered down; fetches fail fast without contacting it.
    Open,
    /// Cool-down elapsed; fetches are admitted as probes.
    HalfOpen,
}

/// Per-origin circuit breaker: closed → open → half-open, driven entirely
/// by trace time and fetch results.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    probe_successes: u32,
    open_until: Time,
    opens: u64,
    closes: u64,
}

impl CircuitBreaker {
    /// A closed breaker with zeroed counters.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            probe_successes: 0,
            open_until: Time::ZERO,
            opens: 0,
            closes: 0,
        }
    }

    /// Current state (after any cool-down transition at `allow` time).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times the breaker transitioned closed/half-open → open.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Times the breaker transitioned half-open → closed.
    pub fn closes(&self) -> u64 {
        self.closes
    }

    /// Whether a fetch may proceed at trace time `now`. Moves open →
    /// half-open once the cool-down has elapsed.
    pub fn allow(&mut self, now: Time) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    self.probe_successes = 0;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful fetch (or probe).
    pub fn record_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.config.half_open_successes {
                    self.state = BreakerState::Closed;
                    self.consecutive_failures = 0;
                    self.closes += 1;
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Records a failed fetch (or probe) at trace time `now`.
    pub fn record_failure(&mut self, now: Time) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.trip(now);
                }
            }
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => {}
        }
    }

    fn trip(&mut self, now: Time) {
        self.state = BreakerState::Open;
        self.open_until = now + Time::from_secs_f64(self.config.open_secs);
        self.consecutive_failures = 0;
        self.opens += 1;
    }
}

/// Everything the hardened serving path layers over the raw origin fetch.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Retry/backoff/timeout settings.
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
    /// RFC 5861 `stale-if-error`: an expired cached copy may still be
    /// served for this many seconds past its freshness lifetime when the
    /// origin is unreachable. 0 disables stale-if-error.
    pub stale_if_error_secs: f64,
    /// RFC 5861 `stale-while-revalidate`: an expired copy within this many
    /// seconds past its lifetime is served immediately while revalidation
    /// happens off the user's critical path. 0 disables (revalidation stays
    /// synchronous, the pre-fault behaviour).
    pub stale_while_revalidate_secs: f64,
    /// Coalesce concurrent misses of one object into a single origin fetch.
    pub coalesce: bool,
}

impl Default for ResilienceConfig {
    /// Retries and breaker on, stale-serving off — identical user-visible
    /// behaviour to the pre-fault serving path when the origin never fails.
    fn default() -> Self {
        ResilienceConfig {
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            stale_if_error_secs: 0.0,
            stale_while_revalidate_secs: 0.0,
            coalesce: true,
        }
    }
}

impl ResilienceConfig {
    /// The full graceful-degradation stack: stale-serving enabled with a
    /// day of stale-if-error headroom and a minute of
    /// stale-while-revalidate, on top of the default retries and breaker.
    pub fn hardened() -> Self {
        ResilienceConfig {
            stale_if_error_secs: 86_400.0,
            stale_while_revalidate_secs: 60.0,
            ..ResilienceConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_always_succeeds() {
        let mut plan = FaultPlan::new(FaultConfig::default());
        for t in 0..1_000u64 {
            assert_eq!(plan.outcome(Time::from_secs(t)), OriginOutcome::Success);
        }
        assert_eq!(plan.attempts(), 1_000);
    }

    #[test]
    fn plan_is_deterministic_per_seed() {
        let config = FaultConfig::preset("flaky", 7, 100.0).unwrap();
        let mut a = FaultPlan::new(config.clone());
        let mut b = FaultPlan::new(config);
        for t in 0..5_000u64 {
            assert_eq!(
                a.outcome(Time::from_secs(t % 100)),
                b.outcome(Time::from_secs(t % 100))
            );
            assert_eq!(a.jitter().to_bits(), b.jitter().to_bits());
        }
    }

    #[test]
    fn flaky_probabilities_are_roughly_respected() {
        let mut plan = FaultPlan::new(FaultConfig::preset("flaky", 3, 1e6).unwrap());
        let n = 50_000;
        let mut errors = 0;
        let mut timeouts = 0;
        for t in 0..n {
            match plan.outcome(Time::from_secs(t)) {
                OriginOutcome::Error => errors += 1,
                OriginOutcome::Timeout => timeouts += 1,
                _ => {}
            }
        }
        let err_frac = errors as f64 / n as f64;
        let to_frac = timeouts as f64 / n as f64;
        assert!((0.04..0.06).contains(&err_frac), "{err_frac}");
        assert!((0.015..0.025).contains(&to_frac), "{to_frac}");
    }

    #[test]
    fn outage_window_times_out_every_attempt() {
        let config = FaultConfig {
            outages: vec![(10.0, 20.0)],
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(config);
        assert_eq!(plan.outcome(Time::from_secs(9)), OriginOutcome::Success);
        for t in 10..20u64 {
            assert_eq!(plan.outcome(Time::from_secs(t)), OriginOutcome::Timeout);
        }
        assert_eq!(plan.outcome(Time::from_secs(20)), OriginOutcome::Success);
    }

    #[test]
    fn slow_start_ramp_recovers_linearly() {
        let config = FaultConfig {
            outages: vec![(0.0, 100.0)],
            slow_start_secs: 50.0,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::new(config);
        assert!((plan.recovery_scale(Time::from_secs(100)) - 0.1).abs() < 1e-9);
        let mid = plan.recovery_scale(Time::from_secs(125));
        assert!((mid - 0.55).abs() < 1e-9, "{mid}");
        assert!((plan.recovery_scale(Time::from_secs(150)) - 1.0).abs() < 1e-9);
        // Outcomes during the ramp are Slow with the ramp's scale.
        let mut plan = plan;
        match plan.outcome(Time::from_secs(100)) {
            OriginOutcome::Slow { rate_scale } => assert!((rate_scale - 0.1).abs() < 1e-9),
            other => panic!("expected Slow, got {other:?}"),
        }
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_within_bounds() {
        let retry = RetryPolicy {
            max_retries: 8,
            base_backoff_ms: 100.0,
            max_backoff_ms: 1_000.0,
            jitter: 0.5,
            timeout_ms: 500.0,
        };
        for (attempt, nominal) in [(0u32, 100.0), (1, 200.0), (2, 400.0), (5, 1_000.0)] {
            for u in [0.0, 0.5, 0.999] {
                let b = retry.backoff_ms(attempt, u);
                assert!(
                    b >= nominal * 0.75 && b < nominal * 1.25,
                    "{attempt} {u} {b}"
                );
            }
        }
        // jitter == 0 is exact: retry 1 backs off 2 × base.
        let retry = RetryPolicy {
            jitter: 0.0,
            ..retry
        };
        assert!((retry.backoff_ms(1, 0.7) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_secs: 10.0,
            half_open_successes: 2,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        for t in 0..3u64 {
            assert!(b.allow(Time::from_secs(t)));
            b.record_failure(Time::from_secs(t));
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        // Still cooling down: fail fast.
        assert!(!b.allow(Time::from_secs(5)));
        // Cool-down elapsed: half-open probes.
        assert!(b.allow(Time::from_secs(12)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.closes(), 1);
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_secs: 5.0,
            half_open_successes: 1,
        });
        b.record_failure(Time::from_secs(0));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(Time::from_secs(6)));
        b.record_failure(Time::from_secs(6));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        // The new cool-down starts at the reopening failure.
        assert!(!b.allow(Time::from_secs(10)));
        assert!(b.allow(Time::from_secs(11)));
    }

    #[test]
    fn success_resets_consecutive_failures() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            open_secs: 5.0,
            half_open_successes: 1,
        });
        b.record_failure(Time::from_secs(0));
        b.record_success();
        b.record_failure(Time::from_secs(1));
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "non-consecutive failures must not trip"
        );
        b.record_failure(Time::from_secs(2));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn presets_build_and_unknown_is_none() {
        for name in FaultConfig::preset_names() {
            assert!(FaultConfig::preset(name, 1, 100.0).is_some(), "{name}");
        }
        // Names match exactly, as every CLI check does.
        assert!(FaultConfig::preset("FLAKY", 1, 100.0).is_none());
        assert!(FaultConfig::preset("nope", 1, 100.0).is_none());
    }
}

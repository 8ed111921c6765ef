//! The simulated CDN server and its resource report.
//!
//! The serving path layers graceful degradation over the origin fetch (see
//! [`crate::fault`]): retries with exponential backoff and jitter, a
//! per-origin circuit breaker, RFC 5861 stale serving from expired-but-
//! cached copies, and coalescing of concurrent misses into one in-flight
//! fetch. With the default [`ServerConfig`] (no injected faults) the path
//! behaves exactly like the original infallible-origin model.

use crate::fault::{CircuitBreaker, FaultConfig, FaultPlan, OriginOutcome, ResilienceConfig};
use crate::latency::{self, transfer_ms, ORIGIN_GBPS, ORIGIN_RTT_MS};
use crate::tally::{announce, gauge_wall_secs, OriginStats, Tally};
use lhr_obs::trace::TraceBuilder;
use lhr_obs::Obs;
use lhr_sim::ledger::Ledger;
use lhr_sim::shard::shard_seed;
use lhr_sim::CachePolicy;
use lhr_trace::{ObjectId, Request, Time, Trace};
use lhr_util::hash::FastMap;
use lhr_util::json::{Json, ToJson};
use std::borrow::Cow;
use std::time::Instant;

/// One trace detail pair (keeps the hook-point call sites short).
#[inline]
pub(crate) fn kv(key: &'static str, value: impl ToJson) -> (Cow<'static, str>, Json) {
    (Cow::Borrowed(key), value.to_json())
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Content freshness lifetime in seconds (ATS §6.1 step 2); `None`
    /// disables freshness checks (the Caffeine in-memory setting).
    pub freshness_secs: Option<f64>,
    /// Probability that a revalidated content is still fresh (no refetch).
    /// Deterministic per (object, epoch) — no RNG on the serving path.
    pub revalidate_fresh_prob: f64,
    /// Leading requests excluded from the report (cache warmup).
    pub warmup_requests: usize,
    /// The injected origin fault schedule (default: infallible origin).
    pub faults: FaultConfig,
    /// Retry / circuit-breaker / stale-serving / coalescing settings.
    pub resilience: ResilienceConfig,
    /// When true, wall-clock policy compute time is excluded from the
    /// latency and CPU model so two replays with the same fault seed
    /// produce byte-identical reports (see [`ServerReport::stable_json`]).
    pub deterministic: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            freshness_secs: Some(3_600.0),
            revalidate_fresh_prob: 0.9,
            warmup_requests: 0,
            faults: FaultConfig::default(),
            resilience: ResilienceConfig::default(),
            deterministic: false,
        }
    }
}

impl ServerConfig {
    /// This configuration for shard `s` of a sharded layer: the same
    /// serving path, with the fault plan drawing from the shard's own seed
    /// — [`shard_seed`], a pure function of (base seed, shard index).
    pub(crate) fn for_shard(&self, s: usize) -> Self {
        let mut config = self.clone();
        config.faults.seed = shard_seed(config.faults.seed, s);
        config
    }
}

/// Everything the prototype experiments report (Tables 2–4), plus the
/// degraded-mode counters of the fault-injected serving path.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Policy (prototype) name.
    pub name: String,
    /// Trace name.
    pub trace: String,
    /// Content (object) hit ratio, percent. Stale serves count as hits
    /// (they are served from the cache); error responses never do.
    pub content_hit_pct: f64,
    /// "max" experiment throughput in Gbps: total bytes served over the
    /// serving path's busy time.
    pub throughput_gbps: f64,
    /// Peak CPU percent: policy compute time over serving busy time.
    pub peak_cpu_pct: f64,
    /// Peak memory in GB: the largest `metadata_overhead_bytes()` the
    /// policy reported at a sampling tick (and at the end of the replay).
    /// Policy metadata only — the server's own tables (in-flight windows,
    /// latency samples) have never been counted — and each policy's
    /// estimate leaves out the 8-byte freshness stamp in its slot.
    pub peak_mem_gb: f64,
    /// P90 user latency, ms ("normal" replay).
    pub p90_latency_ms: f64,
    /// P99 user latency, ms.
    pub p99_latency_ms: f64,
    /// Mean user latency, ms.
    pub mean_latency_ms: f64,
    /// Average WAN traffic in Gbps over the trace duration.
    pub wan_gbps: f64,
    /// Percent of measured requests served successfully (fresh, revalidated,
    /// coalesced, or stale — everything except error responses).
    pub availability_pct: f64,
    /// Measured requests that got an error response (origin unreachable and
    /// no servable stale copy).
    pub errors_served: u64,
    /// Measured requests served from an expired cached copy (stale-if-error
    /// + stale-while-revalidate).
    pub stale_served: u64,
    /// Origin fetch retries over the whole replay (including warmup).
    pub retries: u64,
    /// Measured misses that joined an already in-flight origin fetch
    /// instead of issuing their own.
    pub coalesced_fetches: u64,
    /// Circuit-breaker transitions to open over the whole replay.
    pub breaker_opens: u64,
    /// Circuit-breaker transitions back to closed over the whole replay.
    pub breaker_closes: u64,
    /// P90 latency over degraded requests only (retried, stale-served,
    /// coalesced, or errored), ms; 0 when nothing degraded.
    pub degraded_p90_latency_ms: f64,
    /// P99 latency over degraded requests only, ms.
    pub degraded_p99_latency_ms: f64,
    /// Wall-clock seconds the replay took (simulation cost, not modeled
    /// time).
    pub replay_wall_secs: f64,
}

lhr_util::impl_json!(struct ServerReport {
    name,
    trace,
    content_hit_pct,
    throughput_gbps,
    peak_cpu_pct,
    peak_mem_gb,
    p90_latency_ms,
    p99_latency_ms,
    mean_latency_ms,
    wan_gbps,
    availability_pct,
    errors_served,
    stale_served,
    retries,
    coalesced_fetches,
    breaker_opens,
    breaker_closes,
    degraded_p90_latency_ms,
    degraded_p99_latency_ms,
    replay_wall_secs,
});

impl ServerReport {
    /// JSON with the wall-clock field zeroed: with
    /// [`ServerConfig::deterministic`] set, two replays of the same trace,
    /// policy, and fault seed produce byte-identical output.
    pub fn stable_json(&self) -> String {
        let mut stable = self.clone();
        stable.replay_wall_secs = 0.0;
        stable.to_json().to_string()
    }
}

/// Result of one hardened origin fetch (the retry chain as a whole).
struct FetchResult {
    /// Whether any attempt ultimately succeeded.
    ok: bool,
    /// Milliseconds burned before the successful transfer started (or
    /// before giving up): error RTTs, timeouts, and retry backoffs.
    delay_ms: f64,
    /// Rate multiplier of the successful attempt (1.0 nominal).
    rate_scale: f64,
    /// False when the circuit breaker failed the fetch fast without
    /// contacting the origin.
    attempted: bool,
}

impl FetchResult {
    /// Whether a successful fetch was slower than a clean one.
    fn degraded(&self) -> bool {
        self.delay_ms > 0.0 || self.rate_scale < 1.0
    }
}

/// How one request was ultimately served (what the shard tally records).
pub(crate) struct ServeOutcome {
    pub(crate) latency_ms: f64,
    pub(crate) service_ms: f64,
    pub(crate) wan: u64,
    pub(crate) hit: bool,
    pub(crate) stale: bool,
    pub(crate) error: bool,
    pub(crate) coalesced: bool,
    pub(crate) degraded: bool,
}

impl ServeOutcome {
    /// A clean successful response: no WAN traffic, every flag clear.
    pub(crate) fn ok(latency_ms: f64, service_ms: f64) -> Self {
        ServeOutcome {
            latency_ms,
            service_ms,
            wan: 0,
            hit: false,
            stale: false,
            error: false,
            coalesced: false,
            degraded: false,
        }
    }

    /// An error response (always degraded).
    pub(crate) fn failed(latency_ms: f64, service_ms: f64) -> Self {
        ServeOutcome {
            error: true,
            degraded: true,
            ..ServeOutcome::ok(latency_ms, service_ms)
        }
    }
}

/// A CDN server wrapping a cache policy. It owns the whole serving path:
/// the policy and the origin side — fault schedule, circuit breaker,
/// in-flight fetch windows and their running totals. Freshness has no
/// table here: each cached object's admission/revalidation time is the
/// stamp in the policy's own slot ([`CachePolicy::admitted_at`]), so the
/// one per-object table the server keeps is `in_flight`.
pub struct CdnServer<P: CachePolicy> {
    policy: P,
    config: ServerConfig,
    /// The origin's fault schedule, drawn from `config.faults.seed`.
    plan: FaultPlan,
    breaker: CircuitBreaker,
    /// Object → (fetch completion time, fetch succeeded): the in-flight
    /// windows concurrent misses coalesce into. Sharded layers route every
    /// request for an object to the same server, so a plain local map sees
    /// every fetch a miss could join.
    in_flight: FastMap<ObjectId, (Time, bool)>,
    /// Origin fetch retries so far, warmup included.
    retries: u64,
    /// Wall-clock policy compute so far, ms (zero when deterministic).
    compute_ms: f64,
    obs: Option<Obs>,
}

impl<P: CachePolicy> CdnServer<P> {
    /// Wraps `policy` in a server with the given configuration. A policy
    /// that arrives with objects already cached brings their stamps with
    /// it: they expire `freshness_secs` after the policy admitted them.
    pub fn new(policy: P, config: ServerConfig) -> Self {
        CdnServer {
            policy,
            plan: FaultPlan::new(config.faults.clone()),
            breaker: CircuitBreaker::new(config.resilience.breaker.clone()),
            in_flight: FastMap::default(),
            retries: 0,
            compute_ms: 0.0,
            config,
            obs: None,
        }
    }

    /// Attaches an observability recorder: the replay feeds it a windowed
    /// metric series, a latency histogram (µs), circuit-breaker / outage /
    /// stale-serve / coalescing events, and a `server.replay` span.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Access to the wrapped policy (e.g. to read LHR stats afterwards).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The origin-side running totals the tally reads after each request.
    #[inline]
    pub(crate) fn origin_stats(&self) -> OriginStats {
        OriginStats {
            retries: self.retries,
            compute_ms: self.compute_ms,
            breaker_opens: self.breaker.opens(),
            breaker_closes: self.breaker.closes(),
        }
    }

    /// Opportunistic cleanup (every few hundred requests): in-flight
    /// windows whose fetch has landed by `now`.
    pub(crate) fn housekeep(&mut self, now: Time) {
        self.in_flight.retain(|_, &mut (done_at, _)| now < done_at);
    }

    /// The one per-shard step: serves request `i` of the trace through the
    /// hardened path and records it in `tally`. [`Self::replay`] loops it
    /// over one tally; the engine runs it once per shard.
    #[inline]
    pub(crate) fn step(&mut self, tally: &mut Tally, i: usize, req: &Request) {
        let mut tb = tally.begin(i, req, || self.policy.evictions());
        let served = self.serve(req, tb.as_mut());
        if tally.tick() {
            tally
                .ledger
                .sample_meta(self.policy.metadata_overhead_bytes());
            self.housekeep(req.ts);
        }
        tally.record(i, req, &served, tb, self.origin_stats());
    }

    /// Takes the final metadata sample and flushes `tally` into its
    /// recorder, adding the counters only a single cache has.
    pub(crate) fn finish(&self, tally: &mut Tally) {
        tally
            .ledger
            .sample_meta(self.policy.metadata_overhead_bytes());
        let counts = *tally.ledger.totals();
        if let Some(obs) = tally.finish("server.", self.policy.evictions()) {
            obs.counter_add("server.hits", counts.hits);
            obs.counter_add("server.errors", counts.errors);
        }
    }

    /// Replays `trace` through the serving path, producing the full report.
    /// Cache contents, freshness and origin-side state (fault draws,
    /// breaker, retry count) carry over into a further call.
    pub fn replay(&mut self, trace: &Trace) -> ServerReport {
        let _replay_span = self.obs.as_ref().map(|o| o.span("server.replay"));
        if let Some(obs) = &self.obs {
            announce(obs, self.policy.name(), &trace.name, &self.config.faults);
        }
        let ledger = Ledger::new(self.config.warmup_requests, self.obs.clone());
        let mut tally = Tally::new(ledger, trace.len());
        let wall = Instant::now();
        for (i, req) in trace.iter().enumerate() {
            self.step(&mut tally, i, req);
        }
        self.finish(&mut tally);
        let wall_secs = wall.elapsed().as_secs_f64();
        if let Some(obs) = &self.obs {
            gauge_wall_secs(obs, wall_secs);
        }
        let name = self.policy.name().to_string();
        tally.report(name, &trace.name, trace.duration(), wall_secs)
    }

    /// Times one policy call (zeroed in deterministic mode) and adds it to
    /// the compute total. A `None` from the call (object absent, policy
    /// not consulted) costs one probe and is not timed.
    fn timed<T>(&mut self, call: impl FnOnce(&mut P) -> Option<T>) -> Option<(T, f64)> {
        // In deterministic mode the measurement is zeroed anyway, so skip
        // the clock_gettime pair entirely — at engine line rates the vDSO
        // calls alone were ~10% of the serve path.
        let t0 = (!self.config.deterministic).then(Instant::now);
        let outcome = call(&mut self.policy)?;
        let compute_ms = t0.map_or(0.0, |t0| t0.elapsed().as_secs_f64() * 1e3);
        self.compute_ms += compute_ms;
        Some((outcome, compute_ms))
    }

    /// Runs the policy on a missed `req` — its admission decision, which
    /// the policy keeps — and returns the compute time.
    fn handle_timed(&mut self, req: &Request) -> f64 {
        self.timed(|policy| Some(policy.handle(req)))
            .expect("handle always answers")
            .1
    }

    /// Runs one fetch through the breaker and the retry chain. When the
    /// request is sampled (`tb`), each attempt becomes an `origin_fetch`
    /// trace step and a breaker fast-fail a `breaker{state:open}` step;
    /// the trace clock advances by the same error-RTT / timeout / backoff
    /// components that build `delay_ms`.
    fn origin_fetch(&mut self, now: Time, mut tb: Option<&mut TraceBuilder>) -> FetchResult {
        if !self.breaker.allow(now) {
            if let Some(tb) = tb.as_deref_mut() {
                tb.push("breaker", 0, vec![kv("state", "open")]);
            }
            return FetchResult {
                ok: false,
                delay_ms: 0.0,
                rate_scale: 1.0,
                attempted: false,
            };
        }
        let retry = &self.config.resilience.retry;
        let mut delay_ms = 0.0;
        let mut attempt = 0u32;
        loop {
            // (outcome name, Some(rate_scale) on success, ms this attempt cost)
            let (name, done, step_ms) = match self.plan.outcome(now) {
                OriginOutcome::Success => ("success", Some(1.0), 0.0),
                OriginOutcome::Slow { rate_scale } => ("slow", Some(rate_scale), 0.0),
                OriginOutcome::Error => ("error", None, ORIGIN_RTT_MS),
                OriginOutcome::Timeout => ("timeout", None, retry.timeout_ms),
            };
            delay_ms += step_ms;
            let give_up = done.is_none() && attempt >= retry.max_retries;
            let backoff_ms = if done.is_none() && !give_up {
                retry.backoff_ms(attempt, self.plan.jitter())
            } else {
                0.0
            };
            if let Some(tb) = tb.as_deref_mut() {
                tb.advance(step_ms);
                let mut detail = vec![kv("attempt", attempt as u64 + 1), kv("outcome", name)];
                if backoff_ms > 0.0 {
                    detail.push(kv("backoff_ms", backoff_ms));
                }
                tb.push("origin_fetch", 0, detail);
                tb.advance(backoff_ms);
            }
            if done.is_some() {
                self.breaker.record_success();
            } else if give_up {
                self.breaker.record_failure(now);
            } else {
                delay_ms += backoff_ms;
                self.retries += 1;
                attempt += 1;
                continue;
            }
            return FetchResult {
                ok: done.is_some(),
                delay_ms,
                rate_scale: done.unwrap_or(1.0),
                attempted: true,
            };
        }
    }

    /// Serves one request through the hardened path.
    #[inline]
    pub(crate) fn serve(
        &mut self,
        req: &Request,
        mut tb: Option<&mut TraceBuilder>,
    ) -> ServeOutcome {
        let now = req.ts;
        // Fused present-check + hit processing: one table probe on the hot
        // path instead of `contains` followed by `handle`.
        let checked = self.timed(|policy| policy.hit_check(req));
        if let Some(tb) = tb.as_deref_mut() {
            tb.push("edge_lookup", req.size, vec![kv("hit", checked.is_some())]);
        }
        if let Some((outcome, compute_ms)) = checked {
            // The `hit_check` contract: `Some` for a cached id only, and
            // then a hit.
            debug_assert!(outcome.is_hit(), "hit_check answered {outcome:?}");
            return self.serve_cached(req, compute_ms, tb);
        }

        // Miss. A fetch for this object may already be in flight.
        if !self.config.resilience.coalesce {
            return self.serve_miss_fetch(req, tb);
        }
        if let Some(&(done_at, ok)) = self.in_flight.get(&req.id) {
            if now >= done_at {
                self.in_flight.remove(&req.id);
                return self.serve_miss_fetch(req, tb);
            }
            let remaining_ms = (done_at - now).as_secs_f64() * 1e3;
            if let Some(tb) = tb.as_deref_mut() {
                tb.advance(remaining_ms);
                tb.push(
                    "coalesce",
                    req.size,
                    vec![kv("leader", false), kv("ok", ok)],
                );
            }
            let joined = if ok {
                // Join the leader's fetch: the body arrives when the fetch
                // completes, then is served over the edge link. The access
                // still informs the policy's admission stats, but no second
                // origin fetch happens. An admission stamps its own slot.
                let compute_ms = self.handle_timed(req);
                ServeOutcome {
                    degraded: true,
                    ..ServeOutcome::ok(
                        remaining_ms + latency::hit_latency_ms(req.size, compute_ms),
                        latency::service_ms(req.size, true, compute_ms),
                    )
                }
            } else {
                // Sharing a fetch that is going to fail: the follower
                // learns the failure when the leader does.
                ServeOutcome::failed(remaining_ms + latency::error_latency_ms(0.0), 0.0)
            };
            return ServeOutcome {
                coalesced: true,
                ..joined
            };
        }
        self.serve_miss_fetch(req, tb)
    }

    /// The cached-object path: freshness check, revalidation (synchronous
    /// or stale-while-revalidate), stale-if-error fallback.
    fn serve_cached(
        &mut self,
        req: &Request,
        compute_ms: f64,
        mut tb: Option<&mut TraceBuilder>,
    ) -> ServeOutcome {
        let now = req.ts;
        let hit = |latency_ms: f64| ServeOutcome {
            hit: true,
            ..ServeOutcome::ok(latency_ms, latency::service_ms(req.size, true, compute_ms))
        };
        let hit_latency_ms = latency::hit_latency_ms(req.size, compute_ms);
        // The stamp sits in the slot `hit_check` has just touched.
        let age_past_fresh = self.config.freshness_secs.and_then(|limit| {
            let admitted = self.policy.admitted_at(req.id)?;
            let age = now.saturating_sub(admitted).as_secs_f64();
            (age > limit).then_some(age - limit)
        });
        let Some(age_past_fresh) = age_past_fresh else {
            // Fresh hit: the fast path.
            return hit(hit_latency_ms);
        };

        // Stale-while-revalidate: serve the expired copy immediately and
        // revalidate off the critical path.
        let (swr_secs, sie_secs) = (
            self.config.resilience.stale_while_revalidate_secs,
            self.config.resilience.stale_if_error_secs,
        );
        if swr_secs > 0.0 && age_past_fresh <= swr_secs {
            if let Some(tb) = tb.as_deref_mut() {
                tb.push(
                    "stale_serve",
                    req.size,
                    vec![kv("reason", "while_revalidate")],
                );
            }
            // The revalidation is off the user path — its origin_fetch steps
            // still land on the trace (they explain WAN traffic), but the
            // trace clock has already credited the user-visible hit latency.
            // A background failure leaves the copy stale; a later request
            // will retry (or fall back to stale-if-error).
            let changed = self.origin_fetch(now, tb).ok && !self.revalidated(req.id, now);
            return ServeOutcome {
                wan: if changed { req.size } else { 0 },
                stale: true,
                degraded: true,
                ..hit(hit_latency_ms)
            };
        }

        // Synchronous revalidation with the origin.
        let fetch = self.origin_fetch(now, tb.as_deref_mut());
        if fetch.ok {
            if self.revalidated(req.id, now) {
                return ServeOutcome {
                    degraded: fetch.degraded(),
                    ..hit(latency::revalidate_latency_ms(req.size, compute_ms) + fetch.delay_ms)
                };
            }
            // Changed at origin: refetch (WAN traffic) and deliver.
            return ServeOutcome {
                service_ms: transfer_ms(req.size, ORIGIN_GBPS * fetch.rate_scale.max(1e-6))
                    + compute_ms,
                wan: req.size,
                degraded: fetch.degraded(),
                ..hit(
                    latency::miss_latency_scaled_ms(req.size, compute_ms, fetch.rate_scale)
                        + fetch.delay_ms,
                )
            };
        }

        // Revalidation failed: stale-if-error if the copy is still within
        // its stale window, otherwise an error response.
        if sie_secs > 0.0 && age_past_fresh <= sie_secs {
            if let Some(tb) = tb {
                tb.push("stale_serve", req.size, vec![kv("reason", "if_error")]);
            }
            return ServeOutcome {
                stale: true,
                degraded: true,
                ..hit(hit_latency_ms + fetch.delay_ms)
            };
        }
        ServeOutcome::failed(
            latency::error_latency_ms(compute_ms) + fetch.delay_ms,
            compute_ms,
        )
    }

    /// The miss path: hardened origin fetch, then admission on success.
    fn serve_miss_fetch(
        &mut self,
        req: &Request,
        mut tb: Option<&mut TraceBuilder>,
    ) -> ServeOutcome {
        let now = req.ts;
        let coalesce = self.config.resilience.coalesce;
        let fetch = self.origin_fetch(now, tb.as_deref_mut());
        if !fetch.ok {
            // Fetch failed and there is no cached copy to fall back on.
            if coalesce && fetch.attempted && fetch.delay_ms > 0.0 {
                let done_at = now + Time::from_secs_f64(fetch.delay_ms / 1e3);
                self.in_flight.insert(req.id, (done_at, false));
            }
            return ServeOutcome::failed(latency::error_latency_ms(0.0) + fetch.delay_ms, 0.0);
        }
        // An admission stamps its own slot with `now`.
        let compute_ms = self.handle_timed(req);
        if coalesce {
            let fetch_ms = fetch.delay_ms + latency::origin_fetch_ms(req.size, fetch.rate_scale);
            let done_at = now + Time::from_secs_f64(fetch_ms / 1e3);
            self.in_flight.insert(req.id, (done_at, true));
            if let Some(tb) = tb {
                tb.push("coalesce", req.size, vec![kv("leader", true)]);
            }
        }
        ServeOutcome {
            wan: req.size,
            degraded: fetch.degraded(),
            ..ServeOutcome::ok(
                latency::miss_latency_scaled_ms(req.size, compute_ms, fetch.rate_scale)
                    + fetch.delay_ms,
                transfer_ms(req.size, ORIGIN_GBPS * fetch.rate_scale.max(1e-6)) + compute_ms,
            )
        }
    }

    /// A successful revalidation of `id` at `now`: restarts its freshness
    /// lifetime and returns whether the content was unchanged — a
    /// deterministic per-(object, freshness-epoch) draw.
    fn revalidated(&mut self, id: ObjectId, now: Time) -> bool {
        self.policy.restamp(id, now);
        let epoch =
            (now.as_secs_f64() / self.config.freshness_secs.unwrap_or(f64::INFINITY)) as u64;
        pseudo_uniform(id, epoch) < self.config.revalidate_fresh_prob
    }
}

/// Deterministic pseudo-uniform draw in [0, 1) from (id, epoch).
fn pseudo_uniform(id: ObjectId, epoch: u64) -> f64 {
    let mut x = id ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F);
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_obs::EventKind;
    use lhr_policies::Lru;
    use lhr_sim::Outcome;

    fn trace(n: usize, objects: u64, size: u64) -> Trace {
        let mut t = Trace::new("t");
        for i in 0..n {
            t.push(Request::new(
                Time::from_secs(i as u64),
                i as u64 % objects,
                size,
            ));
        }
        t
    }

    #[test]
    fn report_counts_hits_and_wan() {
        let mut server = CdnServer::new(
            Lru::new(10 << 20),
            ServerConfig {
                freshness_secs: None,
                ..ServerConfig::default()
            },
        );
        let report = server.replay(&trace(100, 2, 1 << 20));
        assert!((report.content_hit_pct - 98.0).abs() < 1e-9);
        // WAN carried exactly the two compulsory misses.
        let wan_bytes = report.wan_gbps * 99.0 * 1e9 / 8.0;
        assert!(
            (wan_bytes - 2.0 * (1 << 20) as f64).abs() < 1.0,
            "{wan_bytes}"
        );
        // Infallible origin: fully available, nothing degraded.
        assert!((report.availability_pct - 100.0).abs() < 1e-9);
        assert_eq!(report.errors_served, 0);
        assert_eq!(report.stale_served, 0);
        assert_eq!(report.retries, 0);
        assert_eq!(report.breaker_opens, 0);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        // Deterministic, and a cache that holds all 50 objects: with
        // wall-clock policy compute in the latencies and every request a
        // miss of one size, mean and P99 differ by microseconds of timer
        // noise, and one preempted request on a loaded host lifts the mean
        // above P99. Here 450 hits sit far below the 50 first-touch misses.
        let config = ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(64 << 20), config);
        let report = server.replay(&trace(500, 50, 1 << 20));
        // Percentiles are order statistics (the mean may exceed P90 under
        // heavy skew, so only these orderings are guaranteed).
        assert!(report.p90_latency_ms <= report.p99_latency_ms);
        assert!(report.mean_latency_ms <= report.p99_latency_ms);
        assert!(report.mean_latency_ms > 0.0);
    }

    #[test]
    fn stale_contents_revalidate() {
        // Freshness 10 s; object re-requested every 30 s → always stale.
        let mut t = Trace::new("stale");
        for i in 0..20u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            revalidate_fresh_prob: 1.0,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&t);
        // All hits, but every one pays the revalidation RTT: mean latency
        // exceeds the pure-hit latency by about one origin RTT.
        let pure_hit = latency::hit_latency_ms(1 << 20, 0.0);
        assert!(report.content_hit_pct > 90.0);
        assert!(
            report.mean_latency_ms > pure_hit + 0.9 * ORIGIN_RTT_MS,
            "mean {} vs pure hit {}",
            report.mean_latency_ms,
            pure_hit
        );
    }

    #[test]
    fn a_prewarmed_policy_brings_its_own_admission_times() {
        // The policy admitted object 1 at t = 0, before any server
        // existed. The server keeps no freshness table of its own, so the
        // copy ages from that admission (a server-side table, as there
        // used to be, would have no entry for it and serve it fresh for
        // ever).
        let mut lru = Lru::new(10 << 20);
        assert_eq!(
            lru.handle(&Request::new(Time::ZERO, 1, 1 << 20)),
            Outcome::MissAdmitted
        );
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            revalidate_fresh_prob: 1.0,
            resilience: ResilienceConfig {
                stale_while_revalidate_secs: 25.0,
                ..ResilienceConfig::default()
            },
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(lru, cfg);
        let mut t = Trace::new("prewarmed");
        for secs in [5, 30, 35] {
            t.push(Request::new(Time::from_secs(secs), 1, 1 << 20));
        }
        let report = server.replay(&t);
        // t = 5: fresh. t = 30: 20 s past freshness, served stale while the
        // revalidation restamps the slot. t = 35: fresh again.
        assert!((report.content_hit_pct - 100.0).abs() < 1e-9);
        assert_eq!(report.stale_served, 1);
        assert_eq!(
            server.policy().admitted_at(1),
            Some(Time::from_secs(30)),
            "the revalidation restarted the lifetime"
        );
    }

    #[test]
    fn changed_contents_count_as_wan_traffic() {
        let mut t = Trace::new("stale");
        for i in 0..50u64 {
            t.push(Request::new(Time::from_secs(i * 100), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            revalidate_fresh_prob: 0.0, // every revalidation refetches
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&t);
        // All 50 requests move a full object across the WAN (1 compulsory
        // miss + 49 refetches).
        let wan_bytes = report.wan_gbps * t.duration().as_secs_f64() * 1e9 / 8.0;
        assert!(
            (wan_bytes - 50.0 * (1 << 20) as f64).abs() < 10.0,
            "{wan_bytes}"
        );
    }

    #[test]
    fn warmup_excluded_from_hit_ratio() {
        let cfg = ServerConfig {
            warmup_requests: 2,
            freshness_secs: None,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&trace(10, 2, 1 << 20));
        assert!((report.content_hit_pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn stale_while_revalidate_hides_revalidation_latency() {
        // Freshness 10 s, requests every 30 s → always 20 s past freshness,
        // inside a 25 s stale-while-revalidate window.
        let mut t = Trace::new("swr");
        for i in 0..20u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            revalidate_fresh_prob: 1.0,
            resilience: ResilienceConfig {
                stale_while_revalidate_secs: 25.0,
                ..ResilienceConfig::default()
            },
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&t);
        // Stale serves are hits at hit latency — no revalidation RTT on the
        // user path (compare `stale_contents_revalidate` above).
        let pure_hit = latency::hit_latency_ms(1 << 20, 0.0);
        assert_eq!(report.stale_served, 19);
        assert!(report.content_hit_pct > 90.0);
        assert!(
            report.mean_latency_ms < pure_hit + 0.5 * ORIGIN_RTT_MS,
            "mean {}",
            report.mean_latency_ms
        );
    }

    #[test]
    fn full_outage_without_stale_serving_errors_every_revalidation() {
        // Origin down for the whole trace; freshness 10 s, requests every
        // 30 s. The first request errors (miss, no copy); every later one
        // has a cached-but-stale copy it may not serve.
        let mut t = Trace::new("outage");
        for i in 0..10u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            faults: FaultConfig {
                outages: vec![(0.0, 1e9)],
                ..FaultConfig::default()
            },
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg);
        let report = server.replay(&t);
        assert_eq!(report.errors_served, 10);
        assert!((report.availability_pct - 0.0).abs() < 1e-9);
        assert!(report.breaker_opens >= 1);
    }

    #[test]
    fn obs_records_outage_breaker_and_errors() {
        use lhr_obs::{ObsConfig, ObsWindow};
        let mut t = Trace::new("outage");
        for i in 0..10u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let obs = Obs::new(ObsConfig {
            window: ObsWindow::Requests(4),
            deterministic: true,
            ..ObsConfig::default()
        });
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            faults: FaultConfig {
                outages: vec![(0.0, 1e9)],
                ..FaultConfig::default()
            },
            deterministic: true,
            ..ServerConfig::default()
        };
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg).with_obs(obs.clone());
        let report = server.replay(&t);
        let events = obs.events();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
        assert_eq!(count(EventKind::OutageStart), 1);
        assert_eq!(count(EventKind::OutageEnd), 1);
        assert_eq!(count(EventKind::ErrorServe), report.errors_served);
        assert_eq!(count(EventKind::BreakerOpen), report.breaker_opens);
        let windows = obs.windows();
        assert_eq!(
            windows.iter().map(|w| w.errors).sum::<u64>(),
            report.errors_served
        );
        assert!(windows.iter().all(|w| w.availability() == 0.0));
        assert!(obs.to_jsonl().contains("\"path\":\"server.replay\""));
    }

    #[test]
    fn obs_records_stale_serves() {
        use lhr_obs::ObsConfig;
        let mut t = Trace::new("swr");
        for i in 0..20u64 {
            t.push(Request::new(Time::from_secs(i * 30), 1, 1 << 20));
        }
        let cfg = ServerConfig {
            freshness_secs: Some(10.0),
            revalidate_fresh_prob: 1.0,
            resilience: ResilienceConfig {
                stale_while_revalidate_secs: 25.0,
                ..ResilienceConfig::default()
            },
            ..ServerConfig::default()
        };
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        });
        let mut server = CdnServer::new(Lru::new(10 << 20), cfg).with_obs(obs.clone());
        let report = server.replay(&t);
        let stale_events = obs
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::StaleServe)
            .count() as u64;
        assert_eq!(stale_events, report.stale_served);
        assert_eq!(
            obs.windows().iter().map(|w| w.stale_served).sum::<u64>(),
            report.stale_served
        );
        // Latency histogram captured every measured request.
        let jsonl = obs.to_jsonl();
        assert!(jsonl.contains("\"name\":\"server.latency_us\""), "{jsonl}");
    }

    #[test]
    fn pseudo_uniform_is_in_range_and_spread() {
        let mut below = 0;
        for id in 0..10_000u64 {
            let u = pseudo_uniform(id, 3);
            assert!((0.0..1.0).contains(&u));
            if u < 0.5 {
                below += 1;
            }
        }
        assert!((4_000..6_000).contains(&below), "{below}");
    }
}

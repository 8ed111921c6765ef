//! The serving core's bookkeeping: one per-shard [`Tally`], one shard-order
//! [`Tally::merge`], one [`Tally::report`] from totals to a
//! [`ServerReport`].
//!
//! Every serving layer feeds the same accumulator. [`crate::CdnServer`]
//! steps one tally for the whole trace; [`crate::ShardedEngine`] steps one
//! per shard and merges them; [`crate::FleetEngine`] embeds one per shard
//! next to its fleet-only counters. Counters, latency samples, the windowed
//! series, the latency histogram and the breaker / stale / error / coalesce
//! events are therefore bumped and emitted in exactly one place, and the
//! hit / availability / WAN / percentile arithmetic is done once. The warmup
//! cut, the running totals and the window series are the tally's
//! [`Ledger`] — the one the simulator counts through too — so whichever
//! layer steps a tally, its windows reach the recorder at
//! [`Tally::finish`], and a sampled request trace is stamped with the
//! window the request was counted in.

use crate::fault::FaultConfig;
use crate::server::{ServeOutcome, ServerReport};
use lhr_obs::trace::{TraceBuilder, TraceRecorder};
use lhr_obs::{Event, EventKind, LogHistogram, Obs};
use lhr_sim::ledger::Ledger;
use lhr_trace::{Request, Time};

/// Both latency percentiles via selection instead of a full sort —
/// identical values (the k-th order statistic is unique under
/// `total_cmp`), O(n): select p90, then select p99 inside the ≥p90 tail
/// the first selection partitioned off. NaN latencies (a degenerate
/// latency model) still order last and degrade the percentile instead of
/// panicking the whole replay.
fn pct2(values: &mut [f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len();
    let i90 = ((n as f64 * 0.90).ceil() as usize).clamp(1, n) - 1;
    let i99 = ((n as f64 * 0.99).ceil() as usize).clamp(1, n) - 1;
    let (_, &mut p90, tail) = values.select_nth_unstable_by(i90, f64::total_cmp);
    let p99 = if i99 > i90 {
        *tail.select_nth_unstable_by(i99 - i90 - 1, f64::total_cmp).1
    } else {
        p90
    };
    (p90, p99)
}

/// Appends `from` to `into` and leaves `from` without a buffer. The first
/// non-empty vector is adopted as it is — a one-shard merge copies nothing
/// and never holds two full vectors — and the next one makes room for
/// `room` samples in all, so a many-shard merge still grows only once.
fn append(into: &mut Vec<f64>, from: &mut Vec<f64>, room: usize) {
    if into.is_empty() {
        *into = std::mem::take(from);
    } else {
        into.reserve(room.saturating_sub(into.len()));
        into.extend(std::mem::take(from));
    }
}

/// Stamps the run's identity on the master recorder and emits the injected
/// origin outage schedule up front, so the event stream explains any
/// availability dip that follows.
pub(crate) fn announce(obs: &Obs, policy: &str, trace: &str, faults: &FaultConfig) {
    obs.set_meta("policy", policy);
    obs.set_meta("trace", trace);
    for &(start, end) in &faults.outages {
        obs.emit(Event::new(start, EventKind::OutageStart).field("until_secs", end));
        obs.emit(Event::new(end, EventKind::OutageEnd));
    }
}

/// The wall-time gauge every layer leaves on its master recorder (zeroed
/// for byte-identical deterministic exports).
pub(crate) fn gauge_wall_secs(obs: &Obs, wall_secs: f64) {
    let stable = if obs.deterministic() { 0.0 } else { wall_secs };
    obs.gauge_set("server.replay_wall_secs", stable);
}

/// Replayed requests (warmup included) per wall-clock second — the
/// machine-dependent rate the threaded reports carry.
pub(crate) fn per_sec(requests: usize, wall_secs: f64) -> f64 {
    if wall_secs > 0.0 {
        requests as f64 / wall_secs
    } else {
        0.0
    }
}

/// A server's origin-side running totals, warmup included — read after
/// every request so the tally can turn breaker transitions into events,
/// and summed across shards by [`Tally::merge`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct OriginStats {
    pub(crate) retries: u64,
    /// Wall-clock policy compute, ms (zero in deterministic mode).
    pub(crate) compute_ms: f64,
    pub(crate) breaker_opens: u64,
    pub(crate) breaker_closes: u64,
}

/// The breaker transitions between two readings of the origin totals. The
/// two event emitters are rare and allocate; kept out of line they cost
/// the per-request path one branch each.
#[cold]
fn breaker_events(obs: &Obs, req: &Request, was: &OriginStats, now: &OriginStats) {
    let t = req.ts.as_secs_f64();
    if now.breaker_opens > was.breaker_opens {
        obs.emit(Event::new(t, EventKind::BreakerOpen).field("opens", now.breaker_opens));
    }
    if now.breaker_closes > was.breaker_closes {
        obs.emit(Event::new(t, EventKind::BreakerClose).field("closes", now.breaker_closes));
    }
}

/// The stale / error / coalesce events of one degraded request.
#[cold]
fn serve_events(obs: &Obs, req: &Request, served: &ServeOutcome) {
    let t = req.ts.as_secs_f64();
    for (flag, kind) in [
        (served.stale, EventKind::StaleServe),
        (served.error, EventKind::ErrorServe),
        (served.coalesced, EventKind::Coalesce),
    ] {
        if flag {
            obs.emit(Event::new(t, kind).field("id", req.id));
        }
    }
}

/// One shard's accumulators, owned by exactly one worker — and, after
/// [`Tally::merge`], the run's totals.
#[derive(Default)]
pub(crate) struct Tally {
    /// The warmup cut, the measured requests (as the window series reads
    /// them: a *hit* is whatever the layer passes as one, an *error*
    /// includes the fleet's unrouted requests, and admission is not
    /// tracked), the metadata peak and the recorder.
    pub(crate) ledger: Ledger,
    pub(crate) wan_bytes: u128,
    busy_ms: f64,
    latencies: Vec<f64>,
    degraded_latencies: Vec<f64>,
    origin: OriginStats,
    /// The request-trace sampler, while a recorder is attached.
    tracer: Option<TraceRecorder>,
}

// The per-request methods below carry `#[inline]`: their callers sit in
// other modules (other codegen units), and left as calls they cost the
// fleet ≈10 % and the obs-on engine ≈8 % of replay time.
impl Tally {
    /// A tally counting into `ledger` — one recording straight into the
    /// caller's recorder ([`Ledger::new`]) or a shard's
    /// ([`Ledger::shard`]) — with room for `latency_cap` measured requests:
    /// a shard passes exactly the count the partition says it will step
    /// ([`lhr_sim::shard::Partition::measured`]), so the latency vector
    /// never reallocates mid-replay however skewed the shards are.
    pub(crate) fn new(ledger: Ledger, latency_cap: usize) -> Self {
        let tracer = ledger.obs().map(|obs| {
            let every = obs.config().trace_sample as usize;
            if let Some(expected) = latency_cap.checked_div(every) {
                // The sampled share, with slack for its spread.
                obs.reserve_traces(expected + expected / 8 + 16);
            }
            obs.trace_recorder()
        });
        Tally {
            ledger,
            latencies: Vec::with_capacity(latency_cap),
            tracer,
            ..Tally::default()
        }
    }

    /// Counts one stepped request; true every 512th (starting with the
    /// first), when the caller samples metadata and prunes its maps.
    #[inline]
    pub(crate) fn tick(&mut self) -> bool {
        self.ledger.tick(512)
    }

    /// Opens request `i` before the policy sees it: shows the window
    /// series the request ([`Ledger::observe`]; `evictions` reads the
    /// policy's lifetime eviction counter) and starts a request trace if
    /// the request is sampled. Sampling is a pure function of `(object,
    /// trace time)` and the id is the global request index, so the sampled
    /// set is identical no matter how the requests were sharded. Warmup
    /// requests are never sampled (they have no metric window to anchor an
    /// exemplar to).
    #[inline]
    pub(crate) fn begin(
        &mut self,
        i: usize,
        req: &Request,
        evictions: impl FnOnce() -> u64,
    ) -> Option<TraceBuilder> {
        self.ledger.observe(i, req, evictions);
        let tracer = self.tracer.as_ref().filter(|_| self.ledger.measures(i))?;
        tracer.begin(i as u64, req.id, req.ts.as_micros(), req.size)
    }

    /// Records how request `i` was served: breaker transitions (warmup
    /// included — the breaker carries state into the measured interval),
    /// then, past the warmup cut, the counters, the latency samples, the
    /// stale / error / coalesce events and the finished request trace.
    #[inline]
    pub(crate) fn record(
        &mut self,
        i: usize,
        req: &Request,
        served: &ServeOutcome,
        tb: Option<TraceBuilder>,
        origin: OriginStats,
    ) {
        if let Some(obs) = self.ledger.obs() {
            if origin.breaker_opens > self.origin.breaker_opens
                || origin.breaker_closes > self.origin.breaker_closes
            {
                breaker_events(obs, req, &self.origin, &origin);
            }
        }
        self.origin = origin;
        if !self.ledger.measures(i) {
            return;
        }

        let c = self.ledger.count(req.size, served.hit);
        c.errors += served.error as u64;
        c.stale_served += served.stale as u64;
        c.coalesced += served.coalesced as u64;
        self.wan_bytes += served.wan as u128;
        self.busy_ms += served.service_ms;
        self.latencies.push(served.latency_ms);
        if served.degraded {
            self.degraded_latencies.push(served.latency_ms);
        }

        let Some(obs) = self.ledger.obs() else {
            return;
        };
        if served.stale | served.error | served.coalesced {
            serve_events(obs, req, served);
        }
        if let Some(tb) = tb {
            obs.push_trace(tb.finish(served.latency_ms, self.ledger.window_index()));
        }
    }

    /// Once the shard's subsequence is exhausted: flushes the remaining
    /// windows ([`Ledger::finish`], with the policy's lifetime
    /// `evictions`), the shared counters and the latency histogram into the
    /// recorder under `prefix` (`server.` / `fleet.`), and returns the
    /// recorder so the layer can add the counters only it keeps. Call
    /// before [`Self::report`], which reorders the latency samples.
    pub(crate) fn finish(&mut self, prefix: &str, evictions: u64) -> Option<&Obs> {
        self.ledger.finish(evictions);
        let obs = self.ledger.obs()?;
        let counts = self.ledger.totals();
        for (name, n) in [
            ("requests", counts.requests),
            ("stale_served", counts.stale_served),
            ("coalesced", counts.coalesced),
            ("retries", self.origin.retries),
        ] {
            obs.counter_add(&format!("{prefix}{name}"), n);
        }
        // Built here, from the samples the report keeps anyway, instead of
        // one update per request: the histogram holds integer sums, so the
        // order of recording cannot show.
        let mut lat_hist = LogHistogram::new();
        for &ms in &self.latencies {
            if ms.is_finite() && ms >= 0.0 {
                lat_hist.record((ms * 1e3) as u64);
            }
        }
        if lat_hist.total() > 0 {
            obs.hist_merge(&format!("{prefix}latency_us"), &lat_hist);
        }
        Some(obs)
    }

    /// Merges finished shard tallies **in the order given** — callers pass
    /// fixed shard order, so latency concatenation and float sums
    /// associate identically at any thread count — and their ledgers
    /// ([`Ledger::merge`]), which absorb the shard recorders into `master`
    /// in the same order.
    pub(crate) fn merge<'a>(
        shards: impl Iterator<Item = &'a mut Tally>,
        master: Option<&Obs>,
        latency_cap: usize,
    ) -> Tally {
        let mut total = Tally::default();
        let mut ledgers = Vec::new();
        for shard in shards {
            append(&mut total.latencies, &mut shard.latencies, latency_cap);
            append(
                &mut total.degraded_latencies,
                &mut shard.degraded_latencies,
                0,
            );
            total.wan_bytes += shard.wan_bytes;
            total.busy_ms += shard.busy_ms;
            total.origin.retries += shard.origin.retries;
            total.origin.compute_ms += shard.origin.compute_ms;
            total.origin.breaker_opens += shard.origin.breaker_opens;
            total.origin.breaker_closes += shard.origin.breaker_closes;
            ledgers.push(&mut shard.ledger);
        }
        total.ledger = Ledger::merge(ledgers, master);
        total
    }

    /// The report of these totals (one shard's, or a merge's) over the
    /// trace named `trace`, which spans `duration`. Percentiles select in
    /// place, and the mean sums the vector in the order selection left it —
    /// both pure functions of the shard-order concatenation.
    pub(crate) fn report(
        &mut self,
        name: String,
        trace: &str,
        duration: Time,
        wall_secs: f64,
    ) -> ServerReport {
        let (p90_latency_ms, p99_latency_ms) = pct2(&mut self.latencies);
        let (degraded_p90_latency_ms, degraded_p99_latency_ms) = pct2(&mut self.degraded_latencies);
        let mean_latency_ms = if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
        };
        let counts = self.ledger.totals();
        let (measured, busy_ms) = (counts.requests, self.busy_ms);
        let duration = duration.as_secs_f64().max(1e-9);
        ServerReport {
            name,
            trace: trace.to_string(),
            content_hit_pct: if measured == 0 {
                0.0
            } else {
                counts.hits as f64 / measured as f64 * 100.0
            },
            throughput_gbps: if busy_ms <= 0.0 {
                0.0
            } else {
                counts.bytes_requested as f64 * 8.0 / (busy_ms / 1e3) / 1e9
            },
            peak_cpu_pct: if busy_ms <= 0.0 {
                0.0
            } else {
                (self.origin.compute_ms / busy_ms * 100.0).min(100.0)
            },
            peak_mem_gb: self.ledger.peak_meta() as f64 / 1e9,
            p90_latency_ms,
            p99_latency_ms,
            mean_latency_ms,
            wan_gbps: self.wan_bytes as f64 * 8.0 / duration / 1e9,
            availability_pct: if measured == 0 {
                100.0
            } else {
                (measured - counts.errors) as f64 / measured as f64 * 100.0
            },
            errors_served: counts.errors,
            stale_served: counts.stale_served,
            retries: self.origin.retries,
            coalesced_fetches: counts.coalesced,
            breaker_opens: self.origin.breaker_opens,
            breaker_closes: self.origin.breaker_closes,
            degraded_p90_latency_ms,
            degraded_p99_latency_ms,
            replay_wall_secs: wall_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_latency_degrades_percentile_instead_of_panicking() {
        // NaN latencies (0/0-style rates) must not panic the replay's
        // percentiles: they sort last under total_cmp.
        let mut latencies: Vec<f64> = (0..50).map(f64::from).collect();
        latencies[7] = f64::NAN;
        let (p90, p99) = pct2(&mut latencies);
        assert_eq!(p90, 45.0);
        assert!(p99.is_nan());
        assert_eq!(pct2(&mut []), (0.0, 0.0));
    }
}

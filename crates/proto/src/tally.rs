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
//! hit / availability / WAN / percentile arithmetic is done once.

use crate::fault::FaultConfig;
use crate::server::{ServeOutcome, ServerReport};
use lhr_obs::series::{ReqSample, SeriesAcc};
use lhr_obs::trace::{TraceBuilder, TraceRecorder};
use lhr_obs::{Event, EventKind, LogHistogram, Obs};
use lhr_trace::{Request, Trace};

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

/// Stamps the run's identity on the master recorder and emits the injected
/// origin outage schedule up front, so the event stream explains any
/// availability dip that follows. Called before the first request: a
/// streaming sink writes its meta line when the first window lands, and
/// the line must already be final.
pub(crate) fn announce(obs: &Obs, policy: &str, trace: &Trace, faults: &FaultConfig) {
    obs.set_meta("policy", policy);
    obs.set_meta("trace", trace.name.as_str());
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

/// One shard's accumulators, owned by exactly one worker — and, after
/// [`Tally::merge`], the run's totals.
#[derive(Default)]
pub(crate) struct Tally {
    /// Leading requests (by global trace index) excluded from everything
    /// below except `seen`, `peak_meta` and `origin`.
    warmup: usize,
    /// Requests stepped, warmup included.
    pub(crate) seen: u64,
    pub(crate) measured: u64,
    pub(crate) hits: u64,
    /// Error responses (for the fleet this includes unrouted requests).
    pub(crate) errors: u64,
    stale_served: u64,
    coalesced: u64,
    pub(crate) bytes_served: u128,
    pub(crate) wan_bytes: u128,
    busy_ms: f64,
    latencies: Vec<f64>,
    degraded_latencies: Vec<f64>,
    /// Peak sampled metadata bytes (summed over shards once merged).
    peak_meta: u64,
    origin: OriginStats,
    obs: Option<Obs>,
    tracer: Option<TraceRecorder>,
    acc: Option<SeriesAcc>,
    /// Hand windows to the recorder as they close instead of at
    /// [`Self::finish`].
    stream: bool,
    lat_hist: LogHistogram,
    last_evictions: u64,
}

// The per-request methods below carry `#[inline]`: their callers sit in
// other modules (other codegen units), and left as calls they cost the
// fleet ≈10 % and the obs-on engine ≈8 % of replay time.
impl Tally {
    /// A tally recording straight into `obs`: windows are handed over as
    /// they close, so a streaming sink sees them mid-replay.
    pub(crate) fn new(obs: Option<Obs>, warmup: usize, latency_cap: usize) -> Self {
        Tally {
            warmup,
            latencies: Vec::with_capacity(latency_cap),
            tracer: obs.as_ref().map(Obs::trace_recorder),
            acc: obs.as_ref().map(|o| SeriesAcc::new(o.window())),
            obs,
            stream: true,
            ..Tally::default()
        }
    }

    /// One shard's tally of a threaded replay, with room for exactly the
    /// `measured` requests the partition says the shard will step
    /// ([`lhr_sim::shard::Partition::measured`]), so the latency vector
    /// never reallocates mid-replay however skewed the shards are. It
    /// records into a private recorder built from `master`'s configuration,
    /// which [`Tally::merge`] absorbs in shard order; its windows merge by
    /// index there, so they stay put until [`Self::finish`].
    pub(crate) fn shard(master: Option<&Obs>, warmup: usize, measured: usize) -> Self {
        let private = master.map(|m| Obs::new(m.config().clone()));
        Tally {
            stream: false,
            ..Tally::new(private, warmup, measured)
        }
    }

    /// The recorder this tally feeds (what shard policies attach to).
    #[inline]
    pub(crate) fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Whether trace index `i` is past the warmup cut.
    #[inline]
    pub(crate) fn measures(&self, i: usize) -> bool {
        i >= self.warmup
    }

    /// Counts one stepped request; true every 512th (starting with the
    /// first), when the caller samples metadata and prunes its maps.
    #[inline]
    pub(crate) fn tick(&mut self) -> bool {
        self.seen += 1;
        self.seen % 512 == 1
    }

    /// Folds one metadata-overhead sample into the peak.
    #[inline]
    pub(crate) fn sample_meta(&mut self, bytes: u64) {
        self.peak_meta = self.peak_meta.max(bytes);
    }

    /// Starts a request trace if request `i` is sampled. Sampling is a
    /// pure function of `(object, trace time)` and the id is the global
    /// request index, so the sampled set is identical no matter how the
    /// requests were sharded. Warmup requests are never sampled (they have
    /// no metric window to anchor an exemplar to).
    #[inline]
    pub(crate) fn begin_trace(&self, i: usize, req: &Request) -> Option<TraceBuilder> {
        let tracer = self.tracer.filter(|_| self.measures(i))?;
        tracer.begin(i as u64, req.id, req.ts.as_micros(), req.size)
    }

    /// Records how request `i` was served: breaker transitions (warmup
    /// included — the breaker carries state into the measured interval),
    /// then, past the warmup cut, the counters, the latency samples, the
    /// window sample and histogram, the stale / error / coalesce events and
    /// the finished request trace. `evictions` reads the policy's lifetime
    /// eviction counter and is only called when a windowed series is on.
    #[inline]
    pub(crate) fn record(
        &mut self,
        i: usize,
        req: &Request,
        served: &ServeOutcome,
        tb: Option<TraceBuilder>,
        origin: OriginStats,
        evictions: impl FnOnce() -> u64,
    ) {
        if let Some(obs) = &self.obs {
            let t = req.ts.as_secs_f64();
            let opens = origin.breaker_opens;
            if opens > self.origin.breaker_opens {
                obs.emit(Event::new(t, EventKind::BreakerOpen).field("opens", opens));
            }
            let closes = origin.breaker_closes;
            if closes > self.origin.breaker_closes {
                obs.emit(Event::new(t, EventKind::BreakerClose).field("closes", closes));
            }
        }
        self.origin = origin;
        // Read during warmup too, so warmup evictions are baselined away.
        let evicted = if self.acc.is_some() {
            let now = evictions();
            let delta = now.saturating_sub(self.last_evictions);
            self.last_evictions = now;
            delta
        } else {
            0
        };
        if !self.measures(i) {
            return;
        }

        self.measured += 1;
        self.bytes_served += req.size as u128;
        self.wan_bytes += served.wan as u128;
        self.busy_ms += served.service_ms;
        self.hits += served.hit as u64;
        self.errors += served.error as u64;
        self.stale_served += served.stale as u64;
        self.coalesced += served.coalesced as u64;
        self.latencies.push(served.latency_ms);
        if served.degraded {
            self.degraded_latencies.push(served.latency_ms);
        }

        let (Some(acc), Some(obs)) = (self.acc.as_mut(), self.obs.as_ref()) else {
            return;
        };
        let closed = acc.on_request(ReqSample {
            t_micros: req.ts.as_micros(),
            bytes: req.size,
            hit: served.hit,
            admitted: false,
            bypassed: false,
            error: served.error,
            stale: served.stale,
            coalesced: served.coalesced,
        });
        // After the sample: the credit may still land on a window this
        // request just closed.
        acc.on_evictions(evicted);
        if served.latency_ms.is_finite() && served.latency_ms >= 0.0 {
            self.lat_hist.record((served.latency_ms * 1e3) as u64);
        }
        if closed && self.stream {
            obs.push_windows(acc.take_done());
        }
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
        if let Some(tb) = tb {
            obs.push_trace(tb.finish(served.latency_ms, acc.last_index()));
        }
    }

    /// Once the shard's subsequence is exhausted: flushes the remaining
    /// windows, the shared counters and the latency histogram into the
    /// recorder under `prefix` (`server.` / `fleet.`), and returns the
    /// recorder so the layer can add the counters only it keeps.
    pub(crate) fn finish(&mut self, prefix: &str) -> Option<&Obs> {
        let obs = self.obs.as_ref()?;
        if let Some(acc) = self.acc.take() {
            obs.push_windows(acc.finish());
        }
        for (name, n) in [
            ("requests", self.measured),
            ("stale_served", self.stale_served),
            ("coalesced", self.coalesced),
            ("retries", self.origin.retries),
        ] {
            obs.counter_add(&format!("{prefix}{name}"), n);
        }
        if self.lat_hist.total() > 0 {
            obs.hist_merge(&format!("{prefix}latency_us"), &self.lat_hist);
        }
        Some(obs)
    }

    /// Merges finished shard tallies **in the order given** — callers pass
    /// fixed shard order, so latency concatenation and float sums
    /// associate identically at any thread count — and absorbs their
    /// private recorders into `master` in the same order.
    pub(crate) fn merge<'a>(
        shards: impl Iterator<Item = &'a mut Tally>,
        master: Option<&Obs>,
        latency_cap: usize,
    ) -> Tally {
        let mut total = Tally::new(None, 0, latency_cap);
        let mut recorders = Vec::new();
        for shard in shards {
            recorders.extend(shard.obs.take());
            total.latencies.extend(std::mem::take(&mut shard.latencies));
            total
                .degraded_latencies
                .extend(std::mem::take(&mut shard.degraded_latencies));
            total.seen += shard.seen;
            total.measured += shard.measured;
            total.hits += shard.hits;
            total.errors += shard.errors;
            total.stale_served += shard.stale_served;
            total.coalesced += shard.coalesced;
            total.bytes_served += shard.bytes_served;
            total.wan_bytes += shard.wan_bytes;
            total.busy_ms += shard.busy_ms;
            total.peak_meta += shard.peak_meta;
            total.origin.retries += shard.origin.retries;
            total.origin.compute_ms += shard.origin.compute_ms;
            total.origin.breaker_opens += shard.origin.breaker_opens;
            total.origin.breaker_closes += shard.origin.breaker_closes;
        }
        if let Some(master) = master {
            master.absorb_shards(&recorders);
        }
        total
    }

    /// The report of these totals (one shard's, or a merge's). `series` is
    /// left empty. Percentiles select in place, and the mean sums the
    /// vector in the order selection left it — both pure functions of the
    /// shard-order concatenation.
    pub(crate) fn report(&mut self, name: String, trace: &Trace, wall_secs: f64) -> ServerReport {
        let (p90_latency_ms, p99_latency_ms) = pct2(&mut self.latencies);
        let (degraded_p90_latency_ms, degraded_p99_latency_ms) = pct2(&mut self.degraded_latencies);
        let mean_latency_ms = if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<f64>() / self.latencies.len() as f64
        };
        let (measured, busy_ms) = (self.measured, self.busy_ms);
        let duration = trace.duration().as_secs_f64().max(1e-9);
        ServerReport {
            name,
            trace: trace.name.clone(),
            content_hit_pct: if measured == 0 {
                0.0
            } else {
                self.hits as f64 / measured as f64 * 100.0
            },
            throughput_gbps: if busy_ms <= 0.0 {
                0.0
            } else {
                self.bytes_served as f64 * 8.0 / (busy_ms / 1e3) / 1e9
            },
            peak_cpu_pct: if busy_ms <= 0.0 {
                0.0
            } else {
                (self.origin.compute_ms / busy_ms * 100.0).min(100.0)
            },
            peak_mem_gb: self.peak_meta as f64 / 1e9,
            p90_latency_ms,
            p99_latency_ms,
            mean_latency_ms,
            wan_gbps: self.wan_bytes as f64 * 8.0 / duration / 1e9,
            availability_pct: if measured == 0 {
                100.0
            } else {
                (measured - self.errors) as f64 / measured as f64 * 100.0
            },
            errors_served: self.errors,
            stale_served: self.stale_served,
            retries: self.origin.retries,
            coalesced_fetches: self.coalesced,
            breaker_opens: self.origin.breaker_opens,
            breaker_closes: self.origin.breaker_closes,
            degraded_p90_latency_ms,
            degraded_p99_latency_ms,
            series: Vec::new(),
            replay_wall_secs: wall_secs,
        }
    }
}

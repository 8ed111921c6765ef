//! Trace-time windowed metric series.
//!
//! A [`SeriesAcc`] lives *inside* the instrumented loop (simulator engine,
//! CDN serving path) and accumulates one [`WindowRecord`] at a time with
//! plain arithmetic — no locking, no allocation per request — so the
//! instrumented hot path stays within the < 5 % overhead budget. Completed
//! windows are handed to the shared [`crate::Obs`] recorder in one call at
//! the end of the run.
//!
//! # Window semantics
//!
//! Windows are **half-open** and non-overlapping:
//!
//! - [`ObsWindow::Requests(n)`](ObsWindow::Requests): window `k` holds
//!   measured requests `[k·n, (k+1)·n)` in arrival order.
//! - [`ObsWindow::Secs(w)`](ObsWindow::Secs): window `k` covers trace time
//!   `[anchor + k·w, anchor + (k+1)·w)` where `anchor` is the timestamp of
//!   the first measured request. A request exactly on a boundary opens the
//!   *next* window.
//!
//! Empty time windows (trace gaps) are skipped — the `index` field jumps,
//! making the gap visible without flooding the output. The final partial
//! window is always flushed by [`SeriesAcc::finish`].
//!
//! # Two feeding paths
//!
//! - [`SeriesAcc::observe`] is the delta path every replay loop takes,
//!   through `lhr_sim::ledger::Ledger` — the one running [`Totals`] the
//!   simulator and the serving core both count into: per request it costs
//!   one boundary compare and a timestamp store, and windows are
//!   materialized at flush time as snapshot deltas.
//! - [`SeriesAcc::on_request`] counts every field per request: the simple
//!   API for a loop with no counters of its own, and the oracle the delta
//!   path is property-tested against.

use lhr_util::json::{Json, ObjectWriter, ToJson};
use std::fmt;
use std::str::FromStr;

/// How the windowed series buckets trace time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObsWindow {
    /// A new window every `n` measured requests.
    Requests(u64),
    /// A new window every `secs` seconds of trace time.
    Secs(f64),
}

impl Default for ObsWindow {
    fn default() -> Self {
        ObsWindow::Requests(10_000)
    }
}

impl ToJson for ObsWindow {
    fn to_json(&self) -> Json {
        match *self {
            ObsWindow::Requests(n) => Json::Object(vec![("requests".to_string(), n.to_json())]),
            ObsWindow::Secs(s) => Json::Object(vec![("secs".to_string(), s.to_json())]),
        }
    }
}

impl fmt::Display for ObsWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ObsWindow::Requests(n) => write!(f, "{n}r"),
            ObsWindow::Secs(s) => write!(f, "{s}s"),
        }
    }
}

impl FromStr for ObsWindow {
    type Err = String;

    /// Parses the CLI `--obs-window` syntax: `300s` (trace seconds),
    /// `5000r` or a bare integer (requests).
    fn from_str(raw: &str) -> Result<Self, String> {
        let raw = raw.trim();
        let parsed = if let Some(d) = raw.strip_suffix(['s', 'S']) {
            d.trim()
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(ObsWindow::Secs)
        } else {
            raw.strip_suffix(['r', 'R'])
                .unwrap_or(raw)
                .trim()
                .parse::<u64>()
                .ok()
                .filter(|n| *n > 0)
                .map(ObsWindow::Requests)
        };
        parsed.ok_or_else(|| {
            format!("bad window `{raw}` (want e.g. `300s` for seconds or `5000` for requests)")
        })
    }
}

/// One completed window of the metric series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowRecord {
    /// Absolute window number (indices jump over empty time windows).
    pub index: u64,
    /// Measured requests that preceded this window.
    pub start_requests: u64,
    /// Trace time of the first request in the window, seconds.
    pub first_secs: f64,
    /// Trace time of the last request in the window, seconds.
    pub last_secs: f64,
    /// Requests in the window.
    pub requests: u64,
    /// Cache hits (stale serves included — they are served from cache).
    pub hits: u64,
    /// Misses admitted into the cache.
    pub misses_admitted: u64,
    /// Misses bypassed by admission control.
    pub misses_bypassed: u64,
    /// Bytes requested.
    pub bytes_requested: u128,
    /// Bytes served from cache.
    pub bytes_hit: u128,
    /// Evictions performed while the window was open.
    pub evictions: u64,
    /// Requests that got an error response (fault-injected paths only).
    pub errors: u64,
    /// Requests served from an expired cached copy.
    pub stale_served: u64,
    /// Misses that joined an in-flight origin fetch.
    pub coalesced: u64,
}

lhr_util::impl_json!(struct WindowRecord {
    index,
    start_requests,
    first_secs,
    last_secs,
    requests,
    hits,
    misses_admitted,
    misses_bypassed,
    bytes_requested,
    bytes_hit,
    evictions,
    errors,
    stale_served,
    coalesced,
});

impl WindowRecord {
    /// The fields listed above, in that order, for
    /// [`crate::ObsRecord::write_line`].
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        w.uint("index", self.index);
        w.uint("start_requests", self.start_requests);
        w.float("first_secs", self.first_secs);
        w.float("last_secs", self.last_secs);
        w.uint("requests", self.requests);
        w.uint("hits", self.hits);
        w.uint("misses_admitted", self.misses_admitted);
        w.uint("misses_bypassed", self.misses_bypassed);
        w.uint128("bytes_requested", self.bytes_requested);
        w.uint128("bytes_hit", self.bytes_hit);
        w.uint("evictions", self.evictions);
        w.uint("errors", self.errors);
        w.uint("stale_served", self.stale_served);
        w.uint("coalesced", self.coalesced);
    }

    /// Object hit ratio within the window.
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.requests)
    }

    /// Byte hit ratio within the window.
    pub fn byte_hit_ratio(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            self.bytes_hit as f64 / self.bytes_requested as f64
        }
    }

    /// Fraction of the window's misses that were admitted.
    pub fn admission_rate(&self) -> f64 {
        ratio(
            self.misses_admitted,
            self.misses_admitted + self.misses_bypassed,
        )
    }

    /// Evictions per request — how hard the policy is churning.
    pub fn eviction_pressure(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.evictions as f64 / self.requests as f64
        }
    }

    /// Fraction of the window's requests served successfully.
    pub fn availability(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            (self.requests - self.errors.min(self.requests)) as f64 / self.requests as f64
        }
    }

    /// The CSV header matching [`WindowRecord::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "index,start_requests,first_secs,last_secs,requests,hits,misses_admitted,\
         misses_bypassed,bytes_requested,bytes_hit,evictions,errors,stale_served,\
         coalesced,hit_ratio,byte_hit_ratio,admission_rate,eviction_pressure,availability"
    }

    /// One CSV row (raw counters plus the derived ratios).
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.index,
            self.start_requests,
            self.first_secs,
            self.last_secs,
            self.requests,
            self.hits,
            self.misses_admitted,
            self.misses_bypassed,
            self.bytes_requested,
            self.bytes_hit,
            self.evictions,
            self.errors,
            self.stale_served,
            self.coalesced,
            self.hit_ratio(),
            self.byte_hit_ratio(),
            self.admission_rate(),
            self.eviction_pressure(),
            self.availability(),
        )
    }
}

/// Merges per-shard window series into one series, window by window, in
/// the order the shard slice is given (fixed shard order — the determinism
/// contract's merge rule).
///
/// Windows pair up by their `index` ordinal: counters are summed,
/// `first_secs`/`last_secs` take the min/max across shards, and
/// `start_requests` is recomputed cumulatively over the merged series so it
/// counts *global* measured requests. With time-based windows
/// ([`ObsWindow::Secs`]) each shard anchors at its own first measured
/// request, so same-index windows cover almost (not exactly) the same trace
/// interval; with request windows the pairing is purely ordinal. Either
/// way the result depends only on the per-shard series and their order —
/// never on the thread count that produced them.
pub fn merge_windows(shards: &[Vec<WindowRecord>]) -> Vec<WindowRecord> {
    use std::collections::BTreeMap;
    let mut merged: BTreeMap<u64, WindowRecord> = BTreeMap::new();
    for series in shards {
        for w in series {
            match merged.get_mut(&w.index) {
                None => {
                    merged.insert(w.index, w.clone());
                }
                Some(m) => {
                    m.first_secs = m.first_secs.min(w.first_secs);
                    m.last_secs = m.last_secs.max(w.last_secs);
                    m.requests += w.requests;
                    m.hits += w.hits;
                    m.misses_admitted += w.misses_admitted;
                    m.misses_bypassed += w.misses_bypassed;
                    m.bytes_requested += w.bytes_requested;
                    m.bytes_hit += w.bytes_hit;
                    m.evictions += w.evictions;
                    m.errors += w.errors;
                    m.stale_served += w.stale_served;
                    m.coalesced += w.coalesced;
                }
            }
        }
    }
    let mut out: Vec<WindowRecord> = merged.into_values().collect();
    let mut cumulative = 0u64;
    for w in &mut out {
        w.start_requests = cumulative;
        cumulative += w.requests;
    }
    out
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One request as the series sees it. Build with one of the constructors,
/// then override flags (`stale`, `coalesced`, …) as needed.
#[derive(Debug, Clone, Copy)]
pub struct ReqSample {
    /// Trace time in microseconds (the trace clock's native unit — keeping
    /// the hot path integer-only is part of the < 5 % overhead budget;
    /// conversion to seconds happens once per window flush).
    pub t_micros: u64,
    /// Object size in bytes.
    pub bytes: u64,
    /// Served from cache (fresh or stale).
    pub hit: bool,
    /// Miss admitted into the cache.
    pub admitted: bool,
    /// Miss bypassed by admission control.
    pub bypassed: bool,
    /// Error response (origin unreachable, no fallback).
    pub error: bool,
    /// Served from an expired cached copy.
    pub stale: bool,
    /// Joined an in-flight origin fetch.
    pub coalesced: bool,
}

impl ReqSample {
    /// A cache hit.
    #[inline]
    pub fn hit(t_micros: u64, bytes: u64) -> Self {
        ReqSample {
            t_micros,
            bytes,
            hit: true,
            admitted: false,
            bypassed: false,
            error: false,
            stale: false,
            coalesced: false,
        }
    }

    /// A miss that was admitted.
    #[inline]
    pub fn miss_admitted(t_micros: u64, bytes: u64) -> Self {
        ReqSample {
            admitted: true,
            ..ReqSample::hit(t_micros, bytes)
        }
        .with_hit(false)
    }

    /// A miss that was bypassed.
    #[inline]
    pub fn miss_bypassed(t_micros: u64, bytes: u64) -> Self {
        ReqSample {
            bypassed: true,
            ..ReqSample::hit(t_micros, bytes)
        }
        .with_hit(false)
    }

    #[inline]
    fn with_hit(mut self, hit: bool) -> Self {
        self.hit = hit;
        self
    }
}

/// Cumulative measured-request totals: the one running counter struct of
/// a replay (`lhr_sim::ledger::Ledger` keeps it for the simulator and the
/// serving core alike). [`SeriesAcc::observe`] turns snapshots of these
/// into per-window deltas so the obs layer never counts the same request
/// twice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Measured requests so far.
    pub requests: u64,
    /// Cache hits so far.
    pub hits: u64,
    /// Misses admitted so far.
    pub misses_admitted: u64,
    /// Misses bypassed so far.
    pub misses_bypassed: u64,
    /// Bytes requested so far.
    pub bytes_requested: u128,
    /// Bytes served from cache so far.
    pub bytes_hit: u128,
    /// Lifetime evictions (warmup included — the first snapshot baselines
    /// them away).
    pub evictions: u64,
    /// Error responses so far.
    pub errors: u64,
    /// Requests served from an expired cached copy so far.
    pub stale_served: u64,
    /// Misses that joined an in-flight origin fetch so far.
    pub coalesced: u64,
}

/// Field-wise sum: how shard totals merge.
impl std::ops::AddAssign<&Totals> for Totals {
    fn add_assign(&mut self, other: &Totals) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.misses_admitted += other.misses_admitted;
        self.misses_bypassed += other.misses_bypassed;
        self.bytes_requested += other.bytes_requested;
        self.bytes_hit += other.bytes_hit;
        self.evictions += other.evictions;
        self.errors += other.errors;
        self.stale_served += other.stale_served;
        self.coalesced += other.coalesced;
    }
}

/// The in-loop accumulator: cheap per-request updates, one [`WindowRecord`]
/// per completed window.
#[derive(Debug, Clone)]
pub struct SeriesAcc {
    window: ObsWindow,
    /// Time-window length in integer microseconds (0 for request windows).
    window_micros: u64,
    /// Trace time anchoring time-based windows (first measured request).
    anchor_micros: Option<u64>,
    cur: WindowRecord,
    /// Timestamps of the open window, converted to seconds only at flush.
    first_micros: u64,
    last_micros: u64,
    cur_open: bool,
    total_requests: u64,
    /// Delta path only: requests observed in the open window, and the
    /// caller's totals as of the last flush.
    open_len: u64,
    flushed: Totals,
    done: Vec<WindowRecord>,
}

impl SeriesAcc {
    /// A fresh accumulator with the given windowing rule.
    pub fn new(window: ObsWindow) -> Self {
        SeriesAcc {
            window,
            window_micros: match window {
                ObsWindow::Secs(w) => (w * 1e6).round().max(1.0) as u64,
                ObsWindow::Requests(_) => 0,
            },
            anchor_micros: None,
            cur: WindowRecord::default(),
            first_micros: 0,
            last_micros: 0,
            cur_open: false,
            total_requests: 0,
            open_len: 0,
            flushed: Totals::default(),
            done: Vec::new(),
        }
    }

    /// Records one request. Returns whether a window was closed by this
    /// call (what the delta path's property test checks its snapshots
    /// against).
    ///
    /// The counter updates are branchless on the flag fields — this runs
    /// once per simulated request and the hit/miss pattern is exactly the
    /// branch the predictor cannot learn.
    #[inline]
    pub fn on_request(&mut self, s: ReqSample) -> bool {
        let mut closed = false;
        if let ObsWindow::Secs(_) = self.window {
            let anchor = *self.anchor_micros.get_or_insert(s.t_micros);
            if self.cur_open {
                // Half-open: t on the boundary belongs to the next window.
                let end =
                    anchor.saturating_add((self.cur.index + 1).saturating_mul(self.window_micros));
                if s.t_micros >= end {
                    let next = ((s.t_micros - anchor) / self.window_micros).max(self.cur.index + 1);
                    self.flush(next);
                    closed = true;
                }
            } else {
                self.cur.index = (s.t_micros - anchor) / self.window_micros;
            }
        }
        if !self.cur_open {
            self.cur.start_requests = self.total_requests;
            self.first_micros = s.t_micros;
            self.cur_open = true;
        }
        self.last_micros = s.t_micros;
        self.cur.requests += 1;
        self.cur.bytes_requested += s.bytes as u128;
        self.total_requests += 1;
        let hit = s.hit as u64;
        self.cur.hits += hit;
        self.cur.bytes_hit += hit as u128 * s.bytes as u128;
        self.cur.misses_admitted += s.admitted as u64;
        self.cur.misses_bypassed += s.bypassed as u64;
        self.cur.errors += s.error as u64;
        self.cur.stale_served += s.stale as u64;
        self.cur.coalesced += s.coalesced as u64;
        if let ObsWindow::Requests(n) = self.window {
            if self.cur.requests >= n {
                self.flush(self.cur.index + 1);
                closed = true;
            }
        }
        closed
    }

    /// Credits `n` evictions to the open window (call with the delta of the
    /// policy's eviction counter). When the triggering request itself just
    /// closed a request-count window, the evictions belong to that window,
    /// not the unopened next one.
    #[inline]
    pub fn on_evictions(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        if !self.cur_open {
            if let Some(last) = self.done.last_mut() {
                last.evictions += n;
                return;
            }
        }
        self.cur.evictions += n;
    }

    /// Delta fast path: call once per measured request, **before** the
    /// caller's own counters (and the policy's eviction counter) include
    /// that request. `snapshot` lazily captures the caller's running
    /// [`Totals`]; it is only invoked when this request starts a new window,
    /// plus once on the first call to baseline warmup-era counts.
    ///
    /// Window boundaries match [`on_request`](Self::on_request). Because the
    /// snapshot excludes the current request, a flushed window's delta
    /// covers exactly the requests and evictions that happened while it was
    /// open — for time windows this is *more* precise than the boundary
    /// sampling available to the per-request path.
    #[inline]
    pub fn observe(&mut self, t_micros: u64, snapshot: impl FnOnce() -> Totals) {
        if !self.cur_open {
            self.flushed = snapshot();
            self.cur.start_requests = self.flushed.requests;
            self.anchor_micros = Some(t_micros);
            self.first_micros = t_micros;
            self.last_micros = t_micros;
            self.cur_open = true;
            self.open_len = 1;
            return;
        }
        let closed = match self.window {
            ObsWindow::Requests(n) => self.open_len >= n,
            ObsWindow::Secs(_) => {
                // Half-open: t on the boundary belongs to the next window.
                let anchor = self.anchor_micros.unwrap_or(t_micros);
                t_micros
                    >= anchor
                        .saturating_add((self.cur.index + 1).saturating_mul(self.window_micros))
            }
        };
        if closed {
            self.flush_delta(t_micros, snapshot());
        }
        self.open_len += 1;
        self.last_micros = t_micros;
    }

    /// Materializes the open window from a snapshot delta, pushes it, and
    /// opens the next window at `t_micros`. Off the per-request path.
    #[cold]
    fn flush_delta(&mut self, t_micros: u64, totals: Totals) {
        self.cur.requests = totals.requests - self.flushed.requests;
        self.cur.hits = totals.hits - self.flushed.hits;
        self.cur.misses_admitted = totals.misses_admitted - self.flushed.misses_admitted;
        self.cur.misses_bypassed = totals.misses_bypassed - self.flushed.misses_bypassed;
        self.cur.bytes_requested = totals.bytes_requested - self.flushed.bytes_requested;
        self.cur.bytes_hit = totals.bytes_hit - self.flushed.bytes_hit;
        self.cur.evictions = totals.evictions.saturating_sub(self.flushed.evictions);
        self.cur.errors = totals.errors - self.flushed.errors;
        self.cur.stale_served = totals.stale_served - self.flushed.stale_served;
        self.cur.coalesced = totals.coalesced - self.flushed.coalesced;
        self.cur.first_secs = self.first_micros as f64 / 1e6;
        self.cur.last_secs = self.last_micros as f64 / 1e6;
        let next_index = match self.window {
            ObsWindow::Requests(_) => self.cur.index + 1,
            ObsWindow::Secs(_) => {
                let anchor = self.anchor_micros.unwrap_or(t_micros);
                ((t_micros - anchor) / self.window_micros).max(self.cur.index + 1)
            }
        };
        let done = std::mem::take(&mut self.cur);
        self.done.push(done);
        self.cur.index = next_index;
        self.cur.start_requests = totals.requests;
        self.first_micros = t_micros;
        self.open_len = 0;
        self.flushed = totals;
    }

    /// Flushes the final partial window from the caller's final totals and
    /// returns every record — the [`observe`](Self::observe) counterpart of
    /// [`finish`](Self::finish).
    pub fn finish_observed(mut self, totals: Totals) -> Vec<WindowRecord> {
        if !self.cur_open {
            return self.done;
        }
        let requests = totals.requests - self.flushed.requests;
        let evictions = totals.evictions.saturating_sub(self.flushed.evictions);
        if requests > 0 || evictions > 0 {
            self.flush_delta(self.last_micros, totals);
        }
        self.done
    }

    fn flush(&mut self, next_index: u64) {
        // Same formula as `Time::as_secs_f64`, applied once per window.
        self.cur.first_secs = self.first_micros as f64 / 1e6;
        self.cur.last_secs = self.last_micros as f64 / 1e6;
        let done = std::mem::take(&mut self.cur);
        self.done.push(done);
        self.cur.index = next_index;
        self.cur_open = false;
    }

    /// The window index the most recent request was credited to — request
    /// tracing stamps each sampled trace with this so exemplars can link
    /// back to windows.
    #[inline]
    pub fn last_index(&self) -> u64 {
        if self.cur_open {
            self.cur.index
        } else {
            self.done.last().map(|w| w.index).unwrap_or(self.cur.index)
        }
    }

    /// Flushes the final partial window (if anything landed in it) and
    /// returns every remaining record.
    pub fn finish(mut self) -> Vec<WindowRecord> {
        if self.cur.requests > 0 || self.cur.evictions > 0 {
            if self.cur_open {
                self.cur.first_secs = self.first_micros as f64 / 1e6;
                self.cur.last_secs = self.last_micros as f64 / 1e6;
            }
            let last = std::mem::take(&mut self.cur);
            self.done.push(last);
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_util::json::FromJson;

    #[test]
    fn request_windows_are_half_open_and_flush_partial() {
        let mut acc = SeriesAcc::new(ObsWindow::Requests(3));
        for i in 0..7u64 {
            acc.on_request(ReqSample::hit(i * 1_000_000, 10));
        }
        let windows = acc.finish();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].requests, 3);
        assert_eq!(windows[0].start_requests, 0);
        assert_eq!(windows[1].requests, 3);
        assert_eq!(windows[1].start_requests, 3);
        assert_eq!(windows[2].requests, 1, "partial window must flush");
        assert_eq!(windows[2].start_requests, 6);
        assert_eq!(windows.iter().map(|w| w.hits).sum::<u64>(), 7);
    }

    #[test]
    fn time_windows_half_open_boundary() {
        let mut acc = SeriesAcc::new(ObsWindow::Secs(10.0));
        acc.on_request(ReqSample::hit(0, 1));
        acc.on_request(ReqSample::hit(9_999_000, 1));
        // Exactly on the boundary: opens window 1.
        acc.on_request(ReqSample::hit(10_000_000, 1));
        let windows = acc.finish();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].requests, 2);
        assert_eq!(windows[1].index, 1);
        assert_eq!(windows[1].requests, 1);
    }

    #[test]
    fn time_window_gaps_skip_indices() {
        let mut acc = SeriesAcc::new(ObsWindow::Secs(1.0));
        acc.on_request(ReqSample::hit(100_000_000, 1));
        acc.on_request(ReqSample::hit(105_500_000, 1));
        let windows = acc.finish();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].index, 0);
        assert_eq!(windows[1].index, 5, "gap must show as an index jump");
    }

    #[test]
    fn derived_ratios() {
        let mut acc = SeriesAcc::new(ObsWindow::Requests(8));
        acc.on_request(ReqSample::hit(0, 100));
        acc.on_request(ReqSample::miss_admitted(1_000_000, 300));
        acc.on_request(ReqSample::miss_bypassed(2_000_000, 100));
        acc.on_request(ReqSample {
            error: true,
            ..ReqSample::miss_bypassed(3_000_000, 100)
        });
        acc.on_evictions(2);
        let w = &acc.finish()[0];
        assert!((w.hit_ratio() - 0.25).abs() < 1e-12);
        assert!((w.byte_hit_ratio() - 100.0 / 600.0).abs() < 1e-12);
        assert!((w.admission_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((w.eviction_pressure() - 0.5).abs() < 1e-12);
        assert!((w.availability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn evictions_after_a_window_filling_request_credit_that_window() {
        let mut acc = SeriesAcc::new(ObsWindow::Requests(2));
        acc.on_request(ReqSample::hit(0, 1));
        acc.on_request(ReqSample::miss_admitted(1_000_000, 1)); // fills window 0
        acc.on_evictions(3); // triggered by the filling request
        let windows = acc.finish();
        assert_eq!(windows.len(), 1, "no phantom eviction-only window");
        assert_eq!(windows[0].evictions, 3);
    }

    #[test]
    fn observe_delta_path_matches_on_request() {
        for window in [ObsWindow::Requests(3), ObsWindow::Secs(2.0)] {
            let mut classic = SeriesAcc::new(window);
            let mut delta = SeriesAcc::new(window);
            let mut totals = Totals::default();
            for i in 0..25u64 {
                let t = i * 700_000;
                let hit = i % 3 != 0;
                let bytes = 100 + i;
                // The delta path observes before the caller counts.
                delta.observe(t, || totals);
                classic.on_request(if hit {
                    ReqSample::hit(t, bytes)
                } else {
                    ReqSample::miss_admitted(t, bytes)
                });
                totals.requests += 1;
                totals.hits += hit as u64;
                totals.misses_admitted += !hit as u64;
                totals.bytes_requested += bytes as u128;
                totals.bytes_hit += hit as u128 * bytes as u128;
            }
            assert_eq!(classic.finish(), delta.finish_observed(totals), "{window}");
        }
    }

    #[test]
    fn observe_baselines_warmup_evictions_and_attributes_deltas() {
        let mut acc = SeriesAcc::new(ObsWindow::Requests(2));
        let mut t = Totals {
            evictions: 7, // warmup evicted 7 before measurement began
            ..Totals::default()
        };
        acc.observe(0, || t);
        t.requests = 1;
        t.evictions = 9;
        acc.observe(1_000_000, || t);
        t.requests = 2;
        t.evictions = 10;
        acc.observe(2_000_000, || t); // the third request closes window 0
        t.requests = 3;
        t.evictions = 10;
        let windows = acc.finish_observed(t);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].requests, 2);
        assert_eq!(windows[0].evictions, 3, "warmup evictions baselined away");
        assert_eq!(windows[1].start_requests, 2);
        assert_eq!(windows[1].requests, 1);
        assert_eq!(windows[1].evictions, 0);
    }

    #[test]
    fn empty_accumulator_finishes_empty() {
        assert!(SeriesAcc::new(ObsWindow::default()).finish().is_empty());
        let w = WindowRecord::default();
        assert_eq!(w.availability(), 1.0);
        assert_eq!(w.hit_ratio(), 0.0);
    }

    #[test]
    fn window_spec_parses() {
        assert_eq!(
            "5000".parse::<ObsWindow>().unwrap(),
            ObsWindow::Requests(5000)
        );
        assert_eq!(
            "250r".parse::<ObsWindow>().unwrap(),
            ObsWindow::Requests(250)
        );
        assert_eq!("30s".parse::<ObsWindow>().unwrap(), ObsWindow::Secs(30.0));
        assert_eq!("2.5s".parse::<ObsWindow>().unwrap(), ObsWindow::Secs(2.5));
        for bad in ["", "0", "0s", "-3s", "xyz", "nan s"] {
            assert!(bad.parse::<ObsWindow>().is_err(), "{bad}");
        }
    }

    #[test]
    fn window_record_json_roundtrip_is_byte_identical() {
        let w = WindowRecord {
            index: 3,
            start_requests: 3_000,
            first_secs: 12.5,
            last_secs: 19.25,
            requests: 1_000,
            hits: 800,
            misses_admitted: 150,
            misses_bypassed: 50,
            bytes_requested: u64::MAX as u128 * 3, // exercises the string fallback
            bytes_hit: 9_999,
            evictions: 42,
            errors: 1,
            stale_served: 2,
            coalesced: 3,
        };
        let text = w.to_json().to_string();
        let back = WindowRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, w);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn merge_windows_sums_by_index_in_shard_order() {
        let shard0 = vec![
            WindowRecord {
                index: 0,
                requests: 10,
                hits: 5,
                first_secs: 0.0,
                last_secs: 9.0,
                ..WindowRecord::default()
            },
            WindowRecord {
                index: 2, // shard 0 skipped window 1 (trace gap)
                requests: 4,
                hits: 4,
                first_secs: 20.0,
                last_secs: 24.0,
                ..WindowRecord::default()
            },
        ];
        let shard1 = vec![WindowRecord {
            index: 0,
            requests: 6,
            hits: 1,
            evictions: 3,
            first_secs: 0.5,
            last_secs: 9.5,
            ..WindowRecord::default()
        }];
        let merged = merge_windows(&[shard0, shard1]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].index, 0);
        assert_eq!(merged[0].requests, 16);
        assert_eq!(merged[0].hits, 6);
        assert_eq!(merged[0].evictions, 3);
        assert_eq!(merged[0].first_secs, 0.0);
        assert_eq!(merged[0].last_secs, 9.5);
        assert_eq!(merged[0].start_requests, 0);
        assert_eq!(merged[1].index, 2);
        assert_eq!(merged[1].start_requests, 16, "cumulative over merged");
    }

    #[test]
    fn merge_windows_of_one_shard_is_identity_up_to_start_requests() {
        let mut acc = SeriesAcc::new(ObsWindow::Requests(3));
        for i in 0..7u64 {
            acc.on_request(ReqSample::hit(i * 1_000_000, 10));
        }
        let windows = acc.finish();
        assert_eq!(merge_windows(&[windows.clone()]), windows);
    }

    #[test]
    fn csv_row_has_header_arity() {
        let cols = WindowRecord::csv_header().split(',').count();
        let row = WindowRecord::default().to_csv_row();
        assert_eq!(row.split(',').count(), cols);
    }
}

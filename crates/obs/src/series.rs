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
//! # Feeding
//!
//! Every replay loop feeds the series through `lhr_sim::ledger::Ledger` —
//! the one running [`Totals`] the simulator and the serving core both
//! count into. [`SeriesAcc::observe`] sees each measured request before
//! the caller counts it: per request it costs one boundary compare and a
//! timestamp store, and a window is materialized at its edge as the delta
//! between two snapshots of the totals. A new per-window series is one
//! [`Totals`] field and one [`WindowRecord`] field.

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

/// The in-loop accumulator: one boundary check per request, one
/// [`WindowRecord`] per completed window.
#[derive(Debug, Clone)]
pub struct SeriesAcc {
    window: ObsWindow,
    /// Time-window length in integer microseconds (0 for request windows).
    window_micros: u64,
    /// Trace time anchoring time-based windows (first measured request).
    anchor_micros: u64,
    cur: WindowRecord,
    /// Timestamps of the open window, converted to seconds only at flush.
    first_micros: u64,
    last_micros: u64,
    cur_open: bool,
    /// Requests observed in the open window, and the caller's totals as of
    /// its opening.
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
            anchor_micros: 0,
            cur: WindowRecord::default(),
            first_micros: 0,
            last_micros: 0,
            cur_open: false,
            open_len: 0,
            flushed: Totals::default(),
            done: Vec::new(),
        }
    }

    /// Call once per measured request, **before** the caller's own
    /// counters (and the policy's eviction counter) include that request.
    /// `snapshot` lazily captures the caller's running [`Totals`]; it is
    /// only invoked when this request starts a new window, plus once on the
    /// first call to baseline warmup-era counts. Because the snapshot
    /// excludes the current request, a flushed window's delta covers
    /// exactly the requests and evictions that happened while it was open.
    #[inline]
    pub fn observe(&mut self, t_micros: u64, snapshot: impl FnOnce() -> Totals) {
        if !self.cur_open {
            self.flushed = snapshot();
            self.cur.start_requests = self.flushed.requests;
            self.anchor_micros = t_micros;
            self.first_micros = t_micros;
            self.last_micros = t_micros;
            self.cur_open = true;
            self.open_len = 1;
            return;
        }
        let closed = match self.window {
            ObsWindow::Requests(n) => self.open_len >= n,
            // Half-open: t on the boundary belongs to the next window.
            ObsWindow::Secs(_) => {
                t_micros
                    >= self
                        .anchor_micros
                        .saturating_add((self.cur.index + 1).saturating_mul(self.window_micros))
            }
        };
        if closed {
            self.flush(t_micros, snapshot());
        }
        self.open_len += 1;
        self.last_micros = t_micros;
    }

    /// Materializes the open window from a snapshot delta, pushes it, and
    /// opens the next window at `t_micros`. Off the per-request path.
    #[cold]
    fn flush(&mut self, t_micros: u64, totals: Totals) {
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
        // Same formula as `Time::as_secs_f64`, applied once per window.
        self.cur.first_secs = self.first_micros as f64 / 1e6;
        self.cur.last_secs = self.last_micros as f64 / 1e6;
        let next_index = match self.window {
            ObsWindow::Requests(_) => self.cur.index + 1,
            ObsWindow::Secs(_) => {
                ((t_micros - self.anchor_micros) / self.window_micros).max(self.cur.index + 1)
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

    /// The window index the most recent request was credited to — request
    /// tracing stamps each sampled trace with this so exemplars can link
    /// back to windows.
    #[inline]
    pub fn last_index(&self) -> u64 {
        self.cur.index
    }

    /// Flushes the open window from the caller's final totals (evictions:
    /// the policy's lifetime count) and returns every record.
    pub fn finish(mut self, totals: Totals) -> Vec<WindowRecord> {
        if self.cur_open {
            self.flush(self.last_micros, totals);
        }
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_util::json::FromJson;

    /// Feeds a [`SeriesAcc`] the way `lhr_sim::ledger::Ledger` does: each
    /// request is observed first, then counted into the running totals.
    struct Feed {
        acc: SeriesAcc,
        totals: Totals,
    }

    impl Feed {
        fn new(window: ObsWindow) -> Self {
            Feed {
                acc: SeriesAcc::new(window),
                totals: Totals::default(),
            }
        }

        /// One measured request (a miss is admitted); the totals are handed
        /// back for the evictions it caused.
        fn request(&mut self, t_micros: u64, bytes: u64, hit: bool) -> &mut Totals {
            let totals = self.totals;
            self.acc.observe(t_micros, || totals);
            let t = &mut self.totals;
            t.requests += 1;
            t.hits += hit as u64;
            t.misses_admitted += !hit as u64;
            t.bytes_requested += bytes as u128;
            t.bytes_hit += hit as u128 * bytes as u128;
            t
        }

        fn finish(self) -> Vec<WindowRecord> {
            self.acc.finish(self.totals)
        }
    }

    #[test]
    fn request_windows_are_half_open_and_flush_partial() {
        let mut feed = Feed::new(ObsWindow::Requests(3));
        for i in 0..7u64 {
            feed.request(i * 1_000_000, 10, true);
        }
        let windows = feed.finish();
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].requests, 3);
        assert_eq!(windows[0].start_requests, 0);
        assert_eq!(windows[1].requests, 3);
        assert_eq!(windows[1].start_requests, 3);
        assert_eq!(windows[1].first_secs, 3.0);
        assert_eq!(windows[1].last_secs, 5.0);
        assert_eq!(windows[2].requests, 1, "partial window must flush");
        assert_eq!(windows[2].start_requests, 6);
        assert_eq!(windows.iter().map(|w| w.hits).sum::<u64>(), 7);
    }

    #[test]
    fn time_windows_half_open_boundary() {
        let mut feed = Feed::new(ObsWindow::Secs(10.0));
        feed.request(0, 1, true);
        feed.request(9_999_000, 1, true);
        assert_eq!(feed.acc.last_index(), 0);
        // Exactly on the boundary: opens window 1.
        feed.request(10_000_000, 1, true);
        assert_eq!(feed.acc.last_index(), 1);
        let windows = feed.finish();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].requests, 2);
        assert_eq!(windows[1].index, 1);
        assert_eq!(windows[1].requests, 1);
    }

    #[test]
    fn time_window_gaps_skip_indices() {
        let mut feed = Feed::new(ObsWindow::Secs(1.0));
        feed.request(100_000_000, 1, true);
        feed.request(105_500_000, 1, true);
        assert_eq!(feed.acc.last_index(), 5, "the open window's index");
        let windows = feed.finish();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].index, 0);
        assert_eq!(windows[1].index, 5, "gap must show as an index jump");
    }

    #[test]
    fn derived_ratios() {
        let w = WindowRecord {
            requests: 4,
            hits: 1,
            misses_admitted: 1,
            misses_bypassed: 2,
            bytes_requested: 600,
            bytes_hit: 100,
            evictions: 2,
            errors: 1,
            ..WindowRecord::default()
        };
        assert!((w.hit_ratio() - 0.25).abs() < 1e-12);
        assert!((w.byte_hit_ratio() - 100.0 / 600.0).abs() < 1e-12);
        assert!((w.admission_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((w.eviction_pressure() - 0.5).abs() < 1e-12);
        assert!((w.availability() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn evictions_after_a_window_filling_request_credit_that_window() {
        let mut feed = Feed::new(ObsWindow::Requests(2));
        feed.request(0, 1, true);
        feed.request(1_000_000, 1, false).evictions += 3; // fills window 0
        let windows = feed.finish();
        assert_eq!(windows.len(), 1, "no phantom eviction-only window");
        assert_eq!(windows[0].evictions, 3);

        let mut feed = Feed::new(ObsWindow::Requests(2));
        feed.request(0, 1, true);
        feed.request(1_000_000, 1, false).evictions += 3;
        feed.request(2_000_000, 1, false).evictions += 1; // opens window 1
        let windows = feed.finish();
        assert_eq!(windows[0].evictions, 3);
        assert_eq!(windows[1].evictions, 1);
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
        let windows = acc.finish(t);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].requests, 2);
        assert_eq!(windows[0].evictions, 3, "warmup evictions baselined away");
        assert_eq!(windows[1].start_requests, 2);
        assert_eq!(windows[1].requests, 1);
        assert_eq!(windows[1].evictions, 0);
    }

    #[test]
    fn empty_accumulator_finishes_empty() {
        let acc = SeriesAcc::new(ObsWindow::default());
        assert_eq!(acc.last_index(), 0);
        assert!(acc.finish(Totals::default()).is_empty());
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
        let mut feed = Feed::new(ObsWindow::Requests(3));
        for i in 0..7u64 {
            feed.request(i * 1_000_000, 10, true);
        }
        let windows = feed.finish();
        assert_eq!(merge_windows(&[windows.clone()]), windows);
    }

    #[test]
    fn csv_row_has_header_arity() {
        let cols = WindowRecord::csv_header().split(',').count();
        let row = WindowRecord::default().to_csv_row();
        assert_eq!(row.split(',').count(), cols);
    }
}

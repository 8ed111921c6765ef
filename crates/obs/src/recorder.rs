//! The shared recorder: a cheap-to-clone handle ([`Obs`]) that collects
//! windows, events, counters, gauges, histograms, and spans, then exports
//! them as section-ordered JSONL — in one walk (`export`), whether into a
//! string, a record list or the file [`Obs::stream_to`] opened.
//!
//! The handle is deliberately *not* touched on per-request hot paths —
//! instrumented loops accumulate locally ([`crate::series::SeriesAcc`],
//! [`LogHistogram`]) and submit in bulk at window boundaries or run end.
//! Spans lock the handle on enter/exit, which is fine at their coarse
//! granularity (per run, per training window, per boosting phase).

use crate::event::Event;
use crate::hist::LogHistogram;
use crate::record::{ObsRecord, RecordRef};
use crate::series::{ObsWindow, WindowRecord};
use crate::slo::{self, SloObjective};
use crate::span::{SpanRecord, SpanTree};
use crate::trace::{self, TraceRecord};
use lhr_util::json::{Json, ToJson};
use lhr_util::sync::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Recorder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsConfig {
    /// Windowing rule for the metric series.
    pub window: ObsWindow,
    /// Record span counts but zero all wall-clock readings so fixed-seed
    /// output is byte-identical across runs.
    pub deterministic: bool,
    /// Cap on buffered events; past it events are counted as dropped (the
    /// `obs.events_dropped` counter) instead of growing without bound.
    pub max_events: usize,
    /// Request-path trace sampling: record a [`TraceRecord`] for one
    /// request in `trace_sample` (0 disables tracing). The sampling
    /// decision is a pure function of `(object_id, trace_time)` — see
    /// [`crate::trace::sampled`].
    pub trace_sample: u64,
    /// Service-level objectives evaluated over the merged window series
    /// at export time; breaches/recoveries are appended to the event
    /// section as [`crate::EventKind::SloBreach`] /
    /// [`crate::EventKind::SloRecover`].
    pub slos: Vec<SloObjective>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            window: ObsWindow::default(),
            deterministic: false,
            max_events: 1_000_000,
            trace_sample: 0,
            slos: Vec::new(),
        }
    }
}

#[derive(Default)]
struct Inner {
    meta: Vec<(String, Json)>,
    windows: Vec<WindowRecord>,
    events: Vec<Event>,
    events_dropped: u64,
    traces: Vec<TraceRecord>,
    traces_dropped: u64,
    spans: SpanTree,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LogHistogram>,
    /// The file [`Obs::stream_to`] opened, until [`Obs::close_stream`]
    /// writes the export into it.
    sink: Option<BufWriter<File>>,
}

/// The leading `meta` line's fields: recorder config first, then caller
/// metadata in insertion order.
fn meta_fields(config: &ObsConfig, meta: &[(String, Json)]) -> Vec<(String, Json)> {
    let mut m = vec![
        ("window".to_string(), config.window.to_json()),
        ("deterministic".to_string(), config.deterministic.to_json()),
    ];
    if config.trace_sample > 0 {
        m.push(("trace_sample".to_string(), config.trace_sample.to_json()));
    }
    if !config.slos.is_empty() {
        let joined: Vec<String> = config.slos.iter().map(|o| o.to_string()).collect();
        m.push(("slos".to_string(), joined.join(",").to_json()));
    }
    m.extend(meta.iter().cloned());
    m
}

/// Everything recorded, in the fixed export order: meta, windows, events
/// (recorded, then SLO verdict events synthesized from the merged
/// windows), traces (exemplar-marked), counters (plus
/// `obs.events_dropped` / `obs.traces_dropped`), gauges, histograms,
/// spans — each handed to `emit` borrowed from the buffers, never cloned.
/// The one walk behind [`Obs::records`], [`Obs::to_jsonl`] and
/// [`Obs::close_stream`]. Taking the complete `Inner` is what makes the
/// trace/SLO sections pure functions of the *merged* run — never of the
/// thread count that produced it.
fn export(config: &ObsConfig, inner: &Inner, emit: &mut dyn FnMut(RecordRef<'_>)) {
    emit(RecordRef::Meta(&meta_fields(config, &inner.meta)));
    for w in &inner.windows {
        emit(RecordRef::Window(w));
    }
    for e in &inner.events {
        emit(RecordRef::Event(e));
    }
    if !config.slos.is_empty() {
        let latency = slo::pick_latency_hist(&inner.hists);
        let verdicts = slo::evaluate(&config.slos, &inner.windows, latency);
        for e in &slo::events(&verdicts) {
            emit(RecordRef::Event(e));
        }
    }
    let marks = trace::exemplar_marks(&inner.traces);
    for (trace, exemplar) in inner.traces.iter().zip(marks) {
        emit(RecordRef::Trace { trace, exemplar });
    }
    let dropped = [
        ("obs.events_dropped", inner.events_dropped),
        ("obs.traces_dropped", inner.traces_dropped),
    ];
    let counters = inner.counters.iter().map(|(name, &value)| (&**name, value));
    for (name, value) in counters.chain(dropped.into_iter().filter(|&(_, n)| n > 0)) {
        emit(RecordRef::Counter { name, value });
    }
    for (name, &value) in &inner.gauges {
        emit(RecordRef::Gauge { name, value });
    }
    for (name, hist) in &inner.hists {
        emit(RecordRef::Hist { name, hist });
    }
    for s in &inner.spans.records() {
        emit(RecordRef::Span(s));
    }
}

/// The shared observability recorder. Cloning is cheap (one `Arc`); all
/// clones feed the same buffers.
#[derive(Clone)]
pub struct Obs {
    config: ObsConfig,
    inner: Arc<Mutex<Inner>>,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs").field("config", &self.config).finish()
    }
}

impl Obs {
    /// A fresh recorder.
    pub fn new(config: ObsConfig) -> Self {
        Obs {
            config,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// The configured windowing rule (what instrumented loops should feed
    /// their [`crate::series::SeriesAcc`]).
    pub fn window(&self) -> ObsWindow {
        self.config.window
    }

    /// The full recorder configuration — what per-shard child recorders
    /// should be built from so a later [`Obs::absorb_shards`] merges
    /// like-configured data.
    pub fn config(&self) -> &ObsConfig {
        &self.config
    }

    /// Whether wall-clock readings are zeroed for byte-identical output.
    pub fn deterministic(&self) -> bool {
        self.config.deterministic
    }

    /// Sets (or replaces) one run-metadata field, serialized on the
    /// leading `meta` line.
    pub fn set_meta(&self, name: &str, value: impl ToJson) {
        let mut inner = self.inner.lock();
        let value = value.to_json();
        match inner.meta.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = value,
            None => inner.meta.push((name.to_string(), value)),
        }
    }

    /// Appends one event (dropped and counted past
    /// [`ObsConfig::max_events`]).
    pub fn emit(&self, event: Event) {
        let mut inner = self.inner.lock();
        if inner.events.len() < self.config.max_events {
            inner.events.push(event);
        } else {
            inner.events_dropped += 1;
        }
    }

    /// Appends one sampled request trace (dropped and counted past
    /// [`ObsConfig::max_events`], like events). Exemplar marks are
    /// applied at export time over the complete set.
    pub fn push_trace(&self, trace: TraceRecord) {
        let mut inner = self.inner.lock();
        if inner.traces.len() < self.config.max_events {
            inner.traces.push(trace);
        } else {
            inner.traces_dropped += 1;
        }
    }

    /// Makes room for `additional` more sampled traces (never past
    /// [`ObsConfig::max_events`]), so a replay that knows its sampled share
    /// up front does not regrow the buffer as it goes.
    pub fn reserve_traces(&self, additional: usize) {
        let mut inner = self.inner.lock();
        let room = self.config.max_events.saturating_sub(inner.traces.len());
        inner.traces.reserve(additional.min(room));
    }

    /// The configured trace-sampling rate as a [`trace::TraceRecorder`]
    /// for an instrumented replay loop.
    pub fn trace_recorder(&self) -> trace::TraceRecorder {
        trace::TraceRecorder::new(self.config.trace_sample)
    }

    /// Sampled traces recorded so far (without exemplar marks — those
    /// are computed at export).
    pub fn traces(&self) -> Vec<TraceRecord> {
        self.inner.lock().traces.clone()
    }

    /// Adds `n` to a named counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock();
        *inner.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets a named gauge to its latest value.
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock();
        inner.gauges.insert(name.to_string(), value);
    }

    /// Merges a locally-accumulated histogram into the named one.
    pub fn hist_merge(&self, name: &str, hist: &LogHistogram) {
        let mut inner = self.inner.lock();
        inner
            .hists
            .entry(name.to_string())
            .or_insert_with(LogHistogram::new)
            .merge(hist);
    }

    /// Appends completed windows from a [`crate::series::SeriesAcc`].
    pub fn push_windows(&self, windows: Vec<WindowRecord>) {
        self.inner.lock().windows.extend(windows);
    }

    /// Opens `path` as the file this recorder's export goes to — now, so a
    /// path that cannot be written fails before the run instead of after
    /// it. [`close_stream`](Obs::close_stream) writes the export.
    pub fn stream_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let file = File::create(path)?;
        // A traced export runs to megabytes; the default 8 KiB would make
        // it several hundred writes.
        self.inner.lock().sink = Some(BufWriter::with_capacity(1 << 16, file));
        Ok(())
    }

    /// Writes the export — [`to_jsonl`](Obs::to_jsonl)'s bytes, one record
    /// at a time — into the file [`stream_to`](Obs::stream_to) opened, and
    /// closes it. Returns the first write error. No-op without an open
    /// file.
    pub fn close_stream(&self) -> io::Result<()> {
        let mut inner = self.inner.lock();
        let Some(mut out) = inner.sink.take() else {
            return Ok(());
        };
        let mut line = String::new();
        let mut written = Ok(());
        export(&self.config, &inner, &mut |r| {
            if written.is_ok() {
                line.clear();
                r.write_line(&mut line);
                line.push('\n');
                written = out.write_all(line.as_bytes());
            }
        });
        written?;
        out.flush()
    }

    /// Merges per-shard recorders into this one **in the order given** —
    /// the caller passes shards in fixed shard order, making the merged
    /// export independent of how many threads produced them (the
    /// determinism contract's merge rule):
    ///
    /// - windows merge by index via [`crate::series::merge_windows`];
    /// - events concatenate in shard order, then stable-sort by trace time,
    ///   so equal-timestamp events keep shard order;
    /// - traces concatenate in shard order, then sort by trace id (the
    ///   global request index — unique across shards, so the order is
    ///   total and independent of the shard layout);
    /// - counters sum; gauges take the last shard's value; histograms and
    ///   span trees merge by name/path; metadata upserts in shard order.
    ///
    /// Shard recorders should be built from this recorder's
    /// [`config`](Obs::config) so windowing and determinism settings agree.
    /// They are **drained**: windows, events, traces, counters, gauges,
    /// histograms and metadata move into this recorder rather than being
    /// copied, so a shard recorder has nothing left to export afterwards.
    pub fn absorb_shards(&self, shards: &[Obs]) {
        // Take shard state out first; each shard lock is released before
        // the master lock is taken.
        let mut windows_per: Vec<Vec<WindowRecord>> = Vec::with_capacity(shards.len());
        let mut events: Vec<Event> = Vec::new();
        let mut dropped = 0u64;
        let mut traces: Vec<TraceRecord> = Vec::new();
        let mut traces_dropped = 0u64;
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut gauges: Vec<(String, f64)> = Vec::new();
        let mut hists: Vec<(String, LogHistogram)> = Vec::new();
        let mut metas: Vec<(String, Json)> = Vec::new();
        let mut span_records: Vec<SpanRecord> = Vec::new();
        for shard in shards {
            let mut inner = shard.inner.lock();
            windows_per.push(std::mem::take(&mut inner.windows));
            events.append(&mut inner.events);
            dropped += std::mem::take(&mut inner.events_dropped);
            traces.append(&mut inner.traces);
            traces_dropped += std::mem::take(&mut inner.traces_dropped);
            counters.extend(std::mem::take(&mut inner.counters));
            gauges.extend(std::mem::take(&mut inner.gauges));
            hists.extend(std::mem::take(&mut inner.hists));
            metas.append(&mut inner.meta);
            span_records.extend(inner.spans.records());
        }
        events.sort_by(|a, b| a.t.total_cmp(&b.t));
        traces.sort_by_key(|t| t.id);
        let merged_windows = crate::series::merge_windows(&windows_per);

        let mut inner = self.inner.lock();
        for (k, v) in metas {
            match inner.meta.iter_mut().find(|(mk, _)| *mk == k) {
                Some((_, mv)) => *mv = v,
                None => inner.meta.push((k, v)),
            }
        }
        inner.windows.extend(merged_windows);
        for e in events {
            if inner.events.len() < self.config.max_events {
                inner.events.push(e);
            } else {
                dropped += 1;
            }
        }
        inner.events_dropped += dropped;
        for t in traces {
            if inner.traces.len() < self.config.max_events {
                inner.traces.push(t);
            } else {
                traces_dropped += 1;
            }
        }
        inner.traces_dropped += traces_dropped;
        for (k, v) in counters {
            *inner.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in gauges {
            inner.gauges.insert(k, v);
        }
        for (k, h) in hists {
            inner
                .hists
                .entry(k)
                .or_insert_with(LogHistogram::new)
                .merge(&h);
        }
        inner.spans.absorb_records(&span_records);
    }

    /// Enters a profiling span; it exits when the guard drops. In
    /// deterministic mode the clock is never read and the span's recorded
    /// duration is zero.
    pub fn span(&self, name: &str) -> SpanGuard {
        let idx = self.inner.lock().spans.enter(name);
        SpanGuard {
            obs: self.clone(),
            idx,
            start: if self.config.deterministic {
                None
            } else {
                Some(Instant::now())
            },
        }
    }

    /// Completed windows recorded so far.
    pub fn windows(&self) -> Vec<WindowRecord> {
        self.inner.lock().windows.clone()
    }

    /// Events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().events.clone()
    }

    /// Everything recorded, in the fixed export order: meta, windows,
    /// events (recorded then SLO-synthesized), traces, counters, gauges,
    /// histograms, spans.
    pub fn records(&self) -> Vec<ObsRecord> {
        let mut out = Vec::new();
        export(&self.config, &self.inner.lock(), &mut |r| {
            out.push(r.to_record())
        });
        out
    }

    /// The full JSONL export (one record per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        export(&self.config, &self.inner.lock(), &mut |r| {
            r.write_line(&mut out);
            out.push('\n');
        });
        out
    }

    /// The windowed series as CSV (header plus one row per window).
    pub fn windows_csv(&self) -> String {
        let mut out = String::from(WindowRecord::csv_header());
        out.push('\n');
        for w in self.inner.lock().windows.iter() {
            out.push_str(&w.to_csv_row());
            out.push('\n');
        }
        out
    }
}

/// RAII guard returned by [`Obs::span`]; credits elapsed time on drop.
#[derive(Debug)]
pub struct SpanGuard {
    obs: Obs,
    idx: usize,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed_ns = self.start.map(|s| s.elapsed().as_nanos()).unwrap_or(0);
        self.obs.inner.lock().spans.exit(self.idx, elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::record::ObsRecord;

    #[test]
    fn export_order_is_fixed_and_parses_back() {
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        });
        obs.set_meta("policy", "lru");
        obs.counter_add("sim.requests", 10);
        obs.gauge_set("lhr.threshold", 0.5);
        let mut h = LogHistogram::new();
        h.record(7);
        obs.hist_merge("lat", &h);
        obs.emit(Event::new(1.0, EventKind::Detect).field("alpha", 0.8f64));
        obs.push_windows(vec![WindowRecord {
            requests: 10,
            hits: 3,
            ..WindowRecord::default()
        }]);
        obs.push_trace(crate::trace::TraceBuilder::new(3, 42, 500_000, 64).finish(1.5, 0));
        {
            let _outer = obs.span("run");
            let _inner = obs.span("fit");
        }
        let jsonl = obs.to_jsonl();
        let records: Vec<ObsRecord> = jsonl
            .lines()
            .map(|l| ObsRecord::parse_line(l).unwrap())
            .collect();
        let tags: Vec<&str> = records.iter().map(|r| r.tag()).collect();
        assert_eq!(
            tags,
            ["meta", "window", "event", "trace", "counter", "gauge", "hist", "span", "span"]
        );
        // The lone trace of its window carries the exemplar mark.
        match &records[3] {
            ObsRecord::Trace(t) => {
                assert_eq!(t.id, 3);
                assert!(t.exemplar);
            }
            other => panic!("expected trace, got {other:?}"),
        }
        // Deterministic mode: spans exist with counts but zero time.
        match &records[7] {
            ObsRecord::Span(s) => {
                assert_eq!(s.path, "run");
                assert_eq!(s.count, 1);
                assert_eq!(s.total_secs, 0.0);
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_exports_are_byte_identical() {
        let run = || {
            let obs = Obs::new(ObsConfig {
                deterministic: true,
                ..ObsConfig::default()
            });
            obs.set_meta("seed", 42u64);
            for i in 0..5u64 {
                obs.counter_add("n", i);
                obs.emit(Event::new(i as f64, EventKind::StaleServe).field("id", i));
            }
            let _g = obs.span("work");
            drop(_g);
            obs.to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn event_cap_counts_drops() {
        let obs = Obs::new(ObsConfig {
            max_events: 2,
            deterministic: true,
            ..ObsConfig::default()
        });
        for i in 0..5u64 {
            obs.emit(Event::new(i as f64, EventKind::Coalesce));
        }
        assert_eq!(obs.events().len(), 2);
        let jsonl = obs.to_jsonl();
        assert!(
            jsonl.contains("{\"record\":\"counter\",\"name\":\"obs.events_dropped\",\"value\":3}"),
            "{jsonl}"
        );
    }

    #[test]
    fn absorb_shards_merges_in_fixed_shard_order() {
        let config = ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        };
        let master = Obs::new(config.clone());
        let a = Obs::new(config.clone());
        let b = Obs::new(config);

        a.counter_add("sim.requests", 3);
        b.counter_add("sim.requests", 7);
        a.emit(Event::new(2.0, EventKind::Detect).field("shard", 0u64));
        b.emit(Event::new(1.0, EventKind::Detect).field("shard", 1u64));
        b.emit(Event::new(2.0, EventKind::Detect).field("shard", 1u64));
        a.push_windows(vec![WindowRecord {
            index: 0,
            requests: 3,
            hits: 1,
            ..WindowRecord::default()
        }]);
        b.push_windows(vec![WindowRecord {
            index: 0,
            requests: 7,
            hits: 2,
            ..WindowRecord::default()
        }]);
        {
            let _g = a.span("replay");
        }
        {
            let _g = b.span("replay");
        }

        master.absorb_shards(&[a, b]);

        let events = master.events();
        assert_eq!(events.len(), 3);
        // Sorted by time; ties keep shard order (shard 0's t=2 before
        // shard 1's t=2).
        assert_eq!(events[0].t, 1.0);
        assert_eq!(events[1].fields[0].1.to_string(), "0");
        assert_eq!(events[2].fields[0].1.to_string(), "1");

        let windows = master.windows();
        assert_eq!(windows.len(), 1, "same window index merges into one");
        assert_eq!(windows[0].requests, 10);
        assert_eq!(windows[0].hits, 3);

        let jsonl = master.to_jsonl();
        assert!(
            jsonl.contains("\"name\":\"sim.requests\",\"value\":10"),
            "{jsonl}"
        );
        assert!(jsonl.contains("\"path\":\"replay\",\"count\":2"), "{jsonl}");
    }

    #[test]
    fn absorb_shards_sorts_traces_by_global_id() {
        let config = ObsConfig {
            deterministic: true,
            trace_sample: 1,
            ..ObsConfig::default()
        };
        let master = Obs::new(config.clone());
        let a = Obs::new(config.clone());
        let b = Obs::new(config);
        // Shard order a,b but ids interleave: merged export sorts by id.
        a.push_trace(crate::trace::TraceBuilder::new(4, 1, 4_000_000, 10).finish(9.0, 0));
        b.push_trace(crate::trace::TraceBuilder::new(1, 2, 1_000_000, 10).finish(3.0, 0));
        b.push_trace(crate::trace::TraceBuilder::new(7, 3, 7_000_000, 10).finish(1.0, 1));
        master.absorb_shards(&[a, b]);
        let ids: Vec<u64> = master.traces().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 4, 7]);
        // Exemplars per window over the merged set: id 4 (9ms) beats
        // id 1 (3ms) in window 0; id 7 is alone in window 1.
        let jsonl = master.to_jsonl();
        let marked: Vec<u64> = jsonl
            .lines()
            .filter_map(|l| match ObsRecord::parse_line(l) {
                Ok(ObsRecord::Trace(t)) if t.exemplar => Some(t.id),
                _ => None,
            })
            .collect();
        assert_eq!(marked, vec![4, 7]);
    }

    #[test]
    fn trace_cap_counts_drops() {
        let obs = Obs::new(ObsConfig {
            max_events: 1,
            deterministic: true,
            ..ObsConfig::default()
        });
        for i in 0..3u64 {
            obs.push_trace(crate::trace::TraceBuilder::new(i, i, i, 1).finish(0.0, 0));
        }
        assert_eq!(obs.traces().len(), 1);
        let jsonl = obs.to_jsonl();
        assert!(
            jsonl.contains("{\"record\":\"counter\",\"name\":\"obs.traces_dropped\",\"value\":2}"),
            "{jsonl}"
        );
    }

    #[test]
    fn slo_events_are_synthesized_at_export_from_merged_windows() {
        let config = ObsConfig {
            deterministic: true,
            slos: vec![crate::slo::SloObjective::Availability(99.0)],
            ..ObsConfig::default()
        };
        let obs = Obs::new(config);
        // Every window runs at 50% errors: burns immediately.
        for i in 0..3u64 {
            obs.push_windows(vec![WindowRecord {
                index: i,
                requests: 100,
                errors: 50,
                hits: 40,
                first_secs: i as f64,
                last_secs: i as f64 + 0.9,
                ..WindowRecord::default()
            }]);
        }
        let jsonl = obs.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"SloBreach\""), "{jsonl}");
        assert!(jsonl.contains("\"slos\":\"avail:99\""), "{jsonl}");
        // Export twice: synthesis must not mutate state.
        assert_eq!(jsonl, obs.to_jsonl());
    }

    fn stream_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lhr-obs-stream-{tag}-{}.jsonl", std::process::id()))
    }

    /// The sink's contract: the file it produces is byte-for-byte the
    /// buffered export.
    #[test]
    fn streamed_export_is_byte_identical_to_buffered() {
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        });
        let path = stream_path("basic");
        obs.stream_to(&path).unwrap();
        // Metadata set after the file was opened still lands on the meta
        // line: nothing is written before the close.
        obs.set_meta("policy", "lru");
        obs.set_meta("trace", "t");
        for i in 0..3u64 {
            obs.push_windows(vec![WindowRecord {
                index: i,
                requests: 10 + i,
                hits: i,
                ..WindowRecord::default()
            }]);
        }
        obs.counter_add("server.requests", 33);
        obs.gauge_set("server.replay_wall_secs", 0.0);
        let mut h = LogHistogram::new();
        h.record(12);
        obs.hist_merge("server.latency_us", &h);
        obs.emit(Event::new(1.5, EventKind::Coalesce).field("id", 7u64));
        obs.push_trace(crate::trace::TraceBuilder::new(11, 5, 1_500_000, 12).finish(2.0, 1));
        {
            let _g = obs.span("server.replay");
        }
        obs.close_stream().unwrap();
        let streamed = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(streamed, obs.to_jsonl());
        // And the windows really are on separate leading lines after meta.
        let tags: Vec<&str> = streamed
            .lines()
            .map(|l| ObsRecord::parse_line(l).unwrap().tag().to_string())
            .map(|t| if t == "window" { "window" } else { "other" })
            .collect();
        assert_eq!(&tags[..4], ["other", "window", "window", "window"]);
    }

    /// A run that closes no windows still produces a complete, identical
    /// export.
    #[test]
    fn streamed_export_without_windows_matches() {
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        });
        let path = stream_path("empty");
        obs.stream_to(&path).unwrap();
        obs.set_meta("policy", "fifo");
        obs.counter_add("server.requests", 5);
        obs.close_stream().unwrap();
        let streamed = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(streamed, obs.to_jsonl());
    }

    /// Shard-merged windows and shard metadata reach the file too.
    #[test]
    fn streamed_absorb_shards_is_byte_identical() {
        let config = ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        };
        let master = Obs::new(config.clone());
        let path = stream_path("shards");
        master.stream_to(&path).unwrap();
        master.set_meta("policy", "engine(lru)x2");
        let a = Obs::new(config.clone());
        let b = Obs::new(config);
        a.push_windows(vec![WindowRecord {
            index: 0,
            requests: 3,
            ..WindowRecord::default()
        }]);
        b.push_windows(vec![WindowRecord {
            index: 0,
            requests: 7,
            ..WindowRecord::default()
        }]);
        a.counter_add("server.requests", 3);
        b.counter_add("server.requests", 7);
        master.absorb_shards(&[a, b]);
        master.gauge_set("engine.shard_imbalance", 1.0);
        master.close_stream().unwrap();
        let streamed = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(streamed, master.to_jsonl());
        assert!(streamed.contains("\"requests\":10"), "{streamed}");
    }

    /// `close_stream` without `stream_to` is a no-op, and a second close is
    /// too — callers can close unconditionally.
    #[test]
    fn close_stream_is_idempotent() {
        let obs = Obs::new(ObsConfig::default());
        obs.close_stream().unwrap();
        let path = stream_path("idem");
        obs.stream_to(&path).unwrap();
        obs.close_stream().unwrap();
        obs.close_stream().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clones_share_buffers() {
        let obs = Obs::new(ObsConfig::default());
        let clone = obs.clone();
        clone.counter_add("x", 1);
        obs.counter_add("x", 2);
        let jsonl = obs.to_jsonl();
        assert!(jsonl.contains("\"name\":\"x\",\"value\":3"), "{jsonl}");
    }
}

//! Offline rendering of a parsed obs export ([`Export`]) into a
//! human-readable text report — the engine behind `lhr-cache obs summarize`.
//!
//! The report shows run metadata, aggregate ratios, a sparkline of the
//! per-window hit ratio (and availability when any errors occurred), event
//! counts by kind with the first few learning-loop events spelled out, the
//! profiling span tree indented by depth, and the counter / gauge /
//! histogram registries.

use crate::event::{Event, EventKind};
use crate::export::Export;
use crate::hist::LogHistogram;
use crate::series::WindowRecord;
use crate::span::SpanRecord;
use crate::trace::TraceRecord;
use std::fmt::Write as _;

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
const SPARK_WIDTH: usize = 60;
const EVENT_DETAIL_LIMIT: usize = 10;

/// Renders a sequence of `[0, 1]` values as a sparkline, averaging down to
/// at most [`SPARK_WIDTH`] characters.
fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let chunks = values.len().min(SPARK_WIDTH);
    let mut out = String::with_capacity(chunks * 3);
    for c in 0..chunks {
        let lo = c * values.len() / chunks;
        let hi = ((c + 1) * values.len() / chunks).max(lo + 1);
        let mean = values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        // A NaN/∞ sample (degenerate window, hand-edited export) renders as
        // the lowest bar instead of poisoning the cast.
        let mean = if mean.is_finite() { mean } else { 0.0 };
        let level = (mean.clamp(0.0, 1.0) * (SPARK.len() - 1) as f64).round() as usize;
        out.push(SPARK[level]);
    }
    out
}

fn render_windows(out: &mut String, windows: &[WindowRecord]) {
    let requests: u64 = windows.iter().map(|w| w.requests).sum();
    let hits: u64 = windows.iter().map(|w| w.hits).sum();
    let bytes_requested: u128 = windows.iter().map(|w| w.bytes_requested).sum();
    let bytes_hit: u128 = windows.iter().map(|w| w.bytes_hit).sum();
    let errors: u64 = windows.iter().map(|w| w.errors).sum();
    let evictions: u64 = windows.iter().map(|w| w.evictions).sum();
    let _ = writeln!(
        out,
        "windows: {} ({} measured requests)",
        windows.len(),
        requests
    );
    if requests > 0 {
        let _ = writeln!(
            out,
            "  hit ratio       {:.4}",
            hits as f64 / requests as f64
        );
    }
    if bytes_requested > 0 {
        let _ = writeln!(
            out,
            "  byte hit ratio  {:.4}",
            bytes_hit as f64 / bytes_requested as f64
        );
    }
    if evictions > 0 {
        let _ = writeln!(out, "  evictions       {evictions}");
    }
    // A one-character sparkline carries no trend information; skip it.
    if windows.len() > 1 {
        let ratios: Vec<f64> = windows.iter().map(|w| w.hit_ratio()).collect();
        let _ = writeln!(out, "  hit ratio/win   {}", sparkline(&ratios));
    }
    if errors > 0 {
        if windows.len() > 1 {
            let avail: Vec<f64> = windows.iter().map(|w| w.availability()).collect();
            let _ = writeln!(out, "  availability    {}", sparkline(&avail));
        }
        let _ = writeln!(out, "  errors          {errors}");
    }
}

fn render_events(out: &mut String, events: &[Event]) {
    let _ = writeln!(out, "events: {}", events.len());
    // Counts per kind, in first-seen order.
    let mut counts: Vec<(&str, u64)> = Vec::new();
    for e in events {
        let name = e.kind.name();
        match counts.iter_mut().find(|(k, _)| *k == name) {
            Some((_, n)) => *n += 1,
            None => counts.push((name, 1)),
        }
    }
    for (kind, n) in &counts {
        let _ = writeln!(out, "  {kind:<16} {n}");
    }
    // The learning loop's story, spelled out.
    let learning: Vec<&Event> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Detect
                    | EventKind::Retrain
                    | EventKind::ThresholdUpdate
                    | EventKind::ModelSwap
            )
        })
        .collect();
    if !learning.is_empty() {
        let shown = learning.len().min(EVENT_DETAIL_LIMIT);
        let _ = writeln!(out, "  first {shown} learning events:");
        for e in &learning[..shown] {
            let fields: Vec<String> = e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "    t={:<10} {:<16} {}",
                e.t,
                e.kind.name(),
                fields.join(" ")
            );
        }
        if learning.len() > shown {
            let _ = writeln!(out, "    … {} more", learning.len() - shown);
        }
    }
}

/// The per-window story: each window with a sampled exemplar gets one
/// line linking its aggregate hit ratio (and errors) to the concrete
/// worst-latency trace id `obs trace --id` can pull up.
fn render_traces(out: &mut String, windows: &[WindowRecord], traces: &[TraceRecord]) {
    let _ = writeln!(out, "traces: {} sampled", traces.len());
    let exemplars: Vec<&TraceRecord> = traces.iter().filter(|t| t.exemplar).collect();
    if exemplars.is_empty() {
        return;
    }
    let _ = writeln!(out, "  per-window exemplars (worst sampled latency):");
    let shown = exemplars.len().min(EVENT_DETAIL_LIMIT);
    for t in &exemplars[..shown] {
        let window = windows.iter().find(|w| w.index == t.window);
        let story = match window {
            Some(w) => {
                let mut s = format!("hit {:.2}", w.hit_ratio());
                if w.errors > 0 {
                    let _ = write!(s, ", {} errors", w.errors);
                }
                s
            }
            None => "no window record".to_string(),
        };
        let _ = writeln!(
            out,
            "    window {:<4} {story:<24} exemplar trace {} ({:.1} ms, {} steps)",
            t.window,
            t.id,
            t.latency_ms,
            t.steps.len()
        );
    }
    if exemplars.len() > shown {
        let _ = writeln!(out, "    … {} more", exemplars.len() - shown);
    }
}

fn render_spans(out: &mut String, spans: &[SpanRecord]) {
    let _ = writeln!(out, "spans:");
    let _ = writeln!(
        out,
        "  {:<40} {:>10} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for s in spans {
        let depth = s.path.matches('/').count();
        let name = s.path.rsplit('/').next().unwrap_or(&s.path);
        let label = format!("{}{}", "  ".repeat(depth), name);
        let _ = writeln!(
            out,
            "  {:<40} {:>10} {:>12.6} {:>12.6}",
            label, s.count, s.total_secs, s.self_secs
        );
    }
}

fn render_hist(out: &mut String, name: &str, h: &LogHistogram) {
    let _ = writeln!(
        out,
        "  {:<24} n={} mean={:.1} min={} max={} p50≥{} p99≥{}",
        name,
        h.total(),
        h.mean(),
        h.min(),
        h.max(),
        h.quantile_floor(0.5),
        h.quantile_floor(0.99),
    );
}

/// A hottest-shard load above this multiple of the mean counts as skewed:
/// the engine's shard-count hint (`lhr_proto::engine::shard_skew`) and
/// its rendering here both use it.
pub const SKEW_HINT_THRESHOLD: f64 = 1.25;

/// One-line `--shards` hint when the engine's exported gauges say the
/// keyspace is skewed (see `lhr_proto::engine::shard_skew`).
fn render_skew_hint(out: &mut String, gauges: &[(String, f64)]) {
    let find = |name: &str| gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
    let (Some(imbalance), Some(suggested)) = (
        find("engine.shard_imbalance"),
        find("engine.suggested_shards"),
    ) else {
        return;
    };
    if imbalance > SKEW_HINT_THRESHOLD {
        let _ = writeln!(
            out,
            "hint: hottest shard served {imbalance:.2}× the mean — consider --shards {}",
            suggested as u64
        );
    }
}

/// Renders the text report of a parsed export.
pub fn summarize(export: &Export) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== obs summary ==");
    if !export.meta.is_empty() {
        let rendered: Vec<String> = export
            .meta
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "meta: {}", rendered.join(" "));
    }
    // Degenerate exports (a crashed run, a meta-only stream, a recorder
    // that never completed a window) say so explicitly rather than
    // rendering an empty report that reads like truncated output.
    if export.windows.is_empty() {
        let _ = writeln!(out, "windows: none (no completed metric windows)");
    } else {
        render_windows(&mut out, &export.windows);
    }
    if export.events.is_empty() {
        let _ = writeln!(out, "events: none");
    } else {
        render_events(&mut out, &export.events);
    }
    // Only say "traces: none" when tracing was actually on for the run
    // (the meta line carries `trace_sample`) — an untraced export just
    // omits the section, a degenerate traced one says so explicitly.
    if !export.traces.is_empty() {
        render_traces(&mut out, &export.windows, &export.traces);
    } else if export.meta_value("trace_sample").is_some() {
        let _ = writeln!(out, "traces: none (sampling enabled, nothing sampled)");
    }
    if !export.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, value) in &export.counters {
            let _ = writeln!(out, "  {name:<24} {value}");
        }
    }
    if !export.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, value) in &export.gauges {
            let _ = writeln!(out, "  {name:<24} {value}");
        }
    }
    render_skew_hint(&mut out, &export.gauges);
    if !export.hists.is_empty() {
        let _ = writeln!(out, "histograms:");
        for (name, h) in &export.hists {
            render_hist(&mut out, name, h);
        }
    }
    if !export.spans.is_empty() {
        render_spans(&mut out, &export.spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Obs, ObsConfig};
    use crate::series::ObsWindow;

    /// `n` consecutive windows of `len` requests of 100 bytes, `hits` of
    /// them hits and the rest admitted misses.
    fn windows(n: u64, len: u64, hits: u64) -> Vec<WindowRecord> {
        (0..n)
            .map(|k| WindowRecord {
                index: k,
                start_requests: k * len,
                first_secs: (k * len) as f64 * 1e-6,
                last_secs: ((k + 1) * len - 1) as f64 * 1e-6,
                requests: len,
                hits,
                misses_admitted: len - hits,
                bytes_requested: len as u128 * 100,
                bytes_hit: hits as u128 * 100,
                ..WindowRecord::default()
            })
            .collect()
    }

    /// `obs`'s export, written and read back as `obs summarize` reads it.
    fn parsed(obs: &Obs) -> Export {
        Export::parse(&obs.to_jsonl(), "test").unwrap()
    }

    #[test]
    fn sparkline_scales_and_downsamples() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 1.0]), "▁█");
        let many: Vec<f64> = (0..600).map(|i| i as f64 / 599.0).collect();
        assert_eq!(sparkline(&many).chars().count(), SPARK_WIDTH);
    }

    #[test]
    fn summarize_renders_a_full_report() {
        let obs = Obs::new(ObsConfig {
            window: ObsWindow::Requests(2),
            deterministic: true,
            ..ObsConfig::default()
        });
        obs.set_meta("policy", "lhr");
        obs.push_windows(windows(3, 2, 1));
        obs.emit(crate::Event::new(2.0, EventKind::Detect).field("alpha", 0.9f64));
        obs.emit(crate::Event::new(2.0, EventKind::Retrain).field("rows", 128u64));
        obs.counter_add("sim.requests", 6);
        obs.gauge_set("lhr.threshold", 0.25);
        let mut h = LogHistogram::new();
        h.record(500);
        obs.hist_merge("latency_us", &h);
        {
            let _g = obs.span("sim.run");
        }
        let report = summarize(&parsed(&obs));
        for needle in [
            "== obs summary ==",
            "policy=\"lhr\"",
            "windows: 3",
            "hit ratio       0.5000",
            "Detect",
            "Retrain",
            "alpha=0.9",
            "sim.requests",
            "lhr.threshold",
            "latency_us",
            "sim.run",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn skew_hint_appears_only_when_imbalanced() {
        let skewed = Obs::new(ObsConfig::default());
        skewed.gauge_set("engine.shard_imbalance", 3.4);
        skewed.gauge_set("engine.suggested_shards", 64.0);
        let report = summarize(&parsed(&skewed));
        assert!(
            report.contains("hint: hottest shard served 3.40× the mean — consider --shards 64"),
            "{report}"
        );

        let even = Obs::new(ObsConfig::default());
        even.gauge_set("engine.shard_imbalance", 1.01);
        even.gauge_set("engine.suggested_shards", 16.0);
        let report = summarize(&parsed(&even));
        assert!(!report.contains("hint:"), "{report}");
    }

    #[test]
    fn summarize_renders_an_empty_export() {
        assert!(summarize(&Export::default()).contains("obs summary"));
    }

    #[test]
    fn sparkline_survives_non_finite_values() {
        let s = sparkline(&[f64::NAN, 0.5, f64::INFINITY, f64::NEG_INFINITY]);
        assert_eq!(s.chars().count(), 4, "{s}");
        assert_eq!(s.chars().next(), Some(SPARK[0]));
    }

    /// A meta-only export (e.g. a run that crashed before its first window
    /// closed, with an empty event bus) must render an explicit report, not
    /// a bare header that reads like truncated output.
    #[test]
    fn summarize_handles_meta_only_export() {
        let obs = Obs::new(ObsConfig::default());
        obs.set_meta("policy", "lru");
        let report = summarize(&parsed(&obs));
        assert!(report.contains("policy=\"lru\""), "{report}");
        assert!(
            report.contains("windows: none (no completed metric windows)"),
            "{report}"
        );
        assert!(report.contains("events: none"), "{report}");
    }

    /// A single completed window renders its aggregates but skips the
    /// one-character sparklines, which carry no trend information.
    #[test]
    fn summarize_handles_single_window_without_sparkline() {
        let obs = Obs::new(ObsConfig {
            window: ObsWindow::Requests(4),
            deterministic: true,
            ..ObsConfig::default()
        });
        obs.push_windows(windows(1, 4, 4));
        let report = summarize(&parsed(&obs));
        assert!(
            report.contains("windows: 1 (4 measured requests)"),
            "{report}"
        );
        assert!(report.contains("hit ratio       1.0000"), "{report}");
        assert!(!report.contains("hit ratio/win"), "{report}");
    }

    /// Windows that measured nothing (all warmup, or an idle tail) must not
    /// divide by zero anywhere in the report.
    #[test]
    fn summarize_handles_zero_request_windows() {
        let zero = WindowRecord {
            index: 0,
            ..WindowRecord::default()
        };
        let report = summarize(&Export {
            windows: vec![zero],
            ..Export::default()
        });
        assert!(
            report.contains("windows: 1 (0 measured requests)"),
            "{report}"
        );
        assert!(!report.contains("hit ratio "), "{report}");
        assert!(!report.contains("NaN"), "{report}");
    }

    /// Sampled traces surface in the report: a count line plus one
    /// per-window exemplar line naming the trace id `obs trace --id` takes.
    #[test]
    fn summarize_surfaces_exemplar_trace_ids() {
        let obs = Obs::new(ObsConfig {
            window: ObsWindow::Requests(2),
            deterministic: true,
            trace_sample: 1,
            ..ObsConfig::default()
        });
        for i in 0..4u64 {
            let b = crate::trace::TraceBuilder::new(i, i * 10, i * 1_000_000, 100);
            obs.push_trace(b.finish(1.0 + i as f64, i / 2));
        }
        obs.push_windows(windows(2, 2, 2));
        let report = summarize(&parsed(&obs));
        assert!(report.contains("traces: 4 sampled"), "{report}");
        // Worst latency in window 0 is trace 1 (2.0 ms), in window 1 trace 3.
        assert!(report.contains("exemplar trace 1 (2.0 ms"), "{report}");
        assert!(report.contains("exemplar trace 3 (4.0 ms"), "{report}");
    }

    /// A traced run that sampled nothing says so explicitly; an untraced
    /// export keeps its old byte-for-byte report (no traces section).
    #[test]
    fn summarize_renders_traces_none_only_when_tracing_was_on() {
        let traced = Obs::new(ObsConfig {
            trace_sample: 1_000_000,
            ..ObsConfig::default()
        });
        let report = summarize(&parsed(&traced));
        assert!(
            report.contains("traces: none (sampling enabled, nothing sampled)"),
            "{report}"
        );

        let untraced = Obs::new(ObsConfig::default());
        let report = summarize(&parsed(&untraced));
        assert!(!report.contains("traces"), "{report}");
    }
}

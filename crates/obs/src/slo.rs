//! SLO burn-rate engine: turns the windowed metric series into
//! objective-level verdicts.
//!
//! An objective is declarative — availability ≥ x%, hit ratio ≥ y%,
//! P99 latency ≤ z ms — and evaluation follows the Google-SRE
//! multi-window burn-rate pattern: at each window the engine computes
//! the request-weighted *burn rate* (budget consumed / budget allowed)
//! over a trailing **fast** window of [`FAST_WINDOWS`] windows and a
//! trailing **slow** window of [`SLOW_WINDOWS`] windows. A breach opens
//! when *both* exceed 1.0 (the short window confirms the problem is
//! current, the long one that it is material); it closes when both drop
//! back. Breach and recovery become deterministic
//! [`EventKind::SloBreach`] / [`EventKind::SloRecover`] events stamped
//! with the window's closing trace time — evaluation is a pure function
//! of the merged window series, so verdicts are byte-identical at any
//! thread count.
//!
//! P99 objectives are evaluated run-level against the exported latency
//! histogram (the window series carries no latency distribution), so
//! they yield a single verdict rather than per-window burn rates.

use crate::event::{Event, EventKind};
use crate::hist::LogHistogram;
use crate::series::WindowRecord;
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// Trailing fast-burn window (windows).
pub const FAST_WINDOWS: usize = 5;
/// Trailing slow-burn window (windows).
pub const SLOW_WINDOWS: usize = 30;

/// One declarative service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SloObjective {
    /// Availability ≥ this percentage (errors consume the budget).
    Availability(f64),
    /// Object hit ratio ≥ this percentage (misses consume the budget).
    HitRatio(f64),
    /// P99 latency ≤ this many milliseconds (run-level, from the
    /// latency histogram).
    P99Ms(f64),
}

impl fmt::Display for SloObjective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SloObjective::Availability(x) => write!(f, "avail:{x}"),
            SloObjective::HitRatio(x) => write!(f, "hitratio:{x}"),
            SloObjective::P99Ms(x) => write!(f, "p99:{x}"),
        }
    }
}

impl FromStr for SloObjective {
    type Err = String;

    /// Parses the CLI `--objective` syntax: `avail:99.9`, `hitratio:80`,
    /// `p99:250`.
    fn from_str(raw: &str) -> Result<Self, String> {
        let bad =
            || format!("bad objective `{raw}` (want `avail:PCT`, `hitratio:PCT`, or `p99:MS`)");
        let (kind, value) = raw.trim().split_once(':').ok_or_else(bad)?;
        let value: f64 = value.trim().parse().map_err(|_| bad())?;
        if !value.is_finite() || value < 0.0 {
            return Err(bad());
        }
        match kind.trim().to_ascii_lowercase().as_str() {
            "avail" | "availability" => {
                if value > 100.0 {
                    return Err(bad());
                }
                Ok(SloObjective::Availability(value))
            }
            "hitratio" | "hit" => {
                if value > 100.0 {
                    return Err(bad());
                }
                Ok(SloObjective::HitRatio(value))
            }
            "p99" => Ok(SloObjective::P99Ms(value)),
            _ => Err(bad()),
        }
    }
}

/// The verdict for one objective over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// The objective evaluated.
    pub objective: SloObjective,
    /// Whether the objective held for the whole run (no breach opened).
    pub met: bool,
    /// Window indices at which the objective was in breach.
    pub breached_windows: Vec<u64>,
    /// Run-level observed value (availability %, hit ratio %, or P99 ms).
    pub observed: f64,
    /// The breach/recovery events, in window order.
    pub events: Vec<Event>,
}

/// Budget consumed by one window for a ratio objective: `(bad, total)`.
fn window_consumption(objective: SloObjective, w: &WindowRecord) -> (u64, u64) {
    match objective {
        SloObjective::Availability(_) => (w.errors.min(w.requests), w.requests),
        SloObjective::HitRatio(_) => (w.requests - w.hits.min(w.requests), w.requests),
        SloObjective::P99Ms(_) => (0, 0),
    }
}

/// Request-weighted burn rate over a trailing slice of windows: the bad
/// fraction divided by the budget fraction `1 - target`. A zero budget
/// (target = 100%) burns infinitely on any bad request.
fn burn_rate(objective: SloObjective, budget: f64, tail: &[WindowRecord]) -> f64 {
    let (mut bad, mut total) = (0u64, 0u64);
    for w in tail {
        let (b, t) = window_consumption(objective, w);
        bad += b;
        total += t;
    }
    if total == 0 {
        return 0.0;
    }
    let rate = bad as f64 / total as f64;
    if budget <= 0.0 {
        if bad > 0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        rate / budget
    }
}

fn ratio_verdict(objective: SloObjective, target_pct: f64, windows: &[WindowRecord]) -> SloVerdict {
    let budget = 1.0 - target_pct / 100.0;
    let (mut bad, mut total) = (0u64, 0u64);
    for w in windows {
        let (b, t) = window_consumption(objective, w);
        bad += b;
        total += t;
    }
    let observed = if total == 0 {
        100.0
    } else {
        100.0 * (1.0 - bad as f64 / total as f64)
    };

    let mut events = Vec::new();
    let mut breached_windows = Vec::new();
    let mut in_breach = false;
    for i in 0..windows.len() {
        let fast = burn_rate(
            objective,
            budget,
            &windows[i.saturating_sub(FAST_WINDOWS - 1)..=i],
        );
        let slow = burn_rate(
            objective,
            budget,
            &windows[i.saturating_sub(SLOW_WINDOWS - 1)..=i],
        );
        let burning = fast > 1.0 && slow > 1.0;
        let w = &windows[i];
        if burning && !in_breach {
            in_breach = true;
            events.push(
                Event::new(w.last_secs, EventKind::SloBreach)
                    .field("objective", objective.to_string())
                    .field("window", w.index)
                    .field("fast_burn", finite(fast))
                    .field("slow_burn", finite(slow)),
            );
        } else if !burning && in_breach {
            in_breach = false;
            events.push(
                Event::new(w.last_secs, EventKind::SloRecover)
                    .field("objective", objective.to_string())
                    .field("window", w.index)
                    .field("fast_burn", finite(fast))
                    .field("slow_burn", finite(slow)),
            );
        }
        if burning {
            breached_windows.push(w.index);
        }
    }
    SloVerdict {
        objective,
        met: breached_windows.is_empty(),
        breached_windows,
        observed,
        events,
    }
}

/// Clamps an infinite burn (zero budget) to a large sentinel so the JSON
/// stays within ordinary float territory for downstream tooling.
fn finite(burn: f64) -> f64 {
    if burn.is_finite() {
        burn
    } else {
        1e9
    }
}

fn p99_verdict(
    limit_ms: f64,
    windows: &[WindowRecord],
    latency_us: Option<&LogHistogram>,
) -> SloVerdict {
    let objective = SloObjective::P99Ms(limit_ms);
    let observed = latency_us
        .filter(|h| h.total() > 0)
        .map(|h| h.quantile_floor(0.99) as f64 / 1000.0)
        .unwrap_or(0.0);
    let met = observed <= limit_ms;
    let t = windows.last().map(|w| w.last_secs).unwrap_or(0.0);
    let events = if met {
        Vec::new()
    } else {
        vec![Event::new(t, EventKind::SloBreach)
            .field("objective", objective.to_string())
            .field("p99_ms", observed)]
    };
    SloVerdict {
        objective,
        met,
        breached_windows: Vec::new(),
        observed,
        events,
    }
}

/// Evaluates every objective over the merged window series (and, for P99
/// objectives, the run's latency histogram in microseconds). Pure: the
/// same series and histogram always produce the same verdicts and the
/// same event bytes.
pub fn evaluate(
    objectives: &[SloObjective],
    windows: &[WindowRecord],
    latency_us: Option<&LogHistogram>,
) -> Vec<SloVerdict> {
    objectives
        .iter()
        .map(|&o| match o {
            SloObjective::Availability(x) => ratio_verdict(o, x, windows),
            SloObjective::HitRatio(x) => ratio_verdict(o, x, windows),
            SloObjective::P99Ms(z) => p99_verdict(z, windows, latency_us),
        })
        .collect()
}

/// Flattens verdicts into the event list appended to the export's event
/// section: objective order, then window order within each objective.
pub fn events(verdicts: &[SloVerdict]) -> Vec<Event> {
    verdicts.iter().flat_map(|v| v.events.clone()).collect()
}

/// Picks the run's latency histogram out of an export's named histograms:
/// the first name ending in `.latency_us` (BTreeMap order makes the pick
/// deterministic; serving runs record exactly one).
pub fn pick_latency_hist(hists: &BTreeMap<String, LogHistogram>) -> Option<&LogHistogram> {
    hists
        .iter()
        .find(|(name, _)| name.ends_with(".latency_us"))
        .map(|(_, h)| h)
}

/// Parses a comma-separated objective list (`avail:99.9,p99:250`). A list
/// with no objective in it (`,`, blank) is an error.
pub fn parse_objectives(raw: &str) -> Result<Vec<SloObjective>, String> {
    let objectives = raw
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| s.parse())
        .collect::<Result<Vec<SloObjective>, String>>()?;
    if objectives.is_empty() {
        return Err("empty objective list".to_string());
    }
    Ok(objectives)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(index: u64, requests: u64, errors: u64, hits: u64) -> WindowRecord {
        WindowRecord {
            index,
            requests,
            errors,
            hits,
            first_secs: index as f64 * 10.0,
            last_secs: index as f64 * 10.0 + 9.0,
            ..WindowRecord::default()
        }
    }

    #[test]
    fn objective_syntax_roundtrips() {
        for raw in ["avail:99.9", "hitratio:80", "p99:250"] {
            let o: SloObjective = raw.parse().unwrap();
            assert_eq!(o.to_string(), raw);
        }
        assert_eq!(
            "availability:99".parse::<SloObjective>().unwrap(),
            SloObjective::Availability(99.0)
        );
        for bad in ["", "avail", "avail:x", "avail:101", "p98:1", "p99:-1"] {
            assert!(bad.parse::<SloObjective>().is_err(), "{bad}");
        }
        assert_eq!(parse_objectives("avail:99.9, p99:250").unwrap().len(), 2);
        for empty in ["", ",", " ", " , "] {
            assert_eq!(
                parse_objectives(empty).unwrap_err(),
                "empty objective list",
                "{empty:?}"
            );
        }
    }

    #[test]
    fn clean_run_meets_availability_objective() {
        let windows: Vec<_> = (0..40).map(|i| window(i, 1000, 0, 900)).collect();
        let v = &evaluate(&[SloObjective::Availability(99.9)], &windows, None)[0];
        assert!(v.met);
        assert!(v.events.is_empty());
        assert_eq!(v.observed, 100.0);
    }

    #[test]
    fn sustained_errors_breach_then_recover() {
        // 0.1% budget; windows 10..20 run at 5% errors, then clean again.
        let mut windows = Vec::new();
        for i in 0..40u64 {
            let errors = if (10..20).contains(&i) { 50 } else { 0 };
            windows.push(window(i, 1000, errors, 900));
        }
        let v = &evaluate(&[SloObjective::Availability(99.9)], &windows, None)[0];
        assert!(!v.met);
        assert!(v.breached_windows.contains(&10));
        let kinds: Vec<EventKind> = v.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EventKind::SloBreach));
        assert!(kinds.contains(&EventKind::SloRecover));
        let breach = v
            .events
            .iter()
            .find(|e| e.kind == EventKind::SloBreach)
            .unwrap();
        assert_eq!(
            breach.get("objective").unwrap().to_string(),
            "\"avail:99.9\""
        );
        // Breach opens at the first burning window's closing time.
        assert_eq!(breach.t, windows[10].last_secs);
    }

    #[test]
    fn slow_window_filters_a_single_blip() {
        // One bad window out of 40 breaches the fast burn but not the
        // 30-window slow burn at this magnitude.
        let mut windows: Vec<_> = (0..40).map(|i| window(i, 1000, 0, 900)).collect();
        windows[20].errors = 2; // 0.2% for one window: fast burn 2/5 = 0.4x
        let v = &evaluate(&[SloObjective::Availability(99.9)], &windows, None)[0];
        assert!(v.met, "breached: {:?}", v.breached_windows);
    }

    #[test]
    fn hit_ratio_objective_counts_misses() {
        let windows: Vec<_> = (0..10).map(|i| window(i, 1000, 0, 500)).collect();
        let v = &evaluate(&[SloObjective::HitRatio(80.0)], &windows, None)[0];
        assert!(!v.met, "50% hits against an 80% objective must breach");
        assert!((v.observed - 50.0).abs() < 1e-9);
        let ok = &evaluate(&[SloObjective::HitRatio(40.0)], &windows, None)[0];
        assert!(ok.met);
    }

    #[test]
    fn p99_objective_reads_the_histogram() {
        let mut h = LogHistogram::new();
        for _ in 0..95 {
            h.record(1_000); // 1 ms
        }
        for _ in 0..5 {
            h.record(400_000); // 400 ms tail — rank 99 of 100 lands here
        }
        let windows = vec![window(0, 100, 0, 90)];
        let hists: BTreeMap<String, LogHistogram> =
            [("server.latency_us".to_string(), h)].into_iter().collect();
        let hist = pick_latency_hist(&hists);
        let bad = &evaluate(&[SloObjective::P99Ms(100.0)], &windows, hist)[0];
        assert!(!bad.met);
        assert_eq!(bad.events.len(), 1);
        assert_eq!(bad.events[0].kind, EventKind::SloBreach);
        let ok = &evaluate(&[SloObjective::P99Ms(10_000.0)], &windows, hist)[0];
        assert!(ok.met);
        assert!(ok.events.is_empty());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let mut windows = Vec::new();
        for i in 0..35u64 {
            windows.push(window(i, 500 + i, (i % 7) * 3, 400));
        }
        let objectives = [
            SloObjective::Availability(99.0),
            SloObjective::HitRatio(75.0),
        ];
        let a = evaluate(&objectives, &windows, None);
        let b = evaluate(&objectives, &windows, None);
        assert_eq!(a, b);
        let line = |e: &Event| crate::ObsRecord::Event(e.clone()).to_line();
        let ea: Vec<String> = events(&a).iter().map(line).collect();
        let eb: Vec<String> = events(&b).iter().map(line).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn empty_series_meets_everything() {
        let v = evaluate(
            &[SloObjective::Availability(99.9), SloObjective::P99Ms(1.0)],
            &[],
            None,
        );
        assert!(v.iter().all(|v| v.met));
    }
}

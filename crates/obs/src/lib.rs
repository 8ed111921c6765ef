//! `lhr-obs` — the workspace's deterministic observability layer.
//!
//! Every result in the paper is a *time-evolving* quantity — hit ratio over
//! sliding windows, HRO's per-window bound, LHR's retrain cadence — yet a
//! simulation that only reports end-of-run aggregates cannot show *when*
//! LHR converges, *why* a retrain fired, or *where* wall-clock goes. This
//! crate is the replayable-telemetry substrate the rest of the workspace
//! instruments itself with, in the zero-external-dependency style of
//! `lhr-util`:
//!
//! - [`series`] — **trace-time windowed metric series**: hit ratio, byte
//!   hit ratio, admission rate, eviction pressure, and availability per
//!   N-second or N-request window, accumulated locally (no locking on the
//!   per-request hot path) and exported as JSONL or CSV.
//! - [`event`] — a structured **event bus**: typed records
//!   (`Event { t, kind, fields }`) for LHR retrains, δ-threshold updates,
//!   Zipf-α detection triggers, circuit-breaker transitions, outage
//!   windows, stale serves, and coalescing collapses.
//! - [`span`] — lightweight **profiling spans**: scoped timers aggregated
//!   into a self-time/total-time tree (`obs.span("gbm.fit")`), with a
//!   *deterministic* mode that records span counts but zeroes wall-clock so
//!   fixed-seed reports stay byte-identical.
//! - [`hist`] — log-bucketed histograms (powers of two) for latency and
//!   size distributions.
//! - [`trace`] — **deterministic request-path tracing**: a `1/N` sample
//!   of requests (sampling is a pure function of `(object_id, trace
//!   time)`) each recorded as an ordered step list — edge lookup,
//!   failover, peer hint, shield lookup, origin attempts, breaker state
//!   — with simulated-time deltas, plus per-window worst-latency
//!   exemplar marks.
//! - [`slo`] — a **burn-rate SLO engine**: declarative objectives
//!   (availability, hit ratio, P99) evaluated over the windowed series
//!   with fast/slow multi-window burn rules, emitting deterministic
//!   breach/recovery events.
//! - [`record`] — the JSONL line model tying it all together, parseable
//!   back for offline analysis.
//! - [`export`] — the one reader of an export file: [`Export`], its
//!   sections parsed once, which `lhr-cache obs summarize | trace | slo`
//!   all read.
//! - [`summary`] — the text report renderer (sparklines, event taxonomy,
//!   span tree) behind the `obs summarize` CLI subcommand.
//!
//! # Determinism contract
//!
//! With [`ObsConfig::deterministic`] set, the serialized output
//! ([`Obs::to_jsonl`]) of two runs with the same seed, trace, and
//! configuration is **byte-identical**: window records and events derive
//! only from trace time and seeded PRNG draws, and spans report counts with
//! zeroed durations. With it unset, span durations and any wall-clock
//! gauges are real, and only those fields may differ between runs.
//!
//! # Example
//!
//! ```
//! use lhr_obs::{Obs, ObsConfig, ObsWindow};
//! use lhr_obs::series::{SeriesAcc, Totals};
//!
//! let obs = Obs::new(ObsConfig {
//!     window: ObsWindow::Requests(2),
//!     deterministic: true,
//!     ..ObsConfig::default()
//! });
//! let mut acc = SeriesAcc::new(obs.window());
//! let mut totals = Totals::default();
//! for i in 0..5u64 {
//!     // Each request is shown to the series before it is counted.
//!     acc.observe(i, || totals);
//!     totals.requests += 1;
//!     totals.hits += (i % 2 == 0) as u64;
//! }
//! obs.push_windows(acc.finish(totals));
//! let jsonl = obs.to_jsonl();
//! assert_eq!(jsonl.lines().count(), 1 + 3); // meta + 2 full windows + 1 partial
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod hist;
pub mod record;
mod recorder;
pub mod series;
pub mod slo;
pub mod span;
pub mod summary;
pub mod trace;

pub use event::{Event, EventKind};
pub use export::Export;
pub use hist::LogHistogram;
pub use record::ObsRecord;
pub use recorder::{Obs, ObsConfig};
pub use series::{ObsWindow, WindowRecord};
pub use slo::{SloObjective, SloVerdict};
pub use span::SpanRecord;
pub use trace::{TraceBuilder, TraceRecord, TraceRecorder, TraceStep};

//! Request/trace model, trace I/O, statistics, and synthetic CDN workload
//! generators for the LHR reproduction.
//!
//! A [`Trace`] is an ordered sequence of [`Request`]s, each carrying a
//! timestamp (microsecond resolution, monotone non-decreasing), an object id,
//! and an object size in bytes. All simulator crates in this workspace
//! consume traces through this crate.
//!
//! # Modules
//!
//! - [`request`] — the core [`Request`] / [`Trace`] types and the [`Time`]
//!   newtype used everywhere for determinism (no wall-clock in algorithms).
//! - [`io`] — CSV and compact binary trace readers/writers.
//! - [`stats`] — the Table 1 trace characteristics, popularity
//!   rank-frequency curves, and inter-request-time distributions (Figure 1).
//! - [`synth`] — synthetic workload generators: independent-reference Zipf,
//!   Markov-modulated processes ("Syn One" / "Syn Two" from §7.6), and
//!   production-like traces calibrated to the paper's Table 1.
//!
//! # Quick start
//!
//! ```
//! use lhr_trace::synth::{IrmConfig, SizeModel};
//!
//! // A 10k-request Zipf(0.9) trace over 1 000 objects with ~1 MiB objects.
//! let trace = IrmConfig::new(1_000, 10_000)
//!     .zipf_alpha(0.9)
//!     .size_model(SizeModel::LogNormal { median: 1 << 20, sigma: 1.0 })
//!     .seed(42)
//!     .generate();
//! assert_eq!(trace.len(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod io;
pub mod request;
pub mod stats;
pub mod synth;

pub use request::{ObjectId, Request, Time, Trace};
pub use stats::TraceStats;

//! `lhr-util` — the workspace's zero-dependency utility layer.
//!
//! Everything in this repository must build **offline** with an empty cargo
//! registry (see DESIGN.md, "Dependency policy"). This crate supplies the
//! std-only replacements for the handful of external crates a project like
//! this would normally pull in:
//!
//! - [`rng`] — deterministic, seedable PRNGs (SplitMix64, PCG64,
//!   xoshiro256++) behind a [`rng::Rng`] trait with uniform/Gaussian/Pareto
//!   sampling helpers. Replaces `rand`; every experiment seed maps to a
//!   bit-reproducible request stream.
//! - [`json`] — a small JSON value model, recursive-descent parser, and
//!   writer, plus [`json::ToJson`]/[`json::FromJson`] traits and the
//!   [`impl_json!`] derive-replacement macro. Replaces `serde` for the GBM
//!   model, the reports and the `--obs` exports.
//! - [`sync`] — a panic-robust `Mutex` wrapper (a `parking_lot`-style
//!   guard API over `std::sync`) and the workspace's two fan-out
//!   primitives: [`sync::claim_each`], scoped workers claiming work items
//!   off one shared queue, and [`sync::crew`], helpers spawned once that
//!   hand submitted items back in order.
//! - [`hash`] — a fixed-seed FxHash-style hasher with [`hash::FastMap`]/
//!   [`hash::FastSet`] aliases. Replaces `rustc-hash`/`fxhash` for the
//!   request hot path, where SipHash + `RandomState` costs throughput and
//!   cross-process determinism.
//! - [`prop`] — property-based testing: value generators with shrinking and
//!   the [`prop_check!`] macro. Replaces `proptest` for this repo's needs.
//! - [`bench`] — a wall-clock micro-benchmark harness with warmup, used by
//!   `crates/bench`'s plain-binary benches. Replaces `criterion`.
//!
//! # Example
//!
//! ```
//! use lhr_util::rng::{Rng, SeedableRng, rngs::StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let coin = rng.gen_bool(0.5);
//! let lane = rng.gen_range(0..8);
//! assert!(lane < 8);
//! // Same seed ⇒ same stream, on every platform.
//! let mut again = StdRng::seed_from_u64(42);
//! assert_eq!(again.gen_bool(0.5), coin);
//! ```

#![forbid(unsafe_code)]

pub mod bench;
pub mod hash;
pub mod json;
pub mod prop;
pub mod rng;
pub mod sync;

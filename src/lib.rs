//! Facade crate for the LHR workspace.
//!
//! Re-exports every member crate under a stable name so that examples and
//! integration tests (and downstream users who want a single dependency) can
//! write `use lhr_repro::trace::...` etc.
//!
//! The actual implementations live in `crates/`:
//! - [`trace`] — request/trace model, I/O, and synthetic workload generators
//! - [`gbm`] — gradient-boosted regression trees (the learning model)
//! - [`nn`] — a small multi-layer perceptron (the DNN-baseline substrate)
//! - [`sim`] — trace-driven cache simulator engine and metrics
//! - [`policies`] — state-of-the-art baseline caching policies
//! - [`bounds`] — offline upper bounds on optimal caching
//! - [`core`] — HRO online bound and the LHR cache (the paper's contribution)
//! - [`proto`] — simulated CDN server prototypes (ATS-like / Caffeine-like)
//! - [`analysis`] — analytic models: Che approximation, miss-ratio curves, working sets
//! - [`obs`] — deterministic observability: windowed series, event bus, profiling spans

#![forbid(unsafe_code)]

pub use lhr as core;
pub use lhr_analysis as analysis;
pub use lhr_bounds as bounds;
pub use lhr_gbm as gbm;
pub use lhr_nn as nn;
pub use lhr_obs as obs;
pub use lhr_policies as policies;
pub use lhr_proto as proto;
pub use lhr_sim as sim;
pub use lhr_trace as trace;

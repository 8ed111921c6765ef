//! **LHR — Learning from optimal caching for content delivery** (CoNEXT '21).
//!
//! This crate implements the paper's two contributions:
//!
//! 1. [`hazard::Hro`] — a practical *online* upper bound on the optimal hit
//!    probability. Per non-overlapping sliding window, each content's
//!    request process is approximated as Poisson, giving a size-aware
//!    hazard rate `ζ̃_i = λ_i / s_i`; requests to the contents with the top
//!    hazard rates (filling the cache under the fractional-knapsack
//!    relaxation) are classified as hits (§3, Appendix A.1).
//! 2. [`cache::LhrCache`] — a learning-augmented cache that trains a
//!    gradient-boosted model to imitate HRO's decisions, producing a
//!    per-content *admission probability* `p_i` used for both admission
//!    (against an auto-tuned threshold δ, §5.2.3) and eviction (rule
//!    `q_i = p_i / (s_i · IRT₁)`, §5.2.5), with a least-squares Zipf-α
//!    *detection mechanism* gating retraining (§5.2.2).
//!
//! The ablations the paper evaluates in §7.4 are configuration presets:
//! [`cache::LhrConfig::d_lhr`] (fixed δ = 0.5) and
//! [`cache::LhrConfig::n_lhr`] (fixed δ and no detection — retrain every
//! window).
//!
//! # Quick start
//!
//! ```
//! use lhr::cache::{LhrCache, LhrConfig};
//! use lhr_sim::{SimConfig, Simulator};
//! use lhr_trace::synth::IrmConfig;
//!
//! let trace = IrmConfig::new(500, 20_000).zipf_alpha(1.0).seed(7).generate();
//! let mut cache = LhrCache::new(64 << 20, LhrConfig::default());
//! let result = Simulator::new(SimConfig::default()).run(&mut cache, &trace);
//! assert!(result.metrics.object_hit_ratio() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod detect;
pub mod features;
pub mod hazard;
pub mod threshold;
pub mod window;

pub use cache::{LhrCache, LhrConfig};
pub use hazard::Hro;

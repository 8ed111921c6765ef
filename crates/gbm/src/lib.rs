//! Gradient-boosted regression trees (XGBM-style), implemented from scratch.
//!
//! The LHR cache (paper §5.2.4) trains an "XGBoosting Machine" on HRO's
//! caching decisions with a squared-error loss. XGBoost itself is a large
//! C++ dependency unavailable offline, so this crate provides the same model
//! class natively:
//!
//! - histogram-based split finding (quantile bins, like
//!   LightGBM/XGBoost-hist) over a **feature-major** binned matrix, with
//!   per-node histogram caching and the LightGBM subtraction trick
//!   (sibling = parent − smaller child),
//! - trees grown one depth level at a time over feature-group shards,
//!   shared with helper threads ([`GbmParams::threads`]), whose ordered
//!   merge and depth-first layout keep the fitted model **byte-identical
//!   for every thread count**,
//! - second-order boosting specialized to squared error (hessian = 1, so
//!   gradients are plain residuals),
//! - L2 leaf regularization (`lambda`), depth / leaf-weight constraints,
//! - native *missing value* handling (`f32::NAN` routes to a learned
//!   default side per split, as CDN features like "20th inter-request time"
//!   are frequently absent),
//! - one scoring kernel — trees padded to complete level order, eight trees
//!   of a row walked in lockstep — behind [`Gbm::predict`] and its batch
//!   forms, for every model: fitting refuses trees deeper than
//!   6 and rows wider than [`MAX_FEATURES`], and loading
//!   refuses a forest the kernel cannot lay out; the per-tree walk
//!   ([`Tree::predict`], [`Gbm::predict_reference`]) is its test oracle,
//! - gain-based feature importance and byte-stable JSON model
//!   serialization.
//!
//! # Example
//!
//! ```
//! use lhr_gbm::{Dataset, GbmParams, Gbm};
//!
//! // y = 1 if x0 > 0.5 else 0 — learnable by a single stump.
//! let mut data = Dataset::new(1);
//! for i in 0..200 {
//!     let x = i as f32 / 200.0;
//!     data.push_row(&[x], if x > 0.5 { 1.0 } else { 0.0 });
//! }
//! let model = Gbm::fit(&data, &GbmParams::default());
//! assert!(model.predict(&[0.9]) > 0.8);
//! assert!(model.predict(&[0.1]) < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod booster;
mod dataset;
mod flat;
#[cfg(test)]
mod reference;
mod tree;

pub use booster::{Gbm, GbmParams, Loss};
pub use dataset::Dataset;
pub use flat::MAX_FEATURES;
pub use tree::Tree;

/// [`lhr_util::sync::workers`], the workers `work_ns` of work pays for —
/// which tests can make grant every thread allowed ([`ALWAYS_FAN_OUT`]).
fn workers(threads: usize, work_ns: f64) -> usize {
    #[cfg(test)]
    if ALWAYS_FAN_OUT.get() {
        return threads.max(1);
    }
    lhr_util::sync::workers(threads, work_ns)
}

#[cfg(test)]
thread_local! {
    /// Set by tests that must see every fan-out happen on small inputs.
    static ALWAYS_FAN_OUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

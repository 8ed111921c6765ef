//! Analytic cache modeling tools that complement the simulator:
//!
//! - [`che`] — the Che approximation: closed-form LRU (and LFU) hit-ratio
//!   estimates under the independent reference model, from per-object
//!   request rates. Lets operators predict hit ratios without replaying a
//!   trace, and gives the test suite an independent oracle for the
//!   simulator's LRU.
//! - [`mrc`] — miss-ratio curves for LRU with variable object sizes:
//!   exact, via byte-weighted reuse distances (a Mattson stack analysis
//!   with a Fenwick tree), and approximate via SHARDS-style spatial
//!   hash sampling for large traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod che;
pub mod mrc;

pub use che::CheModel;
pub use mrc::{MissRatioCurve, MrcConfig};

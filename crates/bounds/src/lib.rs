//! Offline upper bounds on optimal caching (§2, §7.5 of the paper):
//!
//! - [`Belady`] — Bélády's MIN, exact OPT for equal-size objects;
//! - [`BeladySize`] — the size-aware Bélády variant "widely used by the
//!   community" as an OPT stand-in for variable sizes;
//! - [`InfiniteCap`] — compulsory-miss-only bound (infinite cache);
//! - [`PfooUpper`] / [`PfooLower`] — Practical Flow-based Offline Optimal
//!   (Berger et al., SIGMETRICS '18) upper and lower bounds.
//!
//! All implement [`lhr_sim::OfflineBound`]. The HRO *online* bound — the
//! paper's contribution — lives in the `lhr` core crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod belady;
pub mod exact;
pub mod infinite;
pub mod pfoo;

pub use belady::{Belady, BeladySize};
pub use exact::ExactOpt;
pub use infinite::InfiniteCap;
pub use pfoo::{PfooLower, PfooUpper};

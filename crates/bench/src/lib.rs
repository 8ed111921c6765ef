//! Experiment harness for the LHR reproduction: one report per paper
//! table/figure (in [`experiments`]), shared infrastructure in
//! [`harness`], and the `repro` binary that prints them.
//!
//! Run everything, or the reports `--only` names, with:
//!
//! ```text
//! cargo run -p lhr-bench --release --bin repro -- --scale small
//! cargo run -p lhr-bench --release --bin repro -- --scale small --only fig8,table2
//! ```

#![forbid(unsafe_code)]

pub mod experiments;
pub mod harness;
pub mod lhr_shape;

//! Runs the table/figure reproductions — all of them, or the ones
//! `--only` names — in report order and prints the report (pipe to a file
//! to archive a run):
//!
//! ```text
//! cargo run -p lhr-bench --release --bin repro -- --scale small
//! cargo run -p lhr-bench --release --bin repro -- --scale small --only fig8,table2
//! ```
use lhr_bench::{experiments, harness};
use std::process::exit;

fn main() {
    let (options, only) = harness::Options::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{}", harness::USAGE);
        exit(2)
    });
    let start = std::time::Instant::now();
    let report = experiments::run(&options, only.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2)
    });
    println!("{report}");
    println!(
        "repro complete: scale {:?}, seed {}, {:.1}s wall",
        options.scale,
        options.seed,
        start.elapsed().as_secs_f64()
    );
    if let Some(Err(e)) = options.obs.as_ref().map(|obs| obs.close_stream()) {
        eprintln!("error: obs export failed: {e}");
        exit(1);
    }
}

//! Runs the table/figure reproductions — all of them, or the ones
//! `--only` names — in report order and prints the report (pipe to a file
//! to archive a run):
//!
//! ```text
//! cargo run -p lhr-bench --release --bin repro -- --scale small
//! cargo run -p lhr-bench --release --bin repro -- --scale small --only fig8,table2
//! ```
fn main() {
    let (options, only) = lhr_bench::harness::Options::from_args_with_only();
    let start = std::time::Instant::now();
    match lhr_bench::experiments::run(&options, only.as_deref()) {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    println!(
        "repro complete: scale {:?}, seed {}, {:.1}s wall",
        options.scale,
        options.seed,
        start.elapsed().as_secs_f64()
    );
    lhr_bench::harness::write_obs(&options);
}

//! GBM training/prediction microbenchmark binary — the perf-trajectory
//! companion to `benches/gbm.rs`, runnable via plain `cargo run` so
//! `scripts/verify.sh` (smoke) and `scripts/bench_gbm.sh` (baseline
//! recording) can drive it:
//!
//! ```text
//! cargo run --release -p lhr-bench --bin gbm -- --scale medium
//! ```
//!
//! Measures `Gbm::fit` with one thread and with `--threads` workers, the
//! quantized serving path (`predict_dataset`, the `gbm_predict_batch`
//! group the committed baseline tracks), and the remaining predict paths
//! (reference walk, branchless single-row, raw-f32 blocked batch) for
//! per-path attribution, at a per-scale row count. Set
//! `LHR_BENCH_JSON=<path>` to append machine-readable results plus a
//! `gbm_predict_summary` line recording `host_cpus` (the format committed
//! as `BENCH_gbm.json`).

use lhr_gbm::{Dataset, Gbm, GbmParams};
use lhr_trace::synth::ProductionScale;
use lhr_util::bench::{black_box, Bench};
use lhr_util::json::{Json, ToJson};
use lhr_util::rng::rngs::StdRng;
use lhr_util::rng::{Rng, SeedableRng};
use std::io::Write;

/// LHR-shaped synthetic training set: ~10% missing values, 23 features,
/// binary labels keyed on the first feature.
fn synthetic_dataset(rows: usize, features: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(features);
    for _ in 0..rows {
        let row: Vec<f32> = (0..features)
            .map(|_| {
                if rng.gen_bool(0.1) {
                    f32::NAN
                } else {
                    rng.gen::<f32>() * 10.0
                }
            })
            .collect();
        let label = if row[0].is_nan() || row[0] > 5.0 {
            1.0
        } else {
            0.0
        };
        data.push_row(&row, label);
    }
    data
}

fn main() {
    let options = lhr_bench::harness::Options::from_args();
    let rows = match options.scale {
        ProductionScale::Tiny => 2_048,
        ProductionScale::Small => 8_192,
        ProductionScale::Medium => 32_768,
        ProductionScale::Full => 131_072,
    };
    let data = synthetic_dataset(rows, 23, options.seed);
    let params = GbmParams {
        n_trees: 25,
        max_depth: 6,
        ..GbmParams::default()
    };

    let mut fit = Bench::new("gbm_fit");
    fit.throughput_elems(rows as u64);
    fit.bench(format!("{rows}_t1"), || {
        Gbm::fit(
            black_box(&data),
            &GbmParams {
                threads: 1,
                ..params.clone()
            },
        )
    });
    if options.threads > 1 {
        fit.bench(format!("{rows}_t{}", options.threads), || {
            Gbm::fit(
                black_box(&data),
                &GbmParams {
                    threads: options.threads,
                    ..params.clone()
                },
            )
        });
    }
    fit.finish();

    let model = Gbm::fit(&data, &params);

    // The serving path: predict_dataset rides the quantized-code tables
    // (u16 compares on pre-binned rows). Group name matches the committed
    // baseline so BENCH_gbm.json stays a like-for-like trajectory.
    let mut predict = Bench::new("gbm_predict_batch");
    predict.throughput_elems(rows as u64);
    predict.bench(format!("{rows}_t{}", options.threads), || {
        model.predict_dataset(black_box(&data), options.threads)
    });
    let quant_results = predict.finish();

    // The remaining predict paths, for per-path attribution: the original
    // per-tree reference walk (the pre-flattening serving path), the
    // padded single-row kernel, and the same kernel over a raw-f32 batch.
    let raw_rows: Vec<Vec<f32>> = (0..rows).map(|i| data.row(i).to_vec()).collect();
    let mut paths = Bench::new("gbm_predict_paths");
    paths.throughput_elems(rows as u64);
    paths.bench(format!("reference_{rows}"), || {
        let mut acc = 0f32;
        for row in black_box(&raw_rows) {
            acc += model.predict_reference(row);
        }
        acc
    });
    paths.bench(format!("row_{rows}"), || {
        let mut acc = 0f32;
        for row in black_box(&raw_rows) {
            acc += model.predict(row);
        }
        acc
    });
    paths.bench(format!("batch_raw_{rows}_t{}", options.threads), || {
        model.predict_batch(black_box(&raw_rows), options.threads)
    });
    let path_results = paths.finish();

    // Machine-readable summary: host_cpus pins the thread counts to what
    // the hardware can actually deliver, and the speedup column is the
    // serving path against the reference walk on this same host.
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reference_ns = path_results.first().map_or(0.0, |r| r.mean_ns);
    let quant_ns = quant_results.first().map_or(0.0, |r| r.mean_ns);
    let speedup = reference_ns / quant_ns.max(1e-9);
    println!(
        "gbm predict on {host_cpus} host cpu(s): reference {reference_ns:.0} ns, \
         quantized batch {quant_ns:.0} ns ({speedup:.2}x)"
    );
    if let Ok(path) = std::env::var("LHR_BENCH_JSON") {
        let mut fields = vec![
            ("group".to_string(), "gbm_predict_summary".to_json()),
            ("rows".to_string(), (rows as u64).to_json()),
            ("host_cpus".to_string(), (host_cpus as u64).to_json()),
            ("reference_mean_ns".to_string(), reference_ns.to_json()),
            ("batch_quant_mean_ns".to_string(), quant_ns.to_json()),
        ];
        for r in &path_results[1..] {
            fields.push((format!("{}_mean_ns", r.name), r.mean_ns.to_json()));
        }
        fields.push(("speedup_vs_reference".to_string(), speedup.to_json()));
        let record = Json::Object(fields);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    lhr_bench::harness::write_obs(&options);
}

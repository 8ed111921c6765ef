//! Training and prediction cost of the gradient-boosting model — the
//! dominant term in LHR's retraining time (§7.4).
//!
//! Run with `cargo bench -p lhr-bench --bench gbm`; see `lhr_util::bench`
//! for the harness knobs (`LHR_BENCH_WARMUP_MS`, `LHR_BENCH_MEASURE_MS`).

use lhr_bench::lhr_shape;
use lhr_gbm::{Dataset, Gbm, GbmParams};
use lhr_util::bench::{black_box, Bench};
use lhr_util::rng::rngs::StdRng;
use lhr_util::rng::{Rng, SeedableRng};

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

fn bench_fit() {
    for &rows in &[2_048usize, 8_192, 32_768] {
        let data = synthetic_dataset(rows, 23, 1);
        let mut group = Bench::new("gbm_fit");
        group.throughput_elems(rows as u64);
        group.bench(format!("{rows}"), || {
            let params = GbmParams {
                n_trees: 25,
                max_depth: 6,
                ..GbmParams::default()
            };
            Gbm::fit(black_box(&data), &params)
        });
        group.finish();
    }
}

/// Fits of LHR's bootstrap training set shape (`lhr_bench::lhr_shape`:
/// nested missingness, 89 % positive labels, every column saturating the
/// bins) with LHR's parameters, on one thread and on one per core. Each
/// fit starts from an unfitted copy, so it bins the data as a bootstrap
/// fit does (the groups above bin once and time the trees alone).
fn bench_fit_lhr_shape() {
    let data = lhr_shape::dataset(lhr_shape::BOOTSTRAP_ROWS, 16);
    let mut group = Bench::new("lhr_shape");
    group.throughput_elems(data.n_rows() as u64);
    for threads in [1, 0] {
        group.bench(format!("fit_threads_{threads}"), || {
            let params = GbmParams {
                n_trees: 25,
                max_depth: 6,
                threads,
                ..GbmParams::default()
            };
            Gbm::fit(&black_box(data.clone()), &params)
        });
    }
    group.finish();
}

/// Row-at-a-time `predict` over the training rows. `benchmark/` reports the
/// same kernel as `gbm.predict_row_ns` and `gbm.predict_batch_ns_per_row`.
fn bench_predict() {
    let data = synthetic_dataset(8_192, 23, 2);
    let params = GbmParams {
        n_trees: 25,
        max_depth: 6,
        ..GbmParams::default()
    };
    let model = Gbm::fit(&data, &params);
    let mut group = Bench::new("gbm_predict");
    group.throughput_elems(data.n_rows() as u64);
    group.bench("8192_rows", || {
        let mut acc = 0.0f32;
        for i in 0..data.n_rows() {
            acc += model.predict(data.row(i));
        }
        acc
    });
    group.finish();
}

fn main() {
    bench_fit();
    bench_fit_lhr_shape();
    bench_predict();
}

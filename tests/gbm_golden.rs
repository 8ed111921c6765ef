//! Golden fitted models: `Gbm::to_json_string()` and `Gbm::mse` on the
//! training set, recorded on commit `70c3bc4` — while `crates/gbm` still
//! carried the bitset dataset kernel, row/feature subsampling, the
//! validation split and early stopping — and held here so that "every
//! fitted model is unchanged" stays an executable claim for a crate whose
//! training loop was cut down to the options its callers set.
//!
//! The files under `tests/golden/gbm/` are the parent's bytes, unedited,
//! written by the ignored `record` test below run against the untouched
//! parent tree:
//!
//! ```sh
//! cargo test --release --test gbm_golden -- --ignored record
//! ```
//!
//! The cases cover both losses, the shapes the policies fit (LHR's and
//! LRB's 25 × depth-6 over 23 columns, LFO's 20 × depth-5 over 6), every
//! `GbmParams` field away from its default at least once, columns that are
//! constant, mostly NaN or partly ±inf, and the constant-label short
//! circuit. Each is asserted at `threads` 1, 2 and 8; the 23-column cases
//! have enough rows that the split search really fans out.
//!
//! `lhr-bootstrap` was added later, recorded the same way on commit
//! `d1b9c83`: the shape of LHR's bootstrap training sets
//! (`lhr_bench::lhr_shape` — 19 k rows, nested missingness from ≈ 24 % to
//! ≈ 59 %, ≈ 89 % positive labels, every column saturating the bins), where
//! the `messy` cases put only ≈ 10 % of values in the missing slot.

use lhr_bench::lhr_shape;
use lhr_repro::gbm::{Dataset, Gbm, GbmParams, Loss};
use std::path::PathBuf;

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// `rows` × `cols` of values in [-100, 100] with ~10 % NaN; column 1 is
/// constant, column 2 is NaN three times out of four, column 3 carries
/// ±inf. Labels are a noisy step of column 0 — binary like HRO's, or in
/// [0, 1] — so deep trees keep finding splits.
fn messy(cols: usize, rows: usize, seed: u64, binary: bool) -> Dataset {
    let mut next = xorshift(seed);
    let mut data = Dataset::new(cols);
    for _ in 0..rows {
        let row: Vec<f32> = (0..cols)
            .map(|f| {
                let v = next();
                let x = (v % 20_000) as f32 / 100.0 - 100.0;
                match f {
                    1 => 7.25,
                    2 if !v.is_multiple_of(4) => f32::NAN,
                    3 if v.is_multiple_of(16) => f32::INFINITY,
                    3 if v % 16 == 1 => f32::NEG_INFINITY,
                    _ if v.is_multiple_of(10) => f32::NAN,
                    _ => x,
                }
            })
            .collect();
        let noise = (next() % 1_000) as f32 / 1_000.0;
        let step = if row[0].is_nan() || row[0] > 10.0 {
            0.8
        } else {
            0.2
        };
        let soft = 0.5 * step + 0.5 * noise;
        data.push_row(
            &row,
            if binary {
                (soft > 0.5) as u8 as f32
            } else {
                soft
            },
        );
    }
    data
}

fn constant_labels() -> Dataset {
    let mut data = Dataset::new(2);
    for i in 0..200 {
        data.push_row(&[i as f32, f32::NAN], 0.25);
    }
    data
}

/// `(stem, training set, parameters)`; `threads` is set by the caller.
fn cases() -> Vec<(&'static str, Dataset, GbmParams)> {
    let shaped = |n_trees, max_depth, loss| GbmParams {
        n_trees,
        max_depth,
        loss,
        ..GbmParams::default()
    };
    vec![
        (
            "lhr-squared",
            messy(23, 12_000, 11, true),
            shaped(25, 6, Loss::SquaredError),
        ),
        (
            "lhr-logistic",
            messy(23, 12_000, 12, true),
            shaped(25, 6, Loss::Logistic),
        ),
        (
            "lfo-squared",
            messy(6, 4_000, 13, true),
            shaped(20, 5, Loss::SquaredError),
        ),
        (
            "default-squared",
            messy(5, 1_500, 14, false),
            GbmParams::default(),
        ),
        (
            "tuned-logistic",
            messy(4, 900, 15, false),
            GbmParams {
                n_trees: 12,
                max_depth: 3,
                learning_rate: 0.1,
                lambda: 0.25,
                min_child_count: 3,
                min_split_gain: 1e-3,
                base_score: Some(0.125),
                loss: Loss::Logistic,
                ..GbmParams::default()
            },
        ),
        ("constant-labels", constant_labels(), GbmParams::default()),
        (
            "lhr-bootstrap",
            lhr_shape::dataset(lhr_shape::BOOTSTRAP_ROWS, 16),
            shaped(25, 6, Loss::SquaredError),
        ),
    ]
}

/// The model's JSON, then the bits of its training-set MSE.
fn fitted(data: &Dataset, params: &GbmParams, threads: usize) -> String {
    let model = Gbm::fit(
        data,
        &GbmParams {
            threads,
            ..params.clone()
        },
    );
    format!(
        "{}\nmse {:016x}\n",
        model.to_json_string(),
        model.mse(data).to_bits()
    )
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/gbm")
}

/// Writes the golden files. Run against the parent tree only (see the
/// module docs); the committed bytes are never edited by hand.
#[test]
#[ignore = "records tests/golden/gbm/ — run against the parent commit"]
fn record() {
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir");
    for (stem, data, params) in cases() {
        std::fs::write(dir.join(format!("{stem}.txt")), fitted(&data, &params, 1)).expect("write");
    }
}

#[test]
fn fitted_models_match_the_parent_goldens_at_1_2_8_threads() {
    let dir = golden_dir();
    for (stem, data, params) in cases() {
        let path = dir.join(format!("{stem}.txt"));
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for threads in [1usize, 2, 8] {
            assert!(
                fitted(&data, &params, threads) == golden,
                "{stem}: fitted model or its mse diverged from the golden at {threads} threads"
            );
        }
    }
}

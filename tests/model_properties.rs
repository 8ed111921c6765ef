//! Property-based tests for the learning substrates (GBM and MLP): finite
//! outputs on arbitrary data, determinism, and basic learning-theory sanity
//! (training error does not increase with capacity).

use lhr_repro::gbm::{Dataset, Gbm, GbmParams, Loss};
use lhr_repro::nn::{Activation, Mlp, TrainConfig};
use lhr_util::prop::{any_u64, range, vec_exact};
use lhr_util::{prop_assert, prop_assert_eq, prop_check};

/// A dataset with `rows` rows of `cols` features in [-100, 100], ~10 % NaN,
/// labels in [0, 1], expanded deterministically from the scalars so the
/// shrinker works on `(cols, rows, seed)`.
fn build_dataset(cols: usize, rows: usize, seed: u64) -> Dataset {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut d = Dataset::new(cols);
    for _ in 0..rows {
        let row: Vec<f32> = (0..cols)
            .map(|_| {
                let v = next();
                if v % 10 == 0 {
                    f32::NAN
                } else {
                    (v % 20_000) as f32 / 100.0 - 100.0
                }
            })
            .collect();
        let label = (next() % 1_000) as f32 / 1_000.0;
        d.push_row(&row, label);
    }
    d
}

#[test]
fn gbm_predictions_are_finite_and_deterministic() {
    prop_check!(cases: 48, (cols in range(2usize..6), rows in range(20usize..200), seed in any_u64()) => {
        let data = build_dataset(cols, rows, seed);
        let params = GbmParams { n_trees: 10, ..GbmParams::default() };
        let a = Gbm::fit(&data, &params);
        let b = Gbm::fit(&data, &params);
        for i in 0..data.n_rows() {
            let pa = a.predict(data.row(i));
            prop_assert!(pa.is_finite(), "row {} produced {}", i, pa);
            prop_assert_eq!(pa, b.predict(data.row(i)), "nondeterministic fit");
            let p = a.predict_probability(data.row(i));
            prop_assert!((0.0..=1.0).contains(&p));
        }
    });
}

#[test]
fn gbm_logistic_outputs_probabilities() {
    prop_check!(cases: 48, (cols in range(2usize..6), rows in range(20usize..200), seed in any_u64()) => {
        let data = build_dataset(cols, rows, seed);
        let params =
            GbmParams { n_trees: 10, loss: Loss::Logistic, ..GbmParams::default() };
        let model = Gbm::fit(&data, &params);
        for i in 0..data.n_rows() {
            let p = model.predict(data.row(i));
            prop_assert!((0.0..=1.0).contains(&p), "logistic output {}", p);
        }
    });
}

#[test]
fn gbm_more_trees_never_hurt_training_mse() {
    prop_check!(cases: 48, (cols in range(2usize..6), rows in range(20usize..200), seed in any_u64()) => {
        let data = build_dataset(cols, rows, seed);
        let weak = Gbm::fit(&data, &GbmParams { n_trees: 2, ..GbmParams::default() });
        let strong = Gbm::fit(&data, &GbmParams { n_trees: 20, ..GbmParams::default() });
        // Squared-error boosting monotonically reduces *training* error.
        prop_assert!(
            strong.mse(&data) <= weak.mse(&data) + 1e-6,
            "training MSE rose: {} -> {}",
            weak.mse(&data),
            strong.mse(&data)
        );
    });
}

/// Messy inference rows of varying width: ~10 % NaN, ~10 % ±inf, negative
/// zero, huge magnitudes — everything an untrusted feature pipeline can
/// feed the scoring path. Widths range from empty to `cols + 2`.
fn messy_rows(cols: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let width = (next() % (cols as u64 + 3)) as usize;
            (0..width)
                .map(|_| match next() % 10 {
                    0 => f32::NAN,
                    1 => f32::INFINITY,
                    2 => f32::NEG_INFINITY,
                    3 => -0.0,
                    4 => f32::MAX,
                    _ => (next() % 20_000) as f32 / 100.0 - 100.0,
                })
                .collect()
        })
        .collect()
}

#[test]
fn gbm_flat_paths_match_the_reference_walk() {
    // The serving layout (padded single-row kernel, raw batches of it at
    // any thread count) must be bit-identical to the original per-tree
    // reference walk — on messy rows included.
    prop_check!(cases: 24, (cols in range(2usize..6), rows in range(30usize..120), seed in any_u64()) => {
        let mut data = build_dataset(cols, rows, seed);
        if seed % 2 == 0 {
            // A constant feature (no candidate splits) must not disturb
            // the flat layout.
            let constant = vec![7.25f32; cols];
            for _ in 0..8 {
                data.push_row(&constant, 0.5);
            }
        }
        for loss in [Loss::SquaredError, Loss::Logistic] {
            let params = GbmParams { n_trees: 8, loss, ..GbmParams::default() };
            let model = Gbm::fit(&data, &params);
            let queries = messy_rows(cols, 40, seed ^ 0xDEAD);
            let expected: Vec<f32> =
                queries.iter().map(|r| model.predict_reference(r)).collect();
            for (q, &e) in queries.iter().zip(&expected) {
                prop_assert_eq!(
                    model.predict(q).to_bits(),
                    e.to_bits(),
                    "flat single-row diverged from the reference walk"
                );
            }
            for threads in [1usize, 3, 0] {
                let batch = model.predict_batch(&queries, threads);
                for (b, &e) in batch.iter().zip(&expected) {
                    prop_assert_eq!(
                        b.to_bits(),
                        e.to_bits(),
                        "blocked batch diverged at {} threads",
                        threads
                    );
                }
            }
        }
    });
}

#[test]
fn mlp_forward_is_finite_on_bounded_inputs() {
    prop_check!(cases: 48, (seed in any_u64(), inputs in vec_exact(range(-5.0f32..5.0), 4)) => {
        let net = Mlp::new(&[4, 8, 2], Activation::Relu, Activation::Sigmoid, seed);
        let out = net.forward(&inputs);
        prop_assert_eq!(out.len(), 2);
        for &y in &out {
            prop_assert!(y.is_finite());
            prop_assert!((0.0..=1.0).contains(&y), "sigmoid output {}", y);
        }
    });
}

#[test]
fn mlp_training_reduces_loss_on_a_constant_target() {
    prop_check!(cases: 48, (seed in any_u64(), target in range(0.1f32..0.9)) => {
        let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Sigmoid, seed);
        let config = TrainConfig::default();
        let x = [0.5f32, -0.5];
        let first = net.train_step(&x, &[target], &config);
        let mut last = first;
        for _ in 0..200 {
            last = net.train_step(&x, &[target], &config);
        }
        prop_assert!(last <= first + 1e-6, "loss rose: {} -> {}", first, last);
    });
}

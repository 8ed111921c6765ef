//! The gradient-boosting ensemble.

use crate::dataset::Dataset;
use crate::flat::{FlatForest, MAX_DEPTH, MAX_FEATURES};
use crate::tree::{Grower, Tree};
use lhr_util::sync::{claim_each, crew, resolve_threads};

/// Measured cost of one row through one tree of the padded single-row
/// kernel, on LHR-shaped data (23 features, 25 depth-6 trees); it sizes
/// the fan-out of batched scoring.
const KERNEL_ROW_TREE_NS: f64 = 5.0;

/// Training loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loss {
    /// Mean squared error — the paper's choice for LHR (§5.2.4: "the mean
    /// squared error … achieves the best performance … compared to other
    /// loss functions that we explored").
    SquaredError,
    /// Logistic (binary cross-entropy) on raw scores — the natural
    /// alternative for 0/1 HRO labels; kept so the paper's loss-function
    /// comparison is reproducible.
    Logistic,
}

lhr_util::impl_json!(
    enum Loss {
        SquaredError,
        Logistic,
    }
);

/// Hyperparameters for [`Gbm::fit`].
///
/// The defaults are tuned for LHR's setting — a few thousand rows per
/// sliding window, ~25 features, binary HRO labels regressed with squared
/// error — and favour fast training over the last fraction of a percent of
/// accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct GbmParams {
    /// Number of boosting rounds (trees).
    pub n_trees: usize,
    /// Maximum tree depth, `1..=6`: 6 is the deepest tree the scoring
    /// kernel lays out, and [`Gbm::fit`] refuses a deeper one.
    pub max_depth: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f32,
    /// L2 regularization on leaf weights (XGBoost's `lambda`).
    pub lambda: f64,
    /// Minimum number of samples in each child of a split.
    pub min_child_count: usize,
    /// Minimum gain for a split to be accepted.
    pub min_split_gain: f64,
    /// Initial prediction before any tree (squared error ⇒ usually the
    /// label mean; `None` computes the mean from the training labels).
    pub base_score: Option<f32>,
    /// Training loss.
    pub loss: Loss,
    /// Worker threads for tree growth inside [`Gbm::fit`]; `0` means one
    /// per core (`lhr_util::sync::cores`). A fit uses as many of them as
    /// its data pays for, and the fitted model is byte-identical for every
    /// thread count — see `tree::Grower`.
    pub threads: usize,
}

impl Default for GbmParams {
    fn default() -> Self {
        GbmParams {
            n_trees: 30,
            max_depth: 6,
            learning_rate: 0.3,
            lambda: 1.0,
            min_child_count: 8,
            min_split_gain: 1e-6,
            base_score: None,
            loss: Loss::SquaredError,
            threads: 0,
        }
    }
}

/// A trained gradient-boosted regression ensemble.
#[derive(Debug, Clone)]
pub struct Gbm {
    base_score: f32,
    trees: Vec<Tree>,
    /// Total split gain credited to each feature during training.
    feature_gain: Vec<f64>,
    n_features: usize,
    loss: Loss,
    /// The padded serving layout, derived from `trees` at construction and
    /// on deserialization — never serialized (see the hand-written
    /// `ToJson`/`FromJson` below, which keep the JSON identical to the
    /// pre-flattening `impl_json!` output). Every forest fits it: fit and
    /// load refuse one that would not (see [`crate::flat`]).
    flat: FlatForest,
}

impl lhr_util::json::ToJson for Gbm {
    fn to_json(&self) -> lhr_util::json::Json {
        lhr_util::json::Json::Object(vec![
            ("base_score".to_string(), self.base_score.to_json()),
            ("trees".to_string(), self.trees.to_json()),
            ("feature_gain".to_string(), self.feature_gain.to_json()),
            ("n_features".to_string(), self.n_features.to_json()),
            ("loss".to_string(), self.loss.to_json()),
        ])
    }
}

impl lhr_util::json::FromJson for Gbm {
    /// Refuses, naming the tree and node, a forest the scoring kernel
    /// cannot lay out (`FlatForest::check`).
    fn from_json(v: &lhr_util::json::Json) -> Result<Self, lhr_util::json::JsonError> {
        use lhr_util::json::{field, JsonError};
        let trees: Vec<Tree> = field(v, "trees")?;
        let n_features = field(v, "n_features")?;
        FlatForest::check(&trees, n_features).map_err(JsonError::new)?;
        Ok(Gbm::assemble(
            field(v, "base_score")?,
            trees,
            field(v, "feature_gain")?,
            n_features,
            field(v, "loss")?,
        ))
    }
}

#[inline]
fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + (-z).exp())
}

impl Gbm {
    /// Fits an ensemble to `data` under `params.loss`.
    ///
    /// # Panics
    /// Panics if `data` is empty, has more than [`crate::MAX_FEATURES`]
    /// columns, or `params.max_depth` is over 6.
    pub fn fit(data: &Dataset, params: &GbmParams) -> Gbm {
        Gbm::fit_traced(data, params, None)
    }

    /// Like [`Gbm::fit`], recording profiling spans into `obs`: `gbm.fit`
    /// around the whole call, `gbm.bin` around feature binning, and one
    /// aggregated `gbm.tree` per boosting round.
    ///
    /// # Panics
    /// As [`Gbm::fit`].
    pub fn fit_traced(data: &Dataset, params: &GbmParams, obs: Option<&lhr_obs::Obs>) -> Gbm {
        let _fit_span = obs.map(|o| o.span("gbm.fit"));

        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        assert!(
            params.max_depth <= MAX_DEPTH,
            "max_depth {} is over the scoring kernel's {MAX_DEPTH}",
            params.max_depth
        );
        assert!(
            data.n_features() <= MAX_FEATURES,
            "{} features are more than the scoring kernel's {MAX_FEATURES}",
            data.n_features()
        );
        let binned = {
            let _bin_span = obs.map(|o| o.span("gbm.bin"));
            data.binned()
        };
        debug_assert_eq!(binned.n_rows, data.n_rows());
        let labels = data.labels();
        let mean = (labels.iter().map(|&y| y as f64).sum::<f64>() / labels.len() as f64) as f32;
        let base_score = params.base_score.unwrap_or(match params.loss {
            Loss::SquaredError => mean,
            // Raw-score space: logit of the mean, clamped away from ±∞.
            Loss::Logistic => {
                let p = mean.clamp(1e-4, 1.0 - 1e-4);
                (p / (1.0 - p)).ln()
            }
        });

        // Running raw scores; each tree adds its leaf values as it grows
        // (leaf propagation), so no finished tree is ever walked here.
        let mut preds = vec![base_score; data.n_rows()];
        let mut gradients = vec![0f32; data.n_rows()];
        let mut hessians = match params.loss {
            Loss::SquaredError => None,
            Loss::Logistic => Some(vec![0f32; data.n_rows()]),
        };
        let mut trees: Vec<Tree> = Vec::with_capacity(params.n_trees);
        let mut feature_gain = vec![0f64; data.n_features()];

        let mut grower = Grower::new(
            binned,
            params,
            hessians.is_some(),
            resolve_threads(params.threads),
        );
        // The grower's helpers live for this call and end with it.
        crew(grower.helpers, grower.shard_work(), |crew| {
            for _round in 0..params.n_trees {
                let _round_span = obs.map(|o| o.span("gbm.tree"));
                match &mut hessians {
                    None => {
                        for ((g, &y), &p) in gradients.iter_mut().zip(labels).zip(&preds) {
                            *g = y - p;
                        }
                    }
                    Some(hessians) => {
                        for (((g, h), &y), &p) in
                            gradients.iter_mut().zip(hessians).zip(labels).zip(&preds)
                        {
                            let p = sigmoid(p);
                            *g = y - p;
                            *h = (p * (1.0 - p)).max(1e-6);
                        }
                    }
                }
                let tree = grower.grow(
                    crew,
                    &gradients,
                    hessians.as_deref(),
                    &mut feature_gain,
                    &mut preds,
                );
                let bare_leaf = tree.n_nodes() == 1;
                trees.push(tree);
                if bare_leaf && trees.len() == 1 {
                    // Even the first tree is a bare leaf: labels are
                    // (nearly) constant, further rounds cannot change
                    // anything material.
                    break;
                }
            }
        });
        if let Some(o) = obs {
            o.counter_add("gbm.fits", 1);
            o.counter_add("gbm.trees", trees.len() as u64);
        }

        Gbm::assemble(
            base_score,
            trees,
            feature_gain,
            data.n_features(),
            params.loss,
        )
    }

    /// Builds the ensemble and derives its padded serving layout — the
    /// one construction path shared by `fit` and deserialization.
    pub(crate) fn assemble(
        base_score: f32,
        trees: Vec<Tree>,
        feature_gain: Vec<f64>,
        n_features: usize,
        loss: Loss,
    ) -> Gbm {
        let flat = FlatForest::build(&trees, n_features);
        Gbm {
            base_score,
            trees,
            feature_gain,
            n_features,
            loss,
            flat,
        }
    }

    /// The padded serving layout (crate-internal, for tests).
    #[cfg(test)]
    pub(crate) fn flat_layout(&self) -> &FlatForest {
        &self.flat
    }

    #[inline]
    fn transform(&self, score: f32) -> f32 {
        match self.loss {
            Loss::SquaredError => score,
            Loss::Logistic => sigmoid(score),
        }
    }

    /// Raw (pre-loss-transform) score of one row, tolerating any width:
    /// short rows are padded with NaN (missing), extra columns are ignored.
    /// Runs the padded single-row kernel (see [`crate::flat`]).
    #[inline]
    fn raw_score(&self, row: &[f32]) -> f32 {
        self.flat.score(row, self.base_score)
    }

    /// Predicts the output value for one raw feature row (NaN = missing):
    /// the regression value for squared error, the probability (post-
    /// sigmoid) for logistic loss.
    ///
    /// Row width need not match the training data: columns beyond
    /// [`Gbm::n_features`] are ignored, and a *short* row is treated as if
    /// the absent trailing features were missing (NaN) — a deterministic,
    /// documented behavior rather than the release-mode index panic the
    /// unchecked path used to hit.
    pub fn predict(&self, row: &[f32]) -> f32 {
        self.transform(self.raw_score(row))
    }

    /// Reference prediction walking the original per-tree node arenas —
    /// the oracle the padded serving path is property-tested against.
    /// Handles row widths exactly like [`Gbm::predict`].
    pub fn predict_reference(&self, row: &[f32]) -> f32 {
        let padded: Vec<f32>;
        let row = if row.len() >= self.n_features {
            row
        } else {
            let mut p = vec![f32::NAN; self.n_features.max(1)];
            p[..row.len()].copy_from_slice(row);
            padded = p;
            &padded
        };
        let mut score = self.base_score;
        for tree in &self.trees {
            score += tree.predict(row);
        }
        self.transform(score)
    }

    /// [`Gbm::predict`] clamped to `[0, 1]` — the admission-probability
    /// convention used by LHR (a no-op clamp under logistic loss).
    pub fn predict_probability(&self, row: &[f32]) -> f64 {
        self.predict(row).clamp(0.0, 1.0) as f64
    }

    /// [`Gbm::predict`] of `n` rows, `row(i)` giving the `i`-th, fanned out
    /// over `threads` workers (`0` = one per available core).
    fn predict_rows<'a>(
        &self,
        n: usize,
        threads: usize,
        row: impl Fn(usize) -> &'a [f32] + Sync,
    ) -> Vec<f32> {
        let mut out = vec![0f32; n];
        let row_ns = self.trees.len() as f64 * KERNEL_ROW_TREE_NS;
        let workers = crate::workers(resolve_threads(threads).min(n), n as f64 * row_ns);
        // One contiguous chunk a worker; every row is scored on its own, so
        // the chunking never shows in the output.
        let rows_each = n.div_ceil(workers).max(1);
        let mut chunks: Vec<&mut [f32]> = out.chunks_mut(rows_each).collect();
        claim_each(&mut chunks, workers, |_, k, chunk| {
            for (o, i) in chunk.iter_mut().zip(k * rows_each..) {
                *o = self.transform(self.raw_score(row(i)));
            }
        });
        out
    }

    /// Batched [`Gbm::predict`] over many raw rows, fanned out over
    /// `threads` workers (`0` = one per available core). Each output equals
    /// the per-row [`Gbm::predict`] bit-for-bit for every thread count.
    pub fn predict_batch<R: AsRef<[f32]> + Sync>(&self, rows: &[R], threads: usize) -> Vec<f32> {
        self.predict_rows(rows.len(), threads, |i| rows[i].as_ref())
    }

    /// Batched admission scoring for the LHR cache, read straight off a
    /// flat row-major matrix of `width`-float rows (a trailing partial row
    /// is ignored): [`Gbm::predict_batch`] with every output clamped to
    /// `[0, 1]`, matching [`Gbm::predict_probability`] bit-for-bit per row.
    pub fn score_admissions(&self, rows: &[f32], width: usize, threads: usize) -> Vec<f64> {
        assert!(width > 0, "a row has at least one column");
        self.predict_rows(rows.len() / width, threads, |i| {
            &rows[i * width..(i + 1) * width]
        })
        .into_iter()
        .map(|p| p.clamp(0.0, 1.0) as f64)
        .collect()
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Width of feature rows this model expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Mean squared error of the model on a dataset (batched prediction).
    pub fn mse(&self, data: &Dataset) -> f64 {
        assert!(!data.is_empty());
        let preds = self.predict_rows(data.n_rows(), 0, |i| data.row(i));
        let sum: f64 = preds
            .iter()
            .zip(data.labels())
            .map(|(&p, &y)| {
                let err = (p - y) as f64;
                err * err
            })
            .sum();
        sum / data.n_rows() as f64
    }

    /// Rough in-memory footprint in bytes (for the Figure 9 memory
    /// accounting): nodes are 24 bytes each in the arena.
    pub fn approx_size_bytes(&self) -> usize {
        self.trees.iter().map(|t| t.n_nodes() * 24).sum::<usize>() + self.feature_gain.len() * 8
    }

    /// Serializes the model as one compact JSON document.
    ///
    /// The output is byte-deterministic: the same model always produces the
    /// same text, and [`Gbm::from_json_string`] → `to_json_string`
    /// round-trips byte-identically (the in-tree writer preserves field
    /// order and float bits — see `lhr_util::json`).
    pub fn to_json_string(&self) -> String {
        use lhr_util::json::ToJson;
        self.to_json().to_string()
    }

    /// Loads a model previously produced by [`Gbm::to_json_string`]. A
    /// document that is not one — malformed JSON, a missing field, or a
    /// forest the scoring kernel cannot lay out (a split on a column at or past
    /// `n_features` or [`crate::MAX_FEATURES`], a non-finite threshold, a
    /// child that is not a later node of its tree, a tree deeper than
    /// 6) — is an error naming what is wrong.
    pub fn from_json_string(text: &str) -> Result<Gbm, lhr_util::json::JsonError> {
        use lhr_util::json::{FromJson, Json};
        Gbm::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_linear(n: usize) -> Dataset {
        // y = 0.7·x0 − 0.2·x1 + 0.1, x ∈ [0,1]².
        let mut d = Dataset::new(2);
        for i in 0..n {
            let x0 = (i % 97) as f32 / 97.0;
            let x1 = (i % 89) as f32 / 89.0;
            d.push_row(&[x0, x1], 0.7 * x0 - 0.2 * x1 + 0.1);
        }
        d
    }

    #[test]
    fn fits_linear_function_well() {
        let d = make_linear(2_000);
        let model = Gbm::fit(&d, &GbmParams::default());
        assert!(model.mse(&d) < 1e-3, "mse {}", model.mse(&d));
    }

    #[test]
    fn boosting_reduces_training_error() {
        let d = make_linear(1_000);
        let weak = Gbm::fit(
            &d,
            &GbmParams {
                n_trees: 1,
                ..GbmParams::default()
            },
        );
        let strong = Gbm::fit(
            &d,
            &GbmParams {
                n_trees: 40,
                ..GbmParams::default()
            },
        );
        assert!(strong.mse(&d) < weak.mse(&d) / 2.0);
    }

    #[test]
    fn constant_labels_short_circuit() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            d.push_row(&[i as f32], 0.5);
        }
        let model = Gbm::fit(&d, &GbmParams::default());
        assert_eq!(model.n_trees(), 1);
        assert!((model.predict(&[3.0]) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn probability_is_clamped() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            d.push_row(&[i as f32], if i < 50 { -3.0 } else { 4.0 });
        }
        let model = Gbm::fit(&d, &GbmParams::default());
        for x in [0.0f32, 25.0, 75.0, 99.0] {
            let p = model.predict_probability(&[x]);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn importance_identifies_informative_feature() {
        // Only x1 matters.
        let mut d = Dataset::new(3);
        for i in 0..1_000 {
            let x0 = (i % 11) as f32;
            let x1 = (i % 13) as f32;
            let x2 = (i % 7) as f32;
            d.push_row(&[x0, x1, x2], if x1 > 6.0 { 1.0 } else { 0.0 });
        }
        let model = Gbm::fit(&d, &GbmParams::default());
        let imp = &model.feature_gain;
        assert!(imp[1] > 10.0 * imp[0].max(imp[2]), "{imp:?}");
    }

    #[test]
    fn predictions_are_finite_with_missing_features() {
        let mut d = Dataset::new(2);
        for i in 0..500 {
            let x0 = if i % 3 == 0 { f32::NAN } else { i as f32 };
            d.push_row(&[x0, (i % 5) as f32], (i % 2) as f32);
        }
        let model = Gbm::fit(&d, &GbmParams::default());
        assert!(model.predict(&[f32::NAN, f32::NAN]).is_finite());
        assert!(model.predict(&[1.0, 2.0]).is_finite());
    }

    #[test]
    fn model_is_serializable() {
        use lhr_util::json::{FromJson, ToJson};
        fn assert_json<T: ToJson + FromJson>() {}
        assert_json::<Gbm>();
    }

    #[test]
    fn json_roundtrip_is_byte_identical() {
        let d = make_linear(500);
        let model = Gbm::fit(
            &d,
            &GbmParams {
                n_trees: 8,
                ..GbmParams::default()
            },
        );
        let text = model.to_json_string();
        let back = Gbm::from_json_string(&text).expect("reload");
        // save → load → save is byte-identical …
        assert_eq!(back.to_json_string(), text);
        // … and the reloaded model predicts bit-identically.
        for i in 0..d.n_rows() {
            assert_eq!(
                model.predict(d.row(i)).to_bits(),
                back.predict(d.row(i)).to_bits(),
                "prediction diverged on row {i}"
            );
        }
    }

    fn make_messy(n: usize) -> Dataset {
        // Missing values, repeated values, and a nonlinear label — the
        // shape LHR's feature rows actually have.
        let mut d = Dataset::new(3);
        for i in 0..n {
            let x0 = if i % 7 == 0 {
                f32::NAN
            } else {
                (i % 31) as f32
            };
            let x1 = (i % 13) as f32 / 13.0;
            let x2 = (i % 5) as f32;
            let y = if x0.is_nan() || x0 > 15.0 { 1.0 } else { x1 };
            d.push_row(&[x0, x1, x2], y);
        }
        d
    }

    #[test]
    fn fit_is_byte_identical_across_thread_counts() {
        let d = make_messy(3_000);
        let fit = |threads: usize, loss: Loss| {
            let params = GbmParams {
                n_trees: 12,
                loss,
                threads,
                ..GbmParams::default()
            };
            Gbm::fit(&d, &params).to_json_string()
        };
        for loss in [Loss::SquaredError, Loss::Logistic] {
            let one = fit(1, loss);
            assert_eq!(one, fit(2, loss), "{loss:?}: threads=2 diverged");
            assert_eq!(one, fit(8, loss), "{loss:?}: threads=8 diverged");
        }
    }

    #[test]
    fn predict_batch_matches_per_row_predict() {
        let d = make_messy(1_000);
        let model = Gbm::fit(
            &d,
            &GbmParams {
                n_trees: 10,
                ..GbmParams::default()
            },
        );
        let rows: Vec<Vec<f32>> = (0..d.n_rows()).map(|i| d.row(i).to_vec()).collect();
        // Every thread allowed really scores a chunk, down to one row each.
        crate::ALWAYS_FAN_OUT.set(true);
        for n in [0, 1, 5, rows.len()] {
            for threads in [1, 2, 3, 7, 0] {
                let batch = model.predict_batch(&rows[..n], threads);
                assert_eq!(batch.len(), n);
                for (i, got) in batch.iter().enumerate() {
                    let want = model.predict(d.row(i)).to_bits();
                    assert_eq!(
                        got.to_bits(),
                        want,
                        "batch row {i} of {n}, threads {threads}"
                    );
                }
            }
        }
        crate::ALWAYS_FAN_OUT.set(false);
    }

    #[test]
    fn logistic_loss_separates_classes() {
        // y = 1 iff x0 > 0.5.
        let mut d = Dataset::new(2);
        for i in 0..2_000 {
            let x0 = (i % 101) as f32 / 101.0;
            let x1 = (i % 89) as f32 / 89.0;
            d.push_row(&[x0, x1], if x0 > 0.5 { 1.0 } else { 0.0 });
        }
        let params = GbmParams {
            loss: Loss::Logistic,
            ..GbmParams::default()
        };
        let model = Gbm::fit(&d, &params);
        assert!(
            model.predict(&[0.9, 0.5]) > 0.85,
            "{}",
            model.predict(&[0.9, 0.5])
        );
        assert!(
            model.predict(&[0.1, 0.5]) < 0.15,
            "{}",
            model.predict(&[0.1, 0.5])
        );
        // Probabilities by construction.
        for x in [0.0f32, 0.3, 0.6, 1.0] {
            let p = model.predict(&[x, 0.0]);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn logistic_and_squared_agree_on_easy_classification() {
        let mut d = Dataset::new(1);
        for i in 0..1_000 {
            let x = (i % 50) as f32;
            d.push_row(&[x], if x >= 25.0 { 1.0 } else { 0.0 });
        }
        let sq = Gbm::fit(&d, &GbmParams::default());
        let lg = Gbm::fit(
            &d,
            &GbmParams {
                loss: Loss::Logistic,
                ..GbmParams::default()
            },
        );
        for x in [5.0f32, 20.0, 30.0, 45.0] {
            let a = sq.predict_probability(&[x]);
            let b = lg.predict_probability(&[x]);
            assert!((a - b).abs() < 0.2, "x {x}: squared {a} vs logistic {b}");
        }
    }

    #[test]
    fn mse_of_perfect_model_is_zero_like() {
        let mut d = Dataset::new(1);
        for _ in 0..10 {
            d.push_row(&[1.0], 2.0);
        }
        let model = Gbm::fit(
            &d,
            &GbmParams {
                base_score: Some(2.0),
                ..GbmParams::default()
            },
        );
        assert!(model.mse(&d) < 1e-12);
    }

    #[test]
    #[should_panic]
    fn empty_dataset_panics() {
        Gbm::fit(&Dataset::new(1), &GbmParams::default());
    }

    #[test]
    #[should_panic(expected = "max_depth 7 is over the scoring kernel's 6")]
    fn fit_refuses_trees_deeper_than_the_kernel_lays_out() {
        let params = GbmParams {
            max_depth: 7,
            ..GbmParams::default()
        };
        Gbm::fit(&make_linear(100), &params);
    }

    #[test]
    #[should_panic(expected = "65 features are more than the scoring kernel's 64")]
    fn fit_refuses_rows_wider_than_the_kernel_reads() {
        let mut d = Dataset::new(65);
        d.push_row(&[1.0; 65], 0.5);
        Gbm::fit(&d, &GbmParams::default());
    }

    #[test]
    fn approx_size_is_positive() {
        let d = make_linear(200);
        let model = Gbm::fit(&d, &GbmParams::default());
        assert!(model.approx_size_bytes() > 0);
    }

    #[test]
    fn short_rows_are_treated_as_missing_features() {
        // Regression for the unguarded row-width mismatch: a short row used
        // to index out of bounds in release builds. It must now behave as
        // if the absent trailing features were NaN, in every predict path.
        let d = make_messy(1_000);
        let model = Gbm::fit(
            &d,
            &GbmParams {
                n_trees: 10,
                ..GbmParams::default()
            },
        );
        let short: Vec<Vec<f32>> = vec![vec![], vec![3.0], vec![3.0, 0.5], vec![f32::NAN]];
        for row in &short {
            let mut full = vec![f32::NAN; model.n_features()];
            full[..row.len()].copy_from_slice(row);
            let want = model.predict(&full).to_bits();
            assert_eq!(model.predict(row).to_bits(), want, "{row:?}");
            assert_eq!(model.predict_reference(row).to_bits(), want, "{row:?}");
            assert!(model.predict(row).is_finite());
        }
        // Batched scoring with mixed widths (some blocks all-full, some
        // containing short rows) matches per-row predict bit-for-bit.
        let mut rows: Vec<Vec<f32>> = (0..100).map(|i| d.row(i).to_vec()).collect();
        rows[3] = vec![1.0];
        rows[50] = vec![];
        rows[97] = vec![2.0, f32::NAN];
        let batch = model.predict_batch(&rows, 1);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(batch[i].to_bits(), model.predict(row).to_bits(), "row {i}");
        }
        // Extra trailing columns are ignored.
        let mut wide = d.row(0).to_vec();
        wide.push(123.0);
        assert_eq!(
            model.predict(&wide).to_bits(),
            model.predict(d.row(0)).to_bits()
        );
    }

    #[test]
    fn flat_paths_match_the_reference_walk_on_extreme_rows() {
        for loss in [Loss::SquaredError, Loss::Logistic] {
            let d = make_messy(2_000);
            let model = Gbm::fit(
                &d,
                &GbmParams {
                    n_trees: 15,
                    loss,
                    ..GbmParams::default()
                },
            );
            let mut rows: Vec<Vec<f32>> = (0..64).map(|i| d.row(i).to_vec()).collect();
            rows.push(vec![f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
            rows.push(vec![f32::NEG_INFINITY, f32::INFINITY, 0.0]);
            rows.push(vec![f32::NAN, f32::NAN, f32::NAN]);
            rows.push(vec![0.0, -0.0, f32::MAX]);
            let batch = model.predict_batch(&rows, 1);
            for (i, row) in rows.iter().enumerate() {
                let want = model.predict_reference(row).to_bits();
                assert_eq!(model.predict(row).to_bits(), want, "{loss:?} row {i}");
                assert_eq!(batch[i].to_bits(), want, "{loss:?} batch row {i}");
            }
        }
    }

    #[test]
    fn score_admissions_matches_predict_probability() {
        let d = make_messy(1_000);
        let model = Gbm::fit(
            &d,
            &GbmParams {
                n_trees: 10,
                ..GbmParams::default()
            },
        );
        let rows: Vec<Vec<f32>> = (0..200).map(|i| d.row(i).to_vec()).collect();
        let flat = rows.concat();
        for threads in [1, 3, 0] {
            let scores = model.score_admissions(&flat, d.n_features(), threads);
            assert_eq!(scores.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                assert!((0.0..=1.0).contains(&scores[i]));
                assert_eq!(
                    scores[i].to_bits(),
                    model.predict_probability(row).to_bits(),
                    "row {i} threads {threads}"
                );
            }
        }
    }
}

//! The single-row scoring kernel: depth-≤6 trees padded to complete level
//! order, eight trees of one row walked in lockstep.
//!
//! [`Tree::predict`] walks 24-byte arena nodes behind an unpredictable
//! `if leaf / if left` pair per step: on LHR's 25 × depth-6 forests that is
//! ~150 mispredicted steps per row, and each step's load waits for the one
//! before it. This module keeps the arithmetic and removes the waiting:
//!
//! - **Padded complete trees.** Every tree becomes a 1-based heap of
//!   [`SLOTS`] 8-byte nodes: node `i` has children `2i` (left) and `2i + 1`
//!   (right), so there are no child pointers to load. A leaf above the
//!   forest's depth is padded downwards with *always-left* nodes
//!   (`v ≤ +inf`), which parks its value at the all-left descendant on the
//!   last level. Every tree therefore takes exactly `depth` steps and no
//!   step tests for a leaf.
//! - **One compare per step.** The row is copied twice into a stack
//!   buffer, missing values (NaN, and the absent tail of a short row)
//!   reading +inf in one copy and −inf in the other. Thresholds are finite,
//!   so `+inf ≤ thr` is false and `−inf ≤ thr` true: a split whose NaNs
//!   default left reads the second copy, one whose NaNs go right the
//!   first, and `go_left` is the single compare `x[col] ≤ thr` — the same
//!   outcome as the reference's `if v.is_nan() { default_left } else
//!   { v ≤ thr }` for every `f32`. The bool is added to the doubled index,
//!   so a step is pure data flow.
//! - **Overlap across trees, not rows.** A single row's walk down *one*
//!   tree is a serial chain of loads, which is why a branchless single-row
//!   kernel loses to the speculating branchy walk — and why the
//!   lane-blocked kernel this one replaces needed eight *rows* to win. But
//!   the trees of a forest are independent of each other:
//!   [`FlatForest::score`] advances [`LANES`] trees of the *same* row level
//!   by level, so eight load chains are in flight at once and the serving
//!   path gets the overlap one request at a time. Leaf values are still
//!   added in tree order.
//! - **No bounds checks, no allocation.** Column and node indices are
//!   reduced modulo the fixed array sizes, which the layout never exceeds.
//!
//! Forests deeper than [`MAX_DEPTH`], wider than [`MAX_FEATURES`], or —
//! possible only in hand-written model JSON, bin edges being finite values
//! of the training data — with an out-of-range feature index or a
//! non-finite threshold do not fit; [`FlatForest::build`] returns `None`
//! and the caller serves from the reference walk.
//!
//! Sums start from the base score and add leaf values in tree order with
//! `f32` adds — bit-identical to the reference per-row walk.

use crate::tree::Tree;

/// Deepest tree the padded layout holds (64 leaves). Matches the default
/// `GbmParams::max_depth`; deeper hand-tuned forests are scored by the
/// reference walk instead.
const MAX_DEPTH: u32 = 6;

/// Widest row the kernel's stack buffer holds: LRB's 44 columns fit. A
/// power of two, so a column index reduces with a mask.
pub(crate) const MAX_FEATURES: usize = 64;

/// Trees of one row advanced together.
const LANES: usize = 8;

/// Heap slots per padded tree: index 0 unused, `1..2^6` internal levels,
/// `2^6..2^7` the leaf level of a depth-6 tree.
const SLOTS: usize = 2 << MAX_DEPTH;

/// Added to a split's feature index when NaN goes left: it selects the copy
/// of the row whose missing values read −inf (see [`FlatForest::score`]).
const DEFAULT_LEFT: u32 = MAX_FEATURES as u32;

/// One padded-tree slot: a split, or — on the forest's last level — a leaf
/// whose value sits in `thr`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    thr: f32,
    /// Feature index, plus [`DEFAULT_LEFT`] when NaN goes left.
    col: u32,
}

/// Goes left for every value: pads the levels below a shallow leaf.
const ALWAYS_LEFT: Slot = Slot {
    thr: f32::INFINITY,
    col: DEFAULT_LEFT,
};

type PaddedTree = [Slot; SLOTS];

/// A fitted forest in padded level order, ready for single-row scoring.
#[derive(Debug, Clone)]
pub(crate) struct FlatForest {
    n_features: usize,
    /// Steps per tree: the forest's maximum leaf depth, `0..=MAX_DEPTH`.
    depth: u32,
    trees: Vec<PaddedTree>,
}

impl FlatForest {
    /// Lays out `trees` (arena layout, root at local index 0), or `None`
    /// when the forest does not fit the kernel (see the module docs).
    pub(crate) fn build(trees: &[Tree], n_features: usize) -> Option<FlatForest> {
        let depth = trees.iter().map(tree_depth).max().unwrap_or(0);
        // Against a non-finite threshold the ±inf a missing value reads
        // would not compare the way the reference routes a NaN.
        let fits = |t: &Tree| {
            t.nodes.iter().all(|n| {
                n.feature == u32::MAX
                    || ((n.feature as usize) < n_features && n.threshold.is_finite())
            })
        };
        if depth > MAX_DEPTH || n_features > MAX_FEATURES || !trees.iter().all(fits) {
            return None;
        }
        let mut padded = vec![[ALWAYS_LEFT; SLOTS]; trees.len()];
        let mut stack = Vec::new();
        for (tree, slots) in trees.iter().zip(&mut padded) {
            // Iterative DFS placing arena node `i` at heap index `at`.
            stack.push((0u32, 1usize, 0u32));
            while let Some((i, at, level)) = stack.pop() {
                let n = &tree.nodes[i as usize];
                if n.feature == u32::MAX {
                    // All-left descent through the padding below the leaf.
                    slots[at << (depth - level)].thr = n.value;
                } else {
                    slots[at] = Slot {
                        thr: n.threshold,
                        col: n.feature + if n.default_left { DEFAULT_LEFT } else { 0 },
                    };
                    stack.push((n.left, 2 * at, level + 1));
                    stack.push((n.right, 2 * at + 1, level + 1));
                }
            }
        }
        Some(FlatForest {
            n_features,
            depth,
            trees: padded,
        })
    }

    /// Raw score (pre-loss-transform) of one row of any width: columns
    /// beyond the model's are ignored, absent trailing ones are missing.
    #[inline]
    pub(crate) fn score(&self, row: &[f32], base: f32) -> f32 {
        // Missing values read +inf (right of every finite threshold) in the
        // first copy and −inf (left of every one) in the second.
        let mut x = [f32::INFINITY; 2 * MAX_FEATURES];
        x[MAX_FEATURES..].fill(f32::NEG_INFINITY);
        let (nan_right, nan_left) = x.split_at_mut(MAX_FEATURES);
        for ((&v, r), l) in row
            .iter()
            .take(self.n_features)
            .zip(nan_right)
            .zip(nan_left)
        {
            if !v.is_nan() {
                (*r, *l) = (v, v);
            }
        }

        let mut acc = base;
        let mut groups = self.trees.chunks_exact(LANES);
        for group in &mut groups {
            let group: &[PaddedTree; LANES] = group.try_into().expect("chunks_exact(LANES)");
            for leaf in descend(group, &x, self.depth) {
                acc += leaf;
            }
        }
        for tree in groups.remainder() {
            acc += descend(std::array::from_ref(tree), &x, self.depth)[0];
        }
        acc
    }
}

/// Walks `N` trees `depth` levels down in lockstep and returns the leaf
/// value each one parked on.
#[inline(always)]
fn descend<const N: usize>(
    trees: &[PaddedTree; N],
    x: &[f32; 2 * MAX_FEATURES],
    depth: u32,
) -> [f32; N] {
    let mut at = [1usize; N];
    for _ in 0..depth {
        for (tree, at) in trees.iter().zip(&mut at) {
            let slot = tree[*at % SLOTS];
            let go_left = x[slot.col as usize % (2 * MAX_FEATURES)] <= slot.thr;
            *at = 2 * *at + usize::from(!go_left);
        }
    }
    std::array::from_fn(|l| trees[l][at[l] % SLOTS].thr)
}

/// Maximum leaf depth of one tree (0 for a bare-leaf root).
fn tree_depth(tree: &Tree) -> u32 {
    let mut max = 0u32;
    let mut stack = vec![(0u32, 0u32)];
    while let Some((i, d)) = stack.pop() {
        let n = &tree.nodes[i as usize];
        if n.feature == u32::MAX {
            max = max.max(d);
        } else {
            stack.push((n.left, d + 1));
            stack.push((n.right, d + 1));
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use crate::dataset::Dataset;
    use crate::{Gbm, GbmParams, Loss};

    /// Missing values, repeated values and a nonlinear label over `cols`
    /// features — the shape LHR's feature rows have. The label reads the
    /// first two columns and the last, which no other column repeats, so a
    /// wide forest splits on its high columns too.
    fn messy_data(rows: usize, cols: usize) -> Dataset {
        let mut d = Dataset::new(cols);
        for i in 0..rows {
            let row: Vec<f32> = (0..cols)
                .map(|f| match f % 3 {
                    _ if f > 1 && f == cols - 1 => ((i * 37) % 101) as f32,
                    0 if (i + f) % 7 == 0 => f32::NAN,
                    0 => ((i + f) % 31) as f32,
                    1 => ((i * (f + 1)) % 13) as f32 / 13.0,
                    _ => ((i + 2 * f) % 5) as f32,
                })
                .collect();
            let y = if row[0].is_nan() || row[0] > 15.0 {
                1.0
            } else {
                row[1 % cols]
            };
            let y = (y + f32::from(cols > 2 && row[cols - 1] > 50.0)) / 2.0;
            d.push_row(&row, y);
        }
        d
    }

    fn fit(data: &Dataset, loss: Loss, max_depth: usize) -> Gbm {
        let params = GbmParams {
            n_trees: 12,
            max_depth,
            min_child_count: 2,
            loss,
            ..GbmParams::default()
        };
        Gbm::fit(data, &params)
    }

    /// Rows that stress every comparison the kernel makes: all-missing,
    /// ±inf, signed zeros, extremes, every training threshold's
    /// neighbourhood, short rows and over-wide rows.
    fn extreme_rows(data: &Dataset) -> Vec<Vec<f32>> {
        let cols = data.n_features();
        let specials = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            15.0,
            0.5,
        ];
        let mut rows: Vec<Vec<f32>> = (0..data.n_rows().min(200))
            .map(|i| data.row(i).to_vec())
            .collect();
        for (k, &s) in specials.iter().enumerate() {
            rows.push(vec![s; cols]);
            // One special among ordinary values, in every column.
            for f in 0..cols {
                let mut row = data.row(k).to_vec();
                row[f] = s;
                rows.push(row);
            }
        }
        for width in 0..cols {
            rows.push(data.row(width).iter().copied().take(width).collect());
        }
        let mut wide = data.row(3).to_vec();
        wide.extend([f32::NAN, 1.0e9, -4.0]);
        rows.push(wide);
        rows
    }

    fn assert_matches_reference(model: &Gbm, rows: &[Vec<f32>], what: &str) {
        let batch = model.predict_batch(rows, 3);
        // The admission scorer reads a flat matrix of one width: each row
        // is scored as a one-row matrix of its own width, an empty row as
        // a one-column row of a missing value (what an absent column reads).
        let probs: Vec<f64> = rows
            .iter()
            .map(|row| match row.len() {
                0 => model.score_admissions(&[f32::NAN], 1, 1)[0],
                width => model.score_admissions(row, width, 1)[0],
            })
            .collect();
        for (i, row) in rows.iter().enumerate() {
            let want = model.predict_reference(row);
            assert_eq!(
                model.predict(row).to_bits(),
                want.to_bits(),
                "{what}: predict, row {i} {row:?}"
            );
            assert_eq!(batch[i].to_bits(), want.to_bits(), "{what}: batch row {i}");
            assert_eq!(
                probs[i].to_bits(),
                (want.clamp(0.0, 1.0) as f64).to_bits(),
                "{what}: admission row {i}"
            );
        }
    }

    #[test]
    fn padded_kernel_equals_the_reference_walk_bitwise() {
        for loss in [Loss::SquaredError, Loss::Logistic] {
            for cols in [1, 3, 23, 32, 33, 44, 64] {
                let data = messy_data(900, cols);
                // Depths 1 and 3 leave every leaf above level 6 untouched by
                // padding of their own; depth 6 mixes padded and full paths.
                for max_depth in [1, 3, 6] {
                    let model = fit(&data, loss, max_depth);
                    assert!(
                        model.flat_layout().is_some(),
                        "{cols} features, depth {max_depth}"
                    );
                    let what = format!("{loss:?}, {cols} features, depth {max_depth}");
                    assert_matches_reference(&model, &extreme_rows(&data), &what);
                }
            }
        }
    }

    #[test]
    fn bare_leaf_forests_score_their_leaves() {
        // Constant labels: one tree, one leaf, zero steps.
        let mut data = Dataset::new(2);
        for i in 0..100 {
            data.push_row(&[i as f32, f32::NAN], 0.25);
        }
        for loss in [Loss::SquaredError, Loss::Logistic] {
            let model = fit(&data, loss, 6);
            assert_eq!(model.n_trees(), 1);
            assert_eq!(model.flat_layout().expect("fits").depth, 0);
            assert_matches_reference(&model, &extreme_rows(&data), "bare leaf");
        }
        // Bare leaves next to real trees, and more trees than one lane
        // group: 8 + 8 + 3.
        let leaf = r#"{"nodes":[{"feature":4294967295,"threshold":0,"left":0,"right":0,"default_left":false,"value":-0.125}]}"#;
        let stump = r#"{"nodes":[{"feature":1,"threshold":0.5,"left":1,"right":2,"default_left":true,"value":0},{"feature":4294967295,"threshold":0,"left":0,"right":0,"default_left":false,"value":0.5},{"feature":4294967295,"threshold":0,"left":0,"right":0,"default_left":false,"value":-0.0}]}"#;
        let trees: Vec<&str> = (0..19)
            .map(|t| if t % 3 == 0 { leaf } else { stump })
            .collect();
        let json = format!(
            r#"{{"base_score":-0.0,"trees":[{}],"feature_gain":[0,0],"n_features":2,"loss":"SquaredError"}}"#,
            trees.join(",")
        );
        let model = Gbm::from_json_string(&json).expect("well-formed");
        assert_eq!(model.flat_layout().expect("fits").depth, 1);
        assert_matches_reference(&model, &extreme_rows(&data), "leaves and stumps");
    }

    #[test]
    fn forests_the_layout_cannot_hold_take_the_reference_walk() {
        // Depth 7: noise labels keep every node worth splitting.
        let mut data = Dataset::new(3);
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..4_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x0 = if i % 11 == 0 {
                f32::NAN
            } else {
                (state % 997) as f32
            };
            data.push_row(
                &[x0, (state >> 20) as f32 % 89.0, (i % 5) as f32],
                (state >> 40) as f32 % 2.0,
            );
        }
        let deep = fit(&data, Loss::SquaredError, 7);
        assert!(deep.flat_layout().is_none());
        assert_matches_reference(&deep, &extreme_rows(&data), "depth 7");

        // 65 features.
        let data = messy_data(600, 65);
        let wide = fit(&data, Loss::Logistic, 4);
        assert!(wide.flat_layout().is_none());
        assert_matches_reference(&wide, &extreme_rows(&data), "65 features");

        // Hand-written JSON: a split on feature 5 of a 2-feature model
        // (reached only by rows with x0 > 1), and non-finite thresholds.
        let leaf = |v: f32| {
            format!(
                r#"{{"feature":4294967295,"threshold":0,"left":0,"right":0,"default_left":false,"value":{v}}}"#
            )
        };
        let model_with = |feature: u32, threshold: &str, default_left: bool| {
            let json = format!(
                r#"{{"base_score":0.5,"trees":[{{"nodes":[{{"feature":0,"threshold":1,"left":1,"right":2,"default_left":true,"value":0}},{},{{"feature":{feature},"threshold":{threshold},"left":3,"right":4,"default_left":{default_left},"value":0}},{},{}]}}],"feature_gain":[0,0],"n_features":2,"loss":"SquaredError"}}"#,
                leaf(0.25),
                leaf(-1.0),
                leaf(2.0)
            );
            Gbm::from_json_string(&json).expect("well-formed")
        };
        let out_of_range = model_with(5, "0.5", false);
        assert!(out_of_range.flat_layout().is_none());
        let left_rows = vec![vec![0.0, 9.0], vec![f32::NAN, f32::NAN], vec![1.0]];
        assert_matches_reference(&out_of_range, &left_rows, "out-of-range feature");
        assert_eq!(out_of_range.predict(&[0.0, 9.0]), 0.75);

        let rows = extreme_rows(&messy_data(20, 2));
        for threshold in ["NaN", "Infinity", "-Infinity"] {
            for default_left in [false, true] {
                let model = model_with(1, threshold, default_left);
                assert!(model.flat_layout().is_none(), "threshold {threshold}");
                assert_matches_reference(&model, &rows, threshold);
            }
        }
    }
}

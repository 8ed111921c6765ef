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
//! Every forest a [`crate::Gbm`] holds fits this layout: `Gbm::fit`
//! refuses a `max_depth` over [`MAX_DEPTH`] and rows wider than
//! [`MAX_FEATURES`], and `Gbm::from_json` refuses, through
//! [`FlatForest::check`], any forest the layout cannot hold — bin edges
//! are finite values of the training data, so only hand-written model JSON
//! has a non-finite threshold, a split on a column the model does not
//! read, or a child that is not a later node of its tree. The per-tree
//! walk ([`Tree::predict`]) is the oracle this kernel is tested against,
//! not a second serving path.
//!
//! Sums start from the base score and add leaf values in tree order with
//! `f32` adds — bit-identical to the reference per-row walk.

use crate::tree::Tree;

/// Deepest tree a [`crate::Gbm`] holds: the padded layout's 64 leaves,
/// and `GbmParams::max_depth`'s default and largest value.
pub(crate) const MAX_DEPTH: usize = 6;

/// Widest row a [`crate::Gbm`] reads: the kernel's stack buffer (LRB's 44
/// columns fit). A power of two, so a column index reduces with a mask.
pub const MAX_FEATURES: usize = 64;

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
    /// Why `trees` of an `n_features`-column model do not fit the layout,
    /// naming the tree and node at fault: a split on a column at or past
    /// `n_features` or [`MAX_FEATURES`], a non-finite threshold (the ±inf a
    /// missing value reads would not compare the way the walk routes a
    /// NaN), a child that is not a later node of the tree (so no walk can
    /// loop), or a split at depth [`MAX_DEPTH`]; then a tree without nodes
    /// or more than [`MAX_FEATURES`] columns.
    pub(crate) fn check(trees: &[Tree], n_features: usize) -> Result<(), String> {
        let columns = n_features.min(MAX_FEATURES);
        for (t, tree) in trees.iter().enumerate() {
            let len = tree.nodes.len();
            if len == 0 {
                return Err(format!("tree {t} has no nodes"));
            }
            // Depth of each node the root reaches. A child comes after its
            // parent, so a node's depth is final before its own turn.
            let mut depth: Vec<Option<usize>> = vec![None; len];
            depth[0] = Some(0);
            for (i, n) in tree.nodes.iter().enumerate() {
                if n.feature == u32::MAX {
                    continue;
                }
                let fault = |why: String| Err(format!("tree {t} node {i} {why}"));
                if n.feature as usize >= columns {
                    let f = n.feature;
                    return fault(format!(
                        "splits on feature {f}, not one of its {columns} columns"
                    ));
                }
                if !n.threshold.is_finite() {
                    return fault(format!("has the non-finite threshold {}", n.threshold));
                }
                let (left, right) = (n.left as usize, n.right as usize);
                if let Some(c) = [left, right].into_iter().find(|&c| c <= i || c >= len) {
                    return fault(format!("has child {c}, not a later node of the {len}"));
                }
                if let Some(d) = depth[i] {
                    if d >= MAX_DEPTH {
                        return fault(format!("splits at depth {d}; trees end at {MAX_DEPTH}"));
                    }
                    for c in [left, right] {
                        depth[c] = depth[c].max(Some(d + 1));
                    }
                }
            }
        }
        if n_features > MAX_FEATURES {
            return Err(format!(
                "{n_features} features, more than the {MAX_FEATURES} a model may read"
            ));
        }
        Ok(())
    }

    /// Lays out `trees` (arena layout, root at local index 0), a forest
    /// [`FlatForest::check`] accepts — as it does every fitted one.
    pub(crate) fn build(trees: &[Tree], n_features: usize) -> FlatForest {
        debug_assert_eq!(FlatForest::check(trees, n_features), Ok(()));
        let depth = trees.iter().map(tree_depth).max().unwrap_or(0);
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
        FlatForest {
            n_features,
            depth,
            trees: padded,
        }
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
                        model.flat_layout().depth as usize <= max_depth,
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
            assert_eq!(model.flat_layout().depth, 0);
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
        assert_eq!(model.flat_layout().depth, 1);
        assert_matches_reference(&model, &extreme_rows(&data), "leaves and stumps");
    }

    /// A one-tree model over `n_features` columns whose nodes are `nodes`
    /// (JSON objects), or a leaf where a node is `None`.
    fn model_json(n_features: usize, nodes: &[Option<(u32, &str, u32, u32)>]) -> String {
        let nodes: Vec<String> = nodes
            .iter()
            .map(|node| match *node {
                Some((feature, threshold, left, right)) => format!(
                    r#"{{"feature":{feature},"threshold":{threshold},"left":{left},"right":{right},"default_left":true,"value":0}}"#
                ),
                None => r#"{"feature":4294967295,"threshold":0,"left":0,"right":0,"default_left":false,"value":0.25}"#.to_string(),
            })
            .collect();
        format!(
            r#"{{"base_score":0.5,"trees":[{{"nodes":[{}]}}],"feature_gain":[],"n_features":{n_features},"loss":"SquaredError"}}"#,
            nodes.join(",")
        )
    }

    /// A chain of `depth` splits on `feature`, each with a leaf on its left:
    /// a tree of depth `depth`.
    fn chain(depth: u32, feature: u32) -> Vec<Option<(u32, &'static str, u32, u32)>> {
        let mut nodes = Vec::new();
        for d in 0..depth {
            nodes.push(Some((feature, "0.5", 2 * d + 1, 2 * d + 2)));
            nodes.push(None);
        }
        nodes.push(None);
        nodes
    }

    #[test]
    fn models_the_layout_cannot_hold_are_refused_naming_tree_and_node() {
        let stump = |threshold: &'static str| vec![Some((1, threshold, 1, 2)), None, None];
        let hostile: Vec<(&str, String, &str)> = vec![
            (
                "a child index out of range",
                model_json(2, &[Some((0, "1", 1, 7)), None, None]),
                "tree 0 node 0 has child 7",
            ),
            (
                "a root whose left child is itself",
                model_json(2, &[Some((0, "1", 0, 1)), None]),
                "tree 0 node 0 has child 0",
            ),
            (
                "a child before its parent",
                model_json(2, &[Some((0, "1", 1, 2)), None, Some((1, "2", 1, 3)), None]),
                "tree 0 node 2 has child 1",
            ),
            (
                "a split on feature 5 of a 2-feature model",
                model_json(
                    2,
                    &[
                        Some((0, "1", 1, 2)),
                        None,
                        Some((5, "0.5", 3, 4)),
                        None,
                        None,
                    ],
                ),
                "tree 0 node 2 splits on feature 5",
            ),
            (
                "depth 7",
                model_json(2, &chain(7, 0)),
                "tree 0 node 12 splits at depth 6",
            ),
            (
                "65 columns",
                model_json(
                    65,
                    &[
                        Some((3, "1", 1, 2)),
                        None,
                        Some((64, "0", 3, 4)),
                        None,
                        None,
                    ],
                ),
                "tree 0 node 2 splits on feature 64",
            ),
            (
                "65 columns, none split on",
                model_json(65, &stump("1")),
                "65 features",
            ),
            (
                "a NaN threshold",
                model_json(2, &stump("NaN")),
                "tree 0 node 0 has the non-finite threshold NaN",
            ),
            (
                "a +inf threshold",
                model_json(2, &stump("Infinity")),
                "tree 0 node 0 has the non-finite threshold inf",
            ),
            (
                "a -inf threshold",
                model_json(2, &stump("-Infinity")),
                "tree 0 node 0 has the non-finite threshold -inf",
            ),
            (
                "a tree without nodes",
                model_json(2, &[]),
                "tree 0 has no nodes",
            ),
        ];
        for (what, json, names) in &hostile {
            let error = Gbm::from_json_string(json).expect_err(what);
            assert!(error.msg.contains(names), "{what}: {:?}", error.msg);
        }

        // The limits themselves load, and score as the walk does.
        let rows = extreme_rows(&messy_data(40, 2));
        for json in [
            model_json(2, &chain(6, 1)),
            model_json(64, &[Some((63, "1", 1, 2)), None, None]),
        ] {
            let model = Gbm::from_json_string(&json).expect("fits the layout");
            assert_matches_reference(&model, &rows, &json);
        }
    }
}

//! A single regression tree grown on binned gradients.
//!
//! The growth hot path uses the classic histogram-boosting tricks:
//! feature-major code columns (see [`Binned`]), per-node histograms cached
//! in a reusable pool with the LightGBM subtraction trick (build the
//! smaller child, derive the sibling as `parent − child`), and a
//! thread-parallel split search over disjoint feature ranges reduced in
//! fixed feature order so the grown tree is byte-identical for any thread
//! count.

use crate::booster::GbmParams;
use crate::dataset::{Binned, MISSING_BIN};
use crate::parallel;

/// Measured per-cell cost of [`fill_feature_hist`] (one row of one feature)
/// and per-slot cost of [`scan_feature`] on the 2-vCPU reference host, LHR
/// shape (18.5 k rows × 23 features); they size the split search's fan-out.
const HIST_CELL_NS: f64 = 1.5;
const SCAN_SLOT_NS: f64 = 8.0;

/// A node in the flat tree arena. Leaves have `feature == u32::MAX`.
/// Crate-visible so `flat::FlatForest` can re-lay fitted trees out for
/// serving.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Split feature index, or `u32::MAX` for a leaf.
    pub(crate) feature: u32,
    /// Real-valued cut: samples with `value ≤ threshold` go left.
    pub(crate) threshold: f32,
    /// Arena index of the left child (valid only for internal nodes).
    pub(crate) left: u32,
    /// Arena index of the right child (valid only for internal nodes).
    pub(crate) right: u32,
    /// Where missing (NaN) values go.
    pub(crate) default_left: bool,
    /// Prediction for a leaf (weight already includes the learning rate).
    pub(crate) value: f32,
}

lhr_util::impl_json!(struct Node { feature, threshold, left, right, default_left, value });

/// A trained regression tree. Prediction consumes raw (unbinned) feature
/// rows, so a serialized model is self-contained.
#[derive(Debug, Clone)]
pub struct Tree {
    pub(crate) nodes: Vec<Node>,
}

lhr_util::impl_json!(struct Tree { nodes });

/// One node's gradient/hessian/count histogram over every feature's bins,
/// laid out by [`Binned::slot_offsets`] (per feature: real bins then one
/// missing slot). `h` is only filled when per-sample hessians exist —
/// squared error reads the exact integer count from `n` instead.
struct HistBuf {
    g: Vec<f64>,
    h: Vec<f64>,
    n: Vec<u32>,
}

impl HistBuf {
    fn with_slots(slots: usize) -> HistBuf {
        HistBuf {
            g: vec![0.0; slots],
            h: vec![0.0; slots],
            n: vec![0; slots],
        }
    }

    /// `self ← self − other`, elementwise — derives the larger child's
    /// histogram from the parent's (in place) once the smaller child's has
    /// been built by scanning.
    fn subtract(&mut self, other: &HistBuf) {
        for (a, b) in self.g.iter_mut().zip(&other.g) {
            *a -= b;
        }
        for (a, b) in self.h.iter_mut().zip(&other.h) {
            *a -= b;
        }
        for (a, b) in self.n.iter_mut().zip(&other.n) {
            *a -= b;
        }
    }
}

/// Reusable growth scratch, shared across all trees of one `fit` so the
/// per-node allocations of the naive implementation disappear.
pub(crate) struct TreeScratch {
    /// Free list of node histograms (≤ depth + 2 live at once).
    pool: Vec<HistBuf>,
    /// Stable-partition side buffer (replaces two per-node `Vec`s).
    part: Vec<u32>,
    /// Node-ordered gradients/hessians: `ordered_g[k] = gradients[indices[k]]`
    /// so every feature's histogram scan reads them sequentially.
    ordered_g: Vec<f32>,
    ordered_h: Vec<f32>,
    /// Per-feature best split, written by the (possibly parallel) feature
    /// workers and reduced in fixed feature order.
    best: Vec<Option<SplitCand>>,
}

impl TreeScratch {
    pub fn new() -> TreeScratch {
        TreeScratch {
            pool: Vec::new(),
            part: Vec::new(),
            ordered_g: Vec::new(),
            ordered_h: Vec::new(),
            best: Vec::new(),
        }
    }

    fn acquire(&mut self, binned: &Binned) -> HistBuf {
        match self.pool.pop() {
            Some(mut h) if h.g.len() == binned.n_slots() => {
                // Constant features are never (re)filled, so their slots
                // must read as zero for the subtraction trick.
                h.g.fill(0.0);
                h.h.fill(0.0);
                h.n.fill(0);
                h
            }
            _ => HistBuf::with_slots(binned.n_slots()),
        }
    }
}

/// The best split of one feature, with the left-side sums retained so the
/// children's node statistics need no rescan.
#[derive(Debug, Clone, Copy)]
struct SplitCand {
    gain: f64,
    bin: u8,
    default_left: bool,
    left_g: f64,
    left_h: f64,
    left_n: u32,
}

/// Shared, immutable context for one tree's growth.
struct GrowCtx<'a> {
    binned: &'a Binned,
    gradients: &'a [f32],
    hessians: Option<&'a [f32]>,
    params: &'a GbmParams,
    threads: usize,
}

impl Tree {
    /// Grows a tree on `gradients` (for squared error, the residuals) over
    /// every row of the binned matrix, scaling leaf values by
    /// `params.learning_rate`, and accumulates split gains per feature into
    /// `gains` (feature-importance bookkeeping). `hessians` is `None` for
    /// squared error (hessian ≡ 1) and per-sample second derivatives
    /// otherwise (second-order boosting, XGBoost-style).
    ///
    /// Every row's entry of `preds` is updated with its leaf value *during*
    /// growth (leaf-assignment propagation) — an O(n) replacement for
    /// walking the finished tree once per row. `threads` parallelizes the
    /// per-node split search across features; the grown tree is
    /// byte-identical for every thread count.
    #[allow(clippy::too_many_arguments)] // one call site, in the booster
    pub(crate) fn grow_on(
        binned: &Binned,
        gradients: &[f32],
        hessians: Option<&[f32]>,
        params: &GbmParams,
        threads: usize,
        gains: &mut [f64],
        scratch: &mut TreeScratch,
        preds: &mut [f32],
    ) -> Tree {
        let mut tree = Tree { nodes: Vec::new() };
        let ctx = GrowCtx {
            binned,
            gradients,
            hessians,
            params,
            threads: threads.max(1),
        };
        scratch.best.clear();
        scratch.best.resize(binned.n_features, None);
        let mut root_rows: Vec<u32> = (0..binned.n_rows as u32).collect();
        let g_sum: f64 = gradients.iter().map(|&g| g as f64).sum();
        let h_sum = match hessians {
            Some(h) => h.iter().map(|&h| h as f64).sum(),
            None => binned.n_rows as f64,
        };
        tree.grow_node(
            &ctx,
            &mut root_rows,
            0,
            g_sum,
            h_sum,
            None,
            gains,
            scratch,
            preds,
        );
        tree
    }

    /// Recursively grows the subtree over `indices`, returning its arena
    /// id. `hist_in` is this node's histogram when the parent derived it by
    /// subtraction; `None` means build-by-scanning (root, or a sibling of a
    /// leaf-bound child).
    #[allow(clippy::too_many_arguments)] // recursion threads growth state
    fn grow_node(
        &mut self,
        ctx: &GrowCtx<'_>,
        indices: &mut [u32],
        depth: usize,
        g_sum: f64,
        h_sum: f64,
        hist_in: Option<HistBuf>,
        gains: &mut [f64],
        scratch: &mut TreeScratch,
        preds: &mut [f32],
    ) -> u32 {
        let params = ctx.params;
        let leaf_value = (g_sum / (h_sum + params.lambda)) as f32 * params.learning_rate;

        if leaf_bound(indices.len(), depth, params) {
            if let Some(h) = hist_in {
                scratch.pool.push(h);
            }
            return self.push_leaf(leaf_value, indices, preds);
        }

        // Node histogram: reuse the subtraction-derived one, or build by
        // scanning the node's rows (feature-parallel; index order per
        // feature is thread-count independent).
        let build = hist_in.is_none();
        let mut hist = match hist_in {
            Some(h) => h,
            None => scratch.acquire(ctx.binned),
        };
        if build {
            scratch.ordered_g.clear();
            scratch
                .ordered_g
                .extend(indices.iter().map(|&i| ctx.gradients[i as usize]));
            if let Some(h) = ctx.hessians {
                scratch.ordered_h.clear();
                scratch
                    .ordered_h
                    .extend(indices.iter().map(|&i| h[i as usize]));
            }
        }
        search_node(
            ctx,
            indices,
            &mut hist,
            build,
            &scratch.ordered_g,
            &scratch.ordered_h,
            g_sum,
            h_sum,
            &mut scratch.best,
        );

        // Ordered reduction: ascending feature index, strictly-greater gain
        // wins — the same winner a sequential scan would pick, independent
        // of how features were assigned to threads.
        let mut best: Option<(usize, SplitCand)> = None;
        for (feature, cand) in scratch.best.iter().enumerate() {
            if let Some(cand) = cand {
                if best.is_none_or(|(_, b)| cand.gain > b.gain) {
                    best = Some((feature, *cand));
                }
            }
        }
        let Some((feature, cand)) = best else {
            scratch.pool.push(hist);
            return self.push_leaf(leaf_value, indices, preds);
        };

        gains[feature] += cand.gain;

        // Partition indices in place: left = code ≤ bin, or missing when
        // default_left.
        let col = ctx.binned.col(feature);
        let split_at = stable_partition(indices, &mut scratch.part, |i| {
            let code = col[i as usize];
            if code == MISSING_BIN {
                cand.default_left
            } else {
                code <= cand.bin
            }
        });
        debug_assert!(split_at > 0 && split_at < indices.len());

        let node_id = self.nodes.len() as u32;
        self.nodes.push(Node {
            feature: feature as u32,
            threshold: ctx.binned.threshold(feature, cand.bin),
            left: 0,
            right: 0,
            default_left: cand.default_left,
            value: 0.0,
        });

        let (left_idx, right_idx) = indices.split_at_mut(split_at);
        let (left_g, left_h) = (
            cand.left_g,
            match ctx.hessians {
                Some(_) => cand.left_h,
                None => cand.left_n as f64,
            },
        );
        let (right_g, right_h) = (g_sum - left_g, h_sum - left_h);

        // Histogram subtraction: scan only the smaller child; the sibling's
        // histogram is `parent − child`, computed in the parent's buffer.
        let left_splittable = !leaf_bound(left_idx.len(), depth + 1, params);
        let right_splittable = !leaf_bound(right_idx.len(), depth + 1, params);
        let (mut left_hist, mut right_hist) = (None, None);
        if left_splittable || right_splittable {
            let left_smaller = left_idx.len() <= right_idx.len();
            let small_idx: &[u32] = if left_smaller { left_idx } else { right_idx };
            let mut small = scratch.acquire(ctx.binned);
            scratch.ordered_g.clear();
            scratch
                .ordered_g
                .extend(small_idx.iter().map(|&i| ctx.gradients[i as usize]));
            if let Some(h) = ctx.hessians {
                scratch.ordered_h.clear();
                scratch
                    .ordered_h
                    .extend(small_idx.iter().map(|&i| h[i as usize]));
            }
            build_hist(
                ctx,
                small_idx,
                &mut small,
                &scratch.ordered_g,
                &scratch.ordered_h,
            );
            hist.subtract(&small);
            let (l, r) = if left_smaller {
                (small, hist)
            } else {
                (hist, small)
            };
            if left_splittable {
                left_hist = Some(l);
            } else {
                scratch.pool.push(l);
            }
            if right_splittable {
                right_hist = Some(r);
            } else {
                scratch.pool.push(r);
            }
        } else {
            scratch.pool.push(hist);
        }

        let left = self.grow_node(
            ctx,
            left_idx,
            depth + 1,
            left_g,
            left_h,
            left_hist,
            gains,
            scratch,
            preds,
        );
        let right = self.grow_node(
            ctx,
            right_idx,
            depth + 1,
            right_g,
            right_h,
            right_hist,
            gains,
            scratch,
            preds,
        );
        self.nodes[node_id as usize].left = left;
        self.nodes[node_id as usize].right = right;
        node_id
    }

    /// Appends a leaf and adds its value to every member row's running
    /// prediction (leaf propagation).
    fn push_leaf(&mut self, value: f32, indices: &[u32], preds: &mut [f32]) -> u32 {
        for &i in indices {
            preds[i as usize] += value;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            feature: u32::MAX,
            threshold: 0.0,
            left: 0,
            right: 0,
            default_left: false,
            value,
        });
        id
    }

    /// Predicts the tree's contribution for one raw feature row.
    ///
    /// This is the reference traversal; serving goes through the padded
    /// forest in `crate::flat`, which is property-tested bit-identical to
    /// this walk and falls back to it for forests it cannot lay out.
    pub fn predict(&self, row: &[f32]) -> f32 {
        let mut node = &self.nodes[0];
        loop {
            if node.feature == u32::MAX {
                return node.value;
            }
            let v = row[node.feature as usize];
            let left = if v.is_nan() {
                node.default_left
            } else {
                v <= node.threshold
            };
            node = if left {
                &self.nodes[node.left as usize]
            } else {
                &self.nodes[node.right as usize]
            };
        }
    }

    /// Number of nodes (leaves + internal).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Whether a node of `len` rows at `depth` must become a leaf without a
/// split search (mirrored by the parent to skip useless histograms).
#[inline]
fn leaf_bound(len: usize, depth: usize, params: &GbmParams) -> bool {
    depth >= params.max_depth || len < 2 * params.min_child_count
}

/// Builds the node histogram for every feature and finds each
/// feature's best split, fanning the features out over `ctx.threads`
/// scoped workers that own disjoint feature ranges (and hence disjoint
/// histogram slot ranges — plain `split_at_mut`, no locks). With
/// `build == false` the histogram is already populated (subtraction) and
/// only the split scan runs.
#[allow(clippy::too_many_arguments)] // flat hot-path plumbing
fn search_node(
    ctx: &GrowCtx<'_>,
    indices: &[u32],
    hist: &mut HistBuf,
    build: bool,
    ordered_g: &[f32],
    ordered_h: &[f32],
    g_total: f64,
    h_total: f64,
    best: &mut [Option<SplitCand>],
) {
    let n_features = ctx.binned.n_features;
    let offsets = &ctx.binned.slot_offsets;
    let parent_score = g_total * g_total / (h_total + ctx.params.lambda);
    let n_total = indices.len() as u32;

    // Per-feature worker: (re)build the feature's histogram slice, then
    // scan its bins for the best candidate. Identical arithmetic whatever
    // thread runs it, so the outcome is thread-count independent.
    let run_feature = |feature: usize, fg: &mut [f64], fh: &mut [f64], fn_: &mut [u32]| {
        if ctx.binned.n_bins(feature) < 2 {
            return None;
        }
        let col = ctx.binned.col(feature);
        if build {
            fill_feature_hist(
                col,
                indices,
                ordered_g,
                ordered_h,
                ctx.hessians.is_some(),
                fg,
                fh,
                fn_,
            );
        }
        scan_feature(
            ctx.params,
            fg,
            fh,
            fn_,
            ctx.hessians.is_some(),
            g_total,
            h_total,
            n_total,
            parent_score,
        )
    };

    // Fan out only over as many workers as the node's histogram work
    // amortises: filling costs `HIST_CELL_NS` per row and feature, the
    // split scan `SCAN_SLOT_NS` per histogram slot.
    let fill_ns = if build {
        (indices.len() * n_features) as f64 * HIST_CELL_NS
    } else {
        0.0
    };
    let scan_ns = ctx.binned.n_slots() as f64 * SCAN_SLOT_NS;
    let threads = parallel::workers(ctx.threads.min(n_features), fill_ns + scan_ns);
    if threads == 1 {
        for (feature, out) in best.iter_mut().enumerate() {
            let (lo, hi) = (offsets[feature], offsets[feature + 1]);
            *out = run_feature(
                feature,
                &mut hist.g[lo..hi],
                &mut hist.h[lo..hi],
                &mut hist.n[lo..hi],
            );
        }
        return;
    }

    // Hand each worker a contiguous feature range and the matching
    // histogram/result slices.
    let mut g_rest: &mut [f64] = &mut hist.g;
    let mut h_rest: &mut [f64] = &mut hist.h;
    let mut n_rest: &mut [u32] = &mut hist.n;
    let mut best_rest: &mut [Option<SplitCand>] = best;
    let mut f0 = 0usize;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let f1 = ((t + 1) * n_features) / threads;
            let slots = offsets[f1] - offsets[f0];
            let (g_chunk, g_next) = std::mem::take(&mut g_rest).split_at_mut(slots);
            let (h_chunk, h_next) = std::mem::take(&mut h_rest).split_at_mut(slots);
            let (n_chunk, n_next) = std::mem::take(&mut n_rest).split_at_mut(slots);
            let (b_chunk, b_next) = std::mem::take(&mut best_rest).split_at_mut(f1 - f0);
            g_rest = g_next;
            h_rest = h_next;
            n_rest = n_next;
            best_rest = b_next;
            let run_feature = &run_feature;
            let base = offsets[f0];
            let lo_feature = f0;
            let mut share = move || {
                for (k, out) in b_chunk.iter_mut().enumerate() {
                    let feature = lo_feature + k;
                    let (lo, hi) = (offsets[feature] - base, offsets[feature + 1] - base);
                    *out = run_feature(
                        feature,
                        &mut g_chunk[lo..hi],
                        &mut h_chunk[lo..hi],
                        &mut n_chunk[lo..hi],
                    );
                }
            };
            // The caller takes the last share itself: one spawn fewer.
            if t + 1 < threads {
                scope.spawn(share);
            } else {
                share();
            }
            f0 = f1;
        }
    });
}

/// Builds the full node histogram (every feature) by scanning —
/// the subtraction path's "smaller child" build, which needs no split scan.
fn build_hist(
    ctx: &GrowCtx<'_>,
    indices: &[u32],
    hist: &mut HistBuf,
    ordered_g: &[f32],
    ordered_h: &[f32],
) {
    let offsets = &ctx.binned.slot_offsets;
    for feature in 0..ctx.binned.n_features {
        if ctx.binned.n_bins(feature) < 2 {
            continue;
        }
        let (lo, hi) = (offsets[feature], offsets[feature + 1]);
        fill_feature_hist(
            ctx.binned.col(feature),
            indices,
            ordered_g,
            ordered_h,
            ctx.hessians.is_some(),
            &mut hist.g[lo..hi],
            &mut hist.h[lo..hi],
            &mut hist.n[lo..hi],
        );
    }
}

/// Accumulates one feature's histogram slice from a contiguous code column.
#[allow(clippy::too_many_arguments)] // hot inner loop, keep it flat
fn fill_feature_hist(
    col: &[u8],
    indices: &[u32],
    ordered_g: &[f32],
    ordered_h: &[f32],
    has_h: bool,
    fg: &mut [f64],
    fh: &mut [f64],
    fn_: &mut [u32],
) {
    let miss = fg.len() - 1;
    fg.fill(0.0);
    fn_.fill(0);
    if has_h {
        fh.fill(0.0);
        for (k, &i) in indices.iter().enumerate() {
            let code = col[i as usize];
            let slot = if code == MISSING_BIN {
                miss
            } else {
                code as usize
            };
            fg[slot] += ordered_g[k] as f64;
            fh[slot] += ordered_h[k] as f64;
            fn_[slot] += 1;
        }
    } else {
        for (k, &i) in indices.iter().enumerate() {
            let code = col[i as usize];
            let slot = if code == MISSING_BIN {
                miss
            } else {
                code as usize
            };
            fg[slot] += ordered_g[k] as f64;
            fn_[slot] += 1;
        }
    }
}

/// Prefix-scans one feature's histogram for the best second-order-gain
/// split: `gain = GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ)` (H = N for squared
/// error, where every hessian is 1). Missing values try both sides.
#[allow(clippy::too_many_arguments)] // hot inner loop, keep it flat
fn scan_feature(
    params: &GbmParams,
    fg: &[f64],
    fh: &[f64],
    fn_: &[u32],
    has_h: bool,
    g_total: f64,
    h_total: f64,
    n_total: u32,
    parent_score: f64,
) -> Option<SplitCand> {
    let n_bins = fg.len() - 1;
    let (miss_g, miss_n) = (fg[n_bins], fn_[n_bins]);
    let miss_h = if has_h { fh[n_bins] } else { miss_n as f64 };
    let mut left_g = 0f64;
    let mut left_h = 0f64;
    let mut left_n = 0u32;
    let mut best: Option<SplitCand> = None;
    for b in 0..(n_bins - 1) {
        left_g += fg[b];
        left_n += fn_[b];
        if has_h {
            left_h += fh[b];
        }
        for &default_left in &[true, false] {
            let (lg, ln) = if default_left {
                (left_g + miss_g, left_n + miss_n)
            } else {
                (left_g, left_n)
            };
            let lh = if has_h {
                if default_left {
                    left_h + miss_h
                } else {
                    left_h
                }
            } else {
                ln as f64
            };
            let rn = n_total - ln;
            if (ln as usize) < params.min_child_count || (rn as usize) < params.min_child_count {
                continue;
            }
            let (rg, rh) = (g_total - lg, h_total - lh);
            let score = lg * lg / (lh + params.lambda) + rg * rg / (rh + params.lambda);
            let gain = score - parent_score;
            if gain > params.min_split_gain && best.as_ref().is_none_or(|b| gain > b.gain) {
                best = Some(SplitCand {
                    gain,
                    bin: b as u8,
                    default_left,
                    left_g: lg,
                    left_h: lh,
                    left_n: ln,
                });
            }
        }
    }
    best
}

/// Stable-order in-place partition using a caller-provided side buffer;
/// returns the number of elements for which `pred` holds (they end up
/// first).
fn stable_partition(xs: &mut [u32], scratch: &mut Vec<u32>, pred: impl Fn(u32) -> bool) -> usize {
    scratch.clear();
    let mut write = 0usize;
    for k in 0..xs.len() {
        let x = xs[k];
        if pred(x) {
            xs[write] = x;
            write += 1;
        } else {
            scratch.push(x);
        }
    }
    xs[write..].copy_from_slice(scratch);
    write
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn grow_on(data: &Dataset, params: &GbmParams) -> Tree {
        let binned = Binned::build(data);
        let mut gains = vec![0.0; data.n_features()];
        let mut preds = vec![0f32; data.n_rows()];
        Tree::grow_on(
            &binned,
            data.labels(),
            None,
            params,
            1,
            &mut gains,
            &mut TreeScratch::new(),
            &mut preds,
        )
    }

    #[test]
    fn single_split_learns_step_function() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            let x = i as f32;
            d.push_row(&[x], if x < 50.0 { 0.0 } else { 1.0 });
        }
        let params = GbmParams {
            learning_rate: 1.0,
            ..GbmParams::default()
        };
        let tree = grow_on(&d, &params);
        assert!(tree.predict(&[10.0]) < 0.1);
        assert!(tree.predict(&[90.0]) > 0.9);
    }

    #[test]
    fn constant_labels_give_single_leaf() {
        let mut d = Dataset::new(2);
        for i in 0..50 {
            d.push_row(&[i as f32, (i * 7 % 13) as f32], 3.0);
        }
        let params = GbmParams {
            learning_rate: 1.0,
            lambda: 0.0,
            ..GbmParams::default()
        };
        let tree = grow_on(&d, &params);
        assert_eq!(tree.n_nodes(), 1);
        assert!((tree.predict(&[0.0, 0.0]) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn missing_values_follow_learned_default() {
        // x0 missing ⇒ label 1; x0 present (any value) ⇒ label 0.
        let mut d = Dataset::new(1);
        for i in 0..50 {
            d.push_row(&[i as f32], 0.0);
            d.push_row(&[f32::NAN], 1.0);
        }
        let params = GbmParams {
            learning_rate: 1.0,
            max_depth: 3,
            ..GbmParams::default()
        };
        let tree = grow_on(&d, &params);
        assert!(
            tree.predict(&[f32::NAN]) > 0.7,
            "{}",
            tree.predict(&[f32::NAN])
        );
        assert!(tree.predict(&[25.0]) < 0.3);
    }

    #[test]
    fn respects_max_depth() {
        let mut d = Dataset::new(1);
        for i in 0..256 {
            d.push_row(&[i as f32], (i % 2) as f32); // max-entropy labels
        }
        let params = GbmParams {
            max_depth: 2,
            min_child_count: 1,
            ..GbmParams::default()
        };
        let tree = grow_on(&d, &params);
        // Depth-2 binary tree has at most 3 internal + 4 leaf nodes.
        assert!(tree.n_nodes() <= 7, "{} nodes", tree.n_nodes());
    }

    #[test]
    fn min_child_count_blocks_tiny_leaves() {
        let mut d = Dataset::new(1);
        for i in 0..10 {
            d.push_row(&[i as f32], if i == 0 { 1.0 } else { 0.0 });
        }
        let params = GbmParams {
            min_child_count: 5,
            learning_rate: 1.0,
            lambda: 0.0,
            ..GbmParams::default()
        };
        let tree = grow_on(&d, &params);
        // No leaf may isolate the single positive sample: every leaf holds
        // ≥ 5 samples of which at most one is positive, so its value ≤ 1/5.
        assert!(
            tree.predict(&[0.0]) <= 0.2 + 1e-6,
            "{}",
            tree.predict(&[0.0])
        );
    }

    #[test]
    fn two_feature_interaction() {
        // label = 1 iff x0 > 5 && x1 > 5 — needs depth 2.
        let mut d = Dataset::new(2);
        for a in 0..10 {
            for b in 0..10 {
                let y = if a > 5 && b > 5 { 1.0 } else { 0.0 };
                d.push_row(&[a as f32, b as f32], y);
            }
        }
        let params = GbmParams {
            learning_rate: 1.0,
            max_depth: 3,
            min_child_count: 1,
            lambda: 0.0,
            ..GbmParams::default()
        };
        let tree = grow_on(&d, &params);
        assert!(tree.predict(&[9.0, 9.0]) > 0.8);
        assert!(tree.predict(&[9.0, 1.0]) < 0.2);
        assert!(tree.predict(&[1.0, 9.0]) < 0.2);
    }

    #[test]
    fn partition_preserves_all_elements() {
        let mut xs: Vec<u32> = (0..100).collect();
        let mut buf = Vec::new();
        let split = stable_partition(&mut xs, &mut buf, |x| x % 3 == 0);
        assert_eq!(split, 34);
        assert!(xs[..split].iter().all(|x| x % 3 == 0));
        assert!(xs[split..].iter().all(|x| x % 3 != 0));
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn leaf_propagation_matches_per_row_predict() {
        // Growing must add exactly `tree.predict(row)` to each row's entry
        // of `preds` — bin thresholds reconstruct the training-time routing
        // bit-exactly.
        let mut d = Dataset::new(2);
        for i in 0..300 {
            let x0 = if i % 7 == 0 {
                f32::NAN
            } else {
                (i % 31) as f32
            };
            d.push_row(&[x0, (i % 13) as f32], ((i * 5) % 17) as f32 / 17.0);
        }
        let binned = Binned::build(&d);
        let residuals: Vec<f32> = d.labels().to_vec();
        let mut gains = vec![0.0; d.n_features()];
        let mut scratch = TreeScratch::new();
        let mut preds = vec![0f32; d.n_rows()];
        let params = GbmParams::default();
        let tree = Tree::grow_on(
            &binned,
            &residuals,
            None,
            &params,
            1,
            &mut gains,
            &mut scratch,
            &mut preds,
        );
        for i in 0..d.n_rows() {
            assert_eq!(
                preds[i].to_bits(),
                tree.predict(d.row(i)).to_bits(),
                "row {i} diverged"
            );
        }
    }
}

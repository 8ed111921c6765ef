//! Test oracle: `Gbm::fit` as it stood before the level-wise grower — the
//! quantile binning that binary-searches every value (`bin_of`) and the
//! depth-first recursive grower, one node at a time, computing what they
//! computed without their thread fan-out (whose ordered reduction never
//! changed a model).
//! The property test below holds today's fit to it, JSON byte for JSON
//! byte, at several thread counts.

use crate::booster::{Gbm, GbmParams, Loss};
use crate::dataset::{Binned, Dataset, MAX_BINS, MISSING_BIN};
use crate::tree::{Node, Tree};

/// Number of edges strictly less than `v` — the bin index.
pub(crate) fn bin_of(edges: &[f32], v: f32) -> u8 {
    edges.partition_point(|&e| e < v) as u8
}

/// The binning: sort and dedup each column's finite values, draw the
/// quantile cuts, then encode every value by binary search.
pub(crate) fn binned(data: &Dataset) -> Binned {
    let n_features = data.n_features();
    let n_rows = data.n_rows();
    let mut edges: Vec<Vec<f32>> = Vec::with_capacity(n_features);
    let mut scratch: Vec<f32> = Vec::with_capacity(n_rows);
    for f in 0..n_features {
        scratch.clear();
        for r in 0..n_rows {
            let v = data.row(r)[f];
            if v.is_finite() {
                scratch.push(v);
            }
        }
        scratch.sort_unstable_by(f32::total_cmp);
        scratch.dedup();
        let mut cuts = Vec::new();
        if scratch.len() > 1 {
            let want = MAX_BINS.min(scratch.len());
            for k in 1..=want.saturating_sub(1) {
                let idx = (k * scratch.len() / want).max(1) - 1;
                let cut = scratch[idx.min(scratch.len() - 2)];
                if cuts.last() != Some(&cut) {
                    cuts.push(cut);
                }
            }
        }
        edges.push(cuts);
    }
    let mut codes = vec![0u8; n_rows * n_features];
    for f in 0..n_features {
        let col = &mut codes[f * n_rows..(f + 1) * n_rows];
        for (r, slot) in col.iter_mut().enumerate() {
            let v = data.row(r)[f];
            *slot = if v.is_finite() {
                bin_of(&edges[f], v)
            } else {
                MISSING_BIN
            };
        }
    }
    let mut slot_offsets = vec![0];
    let mut total = 0usize;
    for cuts in &edges {
        total += cuts.len() + 2;
        slot_offsets.push(total);
    }
    Binned {
        n_features,
        edges,
        codes,
        n_rows,
        slot_offsets,
    }
}

/// The boosting loop, on [`binned`] and [`grow`].
pub(crate) fn fit(data: &Dataset, params: &GbmParams) -> Gbm {
    let binned = binned(data);
    let labels = data.labels();
    let mean = (labels.iter().map(|&y| y as f64).sum::<f64>() / labels.len() as f64) as f32;
    let base_score = params.base_score.unwrap_or(match params.loss {
        Loss::SquaredError => mean,
        Loss::Logistic => {
            let p = mean.clamp(1e-4, 1.0 - 1e-4);
            (p / (1.0 - p)).ln()
        }
    });
    let mut preds = vec![base_score; data.n_rows()];
    let mut gradients = vec![0f32; data.n_rows()];
    let mut hessians = match params.loss {
        Loss::SquaredError => None,
        Loss::Logistic => Some(vec![0f32; data.n_rows()]),
    };
    let mut trees = Vec::new();
    let mut gains = vec![0f64; data.n_features()];
    for _ in 0..params.n_trees {
        match &mut hessians {
            None => {
                for ((g, &y), &p) in gradients.iter_mut().zip(labels).zip(&preds) {
                    *g = y - p;
                }
            }
            Some(hessians) => {
                for (((g, h), &y), &p) in gradients.iter_mut().zip(hessians).zip(labels).zip(&preds)
                {
                    let p = 1.0 / (1.0 + (-p).exp());
                    *g = y - p;
                    *h = (p * (1.0 - p)).max(1e-6);
                }
            }
        }
        let tree = grow(
            &binned,
            &gradients,
            hessians.as_deref(),
            params,
            &mut gains,
            &mut preds,
        );
        let bare_leaf = tree.nodes.len() == 1;
        trees.push(tree);
        if bare_leaf && trees.len() == 1 {
            break;
        }
    }
    Gbm::assemble(base_score, trees, gains, data.n_features(), params.loss)
}

struct Hist {
    g: Vec<f64>,
    h: Vec<f64>,
    n: Vec<u32>,
}

#[derive(Clone, Copy)]
struct Cand {
    gain: f64,
    bin: u8,
    default_left: bool,
    left_g: f64,
    left_h: f64,
    left_n: u32,
}

struct Ctx<'a> {
    binned: &'a Binned,
    gradients: &'a [f32],
    hessians: Option<&'a [f32]>,
    params: &'a GbmParams,
}

fn grow(
    binned: &Binned,
    gradients: &[f32],
    hessians: Option<&[f32]>,
    params: &GbmParams,
    gains: &mut [f64],
    preds: &mut [f32],
) -> Tree {
    let ctx = Ctx {
        binned,
        gradients,
        hessians,
        params,
    };
    let mut tree = Tree { nodes: Vec::new() };
    let mut rows: Vec<u32> = (0..binned.n_rows as u32).collect();
    let g_sum: f64 = gradients.iter().map(|&g| g as f64).sum();
    let h_sum = match hessians {
        Some(h) => h.iter().map(|&h| h as f64).sum(),
        None => binned.n_rows as f64,
    };
    grow_node(
        &mut tree, &ctx, &mut rows, 0, g_sum, h_sum, None, gains, preds,
    );
    tree
}

fn leaf_bound(len: usize, depth: usize, params: &GbmParams) -> bool {
    depth >= params.max_depth || len < 2 * params.min_child_count
}

fn push_leaf(tree: &mut Tree, value: f32, rows: &[u32], preds: &mut [f32]) -> u32 {
    for &i in rows {
        preds[i as usize] += value;
    }
    tree.nodes.push(Node {
        feature: u32::MAX,
        threshold: 0.0,
        left: 0,
        right: 0,
        default_left: false,
        value,
    });
    tree.nodes.len() as u32 - 1
}

#[allow(clippy::too_many_arguments)]
fn grow_node(
    tree: &mut Tree,
    ctx: &Ctx<'_>,
    rows: &mut [u32],
    depth: usize,
    g_sum: f64,
    h_sum: f64,
    hist_in: Option<Hist>,
    gains: &mut [f64],
    preds: &mut [f32],
) -> u32 {
    let params = ctx.params;
    let leaf_value = (g_sum / (h_sum + params.lambda)) as f32 * params.learning_rate;
    if leaf_bound(rows.len(), depth, params) {
        return push_leaf(tree, leaf_value, rows, preds);
    }
    let hist = match hist_in {
        Some(h) => h,
        None => build(ctx, rows),
    };
    let parent_score = g_sum * g_sum / (h_sum + params.lambda);
    let mut best: Option<(usize, Cand)> = None;
    for f in 0..ctx.binned.n_features {
        if ctx.binned.n_bins(f) < 2 {
            continue;
        }
        let (lo, hi) = (ctx.binned.slot_offsets[f], ctx.binned.slot_offsets[f + 1]);
        let cand = scan(
            params,
            &hist.g[lo..hi],
            &hist.h[lo..hi],
            &hist.n[lo..hi],
            ctx.hessians.is_some(),
            g_sum,
            h_sum,
            rows.len() as u32,
            parent_score,
        );
        if let Some(cand) = cand {
            if best.is_none_or(|(_, b)| cand.gain > b.gain) {
                best = Some((f, cand));
            }
        }
    }
    let Some((feature, cand)) = best else {
        return push_leaf(tree, leaf_value, rows, preds);
    };
    gains[feature] += cand.gain;
    let col = ctx.binned.col(feature);
    let mut right_rows = Vec::new();
    let mut write = 0;
    for k in 0..rows.len() {
        let x = rows[k];
        let code = col[x as usize];
        let left = if code == MISSING_BIN {
            cand.default_left
        } else {
            code <= cand.bin
        };
        if left {
            rows[write] = x;
            write += 1;
        } else {
            right_rows.push(x);
        }
    }
    rows[write..].copy_from_slice(&right_rows);
    let node_id = tree.nodes.len() as u32;
    tree.nodes.push(Node {
        feature: feature as u32,
        threshold: ctx.binned.threshold(feature, cand.bin),
        left: 0,
        right: 0,
        default_left: cand.default_left,
        value: 0.0,
    });
    let (left_rows, right_rows) = rows.split_at_mut(write);
    let left_g = cand.left_g;
    let left_h = match ctx.hessians {
        Some(_) => cand.left_h,
        None => cand.left_n as f64,
    };
    let (right_g, right_h) = (g_sum - left_g, h_sum - left_h);
    let left_splittable = !leaf_bound(left_rows.len(), depth + 1, params);
    let right_splittable = !leaf_bound(right_rows.len(), depth + 1, params);
    let (mut left_hist, mut right_hist) = (None, None);
    if left_splittable || right_splittable {
        let left_smaller = left_rows.len() <= right_rows.len();
        let small = build(ctx, if left_smaller { left_rows } else { right_rows });
        let mut large = hist;
        for (a, b) in large.g.iter_mut().zip(&small.g) {
            *a -= b;
        }
        for (a, b) in large.h.iter_mut().zip(&small.h) {
            *a -= b;
        }
        for (a, b) in large.n.iter_mut().zip(&small.n) {
            *a -= b;
        }
        let (l, r) = if left_smaller {
            (small, large)
        } else {
            (large, small)
        };
        left_hist = left_splittable.then_some(l);
        right_hist = right_splittable.then_some(r);
    }
    let left = grow_node(
        tree,
        ctx,
        left_rows,
        depth + 1,
        left_g,
        left_h,
        left_hist,
        gains,
        preds,
    );
    let right = grow_node(
        tree,
        ctx,
        right_rows,
        depth + 1,
        right_g,
        right_h,
        right_hist,
        gains,
        preds,
    );
    tree.nodes[node_id as usize].left = left;
    tree.nodes[node_id as usize].right = right;
    node_id
}

/// A node's histogram, one feature at a time, one row at a time.
fn build(ctx: &Ctx<'_>, rows: &[u32]) -> Hist {
    let slots = ctx.binned.n_slots();
    let mut hist = Hist {
        g: vec![0.0; slots],
        h: vec![0.0; slots],
        n: vec![0; slots],
    };
    for f in 0..ctx.binned.n_features {
        if ctx.binned.n_bins(f) < 2 {
            continue;
        }
        let lo = ctx.binned.slot_offsets[f];
        let miss = ctx.binned.n_bins(f);
        let col = ctx.binned.col(f);
        for &i in rows.iter() {
            let code = col[i as usize];
            let slot = lo
                + if code == MISSING_BIN {
                    miss
                } else {
                    code as usize
                };
            hist.g[slot] += ctx.gradients[i as usize] as f64;
            if let Some(h) = ctx.hessians {
                hist.h[slot] += h[i as usize] as f64;
            }
            hist.n[slot] += 1;
        }
    }
    hist
}

#[allow(clippy::too_many_arguments)]
fn scan(
    params: &GbmParams,
    fg: &[f64],
    fh: &[f64],
    fn_: &[u32],
    has_h: bool,
    g_total: f64,
    h_total: f64,
    n_total: u32,
    parent_score: f64,
) -> Option<Cand> {
    let n_bins = fg.len() - 1;
    let (miss_g, miss_n) = (fg[n_bins], fn_[n_bins]);
    let miss_h = if has_h { fh[n_bins] } else { miss_n as f64 };
    let (mut left_g, mut left_h, mut left_n) = (0f64, 0f64, 0u32);
    let mut best: Option<Cand> = None;
    for b in 0..(n_bins - 1) {
        left_g += fg[b];
        left_n += fn_[b];
        if has_h {
            left_h += fh[b];
        }
        for default_left in [true, false] {
            let (lg, ln) = if default_left {
                (left_g + miss_g, left_n + miss_n)
            } else {
                (left_g, left_n)
            };
            let lh = match (has_h, default_left) {
                (true, true) => left_h + miss_h,
                (true, false) => left_h,
                (false, _) => ln as f64,
            };
            let rn = n_total - ln;
            if (ln as usize) < params.min_child_count || (rn as usize) < params.min_child_count {
                continue;
            }
            let (rg, rh) = (g_total - lg, h_total - lh);
            let score = lg * lg / (lh + params.lambda) + rg * rg / (rh + params.lambda);
            let gain = score - parent_score;
            if gain > params.min_split_gain && best.as_ref().is_none_or(|b| gain > b.gain) {
                best = Some(Cand {
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

mod tests {
    use super::*;
    use crate::ALWAYS_FAN_OUT;
    use lhr_util::prop::{any_u64, range};
    use lhr_util::{prop_assert_eq, prop_check};

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// `rows` × `cols`, each column of one kind: continuous (hundreds of
    /// values), a handful of values including ±0.0, constant, one finite
    /// value among NaNs, ±inf among values, or mostly NaN.
    fn dataset(rows: usize, cols: usize, seed: u64, binary: bool) -> Dataset {
        let mut next = xorshift(seed);
        let kinds: Vec<u64> = (0..cols).map(|_| next() % 6).collect();
        let mut data = Dataset::new(cols);
        for _ in 0..rows {
            let row: Vec<f32> = kinds
                .iter()
                .map(|&kind| {
                    let v = next();
                    match kind {
                        0 => (v % 100_000) as f32 / 7.0 - 5_000.0,
                        1 => [0.0, -0.0, 1.5, -2.0, 3.0][(v % 5) as usize],
                        2 => 4.5,
                        3 if v.is_multiple_of(3) => 8.0,
                        4 => match v % 8 {
                            0 => f32::INFINITY,
                            1 => f32::NEG_INFINITY,
                            2 => f32::NAN,
                            _ => (v % 300) as f32,
                        },
                        5 if v % 10 < 8 => f32::NAN,
                        5 => (v % 50) as f32 * 0.5,
                        _ => f32::NAN,
                    }
                })
                .collect();
            let x = row[0];
            let noise = (next() % 1_000) as f32 / 1_000.0;
            let soft = if x.is_nan() || x > 1.0 { 0.7 } else { 0.3 } * 0.6 + 0.4 * noise;
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

    fn params(seed: u64) -> GbmParams {
        let mut next = xorshift(seed ^ 0x9E37_79B9);
        GbmParams {
            n_trees: 1 + (next() % 6) as usize,
            max_depth: 1 + (next() % 6) as usize,
            learning_rate: [0.3, 1.0, 0.05][(next() % 3) as usize],
            lambda: [1.0, 0.0, 0.25][(next() % 3) as usize],
            min_child_count: 1 + (next() % 10) as usize,
            min_split_gain: [1e-6, 0.0, 1e-3][(next() % 3) as usize],
            base_score: None,
            loss: if next() % 2 == 0 {
                Loss::SquaredError
            } else {
                Loss::Logistic
            },
            threads: 1,
        }
    }

    /// Today's binning and grower against the old ones, on every fan-out
    /// forced, at 1, 2 and 8 threads.
    #[test]
    fn fits_match_the_sequential_depth_first_reference_bit_for_bit() {
        ALWAYS_FAN_OUT.set(true);
        prop_check!(cases: 96, (rows in range(1usize..700), cols in range(1usize..15), seed in any_u64()) => {
            let data = dataset(rows, cols, seed, seed % 3 != 0);
            let params = params(seed);
            let old = binned(&data);
            let new = Binned::build(&data);
            prop_assert_eq!(&new.edges, &old.edges);
            prop_assert_eq!(&new.codes, &old.codes);
            let expect = fit(&data, &params).to_json_string();
            for threads in [1, 2, 8] {
                let got = Gbm::fit(&data, &GbmParams { threads, ..params.clone() });
                prop_assert_eq!(got.to_json_string(), expect.clone(), "threads {}", threads);
            }
        });
        ALWAYS_FAN_OUT.set(false);
    }

    /// A root split into two children of exactly equal size: the left one
    /// is built and the right one derived. Labels fifteen orders of
    /// magnitude apart within each child (and a base score of zero, so
    /// the first tree's gradients are the labels) make the `f64` sums
    /// round, so the two ways to a child's histogram differ in their last
    /// bits, and a grower that built the other child would fit other bits.
    #[test]
    fn equal_children_build_the_left_one() {
        let mut data = Dataset::new(3);
        let mut next = xorshift(5);
        for r in 0..2_000u64 {
            let half = (r % 2) as f32;
            let x = (next() % 10_000) as f32 / 37.0;
            let y = (next() % 1_000) as f32 / 3.0;
            let scale = if r % 3 == 0 { 1e15 } else { 1.0 + x / 100.0 };
            data.push_row(&[half, x, y], scale * (1.0 + half));
        }
        let params = GbmParams {
            n_trees: 2,
            max_depth: 3,
            base_score: Some(0.0),
            ..GbmParams::default()
        };
        let expect = fit(&data, &params).to_json_string();
        for threads in [1, 2, 8] {
            let got = Gbm::fit(
                &data,
                &GbmParams {
                    threads,
                    ..params.clone()
                },
            );
            assert!(got.to_json_string() == expect, "at {threads} threads");
        }
    }

    /// The shapes LHR fits — 23 columns, depth 6 — where the cut points
    /// saturate and most nodes are deep, without the forced fan-out.
    #[test]
    fn lhr_shaped_fits_match_the_reference() {
        for (seed, loss) in [(1, Loss::SquaredError), (2, Loss::Logistic)] {
            let data = dataset(3_000, 23, seed, true);
            let params = GbmParams {
                n_trees: 4,
                max_depth: 6,
                loss,
                ..GbmParams::default()
            };
            let expect = fit(&data, &params).to_json_string();
            for threads in [1, 2, 8] {
                let got = Gbm::fit(
                    &data,
                    &GbmParams {
                        threads,
                        ..params.clone()
                    },
                );
                assert!(
                    got.to_json_string() == expect,
                    "{loss:?} at {threads} threads"
                );
            }
        }
    }
}

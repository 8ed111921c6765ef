//! A single regression tree grown on binned gradients.
//!
//! The growth hot path uses the classic histogram-boosting tricks:
//! feature-major code columns (see [`Binned`]), per-node histograms
//! cached in a reusable pool with the LightGBM subtraction trick (build the
//! smaller child, derive the sibling as `parent − child`), and several
//! features filled per pass over a node's rows. The tree grows one depth
//! level at a time over feature-group shards, which this thread and the
//! fit's helper crew run per level; each node's split is the one a
//! sequential scan would pick, and the finished levels are laid out in
//! depth-first preorder — so the grown tree is byte-identical for any
//! thread count, and to the depth-first grower `crate::reference` keeps.

use crate::booster::GbmParams;
use crate::dataset::{Binned, MISSING_BIN};
use lhr_util::sync::Crew;
use std::ops::Range;
use std::sync::Arc;

/// Measured per-cell cost of [`fill_group`] (one row of one feature) and
/// per-slot cost of [`scan_feature`] on the 2-vCPU reference host, LHR
/// shape (19 k rows × 23 features: 18.9 M cells and 1.8 M searched slots
/// per 25-tree fit); they size a fit's workers.
const HIST_CELL_NS: f64 = 2.5;
const SCAN_SLOT_NS: f64 = 18.0;

/// Features filled per pass over a node's rows: their histogram updates
/// are independent, so the adds into one feature's missing slot (where a
/// third to a half of LHR's IRT values land) no longer wait on each other
/// back to back.
const FILL_GROUP: usize = 4;

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

/// Gradient/hessian/count histograms of one shard's features for one
/// node, laid out by [`Binned::slot_offsets`] from the shard's first slot
/// (per feature: real bins then one missing slot).
struct HistBuf {
    g: Vec<f64>,
    /// Per slot, the hessian sum — only when per-sample hessians exist
    /// (empty otherwise: squared error reads the exact count instead).
    h: Vec<f64>,
    n: Vec<u32>,
}

impl HistBuf {
    fn with_slots(slots: usize, has_h: bool) -> HistBuf {
        HistBuf {
            g: vec![0.0; slots],
            h: vec![0.0; if has_h { slots } else { 0 }],
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

/// A node's best split: its feature and candidate.
type Best = Option<(usize, SplitCand)>;

/// Keeps `found` over `best` only on a strictly greater gain — so fed
/// features in ascending order, the first feature with the highest gain
/// wins, as in a sequential scan.
fn prefer(best: &mut Best, found: Best) {
    if let Some((_, cand)) = found {
        if best.is_none_or(|(_, b)| cand.gain > b.gain) {
            *best = found;
        }
    }
}

/// What every worker of a fit reads, for the whole fit.
#[derive(Clone, Copy)]
struct FitCtx<'a> {
    binned: &'a Binned,
    params: &'a GbmParams,
    has_h: bool,
}

/// A node of the level being grown.
struct LevelNode {
    /// Its rows: a range of [`Level::rows`].
    rows: Range<usize>,
    g_sum: f64,
    h_sum: f64,
    /// Whether the node gets a split search (see [`leaf_bound`]).
    searched: bool,
}

/// One histogram build of a level: the node whose rows are scanned and,
/// when it is searched, the sibling whose histogram is their parent's
/// (at `parent` in the previous level) minus the built one. The root is
/// built with no sibling.
struct Job {
    built: usize,
    sibling: Option<(usize, usize)>,
}

/// What a level's workers read. The grower rewrites it between levels,
/// once every shard is back.
pub(crate) struct Level {
    /// The rows in growth order: every node owns a contiguous range,
    /// partitioned in place into its children's.
    rows: Vec<u32>,
    /// Gradients/hessians in growth order (`ordered_g[k] =
    /// gradients[rows[k]]`), gathered for the ranges the level fills so
    /// every feature's pass reads them sequentially.
    ordered_g: Vec<f32>,
    ordered_h: Vec<f32>,
    nodes: Vec<LevelNode>,
    jobs: Vec<Job>,
    /// Whether the level's children are all at the depth limit: none is
    /// searched, so a histogram is spare as soon as it has been searched.
    last: bool,
}

/// One feature group's share of a fit: up to [`FILL_GROUP`] features,
/// filled in one pass over a node's rows, whose histograms it keeps for
/// every node across levels (a sibling is derived in the parent's
/// histogram it still holds). Whichever worker runs the shard at a level
/// computes the same: histograms never depend on who ran them.
pub(crate) struct Shard {
    features: Range<usize>,
    /// `binned.slot_offsets[features.start]` and the group's slot count.
    base: usize,
    slots: usize,
    /// Each node's best split among this shard's features at the level
    /// last run.
    best: Vec<Best>,
    /// This level's histograms by node, and spare ones.
    live: Vec<Option<HistBuf>>,
    pool: Vec<HistBuf>,
}

impl Shard {
    fn new(binned: &Binned, features: Range<usize>) -> Shard {
        let base = binned.slot_offsets[features.start];
        Shard {
            base,
            slots: binned.slot_offsets[features.end] - base,
            features,
            best: Vec::new(),
            live: Vec::new(),
            pool: Vec::new(),
        }
    }

    fn acquire(&mut self, has_h: bool) -> HistBuf {
        match self.pool.pop() {
            Some(mut h) => {
                // Constant features are never filled, so their slots must
                // read as zero for the subtraction trick.
                h.g.fill(0.0);
                h.h.fill(0.0);
                h.n.fill(0);
                h
            }
            None => HistBuf::with_slots(self.slots, has_h),
        }
    }

    /// Runs this shard at `level`: for every job, fills the built node's
    /// histogram from its rows, derives the sibling's, and searches both
    /// (where searched), leaving each node's best split in `best`.
    fn run(&mut self, ctx: FitCtx<'_>, level: &Level) {
        // Carry forward the parents' histograms the siblings are derived
        // in; the previous level's others are spare.
        let mut prev = std::mem::take(&mut self.live);
        self.live.resize_with(level.nodes.len(), || None);
        for job in &level.jobs {
            if let Some((sibling, parent)) = job.sibling {
                self.live[sibling] = prev[parent].take();
            }
        }
        self.pool.extend(prev.into_iter().flatten());

        self.best.clear();
        self.best.resize(level.nodes.len(), None);
        for job in &level.jobs {
            let node = &level.nodes[job.built];
            let rows = &level.rows[node.rows.clone()];
            let ordered_g = &level.ordered_g[node.rows.clone()];
            let ordered_h = ctx.has_h.then(|| &level.ordered_h[node.rows.clone()]);
            let mut built = self.acquire(ctx.has_h);
            fill_group(
                ctx.binned,
                self.features.clone(),
                self.base,
                rows,
                ordered_g,
                ordered_h,
                &mut built,
            );
            if let Some((sibling, _)) = job.sibling {
                let derived = self.live[sibling]
                    .as_mut()
                    .expect("a sibling is derived in its parent's histogram");
                derived.subtract(&built);
            }
            self.live[job.built] = Some(built);
            for at in [Some(job.built), job.sibling.map(|(s, _)| s)]
                .into_iter()
                .flatten()
            {
                let node = &level.nodes[at];
                if node.searched {
                    let hist = self.live[at].as_ref().expect("filled above");
                    self.best[at] = self.search(ctx, node, hist);
                }
                if level.last {
                    self.pool.extend(self.live[at].take());
                }
            }
        }
    }

    /// The best split of `node` among this shard's features.
    fn search(&self, ctx: FitCtx<'_>, node: &LevelNode, hist: &HistBuf) -> Best {
        let binned = ctx.binned;
        let parent_score = node.g_sum * node.g_sum / (node.h_sum + ctx.params.lambda);
        let mut best = None;
        for feature in self.features.clone() {
            if binned.n_bins(feature) < 2 {
                continue;
            }
            let lo = binned.slot_offsets[feature] - self.base;
            let hi = binned.slot_offsets[feature + 1] - self.base;
            let found = scan_feature(
                ctx.params,
                &hist.g[lo..hi],
                hist.h.get(lo..hi).unwrap_or(&[]),
                &hist.n[lo..hi],
                ctx.has_h,
                node.g_sum,
                node.h_sum,
                node.rows.len() as u32,
                parent_score,
            );
            prefer(&mut best, found.map(|cand| (feature, cand)));
        }
        best
    }
}

/// A shard on its way through the fit's crew, with the level to run it at.
pub(crate) type ShardRun = (Arc<Level>, Shard);

/// Grows the trees of one fit. The features are shared out in groups of
/// [`FILL_GROUP`] ([`Shard`]s), which the grower owns between levels. Per
/// level it submits every shard to the fit's [`Crew`] — its helpers,
/// spawned once per fit, and this thread run them, each taking whichever
/// shard is queued first — and takes them back in feature order, merging
/// their best splits; then it partitions the rows and lays out the next
/// level. The fitted model is byte-identical for every thread count.
pub(crate) struct Grower<'a> {
    ctx: FitCtx<'a>,
    level: Arc<Level>,
    shards: Vec<Shard>,
    /// Helper threads the data's size pays for: the fit's crew's.
    pub(crate) helpers: usize,
    /// Stable-partition side buffer.
    part: Vec<u32>,
}

impl<'a> Grower<'a> {
    /// A grower over `binned`, on up to `threads` threads.
    pub(crate) fn new(
        binned: &'a Binned,
        params: &'a GbmParams,
        has_h: bool,
        threads: usize,
    ) -> Grower<'a> {
        let n_features = binned.n_features;
        let shards: Vec<Shard> = (0..n_features)
            .step_by(FILL_GROUP)
            .map(|f| Shard::new(binned, f..(f + FILL_GROUP).min(n_features)))
            .collect();
        // A level's work is about the root's — a fill over every row and a
        // split search: as many workers as it amortises, at most one per
        // shard.
        let active = (0..n_features).filter(|&f| binned.n_bins(f) >= 2).count();
        let root_ns =
            (binned.n_rows * active) as f64 * HIST_CELL_NS + binned.n_slots() as f64 * SCAN_SLOT_NS;
        let workers = crate::workers(threads.min(shards.len()), root_ns);
        Grower {
            ctx: FitCtx {
                binned,
                params,
                has_h,
            },
            level: Arc::new(Level {
                rows: Vec::new(),
                ordered_g: Vec::new(),
                ordered_h: Vec::new(),
                nodes: Vec::new(),
                jobs: Vec::new(),
                last: false,
            }),
            shards,
            helpers: workers - 1,
            part: Vec::new(),
        }
    }

    /// What the fit's crew does with a shard: runs it at its level.
    pub(crate) fn shard_work(&self) -> impl Fn(usize, &mut ShardRun) + Sync + 'a {
        let ctx = self.ctx;
        move |_, (level, shard)| shard.run(ctx, level)
    }

    /// Every node's best split at the current level.
    fn search(&mut self, crew: &mut Crew<'_, ShardRun>) -> Vec<Best> {
        let mut best = vec![None; self.level.nodes.len()];
        if self.level.jobs.is_empty() {
            return best;
        }
        for shard in self.shards.drain(..) {
            crew.submit((Arc::clone(&self.level), shard));
        }
        while let Some((_, shard)) = crew.next_done() {
            for (best, &found) in best.iter_mut().zip(&shard.best) {
                prefer(best, found);
            }
            self.shards.push(shard);
        }
        best
    }

    /// Grows a tree on `gradients` (for squared error, the residuals) over
    /// every row of the binned matrix, scaling leaf values by
    /// `params.learning_rate`, and accumulates split gains per feature into
    /// `gains` (feature-importance bookkeeping). `hessians` is `None` for
    /// squared error (hessian ≡ 1) and per-sample second derivatives
    /// otherwise (second-order boosting, XGBoost-style).
    ///
    /// Every row's entry of `preds` is updated with its leaf value (leaf
    /// propagation) — an O(n) replacement for walking the finished tree
    /// once per row.
    pub(crate) fn grow(
        &mut self,
        crew: &mut Crew<'_, ShardRun>,
        gradients: &[f32],
        hessians: Option<&[f32]>,
        gains: &mut [f64],
        preds: &mut [f32],
    ) -> Tree {
        let (binned, params) = (self.ctx.binned, self.ctx.params);
        let n_rows = binned.n_rows;
        let g_sum: f64 = gradients.iter().map(|&g| g as f64).sum();
        let h_sum = match hessians {
            Some(h) => h.iter().map(|&h| h as f64).sum(),
            None => n_rows as f64,
        };
        let level = unshared(&mut self.level);
        level.rows.clear();
        level.rows.extend(0..n_rows as u32);
        level.ordered_g.clear();
        level.ordered_g.extend_from_slice(gradients);
        if let Some(h) = hessians {
            level.ordered_h.clear();
            level.ordered_h.extend_from_slice(h);
        }
        let searched = !leaf_bound(n_rows, 0, params);
        level.nodes.clear();
        level.nodes.push(LevelNode {
            rows: 0..n_rows,
            g_sum,
            h_sum,
            searched,
        });
        level.jobs.clear();
        level.last = params.max_depth <= 1;
        if searched {
            level.jobs.push(Job {
                built: 0,
                sibling: None,
            });
        }

        let mut levels: Vec<Vec<Grown>> = Vec::new();
        for depth in 1.. {
            let best = self.search(crew);
            let level = unshared(&mut self.level);
            let part = &mut self.part;
            let mut next: Vec<LevelNode> = Vec::new();
            let mut jobs: Vec<Job> = Vec::new();
            let mut grown = Vec::with_capacity(level.nodes.len());
            for (at, (node, best)) in level.nodes.iter().zip(best).enumerate() {
                let Some((feature, cand)) = best else {
                    grown.push(Grown::Leaf {
                        value: leaf_value(node.g_sum, node.h_sum, params),
                        rows: node.rows.clone(),
                    });
                    continue;
                };
                // Partition the rows in place: left = code ≤ bin, or
                // missing when default_left.
                let col = binned.col(feature);
                let split_at = stable_partition(&mut level.rows[node.rows.clone()], part, |i| {
                    let code = col[i as usize];
                    (code <= cand.bin) | (code == MISSING_BIN && cand.default_left)
                });
                let (lo, hi) = (node.rows.start, node.rows.end);
                let mid = lo + split_at;
                debug_assert!(lo < mid && mid < hi);
                let left_h = match hessians {
                    Some(_) => cand.left_h,
                    None => cand.left_n as f64,
                };
                let child = |rows: Range<usize>, g_sum, h_sum| LevelNode {
                    searched: !leaf_bound(rows.len(), depth, params),
                    rows,
                    g_sum,
                    h_sum,
                };
                let (left, right) = (next.len(), next.len() + 1);
                next.push(child(lo..mid, cand.left_g, left_h));
                next.push(child(
                    mid..hi,
                    node.g_sum - cand.left_g,
                    node.h_sum - left_h,
                ));

                // Histogram subtraction: scan only the smaller child; the
                // sibling's histogram is `parent − child`, derived in the
                // parent's buffer when the sibling is searched.
                let (small, large) = if mid - lo <= hi - mid {
                    (left, right)
                } else {
                    (right, left)
                };
                if next[small].searched || next[large].searched {
                    jobs.push(Job {
                        built: small,
                        sibling: next[large].searched.then_some((large, at)),
                    });
                }
                grown.push(Grown::Split {
                    feature,
                    cand,
                    left,
                    right,
                });
            }
            levels.push(grown);
            if next.is_empty() {
                break;
            }
            for job in &jobs {
                let range = next[job.built].rows.clone();
                let rows = &level.rows[range.clone()];
                for (o, &i) in level.ordered_g[range.clone()].iter_mut().zip(rows) {
                    *o = gradients[i as usize];
                }
                if let Some(h) = hessians {
                    for (o, &i) in level.ordered_h[range].iter_mut().zip(rows) {
                        *o = h[i as usize];
                    }
                }
            }
            level.nodes = next;
            level.jobs = jobs;
            level.last = depth + 1 >= params.max_depth;
        }

        let mut tree = Tree { nodes: Vec::new() };
        tree.lay_out(&levels, 0, 0, binned, &self.level.rows, gains, preds);
        tree
    }
}

/// The level, to rewrite between levels: every shard is back from the
/// crew, so the grower holds the only reference.
fn unshared(level: &mut Arc<Level>) -> &mut Level {
    Arc::get_mut(level).expect("every shard is back from the crew")
}

/// A node of a finished level, kept until the tree is laid out.
enum Grown {
    Leaf {
        value: f32,
        rows: Range<usize>,
    },
    /// `left` and `right` index the next level.
    Split {
        feature: usize,
        cand: SplitCand,
        left: usize,
        right: usize,
    },
}

impl Tree {
    /// Appends the subtree of `levels[depth][at]` in depth-first preorder —
    /// the arena order, and the order split gains are credited in, of
    /// growing node by node — and returns its arena id. A leaf adds its
    /// value to its rows' entries of `preds`.
    #[allow(clippy::too_many_arguments)] // recursion threads layout state
    fn lay_out(
        &mut self,
        levels: &[Vec<Grown>],
        depth: usize,
        at: usize,
        binned: &Binned,
        rows: &[u32],
        gains: &mut [f64],
        preds: &mut [f32],
    ) -> u32 {
        match &levels[depth][at] {
            Grown::Leaf { value, rows: range } => {
                self.push_leaf(*value, &rows[range.clone()], preds)
            }
            &Grown::Split {
                feature,
                cand,
                left,
                right,
            } => {
                gains[feature] += cand.gain;
                let node_id = self.nodes.len() as u32;
                self.nodes.push(Node {
                    feature: feature as u32,
                    threshold: binned.threshold(feature, cand.bin),
                    left: 0,
                    right: 0,
                    default_left: cand.default_left,
                    value: 0.0,
                });
                let left = self.lay_out(levels, depth + 1, left, binned, rows, gains, preds);
                let right = self.lay_out(levels, depth + 1, right, binned, rows, gains, preds);
                self.nodes[node_id as usize].left = left;
                self.nodes[node_id as usize].right = right;
                node_id
            }
        }
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
    /// This is the reference traversal, the oracle the padded forest in
    /// `crate::flat` is property-tested bit-identical to; a [`crate::Gbm`]
    /// serves through that forest alone. `row` must be as wide as the
    /// columns the tree splits on.
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

/// A leaf's prediction (with the learning rate applied).
#[inline]
fn leaf_value(g_sum: f64, h_sum: f64, params: &GbmParams) -> f32 {
    (g_sum / (h_sum + params.lambda)) as f32 * params.learning_rate
}

/// Accumulates the histogram slots of one feature group from its code
/// columns over `rows` (the node's rows in growth order, `ordered_g[k]`
/// the gradient of `rows[k]`) into `hist`, whose first slot is `base`.
/// Every slot still sums its rows in row order; only the group's features
/// share a pass. The group's slots must read zero.
fn fill_group(
    binned: &Binned,
    features: Range<usize>,
    base: usize,
    rows: &[u32],
    ordered_g: &[f32],
    ordered_h: Option<&[f32]>,
    hist: &mut HistBuf,
) {
    // (code column, first slot, missing slot) of each non-constant feature.
    let mut lanes: Vec<(&[u8], usize, usize)> = Vec::with_capacity(FILL_GROUP);
    for f in features {
        if binned.n_bins(f) >= 2 {
            lanes.push((
                binned.col(f),
                binned.slot_offsets[f] - base,
                binned.n_bins(f),
            ));
        }
    }
    match lanes.len() {
        0 => {}
        1 => fill_lanes::<1>(&lanes, rows, ordered_g, ordered_h, hist),
        2 => fill_lanes::<2>(&lanes, rows, ordered_g, ordered_h, hist),
        3 => fill_lanes::<3>(&lanes, rows, ordered_g, ordered_h, hist),
        _ => fill_lanes::<4>(&lanes, rows, ordered_g, ordered_h, hist),
    }
}

/// [`fill_group`]'s kernel over exactly `M` features. A missing value's
/// code ([`MISSING_BIN`]) exceeds every real bin, so `min(code, missing
/// slot)` picks its slot without a branch.
fn fill_lanes<const M: usize>(
    lanes: &[(&[u8], usize, usize)],
    rows: &[u32],
    ordered_g: &[f32],
    ordered_h: Option<&[f32]>,
    hist: &mut HistBuf,
) {
    let cols: [&[u8]; M] = std::array::from_fn(|j| lanes[j].0);
    let first: [usize; M] = std::array::from_fn(|j| lanes[j].1);
    let miss: [usize; M] = std::array::from_fn(|j| lanes[j].2);
    let slot = |j: usize, i: u32| first[j] + (cols[j][i as usize] as usize).min(miss[j]);
    for (&i, &g) in rows.iter().zip(ordered_g) {
        let g = g as f64;
        for j in 0..M {
            let s = slot(j, i);
            hist.g[s] += g;
            hist.n[s] += 1;
        }
    }
    if let Some(ordered_h) = ordered_h {
        for (&i, &h) in rows.iter().zip(ordered_h) {
            let h = h as f64;
            for j in 0..M {
                hist.h[slot(j, i)] += h;
            }
        }
    }
}

/// Prefix-scans one feature's histogram for the best second-order-gain
/// split: `gain = GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ)` (H = N for squared
/// error, where every hessian is 1). Missing values try both sides.
///
/// Two shortcuts leave the answer exact. A bin past the first that adds
/// nothing (no rows, `g` and `h` exactly zero) is skipped: the left sums
/// start at +0.0 and so never become −0.0, adding ±0.0 leaves them
/// bit-equal, and its candidates' gains equal the previous bin's, which a
/// strict `>` has already preferred. And the scan stops once the right side
/// holds fewer than `min_child_count` rows, as it does at every later bin.
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
        if b > 0 && fn_[b] == 0 && fg[b] == 0.0 && (!has_h || fh[b] == 0.0) {
            continue;
        }
        left_g += fg[b];
        left_n += fn_[b];
        if has_h {
            left_h += fh[b];
        }
        if ((n_total - left_n) as usize) < params.min_child_count {
            break;
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
/// first). Branch-free: every element is written to both sides and only
/// the side it belongs to advances.
fn stable_partition(xs: &mut [u32], scratch: &mut Vec<u32>, pred: impl Fn(u32) -> bool) -> usize {
    scratch.clear();
    scratch.resize(xs.len(), 0);
    let (mut left, mut right) = (0usize, 0usize);
    for k in 0..xs.len() {
        let x = xs[k];
        let goes_left = pred(x);
        xs[left] = x;
        scratch[right] = x;
        left += goes_left as usize;
        right += !goes_left as usize;
    }
    xs[left..].copy_from_slice(&scratch[..right]);
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    /// One tree grown on `data`'s labels as gradients, on one thread,
    /// with the leaf-propagated predictions it produced.
    fn grow_on(data: &Dataset, params: &GbmParams) -> (Tree, Vec<f32>) {
        let binned = Binned::build(data);
        let mut gains = vec![0.0; data.n_features()];
        let mut preds = vec![0f32; data.n_rows()];
        let mut grower = Grower::new(&binned, params, false, 1);
        let tree = lhr_util::sync::crew(0, grower.shard_work(), |crew| {
            grower.grow(crew, data.labels(), None, &mut gains, &mut preds)
        });
        (tree, preds)
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
        let (tree, _) = grow_on(&d, &params);
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
        let (tree, _) = grow_on(&d, &params);
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
        let (tree, _) = grow_on(&d, &params);
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
        let (tree, _) = grow_on(&d, &params);
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
        let (tree, _) = grow_on(&d, &params);
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
        let (tree, _) = grow_on(&d, &params);
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
        let (tree, preds) = grow_on(&d, &GbmParams::default());
        for i in 0..d.n_rows() {
            assert_eq!(
                preds[i].to_bits(),
                tree.predict(d.row(i)).to_bits(),
                "row {i} diverged"
            );
        }
    }
}

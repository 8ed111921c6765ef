//! The LHR cache (§4, §5): admission and eviction driven by a learned
//! admission probability that imitates HRO.

use crate::detect::ZipfDetector;
use crate::features::FeatureStore;
use crate::hazard::hro_top_set;
use crate::threshold::{Scored, ThresholdEstimator};
use crate::window::{WindowData, WindowTracker};
use lhr_gbm::{Dataset, Gbm, GbmParams};
use lhr_obs::{Event, EventKind, Obs};
use lhr_sim::store::SampleStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{Request, Time};
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// Which eviction rule LHR applies (§5.2.5 discusses both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionRule {
    /// The paper's full rule: evict the smallest `q_i = p_i / (s_i · IRT₁)`.
    QSizeIrt,
    /// The "straightforward" baseline rule: evict the smallest `p_i`.
    MinP,
}

/// Configuration for [`LhrCache`]. Defaults follow the paper's §7.1
/// settings; the `d_lhr`/`n_lhr` presets build the §7.4 ablations.
#[derive(Debug, Clone)]
pub struct LhrConfig {
    /// Sliding-window size as a multiple of the cache capacity in unique
    /// bytes (paper default: 4×, swept in Figure 5).
    pub window_multiplier: f64,
    /// Number of inter-request-time features (paper default: 20, swept in
    /// Figure 6). A row is these and three static features, and the model
    /// reads at most [`lhr_gbm::MAX_FEATURES`] columns, so at most 61.
    pub n_irts: usize,
    /// `Some(δ)` pins the admission threshold (D-LHR uses 0.5); `None`
    /// enables the auto-tuned estimator.
    pub fixed_threshold: Option<f64>,
    /// When false, the model retrains after *every* window (N-LHR).
    pub detection: bool,
    /// Gradient-boosting hyperparameters.
    pub gbm: GbmParams,
    /// Eviction candidate sample size.
    pub eviction_sample: usize,
    /// Eviction rule (the full `q` rule by default).
    pub eviction_rule: EvictionRule,
    /// Cap on training rows per retraining (windows larger than this are
    /// subsampled uniformly — §5.2.3 observes half the window suffices).
    pub max_train_rows: usize,
    /// Number of recent completed windows whose labeled samples feed a
    /// retraining (newest first, truncated at `max_train_rows`). More than
    /// one window matters when windows are small relative to the feature
    /// space; the labels are still HRO's per-window decisions.
    pub train_window_history: usize,
    /// Minimum requests per sliding window. The unique-bytes rule alone
    /// produces windows of tens of thousands of requests at the paper's
    /// full scale; this floor keeps reduced-scale windows trainable.
    pub min_window_requests: usize,
    /// Re-score every hit, as the paper's Algorithm 1 does (E-LHR). When
    /// false — the default — the model is consulted where its answer is
    /// read: a cached object keeps the probability it was admitted with,
    /// and a hit only refreshes `last_access` (the `q` rule's IRT₁) and the
    /// feature ring. With nothing to score on a hit, a window also renders
    /// feature rows only where they will be read (DESIGN.md, "LHR hot
    /// path"); when true every request renders one.
    pub rescore_hits: bool,
    /// PRNG seed (sampled eviction).
    pub seed: u64,
    /// Display-name override (the ablation presets set this).
    pub name: Option<&'static str>,
}

impl Default for LhrConfig {
    fn default() -> Self {
        LhrConfig {
            window_multiplier: 4.0,
            n_irts: 20,
            fixed_threshold: None,
            detection: true,
            gbm: GbmParams {
                n_trees: 25,
                max_depth: 6,
                ..GbmParams::default()
            },
            eviction_sample: 64,
            eviction_rule: EvictionRule::QSizeIrt,
            max_train_rows: 32_768,
            train_window_history: 2,
            min_window_requests: 4_096,
            rescore_hits: false,
            seed: 0,
            name: None,
        }
    }
}

impl LhrConfig {
    /// D-LHR (§7.4): LHR with the threshold fixed at 0.5 — isolates the
    /// contribution of the estimation algorithm.
    pub fn d_lhr() -> Self {
        LhrConfig {
            fixed_threshold: Some(0.5),
            name: Some("D-LHR"),
            ..LhrConfig::default()
        }
    }

    /// N-LHR (§7.4): D-LHR without the detection mechanism (retrains every
    /// window) — isolates the contribution of detection.
    pub fn n_lhr() -> Self {
        LhrConfig {
            fixed_threshold: Some(0.5),
            detection: false,
            name: Some("N-LHR"),
            ..LhrConfig::default()
        }
    }

    /// E-LHR: the paper-literal algorithm — every request renders a
    /// feature row and every hit is re-scored. What `LHR` ran as before
    /// admission-only scoring became the default; kept as the ablation row
    /// that prices that default and as the oracle the pre-existing LHR
    /// goldens hold.
    pub fn eager() -> Self {
        LhrConfig {
            rescore_hits: true,
            name: Some("E-LHR"),
            ..LhrConfig::default()
        }
    }
}

/// Counters exposed for the §7.4 ablation study (Figure 10) and Figure 9.
#[derive(Debug, Clone, Default)]
pub struct LhrStats {
    /// Model retrainings performed.
    pub trainings: u64,
    /// Windows observed.
    pub windows: u64,
    /// Wall-clock seconds spent inside `Gbm::fit`.
    pub train_wall_secs: f64,
    /// Threshold updates adopted by the estimator.
    pub threshold_updates: u64,
    /// Final admission threshold δ.
    pub final_threshold: f64,
}

/// The LHR cache policy.
pub struct LhrCache {
    config: LhrConfig,
    display_name: &'static str,

    /// The cached objects, each slot carrying what the eviction rule
    /// scores it by, so the sampled candidates are read straight out of
    /// the slot array (the size_lru layout), not through the id map.
    store: SampleStore<Scored>,

    features: FeatureStore,
    window: WindowTracker,
    /// Feature rows of the in-progress window's requests 0, `row_every`,
    /// 2·`row_every`, … (training inputs, and the threshold estimator's
    /// when that is all of them) — a flat row-major matrix with
    /// `features.n_features()` columns, reused window to window. Its
    /// capacity follows the window it serves: once an edge has read the
    /// rows (the labels, and on a threshold edge the sample's scores), the
    /// matrix is resized in place to the next window's share at its
    /// `row_every`, for a window up to 1.5× the closed one's length. Only
    /// a window longer than that grows it on the serve path.
    window_rows: Vec<f32>,
    /// Which requests of the in-progress window keep their feature row:
    /// every `row_every`-th. Fixed when the window opens
    /// ([`Self::plan_rows`]), so the sample is a function of request
    /// indices alone, identical at any thread count. It is 1 — a row per
    /// request — when every hit is re-scored anyway, and when the window's
    /// edge will read every row; otherwise it is the training stride, and
    /// the other requests render a row only to be scored (misses).
    row_every: usize,
    /// Labeled samples of recently completed windows, newest last:
    /// `(flat row matrix, labels)` per window.
    labeled_history: std::collections::VecDeque<(Vec<f32>, Vec<f32>)>,
    model: Option<Gbm>,
    /// A retraining scheduled at one window edge and fit at a later one:
    /// its due window. The first edge at or past it builds the set from
    /// the history, fits it and installs the model (`install_due_model`).
    pending: Option<u64>,
    /// Retrained models installed so far (the `ModelSwap` epoch).
    epoch: u64,
    detector: ZipfDetector,
    threshold: ThresholdEstimator,
    rng: SmallRng,

    stats: LhrStats,
    obs: Option<Obs>,
}

impl LhrCache {
    /// A fresh LHR cache of `capacity` bytes.
    pub fn new(capacity: u64, config: LhrConfig) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let features = FeatureStore::new(config.n_irts);
        assert!(
            features.n_features() <= lhr_gbm::MAX_FEATURES,
            "{} IRT features make rows wider than the model's {} columns",
            config.n_irts,
            lhr_gbm::MAX_FEATURES
        );
        let target = ((capacity as f64 * config.window_multiplier) as u64).max(1);
        let mut threshold = ThresholdEstimator::default();
        if let Some(delta) = config.fixed_threshold {
            threshold.delta = delta;
        }
        LhrCache {
            store: SampleStore::new(capacity),
            display_name: config.name.unwrap_or("LHR"),
            features,
            window: WindowTracker::with_min_requests(target, config.min_window_requests),
            window_rows: Vec::new(),
            // The bootstrap window: no model yet, every row trains or is
            // evaluated at its edge.
            row_every: 1,
            labeled_history: std::collections::VecDeque::new(),
            model: None,
            pending: None,
            epoch: 0,
            detector: ZipfDetector::default(),
            threshold,
            rng: SmallRng::seed_from_u64(config.seed ^ 0x1117),
            stats: LhrStats::default(),
            obs: None,
            config,
        }
    }

    /// Attaches an observability recorder: the learning loop emits
    /// `Detect` / `Retrain` / `ModelSwap` / `ThresholdUpdate` events,
    /// profiling spans
    /// around detection, labeling, and training, and the `lhr.threshold`
    /// gauge. Wall-clock event fields are zeroed when the recorder is in
    /// deterministic mode.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// In-place form of [`LhrCache::with_obs`].
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// Ablation / experiment counters.
    pub fn stats(&self) -> LhrStats {
        let mut s = self.stats.clone();
        s.threshold_updates = self.threshold.updates;
        s.final_threshold = self.threshold.delta;
        s
    }

    /// Current admission threshold δ.
    pub fn delta(&self) -> f64 {
        self.threshold.delta
    }

    fn predict(&self, row: &[f32]) -> f64 {
        match &self.model {
            Some(model) => model.predict_probability(row),
            // Before the first training window completes LHR admits
            // everything (§5.1: the algorithm executes from the second
            // window onwards).
            None => 1.0,
        }
    }

    /// Every how many requests of a window of `len` one is labeled for
    /// training, so the retained history stays within `max_train_rows`.
    fn train_stride(&self, len: usize) -> usize {
        let per_window_cap =
            (self.config.max_train_rows / self.config.train_window_history.max(1)).max(1);
        (len / per_window_cap).max(1)
    }

    /// `row_every` for window `index`, decided as it opens; `prev_len` is
    /// the length of the window that just closed. Three things make a
    /// window keep a row per request: hits are re-scored (E-LHR), so each
    /// request renders one anyway; there is no model yet (the bootstrap
    /// window has no predecessor to take a stride from, and its edge
    /// evaluates the threshold); or its edge will evaluate the threshold on
    /// a fresh model — a retrained one whose install is pinned to it.
    fn plan_rows(&self, index: u64, prev_len: usize) -> usize {
        let edge_evaluates_threshold =
            self.config.fixed_threshold.is_none() && self.pending.is_some_and(|due| due <= index);
        if self.config.rescore_hits || self.model.is_none() || edge_evaluates_threshold {
            1
        } else {
            self.train_stride(prev_len)
        }
    }

    /// Sampled min-`q` eviction: `q_i = p_i / (s_i · IRT₁)` (§5.2.5).
    /// Contents whose stored probability fell below δ (the paper's
    /// *eviction candidates*) are preferred when present in the sample.
    fn evict_one(&mut self, now: Time) {
        debug_assert!(!self.store.is_empty());
        let n = self.store.len();
        let k = self.config.eviction_sample.min(n).max(1);
        let delta = self.threshold.delta;
        let mut best_candidate: Option<(f64, usize)> = None;
        let mut best_any: Option<(f64, usize)> = None;
        for _ in 0..k {
            let pos = self.rng.gen_range(0..n);
            let slot = self.store.slot(pos);
            let q = match self.config.eviction_rule {
                EvictionRule::QSizeIrt => slot.entry.q(slot.size, now),
                EvictionRule::MinP => slot.entry.prob,
            };
            if slot.entry.prob < delta && best_candidate.is_none_or(|(bq, _)| q < bq) {
                best_candidate = Some((q, pos));
            }
            if best_any.is_none_or(|(bq, _)| q < bq) {
                best_any = Some((q, pos));
            }
        }
        let pos = best_candidate.or(best_any).expect("k >= 1").1;
        self.store.evict_at(pos);
    }

    fn admit(&mut self, req: &Request, prob: f64) {
        while !self.store.fits(req.size) {
            self.evict_one(req.ts);
        }
        let scored = Scored {
            prob,
            last_access: req.ts,
        };
        self.store.push(req.id, req.size, req.ts, scored);
    }

    /// Window finalization: due-model install → detection → (re)training
    /// → threshold update (Algorithm 1, with a retraining's fit deferred to
    /// the next window edge).
    fn finalize_window(&mut self, done: WindowData) {
        self.stats.windows += 1;
        let closer = *done.requests.last().expect("a window closes on a request");
        // The closing request counts as the next window's for pruning.
        self.features.mark_closing(closer.id);
        let t_end = closer.ts.as_secs_f64();
        // A retraining whose install was pinned to this edge is fit and
        // activates before anything else looks at the window.
        let installed = self.install_due_model(done.index, t_end);
        let objects = done.objects();
        let detection = {
            let _detect_span = self.obs.as_ref().map(|o| o.span("lhr.detect"));
            self.detector.observe(&objects)
        };
        if let Some(obs) = &self.obs {
            obs.counter_add("lhr.windows", 1);
            obs.emit(
                Event::new(t_end, EventKind::Detect)
                    .field("window", done.index)
                    .field("alpha", detection.alpha)
                    .field("retrain", detection.retrain),
            );
        }
        let retrain = self.model.is_none()
            || (if self.config.detection {
                detection.retrain
            } else {
                true
            });

        // Label the window with HRO's decisions regardless of whether we
        // retrain now — later retrains draw on it. Stored rows are
        // subsampled so the retained history never exceeds
        // `max_train_rows` rows in total.
        let n_feat = self.features.n_features();
        let n_reqs = done.requests.len();
        debug_assert_eq!(
            n_reqs.div_ceil(self.row_every) * n_feat,
            self.window_rows.len()
        );
        let label_span = self.obs.as_ref().map(|o| o.span("lhr.label"));
        let top = hro_top_set(&objects, done.span_secs(), self.store.capacity());
        let mut rows = std::mem::take(&mut self.window_rows);
        // The window kept the rows of requests 0, `row_every`, …; one that
        // kept them all is thinned here, to its own length's stride.
        let thin = if self.row_every == 1 {
            self.train_stride(n_reqs)
        } else {
            1
        };
        let stride = self.row_every * thin;
        let mut kept_rows = Vec::with_capacity((n_reqs / stride + 1) * n_feat);
        let mut kept_labels = Vec::with_capacity(n_reqs / stride + 1);
        for (row, req) in rows
            .chunks_exact(n_feat)
            .step_by(thin)
            .zip(done.requests.iter().step_by(stride))
        {
            kept_labels.push(if top.contains(&req.id) { 1.0 } else { 0.0 });
            kept_rows.extend_from_slice(row);
        }
        self.labeled_history.push_back((kept_rows, kept_labels));
        while self.labeled_history.len() > self.config.train_window_history.max(1) {
            self.labeled_history.pop_front();
        }
        drop(label_span);

        // A fresh model (installed above, or trained inline below) gets a
        // threshold evaluation on this window's rows.
        let mut fresh_model = installed;
        if retrain {
            let trained = if self.model.is_none() {
                // Bootstrap: train inline at this edge — LHR cannot serve
                // its second window unscored.
                let trained = self.train();
                fresh_model |= trained.is_some();
                trained
            } else {
                // Retraining: the set is fit and installed at the next
                // window edge, and the previous one was installed at this
                // one, so none is ever pending here. Wall time is reported
                // on the ModelSwap event at install.
                self.schedule_train(done.index).map(|rows| (rows, 0.0))
            };
            if let (Some(obs), Some((rows, wall_secs))) = (self.obs.as_ref(), trained) {
                obs.emit(
                    Event::new(t_end, EventKind::Retrain)
                        .field("window", done.index)
                        .field("rows", rows as u64)
                        .field("trainings", self.stats.trainings)
                        .field(
                            "wall_secs",
                            if obs.deterministic() { 0.0 } else { wall_secs },
                        ),
                );
            }
        }
        // The next window's stride is fixed now: the model and any pending
        // retraining are what they will be when it opens.
        let next_every = self.plan_rows(done.index + 1, n_reqs);
        let evaluate = fresh_model && self.config.fixed_threshold.is_none();
        // The shadow evaluation reads each request of the estimator's
        // sample — the window's leading requests — beside the fresh
        // model's probability for its feature row (from the full `rows`,
        // not the subsampled training copy), scored in one batch (and
        // thread-parallel) straight off the flat matrix instead of
        // row-at-a-time. The span covers the whole evaluation: scoring and
        // the shadows.
        let threshold_span = match (evaluate, &self.obs) {
            (true, Some(obs)) => Some(obs.span("lhr.threshold")),
            _ => None,
        };
        let probs = evaluate.then(|| {
            assert_eq!(
                rows.len(),
                n_reqs * n_feat,
                "a window whose edge evaluates the threshold keeps every row"
            );
            let sample = ThresholdEstimator::sample_len(n_reqs);
            let model = self.model.as_ref().expect("a fresh model is installed");
            model.score_admissions(&rows[..sample * n_feat], n_feat, self.config.gbm.threads)
        });
        // Nothing reads the rows past this point, so the matrix goes back
        // to the next window at the size that window needs: its kept rows
        // at `next_every` for a window up to 1.5× the closed one's length
        // or the window floor (consecutive windows of `bin-lhr-shift`
        // differ by up to 26 %), one scored row that is not kept, and one
        // to spare. A window that keeps every row keeps a larger capacity
        // it already has. Shrunk in place, not freed: freeing a large block
        // raises glibc's mmap threshold, and the process then peaks higher
        // (DESIGN.md "LHR hot path").
        let next_len = n_reqs.max(self.config.min_window_requests);
        let next_rows = (next_len + next_len / 2) / next_every + 2;
        rows.clear();
        if next_every > 1 {
            rows.shrink_to(next_rows * n_feat);
        }
        rows.reserve_exact(next_rows * n_feat);
        self.window_rows = rows;
        self.row_every = next_every;
        if let Some(probs) = probs {
            let old_delta = self.threshold.delta;
            let old_updates = self.threshold.updates;
            self.threshold.update(
                &done.requests[..probs.len()],
                &probs,
                &self.store,
                self.config.gbm.threads,
            );
            drop(threshold_span);
            if let Some(obs) = &self.obs {
                if self.threshold.updates > old_updates {
                    obs.emit(
                        Event::new(t_end, EventKind::ThresholdUpdate)
                            .field("window", done.index)
                            .field("old", old_delta)
                            .field("new", self.threshold.delta),
                    );
                }
            }
        }
        if let Some(obs) = &self.obs {
            obs.gauge_set("lhr.threshold", self.threshold.delta);
        }

        // Keep feature history for a few windows back (§5.1).
        self.features.prune_before(done.index.saturating_sub(3));
        // The tracker reopens the next window on `done`'s log: with the
        // row matrix above, the only steady-state allocations left are the
        // window-edge ones (labeling, scoring, training).
        self.window.recycle(done);
    }

    /// Builds the training set from HRO's decisions over the recent
    /// windows (§5.2.4: squared-error regression on the 0/1 HRO labels),
    /// newest window first, truncated at `max_train_rows`. `None` when no
    /// labeled rows exist yet.
    fn build_train_data(&self) -> Option<Dataset> {
        let n_feat = self.features.n_features();
        let (total, stride) = self.history_rows()?;
        let mut data = Dataset::new(n_feat);
        data.reserve(total / stride + 1);
        let mut i = 0usize;
        for (rows, labels) in self.labeled_history.iter().rev() {
            for (row, &label) in rows.chunks_exact(n_feat).zip(labels.iter()) {
                if i.is_multiple_of(stride) {
                    data.push_row(row, label);
                }
                i += 1;
            }
        }
        Some(data)
    }

    /// The labeled rows held and the stride that keeps a training set of
    /// them within `max_train_rows`; `None` when there are none.
    fn history_rows(&self) -> Option<(usize, usize)> {
        let total: usize = self.labeled_history.iter().map(|(_, l)| l.len()).sum();
        (total > 0).then(|| (total, (total / self.config.max_train_rows.max(1)).max(1)))
    }

    /// Trains the bootstrap admission model inline. Returns
    /// `(rows_trained, wall_secs)` when a model was actually fit.
    fn train(&mut self) -> Option<(usize, f64)> {
        let data = self.build_train_data()?;
        let n_rows = data.n_rows();
        let t0 = std::time::Instant::now();
        self.model = Some(Gbm::fit_traced(&data, &self.config.gbm, self.obs.as_ref()));
        let wall_secs = t0.elapsed().as_secs_f64();
        self.stats.train_wall_secs += wall_secs;
        self.stats.trainings += 1;
        Some((n_rows, wall_secs))
    }

    /// Schedules a retraining triggered at `window`: its training set is
    /// fit and installed at the next window edge, so which window's data
    /// trains a model and which edge activates it are both fixed by window
    /// index. Returns the training-set size when there is a set to fit.
    fn schedule_train(&mut self, window: u64) -> Option<usize> {
        debug_assert!(self.pending.is_none(), "one retraining pending at most");
        let (total, stride) = self.history_rows()?;
        self.pending = Some(window + 1);
        self.stats.trainings += 1;
        Some(total.div_ceil(stride))
    }

    /// At the edge of window `window`: if the pending retraining is due
    /// (`window` at or past its due window), builds its set — from the
    /// history it was scheduled on, as no edge labels a window before this
    /// runs — fits it, swaps the model into the serving path and emits a
    /// `ModelSwap` event. Returns whether a swap happened.
    fn install_due_model(&mut self, window: u64, t_end: f64) -> bool {
        if self.pending.take_if(|due| window >= *due).is_none() {
            return false;
        }
        let data = self
            .build_train_data()
            .expect("a retraining is scheduled on a non-empty history");
        // Unlike the bootstrap's, this fit records no spans: the export's
        // span tree holds the bootstrap fit alone, and the counters below
        // account for this one.
        let t0 = std::time::Instant::now();
        let model = Gbm::fit(&data, &self.config.gbm);
        let wall_secs = t0.elapsed().as_secs_f64();
        self.stats.train_wall_secs += wall_secs;
        self.epoch += 1;
        if let Some(obs) = &self.obs {
            obs.counter_add("gbm.fits", 1);
            obs.counter_add("gbm.trees", model.n_trees() as u64);
            obs.emit(
                Event::new(t_end, EventKind::ModelSwap)
                    .field("window", window)
                    .field("rows", data.n_rows() as u64)
                    .field("epoch", self.epoch)
                    .field(
                        "wall_secs",
                        if obs.deterministic() { 0.0 } else { wall_secs },
                    ),
            );
        }
        self.model = Some(model);
        true
    }

    /// The body of [`CachePolicy::handle`], given where `req.id` sits in
    /// `store` (`None`: not cached) — probed by the caller, before
    /// anything here runs; nothing before the cache decision moves an
    /// entry.
    fn handle_at(&mut self, req: &Request, cached: Option<usize>) -> Outcome {
        // 1. The request is recorded in the feature store, and its row — the
        //    features as of this request (IRT₁ = time since the previous
        //    one) — is rendered only if it will be read: kept for the
        //    window's edge (`row_every`), or scored now (a miss; every
        //    request under `rescore_hits`). A row is rendered in place onto
        //    the tail of the window's flat row matrix — no per-request
        //    allocation (the matrix only grows in the bootstrap window and
        //    in one over 1.5× its predecessor's length) — in the one probe
        //    of the object map that records the request and reads its window
        //    stamp; a scored row the window does not keep is dropped again.
        let nth = self.window.current_len();
        let window_idx = self.window.current_index();
        let keep_row = self.row_every == 1 || nth.is_multiple_of(self.row_every);
        let score = cached.is_none() || self.config.rescore_hits;
        let render = keep_row || score;
        let start = self.window_rows.len();
        if render {
            self.window_rows
                .resize(start + self.features.n_features(), f32::NAN);
        }
        let row = render.then(|| &mut self.window_rows[start..]);
        let first = self
            .features
            .observe(req.id, req.size, req.ts, window_idx, row);
        let prob = score.then(|| self.predict(&self.window_rows[start..]));
        if render && !keep_row {
            self.window_rows.truncate(start);
        }

        // 2. Window bookkeeping: the stamp said if the object is new to it.
        let completed = self.window.observe(req, first);

        // 3. Cache decision (§4.1's four cases).
        let delta = self.threshold.delta;
        let outcome = match (cached, prob) {
            (Some(pos), prob) => {
                // Cases (i)/(ii): refresh IRT₁, and ℒ when the hit was
                // re-scored; candidacy (p < δ) is re-derived at eviction
                // time from the stored probability.
                let entry = self.store.entry_mut(pos);
                entry.prob = prob.unwrap_or(entry.prob);
                entry.last_access = req.ts;
                Outcome::Hit
            }
            // Case (iii): admit.
            (None, Some(prob)) if prob >= delta && req.size <= self.store.capacity() => {
                self.admit(req, prob);
                Outcome::MissAdmitted
            }
            // Case (iv): discard.
            (None, _) => Outcome::MissBypassed,
        };

        // 4. End-of-window work happens after the request is served.
        if let Some(done) = completed {
            self.finalize_window(done);
        }
        outcome
    }
}

impl CachePolicy for LhrCache {
    fn name(&self) -> &str {
        self.display_name
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        let cached = self.store.position(req.id);
        self.handle_at(req, cached)
    }

    /// One probe of the store per hit: the position found here is handed
    /// to the shared handle body instead of being looked up again there.
    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        let pos = self.store.position(req.id)?;
        Some(self.handle_at(req, Some(pos)))
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        let model = self
            .model
            .as_ref()
            .map_or(0, |m| m.approx_size_bytes() as u64);
        // Labeled history: the rows plus a 4-byte label each.
        let history_floats: usize = self
            .labeled_history
            .iter()
            .map(|(rows, labels)| rows.len() + labels.len())
            .sum();
        // Per cached object: a 32-byte entry plus its index slot (key,
        // position, control byte, table slack).
        self.store.len() as u64 * 64
            + self.features.overhead_bytes()
            + self.window.overhead_bytes()
            + ((self.window_rows.len() + history_floats) * 4) as u64
            + model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_sim::{SimConfig, Simulator};
    use lhr_trace::synth::{IrmConfig, SizeModel};
    use lhr_trace::Trace;

    fn zipf_trace(seed: u64) -> Trace {
        IrmConfig::new(400, 30_000)
            .zipf_alpha(1.0)
            .size_model(SizeModel::BoundedPareto {
                alpha: 1.2,
                min: 1_000,
                max: 100_000,
            })
            .seed(seed)
            .generate()
    }

    #[test]
    fn runs_and_trains_on_a_zipf_trace() {
        let trace = zipf_trace(1);
        // Capacity a small fraction of the working set (the paper's regime:
        // cache ≈ 6% of unique bytes) so several windows complete.
        let mut cache = LhrCache::new(120_000, LhrConfig::default());
        let result = Simulator::new(SimConfig::default()).run(&mut cache, &trace);
        assert!(cache.stats().trainings >= 1, "model never trained");
        assert!(
            result.metrics.object_hit_ratio() > 0.1,
            "{}",
            result.metrics.object_hit_ratio()
        );
    }

    #[test]
    fn rows_as_wide_as_the_model_reads_are_accepted_and_wider_refused() {
        let config = |n_irts| LhrConfig {
            n_irts,
            ..LhrConfig::default()
        };
        LhrCache::new(1_000, config(61));
        let wider = std::panic::catch_unwind(|| LhrCache::new(1_000, config(62)));
        assert!(wider.is_err(), "62 IRTs make 65 columns");
    }

    #[test]
    fn capacity_never_exceeded() {
        let trace = zipf_trace(2);
        let mut cache = LhrCache::new(150_000, LhrConfig::default());
        for req in trace.iter() {
            cache.handle(req);
            assert!(cache.used_bytes() <= cache.capacity());
        }
        assert!(cache.evictions() > 0);
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)]
    fn beats_unpopular_admission_of_plain_lru_on_one_hit_heavy_trace() {
        use lhr_policies::Lru;
        // Trace with a hot set + a flood of one-hit wonders: LHR's learned
        // admission should outperform admit-all LRU.
        let mut reqs = Vec::new();
        let mut t = 0u64;
        let mut cold = 10_000u64;
        for round in 0..4_000u64 {
            for hot in 0..6u64 {
                reqs.push(Request::new(Time::from_secs(t), hot, 20_000));
                t += 1;
            }
            let _ = round;
            reqs.push(Request::new(Time::from_secs(t), cold, 20_000));
            cold += 1;
            t += 1;
        }
        let trace = Trace::from_requests("hot+cold", reqs);
        let capacity = 100_000; // fits the 6-object hot set (120 KB > cap ⇒ 5 of 6)
        let cfg = SimConfig {
            warmup_requests: 7_000,
        };
        let mut lhr = LhrCache::new(capacity, LhrConfig::default());
        let lhr_result = Simulator::new(cfg.clone()).run(&mut lhr, &trace);
        let mut lru = Lru::new(capacity);
        let lru_result = Simulator::new(cfg).run(&mut lru, &trace);
        assert!(
            lhr_result.metrics.object_hit_ratio() > lru_result.metrics.object_hit_ratio(),
            "LHR {} ≤ LRU {}",
            lhr_result.metrics.object_hit_ratio(),
            lru_result.metrics.object_hit_ratio()
        );
    }

    #[test]
    fn d_lhr_keeps_fixed_threshold() {
        let trace = zipf_trace(3);
        let mut cache = LhrCache::new(300_000, LhrConfig::d_lhr());
        Simulator::new(SimConfig::default()).run(&mut cache, &trace);
        assert_eq!(cache.delta(), 0.5);
        assert_eq!(cache.stats().threshold_updates, 0);
        assert_eq!(cache.name(), "D-LHR");
    }

    #[test]
    fn n_lhr_retrains_every_window() {
        let trace = zipf_trace(4);
        let mut d = LhrCache::new(200_000, LhrConfig::d_lhr());
        Simulator::new(SimConfig::default()).run(&mut d, &trace);
        let mut n = LhrCache::new(200_000, LhrConfig::n_lhr());
        Simulator::new(SimConfig::default()).run(&mut n, &trace);
        let (ds, ns) = (d.stats(), n.stats());
        assert_eq!(ns.trainings, ns.windows, "N-LHR must retrain every window");
        assert!(
            ds.trainings <= ns.trainings,
            "detection should not increase trainings: {} vs {}",
            ds.trainings,
            ns.trainings
        );
        assert_eq!(n.name(), "N-LHR");
    }

    #[test]
    fn first_window_admits_everything() {
        let mut cache = LhrCache::new(1 << 30, LhrConfig::default());
        let r = Request::new(Time::from_secs(0), 1, 100);
        assert_eq!(cache.handle(&r), Outcome::MissAdmitted);
    }

    #[test]
    fn oversized_objects_bypassed() {
        let mut cache = LhrCache::new(1_000, LhrConfig::default());
        let r = Request::new(Time::from_secs(0), 1, 2_000);
        assert_eq!(cache.handle(&r), Outcome::MissBypassed);
    }

    #[test]
    fn deterministic_per_seed() {
        let trace = zipf_trace(5);
        let run = |seed| {
            let mut cache = LhrCache::new(
                250_000,
                LhrConfig {
                    seed,
                    ..LhrConfig::default()
                },
            );
            let r = Simulator::new(SimConfig::default()).run(&mut cache, &trace);
            (r.metrics.hits, cache.stats().trainings)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn obs_records_the_learning_loop() {
        use lhr_obs::{EventKind, Obs, ObsConfig};
        let trace = zipf_trace(8);
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        });
        let mut cache = LhrCache::new(120_000, LhrConfig::default()).with_obs(obs.clone());
        Simulator::new(SimConfig::default())
            .with_obs(obs.clone())
            .run(&mut cache, &trace);
        let stats = cache.stats();
        let events = obs.events();
        let detects = events
            .iter()
            .filter(|e| e.kind == EventKind::Detect)
            .count() as u64;
        let retrains = events
            .iter()
            .filter(|e| e.kind == EventKind::Retrain)
            .count() as u64;
        assert_eq!(detects, stats.windows, "one Detect per completed window");
        assert_eq!(retrains, stats.trainings, "one Retrain per training");
        // Deterministic mode: every Retrain reports zero wall-clock.
        for e in events.iter().filter(|e| e.kind == EventKind::Retrain) {
            assert_eq!(e.get("wall_secs").and_then(|v| v.as_f64()), Some(0.0));
        }
        let jsonl = obs.to_jsonl();
        assert!(jsonl.contains("\"name\":\"lhr.threshold\""), "{jsonl}");
        assert!(jsonl.contains("\"path\":\"sim.run/lhr.detect\""), "{jsonl}");
        assert!(
            jsonl.contains("\"path\":\"sim.run/gbm.fit/gbm.tree\""),
            "{jsonl}"
        );
    }

    #[test]
    fn retraining_installs_at_the_pinned_window_edge() {
        use lhr_obs::{Obs, ObsConfig, ObsRecord};
        let trace = zipf_trace(9);
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        });
        let mut cache = LhrCache::new(120_000, LhrConfig::n_lhr()).with_obs(obs.clone());
        // The model a plain `Gbm::fit` makes of the set scheduled at the
        // last edge, and that edge's window.
        let mut scheduled: Option<(u64, String)> = None;
        let mut installs = 0;
        for req in trace.iter() {
            let windows = cache.stats.windows;
            cache.handle(req);
            if cache.stats.windows == windows {
                continue;
            }
            let edge = windows; // the index of the window that just closed
            if edge == 0 {
                assert!(cache.pending.is_none(), "the bootstrap fits inline");
                continue;
            }
            if let Some((w, expect)) = scheduled.take() {
                // (a) The set scheduled at w is what is serving from w + 1.
                assert_eq!(edge, w + 1);
                let model = cache.model.as_ref().expect("installed");
                assert_eq!(model.to_json_string(), expect, "window {edge}");
                installs += 1;
            }
            let due = cache
                .pending
                .expect("N-LHR schedules at every edge; the set waits for the next");
            assert_eq!(due, edge + 1, "pinned to the next edge");
            let data = cache.build_train_data().expect("a non-empty history");
            scheduled = Some((edge, Gbm::fit(&data, &cache.config.gbm).to_json_string()));
        }
        let stats = cache.stats();
        assert!(installs >= 2, "need several installs: {installs}");
        let events = obs.events();
        let swaps: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::ModelSwap)
            .collect();
        // N-LHR schedules at every edge; every set except the last installs
        // one window later.
        assert_eq!(swaps.len() as u64, stats.windows - 2);
        for (k, swap) in swaps.iter().enumerate() {
            // Scheduled at window w ≥ 1, installed at w + 1 ⇒ the k-th swap
            // lands exactly at window k + 2.
            assert_eq!(
                swap.get("window").and_then(|v| v.as_f64()),
                Some((k + 2) as f64)
            );
            assert_eq!(
                swap.get("epoch").and_then(|v| v.as_f64()),
                Some((k + 1) as f64)
            );
            assert_eq!(swap.get("wall_secs").and_then(|v| v.as_f64()), Some(0.0));
            // The Retrain event at the scheduling edge counted the rows the
            // install built and fit.
            let retrain = events
                .iter()
                .find(|e| {
                    e.kind == EventKind::Retrain
                        && e.get("window").and_then(|v| v.as_f64()) == Some((k + 1) as f64)
                })
                .expect("a Retrain at the scheduling edge");
            assert_eq!(retrain.get("rows"), swap.get("rows"));
        }
        // (c) The run ended with the last set pending: it counts as a
        // training but was never fit — `gbm.fits` holds the bootstrap and
        // the swaps alone.
        assert_eq!(stats.trainings, stats.windows);
        let fits = obs.records().into_iter().find_map(|r| match r {
            ObsRecord::Counter { name, value } if name == "gbm.fits" => Some(value),
            _ => None,
        });
        assert_eq!(fits, Some(1 + swaps.len() as u64));

        // (b) The set is not due at the edge that scheduled it, and any
        // edge at or past the due one installs it — a window index that
        // jumps past the pinned edge included — advancing the epoch.
        let due = cache.pending.expect("pending at run end");
        assert!(!cache.install_due_model(due - 1, 0.0));
        assert!(cache.install_due_model(due + 5, 0.0));
        assert!(cache.pending.is_none());
        let swap = obs.events().pop().expect("a ModelSwap");
        assert_eq!(swap.kind, EventKind::ModelSwap);
        assert_eq!(
            swap.get("window").and_then(|v| v.as_f64()),
            Some((due + 5) as f64)
        );
        assert_eq!(
            swap.get("epoch").and_then(|v| v.as_f64()),
            Some((swaps.len() + 1) as f64)
        );
    }

    /// The LHR instances of `tests/lhr_golden.rs` (each shard's stream of
    /// the trace, half the cache, the shard's seed) and of
    /// `tests/policy_golden.rs` at its smaller cache: (requests, capacity,
    /// seed).
    fn golden_setups() -> Vec<(Trace, u64, u64)> {
        use lhr_sim::shard::{shard_of, shard_seed};
        use lhr_trace::synth::markov::{self, MarkovConfig, PopularityState};
        let state = |reversed| PopularityState {
            alpha: 0.9,
            reversed,
        };
        let policy_golden = MarkovConfig {
            name: "policy-golden".into(),
            n_objects: 2_000,
            n_requests: 20_000,
            requests_per_state: 10_000,
            state_sequence: vec![0, 1],
            states: vec![state(false), state(true)],
            requests_per_sec: 50.0,
            size_model: SizeModel::BoundedPareto {
                alpha: 1.2,
                min: 1_000,
                max: 1_000_000,
            },
            seed: 17,
        }
        .generate();
        let lhr_golden = markov::syn_one(500, 40_000, 8_000, 0.9, 11);
        let mut setups: Vec<_> = (0..2)
            .map(|shard| {
                let stream = lhr_golden
                    .iter()
                    .filter(|r| shard_of(r.id, 2) == shard)
                    .copied()
                    .collect();
                let name = format!("lhr-golden shard {shard}");
                (
                    Trace::from_requests(&name, stream),
                    500_000,
                    shard_seed(42, shard),
                )
            })
            .collect();
        setups.push((policy_golden, 500_000, 42));
        setups
    }

    /// What one closed window held just before the request that closed it.
    struct ClosedWindow {
        row_every: usize,
        rows: usize,
        requests: usize,
        /// Whether its edge ran the threshold estimator.
        evaluated: bool,
        /// Whether its row matrix outgrew the capacity it opened with, on
        /// a request that did not close it.
        grew: bool,
    }

    /// Replays `trace`, looking into the cache around every window edge.
    fn probe(
        trace: &Trace,
        capacity: u64,
        config: LhrConfig,
    ) -> (LhrStats, f64, Vec<ClosedWindow>) {
        use lhr_obs::{Obs, ObsConfig, ObsRecord};
        let obs = Obs::new(ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        });
        let evaluations = |obs: &Obs| {
            let entered = |r: ObsRecord| match r {
                ObsRecord::Span(s) if s.path == "lhr.threshold" => Some(s.count),
                _ => None,
            };
            obs.records().into_iter().find_map(entered).unwrap_or(0)
        };
        let mut cache = LhrCache::new(capacity, config).with_obs(obs.clone());
        let n_feat = cache.features.n_features();
        let (mut hits, mut closed, mut evaluated) = (0usize, Vec::new(), 0);
        let mut opened_with = cache.window_rows.capacity();
        for req in trace.iter() {
            let before = ClosedWindow {
                row_every: cache.row_every,
                rows: cache.window_rows.len() / n_feat,
                requests: cache.window.current_len(),
                evaluated: false,
                grew: cache.window_rows.capacity() > opened_with,
            };
            let windows = cache.stats.windows;
            hits += cache.handle(req).is_hit() as usize;
            if cache.stats.windows > windows {
                // The estimator runs at window edges only.
                let so_far = evaluations(&obs);
                closed.push(ClosedWindow {
                    evaluated: so_far > evaluated,
                    ..before
                });
                evaluated = so_far;
                opened_with = cache.window_rows.capacity();
            }
        }
        (cache.stats(), hits as f64 / trace.len() as f64, closed)
    }

    #[test]
    fn lazy_path_keeps_the_learning_loop_of_the_eager_path_and_holds_fewer_rows() {
        for (trace, capacity, seed) in golden_setups() {
            let name = &trace.name;
            let config = |rescore_hits, max_train_rows| LhrConfig {
                seed,
                rescore_hits,
                max_train_rows,
                ..LhrConfig::default()
            };
            // (a) Windows close and retrains trigger on what the trace
            // holds, not on what the cache decided, so the two paths agree
            // on both; the hit ratios differ by what refreshing a stored
            // probability on hits is worth. (Threshold updates depend on the
            // cache's contents at each evaluation and do differ.)
            let shipped = LhrConfig::default().max_train_rows;
            let (lazy, lazy_hit, lazy_windows) = probe(&trace, capacity, config(false, shipped));
            let (eager, eager_hit, _) = probe(&trace, capacity, config(true, shipped));
            assert!(lazy.windows >= 3, "{name}: {} windows", lazy.windows);
            assert_eq!(lazy.windows, eager.windows, "{name}");
            assert_eq!(lazy.trainings, eager.trainings, "{name}");
            assert!(
                (lazy_hit - eager_hit).abs() < 0.005,
                "{name}: LHR {lazy_hit} vs E-LHR {eager_hit}"
            );
            // (b) A window whose edge ran the threshold estimator held one
            // row per request (and the bootstrap window is one of them).
            assert!(lazy_windows[0].evaluated, "{name}");
            for (i, w) in lazy_windows.iter().enumerate().filter(|(_, w)| w.evaluated) {
                assert_eq!((w.row_every, w.rows), (1, w.requests), "{name} window {i}");
            }

            // (c) With a training cap these windows exceed, the lazy path
            // keeps the stride's sample where the eager path keeps a row per
            // request.
            let (_, _, lazy_windows) = probe(&trace, capacity, config(false, 1_024));
            let (_, _, eager_windows) = probe(&trace, capacity, config(true, 1_024));
            let rows =
                |windows: &[ClosedWindow]| windows[1..].iter().map(|w| w.rows).sum::<usize>();
            assert!(
                rows(&lazy_windows) < rows(&eager_windows),
                "{name}: {} vs {} rows past the bootstrap window",
                rows(&lazy_windows),
                rows(&eager_windows)
            );
            for (i, w) in lazy_windows.iter().enumerate() {
                assert_eq!(
                    w.rows,
                    w.requests.div_ceil(w.row_every),
                    "{name} window {i}"
                );
                assert!(!w.evaluated || w.row_every == 1, "{name} window {i}");
            }
            assert!(lazy_windows.iter().any(|w| w.row_every > 1), "{name}");
            // (d) An edge sizes the matrix for a next window up to 1.5× its
            // own length or the window floor, so only a longer one grows it
            // while serving.
            for windows in [&lazy_windows, &eager_windows] {
                for (i, pair) in windows.windows(2).enumerate() {
                    let prev = (pair[0].requests + 1).max(LhrConfig::default().min_window_requests);
                    let w = &pair[1];
                    assert!(
                        !w.grew || w.requests + 1 > prev + prev / 2,
                        "{name} window {}: {} requests after {prev}",
                        i + 1,
                        w.requests + 1
                    );
                }
            }
            assert!(eager_windows.iter().all(|w| w.rows == w.requests), "{name}");
        }
    }

    #[test]
    fn stats_report_threshold() {
        let trace = zipf_trace(6);
        let mut cache = LhrCache::new(250_000, LhrConfig::default());
        Simulator::new(SimConfig::default()).run(&mut cache, &trace);
        let s = cache.stats();
        assert!((0.0..=1.0).contains(&s.final_threshold));
        assert!(s.windows > 0);
    }
}

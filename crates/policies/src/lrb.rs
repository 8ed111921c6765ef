//! LRB — Learning Relaxed Belady (Song et al., NSDI '20), reimplemented on
//! this workspace's GBM.
//!
//! LRB trains a regression model to predict each object's *time to next
//! request* and evicts, among a random sample of cached objects, the one
//! whose predicted next request is farthest away — approximating Belady
//! beyond the "Belady boundary". Faithful pieces kept here:
//!
//! - a **memory window**: per-object dynamic features (recent
//!   inter-request gaps, access count) are maintained for *every* object
//!   requested within the window, cached or not — this is what lets LRB
//!   relearn an evicted object's popularity, and why its metadata
//!   footprint is the largest of the learned policies (paper Figure 9);
//! - delayed labeling: a training sample is emitted when the object is
//!   re-requested (label = actual gap) or when it ages past the memory
//!   window (label = 2 × window, the "beyond boundary" bucket);
//! - sampled eviction (64 candidates) by maximum predicted next access;
//! - admit-all admission (LRB controls only eviction).
//!
//! Differences from the paper's system (documented in DESIGN.md): GBM
//! hyperparameters are this crate's defaults, exponentially-decayed
//! counters are replaced by the access count, and the memory window is a
//! fixed constructor parameter instead of being auto-tuned.

use lhr_gbm::{Dataset, Gbm, GbmParams};
use lhr_sim::store::SampleStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// Number of recent inter-request gaps kept per object (LRB's 32 deltas).
const N_DELTAS: usize = 32;
/// Number of exponentially-decayed counters per object (LRB's 10 EDCs).
const N_EDCS: usize = 10;
/// Feature vector width: log-size, log-access-count, gaps, EDCs.
const N_FEATURES: usize = 2 + N_DELTAS + N_EDCS;
/// Eviction sample size.
const SAMPLE: usize = 64;

#[derive(Debug, Clone)]
struct Meta {
    size: u64,
    last_access: Time,
    access_count: u64,
    /// Most recent inter-request gaps in seconds, newest first.
    deltas: Vec<f32>,
    /// Exponentially decayed request counters over geometrically spaced
    /// horizons: `EDC_k ← 1 + EDC_k · 2^(−Δ/τ_k)` on each request.
    edcs: [f32; N_EDCS],
}

impl Meta {
    /// Features *as of `now`*: the elapsed time since the last access
    /// becomes the freshest gap (this is how LRB evaluates cached
    /// candidates at eviction time).
    fn features(&self, now: Time) -> [f32; N_FEATURES] {
        let mut f = [f32::NAN; N_FEATURES];
        f[0] = (self.size as f32).ln();
        f[1] = (self.access_count as f32).ln_1p();
        let elapsed = now.saturating_sub(self.last_access).as_secs_f64() as f32;
        f[2] = ln_gap(elapsed);
        for (slot, &d) in f[3..3 + N_DELTAS - 1].iter_mut().zip(self.deltas.iter()) {
            *slot = d;
        }
        f[2 + N_DELTAS..].copy_from_slice(&self.edcs);
        f
    }

    /// Decays and bumps the EDCs for a request `gap_secs` after the last.
    fn update_edcs(&mut self, gap_secs: f64, horizons: &[f64; N_EDCS]) {
        for (edc, &tau) in self.edcs.iter_mut().zip(horizons.iter()) {
            *edc = 1.0 + *edc * (2f64.powf(-gap_secs / tau) as f32);
        }
    }
}

fn ln_gap(secs: f32) -> f32 {
    (secs.max(1e-6)).ln()
}

/// The LRB policy.
pub struct Lrb {
    /// Feature state for every object requested within the memory window
    /// (cached or not).
    meta: FastMap<ObjectId, Meta>,
    /// Cached objects; their features live in `meta`.
    store: SampleStore<()>,
    /// Pending training sample per object: features at its last request.
    pending: FastMap<ObjectId, ([f32; N_FEATURES], Time)>,
    training: Dataset,
    model: Option<Gbm>,
    /// The "memory window": gaps longer than this are beyond the Belady
    /// boundary.
    memory_window_secs: f64,
    /// Geometrically spaced EDC horizons derived from the memory window.
    edc_horizons: [f64; N_EDCS],
    /// Retrain once this many labeled samples accumulate.
    pub train_batch: usize,
    rng: SmallRng,
    trainings: u64,
    /// Wall-clock seconds spent in Gbm::fit (Figure 9's training time).
    pub train_wall_secs: f64,
}

impl Lrb {
    /// An LRB cache of `capacity` bytes. `memory_window_secs` is the Belady
    /// boundary; a reasonable default is the trace duration over 4.
    pub fn new(capacity: u64, memory_window_secs: f64, seed: u64) -> Self {
        let window = memory_window_secs.max(1.0);
        let mut edc_horizons = [0.0f64; N_EDCS];
        for (k, tau) in edc_horizons.iter_mut().enumerate() {
            // τ spans window/2^9 .. window (short- to long-horizon
            // popularity), matching LRB's geometric spacing.
            *tau = window / 2f64.powi((N_EDCS - 1 - k) as i32);
        }
        Lrb {
            meta: FastMap::default(),
            store: SampleStore::new(capacity),
            pending: FastMap::default(),
            training: Dataset::new(N_FEATURES),
            model: None,
            memory_window_secs: window,
            edc_horizons,
            train_batch: 8_192,
            rng: SmallRng::seed_from_u64(seed),
            trainings: 0,
            train_wall_secs: 0.0,
        }
    }

    /// Number of retrainings so far.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    /// Emits the delayed label for `id` if a sample is pending.
    fn label_pending(&mut self, id: ObjectId, now: Time) {
        if let Some((features, then)) = self.pending.remove(&id) {
            let gap = now.saturating_sub(then).as_secs_f64();
            let label = ln_gap(gap.min(2.0 * self.memory_window_secs) as f32);
            self.training.push_row(&features, label);
        }
    }

    /// Times out pending samples older than the memory window, labeling
    /// them "beyond boundary", and prunes stale (uncached) metadata.
    fn expire_and_prune(&mut self, now: Time) {
        let boundary = Time::from_secs_f64(self.memory_window_secs);
        let mut expired: Vec<ObjectId> = self
            .pending
            .iter()
            .filter(|(_, (_, then))| now.saturating_sub(*then) > boundary)
            .map(|(&id, _)| id)
            .collect();
        // Map iteration order is arbitrary; training-row order feeds GBM
        // fitting, so pin it (id order) or replay reports drift.
        expired.sort_unstable();
        let beyond = ln_gap(2.0 * self.memory_window_secs as f32);
        for id in expired {
            let (features, _) = self.pending.remove(&id).expect("just seen");
            self.training.push_row(&features, beyond);
        }
        // Metadata of uncached objects leaves the memory window with its
        // last request; cached objects always keep theirs.
        let store = &self.store;
        self.meta
            .retain(|&id, m| store.contains(id) || now.saturating_sub(m.last_access) <= boundary);
    }

    fn maybe_train(&mut self, now: Time) {
        if self.training.n_rows() < self.train_batch {
            return;
        }
        self.expire_and_prune(now);
        let t0 = std::time::Instant::now();
        let params = GbmParams {
            n_trees: 25,
            max_depth: 6,
            ..GbmParams::default()
        };
        self.model = Some(Gbm::fit(&self.training, &params));
        self.train_wall_secs += t0.elapsed().as_secs_f64();
        self.trainings += 1;
        self.training.clear();
    }

    /// Updates (or creates) the metadata for a requested object and leaves
    /// a pending training sample behind.
    fn touch_meta(&mut self, req: &Request) {
        self.label_pending(req.id, req.ts);
        let horizons = self.edc_horizons;
        let meta = self.meta.entry(req.id).or_insert_with(|| Meta {
            size: req.size,
            last_access: req.ts,
            access_count: 0,
            deltas: Vec::new(),
            edcs: [0.0; N_EDCS],
        });
        let gap = req.ts.saturating_sub(meta.last_access).as_secs_f64();
        if meta.access_count > 0 {
            meta.deltas.insert(0, ln_gap(gap as f32));
            meta.deltas.truncate(N_DELTAS - 1);
        }
        meta.update_edcs(if meta.access_count == 0 { 0.0 } else { gap }, &horizons);
        meta.last_access = req.ts;
        meta.access_count += 1;
        let snapshot = meta.features(req.ts);
        self.pending.insert(req.id, (snapshot, req.ts));
    }

    /// Picks the eviction victim's position: the sampled cached object
    /// with the largest predicted next-request time. Without a model, the
    /// sampled object with the oldest last access (LRU-flavoured) is chosen.
    fn pick_victim(&mut self, now: Time) -> usize {
        debug_assert!(!self.store.is_empty());
        let n = self.store.len();
        let k = SAMPLE.min(n);
        let mut best: Option<(f64, usize)> = None;
        for _ in 0..k {
            let pos = self.rng.gen_range(0..n);
            let meta = &self.meta[&self.store.slot(pos).id];
            let score = match &self.model {
                Some(model) => model.predict(&meta.features(now)) as f64,
                None => now.saturating_sub(meta.last_access).as_secs_f64(),
            };
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, pos));
            }
        }
        best.expect("k >= 1").1
    }
}

impl CachePolicy for Lrb {
    fn name(&self) -> &str {
        "LRB"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        self.maybe_train(req.ts);
        self.touch_meta(req);
        if self.store.contains(req.id) {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        while !self.store.fits(req.size) {
            let victim = self.pick_victim(req.ts);
            self.store.evict_at(victim);
        }
        self.store.push(req.id, req.size, req.ts, ());
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        let per_meta = 48 + 16 + N_DELTAS * 4 + N_EDCS * 4;
        let model = self.model.as_ref().map_or(0, |m| m.approx_size_bytes());
        (self.meta.len() * per_meta
            + self.store.len() * 40
            + self.pending.len() * (N_FEATURES * 4 + 24)
            + self.training.n_rows() * (N_FEATURES + 1) * 4
            + model) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: f64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs_f64(t), id, size)
    }

    #[test]
    fn basic_hit_miss_flow() {
        let mut c = Lrb::new(1_000, 100.0, 1);
        assert_eq!(c.handle(&req(0.0, 1, 400)), Outcome::MissAdmitted);
        assert_eq!(c.handle(&req(1.0, 1, 400)), Outcome::Hit);
        assert_eq!(c.handle(&req(2.0, 2, 400)), Outcome::MissAdmitted);
        assert_eq!(c.used_bytes(), 800);
    }

    #[test]
    fn capacity_respected_before_and_after_training() {
        let mut c = Lrb::new(5_000, 50.0, 2);
        c.train_batch = 512;
        let mut t = 0.0;
        for i in 0..6_000u64 {
            c.handle(&req(t, i % 97, 300 + (i % 5) * 100));
            t += 0.25;
            assert!(c.used_bytes() <= 5_000, "overflow at {i}");
        }
        assert!(c.trainings > 0, "model never trained");
    }

    #[test]
    fn labels_are_emitted_on_reaccess() {
        let mut c = Lrb::new(10_000, 100.0, 3);
        c.handle(&req(0.0, 1, 100));
        assert_eq!(c.training.n_rows(), 0);
        c.handle(&req(5.0, 1, 100));
        assert_eq!(c.training.n_rows(), 1);
        // The label is ln(5s).
        assert!((c.training.labels()[0] - 5.0f32.ln()).abs() < 1e-4);
    }

    #[test]
    fn stale_pending_samples_expire_as_beyond_boundary() {
        let mut c = Lrb::new(10_000, 10.0, 4);
        c.handle(&req(0.0, 1, 100));
        c.store.evict_at(0); // uncache so pruning applies to it too
        c.expire_and_prune(Time::from_secs_f64(100.0));
        assert_eq!(c.training.n_rows(), 1);
        assert!((c.training.labels()[0] - 20.0f32.ln()).abs() < 1e-4);
        // Stale uncached metadata is pruned with it.
        assert!(!c.meta.contains_key(&1));
    }

    #[test]
    fn metadata_survives_eviction_within_window() {
        let mut c = Lrb::new(200, 1_000.0, 5);
        c.handle(&req(0.0, 1, 100));
        c.handle(&req(1.0, 1, 100));
        c.handle(&req(2.0, 2, 100));
        c.handle(&req(3.0, 3, 100)); // evicts someone
        assert!(
            c.meta.contains_key(&1),
            "memory-window metadata was dropped on eviction"
        );
        // Re-request of 1 resumes its history with count 3.
        c.handle(&req(4.0, 1, 100));
        assert_eq!(c.meta[&1].access_count, 3);
    }

    #[test]
    fn trained_model_prefers_evicting_cold_objects() {
        // Hot objects re-requested every 1 s; cold ones never again.
        let mut c = Lrb::new(2_000_000, 30.0, 5);
        c.train_batch = 2_048;
        let mut t = 0.0f64;
        for round in 0..3_000u64 {
            for hot in 0..4u64 {
                c.handle(&req(t, hot, 1_000));
                t += 0.25;
            }
            c.handle(&req(t, 100 + round, 1_000));
            t += 0.25;
        }
        assert!(c.trainings > 0);
        // Now force evictions: hot objects should survive.
        let mut cold_cache = Lrb::new(8_000, 30.0, 5);
        cold_cache.model = c.model.take();
        let mut t2 = 10_000.0;
        for round in 0..2_000u64 {
            for hot in 0..4u64 {
                cold_cache.handle(&req(t2, hot, 1_000));
                t2 += 0.25;
            }
            cold_cache.handle(&req(t2, 5_000 + round, 1_000));
            t2 += 0.25;
        }
        let hot_cached = (0..4u64).filter(|&id| cold_cache.contains(id)).count();
        assert!(
            hot_cached >= 3,
            "model evicted hot objects: {hot_cached}/4 cached"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut c = Lrb::new(3_000, 20.0, seed);
            let mut hits = 0u32;
            for i in 0..3_000u64 {
                if c.handle(&req(i as f64 * 0.5, i % 29, 400)).is_hit() {
                    hits += 1;
                }
            }
            hits
        };
        assert_eq!(run(7), run(7));
    }
}

//! A DeepCache/PopCache-family baseline: neural popularity prediction
//! driving eviction (§8's "learning content popularities for content
//! eviction via deep neural networks" — DeepCache, FNN-Cache, PopCache,
//! PA-Cache).
//!
//! A small MLP maps per-object request features to the probability that
//! the object is re-requested within a horizon. Labels arrive with delay
//! (re-request ⇒ 1, horizon expiry ⇒ 0) and train the network online, one
//! SGD step per resolved label. Eviction removes the sampled cached object
//! with the lowest predicted popularity; admission is unconditional, as in
//! the cited systems. The paper's critique — DNN popularity models are
//! expensive to keep current and non-robust across workloads — is
//! reproducible directly against this baseline.

use lhr_nn::{Activation, Mlp, TrainConfig};
use lhr_sim::store::SampleStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// Feature width: ln size, ln(1+count), ln IRT₁, ln IRT₂, ln age.
const N_FEATURES: usize = 5;
/// Value standing in for "missing" (the MLP has no native NaN routing).
/// Expressed on the *scaled* feature axis (see [`SCALE`]).
const MISSING: f32 = -2.0;
/// Log-features are divided by 10 so inputs stay in ≈[−2, 2]; unnormalized
/// log magnitudes (±20) saturate a small ReLU network.
const SCALE: f32 = 0.1;
/// Eviction sample size.
const SAMPLE: usize = 64;

#[derive(Debug, Clone)]
struct ObjectState {
    size: u64,
    count: u64,
    first_seen: Time,
    last_seen: Time,
    prev_gap_secs: f64,
}

impl ObjectState {
    fn features(&self, now: Time) -> [f32; N_FEATURES] {
        let ln = |v: f64| {
            if v > 0.0 {
                (v.max(1e-6)).ln() as f32 * SCALE
            } else {
                MISSING
            }
        };
        [
            (self.size.max(1) as f32).ln() * SCALE,
            (self.count as f32).ln_1p() * SCALE,
            ln(now.saturating_sub(self.last_seen).as_secs_f64()),
            if self.prev_gap_secs > 0.0 {
                ln(self.prev_gap_secs)
            } else {
                MISSING
            },
            ln(now.saturating_sub(self.first_seen).as_secs_f64()),
        ]
    }
}

/// The popularity-prediction policy.
pub struct PopCache {
    /// Cached objects; their features live in `states`.
    store: SampleStore<()>,
    states: FastMap<ObjectId, ObjectState>,
    /// Pending delayed labels: features at the time of the request.
    pending: FastMap<ObjectId, ([f32; N_FEATURES], Time)>,
    net: Mlp,
    train: TrainConfig,
    horizon: Time,
    rng: SmallRng,
    requests: u64,
    /// Online SGD steps taken (observability for tests/benches).
    pub train_steps: u64,
}

impl PopCache {
    /// A PopCache of `capacity` bytes; `horizon_secs` is the
    /// popularity-label window.
    pub fn new(capacity: u64, horizon_secs: f64, seed: u64) -> Self {
        PopCache {
            store: SampleStore::new(capacity),
            states: FastMap::default(),
            pending: FastMap::default(),
            net: Mlp::new(
                &[N_FEATURES, 16, 1],
                Activation::Relu,
                Activation::Sigmoid,
                seed,
            ),
            train: TrainConfig {
                learning_rate: 0.01,
                ..TrainConfig::default()
            },
            horizon: Time::from_secs_f64(horizon_secs.max(1.0)),
            rng: SmallRng::seed_from_u64(seed ^ 0x9C),
            requests: 0,
            train_steps: 0,
        }
    }

    fn resolve_label(&mut self, id: ObjectId, now: Time, rerequested: bool) {
        if let Some((features, then)) = self.pending.remove(&id) {
            let within = now.saturating_sub(then) <= self.horizon;
            let label = if rerequested && within { 1.0 } else { 0.0 };
            self.net.train_step(&features, &[label], &self.train);
            self.train_steps += 1;
        }
    }

    /// Expires stale pending labels as negatives. Negatives are the only
    /// way the network learns what unpopularity looks like, so the sweep
    /// runs on a request cadence, not just under memory pressure.
    fn expire_pending(&mut self, now: Time) {
        if !self.requests.is_multiple_of(1_024) && self.pending.len() < 1 << 15 {
            return;
        }
        let mut expired: Vec<ObjectId> = self
            .pending
            .iter()
            .filter(|(_, (_, then))| now.saturating_sub(*then) > self.horizon)
            .map(|(&id, _)| id)
            .collect();
        // Map iteration order is arbitrary (though now process-stable with
        // FastMap); SGD is order-sensitive, so
        // sort for run-to-run determinism.
        expired.sort_unstable();
        for id in expired {
            self.resolve_label(id, Time::MAX, false);
        }
    }

    fn predict(&self, id: ObjectId, now: Time) -> f32 {
        match self.states.get(&id) {
            Some(s) => self.net.forward(&s.features(now))[0],
            None => 0.5,
        }
    }

    fn evict_one(&mut self, now: Time) {
        // Sampled min-popularity eviction.
        let n = self.store.len();
        debug_assert!(n > 0);
        let k = SAMPLE.min(n);
        let mut victim: Option<(f32, usize)> = None;
        for _ in 0..k {
            let pos = self.rng.gen_range(0..n);
            let p = self.predict(self.store.slot(pos).id, now);
            if victim.is_none_or(|(vp, _)| p < vp) {
                victim = Some((p, pos));
            }
        }
        self.store.evict_at(victim.expect("k >= 1").1);
    }
}

impl CachePolicy for PopCache {
    fn name(&self) -> &str {
        "PopCache"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        self.requests += 1;
        self.resolve_label(req.id, req.ts, true);
        self.expire_pending(req.ts);

        // Update state and leave a fresh pending label.
        let state = self.states.entry(req.id).or_insert(ObjectState {
            size: req.size,
            count: 0,
            first_seen: req.ts,
            last_seen: req.ts,
            prev_gap_secs: 0.0,
        });
        if state.count > 0 {
            state.prev_gap_secs = req.ts.saturating_sub(state.last_seen).as_secs_f64();
        }
        state.count += 1;
        state.last_seen = req.ts;
        let snapshot = state.features(req.ts);
        self.pending.insert(req.id, (snapshot, req.ts));
        if self.states.len() > 1 << 20 {
            let horizon = req.ts.saturating_sub(self.horizon);
            self.states.retain(|_, s| s.last_seen >= horizon);
        }

        if self.store.contains(req.id) {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        while !self.store.fits(req.size) {
            self.evict_one(req.ts);
        }
        self.store.push(req.id, req.size, req.ts, ());
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        (self.store.len() * 48
            + self.states.len() * 72
            + self.pending.len() * (N_FEATURES * 4 + 24)
            + self.net.approx_size_bytes()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: f64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs_f64(t), id, size)
    }

    #[test]
    fn basic_flow() {
        let mut c = PopCache::new(1_000, 60.0, 1);
        assert_eq!(c.handle(&req(0.0, 1, 400)), Outcome::MissAdmitted);
        assert!(c.handle(&req(1.0, 1, 400)).is_hit());
        assert!(c.train_steps > 0, "re-request resolved no label");
    }

    #[test]
    fn capacity_respected() {
        let mut c = PopCache::new(2_000, 30.0, 2);
        for i in 0..3_000u64 {
            c.handle(&req(i as f64 * 0.1, i % 41, 150));
            assert!(c.used_bytes() <= 2_000);
        }
        assert!(c.evictions() > 0);
    }

    #[test]
    fn trained_network_protects_hot_objects() {
        let mut c = PopCache::new(1_000_000, 30.0, 3);
        // Train: hot objects every 1s, cold objects never again.
        let mut t = 0.0;
        for round in 0..4_000u64 {
            for hot in 0..4u64 {
                c.handle(&req(t, hot, 1_000));
                t += 0.2;
            }
            c.handle(&req(t, 10_000 + round, 1_000));
            t += 0.2;
        }
        // Predicted popularity of a hot object must exceed a cold one's.
        let now = Time::from_secs_f64(t);
        let hot_p = c.predict(0, now);
        let cold_id = 10_000 + 3_999;
        let cold_p = c.predict(cold_id, now);
        assert!(
            hot_p > cold_p + 0.1,
            "hot {hot_p} vs cold {cold_p}: popularity not learned"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut c = PopCache::new(1_500, 20.0, seed);
            (0..2_000u64)
                .filter(|&i| c.handle(&req(i as f64 * 0.5, i % 23, 200)).is_hit())
                .count()
        };
        assert_eq!(run(7), run(7));
    }
}

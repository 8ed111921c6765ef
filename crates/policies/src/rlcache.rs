//! RL-Cache-style admission (Kirilin et al., JSAC 2020): learn *whether to
//! admit* directly from hit/miss feedback, with plain LRU eviction.
//!
//! The original trains a small neural network with Monte-Carlo policy
//! gradients over request windows. This implementation keeps the essence —
//! a stochastic admission policy over request features improved by
//! *delayed rewards* — in tabular form, which is both deterministic and
//! fast enough for a simulator baseline:
//!
//! - requests map to a feature bucket `(log₂ size, log₂ frequency,
//!   log₂ inter-request time)`;
//! - each bucket holds an admission score updated by exponential moving
//!   average: **+1** when an admitted object produces a hit, **−1** when
//!   an admitted object is evicted without ever hitting, **+1** when a
//!   *bypassed* object is re-requested soon after (the bypass cost a hit);
//! - admission follows the score's sign with ε-greedy exploration.
//!
//! The paper's §8 critique of RL admission — rewards "manifest with large
//! delays, which prevents timely feedback" — is directly visible in this
//! design: scores only move when an eviction or re-request reveals the
//! outcome.

use crate::util::SegmentedStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// Bucket dimensions.
const SIZE_BUCKETS: usize = 32;
const FREQ_BUCKETS: usize = 16;
const IRT_BUCKETS: usize = 32;
/// EWMA step for reward updates.
const ALPHA: f32 = 0.05;
/// Exploration rate.
const EPSILON: f64 = 0.02;

#[derive(Debug, Clone, Copy)]
struct ObjectState {
    /// Requests seen so far.
    count: u64,
    last_seen: Time,
}

/// The RL-Cache-style policy.
pub struct RlCache {
    store: SegmentedStore,
    /// Bucket of the admission decision + whether it has hit since.
    admitted_info: FastMap<ObjectId, (usize, bool)>,
    /// Bypassed objects awaiting a possible regret signal.
    bypassed: FastMap<ObjectId, (usize, Time)>,
    /// Request history for features.
    seen: FastMap<ObjectId, ObjectState>,
    /// Admission scores per bucket; ≥ 0 ⇒ admit.
    scores: Vec<f32>,
    /// Regret horizon: a bypass re-requested within this window counts as
    /// a lost hit.
    regret_horizon: Time,
    rng: SmallRng,
}

impl RlCache {
    /// An RL-Cache of `capacity` bytes. `regret_horizon_secs` bounds how
    /// long a bypass can later be ruled a mistake.
    pub fn new(capacity: u64, regret_horizon_secs: f64, seed: u64) -> Self {
        RlCache {
            store: SegmentedStore::new(capacity, 1),
            admitted_info: FastMap::default(),
            bypassed: FastMap::default(),
            seen: FastMap::default(),
            // Optimistic initialization: start admitting everything.
            scores: vec![0.5; SIZE_BUCKETS * FREQ_BUCKETS * IRT_BUCKETS],
            regret_horizon: Time::from_secs_f64(regret_horizon_secs.max(1.0)),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn bucket(&self, req: &Request) -> usize {
        let log2 = |v: u64| 63 - v.max(1).leading_zeros() as usize;
        let size_b = log2(req.size).min(SIZE_BUCKETS - 1);
        let (freq, irt_micros) = match self.seen.get(&req.id) {
            Some(s) => (s.count, req.ts.saturating_sub(s.last_seen).as_micros()),
            None => (0, u64::MAX >> 1),
        };
        let freq_b = log2(freq + 1).min(FREQ_BUCKETS - 1);
        let irt_b = (log2(irt_micros.max(1)) * IRT_BUCKETS / 64).min(IRT_BUCKETS - 1);
        (size_b * FREQ_BUCKETS + freq_b) * IRT_BUCKETS + irt_b
    }

    fn reward(&mut self, bucket: usize, value: f32) {
        let s = &mut self.scores[bucket];
        *s += ALPHA * (value - *s);
    }

    fn evict_one(&mut self) {
        let (id, ..) = self.store.pop_lru(0).expect("full but empty");
        // Delayed reward: was this admission ever useful?
        if let Some((bucket, hit)) = self.admitted_info.remove(&id) {
            self.reward(bucket, if hit { 1.0 } else { -1.0 });
        }
    }

    fn note_request(&mut self, req: &Request) {
        let entry = self.seen.entry(req.id).or_insert(ObjectState {
            count: 0,
            last_seen: req.ts,
        });
        entry.count += 1;
        entry.last_seen = req.ts;
        if self.seen.len() > 1 << 20 {
            // Bound the feature history; drop the coldest half lazily.
            let horizon = req.ts.saturating_sub(self.regret_horizon);
            self.seen.retain(|_, s| s.last_seen >= horizon);
        }
    }
}

impl CachePolicy for RlCache {
    fn name(&self) -> &str {
        "RL-Cache"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        let bucket = self.bucket(req);
        // Regret check for earlier bypasses of this object.
        if let Some((bypass_bucket, when)) = self.bypassed.remove(&req.id) {
            if req.ts.saturating_sub(when) <= self.regret_horizon
                && self.store.segment_of(req.id).is_none()
            {
                self.reward(bypass_bucket, 1.0); // bypass cost us this miss
            }
        }
        self.note_request(req);

        if self.store.touch(req.id).is_some() {
            if let Some(info) = self.admitted_info.get_mut(&req.id) {
                info.1 = true;
            }
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        let admit = if self.rng.gen::<f64>() < EPSILON {
            self.rng.gen::<bool>()
        } else {
            self.scores[bucket] >= 0.0
        };
        if !admit {
            self.bypassed.insert(req.id, (bucket, req.ts));
            if self.bypassed.len() > 1 << 18 {
                let horizon = req.ts.saturating_sub(self.regret_horizon);
                self.bypassed.retain(|_, &mut (_, t)| t >= horizon);
            }
            return Outcome::MissBypassed;
        }
        // Victim by victim, not through `admit`'s loop: each eviction
        // pays out a delayed reward.
        while !self.store.fits(req.size) {
            self.evict_one();
        }
        self.store.insert(req.id, req.size, req.ts, 0);
        self.admitted_info.insert(req.id, (bucket, false));
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        (self.store.len() * 48
            + self.admitted_info.len() * 24
            + self.bypassed.len() * 32
            + self.seen.len() * 32
            + self.scores.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: u64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs(t), id, size)
    }

    #[test]
    fn starts_by_admitting() {
        let mut c = RlCache::new(1_000, 60.0, 1);
        assert_eq!(c.handle(&req(0, 1, 100)), Outcome::MissAdmitted);
        assert!(c.handle(&req(1, 1, 100)).is_hit());
    }

    #[test]
    fn useless_admissions_turn_the_bucket_negative() {
        let mut c = RlCache::new(500, 60.0, 2);
        // Flood with one-hit wonders of one size class: every eviction
        // carries a −1 reward for that bucket.
        for i in 0..3_000u64 {
            c.handle(&req(i, 10_000 + i, 100));
        }
        // The one-hit bucket (freq 0, huge IRT) should now be negative and
        // most arrivals bypassed.
        let bypasses = (0..200u64)
            .filter(|&i| c.handle(&req(4_000 + i, 50_000 + i, 100)) == Outcome::MissBypassed)
            .count();
        assert!(
            bypasses > 150,
            "only {bypasses}/200 bypassed after training"
        );
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)]
    fn regret_reopens_admission() {
        let mut c = RlCache::new(500, 1_000.0, 3);
        // Train the bucket negative with one-hit wonders...
        for i in 0..3_000u64 {
            c.handle(&req(i, 10_000 + i, 100));
        }
        // ...then shift the workload: the same bucket now re-requests
        // quickly; regret rewards must eventually reopen admission.
        let mut admitted = false;
        let mut t = 5_000u64;
        for round in 0..2_000u64 {
            let id = 90_000 + round % 50;
            if c.handle(&req(t, id, 100)) == Outcome::MissAdmitted {
                admitted = true;
                break;
            }
            t += 1;
        }
        assert!(admitted, "admission never recovered after workload shift");
    }

    #[test]
    fn capacity_respected() {
        let mut c = RlCache::new(1_000, 60.0, 4);
        for i in 0..2_000u64 {
            c.handle(&req(i, i % 31, 150));
            assert!(c.used_bytes() <= 1_000);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut c = RlCache::new(800, 60.0, seed);
            (0..2_000u64)
                .filter(|&i| c.handle(&req(i, i % 23, 100)).is_hit())
                .count()
        };
        assert_eq!(run(9), run(9));
    }
}

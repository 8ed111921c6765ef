//! AdaptSize (Berger et al., NSDI '17): probabilistic size-aware admission
//! in front of an LRU cache.
//!
//! An object of size `s` is admitted with probability `e^{−s/c}`. The
//! original system tunes `c` with a Markov-chain performance model; this
//! implementation tunes it by *shadow simulation*: every tuning interval it
//! replays the recent request window through small LRU caches, one per
//! candidate `c` (the current value shifted by powers of two), and adopts
//! the candidate with the best object hit ratio. This preserves AdaptSize's
//! observable behaviour — the admission size threshold tracks the workload —
//! without reproducing the closed-form model internals.

use crate::util::SegmentedStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// The AdaptSize policy.
#[derive(Debug)]
pub struct AdaptSize {
    store: SegmentedStore,
    /// Admission scale parameter `c` in bytes.
    c: f64,
    rng: SmallRng,
    /// Recent request window for shadow tuning.
    window: Vec<(ObjectId, u64)>,
    window_limit: usize,
    requests_since_tune: usize,
    tune_every: usize,
    /// The first tuning happens earlier so the initial permissive `c`
    /// adapts before a full interval elapses.
    first_tune_at: usize,
    tunings: u64,
}

impl AdaptSize {
    /// An AdaptSize cache of `capacity` bytes with the given RNG seed.
    pub fn new(capacity: u64, seed: u64) -> Self {
        AdaptSize {
            store: SegmentedStore::new(capacity, 1),
            // Initial c: the full capacity, so any object that fits is
            // admitted with probability ≥ e^{−1}; tuning shrinks c when
            // size-selective admission pays off (the original system also
            // starts permissive and adapts down).
            c: capacity as f64,
            rng: SmallRng::seed_from_u64(seed),
            window: Vec::new(),
            window_limit: 16_384,
            requests_since_tune: 0,
            tune_every: 8_192,
            first_tune_at: 2_048,
            tunings: 0,
        }
    }

    fn admit_probability(&self, size: u64) -> f64 {
        (-(size as f64) / self.c).exp()
    }

    /// Shadow-simulates candidate `c` values over the recorded window and
    /// adopts the best one.
    fn tune(&mut self) {
        if self.window.len() < 1_024 {
            return;
        }
        let candidates = [
            self.c / 8.0,
            self.c / 4.0,
            self.c / 2.0,
            self.c,
            self.c * 2.0,
            self.c * 4.0,
            self.c * 8.0,
        ];
        let mut best = (self.hit_ratio_at(self.c), self.c);
        for &cand in &candidates {
            if cand < 1.0 || cand == self.c {
                continue;
            }
            let ratio = self.hit_ratio_at(cand);
            if ratio > best.0 {
                best = (ratio, cand);
            }
        }
        self.c = best.1;
    }

    /// Object hit ratio of an LRU cache with `e^{−s/c}` admission over the
    /// window. The shadow admission is derandomized (admit iff probability
    /// ≥ 0.5 … replaced by expected-value thresholding via probability
    /// comparison against a per-object pseudo-random draw keyed on the id)
    /// so tuning itself is deterministic.
    fn hit_ratio_at(&self, c: f64) -> f64 {
        let mut shadow = SegmentedStore::new(self.store.capacity(), 1);
        let mut hits = 0usize;
        for &(id, size) in &self.window {
            if shadow.touch(id).is_some() {
                hits += 1;
                continue;
            }
            if size > shadow.capacity() {
                continue;
            }
            // Deterministic pseudo-draw in [0,1) from the object id.
            let draw = (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64 / (1u64 << 53) as f64;
            if draw >= (-(size as f64) / c).exp() {
                continue;
            }
            // The shadow serves nobody: its stamps are never read.
            shadow.admit(id, size, Time::ZERO, 0);
        }
        hits as f64 / self.window.len() as f64
    }

    fn record(&mut self, req: &Request) {
        if self.window.len() < self.window_limit {
            self.window.push((req.id, req.size));
        } else {
            let slot = self.requests_since_tune % self.window_limit;
            self.window[slot] = (req.id, req.size);
        }
        self.requests_since_tune += 1;
        let due = if self.tunings == 0 {
            self.first_tune_at
        } else {
            self.tune_every
        };
        if self.requests_since_tune >= due {
            self.tune();
            self.tunings += 1;
            self.requests_since_tune = 0;
        }
    }
}

impl CachePolicy for AdaptSize {
    fn name(&self) -> &str {
        "AdaptSize"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        self.record(req);
        if self.store.touch(req.id).is_some() {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        if self.rng.gen::<f64>() >= self.admit_probability(req.size) {
            return Outcome::MissBypassed;
        }
        self.store.admit(req.id, req.size, req.ts, 0);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        (self.store.len() * 48 + self.window.len() * 16) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::Time;

    fn req(t: u64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs(t), id, size)
    }

    #[test]
    fn small_objects_admitted_much_more_often() {
        let mut c = AdaptSize::new(1 << 20, 1);
        c.c = 10_000.0;
        let mut small_admits = 0;
        let mut large_admits = 0;
        for i in 0..500u64 {
            if c.handle(&req(i, 10_000 + i, 1_000)) == Outcome::MissAdmitted {
                small_admits += 1;
            }
            if c.handle(&req(i, 20_000 + i, 100_000)) == Outcome::MissAdmitted {
                large_admits += 1;
            }
        }
        assert!(small_admits > 400, "{small_admits}");
        assert!(large_admits < 10, "{large_admits}");
    }

    #[test]
    fn hits_do_not_consult_admission() {
        let mut c = AdaptSize::new(1 << 20, 2);
        c.c = f64::MAX; // admit everything once
        c.handle(&req(0, 1, 50_000));
        assert!(c.handle(&req(1, 1, 50_000)).is_hit());
    }

    #[test]
    fn tuning_separates_hot_small_from_churning_large() {
        // Hot 2 KB set fills most of a 20 KB cache; each churning 15 KB
        // one-hit object that gets admitted evicts most of the hot set, so
        // shrinking c strictly improves the shadow hit ratio and the tuner
        // must discriminate by size.
        let mut c = AdaptSize::new(20_000, 3);
        c.tune_every = 4_096;
        let mut t = 0u64;
        for round in 0..6_000u64 {
            for id in 0..8u64 {
                c.handle(&req(t, id, 2_000));
                t += 1;
            }
            c.handle(&req(t, 1_000 + round, 15_000));
            t += 1;
        }
        let p_small = c.admit_probability(2_000);
        let p_large = c.admit_probability(15_000);
        assert!(p_small > 0.5, "hot small objects rejected: p = {p_small}");
        assert!(
            p_large < p_small / 2.0,
            "churners not discriminated: small {p_small} vs large {p_large}"
        );
    }

    #[test]
    fn capacity_respected() {
        let mut c = AdaptSize::new(10_000, 4);
        c.c = f64::MAX;
        for i in 0..500u64 {
            c.handle(&req(i, i % 31, 900));
            assert!(c.used_bytes() <= 10_000);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut c = AdaptSize::new(50_000, seed);
            let mut hits = 0;
            for i in 0..2_000u64 {
                if c.handle(&req(i, i % 43, 1_000 + (i % 11) * 500)).is_hit() {
                    hits += 1;
                }
            }
            hits
        };
        assert_eq!(run(9), run(9));
    }
}

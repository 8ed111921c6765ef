//! LHD — Least Hit Density (Beckmann, Chen & Cidon, NSDI '18).
//!
//! LHD evicts the object with the lowest *hit density*: expected hits per
//! byte of cache space per unit of time the object will occupy it. The
//! original estimates hit probability as a function of the object's *age*
//! from empirically learned distributions. This implementation keeps that
//! structure in a compact form:
//!
//! - ages are bucketed into log₂ classes;
//! - per class, counters of hits and "lifetime ends" (hits + evictions)
//!   observed at that age are maintained with periodic halving (so the
//!   distributions track the workload);
//! - an object's hit density is
//!   `P(hit at this age class) / (size · E[age])`, and eviction removes the
//!   lowest-density object among a random sample, exactly as LHD's sampled
//!   eviction does.

use lhr_sim::store::SampleStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{Request, Time};
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// Number of log₂ age classes (covers ~2^32 µs ≈ 1 hour per class step
/// range comfortably).
const AGE_CLASSES: usize = 48;
/// Eviction candidate sample size.
const SAMPLE: usize = 64;
/// Halve class counters after this many recorded events.
const DECAY_EVERY: u64 = 1 << 16;

/// The LHD policy.
#[derive(Debug)]
pub struct Lhd {
    /// Cached objects, each with its last access time.
    store: SampleStore<Time>,
    /// Hits observed at each age class since the last decay.
    hits_at: [f64; AGE_CLASSES],
    /// Lifetime ends (hit or eviction) at each age class.
    ends_at: [f64; AGE_CLASSES],
    events: u64,
    rng: SmallRng,
}

impl Lhd {
    /// An empty LHD cache of `capacity` bytes.
    pub fn new(capacity: u64, seed: u64) -> Self {
        Lhd {
            store: SampleStore::new(capacity),
            hits_at: [1.0; AGE_CLASSES], // optimistic prior
            ends_at: [2.0; AGE_CLASSES],
            events: 0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn age_class(age: Time) -> usize {
        let micros = age.as_micros().max(1);
        (63 - micros.leading_zeros() as usize).min(AGE_CLASSES - 1)
    }

    fn record(&mut self, class: usize, hit: bool) {
        if hit {
            self.hits_at[class] += 1.0;
        }
        self.ends_at[class] += 1.0;
        self.events += 1;
        if self.events.is_multiple_of(DECAY_EVERY) {
            for v in &mut self.hits_at {
                *v *= 0.5;
            }
            for v in &mut self.ends_at {
                *v *= 0.5;
            }
        }
    }

    /// Hit density at `now` of `size` bytes last accessed at
    /// `last_access`: class hit probability over (size × expected dwell
    /// time of that class).
    fn density(&self, size: u64, last_access: Time, now: Time) -> f64 {
        let class = Self::age_class(now.saturating_sub(last_access));
        let p_hit = self.hits_at[class] / self.ends_at[class].max(1e-9);
        // Expected remaining occupancy grows with the age class (2^class µs
        // is the class's time scale).
        let dwell = 2f64.powi(class as i32);
        p_hit / (size as f64 * dwell)
    }

    fn evict_one(&mut self, now: Time) {
        let n = self.store.len();
        debug_assert!(n > 0);
        let k = SAMPLE.min(n);
        let mut victim: Option<(f64, usize)> = None;
        for _ in 0..k {
            let pos = self.rng.gen_range(0..n);
            let slot = self.store.slot(pos);
            let d = self.density(slot.size, slot.entry, now);
            if victim.is_none_or(|(vd, _)| d < vd) {
                victim = Some((d, pos));
            }
        }
        let last_access = self.store.evict_at(victim.expect("k >= 1").1).entry;
        let class = Self::age_class(now.saturating_sub(last_access));
        self.record(class, false);
    }
}

impl CachePolicy for Lhd {
    fn name(&self) -> &str {
        "LHD"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        if let Some(last_access) = self.store.get_mut(req.id) {
            let class = Self::age_class(req.ts.saturating_sub(*last_access));
            *last_access = req.ts;
            self.record(class, true);
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        while !self.store.fits(req.size) {
            self.evict_one(req.ts);
        }
        self.store.push(req.id, req.size, req.ts, req.ts);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 56 + (AGE_CLASSES * 16) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::ObjectId;

    fn req(t: u64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs(t), id, size)
    }

    #[test]
    fn age_classes_are_monotone() {
        assert!(Lhd::age_class(Time::from_micros(1)) < Lhd::age_class(Time::from_secs(1)));
        assert!(Lhd::age_class(Time::from_secs(1)) < Lhd::age_class(Time::from_secs(10_000)));
        assert!(Lhd::age_class(Time::MAX) < AGE_CLASSES);
    }

    #[test]
    fn frequently_hit_ages_gain_density() {
        let mut c = Lhd::new(10_000, 1);
        // Train: objects re-accessed after ~1 s are hits.
        for t in 0..200 {
            c.handle(&req(t, t % 4, 100));
        }
        let hot_class = Lhd::age_class(Time::from_secs(4));
        let p_hot = c.hits_at[hot_class] / c.ends_at[hot_class];
        assert!(p_hot > 0.5, "hit probability at trained age {p_hot}");
    }

    #[test]
    fn survives_heavy_churn_within_capacity() {
        let mut c = Lhd::new(1_000, 2);
        for i in 0..2_000u64 {
            c.handle(&req(i, i % 43, 80 + (i % 3) * 40));
            assert!(c.used_bytes() <= 1_000);
        }
        assert!(c.evictions() > 0);
    }

    #[test]
    fn prefers_keeping_recently_hit_small_objects() {
        let mut c = Lhd::new(400, 3);
        // Hot small object.
        for t in 0..50 {
            c.handle(&req(t, 1, 50));
        }
        // Cold large object fills the rest.
        c.handle(&req(50, 2, 300));
        // New arrivals force evictions; the hot small object should stay.
        for t in 51..70 {
            c.handle(&req(t, 1, 50));
            c.handle(&req(t, 100 + t, 300));
        }
        assert!(c.contains(1), "hot small object evicted");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut c = Lhd::new(600, seed);
            (0..1_500u64)
                .filter(|&i| c.handle(&req(i, i % 19, 100)).is_hit())
                .count()
        };
        assert_eq!(run(9), run(9));
    }
}

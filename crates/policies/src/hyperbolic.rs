//! Hyperbolic caching (Blankstein, Sen & Freedman, ATC '17).
//!
//! Each cached object carries the priority `p_i = n_i / (s_i · a_i)` where
//! `n_i` is its request count since admission, `a_i` its age since
//! admission, and `s_i` its size (the cost/size-aware variant). Priorities
//! decay continuously, so no queue can index them; like the original
//! system, eviction samples a handful of candidates and evicts the
//! smallest-priority one.

use lhr_sim::store::{SampleStore, Slot};
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{Request, Time};
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// Eviction candidate sample size (the paper finds 64 indistinguishable
/// from exact).
const SAMPLE: usize = 64;

#[derive(Debug, Clone, Copy)]
struct Entry {
    admitted: Time,
    hits: u64,
}

/// The hyperbolic caching policy.
#[derive(Debug)]
pub struct Hyperbolic {
    store: SampleStore<Entry>,
    rng: SmallRng,
}

impl Hyperbolic {
    /// An empty hyperbolic cache of `capacity` bytes.
    pub fn new(capacity: u64, seed: u64) -> Self {
        Hyperbolic {
            store: SampleStore::new(capacity),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn priority(slot: &Slot<Entry>, now: Time) -> f64 {
        let age = now
            .saturating_sub(slot.entry.admitted)
            .as_secs_f64()
            .max(1e-6);
        slot.entry.hits as f64 / (slot.size as f64 * age)
    }

    fn evict_one(&mut self, now: Time) {
        let n = self.store.len();
        debug_assert!(n > 0);
        let mut victim: Option<(f64, usize)> = None;
        // Sampling with replacement only pays off above the sample size;
        // below it, scanning everything is both cheaper and exact.
        for i in 0..SAMPLE.min(n) {
            let pos = if n <= SAMPLE {
                i
            } else {
                self.rng.gen_range(0..n)
            };
            let p = Self::priority(self.store.slot(pos), now);
            if victim.is_none_or(|(vp, _)| p < vp) {
                victim = Some((p, pos));
            }
        }
        self.store.evict_at(victim.expect("k >= 1").1);
    }
}

impl CachePolicy for Hyperbolic {
    fn name(&self) -> &str {
        "Hyperbolic"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        if let Some(entry) = self.store.get_mut(req.id) {
            entry.hits += 1;
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        while !self.store.fits(req.size) {
            self.evict_one(req.ts);
        }
        let entry = Entry {
            admitted: req.ts,
            hits: 1,
        };
        self.store.push(req.id, req.size, req.ts, entry);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 64
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
    fn hot_objects_survive() {
        let mut c = Hyperbolic::new(300, 1);
        for t in 0..30 {
            c.handle(&req(t, 1, 100)); // high frequency
        }
        c.handle(&req(30, 2, 100));
        c.handle(&req(31, 3, 100));
        c.handle(&req(40, 4, 100)); // must evict 2 or 3, not 1
        assert!(c.contains(1));
    }

    #[test]
    fn small_objects_preferred_at_equal_rate() {
        let mut c = Hyperbolic::new(1_000, 2);
        c.handle(&req(0, 1, 800)); // large
        c.handle(&req(1, 2, 100)); // small
                                   // Same frequency/age profile; admitting 3 (200 B) must evict the
                                   // large low-density object.
        c.handle(&req(2, 3, 200));
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn capacity_respected() {
        let mut c = Hyperbolic::new(1_000, 3);
        for i in 0..500u64 {
            c.handle(&req(i, i % 31, 90));
            assert!(c.used_bytes() <= 1_000);
        }
        assert!(c.evictions() > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut c = Hyperbolic::new(500, seed);
            (0..1_000u64)
                .filter(|&i| c.handle(&req(i, i % 17, 100)).is_hit())
                .count()
        };
        assert_eq!(run(7), run(7));
    }
}

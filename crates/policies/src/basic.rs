//! FIFO and Random eviction — the classic strawmen (§8).

use crate::util::SegmentedStore;
use lhr_sim::store::SampleStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::Request;
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// First-in first-out eviction, admit-all: a recency list that no hit
/// touches is a queue.
#[derive(Debug)]
pub struct Fifo {
    store: SegmentedStore,
}

impl Fifo {
    /// An empty FIFO cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Fifo {
            store: SegmentedStore::new(capacity, 1),
        }
    }
}

impl CachePolicy for Fifo {
    fn name(&self) -> &str {
        "FIFO"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        if self.store.segment_of(req.id).is_some() {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        self.store.admit(req.id, req.size, req.ts, 0);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 40
    }
}

/// Uniform-random eviction, admit-all. Deterministic given the seed.
#[derive(Debug)]
pub struct RandomEviction {
    store: SampleStore<()>,
    rng: SmallRng,
}

impl RandomEviction {
    /// An empty cache of `capacity` bytes with the given RNG seed.
    pub fn new(capacity: u64, seed: u64) -> Self {
        RandomEviction {
            store: SampleStore::new(capacity),
            rng: SmallRng::seed_from_u64(seed),
        }
    }
}

impl CachePolicy for RandomEviction {
    fn name(&self) -> &str {
        "Random"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        if self.store.contains(req.id) {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        while !self.store.fits(req.size) {
            let victim = self.rng.gen_range(0..self.store.len());
            self.store.evict_at(victim);
        }
        self.store.push(req.id, req.size, req.ts, ());
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 40
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::{ObjectId, Time};

    fn req(t: u64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs(t), id, size)
    }

    #[test]
    fn fifo_evicts_in_insertion_order() {
        let mut f = Fifo::new(200);
        f.handle(&req(0, 1, 100));
        f.handle(&req(1, 2, 100));
        f.handle(&req(2, 1, 100)); // hit — does NOT refresh FIFO order
        f.handle(&req(3, 3, 100)); // evicts 1 (oldest insertion)
        assert!(!f.contains(1));
        assert!(f.contains(2) && f.contains(3));
    }

    #[test]
    fn fifo_oversized_bypassed() {
        let mut f = Fifo::new(50);
        assert_eq!(f.handle(&req(0, 1, 100)), Outcome::MissBypassed);
    }

    #[test]
    fn random_stays_within_capacity() {
        let mut r = RandomEviction::new(500, 42);
        for i in 0..100 {
            r.handle(&req(i, i, 80));
            assert!(r.used_bytes() <= 500);
        }
        assert!(r.evictions() > 0);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let run = |seed| {
            let mut r = RandomEviction::new(300, seed);
            let mut hits = 0;
            for i in 0..200u64 {
                if r.handle(&req(i, i % 7, 100)).is_hit() {
                    hits += 1;
                }
            }
            hits
        };
        assert_eq!(run(1), run(1));
    }
}

//! B-LRU — Bloom-filter LRU (the paper's footnote 6): an LRU cache whose
//! admission requires the object to have been seen before, filtering
//! one-hit wonders. This is Akamai's "cache on second hit" rule
//! (Maggs & Sitaraman 2015) realized with a rotating Bloom filter.

use crate::util::{BloomFilter, SegmentedStore};
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::Request;

/// The B-LRU policy.
#[derive(Debug)]
pub struct BLru {
    store: SegmentedStore,
    seen: BloomFilter,
}

impl BLru {
    /// A B-LRU cache of `capacity` bytes. `expected_objects` sizes the Bloom
    /// filter epoch (≈ distinct objects per filter rotation).
    pub fn new(capacity: u64, expected_objects: u64) -> Self {
        BLru {
            store: SegmentedStore::new(capacity, 1),
            seen: BloomFilter::new(expected_objects),
        }
    }
}

impl CachePolicy for BLru {
    fn name(&self) -> &str {
        "B-LRU"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        self.store.touch(req.id).map(|_| Outcome::Hit)
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        if self.store.touch(req.id).is_some() {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        if !self.seen.contains(req.id) {
            // First sighting: remember it, do not admit.
            self.seen.insert(req.id);
            return Outcome::MissBypassed;
        }
        self.store.admit(req.id, req.size, req.ts, 0);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 48 + self.seen.size_bytes()
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
    fn first_request_is_never_admitted() {
        let mut c = BLru::new(1_000, 1_000);
        assert_eq!(c.handle(&req(0, 1, 100)), Outcome::MissBypassed);
        assert!(!c.contains(1));
    }

    #[test]
    fn second_request_is_admitted() {
        let mut c = BLru::new(1_000, 1_000);
        c.handle(&req(0, 1, 100));
        assert_eq!(c.handle(&req(1, 1, 100)), Outcome::MissAdmitted);
        assert!(c.handle(&req(2, 1, 100)).is_hit());
    }

    #[test]
    fn one_hit_wonders_never_occupy_space() {
        let mut c = BLru::new(1_000, 100_000);
        for i in 0..1_000u64 {
            c.handle(&req(i, i, 100));
        }
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn repeated_objects_hit_after_warmup() {
        let mut c = BLru::new(400, 1_000);
        let mut hits = 0;
        for round in 0..10u64 {
            for id in 0..4u64 {
                if c.handle(&req(round * 4 + id, id, 100)).is_hit() {
                    hits += 1;
                }
            }
        }
        // Rounds 2+ should all hit: 8 rounds × 4 objects.
        assert!(hits >= 30, "hits {hits}");
    }

    #[test]
    fn capacity_respected() {
        let mut c = BLru::new(500, 1_000);
        for i in 0..300u64 {
            c.handle(&req(i, i % 9, 120));
            assert!(c.used_bytes() <= 500);
        }
    }
}

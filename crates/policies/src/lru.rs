//! Least Recently Used — the production default the paper says major CDNs
//! still run (§1), and the baseline policy of Apache Traffic Server.

use crate::util::SegmentedStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::Request;

/// Classic LRU with admit-all admission.
#[derive(Debug)]
pub struct Lru {
    store: SegmentedStore,
}

impl Lru {
    /// An empty LRU cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Lru {
            store: SegmentedStore::new(capacity, 1),
        }
    }
}

impl CachePolicy for Lru {
    fn name(&self) -> &str {
        "LRU"
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
        self.store.admit(req.id, req.size, req.ts, 0);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        // handle map entry + list node, ~48 bytes per object.
        self.store.len() as u64 * 48
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
    fn evicts_least_recently_used() {
        let mut lru = Lru::new(300);
        lru.handle(&req(0, 1, 100));
        lru.handle(&req(1, 2, 100));
        lru.handle(&req(2, 3, 100));
        lru.handle(&req(3, 1, 100)); // refresh 1; LRU order: 2, 3, 1
        lru.handle(&req(4, 4, 100)); // evicts 2
        assert!(!lru.contains(2));
        assert!(lru.contains(1) && lru.contains(3) && lru.contains(4));
        assert_eq!(lru.evictions(), 1);
    }

    #[test]
    fn variable_sizes_evict_multiple() {
        let mut lru = Lru::new(300);
        lru.handle(&req(0, 1, 100));
        lru.handle(&req(1, 2, 100));
        lru.handle(&req(2, 3, 100));
        lru.handle(&req(3, 4, 250)); // must evict 1, 2, 3
        assert!(lru.contains(4));
        assert!(!lru.contains(1) && !lru.contains(2));
        assert_eq!(lru.used_bytes(), 250);
    }

    #[test]
    fn oversized_object_is_bypassed() {
        let mut lru = Lru::new(100);
        assert_eq!(lru.handle(&req(0, 1, 200)), Outcome::MissBypassed);
        assert_eq!(lru.used_bytes(), 0);
        assert!(!lru.contains(1));
    }

    #[test]
    fn hit_refreshes_recency() {
        let mut lru = Lru::new(200);
        lru.handle(&req(0, 1, 100));
        lru.handle(&req(1, 2, 100));
        assert_eq!(lru.handle(&req(2, 1, 100)), Outcome::Hit);
        lru.handle(&req(3, 3, 100)); // evicts 2, not 1
        assert!(lru.contains(1));
        assert!(!lru.contains(2));
    }

    /// Three objects of 9·10¹⁸ bytes in a 1.8·10¹⁹-byte cache: the third
    /// evicts the first (`used + size` would wrap past `u64::MAX`).
    #[test]
    fn a_capacity_above_half_of_u64_max_still_evicts() {
        let size = 9_000_000_000_000_000_000;
        let mut lru = Lru::new(2 * size);
        for id in 1..=3 {
            assert_eq!(lru.handle(&req(id, id, size)), Outcome::MissAdmitted);
        }
        assert!(!lru.contains(1) && lru.contains(2) && lru.contains(3));
        assert_eq!((lru.used_bytes(), lru.evictions()), (2 * size, 1));
    }

    #[test]
    fn used_bytes_tracks_exactly() {
        let mut lru = Lru::new(1_000);
        lru.handle(&req(0, 1, 300));
        lru.handle(&req(1, 2, 400));
        assert_eq!(lru.used_bytes(), 700);
        lru.handle(&req(2, 3, 500)); // evicts 1
        assert_eq!(lru.used_bytes(), 900);
    }
}

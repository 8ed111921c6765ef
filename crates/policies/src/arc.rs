//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST '03), adapted to
//! variable object sizes by measuring all list balances in bytes.
//!
//! ARC partitions the cache into a recency list T1 and a frequency list T2,
//! with ghost lists B1/B2 remembering recently evicted ids. Hits in the
//! ghosts steer the adaptation target `p` (the byte share of T1).

use crate::util::SegmentedStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{Request, Time};

/// Segments of `cache`.
const T1: usize = 0;
const T2: usize = 1;
/// Segments of `ghosts`.
const B1: usize = 0;
const B2: usize = 1;

/// The ARC policy.
#[derive(Debug)]
pub struct Arc {
    /// Adaptation target: desired byte size of T1.
    p: u64,
    /// T1 and T2: what is cached.
    cache: SegmentedStore,
    /// B1 and B2: ids and sizes of what T1 and T2 evicted. `replace` trims
    /// each list to the cache's capacity; the store's own budget,
    /// `u64::MAX`, binds only past 2⁶³ bytes of capacity.
    ghosts: SegmentedStore,
}

impl Arc {
    /// An empty ARC cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Arc {
            p: 0,
            cache: SegmentedStore::new(capacity, 2),
            ghosts: SegmentedStore::new(u64::MAX, 2),
        }
    }

    /// Evicts one object from T1 or T2 per the adaptation target, recording
    /// it in the matching ghost list. `from_b2` biases toward evicting from
    /// T1 on ties, per the original REPLACE.
    fn replace(&mut self, from_b2: bool) {
        let t1_bytes = self.cache.bytes(T1);
        let take_t1 = self.cache.lru(T1).is_some()
            && (t1_bytes > self.p
                || (from_b2 && t1_bytes == self.p)
                || self.cache.lru(T2).is_none());
        let (from, ghost) = if take_t1 { (T1, B1) } else { (T2, B2) };
        let (id, size, _) = self.cache.pop_lru(from).expect("T1 and T2 both empty");
        // Bound the ghost list to `capacity` bytes, the newcomer included;
        // the other has not grown.
        while size > self.cache.capacity() - self.ghosts.bytes(ghost) {
            self.ghosts.pop_lru(ghost);
        }
        // Past 2⁶³ bytes of capacity the two lists together can outgrow
        // even the ghost store's `u64::MAX`; the other one makes way.
        while !self.ghosts.fits(size) {
            self.ghosts.pop_lru(1 - ghost);
        }
        self.ghosts.insert(id, size, Time::ZERO, ghost);
    }

    fn make_room(&mut self, size: u64, from_b2: bool) {
        while !self.cache.fits(size) {
            self.replace(from_b2);
        }
    }
}

impl CachePolicy for Arc {
    fn name(&self) -> &str {
        "ARC"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.cache
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.cache
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        // Case I: cache hit — promote to T2 MRU.
        if self.cache.move_to(req.id, T2) {
            return Outcome::Hit;
        }
        let capacity = self.cache.capacity();
        if req.size > capacity {
            return Outcome::MissBypassed;
        }

        // Cases II and III: ghost hit — in B1 favour recency, in B2
        // frequency — and readmit straight to T2.
        if let Some((ghost, ..)) = self.ghosts.remove(req.id) {
            // Bytes left on the list that was hit, and on the other one.
            let (here, there) = (self.ghosts.bytes(ghost), self.ghosts.bytes(1 - ghost));
            let delta = if here >= there {
                req.size
            } else {
                req.size.saturating_mul((there / here.max(1)).max(1))
            };
            self.p = if ghost == B1 {
                self.p.saturating_add(delta).min(capacity)
            } else {
                self.p.saturating_sub(delta)
            };
            self.make_room(req.size, ghost == B2);
            self.cache.insert(req.id, req.size, req.ts, T2);
            return Outcome::MissAdmitted;
        }

        // Case IV: brand-new object → T1 MRU.
        // L1 = T1 ∪ B1 at capacity: recycle B1 before replacing. The sums
        // reach past `u64::MAX` at capacities above 2⁶².
        let sum = |bytes: [u64; 3]| bytes.into_iter().map(u128::from).sum::<u128>();
        let l1 = |arc: &Arc| sum([arc.cache.bytes(T1), arc.ghosts.bytes(B1), req.size]);
        let all = |arc: &Arc| sum([arc.cache.used(), arc.ghosts.used(), req.size]);
        let capacity = u128::from(capacity);
        if l1(self) > capacity {
            while self.ghosts.bytes(B1) > 0 && l1(self) > capacity {
                self.ghosts.pop_lru(B1);
            }
        } else if all(self) > 2 * capacity {
            while self.ghosts.bytes(B2) > 0 && all(self) > 2 * capacity {
                self.ghosts.pop_lru(B2);
            }
        }
        self.make_room(req.size, false);
        self.cache.insert(req.id, req.size, req.ts, T1);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        ((self.cache.len() + self.ghosts.len()) * 56) as u64
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
    fn second_access_promotes_to_t2() {
        let mut c = Arc::new(400);
        c.handle(&req(0, 1, 100));
        assert_eq!(c.cache.segment_of(1), Some(T1));
        c.handle(&req(1, 1, 100));
        assert_eq!(c.cache.segment_of(1), Some(T2));
        assert_eq!(c.cache.bytes(T1), 0);
        assert_eq!(c.cache.bytes(T2), 100);
    }

    #[test]
    fn scan_resistance() {
        // A hot pair plus a long scan of one-shot objects: the hot pair
        // (in T2) must survive the scan.
        let mut c = Arc::new(400);
        for t in 0..10 {
            c.handle(&req(2 * t, 1, 100));
            c.handle(&req(2 * t + 1, 2, 100));
        }
        for i in 0..50u64 {
            c.handle(&req(100 + i, 1_000 + i, 100));
        }
        assert!(c.contains(1), "scan evicted a hot object");
        assert!(c.contains(2), "scan evicted a hot object");
    }

    #[test]
    fn ghost_hit_readmits_to_t2() {
        let mut c = Arc::new(200);
        c.handle(&req(0, 1, 100));
        c.handle(&req(1, 2, 100));
        c.handle(&req(2, 3, 100)); // evicts 1 → B1
        assert!(!c.contains(1));
        c.handle(&req(3, 1, 100)); // B1 ghost hit
        assert!(c.contains(1));
        assert_eq!(c.cache.segment_of(1), Some(T2));
    }

    #[test]
    fn capacity_respected_under_churn() {
        let mut c = Arc::new(1_000);
        for i in 0..2_000u64 {
            c.handle(&req(i, i % 37, 90 + (i % 7) * 20));
            assert!(c.used_bytes() <= 1_000, "overflow at {i}");
        }
        assert!(c.evictions() > 0);
    }

    #[test]
    fn adaptation_target_stays_bounded() {
        let mut c = Arc::new(500);
        for i in 0..3_000u64 {
            c.handle(&req(i, i % 29, 100));
            assert!(c.p <= c.capacity());
        }
    }

    #[test]
    fn oversized_bypassed() {
        let mut c = Arc::new(100);
        assert_eq!(c.handle(&req(0, 1, 101)), Outcome::MissBypassed);
    }
}

//! ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST '03), adapted to
//! variable object sizes by measuring all list balances in bytes.
//!
//! ARC partitions the cache into a recency list T1 and a frequency list T2,
//! with ghost lists B1/B2 remembering recently evicted ids. Hits in the
//! ghosts steer the adaptation target `p` (the byte share of T1).

use crate::util::{Handle, LruList};
use lhr_sim::{CachePolicy, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    T1,
    T2,
}

/// The ARC policy.
#[derive(Debug)]
pub struct Arc {
    capacity: u64,
    /// Adaptation target: desired byte size of T1.
    p: u64,
    t1: LruList<(ObjectId, u64)>,
    t2: LruList<(ObjectId, u64)>,
    b1: LruList<(ObjectId, u64)>,
    b2: LruList<(ObjectId, u64)>,
    t1_bytes: u64,
    t2_bytes: u64,
    b1_bytes: u64,
    b2_bytes: u64,
    /// id → (list handle, which list, freshness stamp).
    cached: FastMap<ObjectId, (Handle, Location, Time)>,
    ghost1: FastMap<ObjectId, Handle>,
    ghost2: FastMap<ObjectId, Handle>,
    evictions: u64,
}

impl Arc {
    /// An empty ARC cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Arc {
            capacity,
            p: 0,
            t1: LruList::new(),
            t2: LruList::new(),
            b1: LruList::new(),
            b2: LruList::new(),
            t1_bytes: 0,
            t2_bytes: 0,
            b1_bytes: 0,
            b2_bytes: 0,
            cached: FastMap::default(),
            ghost1: FastMap::default(),
            ghost2: FastMap::default(),
            evictions: 0,
        }
    }

    /// Evicts one object from T1 or T2 per the adaptation target, recording
    /// it in the matching ghost list. `from_b2` biases toward evicting from
    /// T1 on ties, per the original REPLACE.
    fn replace(&mut self, from_b2: bool) {
        let take_t1 = !self.t1.is_empty()
            && (self.t1_bytes > self.p
                || (from_b2 && self.t1_bytes == self.p)
                || self.t2.is_empty());
        if take_t1 {
            let (id, size) = self.t1.pop_back().expect("checked non-empty");
            self.cached.remove(&id);
            self.t1_bytes -= size;
            let h = self.b1.push_front((id, size));
            self.ghost1.insert(id, h);
            self.b1_bytes += size;
        } else {
            let (id, size) = self.t2.pop_back().expect("T1 and T2 both empty");
            self.cached.remove(&id);
            self.t2_bytes -= size;
            let h = self.b2.push_front((id, size));
            self.ghost2.insert(id, h);
            self.b2_bytes += size;
        }
        self.evictions += 1;
        self.trim_ghosts();
    }

    /// Bounds each ghost list to `capacity` bytes.
    fn trim_ghosts(&mut self) {
        while self.b1_bytes > self.capacity {
            let (id, size) = self.b1.pop_back().expect("bytes>0");
            self.ghost1.remove(&id);
            self.b1_bytes -= size;
        }
        while self.b2_bytes > self.capacity {
            let (id, size) = self.b2.pop_back().expect("bytes>0");
            self.ghost2.remove(&id);
            self.b2_bytes -= size;
        }
    }

    fn used(&self) -> u64 {
        self.t1_bytes + self.t2_bytes
    }

    fn make_room(&mut self, size: u64, from_b2: bool) {
        while self.used() + size > self.capacity {
            self.replace(from_b2);
        }
    }
}

impl CachePolicy for Arc {
    fn name(&self) -> &str {
        "ARC"
    }
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn used_bytes(&self) -> u64 {
        self.used()
    }
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.cached.get(&id).map(|&(_, _, at)| at)
    }
    fn restamp(&mut self, id: ObjectId, at: Time) {
        if let Some(slot) = self.cached.get_mut(&id) {
            slot.2 = at;
        }
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        // Case I: cache hit — promote to T2 MRU.
        // The slot is updated in place, so its stamp rides along.
        if let Some(slot) = self.cached.get_mut(&req.id) {
            match slot.1 {
                Location::T1 => {
                    let (id, size) = self.t1.remove(slot.0);
                    self.t1_bytes -= size;
                    slot.0 = self.t2.push_front((id, size));
                    self.t2_bytes += size;
                    slot.1 = Location::T2;
                }
                Location::T2 => self.t2.move_to_front(slot.0),
            }
            return Outcome::Hit;
        }
        if req.size > self.capacity {
            return Outcome::MissBypassed;
        }

        // Case II: ghost hit in B1 — favour recency.
        if let Some(handle) = self.ghost1.remove(&req.id) {
            let (_, gsize) = self.b1.remove(handle);
            self.b1_bytes -= gsize;
            let delta = if self.b1_bytes >= self.b2_bytes {
                req.size
            } else {
                req.size
                    .saturating_mul((self.b2_bytes / self.b1_bytes.max(1)).max(1))
            };
            self.p = (self.p + delta).min(self.capacity);
            self.make_room(req.size, false);
            let h = self.t2.push_front((req.id, req.size));
            self.t2_bytes += req.size;
            self.cached.insert(req.id, (h, Location::T2, req.ts));
            return Outcome::MissAdmitted;
        }

        // Case III: ghost hit in B2 — favour frequency.
        if let Some(handle) = self.ghost2.remove(&req.id) {
            let (_, gsize) = self.b2.remove(handle);
            self.b2_bytes -= gsize;
            let delta = if self.b2_bytes >= self.b1_bytes {
                req.size
            } else {
                req.size
                    .saturating_mul((self.b1_bytes / self.b2_bytes.max(1)).max(1))
            };
            self.p = self.p.saturating_sub(delta);
            self.make_room(req.size, true);
            let h = self.t2.push_front((req.id, req.size));
            self.t2_bytes += req.size;
            self.cached.insert(req.id, (h, Location::T2, req.ts));
            return Outcome::MissAdmitted;
        }

        // Case IV: brand-new object → T1 MRU.
        // L1 = T1 ∪ B1 at capacity: recycle B1 before replacing.
        if self.t1_bytes + self.b1_bytes + req.size > self.capacity {
            while self.b1_bytes > 0 && self.t1_bytes + self.b1_bytes + req.size > self.capacity {
                let (id, size) = self.b1.pop_back().expect("bytes>0");
                self.ghost1.remove(&id);
                self.b1_bytes -= size;
            }
        } else if self.used() + self.b1_bytes + self.b2_bytes + req.size > 2 * self.capacity {
            while self.b2_bytes > 0
                && self.used() + self.b1_bytes + self.b2_bytes + req.size > 2 * self.capacity
            {
                let (id, size) = self.b2.pop_back().expect("bytes>0");
                self.ghost2.remove(&id);
                self.b2_bytes -= size;
            }
        }
        self.make_room(req.size, false);
        let h = self.t1.push_front((req.id, req.size));
        self.t1_bytes += req.size;
        self.cached.insert(req.id, (h, Location::T1, req.ts));
        Outcome::MissAdmitted
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        ((self.cached.len() + self.ghost1.len() + self.ghost2.len()) * 56) as u64
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
    fn second_access_promotes_to_t2() {
        let mut c = Arc::new(400);
        c.handle(&req(0, 1, 100));
        assert_eq!(c.cached[&1].1, Location::T1);
        c.handle(&req(1, 1, 100));
        assert_eq!(c.cached[&1].1, Location::T2);
        assert_eq!(c.t1_bytes, 0);
        assert_eq!(c.t2_bytes, 100);
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
        assert_eq!(c.cached[&1].1, Location::T2);
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
            assert!(c.p <= c.capacity);
        }
    }

    #[test]
    fn oversized_bypassed() {
        let mut c = Arc::new(100);
        assert_eq!(c.handle(&req(0, 1, 101)), Outcome::MissBypassed);
    }
}

//! TinyLFU admission (Einziger et al. 2017) and W-TinyLFU — the policy
//! behind Caffeine, the Java cache the paper prototypes against
//! (Appendix A.3).
//!
//! **TinyLFU**: an LRU cache whose admission gate compares the Count-Min
//! estimated frequency of the arriving object against the eviction
//! victim's; the newcomer enters only if it is more popular.
//!
//! **W-TinyLFU**: a small *window* LRU absorbs new arrivals (shielding
//! recency bursts), and its evictees face the TinyLFU gate to enter the
//! main segmented-LRU (probation + protected) region.
//!
//! Both are measured in bytes throughout, since CDN objects vary in size.

use crate::util::{CountMinSketch, SegmentedStore};
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{ObjectId, Request};

/// Plain TinyLFU: LRU eviction + frequency admission gate.
#[derive(Debug)]
pub struct TinyLfu {
    store: SegmentedStore,
    sketch: CountMinSketch,
}

impl TinyLfu {
    /// A TinyLFU cache of `capacity` bytes; `expected_objects` sizes the
    /// frequency sketch.
    pub fn new(capacity: u64, expected_objects: u64) -> Self {
        TinyLfu {
            store: SegmentedStore::new(capacity, 1),
            sketch: CountMinSketch::new(expected_objects),
        }
    }
}

impl CachePolicy for TinyLfu {
    fn name(&self) -> &str {
        "TinyLFU"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        self.sketch.increment(req.id);
        if self.store.touch(req.id).is_some() {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        // The newcomer must beat every victim it would displace: walk the
        // LRU end without mutating, summing reclaimable bytes, rejecting if
        // any victim is at least as popular. The victims are exactly the
        // LRU-end prefix `admit` evicts to make room.
        let freq_new = self.sketch.estimate(req.id);
        let mut reclaimable = self.store.capacity() - self.store.used();
        for &(id, size) in self.store.iter_lru_first(0) {
            if reclaimable >= req.size {
                break;
            }
            if self.sketch.estimate(id) >= freq_new {
                return Outcome::MissBypassed;
            }
            reclaimable += size;
        }
        self.store.admit(req.id, req.size, req.ts, 0);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 48 + self.sketch.size_bytes()
    }
}

/// The W-TinyLFU segments.
const WINDOW: usize = 0;
const PROBATION: usize = 1;
const PROTECTED: usize = 2;

/// W-TinyLFU: window + segmented-LRU main with TinyLFU admission between.
#[derive(Debug)]
pub struct WTinyLfu {
    window_cap: u64,
    protected_cap: u64,
    store: SegmentedStore,
    sketch: CountMinSketch,
    /// Arrivals too big for the window that lost the duel for main.
    refused: u64,
}

impl WTinyLfu {
    /// A W-TinyLFU cache of `capacity` bytes. Caffeine's default split:
    /// 1% window, main region 80% protected / 20% probation. CDN objects
    /// are large relative to the cache, so the window is floored at 10 ×
    /// the largest expected object… which we cannot know; instead we floor
    /// it at 5% of capacity, a common setting for size-heavy workloads.
    pub fn new(capacity: u64, expected_objects: u64) -> Self {
        let window_cap = (capacity / 20).max(1);
        let main = capacity - window_cap;
        WTinyLfu {
            window_cap,
            // 80 % in u128: `main * 8` passes `u64::MAX` above 2⁶¹ bytes.
            protected_cap: (u128::from(main) * 8 / 10) as u64,
            store: SegmentedStore::new(capacity, 3),
            sketch: CountMinSketch::new(expected_objects),
            refused: 0,
        }
    }

    /// The TinyLFU gate in front of the main region. If `candidate` is
    /// more popular than every main object that has to go for it to fit
    /// there — from probation's LRU end, then protected's — they go, and
    /// it says so; if one is at least as popular, or it cannot fit at all,
    /// nothing moves.
    fn duel(&mut self, candidate: ObjectId, size: u64) -> bool {
        let main_cap = self.store.capacity() - self.window_cap;
        let main_bytes = self.store.bytes(PROBATION) + self.store.bytes(PROTECTED);
        let freq_new = self.sketch.estimate(candidate);
        let mut reclaim = main_cap - main_bytes;
        let mut victims = 0;
        if reclaim < size && size <= main_cap {
            let pool = self
                .store
                .iter_lru_first(PROBATION)
                .chain(self.store.iter_lru_first(PROTECTED));
            for &(victim, victim_size) in pool {
                if reclaim >= size || self.sketch.estimate(victim) >= freq_new {
                    break;
                }
                reclaim += victim_size;
                victims += 1;
            }
        }
        if reclaim < size {
            return false;
        }
        for _ in 0..victims {
            if self.store.pop_lru(PROBATION).is_none() {
                self.store.pop_lru(PROTECTED);
            }
        }
        true
    }

    /// Promotes a probation hit into protected, demoting protected overflow
    /// back to probation MRU.
    fn promote(&mut self, id: ObjectId) {
        self.store.move_to(id, PROTECTED);
        while self.store.bytes(PROTECTED) > self.protected_cap {
            let (demoted, _) = self.store.lru(PROTECTED).expect("over cap");
            self.store.move_to(demoted, PROBATION);
        }
    }
}

impl CachePolicy for WTinyLfu {
    fn name(&self) -> &str {
        "W-TinyLFU"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        self.sketch.increment(req.id);
        if let Some(segment) = self.store.touch(req.id) {
            if segment == PROBATION {
                self.promote(req.id);
            }
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        // Everything enters through the window. An arrival that fits there
        // pushes out what it must, and the evictees duel for a place in
        // main.
        if req.size <= self.window_cap {
            while self.store.bytes(WINDOW) + req.size > self.window_cap {
                // A winner moves to probation, stamp and all.
                let (evictee, size) = self.store.lru(WINDOW).expect("window over cap");
                if self.duel(evictee, size) {
                    self.store.move_to(evictee, PROBATION);
                } else {
                    self.store.remove(evictee);
                }
            }
            self.store.insert(req.id, req.size, req.ts, WINDOW);
            return Outcome::MissAdmitted;
        }
        // One too big to stay passes straight through to the duel.
        if self.duel(req.id, req.size) {
            self.store.insert(req.id, req.size, req.ts, PROBATION);
            Outcome::MissAdmitted
        } else {
            self.refused += 1;
            Outcome::MissBypassed
        }
    }

    /// The store's evictions, and each refused pass-through: it counts as
    /// evicted from the window it passed through.
    fn evictions(&self) -> u64 {
        self.store.evictions() + self.refused
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 56 + self.sketch.size_bytes()
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
    fn tinylfu_rejects_unpopular_newcomer() {
        let mut c = TinyLfu::new(200, 1_000);
        // Make objects 1 and 2 popular.
        for t in 0..5 {
            c.handle(&req(2 * t, 1, 100));
            c.handle(&req(2 * t + 1, 2, 100));
        }
        // A cold newcomer must not displace them.
        assert_eq!(c.handle(&req(100, 3, 100)), Outcome::MissBypassed);
        assert!(c.contains(1) && c.contains(2));
    }

    #[test]
    fn tinylfu_admits_popular_newcomer() {
        let mut c = TinyLfu::new(200, 1_000);
        c.handle(&req(0, 1, 100));
        c.handle(&req(1, 2, 100));
        // Build frequency for 3 while it is bypassed.
        for t in 2..8 {
            c.handle(&req(t, 3, 100));
            if c.contains(3) {
                break;
            }
        }
        assert!(c.contains(3), "popular newcomer never admitted");
    }

    #[test]
    fn wtinylfu_window_absorbs_new_arrivals() {
        let mut c = WTinyLfu::new(10_000, 1_000);
        let out = c.handle(&req(0, 1, 100));
        assert_eq!(out, Outcome::MissAdmitted);
        assert_eq!(c.store.segment_of(1), Some(WINDOW));
    }

    #[test]
    fn wtinylfu_probation_hit_promotes() {
        let mut c = WTinyLfu::new(10_000, 1_000);
        // Fill window (cap = 500) so object 1 spills into probation.
        c.handle(&req(0, 1, 400));
        c.handle(&req(1, 2, 400)); // evicts 1 from window → probation duel (main empty → admitted)
        assert_eq!(c.store.segment_of(1), Some(PROBATION));
        c.handle(&req(2, 1, 400));
        assert_eq!(c.store.segment_of(1), Some(PROTECTED));
    }

    #[test]
    fn wtinylfu_capacity_respected() {
        let mut c = WTinyLfu::new(5_000, 1_000);
        for i in 0..2_000u64 {
            c.handle(&req(i, i % 53, 100 + (i % 7) * 60));
            assert!(c.used_bytes() <= 5_000, "overflow at {i}");
        }
        assert!(c.evictions() > 0);
    }

    #[test]
    fn wtinylfu_hot_objects_survive_scan() {
        let mut c = WTinyLfu::new(3_000, 10_000);
        for t in 0..30 {
            c.handle(&req(3 * t, 1, 500));
            c.handle(&req(3 * t + 1, 2, 500));
            c.handle(&req(3 * t + 2, 3, 500));
        }
        for i in 0..200u64 {
            c.handle(&req(100 + i, 10_000 + i, 500));
        }
        let survivors = [1, 2, 3].iter().filter(|&&id| c.contains(id)).count();
        assert!(
            survivors >= 2,
            "scan displaced hot objects: {survivors}/3 left"
        );
    }

    #[test]
    fn oversized_bypassed() {
        let mut c = WTinyLfu::new(1_000, 100);
        assert_eq!(c.handle(&req(0, 1, 2_000)), Outcome::MissBypassed);
        let mut t = TinyLfu::new(1_000, 100);
        assert_eq!(t.handle(&req(0, 1, 2_000)), Outcome::MissBypassed);
    }
}

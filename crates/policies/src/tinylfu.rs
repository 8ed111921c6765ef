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

use crate::util::{CountMinSketch, Handle, LruList, LruStore};
use lhr_sim::{CachePolicy, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;

/// Plain TinyLFU: LRU eviction + frequency admission gate.
#[derive(Debug)]
pub struct TinyLfu {
    store: LruStore,
    sketch: CountMinSketch,
}

impl TinyLfu {
    /// A TinyLFU cache of `capacity` bytes; `expected_objects` sizes the
    /// frequency sketch.
    pub fn new(capacity: u64, expected_objects: u64) -> Self {
        TinyLfu {
            store: LruStore::new(capacity),
            sketch: CountMinSketch::new(expected_objects),
        }
    }
}

impl CachePolicy for TinyLfu {
    fn name(&self) -> &str {
        "TinyLFU"
    }
    fn capacity(&self) -> u64 {
        self.store.capacity()
    }
    fn used_bytes(&self) -> u64 {
        self.store.used()
    }
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.store.admitted_at(id)
    }
    fn restamp(&mut self, id: ObjectId, at: Time) {
        self.store.restamp(id, at)
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        self.sketch.increment(req.id);
        if self.store.touch(req.id) {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        // The newcomer must beat every victim it would displace: walk the
        // LRU end without mutating, summing reclaimable bytes, rejecting if
        // any victim is at least as popular. The victims are exactly the
        // LRU-end prefix `insert` evicts to make room.
        let freq_new = self.sketch.estimate(req.id);
        let mut reclaimable = self.store.capacity() - self.store.used();
        for &(id, size) in self.store.iter_lru_first() {
            if reclaimable >= req.size {
                break;
            }
            if self.sketch.estimate(id) >= freq_new {
                return Outcome::MissBypassed;
            }
            reclaimable += size;
        }
        self.store.insert(req.id, req.size, req.ts);
        Outcome::MissAdmitted
    }

    fn evictions(&self) -> u64 {
        self.store.evictions()
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 48 + self.sketch.size_bytes()
    }
}

/// Which W-TinyLFU segment an object lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Window,
    Probation,
    Protected,
}

/// W-TinyLFU: window + segmented-LRU main with TinyLFU admission between.
#[derive(Debug)]
pub struct WTinyLfu {
    capacity: u64,
    window_cap: u64,
    protected_cap: u64,
    window: LruList<(ObjectId, u64)>,
    probation: LruList<(ObjectId, u64)>,
    protected: LruList<(ObjectId, u64)>,
    window_bytes: u64,
    probation_bytes: u64,
    protected_bytes: u64,
    /// id → (list handle, segment, freshness stamp).
    map: FastMap<ObjectId, (Handle, Segment, Time)>,
    sketch: CountMinSketch,
    evictions: u64,
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
            capacity,
            window_cap,
            protected_cap: main * 8 / 10,
            window: LruList::new(),
            probation: LruList::new(),
            protected: LruList::new(),
            window_bytes: 0,
            probation_bytes: 0,
            protected_bytes: 0,
            map: FastMap::default(),
            sketch: CountMinSketch::new(expected_objects),
            evictions: 0,
        }
    }

    fn main_bytes(&self) -> u64 {
        self.probation_bytes + self.protected_bytes
    }

    fn main_cap(&self) -> u64 {
        self.capacity - self.window_cap
    }

    /// Offers `candidate` (just evicted from the window, or an oversized
    /// arrival) to the main region through the TinyLFU gate, as `(id,
    /// size, freshness stamp)`: a window evictee that wins keeps its stamp.
    fn offer_to_main(&mut self, candidate: (ObjectId, u64, Time)) {
        let (cid, csize, admitted) = candidate;
        if csize > self.main_cap() {
            self.evictions += 1;
            return; // cannot fit at all — drop
        }
        let freq_new = self.sketch.estimate(cid);
        // Collect victims from probation LRU (then protected LRU) until the
        // candidate fits; reject the candidate if any victim is at least as
        // popular.
        let mut reclaim = self.main_cap() - self.main_bytes();
        let mut victims: Vec<ObjectId> = Vec::new();
        if reclaim < csize {
            let pool: Vec<(ObjectId, u64)> = self
                .probation
                .iter_lru_first()
                .copied()
                .chain(self.protected.iter_lru_first().copied())
                .collect();
            for (vid, vsize) in pool {
                if reclaim >= csize {
                    break;
                }
                if self.sketch.estimate(vid) >= freq_new {
                    self.evictions += 1;
                    return; // candidate loses the duel — dropped
                }
                reclaim += vsize;
                victims.push(vid);
            }
            if reclaim < csize {
                self.evictions += 1;
                return;
            }
        }
        for vid in victims {
            self.remove_from_main(vid);
            self.evictions += 1;
        }
        let h = self.probation.push_front((cid, csize));
        self.probation_bytes += csize;
        self.map.insert(cid, (h, Segment::Probation, admitted));
    }

    fn remove_from_main(&mut self, id: ObjectId) {
        let (handle, seg, _) = self.map.remove(&id).expect("victim cached");
        match seg {
            Segment::Probation => {
                let (_, size) = self.probation.remove(handle);
                self.probation_bytes -= size;
            }
            Segment::Protected => {
                let (_, size) = self.protected.remove(handle);
                self.protected_bytes -= size;
            }
            Segment::Window => unreachable!("main victim cannot be in window"),
        }
    }

    /// Promotes a probation hit into protected, demoting protected overflow
    /// back to probation MRU. Slots move in place: stamps stay.
    fn promote(&mut self, id: ObjectId, handle: Handle) {
        let (_, size) = self.probation.remove(handle);
        self.probation_bytes -= size;
        let h = self.protected.push_front((id, size));
        self.protected_bytes += size;
        self.relocate(id, h, Segment::Protected);
        while self.protected_bytes > self.protected_cap {
            let (demoted, dsize) = self.protected.pop_back().expect("over cap");
            self.protected_bytes -= dsize;
            let h = self.probation.push_front((demoted, dsize));
            self.probation_bytes += dsize;
            self.relocate(demoted, h, Segment::Probation);
        }
    }

    /// Points the slot of the cached `id` at its new list node.
    fn relocate(&mut self, id: ObjectId, handle: Handle, seg: Segment) {
        let slot = self.map.get_mut(&id).expect("cached");
        (slot.0, slot.1) = (handle, seg);
    }
}

impl CachePolicy for WTinyLfu {
    fn name(&self) -> &str {
        "W-TinyLFU"
    }
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn used_bytes(&self) -> u64 {
        self.window_bytes + self.main_bytes()
    }
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.map.get(&id).map(|&(_, _, at)| at)
    }
    fn restamp(&mut self, id: ObjectId, at: Time) {
        if let Some(slot) = self.map.get_mut(&id) {
            slot.2 = at;
        }
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        self.sketch.increment(req.id);
        if let Some(&(handle, seg, _)) = self.map.get(&req.id) {
            match seg {
                Segment::Window => self.window.move_to_front(handle),
                Segment::Protected => self.protected.move_to_front(handle),
                Segment::Probation => self.promote(req.id, handle),
            }
            return Outcome::Hit;
        }
        if req.size > self.capacity {
            return Outcome::MissBypassed;
        }
        if req.size > self.window_cap {
            // Too big for the window: duel straight into main.
            let was_cached = self.map.contains_key(&req.id);
            self.offer_to_main((req.id, req.size, req.ts));
            let admitted = self.map.contains_key(&req.id) != was_cached;
            return if admitted {
                Outcome::MissAdmitted
            } else {
                Outcome::MissBypassed
            };
        }
        // Admit into the window unconditionally; window evictees duel.
        while self.window_bytes + req.size > self.window_cap {
            let (vid, vsize) = self.window.pop_back().expect("window over cap");
            let (_, _, admitted) = self.map.remove(&vid).expect("listed");
            self.window_bytes -= vsize;
            self.offer_to_main((vid, vsize, admitted));
        }
        let h = self.window.push_front((req.id, req.size));
        self.window_bytes += req.size;
        self.map.insert(req.id, (h, Segment::Window, req.ts));
        Outcome::MissAdmitted
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.map.len() as u64 * 56 + self.sketch.size_bytes()
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
        assert_eq!(c.map[&1].1, Segment::Window);
    }

    #[test]
    fn wtinylfu_probation_hit_promotes() {
        let mut c = WTinyLfu::new(10_000, 1_000);
        // Fill window (cap = 500) so object 1 spills into probation.
        c.handle(&req(0, 1, 400));
        c.handle(&req(1, 2, 400)); // evicts 1 from window → probation duel (main empty → admitted)
        assert_eq!(c.map[&1].1, Segment::Probation);
        c.handle(&req(2, 1, 400));
        assert_eq!(c.map[&1].1, Segment::Protected);
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

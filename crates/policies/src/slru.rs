//! Segmented LRU (SLRU) and Facebook's S4LRU (Huang et al., SOSP '13).
//!
//! SLRU splits the cache into a *probation* and a *protected* segment:
//! first-time objects enter probation; a hit promotes to protected;
//! protected overflow demotes back to probation's MRU. S4LRU generalizes
//! to four levels: insert at level 0, each hit promotes one level, each
//! level's overflow cascades down, and level 0's overflow leaves the
//! cache.

use crate::util::{Handle, LruList};
use lhr_sim::{CachePolicy, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;

/// A multi-level segmented LRU; `Slru` and `S4lru` are thin constructors.
#[derive(Debug)]
pub struct SegmentedLru {
    name: String,
    capacity: u64,
    /// Per-level byte budgets (equal split).
    level_cap: Vec<u64>,
    levels: Vec<LruList<(ObjectId, u64)>>,
    level_bytes: Vec<u64>,
    /// id → (list handle, level, freshness stamp).
    map: FastMap<ObjectId, (Handle, usize, Time)>,
    evictions: u64,
}

impl SegmentedLru {
    /// A segmented LRU with `n_levels` equal segments.
    pub fn new(name: impl Into<String>, capacity: u64, n_levels: usize) -> Self {
        assert!(n_levels >= 1);
        let per = (capacity / n_levels as u64).max(1);
        let mut level_cap = vec![per; n_levels];
        // Give the remainder to the highest level.
        level_cap[n_levels - 1] += capacity - per * n_levels as u64;
        SegmentedLru {
            name: name.into(),
            capacity,
            level_cap,
            levels: (0..n_levels).map(|_| LruList::new()).collect(),
            level_bytes: vec![0; n_levels],
            map: FastMap::default(),
            evictions: 0,
        }
    }

    fn used(&self) -> u64 {
        self.level_bytes.iter().sum()
    }

    /// Cascades overflow from `level` downward; level 0 overflow evicts.
    fn cascade(&mut self, mut level: usize) {
        loop {
            if self.level_bytes[level] <= self.level_cap[level] {
                if level == 0 {
                    return;
                }
                level -= 1;
                continue;
            }
            let (id, size) = self.levels[level].pop_back().expect("over budget");
            self.level_bytes[level] -= size;
            if level == 0 {
                self.map.remove(&id);
                self.evictions += 1;
            } else {
                let h = self.levels[level - 1].push_front((id, size));
                self.level_bytes[level - 1] += size;
                // A demotion moves the slot; its stamp stays.
                let slot = self.map.get_mut(&id).expect("listed");
                (slot.0, slot.1) = (h, level - 1);
            }
        }
    }

    /// Puts `id`, stamped `admitted`, at the MRU end of `level` — a fresh
    /// admission at level 0, or a promotion carrying its stamp up.
    fn insert_at(&mut self, level: usize, id: ObjectId, size: u64, admitted: Time) {
        let h = self.levels[level].push_front((id, size));
        self.level_bytes[level] += size;
        self.map.insert(id, (h, level, admitted));
        self.cascade(level);
    }
}

impl CachePolicy for SegmentedLru {
    fn name(&self) -> &str {
        &self.name
    }
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn used_bytes(&self) -> u64 {
        self.used()
    }
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.map.get(&id).map(|&(_, _, at)| at)
    }
    fn restamp(&mut self, id: ObjectId, at: Time) {
        if let Some(slot) = self.map.get_mut(&id) {
            slot.2 = at;
        }
    }

    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        // Single probe on hit: level + handle come out of the one map.
        let &(handle, level, admitted) = self.map.get(&req.id)?;
        let top = self.levels.len() - 1;
        if level == top {
            self.levels[level].move_to_front(handle);
        } else {
            // Promote one level.
            let (id, size) = self.levels[level].remove(handle);
            self.level_bytes[level] -= size;
            self.insert_at(level + 1, id, size, admitted);
        }
        Some(Outcome::Hit)
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        if let Some(hit) = self.hit_check(req) {
            return hit;
        }
        // Objects enter at level 0, so anything larger than the level-0
        // budget can never be admitted (each level's budget bounds the
        // total, which is what keeps the cache within capacity).
        if req.size > self.level_cap[0] {
            return Outcome::MissBypassed;
        }
        self.insert_at(0, req.id, req.size, req.ts);
        Outcome::MissAdmitted
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.map.len() as u64 * 56
    }
}

/// Classic two-segment SLRU (probation + protected).
pub fn slru(capacity: u64) -> SegmentedLru {
    SegmentedLru::new("SLRU", capacity, 2)
}

/// Facebook's S4LRU (four segments).
pub fn s4lru(capacity: u64) -> SegmentedLru {
    SegmentedLru::new("S4LRU", capacity, 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::Time;

    fn req(t: u64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs(t), id, size)
    }

    #[test]
    fn new_objects_enter_level_zero() {
        let mut c = slru(400);
        c.handle(&req(0, 1, 100));
        assert_eq!(c.map.get(&1).expect("cached").1, 0);
    }

    #[test]
    fn hits_promote_one_level() {
        let mut c = s4lru(800);
        c.handle(&req(0, 1, 100));
        c.handle(&req(1, 1, 100));
        assert_eq!(c.map.get(&1).expect("cached").1, 1);
        c.handle(&req(2, 1, 100));
        assert_eq!(c.map.get(&1).expect("cached").1, 2);
        c.handle(&req(3, 1, 100));
        assert_eq!(c.map.get(&1).expect("cached").1, 3);
        c.handle(&req(4, 1, 100)); // already at top
        assert_eq!(c.map.get(&1).expect("cached").1, 3);
    }

    #[test]
    fn scan_does_not_displace_protected() {
        let mut c = slru(400);
        // Promote 1 and 2 to protected.
        for t in 0..4 {
            c.handle(&req(2 * t, 1, 100));
            c.handle(&req(2 * t + 1, 2, 100));
        }
        // Scan of one-shot objects churns probation only.
        for i in 0..20u64 {
            c.handle(&req(100 + i, 1_000 + i, 100));
        }
        assert!(
            c.contains(1) && c.contains(2),
            "protected objects evicted by a scan"
        );
    }

    #[test]
    fn capacity_respected() {
        let mut c = s4lru(1_000);
        for i in 0..3_000u64 {
            c.handle(&req(i, i % 37, 90 + (i % 4) * 30));
            assert!(c.used_bytes() <= 1_000, "overflow at {i}");
        }
        assert!(c.evictions() > 0);
    }

    #[test]
    fn level_budgets_hold_after_promotions() {
        let mut c = s4lru(800);
        for i in 0..200u64 {
            c.handle(&req(2 * i, i % 11, 100));
            c.handle(&req(2 * i + 1, i % 7, 100));
        }
        for (l, &bytes) in c.level_bytes.iter().enumerate() {
            assert!(
                bytes <= c.level_cap[l] || l == 0,
                "level {l} over budget: {bytes} > {}",
                c.level_cap[l]
            );
        }
    }

    #[test]
    fn oversized_bypassed() {
        let mut c = slru(100);
        assert_eq!(c.handle(&req(0, 1, 200)), Outcome::MissBypassed);
    }
}

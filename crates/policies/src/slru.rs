//! Segmented LRU (SLRU) and Facebook's S4LRU (Huang et al., SOSP '13).
//!
//! SLRU splits the cache into a *probation* and a *protected* segment:
//! first-time objects enter probation; a hit promotes to protected;
//! protected overflow demotes back to probation's MRU. S4LRU generalizes
//! to four levels: insert at level 0, each hit promotes one level, each
//! level's overflow cascades down, and level 0's overflow leaves the
//! cache.

use crate::util::SegmentedStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::Request;

/// A multi-level segmented LRU; `Slru` and `S4lru` are thin constructors.
#[derive(Debug)]
pub struct SegmentedLru {
    name: String,
    /// Per-level byte budgets: an equal split, summing to the capacity.
    level_cap: Vec<u64>,
    /// One segment per level.
    store: SegmentedStore,
}

impl SegmentedLru {
    /// A segmented LRU with `n_levels` equal segments. A cache of fewer
    /// bytes than that has one level per byte, so that level 0 — the only
    /// way in — is never left without a budget.
    pub fn new(name: impl Into<String>, capacity: u64, n_levels: usize) -> Self {
        assert!(n_levels >= 1);
        let n_levels = (n_levels as u64).min(capacity.max(1));
        let mut level_cap = vec![capacity / n_levels; n_levels as usize];
        // Give the remainder to the highest level.
        *level_cap.last_mut().expect("at least one level") += capacity % n_levels;
        SegmentedLru {
            name: name.into(),
            store: SegmentedStore::new(capacity, level_cap.len()),
            level_cap,
        }
    }

    /// Cascades overflow from `top` downward; level 0 overflow evicts.
    fn cascade(&mut self, top: usize) {
        for level in (0..=top).rev() {
            while self.store.bytes(level) > self.level_cap[level] {
                if level == 0 {
                    self.store.pop_lru(0);
                } else {
                    let (id, _) = self.store.lru(level).expect("over budget");
                    self.store.move_to(id, level - 1);
                }
            }
        }
    }
}

impl CachePolicy for SegmentedLru {
    fn name(&self) -> &str {
        &self.name
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        let level = self.store.touch(req.id)?;
        if level + 1 < self.level_cap.len() {
            // Promote one level.
            self.store.move_to(req.id, level + 1);
            self.cascade(level + 1);
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
        // Level 0's overflow leaves the cache, from its LRU end.
        while req.size > self.level_cap[0] - self.store.bytes(0) {
            self.store.pop_lru(0);
        }
        self.store.insert(req.id, req.size, req.ts, 0);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 56
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
    use lhr_trace::{ObjectId, Time};

    fn req(t: u64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs(t), id, size)
    }

    #[test]
    fn new_objects_enter_level_zero() {
        let mut c = slru(400);
        c.handle(&req(0, 1, 100));
        assert_eq!(c.store.segment_of(1), Some(0));
    }

    #[test]
    fn hits_promote_one_level() {
        let mut c = s4lru(800);
        c.handle(&req(0, 1, 100));
        c.handle(&req(1, 1, 100));
        assert_eq!(c.store.segment_of(1), Some(1));
        c.handle(&req(2, 1, 100));
        assert_eq!(c.store.segment_of(1), Some(2));
        c.handle(&req(3, 1, 100));
        assert_eq!(c.store.segment_of(1), Some(3));
        c.handle(&req(4, 1, 100)); // already at top
        assert_eq!(c.store.segment_of(1), Some(3));
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
        for (l, &cap) in c.level_cap.iter().enumerate() {
            let bytes = c.store.bytes(l);
            assert!(bytes <= cap, "level {l} over budget: {bytes} > {cap}");
        }
    }

    #[test]
    fn level_budgets_sum_to_the_capacity_however_small() {
        for capacity in 0..=9u64 {
            let c = s4lru(capacity);
            assert_eq!(
                c.level_cap.iter().sum::<u64>(),
                capacity,
                "{:?}",
                c.level_cap
            );
            assert!(capacity == 0 || c.level_cap[0] >= 1, "{:?}", c.level_cap);
        }
        assert_eq!(s4lru(10).level_cap, [2, 2, 2, 4]);
        assert_eq!(s4lru(2).level_cap, slru(2).level_cap);
    }

    #[test]
    fn oversized_bypassed() {
        let mut c = slru(100);
        assert_eq!(c.handle(&req(0, 1, 200)), Outcome::MissBypassed);
    }
}

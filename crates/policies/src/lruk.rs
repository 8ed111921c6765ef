//! LRU-K (O'Neil et al., SIGMOD '93): evict the object whose K-th most
//! recent reference is oldest. The paper evaluates LRU-4.
//!
//! Objects with fewer than K references have infinite backward K-distance
//! and are evicted first, LRU-ordered among themselves by their last
//! reference (the subsidiary policy recommended in the original paper).
//! Reference history is retained only for currently cached objects plus a
//! bounded pool of recently evicted ones, which is how practical
//! implementations bound the "retained information" the original algorithm
//! calls for.

use lhr_sim::store::OrderedStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;
use std::collections::VecDeque;

/// Eviction key: uncached-history objects sort before K-referenced ones,
/// then by the relevant timestamp (older = evicted first).
type EvictKey = (u8, Time);

/// Up to K most recent reference times; front = oldest.
type History = VecDeque<Time>;

/// The LRU-K policy.
#[derive(Debug)]
pub struct LruK {
    name: String,
    k: usize,
    /// Cached objects by eviction key, each with its reference history.
    store: OrderedStore<EvictKey, History>,
    /// History of objects no longer cached (id → reference times), bounded.
    retained: FastMap<ObjectId, History>,
    retained_order: VecDeque<ObjectId>,
    retained_limit: usize,
}

impl LruK {
    /// An LRU-K cache. `k = 4` reproduces the paper's LRU-4 baseline.
    pub fn new(capacity: u64, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        LruK {
            name: format!("LRU-{k}"),
            k,
            store: OrderedStore::new(capacity),
            retained: FastMap::default(),
            retained_order: VecDeque::new(),
            retained_limit: 65_536,
        }
    }

    /// Records a reference at `ts` in `history`, keeps its K most recent
    /// and returns the key they rank the object by.
    fn refer(k: usize, history: &mut History, ts: Time) -> EvictKey {
        history.push_back(ts);
        while history.len() > k {
            history.pop_front();
        }
        if history.len() == k {
            // K-th most recent reference = front of the deque.
            (1, *history.front().expect("non-empty"))
        } else {
            // Fewer than K references: LRU by last (most recent) reference.
            (0, ts)
        }
    }

    fn retain_history(&mut self, id: ObjectId, history: History) {
        if self.retained.insert(id, history).is_none() {
            self.retained_order.push_back(id);
        }
        while self.retained.len() > self.retained_limit {
            let old = self.retained_order.pop_front().expect("non-empty");
            self.retained.remove(&old);
        }
    }
}

impl CachePolicy for LruK {
    fn name(&self) -> &str {
        &self.name
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        let k = self.k;
        if self
            .store
            .rekey(req.id, |_, history| Self::refer(k, history, req.ts))
        {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        while !self.store.fits(req.size) {
            let (_, id, history) = self.store.pop_min().expect("over budget yet empty");
            self.retain_history(id, history);
        }
        // Resume any retained history.
        let mut history = self.retained.remove(&req.id).unwrap_or_default();
        let key = Self::refer(k, &mut history, req.ts);
        self.store.insert(req.id, req.size, req.ts, key, history);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        ((self.store.len() + self.retained.len()) * (48 + self.k * 8)) as u64
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
    fn single_reference_objects_evicted_first() {
        let mut c = LruK::new(300, 2);
        c.handle(&req(0, 1, 100));
        c.handle(&req(1, 1, 100)); // object 1 now has 2 references
        c.handle(&req(2, 2, 100)); // 1 reference
        c.handle(&req(3, 3, 100)); // 1 reference
        c.handle(&req(4, 4, 100)); // must evict 2 (oldest single-ref), not 1
        assert!(c.contains(1), "multi-referenced object was evicted");
        assert!(!c.contains(2));
    }

    #[test]
    fn evicts_oldest_kth_reference() {
        let mut c = LruK::new(200, 2);
        // Object 1: refs at t=0,1 → 2nd-most-recent = 0.
        c.handle(&req(0, 1, 100));
        c.handle(&req(1, 1, 100));
        // Object 2: refs at t=2,3 → 2nd-most-recent = 2.
        c.handle(&req(2, 2, 100));
        c.handle(&req(3, 2, 100));
        // Admit 3: object 1 has the older K-distance → evicted.
        c.handle(&req(4, 3, 100));
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn retained_history_survives_eviction() {
        let mut c = LruK::new(200, 2);
        c.handle(&req(0, 1, 100));
        c.handle(&req(1, 1, 100)); // two refs
        c.handle(&req(2, 2, 100));
        c.handle(&req(3, 3, 100)); // evicts 2 (single ref)
        assert!(!c.contains(2));
        // Re-admitting 2 resumes its history: now 2 refs (t=2 and t=10).
        c.handle(&req(10, 2, 100)); // evicts 3 (single-ref) to make room
        assert!(c.contains(2));
        // Object 2 should now rank as a 2-referenced object.
        let (key, history) = c.store.get(2).expect("cached");
        assert_eq!(history.len(), 2);
        assert_eq!(key.0, 1);
    }

    #[test]
    fn capacity_respected_with_mixed_sizes() {
        let mut c = LruK::new(1_000, 4);
        for i in 0..200u64 {
            c.handle(&req(i, i % 17, 150));
            assert!(c.used_bytes() <= 1_000);
        }
    }

    #[test]
    fn k1_behaves_like_lru() {
        use crate::lru::Lru;
        let mut a = LruK::new(300, 1);
        let mut b = Lru::new(300);
        for (t, id) in [(0u64, 1u64), (1, 2), (2, 3), (3, 1), (4, 4), (5, 2), (6, 5)] {
            let r = req(t, id, 100);
            assert_eq!(
                a.handle(&r).is_hit(),
                b.handle(&r).is_hit(),
                "diverged at t={t}"
            );
        }
    }
}

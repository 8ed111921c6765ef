//! LFU with Dynamic Aging (Arlitt et al. 2000) — frequency-based eviction
//! with an aging term that prevents formerly-hot objects from squatting.
//!
//! Each cached object carries a priority `K_i = C_i + L`, where `C_i` is its
//! request count while cached and `L` is the "cache age": the priority of
//! the most recently evicted object. Eviction removes the smallest `K_i`.

use lhr_sim::store::OrderedStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::Request;

/// The LFU-DA policy.
#[derive(Debug)]
pub struct LfuDa {
    /// Cached objects by priority `K`.
    store: OrderedStore<u64>,
    /// Cache age `L`.
    age: u64,
}

impl LfuDa {
    /// An empty LFU-DA cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LfuDa {
            store: OrderedStore::new(capacity),
            age: 0,
        }
    }
}

impl CachePolicy for LfuDa {
    fn name(&self) -> &str {
        "LFU-DA"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        // C_i increments by one: K = C + L means the priority grows by 1
        // relative to its current value (which already embeds the L at
        // admission time) — the standard incremental formulation.
        if self.store.rekey(req.id, |priority, _| priority + 1) {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        while !self.store.fits(req.size) {
            (self.age, ..) = self.store.pop_min().expect("over budget yet empty");
        }
        // New object: C = 1, K = 1 + L.
        self.store
            .insert(req.id, req.size, req.ts, 1 + self.age, ());
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 64
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
    fn frequent_objects_survive() {
        let mut c = LfuDa::new(300);
        for t in 0..10 {
            c.handle(&req(t, 1, 100)); // very hot
        }
        c.handle(&req(10, 2, 100));
        c.handle(&req(11, 3, 100));
        c.handle(&req(12, 4, 100)); // evicts 2 or 3, never 1
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn aging_lets_new_objects_displace_stale_hot_ones() {
        let mut c = LfuDa::new(200);
        for t in 0..50 {
            c.handle(&req(t, 1, 100)); // priority 51-ish
        }
        c.handle(&req(50, 2, 100));
        // Cycle fresh objects; each eviction raises the age, so eventually a
        // newcomer's K = 1 + L exceeds object 1's stale priority.
        let mut evicted_one = false;
        for (i, t) in (51..400).enumerate() {
            c.handle(&req(t, 100 + i as u64, 100));
            if !c.contains(1) {
                evicted_one = true;
                break;
            }
        }
        assert!(
            evicted_one,
            "dynamic aging never displaced the stale hot object"
        );
    }

    #[test]
    fn plain_lfu_tie_breaks_by_id_deterministically() {
        let mut c = LfuDa::new(200);
        c.handle(&req(0, 1, 100));
        c.handle(&req(1, 2, 100));
        let out = c.handle(&req(2, 3, 100));
        assert_eq!(out, Outcome::MissAdmitted);
        // Equal priorities (both 1): smallest id evicted first.
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn capacity_respected() {
        let mut c = LfuDa::new(1_000);
        for i in 0..500u64 {
            c.handle(&req(i, i % 23, 90));
            assert!(c.used_bytes() <= 1_000);
        }
    }

    #[test]
    fn oversized_bypassed() {
        let mut c = LfuDa::new(100);
        assert_eq!(c.handle(&req(0, 1, 101)), Outcome::MissBypassed);
    }
}

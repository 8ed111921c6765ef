//! LFU with Dynamic Aging (Arlitt et al. 2000) — frequency-based eviction
//! with an aging term that prevents formerly-hot objects from squatting.
//!
//! Each cached object carries a priority `K_i = C_i + L`, where `C_i` is its
//! request count while cached and `L` is the "cache age": the priority of
//! the most recently evicted object. Eviction removes the smallest `K_i`.

use lhr_sim::{CachePolicy, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;
use std::collections::BTreeSet;

#[derive(Debug)]
struct Entry {
    size: u64,
    priority: u64,
    /// Freshness stamp.
    admitted: Time,
}

/// The LFU-DA policy.
#[derive(Debug)]
pub struct LfuDa {
    capacity: u64,
    used: u64,
    entries: FastMap<ObjectId, Entry>,
    queue: BTreeSet<(u64, ObjectId)>,
    /// Cache age `L`.
    age: u64,
    evictions: u64,
}

impl LfuDa {
    /// An empty LFU-DA cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LfuDa {
            capacity,
            used: 0,
            entries: FastMap::default(),
            queue: BTreeSet::new(),
            age: 0,
            evictions: 0,
        }
    }

    fn bump(&mut self, id: ObjectId) {
        let entry = self.entries.get_mut(&id).expect("cached");
        self.queue.remove(&(entry.priority, id));
        // C_i increments by one: K = C + L means the priority grows by 1
        // relative to its current value (which already embeds the L at
        // admission time) — the standard incremental formulation.
        entry.priority += 1;
        self.queue.insert((entry.priority, id));
    }

    fn evict_one(&mut self) {
        let &(priority, id) = self.queue.iter().next().expect("cache empty while full");
        self.queue.remove(&(priority, id));
        let entry = self.entries.remove(&id).expect("queued");
        self.used -= entry.size;
        self.age = priority;
        self.evictions += 1;
    }
}

impl CachePolicy for LfuDa {
    fn name(&self) -> &str {
        "LFU-DA"
    }
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn used_bytes(&self) -> u64 {
        self.used
    }
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.entries.get(&id).map(|e| e.admitted)
    }
    fn restamp(&mut self, id: ObjectId, at: Time) {
        if let Some(e) = self.entries.get_mut(&id) {
            e.admitted = at;
        }
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        if self.entries.contains_key(&req.id) {
            self.bump(req.id);
            return Outcome::Hit;
        }
        if req.size > self.capacity {
            return Outcome::MissBypassed;
        }
        while self.used + req.size > self.capacity {
            self.evict_one();
        }
        // New object: C = 1, K = 1 + L.
        let priority = 1 + self.age;
        self.entries.insert(
            req.id,
            Entry {
                size: req.size,
                priority,
                admitted: req.ts,
            },
        );
        self.queue.insert((priority, req.id));
        self.used += req.size;
        Outcome::MissAdmitted
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.entries.len() as u64 * 64
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

//! GreedyDual-Size-Frequency (Cherkasova '98): size-aware frequency
//! eviction.
//!
//! Each cached object has priority `H_i = L + F_i · cost / s_i`; with
//! `cost = 1` (the hit-ratio objective) small, frequently requested objects
//! are retained. `L` is the inflation term: the priority of the last
//! evicted object.

use crate::util::OrdF64;
use lhr_sim::{CachePolicy, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;
use std::collections::BTreeSet;

#[derive(Debug)]
struct Entry {
    size: u64,
    freq: u64,
    priority: OrdF64,
    /// Freshness stamp.
    admitted: Time,
}

/// The GDSF policy.
#[derive(Debug)]
pub struct Gdsf {
    capacity: u64,
    used: u64,
    entries: FastMap<ObjectId, Entry>,
    queue: BTreeSet<(OrdF64, ObjectId)>,
    /// Inflation term `L`.
    inflation: f64,
    evictions: u64,
}

impl Gdsf {
    /// An empty GDSF cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Gdsf {
            capacity,
            used: 0,
            entries: FastMap::default(),
            queue: BTreeSet::new(),
            inflation: 0.0,
            evictions: 0,
        }
    }

    fn priority(&self, freq: u64, size: u64) -> OrdF64 {
        OrdF64::new(self.inflation + freq as f64 / size as f64)
    }

    fn evict_one(&mut self) {
        let &(priority, id) = self.queue.iter().next().expect("cache empty while full");
        self.queue.remove(&(priority, id));
        let entry = self.entries.remove(&id).expect("queued");
        self.used -= entry.size;
        self.inflation = priority.0;
        self.evictions += 1;
    }
}

impl CachePolicy for Gdsf {
    fn name(&self) -> &str {
        "GDSF"
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
            let freq = {
                let e = self.entries.get_mut(&req.id).expect("cached");
                self.queue.remove(&(e.priority, req.id));
                e.freq += 1;
                e.freq
            };
            let p = self.priority(freq, req.size);
            let e = self.entries.get_mut(&req.id).expect("cached");
            e.priority = p;
            self.queue.insert((p, req.id));
            return Outcome::Hit;
        }
        if req.size > self.capacity {
            return Outcome::MissBypassed;
        }
        while self.used + req.size > self.capacity {
            self.evict_one();
        }
        let p = self.priority(1, req.size);
        self.entries.insert(
            req.id,
            Entry {
                size: req.size,
                freq: 1,
                priority: p,
                admitted: req.ts,
            },
        );
        self.queue.insert((p, req.id));
        self.used += req.size;
        Outcome::MissAdmitted
    }

    fn evictions(&self) -> u64 {
        self.evictions
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.entries.len() as u64 * 72
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
    fn prefers_small_objects_at_equal_frequency() {
        let mut c = Gdsf::new(300);
        c.handle(&req(0, 1, 200)); // big
        c.handle(&req(1, 2, 50)); // small
        c.handle(&req(2, 3, 50)); // small
        c.handle(&req(3, 4, 100)); // needs 100 bytes → evicts the big one
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3) && c.contains(4));
    }

    #[test]
    fn frequency_rescues_large_objects() {
        let mut c = Gdsf::new(300);
        c.handle(&req(0, 1, 200));
        for t in 1..40 {
            c.handle(&req(t, 1, 200)); // freq 40 → priority 40/200 = 0.2
        }
        c.handle(&req(40, 2, 100)); // priority 1/100 = 0.01
        c.handle(&req(41, 3, 100)); // evicts 2 (lowest H), not the hot big 1
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn inflation_monotone_nondecreasing() {
        let mut c = Gdsf::new(200);
        let mut last = 0.0;
        for i in 0..100u64 {
            c.handle(&req(i, i, 100));
            assert!(c.inflation >= last);
            last = c.inflation;
        }
        assert!(c.inflation > 0.0);
    }

    #[test]
    fn capacity_respected() {
        let mut c = Gdsf::new(500);
        for i in 0..300u64 {
            c.handle(&req(i, i % 13, 60 + (i % 5) * 30));
            assert!(c.used_bytes() <= 500);
        }
    }
}

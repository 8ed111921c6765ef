//! GreedyDual-Size-Frequency (Cherkasova '98): size-aware frequency
//! eviction.
//!
//! Each cached object has priority `H_i = L + F_i · cost / s_i`; with
//! `cost = 1` (the hit-ratio objective) small, frequently requested objects
//! are retained. `L` is the inflation term: the priority of the last
//! evicted object.

use crate::util::OrdF64;
use lhr_sim::store::OrderedStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::Request;

/// The GDSF policy.
#[derive(Debug)]
pub struct Gdsf {
    /// Cached objects by priority `H`, each with its frequency `F`.
    store: OrderedStore<OrdF64, u64>,
    /// Inflation term `L`.
    inflation: f64,
}

impl Gdsf {
    /// An empty GDSF cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Gdsf {
            store: OrderedStore::new(capacity),
            inflation: 0.0,
        }
    }
}

fn priority(inflation: f64, freq: u64, size: u64) -> OrdF64 {
    OrdF64::new(inflation + freq as f64 / size as f64)
}

impl CachePolicy for Gdsf {
    fn name(&self) -> &str {
        "GDSF"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        let inflation = self.inflation;
        let hit = self.store.rekey(req.id, |_, freq| {
            *freq += 1;
            priority(inflation, *freq, req.size)
        });
        if hit {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        while !self.store.fits(req.size) {
            let (evicted, ..) = self.store.pop_min().expect("over budget yet empty");
            self.inflation = evicted.0;
        }
        let p = priority(self.inflation, 1, req.size);
        self.store.insert(req.id, req.size, req.ts, p, 1);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        self.store.len() as u64 * 72
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

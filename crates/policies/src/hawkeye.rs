//! Hawkeye (Jain & Lin, ISCA '16) adapted from hardware caches to CDN
//! objects, per the paper's §8: "applying Bélády to history data".
//!
//! Hawkeye's two pieces survive the adaptation intact:
//!
//! - **OPTgen**: a liveness-interval oracle over recent history. For each
//!   reuse interval `[prev, now]` it asks whether Belady-with-sizes could
//!   have kept the object, by checking a per-slot byte-occupancy vector;
//!   if every slot in the interval has headroom, OPT would have hit, and
//!   the occupancy is charged.
//! - **A learned predictor** trained by OPTgen's verdicts. Hardware
//!   Hawkeye keys the predictor by load PC; CDN requests have no PC, so the
//!   predictor is a hashed table over object ids (which also generalizes to
//!   hash-colliding "content groups", mirroring the paper's observation
//!   that the idea carries over to CDNs).
//!
//! Cache-friendly objects are inserted at MRU of a friendly list;
//! cache-averse ones go to an averse list that is always evicted first.

use crate::util::SegmentedStore;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{ObjectId, Request};
use lhr_util::hash::FastMap;

/// Requests per OPTgen occupancy slot (coarsening keeps the interval walk
/// cheap; hardware OPTgen uses one slot per set access for the same
/// reason).
const REQS_PER_SLOT: u64 = 16;
/// Number of occupancy slots retained (history window = SLOTS × REQS_PER_SLOT
/// requests).
const SLOTS: usize = 4_096;
/// Size of the hashed predictor table.
const PREDICTOR_SLOTS: usize = 32_768;

/// The two segments: cache-friendly objects, and the cache-averse ones
/// that leave first.
const FRIENDLY: usize = 0;
const AVERSE: usize = 1;

/// The Hawkeye policy.
#[derive(Debug)]
pub struct Hawkeye {
    store: SegmentedStore,
    /// 3-bit saturating counters indexed by hashed id; ≥ 0 ⇒ friendly.
    predictor: Vec<i8>,
    /// OPTgen ring: bytes OPT would hold during each slot.
    occupancy: Vec<u64>,
    /// Absolute slot number of `occupancy`'s logical start.
    first_slot: u64,
    /// Monotone request counter.
    clock: u64,
    /// id → absolute slot of its previous request (pruned as it ages out).
    last_seen: FastMap<ObjectId, u64>,
}

impl Hawkeye {
    /// A Hawkeye cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Hawkeye {
            store: SegmentedStore::new(capacity, 2),
            predictor: vec![0i8; PREDICTOR_SLOTS],
            occupancy: vec![0u64; SLOTS],
            first_slot: 0,
            clock: 0,
            last_seen: FastMap::default(),
        }
    }

    #[inline]
    fn slot_of(clock: u64) -> u64 {
        clock / REQS_PER_SLOT
    }

    #[inline]
    fn predictor_index(id: ObjectId) -> usize {
        let mut x = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        (x as usize) & (PREDICTOR_SLOTS - 1)
    }

    fn is_friendly(&self, id: ObjectId) -> bool {
        self.predictor[Self::predictor_index(id)] >= 0
    }

    fn train(&mut self, id: ObjectId, opt_hit: bool) {
        let counter = &mut self.predictor[Self::predictor_index(id)];
        if opt_hit {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = (*counter - 1).max(-4);
        }
    }

    /// Advances the occupancy ring so it covers `slot`.
    fn advance_to(&mut self, slot: u64) {
        while self.first_slot + (SLOTS as u64) <= slot {
            // Drop the oldest slot, append a fresh one.
            let idx = (self.first_slot % SLOTS as u64) as usize;
            self.occupancy[idx] = 0;
            self.first_slot += 1;
        }
    }

    /// OPTgen: would Belady have hit this reuse interval? Charges occupancy
    /// when yes. The interval is end-exclusive (`[prev, now)`), mirroring
    /// hardware OPTgen where each access owns its own time quantum; a reuse
    /// within one slot is below the oracle's resolution and counts as a
    /// free hit.
    fn optgen_decide(&mut self, size: u64, prev_slot: u64, now_slot: u64) -> bool {
        if prev_slot == now_slot {
            return true;
        }
        let lo = prev_slot.max(self.first_slot);
        if lo >= now_slot {
            return false; // interval entirely aged out
        }
        for s in lo..now_slot {
            let idx = (s % SLOTS as u64) as usize;
            if size > self.store.capacity() - self.occupancy[idx] {
                return false;
            }
        }
        for s in lo..now_slot {
            let idx = (s % SLOTS as u64) as usize;
            self.occupancy[idx] += size;
        }
        true
    }

    /// Prunes aged-out reuse anchors to bound `last_seen`.
    fn prune_last_seen(&mut self) {
        let horizon = self.first_slot;
        self.last_seen.retain(|_, &mut slot| slot >= horizon);
    }
}

impl CachePolicy for Hawkeye {
    fn name(&self) -> &str {
        "Hawkeye"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        // --- OPTgen bookkeeping (independent of the real cache state) ---
        let now_slot = Self::slot_of(self.clock);
        self.advance_to(now_slot);
        if let Some(prev_slot) = self.last_seen.insert(req.id, now_slot) {
            let opt_hit = self.optgen_decide(req.size, prev_slot, now_slot);
            self.train(req.id, opt_hit);
        }
        self.clock += 1;
        if self.clock.is_multiple_of(REQS_PER_SLOT * SLOTS as u64 / 4) {
            self.prune_last_seen();
        }

        // --- Real cache ---
        // A hit moves the object to the list the predictor names now.
        let segment = if self.is_friendly(req.id) {
            FRIENDLY
        } else {
            AVERSE
        };
        if self.store.move_to(req.id, segment) {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() {
            return Outcome::MissBypassed;
        }
        while !self.store.fits(req.size) {
            if self.store.pop_lru(AVERSE).is_none() {
                self.store
                    .pop_lru(FRIENDLY)
                    .expect("cache full but both lists empty");
            }
        }
        self.store.insert(req.id, req.size, req.ts, segment);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        (self.store.len() * 64
            + self.last_seen.len() * 16
            + self.predictor.len()
            + self.occupancy.len() * 8) as u64
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
    fn basic_hits() {
        let mut c = Hawkeye::new(1_000);
        assert_eq!(c.handle(&req(0, 1, 400)), Outcome::MissAdmitted);
        assert!(c.handle(&req(1, 1, 400)).is_hit());
    }

    #[test]
    fn optgen_trains_friendly_for_tight_reuse() {
        let mut c = Hawkeye::new(10_000);
        for t in 0..20 {
            c.handle(&req(t, 1, 100));
        }
        assert!(c.is_friendly(1));
        assert_eq!(c.predictor[Hawkeye::predictor_index(1)], 3);
    }

    #[test]
    fn optgen_trains_averse_when_interval_cannot_fit() {
        let mut c = Hawkeye::new(1_000);
        // Interleave object 1 with enough traffic that OPT could not hold
        // it: 20 distinct 1 000-byte objects between touches fills every
        // slot's occupancy.
        let mut t = 0u64;
        for _round in 0..12 {
            c.handle(&req(t, 1, 900));
            t += 1;
            for filler in 0..40u64 {
                c.handle(&req(t, 1_000 + filler, 900));
                t += 1;
            }
        }
        // Fillers are re-seen every round with 40 × 900 B of competing
        // liveness — OPT with 1 000 B cannot keep them all, so most verdicts
        // are misses and the shared-hash counters trend averse for the
        // filler population.
        let averse_fillers = (1_000..1_040u64).filter(|&id| !c.is_friendly(id)).count();
        assert!(
            averse_fillers > 30,
            "only {averse_fillers}/40 trained averse"
        );
    }

    #[test]
    fn averse_objects_evicted_before_friendly() {
        let mut c = Hawkeye::new(300);
        // Train 1 friendly, 900/901 averse.
        for t in 0..10 {
            c.handle(&req(t, 1, 100));
        }
        c.predictor[Hawkeye::predictor_index(900)] = -2;
        c.predictor[Hawkeye::predictor_index(901)] = -2;
        c.handle(&req(20, 900, 100));
        c.handle(&req(21, 901, 100));
        // Cache now holds 1 (friendly) + 900, 901 (averse). Insert another:
        c.handle(&req(22, 902, 100));
        assert!(
            c.contains(1),
            "friendly object was evicted before averse ones"
        );
    }

    #[test]
    fn capacity_respected() {
        let mut c = Hawkeye::new(2_000);
        for i in 0..5_000u64 {
            c.handle(&req(i, i % 61, 150 + (i % 4) * 100));
            assert!(c.used_bytes() <= 2_000);
        }
        assert!(c.evictions() > 0);
    }

    #[test]
    fn ring_advances_without_panic_over_long_traces() {
        let mut c = Hawkeye::new(5_000);
        for i in 0..(REQS_PER_SLOT * SLOTS as u64 * 2) {
            c.handle(&req(i, i % 1_000, 100));
        }
        // last_seen must have been pruned to the window.
        assert!(c.last_seen.len() <= 1_000);
    }
}

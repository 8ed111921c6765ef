//! One byte-bounded set of objects ordered by a key the policy computes —
//! the cache store under every evict-the-minimum policy (GDSF, LFU-DA,
//! LRU-K), which differ only in the key.
//!
//! The store holds the ordered set, the membership map, the byte
//! accounting, the eviction counter and each object's freshness stamp
//! (`CacheStore`'s contract) once. The set is a `BTreeSet<(K, ObjectId)>`,
//! so equal keys evict in id order. A policy keeps what it ranks by — its
//! formula, its inflation term, and per-object state `V` that rides in
//! the slot (GDSF's frequency, LRU-K's reference history).

use lhr_sim::CacheStore;
use lhr_trace::{ObjectId, Time};
use lhr_util::hash::FastMap;
use std::collections::BTreeSet;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    size: u64,
    at: Time,
    value: V,
}

/// A key-ordered set of `(id, size, value)` that the policy keeps within
/// `capacity` bytes by calling [`OrderedStore::pop_min`] before it
/// inserts.
#[derive(Debug)]
pub struct OrderedStore<K, V = ()> {
    capacity: u64,
    used: u64,
    evictions: u64,
    queue: BTreeSet<(K, ObjectId)>,
    slots: FastMap<ObjectId, Slot<K, V>>,
}

impl<K: Ord + Copy, V> OrderedStore<K, V> {
    /// An empty store of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        OrderedStore {
            capacity,
            used: 0,
            evictions: 0,
            queue: BTreeSet::new(),
            slots: FastMap::default(),
        }
    }

    /// Number of objects held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The key and policy state of `id`, if it is held.
    pub fn get(&self, id: ObjectId) -> Option<(K, &V)> {
        self.slots.get(&id).map(|slot| (slot.key, &slot.value))
    }

    /// The hit path: if `id` is held, moves it to the key `rule` makes of
    /// its present key and state, and says whether it was held.
    #[inline]
    pub fn rekey(&mut self, id: ObjectId, rule: impl FnOnce(K, &mut V) -> K) -> bool {
        let Some(slot) = self.slots.get_mut(&id) else {
            return false;
        };
        self.queue.remove(&(slot.key, id));
        slot.key = rule(slot.key, &mut slot.value);
        self.queue.insert((slot.key, id));
        true
    }

    /// Admits `id` under `key`, stamped `at`. `id` must be absent and must
    /// [`fit`](CacheStore::fits).
    pub fn insert(&mut self, id: ObjectId, size: u64, at: Time, key: K, value: V) {
        debug_assert!(self.fits(size) && !self.slots.contains_key(&id));
        self.queue.insert((key, id));
        let slot = Slot {
            key,
            size,
            at,
            value,
        };
        self.slots.insert(id, slot);
        self.used += size;
    }

    /// Evicts the object with the smallest `(key, id)`, returning its key,
    /// id and policy state.
    pub fn pop_min(&mut self) -> Option<(K, ObjectId, V)> {
        let (key, id) = self.queue.pop_first()?;
        let slot = self.slots.remove(&id).expect("queued");
        self.used -= slot.size;
        self.evictions += 1;
        Some((key, id, slot.value))
    }
}

impl<K, V> CacheStore for OrderedStore<K, V> {
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn used(&self) -> u64 {
        self.used
    }
    /// Objects removed by [`OrderedStore::pop_min`].
    fn evictions(&self) -> u64 {
        self.evictions
    }
    #[inline]
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.slots.get(&id).map(|slot| slot.at)
    }
    /// Its place in the order is untouched.
    fn restamp(&mut self, id: ObjectId, at: Time) {
        if let Some(slot) = self.slots.get_mut(&id) {
            slot.at = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_leave_in_id_order() {
        let mut s: OrderedStore<u64> = OrderedStore::new(300);
        s.insert(7, 100, Time::ZERO, 1, ());
        s.insert(3, 100, Time::ZERO, 1, ());
        s.insert(5, 100, Time::ZERO, 0, ());
        assert!(!s.fits(1));
        assert_eq!(s.pop_min(), Some((0, 5, ())));
        assert_eq!(s.pop_min(), Some((1, 3, ())));
        assert_eq!((s.used(), s.evictions(), s.len()), (100, 2, 1));
    }

    #[test]
    fn rekey_of_an_absent_id_changes_nothing() {
        let mut s: OrderedStore<u64, u64> = OrderedStore::new(100);
        s.insert(1, 60, Time::ZERO, 4, 0);
        assert!(!s.rekey(9, |_, _| unreachable!("absent")));
        assert_eq!(s.get(1), Some((4, &0)));
        assert_eq!(s.get(9), None);
    }

    /// The store against the structure it replaces — a `Vec` kept sorted
    /// by `(key, id)` plus a `HashMap` of stamps — under a random mix of
    /// inserts, rekeys, pops and restamps.
    #[test]
    fn random_operations_match_a_vec_and_hashmap_model() {
        use lhr_util::prop::{any_u64, range};
        use lhr_util::{prop_assert_eq, prop_check};
        use std::collections::HashMap;
        prop_check!(cases: 64, (ops in range(1usize..1_500), seed in any_u64(), key_space in range(1u64..64)) => {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let capacity = 40 * key_space;
            let mut store: OrderedStore<u64, u64> = OrderedStore::new(capacity);
            // (key, id, size, value), sorted.
            let mut model: Vec<(u64, ObjectId, u64, u64)> = Vec::new();
            let mut stamps: HashMap<ObjectId, Time> = HashMap::new();
            let mut evicted = 0u64;
            for step in 0..ops as u64 {
                let id = next() % key_space;
                let held = model.iter().position(|&(_, held, ..)| held == id);
                match next() % 10 {
                    // Insert-heavy, so the store stays near its byte budget.
                    0..=4 => {
                        let size = next() % 100 + 1;
                        let used: u64 = model.iter().map(|&(_, _, size, _)| size).sum();
                        prop_assert_eq!(store.fits(size), used + size <= capacity);
                        if held.is_none() && store.fits(size) {
                            // Few distinct keys, so ties are common.
                            let key = next() % 8;
                            store.insert(id, size, Time(step), key, step);
                            model.push((key, id, size, step));
                            stamps.insert(id, Time(step));
                        }
                    }
                    5..=6 => {
                        let gone = store.pop_min();
                        let first = (!model.is_empty()).then(|| model.remove(0));
                        prop_assert_eq!(gone, first.map(|(key, id, _, value)| (key, id, value)));
                        if let Some((_, id, ..)) = first {
                            stamps.remove(&id);
                            evicted += 1;
                        }
                    }
                    // Present or absent: restamping admits nothing.
                    7 => {
                        store.restamp(id, Time(step));
                        stamps.entry(id).and_modify(|at| *at = Time(step));
                    }
                    // The hit path: a new key from the old one and the state.
                    _ => {
                        let bump = next() % 4;
                        let was_held = store.rekey(id, |key, value| {
                            *value += 1;
                            (key + bump) % 8
                        });
                        prop_assert_eq!(was_held, held.is_some());
                        if let Some(pos) = held {
                            model[pos].0 = (model[pos].0 + bump) % 8;
                            model[pos].3 += 1;
                        }
                    }
                }
                model.sort_unstable();
                prop_assert_eq!(store.len(), model.len());
                for &(key, id, _, value) in &model {
                    prop_assert_eq!(store.get(id), Some((key, &value)));
                    // A rekey moves the object, never its stamp.
                    prop_assert_eq!(store.admitted_at(id), stamps.get(&id).copied());
                }
                prop_assert_eq!(store.get(id).is_some(), stamps.contains_key(&id));
                prop_assert_eq!(store.used(), model.iter().map(|&(_, _, size, _)| size).sum::<u64>());
                prop_assert_eq!(store.evictions(), evicted);
                prop_assert_eq!(store.is_empty(), model.is_empty());
            }
            // Draining hands the objects back in `(key, id)` order.
            for &(key, id, _, value) in &model {
                prop_assert_eq!(store.pop_min(), Some((key, id, value)));
            }
            prop_assert_eq!(store.pop_min(), None);
        });
    }
}

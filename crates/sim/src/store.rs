//! The cache-store contract every policy stands on, and the two generic
//! stores that live beside it.
//!
//! [`CacheStore`] is what a cache holds whatever its shape: a byte budget,
//! the bytes held, an eviction count and each object's freshness stamp.
//! [`crate::CachePolicy`] reads its accounting and freshness methods from
//! the store a policy names, so a policy is a name, a store and a
//! `handle`.
//!
//! [`SampleStore`] is the dense-array store: every cached object is one
//! slot, so a policy that scores 64 random candidates reads 64 array slots
//! instead of probing a map 64 times (SNIPPETS.md snippet 3). It holds the
//! position index, the `swap_remove` fix-up, the byte accounting, the
//! eviction counter and each object's freshness stamp once. The stamp sits
//! in the index value, not in the slot: it is only ever read by id, and
//! the slots a sampler scans stay as small as the policy's own state.
//! Everything that samples stands on it: the `lhr-policies` samplers
//! (Random, Hyperbolic, LHD, LRB, PopCache), `LhrCache`, and the shadow
//! cache of LHR's threshold estimator. Each draws positions from its own
//! RNG — `rng.gen_range(0..store.len())` — scores [`SampleStore::slot`]s
//! by its own rule and hands the loser to [`SampleStore::evict_at`].
//!
//! [`OrderedStore`] is the evict-the-minimum store: objects ordered by a
//! key their owner computes. GDSF, LFU-DA and LRU-K rank by their own
//! formulas, and [`crate::bound::belady_replay`] keys each object by
//! `Reverse((next use, id))`, so that the minimum is the object requested
//! farthest ahead.
//!
//! Both stores keep `used ≤ capacity` by contract: their inserts require
//! [`CacheStore::fits`], so a sum of byte counts near `u64::MAX` cannot
//! wrap inside them.

use lhr_trace::{ObjectId, Time};
use lhr_util::hash::FastMap;
use std::collections::BTreeSet;

/// A byte-bounded set of cached objects, each carrying its freshness
/// stamp — the part of a cache every policy has, whatever it ranks by.
///
/// # Contract
///
/// - `used() ≤ capacity()` at all times.
/// - **The freshness stamp.** Every held object carries the time it was
///   admitted or last revalidated, in the slot the store keeps for it
///   anyway. Admission writes it (a policy's `handle` that answers
///   [`crate::Outcome::MissAdmitted`] admits the object stamped with
///   `req.ts`); a hit leaves it alone, and so does any internal move (a
///   promotion between segments, a rekey, a compaction of the slot
///   array); eviction drops it, so a later re-admission stamps afresh.
///   The serving layer only reads it ([`CacheStore::admitted_at`], for
///   the §6.1 freshness check) and restarts it after a successful
///   revalidation ([`CacheStore::restamp`]). It keeps no table of its
///   own, so a policy handed to a server already warm brings its own
///   admission times with it.
pub trait CacheStore {
    /// The byte budget.
    fn capacity(&self) -> u64;

    /// Bytes held.
    fn used(&self) -> u64;

    /// Objects evicted so far.
    fn evictions(&self) -> u64;

    /// When the held copy of `id` was admitted or last revalidated (the
    /// freshness stamp of the contract above); `None` when `id` is not
    /// held. Every other piece of state, recency included, is untouched.
    fn admitted_at(&self, id: ObjectId) -> Option<Time>;

    /// Restarts the freshness lifetime of `id`: its stamp becomes `at`.
    /// Nothing else about the object changes, and an `id` that is not held
    /// is neither admitted nor an error.
    fn restamp(&mut self, id: ObjectId, at: Time);

    /// Whether `size` more bytes fit without an eviction. `used()` never
    /// exceeds `capacity()`, so the subtraction cannot wrap.
    #[inline]
    fn fits(&self, size: u64) -> bool {
        size <= self.capacity() - self.used()
    }
}

/// One cached object with the policy's per-object state inline.
#[derive(Debug)]
pub struct Slot<E> {
    /// The object.
    pub id: ObjectId,
    /// Its size in bytes, counted in [`SampleStore::used`].
    pub size: u64,
    /// What the policy scores it by.
    pub entry: E,
}

/// A dense array of [`Slot`]s with an id → position index, never holding
/// more than `capacity` bytes.
#[derive(Debug)]
pub struct SampleStore<E> {
    capacity: u64,
    used: u64,
    evictions: u64,
    slots: Vec<Slot<E>>,
    /// id → (position in `slots`, freshness stamp).
    index: FastMap<ObjectId, (u32, Time)>,
}

impl<E> SampleStore<E> {
    /// An empty store of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        SampleStore {
            capacity,
            used: 0,
            evictions: 0,
            slots: Vec::new(),
            index: FastMap::default(),
        }
    }

    /// An empty store of `capacity` bytes with room for `objects` objects
    /// before it allocates — so a store handed to another thread can be
    /// allocated by the thread that hands it over.
    pub fn with_room(capacity: u64, objects: usize) -> Self {
        SampleStore {
            slots: Vec::with_capacity(objects),
            index: FastMap::with_capacity_and_hasher(objects, Default::default()),
            ..SampleStore::new(capacity)
        }
    }

    /// Empties the store (bytes held and evictions too), keeping its
    /// allocations.
    pub fn clear(&mut self) {
        self.used = 0;
        self.evictions = 0;
        self.slots.clear();
        self.index.clear();
    }

    /// Number of objects held; positions are `0..len()`.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `id` is held.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.index.contains_key(&id)
    }

    /// The hit path: the policy state of `id`, if it is held.
    #[inline]
    pub fn get_mut(&mut self, id: ObjectId) -> Option<&mut E> {
        let &(pos, _) = self.index.get(&id)?;
        Some(&mut self.slots[pos as usize].entry)
    }

    /// Where `id` sits, if it is held — for a caller that probes once and
    /// then reads or writes the slot by position
    /// ([`SampleStore::entry_mut`]). Valid until the next
    /// [`SampleStore::evict_at`].
    #[inline]
    pub fn position(&self, id: ObjectId) -> Option<usize> {
        self.index.get(&id).map(|&(pos, _)| pos as usize)
    }

    /// The object at `pos` (`pos < len()`).
    #[inline]
    pub fn slot(&self, pos: usize) -> &Slot<E> {
        &self.slots[pos]
    }

    /// The policy state of the object at `pos` (`pos < len()`), writable.
    #[inline]
    pub fn entry_mut(&mut self, pos: usize) -> &mut E {
        &mut self.slots[pos].entry
    }

    /// Admits `id` at position `len()`, stamped `at`. `id` must be absent
    /// and must [`fit`](CacheStore::fits).
    pub fn push(&mut self, id: ObjectId, size: u64, at: Time, entry: E) {
        debug_assert!(self.fits(size) && !self.contains(id));
        let pos = u32::try_from(self.slots.len()).expect("fewer than 2^32 cached objects");
        self.index.insert(id, (pos, at));
        self.slots.push(Slot { id, size, entry });
        self.used += size;
    }

    /// Evicts the object at `pos`, returning its slot. The last slot
    /// moves into `pos`, keeping its stamp; every other position is
    /// unchanged.
    pub fn evict_at(&mut self, pos: usize) -> Slot<E> {
        let slot = self.slots.swap_remove(pos);
        self.index.remove(&slot.id);
        if let Some(moved) = self.slots.get(pos) {
            self.index.get_mut(&moved.id).expect("indexed").0 = pos as u32;
        }
        self.used -= slot.size;
        self.evictions += 1;
        slot
    }
}

impl<E> CacheStore for SampleStore<E> {
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn used(&self) -> u64 {
        self.used
    }
    /// Objects removed by [`SampleStore::evict_at`].
    fn evictions(&self) -> u64 {
        self.evictions
    }
    #[inline]
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.index.get(&id).map(|&(_, at)| at)
    }
    fn restamp(&mut self, id: ObjectId, at: Time) {
        if let Some(entry) = self.index.get_mut(&id) {
            entry.1 = at;
        }
    }
}

/// One object of an [`OrderedStore`].
#[derive(Debug)]
struct Ranked<K, V> {
    key: K,
    size: u64,
    at: Time,
    value: V,
}

/// A byte-bounded set of `(id, size, value)` ordered by `(key, id)`: the
/// owner keeps it within `capacity` bytes by calling
/// [`OrderedStore::pop_min`] before it inserts. Equal keys leave in id
/// order. `V` is per-object state that rides in the slot (GDSF's
/// frequency, LRU-K's reference history).
#[derive(Debug)]
pub struct OrderedStore<K, V = ()> {
    capacity: u64,
    used: u64,
    evictions: u64,
    queue: BTreeSet<(K, ObjectId)>,
    slots: FastMap<ObjectId, Ranked<K, V>>,
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

    /// The key and owner state of `id`, if it is held.
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
        let slot = Ranked {
            key,
            size,
            at,
            value,
        };
        self.slots.insert(id, slot);
        self.used += size;
    }

    /// The smallest `(key, id)` — the next [`OrderedStore::pop_min`] —
    /// without evicting it.
    pub fn peek_min(&self) -> Option<(K, ObjectId)> {
        self.queue.first().copied()
    }

    /// Evicts the object with the smallest `(key, id)`, returning its key,
    /// id and owner state.
    pub fn pop_min(&mut self) -> Option<(K, ObjectId, V)> {
        let (key, id) = self.queue.pop_first()?;
        let slot = self.slots.remove(&id).expect("queued");
        self.used -= slot.size;
        self.evictions += 1;
        Some((key, id, slot.value))
    }

    /// Evicts `id` wherever it ranks, returning its key and owner state.
    pub fn remove(&mut self, id: ObjectId) -> Option<(K, V)> {
        let slot = self.slots.remove(&id)?;
        self.queue.remove(&(slot.key, id));
        self.used -= slot.size;
        self.evictions += 1;
        Some((slot.key, slot.value))
    }
}

impl<K, V> CacheStore for OrderedStore<K, V> {
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn used(&self) -> u64 {
        self.used
    }
    /// Objects removed by [`OrderedStore::pop_min`] and
    /// [`OrderedStore::remove`].
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
    fn evicting_a_middle_slot_moves_the_last_one_into_it() {
        let mut s: SampleStore<char> = SampleStore::new(1_000);
        s.push(10, 100, Time::from_secs(10), 'a');
        s.push(20, 200, Time::from_secs(20), 'b');
        s.push(30, 300, Time::from_secs(30), 'c');
        let gone = s.evict_at(0);
        assert_eq!((gone.id, gone.size, gone.entry), (10, 100, 'a'));
        assert_eq!(s.slot(0).id, 30);
        assert_eq!(s.get_mut(30), Some(&mut 'c'));
        assert_eq!(s.get_mut(20), Some(&mut 'b'));
        assert_eq!(s.get_mut(10), None);
        // The moved slot kept its stamp; the evicted one's is gone.
        assert_eq!(s.admitted_at(30), Some(Time::from_secs(30)));
        assert_eq!(s.admitted_at(10), None);
        s.restamp(20, Time::from_secs(99));
        s.restamp(10, Time::from_secs(99)); // absent: not admitted by it
        assert_eq!(s.admitted_at(20), Some(Time::from_secs(99)));
        assert!(!s.contains(10));
        assert_eq!((s.used(), s.evictions(), s.len()), (500, 1, 2));
    }

    #[test]
    fn evicting_the_last_slot_needs_no_fix_up() {
        let mut s: SampleStore<()> = SampleStore::new(100);
        s.push(1, 40, Time::from_secs(1), ());
        s.push(2, 40, Time::from_secs(2), ());
        assert!(!s.fits(40));
        s.evict_at(1);
        assert!(s.contains(1) && !s.contains(2));
        assert!(s.fits(60) && !s.fits(61));
        s.evict_at(0);
        assert!(s.is_empty());
    }

    /// `fits` at a capacity above `u64::MAX / 2`, where `used + size`
    /// wraps: two objects of half the capacity fill it, and a third does
    /// not fit.
    #[test]
    fn fits_does_not_wrap_above_half_of_u64_max() {
        let half = 9_000_000_000_000_000_000;
        let mut s: SampleStore<()> = SampleStore::new(2 * half);
        s.push(1, half, Time::ZERO, ());
        assert!(s.fits(half));
        s.push(2, half, Time::ZERO, ());
        assert!(!s.fits(half) && !s.fits(1) && s.fits(0));
        assert_eq!(s.used(), s.capacity());
    }

    /// Three samplers stand on the store, so it is held to the structure
    /// each of them used to keep by hand: a `Vec` in sampler order (`push`
    /// appends, eviction `swap_remove`s) and a `HashMap` of stamps. After
    /// every `push` / `evict_at` / `restamp` / `get_mut` / `entry_mut` of a
    /// random sequence every position holds the model's slot, `position`
    /// is the model's index, and the stamp of a slot the fix-up moved is
    /// the one it was admitted or last restamped with.
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
            let mut store: SampleStore<u64> = SampleStore::new(capacity);
            let mut slots: Vec<(ObjectId, u64, u64)> = Vec::new();
            let mut stamps: HashMap<ObjectId, Time> = HashMap::new();
            let mut evicted = 0u64;
            for step in 0..ops as u64 {
                let id = next() % key_space;
                let held = slots.iter().position(|&(held, ..)| held == id);
                prop_assert_eq!(store.position(id), held);
                match next() % 10 {
                    // Push-heavy, so the store stays near its byte budget.
                    0..=4 => {
                        let size = next() % 100 + 1;
                        let used: u64 = slots.iter().map(|&(_, size, _)| size).sum();
                        prop_assert_eq!(store.fits(size), used + size <= capacity);
                        if held.is_none() && store.fits(size) {
                            store.push(id, size, Time(step), step);
                            slots.push((id, size, step));
                            stamps.insert(id, Time(step));
                        }
                    }
                    5..=6 if !slots.is_empty() => {
                        let pos = next() as usize % slots.len();
                        let gone = store.evict_at(pos);
                        let model = slots.swap_remove(pos);
                        prop_assert_eq!((gone.id, gone.size, gone.entry), model);
                        stamps.remove(&gone.id);
                        evicted += 1;
                    }
                    // Present or absent: restamping admits nothing.
                    7 => {
                        store.restamp(id, Time(step));
                        stamps.entry(id).and_modify(|at| *at = Time(step));
                    }
                    // The two hit paths: by id, and by a position probed once.
                    8 => {
                        if let Some(entry) = store.get_mut(id) {
                            *entry += 1;
                        }
                        if let Some(pos) = held {
                            slots[pos].2 += 1;
                        }
                    }
                    _ => {
                        if let Some(pos) = held {
                            *store.entry_mut(pos) += 7;
                            slots[pos].2 += 7;
                        }
                    }
                }
                prop_assert_eq!(store.len(), slots.len());
                for (pos, &(id, size, entry)) in slots.iter().enumerate() {
                    let slot = store.slot(pos);
                    prop_assert_eq!((slot.id, slot.size, slot.entry), (id, size, entry));
                    prop_assert_eq!(store.position(id), Some(pos));
                    prop_assert_eq!(store.admitted_at(id), stamps.get(&id).copied());
                }
                prop_assert_eq!(store.contains(id), stamps.contains_key(&id));
                prop_assert_eq!(store.used(), slots.iter().map(|&(_, size, _)| size).sum::<u64>());
                prop_assert_eq!(store.evictions(), evicted);
            }
        });
    }

    #[test]
    fn ordered_store_evicts_equal_keys_in_id_order() {
        let mut s: OrderedStore<u64> = OrderedStore::new(300);
        s.insert(7, 100, Time::ZERO, 1, ());
        s.insert(3, 100, Time::ZERO, 1, ());
        s.insert(5, 100, Time::ZERO, 0, ());
        assert!(!s.fits(1));
        assert_eq!(s.peek_min(), Some((0, 5)));
        assert_eq!(s.pop_min(), Some((0, 5, ())));
        assert_eq!(s.pop_min(), Some((1, 3, ())));
        assert_eq!((s.used(), s.evictions(), s.len()), (100, 2, 1));
    }

    #[test]
    fn ordered_store_rekey_or_remove_of_an_absent_id_changes_nothing() {
        let mut s: OrderedStore<u64, u64> = OrderedStore::new(100);
        s.insert(1, 60, Time::ZERO, 4, 0);
        assert!(!s.rekey(9, |_, _| unreachable!("absent")));
        assert_eq!(s.get(1), Some((4, &0)));
        assert_eq!(s.get(9), None);
        assert_eq!(s.remove(9), None);
        assert_eq!(s.remove(1), Some((4, 0)));
        assert_eq!((s.used(), s.evictions(), s.peek_min()), (0, 1, None));
    }

    /// [`OrderedStore`] against a `Vec` kept sorted by `(key, id)` plus a
    /// `HashMap` of stamps, under a random mix of inserts, rekeys, pops,
    /// removals and restamps.
    #[test]
    fn ordered_store_matches_a_sorted_vec_and_hashmap_model() {
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
                    5 => {
                        let gone = store.remove(id);
                        let entry = held.map(|pos| model.remove(pos));
                        prop_assert_eq!(gone, entry.map(|(key, _, _, value)| (key, value)));
                        if entry.is_some() {
                            stamps.remove(&id);
                            evicted += 1;
                        }
                    }
                    6 => {
                        prop_assert_eq!(store.peek_min(), model.first().map(|&(key, id, ..)| (key, id)));
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

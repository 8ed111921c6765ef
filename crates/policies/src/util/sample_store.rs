//! A byte-bounded cache store for sampled eviction: every cached object
//! is one slot of a dense array, so a policy that scores 64 random
//! candidates reads 64 array slots instead of probing a map 64 times
//! (SNIPPETS.md snippet 3; `LhrCache` keeps its candidates the same way).
//!
//! The store holds the position index, the `swap_remove` fix-up, the byte
//! accounting, the eviction counter and each object's freshness stamp
//! (`CachePolicy`'s contract) once. The stamp sits in the index value, not
//! in the slot: it is only ever read by id, and the slots a sampler scans
//! stay as small as the policy's own state. Policies on top of it
//! (Random, Hyperbolic, LHD, LRB, PopCache) draw positions from their own
//! RNG — `rng.gen_range(0..store.len())` — score [`SampleStore::slot`]s
//! and hand the loser to [`SampleStore::evict_at`].

use lhr_trace::{ObjectId, Time};
use lhr_util::hash::FastMap;

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

    /// The byte budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes held.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Objects removed by [`SampleStore::evict_at`].
    pub fn evictions(&self) -> u64 {
        self.evictions
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

    /// The freshness stamp of `id`, if it is held.
    #[inline]
    pub fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.index.get(&id).map(|&(_, at)| at)
    }

    /// Sets the freshness stamp of `id` to `at` if it is held.
    pub fn restamp(&mut self, id: ObjectId, at: Time) {
        if let Some(entry) = self.index.get_mut(&id) {
            entry.1 = at;
        }
    }

    /// The object at `pos` (`pos < len()`).
    #[inline]
    pub fn slot(&self, pos: usize) -> &Slot<E> {
        &self.slots[pos]
    }

    /// Whether `size` more bytes fit without an eviction.
    pub fn fits(&self, size: u64) -> bool {
        self.used + size <= self.capacity
    }

    /// Admits `id` at position `len()`, stamped `at`. `id` must be absent
    /// and must [`fit`](SampleStore::fits).
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
}

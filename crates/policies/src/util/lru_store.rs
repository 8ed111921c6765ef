//! One byte-bounded LRU list with its membership map — the cache store
//! under every single-list policy (LRU, FIFO, B-LRU, AdaptSize, TinyLFU,
//! LFO, RL-Cache), which differ only in what they admit and, for FIFO,
//! in never touching a hit.
//!
//! The store holds the LRU-end eviction loop, the byte accounting and the
//! eviction counter once; a policy on top of it keeps its admission rule
//! and nothing else. Membership is a [`FastMap`] from id to list handle,
//! so a hit is one probe plus one splice ([`LruStore::touch`]). The map
//! value also carries the object's freshness stamp (`CacheStore`'s
//! contract): the serving layer reads it right after the hit's probe of
//! the same entry.

use super::{Handle, LruList};
use lhr_sim::CacheStore;
use lhr_trace::{ObjectId, Time};
use lhr_util::hash::FastMap;

/// A recency-ordered set of `(id, size)` that never exceeds `capacity`
/// bytes.
#[derive(Debug)]
pub struct LruStore {
    capacity: u64,
    used: u64,
    evictions: u64,
    list: LruList<(ObjectId, u64)>,
    map: FastMap<ObjectId, (Handle, Time)>,
}

impl LruStore {
    /// An empty store of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruStore {
            capacity,
            used: 0,
            evictions: 0,
            list: LruList::new(),
            map: FastMap::default(),
        }
    }

    /// Number of objects held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `id` is held; recency is untouched.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.map.contains_key(&id)
    }

    /// The hit path: moves `id` to the MRU end if it is held and says
    /// whether it was.
    #[inline]
    pub fn touch(&mut self, id: ObjectId) -> bool {
        match self.map.get(&id) {
            Some(&(handle, _)) => {
                self.list.move_to_front(handle);
                true
            }
            None => false,
        }
    }

    /// Admits `id` at the MRU end, stamped `at`, first evicting from the
    /// LRU end until `size` bytes fit. `id` must be absent and `size` at
    /// most the capacity.
    pub fn insert(&mut self, id: ObjectId, size: u64, at: Time) {
        debug_assert!(size <= self.capacity && !self.contains(id));
        while !self.fits(size) {
            self.evict_lru().expect("over budget yet empty");
        }
        let handle = self.list.push_front((id, size));
        self.map.insert(id, (handle, at));
        self.used += size;
    }

    /// Evicts the least recently used object, returning it.
    pub fn evict_lru(&mut self) -> Option<(ObjectId, u64)> {
        let (id, size) = self.list.pop_back()?;
        self.map.remove(&id);
        self.used -= size;
        self.evictions += 1;
        Some((id, size))
    }

    /// `(id, size)` from the LRU end to the MRU end — eviction order.
    pub fn iter_lru_first(&self) -> impl Iterator<Item = &(ObjectId, u64)> {
        self.list.iter_lru_first()
    }
}

impl CacheStore for LruStore {
    fn capacity(&self) -> u64 {
        self.capacity
    }
    fn used(&self) -> u64 {
        self.used
    }
    /// Objects evicted so far, by [`LruStore::evict_lru`] or by
    /// [`LruStore::insert`] making room.
    fn evictions(&self) -> u64 {
        self.evictions
    }
    #[inline]
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.map.get(&id).map(|&(_, at)| at)
    }
    fn restamp(&mut self, id: ObjectId, at: Time) {
        if let Some(entry) = self.map.get_mut(&id) {
            entry.1 = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_evicts_from_the_lru_end_until_it_fits() {
        let mut s = LruStore::new(300);
        s.insert(1, 100, Time::ZERO);
        s.insert(2, 100, Time::ZERO);
        s.insert(3, 100, Time::ZERO);
        assert!(s.touch(1)); // LRU order: 2, 3, 1
        s.insert(4, 150, Time::ZERO); // evicts 2 and 3
        assert!(!s.contains(2) && !s.contains(3));
        assert!(s.contains(1) && s.contains(4));
        assert_eq!((s.used(), s.evictions(), s.len()), (250, 2, 2));
    }

    #[test]
    fn the_stamp_lives_and_dies_with_the_entry() {
        let mut s = LruStore::new(200);
        s.insert(1, 100, Time::from_secs(5));
        s.insert(2, 100, Time::from_secs(6));
        assert!(s.touch(1));
        assert_eq!(s.admitted_at(1), Some(Time::from_secs(5)));
        s.restamp(1, Time::from_secs(9));
        s.restamp(3, Time::from_secs(9)); // absent: not admitted by it
        assert_eq!(s.admitted_at(1), Some(Time::from_secs(9)));
        assert_eq!((s.admitted_at(3), s.len()), (None, 2));
        s.insert(3, 100, Time::from_secs(10)); // evicts 2
        assert_eq!(s.admitted_at(2), None);
        s.insert(2, 100, Time::from_secs(11)); // evicts 1; 2 stamped afresh
        assert_eq!(s.admitted_at(2), Some(Time::from_secs(11)));
        assert_eq!(s.admitted_at(1), None);
    }

    #[test]
    fn touch_of_an_absent_id_changes_nothing() {
        let mut s = LruStore::new(100);
        s.insert(1, 60, Time::ZERO);
        assert!(!s.touch(9));
        assert_eq!(s.iter_lru_first().copied().collect::<Vec<_>>(), [(1, 60)]);
    }

    #[test]
    fn evict_lru_drains_in_recency_order() {
        let mut s = LruStore::new(1_000);
        for id in 1..=3 {
            s.insert(id, 100, Time::ZERO);
        }
        s.touch(1);
        assert_eq!(s.evict_lru(), Some((2, 100)));
        assert_eq!((s.used(), s.evictions()), (200, 1));
        assert_eq!(
            s.iter_lru_first().map(|&(id, _)| id).collect::<Vec<_>>(),
            [3, 1]
        );
        s.evict_lru();
        s.evict_lru();
        assert_eq!(s.evict_lru(), None);
        assert!(s.is_empty());
    }
}

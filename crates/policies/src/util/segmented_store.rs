//! Recency lists over one membership map — the cache store under every
//! list policy. One segment is plain LRU order: LRU, FIFO, B-LRU,
//! AdaptSize (and its tuning shadows), TinyLFU, LFO and RL-Cache, which
//! differ only in what they admit and, for FIFO, in never touching a hit.
//! Several segments sort objects into classes, each kept in LRU order:
//! SLRU / S4LRU (levels), ARC (T1, T2 and the two ghost lists), W-TinyLFU
//! (window, probation, protected), Hawkeye (friendly, averse).
//!
//! The store holds the lists, the map from id to list node and segment,
//! the per-segment byte counts, the eviction counter and each object's
//! freshness stamp (`CacheStore`'s contract) once. The stamp sits in the
//! map value, so moving an object between segments cannot lose it, and
//! the serving layer reads it right after a hit's probe of the same
//! entry. [`SegmentedStore::admit`] makes room from the LRU end of the
//! segment it admits to; a policy with a rule of its own — segment
//! budgets, a victim order across segments — evicts first and then
//! [`insert`](SegmentedStore::insert)s, which never passes the capacity.

use super::{Handle, LruList};
use lhr_sim::CacheStore;
use lhr_trace::{ObjectId, Time};
use lhr_util::hash::FastMap;

/// One segment: its recency list and the bytes on it.
#[derive(Debug, Default)]
struct Segment {
    list: LruList<(ObjectId, u64)>,
    bytes: u64,
}

/// `(id, size)` in one of `n` recency-ordered segments, never more than
/// `capacity` bytes in all.
#[derive(Debug)]
pub struct SegmentedStore {
    capacity: u64,
    used: u64,
    evictions: u64,
    segments: Vec<Segment>,
    /// id → (list node, segment, freshness stamp): 16 bytes, the segment
    /// packed beside the `u32` node handle.
    map: FastMap<ObjectId, (Handle, u32, Time)>,
}

impl SegmentedStore {
    /// An empty store of `capacity` bytes in `segments` segments.
    pub fn new(capacity: u64, segments: usize) -> Self {
        SegmentedStore {
            capacity,
            used: 0,
            evictions: 0,
            segments: (0..segments).map(|_| Segment::default()).collect(),
            map: FastMap::default(),
        }
    }

    /// Bytes held in `segment`.
    pub fn bytes(&self, segment: usize) -> u64 {
        self.segments[segment].bytes
    }

    /// Number of objects held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The segment `id` is in, if it is held; recency is untouched.
    pub fn segment_of(&self, id: ObjectId) -> Option<usize> {
        self.map.get(&id).map(|&(_, segment, _)| segment as usize)
    }

    /// A hit that stays where it is: moves `id` to the MRU end of its
    /// segment if it is held, and says which segment that is.
    #[inline]
    pub fn touch(&mut self, id: ObjectId) -> Option<usize> {
        let &(handle, segment, _) = self.map.get(&id)?;
        self.segments[segment as usize].list.move_to_front(handle);
        Some(segment as usize)
    }

    /// Moves `id` to the MRU end of `segment` — from another segment or
    /// within it — if it is held, and says whether it was. Its stamp goes
    /// with it.
    #[inline]
    pub fn move_to(&mut self, id: ObjectId, segment: usize) -> bool {
        let Some(slot) = self.map.get_mut(&id) else {
            return false;
        };
        let from = slot.1 as usize;
        if from == segment {
            self.segments[segment].list.move_to_front(slot.0);
        } else {
            let entry = self.segments[from].list.remove(slot.0);
            self.segments[from].bytes -= entry.1;
            let to = &mut self.segments[segment];
            to.bytes += entry.1;
            (slot.0, slot.1) = (to.list.push_front(entry), segment as u32);
        }
        true
    }

    /// Admits `id` at the MRU end of `segment`, stamped `at`, first
    /// evicting from the LRU end of that segment until `size` bytes fit.
    /// `id` must be absent, and the segment must hold enough to make room.
    ///
    /// Out of line, so that the hit path of a caller (`Lru::handle`) does
    /// not pay for the eviction loop's registers.
    #[inline(never)]
    pub fn admit(&mut self, id: ObjectId, size: u64, at: Time, segment: usize) {
        while !self.fits(size) {
            self.pop_lru(segment)
                .expect("over budget yet the segment is empty");
        }
        self.insert(id, size, at, segment);
    }

    /// Admits `id` at the MRU end of `segment`, stamped `at`. `id` must be
    /// absent and must [`fit`](CacheStore::fits): a policy that chooses its
    /// own victims evicts them first.
    #[inline]
    pub fn insert(&mut self, id: ObjectId, size: u64, at: Time, segment: usize) {
        debug_assert!(self.fits(size) && !self.map.contains_key(&id));
        let to = &mut self.segments[segment];
        let handle = to.list.push_front((id, size));
        to.bytes += size;
        self.map.insert(id, (handle, segment as u32, at));
        self.used += size;
    }

    /// The `(id, size)` at the LRU end of `segment`, if it holds anything.
    pub fn lru(&self, segment: usize) -> Option<(ObjectId, u64)> {
        self.segments[segment].list.back().copied()
    }

    /// `(id, size)` of `segment` from its LRU end to its MRU end.
    pub fn iter_lru_first(&self, segment: usize) -> impl Iterator<Item = &(ObjectId, u64)> {
        self.segments[segment].list.iter_lru_first()
    }

    /// Evicts the object at the LRU end of `segment`, returning its id,
    /// size and stamp.
    #[inline]
    pub fn pop_lru(&mut self, segment: usize) -> Option<(ObjectId, u64, Time)> {
        let from = &mut self.segments[segment];
        let (id, size) = from.list.pop_back()?;
        from.bytes -= size;
        let (_, _, at) = self.map.remove(&id).expect("listed");
        self.used -= size;
        self.evictions += 1;
        Some((id, size, at))
    }

    /// Evicts `id` from wherever it is, returning its segment, size and
    /// stamp.
    pub fn remove(&mut self, id: ObjectId) -> Option<(usize, u64, Time)> {
        let (handle, segment, at) = self.map.remove(&id)?;
        let from = &mut self.segments[segment as usize];
        let (_, size) = from.list.remove(handle);
        from.bytes -= size;
        self.used -= size;
        self.evictions += 1;
        Some((segment as usize, size, at))
    }
}

impl CacheStore for SegmentedStore {
    /// The byte budget of all segments together.
    fn capacity(&self) -> u64 {
        self.capacity
    }
    /// Bytes held in all segments together.
    fn used(&self) -> u64 {
        self.used
    }
    /// Objects removed by [`SegmentedStore::pop_lru`],
    /// [`SegmentedStore::remove`] and [`SegmentedStore::admit`] making
    /// room.
    fn evictions(&self) -> u64 {
        self.evictions
    }
    #[inline]
    fn admitted_at(&self, id: ObjectId) -> Option<Time> {
        self.map.get(&id).map(|&(_, _, at)| at)
    }
    fn restamp(&mut self, id: ObjectId, at: Time) {
        if let Some(slot) = self.map.get_mut(&id) {
            slot.2 = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_move_carries_bytes_and_stamp_to_the_mru_end_of_the_target() {
        let mut s = SegmentedStore::new(1_000, 2);
        s.insert(1, 100, Time::from_secs(1), 0);
        s.insert(2, 50, Time::from_secs(2), 0);
        s.insert(3, 10, Time::from_secs(3), 1);
        assert!(s.move_to(1, 1));
        assert_eq!((s.bytes(0), s.bytes(1), s.used()), (50, 110, 160));
        assert_eq!(
            s.iter_lru_first(1).copied().collect::<Vec<_>>(),
            [(3, 10), (1, 100)]
        );
        assert_eq!(
            (s.segment_of(1), s.admitted_at(1)),
            (Some(1), Some(Time::from_secs(1)))
        );
        assert!(!s.move_to(9, 1));
        assert_eq!(s.evictions(), 0);
    }

    #[test]
    fn pop_lru_hands_back_size_and_stamp() {
        let mut s = SegmentedStore::new(1_000, 2);
        s.insert(1, 100, Time::from_secs(1), 0);
        s.insert(2, 50, Time::from_secs(2), 0);
        assert_eq!(s.touch(1), Some(0)); // LRU order of segment 0: 2, 1
        assert_eq!(s.pop_lru(1), None);
        assert_eq!(s.pop_lru(0), Some((2, 50, Time::from_secs(2))));
        assert_eq!(s.remove(1), Some((0, 100, Time::from_secs(1))));
        assert_eq!(s.remove(1), None);
        assert_eq!((s.used(), s.evictions(), s.is_empty()), (0, 2, true));
    }

    #[test]
    fn admit_evicts_from_the_lru_end_of_its_own_segment_until_it_fits() {
        let mut s = SegmentedStore::new(400, 2);
        s.insert(9, 100, Time::ZERO, 1);
        s.admit(1, 100, Time::ZERO, 0);
        s.admit(2, 100, Time::ZERO, 0);
        s.admit(3, 100, Time::ZERO, 0);
        assert_eq!(s.touch(1), Some(0)); // LRU order of segment 0: 2, 3, 1
        s.admit(4, 150, Time::ZERO, 0); // evicts 2 and 3, not 9
        assert_eq!(
            s.iter_lru_first(0).copied().collect::<Vec<_>>(),
            [(1, 100), (4, 150)]
        );
        assert_eq!(s.segment_of(9), Some(1));
        assert_eq!((s.used(), s.evictions(), s.len()), (350, 2, 3));
    }

    /// One segment is an LRU list, and an entry's stamp lives and dies with
    /// it: a touch keeps it, eviction drops it, re-admission stamps afresh.
    #[test]
    fn one_segment_keeps_the_stamp_with_the_entry() {
        let mut s = SegmentedStore::new(200, 1);
        s.admit(1, 100, Time::from_secs(5), 0);
        s.admit(2, 100, Time::from_secs(6), 0);
        assert_eq!(s.touch(1), Some(0));
        assert_eq!(s.touch(3), None);
        assert_eq!(s.admitted_at(1), Some(Time::from_secs(5)));
        s.restamp(1, Time::from_secs(9));
        s.restamp(3, Time::from_secs(9)); // absent: not admitted by it
        assert_eq!(s.admitted_at(1), Some(Time::from_secs(9)));
        assert_eq!((s.admitted_at(3), s.len()), (None, 2));
        s.admit(3, 100, Time::from_secs(10), 0); // evicts 2
        assert_eq!(s.admitted_at(2), None);
        s.admit(2, 100, Time::from_secs(11), 0); // evicts 1; 2 stamped afresh
        assert_eq!(s.admitted_at(2), Some(Time::from_secs(11)));
        assert_eq!(s.admitted_at(1), None);
        assert_eq!(s.evictions(), 2);
    }

    /// The store against a `Vec` per segment (LRU first) plus a `HashMap`
    /// of stamps, under a random mix of inserts, admits, touches, moves,
    /// pops, removals and restamps.
    #[test]
    fn random_operations_match_a_vec_and_hashmap_model() {
        use lhr_util::prop::{any_u64, range};
        use lhr_util::{prop_assert_eq, prop_check};
        use std::collections::HashMap;
        prop_check!(cases: 64, (ops in range(1usize..1_500), seed in any_u64(), key_space in range(1u64..64), segments in range(1usize..5)) => {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let capacity = 40 * key_space;
            let mut store = SegmentedStore::new(capacity, segments);
            let mut model: Vec<Vec<(ObjectId, u64)>> = vec![Vec::new(); segments];
            let mut stamps: HashMap<ObjectId, Time> = HashMap::new();
            let mut evicted = 0u64;
            for step in 0..ops as u64 {
                let id = next() % key_space;
                let segment = next() as usize % segments;
                let held = model.iter().enumerate().find_map(|(segment, list)| {
                    let pos = list.iter().position(|&(held, _)| held == id)?;
                    Some((segment, pos))
                });
                prop_assert_eq!(store.segment_of(id), held.map(|(segment, _)| segment));
                match next() % 10 {
                    // Insert-heavy, so the store stays near its byte budget.
                    0..=1 => {
                        let size = next() % 100 + 1;
                        let used: u64 = model.iter().flatten().map(|&(_, size)| size).sum();
                        prop_assert_eq!(store.fits(size), used + size <= capacity);
                        if held.is_none() && store.fits(size) {
                            store.insert(id, size, Time(step), segment);
                            model[segment].push((id, size));
                            stamps.insert(id, Time(step));
                        }
                    }
                    // An admit makes room from its own segment's LRU end.
                    2..=3 => {
                        let size = next() % 100 + 1;
                        let mut used: u64 = model.iter().flatten().map(|&(_, size)| size).sum();
                        let own: u64 = model[segment].iter().map(|&(_, size)| size).sum();
                        if held.is_none() && used - own + size <= capacity {
                            store.admit(id, size, Time(step), segment);
                            while used + size > capacity {
                                let (gone, bytes) = model[segment].remove(0);
                                stamps.remove(&gone);
                                used -= bytes;
                                evicted += 1;
                            }
                            model[segment].push((id, size));
                            stamps.insert(id, Time(step));
                        }
                    }
                    4 => {
                        prop_assert_eq!(store.touch(id), held.map(|(segment, _)| segment));
                        if let Some((from, pos)) = held {
                            let entry = model[from].remove(pos);
                            model[from].push(entry);
                        }
                    }
                    5..=6 => {
                        prop_assert_eq!(store.move_to(id, segment), held.is_some());
                        if let Some((from, pos)) = held {
                            let entry = model[from].remove(pos);
                            model[segment].push(entry);
                        }
                    }
                    7 => {
                        prop_assert_eq!(store.lru(segment), model[segment].first().copied());
                        let gone = store.pop_lru(segment);
                        let first = (!model[segment].is_empty()).then(|| model[segment].remove(0));
                        let stamp = first.and_then(|(id, _)| stamps.remove(&id));
                        prop_assert_eq!(gone, first.map(|(id, size)| (id, size, stamp.expect("stamped"))));
                        evicted += u64::from(first.is_some());
                    }
                    8 => {
                        let gone = store.remove(id);
                        let entry = held.map(|(from, pos)| (from, model[from].remove(pos).1));
                        let stamp = stamps.remove(&id);
                        prop_assert_eq!(gone, entry.map(|(from, size)| (from, size, stamp.expect("stamped"))));
                        evicted += u64::from(entry.is_some());
                    }
                    // Present or absent: restamping admits nothing.
                    _ => {
                        store.restamp(id, Time(step));
                        stamps.entry(id).and_modify(|at| *at = Time(step));
                    }
                }
                let mut used = 0;
                for (segment, list) in model.iter().enumerate() {
                    let listed: Vec<_> = store.iter_lru_first(segment).copied().collect();
                    prop_assert_eq!(&listed, list);
                    let bytes: u64 = list.iter().map(|&(_, size)| size).sum();
                    prop_assert_eq!(store.bytes(segment), bytes);
                    used += bytes;
                    for &(id, _) in list {
                        // A touch or a move never changes a stamp.
                        prop_assert_eq!(store.admitted_at(id), stamps.get(&id).copied());
                    }
                }
                prop_assert_eq!(store.admitted_at(id), stamps.get(&id).copied());
                prop_assert_eq!((store.used(), store.len()), (used, stamps.len()));
                prop_assert_eq!(store.evictions(), evicted);
                prop_assert_eq!(store.is_empty(), stamps.is_empty());
            }
        });
    }
}

//! Non-overlapping sliding windows measured in unique bytes.
//!
//! The paper sizes windows so that the unique bytes of the requests they
//! contain equal a multiple (default 4×) of the cache size (§5.1,
//! Figure 5), and the windows do not overlap (§3.2 footnote 3).
//!
//! A window is its request log. Whether a request is its object's first
//! in the window is the caller's to say — LHR reads it off the window
//! stamp in its feature history, the HRO bound off its one map across the
//! trace — so the tracker holds no per-object state. What the window's
//! consumers read per object (HRO's top set, the Zipf detector) is derived
//! from the log once, at the edge: [`WindowData::objects`].
//!
//! The tracker holds one log. The request that closes a window hands it
//! out whole and leaves the next window an empty one; once the edge has
//! read the closed window, [`WindowTracker::recycle`] reopens the next
//! window on its cleared buffer. So a replay keeps one log's capacity, not
//! a second one parked beside it for the next edge.

use lhr_trace::{ObjectId, Request, Time};

/// One distinct object of a window, as [`WindowData::objects`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowObject {
    /// The object.
    pub id: ObjectId,
    /// Its requests in the window.
    pub count: u32,
    /// Its size as of its first request in the window.
    pub size: u64,
}

/// One window's worth of requests.
#[derive(Debug, Clone)]
pub struct WindowData {
    /// Sequential window index (0-based).
    pub index: u64,
    /// The requests, in arrival order.
    pub requests: Vec<Request>,
}

impl WindowData {
    /// The window `index` whose log is `requests`, for windows cut by
    /// request count rather than by a [`WindowTracker`] (Figure 12's
    /// segments).
    pub fn from_requests(index: u64, requests: &[Request]) -> Self {
        let requests = requests.to_vec();
        WindowData { index, requests }
    }

    /// Window duration in seconds, first request to last (at least `1 µs`
    /// to avoid division by zero in rate estimates).
    pub fn span_secs(&self) -> f64 {
        let span = match (self.requests.first(), self.requests.last()) {
            (Some(first), Some(last)) => last.ts.saturating_sub(first.ts),
            _ => Time::ZERO,
        };
        span.as_secs_f64().max(1e-6)
    }

    /// The window's distinct objects in id order, each with its request
    /// count and its size at its first request here: one sort of the log's
    /// `(id, position)` pairs, grouped by id.
    pub fn objects(&self) -> Vec<WindowObject> {
        let mut order: Vec<(ObjectId, usize)> = self
            .requests
            .iter()
            .enumerate()
            .map(|(at, r)| (r.id, at))
            .collect();
        order.sort_unstable();
        order
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| WindowObject {
                id: run[0].0,
                count: run.len() as u32,
                size: self.requests[run[0].1].size,
            })
            .collect()
    }
}

/// Accumulates requests until the unique-bytes target is reached, then
/// yields the completed [`WindowData`].
#[derive(Debug)]
pub struct WindowTracker {
    target_unique_bytes: u64,
    min_requests: usize,
    current: WindowData,
    /// Unique bytes of the in-progress window, saturating at `u64::MAX`.
    unique_bytes: u64,
    /// Distinct objects of the in-progress window (its first-in-window
    /// requests so far).
    objects: usize,
}

impl WindowTracker {
    /// A tracker whose windows close when their unique bytes reach
    /// `target_unique_bytes` (= multiplier × cache size).
    pub fn new(target_unique_bytes: u64) -> Self {
        Self::with_min_requests(target_unique_bytes, 0)
    }

    /// Like [`WindowTracker::new`] but a window additionally needs at least
    /// `min_requests` requests to close. The paper's full-size windows hold
    /// tens of thousands of requests, enough to train on; reduced-scale
    /// reproductions need this floor so the training windows don't shrink
    /// with the trace.
    ///
    /// The *first* window's floor is capped at 1 024 requests: until it
    /// closes there is no model at all (LHR admits everything), so the
    /// bootstrap window should be as early as a usable training set allows
    /// — the paper likewise trains after the first window and runs the
    /// algorithm from the second onward (§5.1).
    pub fn with_min_requests(target_unique_bytes: u64, min_requests: usize) -> Self {
        assert!(target_unique_bytes > 0, "window target must be positive");
        WindowTracker {
            target_unique_bytes,
            min_requests,
            current: WindowData::from_requests(0, &[]),
            unique_bytes: 0,
            objects: 0,
        }
    }

    /// Returns a finished window's log for reuse. The consumer of a
    /// completed [`WindowData`] calls this once it has read what it needs,
    /// before the next request: the window opened by `done`'s closing
    /// request has logged nothing yet, so it takes over `done`'s cleared
    /// buffer, capacity and all, and steady-state replay does not allocate
    /// a log every window. Should the open window have logged requests
    /// already, `done`'s buffer is dropped instead.
    pub fn recycle(&mut self, mut done: WindowData) {
        if self.current.requests.is_empty() {
            done.requests.clear();
            self.current.requests = done.requests;
        }
    }

    /// Number of requests in the in-progress window.
    pub fn current_len(&self) -> usize {
        self.current.requests.len()
    }

    /// Index of the in-progress window.
    pub fn current_index(&self) -> u64 {
        self.current.index
    }

    /// Records a request; `first` says whether it is its object's first in
    /// the in-progress window. Returns the completed window when this
    /// request *closes* it (the request itself is included in that window).
    pub fn observe(&mut self, req: &Request, first: bool) -> Option<WindowData> {
        self.current.requests.push(*req);
        if first {
            self.objects += 1;
            // Saturates where a sum would wrap: the target is a u64 too, so
            // the window closes all the same.
            self.unique_bytes = self.unique_bytes.saturating_add(req.size);
        }
        let floor = match self.current.index {
            0 => self.min_requests.min(1_024),
            _ => self.min_requests,
        };
        if self.unique_bytes >= self.target_unique_bytes && self.current.requests.len() >= floor {
            (self.unique_bytes, self.objects) = (0, 0);
            let next = WindowData {
                index: self.current.index + 1,
                requests: Vec::new(),
            };
            Some(std::mem::replace(&mut self.current, next))
        } else {
            None
        }
    }

    /// Consumes the tracker, yielding the in-progress (partial) window.
    pub fn into_partial(self) -> WindowData {
        self.current
    }

    /// Approximate metadata footprint in bytes: 24 per logged request, and
    /// 24 per distinct object for the row of [`WindowData::objects`] the
    /// edge derives.
    pub fn overhead_bytes(&self) -> u64 {
        ((self.current.requests.len() + self.objects) * 24) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureStore;
    use lhr_trace::Trace;
    use lhr_util::hash::{FastMap, FastSet};
    use lhr_util::prop::{any_u64, range};
    use lhr_util::{prop_assert_eq, prop_check};

    fn req(t: u64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs(t), id, size)
    }

    /// A window's unique bytes, from its table.
    fn unique_bytes(window: &WindowData) -> u64 {
        window.objects().iter().map(|o| o.size).sum()
    }

    /// Drives a tracker with first-in-window flags from a set of the ids
    /// seen in the open window.
    struct Flagged {
        tracker: WindowTracker,
        seen: FastSet<ObjectId>,
    }

    impl Flagged {
        fn new(target: u64) -> Self {
            Flagged {
                tracker: WindowTracker::new(target),
                seen: FastSet::default(),
            }
        }

        fn observe(&mut self, r: Request) -> Option<WindowData> {
            let first = self.seen.insert(r.id);
            let done = self.tracker.observe(&r, first);
            if done.is_some() {
                self.seen.clear();
            }
            done
        }
    }

    #[test]
    fn window_closes_on_unique_bytes() {
        let mut w = Flagged::new(250);
        assert!(w.observe(req(0, 1, 100)).is_none());
        assert!(w.observe(req(1, 1, 100)).is_none()); // repeat: no new unique bytes
        assert!(w.observe(req(2, 2, 100)).is_none());
        let done = w.observe(req(3, 3, 100)).expect("300 unique bytes ≥ 250");
        assert_eq!(done.index, 0);
        assert_eq!(done.requests.len(), 4);
        assert_eq!(unique_bytes(&done), 300);
        let one = WindowObject {
            id: 1,
            count: 2,
            size: 100,
        };
        assert_eq!(done.objects()[0], one);
        assert_eq!(w.tracker.current_index(), 1);
        assert_eq!(w.tracker.current_len(), 0);
    }

    #[test]
    fn windows_do_not_overlap() {
        let mut w = Flagged::new(100);
        let first = w.observe(req(0, 1, 100)).expect("closes immediately");
        assert_eq!(first.requests.len(), 1);
        let second = w.observe(req(1, 2, 100)).expect("closes immediately");
        assert_eq!(second.index, 1);
        assert_eq!(second.requests.len(), 1);
        assert_eq!(second.requests[0].id, 2);
    }

    #[test]
    fn unique_bytes_reset_per_window() {
        let mut w = Flagged::new(150);
        w.observe(req(0, 1, 100));
        let done = w.observe(req(1, 2, 100)).expect("closed");
        assert_eq!(unique_bytes(&done), 200);
        assert_eq!(w.tracker.unique_bytes, 0);
        // Object 1 counts as unique again in the new window.
        assert!(w.observe(req(2, 1, 100)).is_none());
        assert_eq!(w.tracker.unique_bytes, 100);
        let done = w.observe(req(3, 3, 100)).expect("closed");
        assert_eq!(unique_bytes(&done), 200);
    }

    #[test]
    fn span_tracks_first_and_last() {
        let mut w = Flagged::new(300);
        w.observe(req(5, 1, 100));
        w.observe(req(9, 2, 100));
        let done = w.observe(req(14, 3, 100)).expect("closed");
        assert!((done.span_secs() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn zero_span_window_is_guarded() {
        let mut w = Flagged::new(100);
        let done = w.observe(req(0, 1, 150)).expect("closed");
        assert!(done.span_secs() > 0.0);
        assert!(WindowData::from_requests(0, &[]).span_secs() > 0.0);
    }

    #[test]
    fn the_tracker_holds_one_log_and_reopens_it_on_each_closed_window() {
        // Three objects of 100 bytes close a window, so the buffer window 0
        // grows holds every later window without growing again.
        let mut w = Flagged::new(300);
        let mut recycled: Option<*const Request> = None;
        for index in 0..5u64 {
            for id in 0..2 {
                assert!(w.observe(req(3 * index + id, id, 100)).is_none());
            }
            let done = w.observe(req(3 * index + 2, 2, 100)).expect("closed");
            assert_eq!((done.index, done.requests.len()), (index, 3));
            if let Some(buffer) = recycled {
                assert_eq!(done.requests.as_ptr(), buffer, "window {index}'s log");
            }
            // The closer left the next window an empty log that holds no
            // buffer: the closed window's is the only one.
            assert_eq!(w.tracker.current.requests.capacity(), 0);
            recycled = Some(done.requests.as_ptr());
            w.tracker.recycle(done);
            assert_eq!(w.tracker.current.requests.as_ptr(), recycled.unwrap());
            assert_eq!(w.tracker.current_len(), 0);
        }
        // A window that logged before the recycle keeps its own log.
        let done = w.observe(req(15, 9, 300)).expect("closed");
        w.observe(req(16, 8, 1));
        w.tracker.recycle(done);
        assert_eq!(w.tracker.current.requests, [req(16, 8, 1)]);
    }

    /// The tracker as it was before the window became its request log: a
    /// per-window map of each object's request count and first size,
    /// which decided first-in-window itself.
    struct MapTracker {
        target_unique_bytes: u64,
        min_requests: usize,
        index: u64,
        requests: Vec<Request>,
        counts: FastMap<ObjectId, (u32, u64)>,
        unique_bytes: u64,
    }

    /// What [`MapTracker::observe`] returns for a request that closes a
    /// window: its unique bytes and its table, in id order.
    type Closed = (u64, Vec<WindowObject>);

    impl MapTracker {
        fn observe(&mut self, req: &Request) -> (bool, Option<Closed>) {
            self.requests.push(*req);
            let (count, _) = self.counts.entry(req.id).or_insert((0, req.size));
            *count += 1;
            let first = *count == 1;
            if first {
                self.unique_bytes = self.unique_bytes.saturating_add(req.size);
            }
            let floor = if self.index == 0 {
                self.min_requests.min(1_024)
            } else {
                self.min_requests
            };
            if self.unique_bytes < self.target_unique_bytes || self.requests.len() < floor {
                return (first, None);
            }
            let mut table: Vec<WindowObject> = self
                .counts
                .drain()
                .map(|(id, (count, size))| WindowObject { id, count, size })
                .collect();
            table.sort_unstable_by_key(|o| o.id);
            let closed = (self.unique_bytes, table);
            self.index += 1;
            self.requests.clear();
            self.unique_bytes = 0;
            (first, Some(closed))
        }

        fn overhead_bytes(&self) -> u64 {
            ((self.requests.len() + self.counts.len()) * 24) as u64
        }
    }

    #[test]
    fn the_log_and_feature_store_flags_match_the_per_window_map() {
        prop_check!(cases: 64, (len in range(1usize..3_000), objects in range(1u64..120), target in range(1u64..60_000), floor in range(0usize..200), seed in any_u64()) => {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            // A skewed population whose sizes change mid-trace, which
            // only an unvalidated trace allows: an object's table size is
            // its size at its first request of the window.
            let mut requests = Vec::with_capacity(len);
            let mut last: Option<ObjectId> = None;
            for i in 0..len as u64 {
                let id = match (next() % 8, last) {
                    // Now and then the same object twice in a row, so a
                    // window's closing request comes again as the next
                    // window's first.
                    (0, Some(id)) => id,
                    _ => (next() % objects).min(next() % objects),
                };
                last = Some(id);
                let size = (id + 1) * 100 + if i > len as u64 / 2 { next() % 50 } else { 0 };
                requests.push(Request::new(Time::from_micros(i * 1_000), id, size));
            }
            let trace = Trace::from_requests("unvalidated", requests);

            let mut reference = MapTracker {
                target_unique_bytes: target,
                min_requests: floor,
                index: 0,
                requests: Vec::new(),
                counts: FastMap::default(),
                unique_bytes: 0,
            };
            let mut tracker = WindowTracker::with_min_requests(target, floor);
            let mut fs = FeatureStore::new(3);
            let mut row = vec![0.0f32; fs.n_features()];
            // The stamps pruning read when the tracker ran first: the index
            // of the open window after the request was counted, so the
            // request that closes window w stamps its object w + 1.
            let mut stamps: FastMap<ObjectId, u64> = FastMap::default();
            for (i, r) in trace.iter().enumerate() {
                let window = tracker.current_index();
                // Render a row on some calls and not on others.
                let out = (next() % 2 == 0).then_some(&mut row[..]);
                let first = fs.observe(r.id, r.size, r.ts, window, out);
                let (want_first, want) = reference.observe(r);
                stamps.insert(r.id, reference.index);
                prop_assert_eq!(first, want_first, "request {} object {}", i, r.id);
                let done = tracker.observe(r, first);
                prop_assert_eq!(done.is_some(), want.is_some(), "request {} closes", i);
                if let (Some(done), Some((want_bytes, table))) = (done, want) {
                    prop_assert_eq!(done.index + 1, reference.index);
                    prop_assert_eq!(unique_bytes(&done), want_bytes, "window {}", done.index);
                    prop_assert_eq!(done.objects(), table, "window {}", done.index);
                    fs.mark_closing(r.id);
                    // Prune as LHR does, and at times down to the closer
                    // or past it: pruned objects are seen again later.
                    let horizon = match next() % 3 {
                        0 => done.index.saturating_sub(3),
                        1 => done.index + 1,
                        _ => done.index + 2,
                    };
                    fs.prune_before(horizon);
                    stamps.retain(|_, &mut stamp| stamp >= horizon);
                    prop_assert_eq!(fs.len(), stamps.len(), "pruned at window {}", done.index);
                    tracker.recycle(done);
                }
                prop_assert_eq!(tracker.overhead_bytes(), reference.overhead_bytes(), "request {}", i);
                prop_assert_eq!(tracker.unique_bytes, reference.unique_bytes, "request {}", i);
            }
        });
    }

    #[test]
    fn the_property_covers_its_corner_cases() {
        // The closer coming again first, a re-sighting after pruning, and a
        // size change inside one window, all in one short trace.
        let mut reference = MapTracker {
            target_unique_bytes: 250,
            min_requests: 0,
            index: 0,
            requests: Vec::new(),
            counts: FastMap::default(),
            unique_bytes: 0,
        };
        let mut tracker = WindowTracker::new(250);
        let mut fs = FeatureStore::new(2);
        let log = [
            req(0, 1, 100),
            req(1, 2, 100),
            req(2, 3, 100), // closes window 0
            req(3, 3, 100), // the closer again: first in window 1
            req(4, 3, 999), // not first; the table keeps 100
            req(5, 1, 100),
            req(6, 2, 100), // closes window 1; object 1 is pruned below
            req(7, 1, 100), // a first sighting again
        ];
        let mut flags = Vec::new();
        for r in &log {
            let first = fs.observe(r.id, r.size, r.ts, tracker.current_index(), None);
            assert_eq!(first, reference.observe(r).0);
            flags.push(first);
            if let Some(done) = tracker.observe(r, first) {
                fs.mark_closing(r.id);
                if done.index == 1 {
                    let three = WindowObject {
                        id: 3,
                        count: 2,
                        size: 100,
                    };
                    assert_eq!(done.objects()[2], three);
                    fs.prune_before(2);
                    assert_eq!(fs.len(), 1, "only the closer survives");
                }
            }
        }
        assert_eq!(flags, [true, true, true, true, false, true, true, true]);
    }
}

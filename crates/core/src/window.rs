//! Non-overlapping sliding windows measured in unique bytes.
//!
//! The paper sizes windows so that the unique bytes of the requests they
//! contain equal a multiple (default 4×) of the cache size (§5.1,
//! Figure 5), and the windows do not overlap (§3.2 footnote 3).

use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;

/// One completed window's worth of requests.
#[derive(Debug, Clone)]
pub struct WindowData {
    /// Sequential window index (0-based).
    pub index: u64,
    /// The requests, in arrival order: `(timestamp, id, size)`.
    pub requests: Vec<(Time, ObjectId, u64)>,
    /// Per content: its request count within the window and its size as
    /// of its first request there. Iteration order is arbitrary — consumers
    /// sort before any order-sensitive use.
    pub counts: FastMap<ObjectId, (u32, u64)>,
    /// Unique bytes accumulated, saturating at `u64::MAX`.
    pub unique_bytes: u64,
    /// First and last timestamps.
    pub span: (Time, Time),
}

impl WindowData {
    /// Window duration in seconds (at least `1 µs` to avoid division by
    /// zero in rate estimates).
    pub fn span_secs(&self) -> f64 {
        (self.span.1.saturating_sub(self.span.0).as_secs_f64()).max(1e-6)
    }
}

/// Accumulates requests until the unique-bytes target is reached, then
/// yields the completed [`WindowData`].
#[derive(Debug)]
pub struct WindowTracker {
    target_unique_bytes: u64,
    min_requests: usize,
    current: WindowData,
    /// A recycled window shell (cleared vectors/maps with their capacity
    /// intact) handed back via [`WindowTracker::recycle`]; reused when the
    /// next window opens so steady-state replay does not allocate fresh
    /// request/count buffers every window.
    spare: Option<WindowData>,
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
            current: Self::empty_window(0),
            spare: None,
        }
    }

    fn effective_min_requests(&self) -> usize {
        if self.current.index == 0 {
            self.min_requests.min(1_024)
        } else {
            self.min_requests
        }
    }

    fn empty_window(index: u64) -> WindowData {
        WindowData {
            index,
            requests: Vec::new(),
            counts: FastMap::default(),
            unique_bytes: 0,
            span: (Time::ZERO, Time::ZERO),
        }
    }

    fn next_window(&mut self, index: u64) -> WindowData {
        match self.spare.take() {
            Some(mut w) => {
                w.index = index;
                w
            }
            None => Self::empty_window(index),
        }
    }

    /// Returns a finished window's buffers for reuse. The consumer of a
    /// completed [`WindowData`] calls this once it has extracted what it
    /// needs; the tracker clears the shell and reuses it for the next
    /// window.
    pub fn recycle(&mut self, mut done: WindowData) {
        done.requests.clear();
        done.counts.clear();
        done.unique_bytes = 0;
        done.span = (Time::ZERO, Time::ZERO);
        self.spare = Some(done);
    }

    /// Number of requests in the in-progress window.
    pub fn current_len(&self) -> usize {
        self.current.requests.len()
    }

    /// Index of the in-progress window.
    pub fn current_index(&self) -> u64 {
        self.current.index
    }

    /// Records a request. Returns the completed window when this request
    /// *closes* it (the request itself is included in that window).
    pub fn observe(&mut self, req: &Request) -> Option<WindowData> {
        if self.current.requests.is_empty() {
            self.current.span.0 = req.ts;
        }
        self.current.span.1 = req.ts;
        self.current.requests.push((req.ts, req.id, req.size));
        let (count, _) = self.current.counts.entry(req.id).or_insert((0, req.size));
        *count += 1;
        if *count == 1 {
            // Saturates where a sum would wrap: the target is a u64 too, so
            // the window closes all the same.
            self.current.unique_bytes = self.current.unique_bytes.saturating_add(req.size);
        }
        if self.current.unique_bytes >= self.target_unique_bytes
            && self.current.requests.len() >= self.effective_min_requests()
        {
            let next_index = self.current.index + 1;
            let next = self.next_window(next_index);
            Some(std::mem::replace(&mut self.current, next))
        } else {
            None
        }
    }

    /// Consumes the tracker, yielding the in-progress (partial) window.
    pub fn into_partial(self) -> WindowData {
        self.current
    }

    /// Approximate metadata footprint in bytes: 24 per logged request and
    /// per distinct content (8-byte key, count and size).
    pub fn overhead_bytes(&self) -> u64 {
        ((self.current.requests.len() + self.current.counts.len()) * 24) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: u64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs(t), id, size)
    }

    #[test]
    fn window_closes_on_unique_bytes() {
        let mut w = WindowTracker::new(250);
        assert!(w.observe(&req(0, 1, 100)).is_none());
        assert!(w.observe(&req(1, 1, 100)).is_none()); // repeat: no new unique bytes
        assert!(w.observe(&req(2, 2, 100)).is_none());
        let done = w.observe(&req(3, 3, 100)).expect("300 unique bytes ≥ 250");
        assert_eq!(done.index, 0);
        assert_eq!(done.requests.len(), 4);
        assert_eq!(done.unique_bytes, 300);
        assert_eq!(done.counts[&1], (2, 100));
        assert_eq!(w.current_index(), 1);
        assert_eq!(w.current_len(), 0);
    }

    #[test]
    fn windows_do_not_overlap() {
        let mut w = WindowTracker::new(100);
        let first = w.observe(&req(0, 1, 100)).expect("closes immediately");
        assert_eq!(first.requests.len(), 1);
        let second = w.observe(&req(1, 2, 100)).expect("closes immediately");
        assert_eq!(second.index, 1);
        assert_eq!(second.requests.len(), 1);
        assert_eq!(second.requests[0].1, 2);
    }

    #[test]
    fn unique_bytes_reset_per_window() {
        let mut w = WindowTracker::new(150);
        w.observe(&req(0, 1, 100));
        let done = w.observe(&req(1, 2, 100)).expect("closed");
        assert_eq!(done.unique_bytes, 200);
        // Object 1 counts as unique again in the new window.
        assert!(w.observe(&req(2, 1, 100)).is_none());
        let done = w.observe(&req(3, 3, 100)).expect("closed");
        assert_eq!(done.unique_bytes, 200);
    }

    #[test]
    fn span_tracks_first_and_last() {
        let mut w = WindowTracker::new(300);
        w.observe(&req(5, 1, 100));
        w.observe(&req(9, 2, 100));
        let done = w.observe(&req(14, 3, 100)).expect("closed");
        assert_eq!(done.span, (Time::from_secs(5), Time::from_secs(14)));
        assert!((done.span_secs() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn zero_span_window_is_guarded() {
        let mut w = WindowTracker::new(100);
        let done = w.observe(&req(0, 1, 150)).expect("closed");
        assert!(done.span_secs() > 0.0);
    }
}

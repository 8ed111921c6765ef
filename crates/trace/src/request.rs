//! Core trace types: [`Time`], [`ObjectId`], [`Request`], and [`Trace`].
//!
//! Timestamps are stored as integer microseconds so that every type in the
//! workspace is `Ord + Hash` and simulations are bit-for-bit deterministic.

use lhr_util::hash::FastMap;
use lhr_util::sync::{claim_each, cores, workers};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in trace time, stored as integer microseconds since the start of
/// the trace.
///
/// `Time` is deliberately *not* a wall-clock instant: algorithm logic in this
/// workspace must be driven exclusively by trace time so that runs are
/// reproducible. Wall-clock measurement is confined to resource accounting in
/// `lhr-proto` and the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The origin of trace time.
    pub const ZERO: Time = Time(0);
    /// The largest representable time; useful as an "infinitely far in the
    /// future" sentinel (e.g. Belady's "never requested again").
    pub const MAX: Time = Time(u64::MAX);

    /// Builds a `Time` from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Time(secs * 1_000_000)
    }

    /// Builds a `Time` from fractional seconds, saturating at [`Time::MAX`].
    ///
    /// Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return Time::ZERO;
        }
        let micros = secs * 1e6;
        if micros >= u64::MAX as f64 {
            Time::MAX
        } else {
            Time(micros as u64)
        }
    }

    /// Builds a `Time` from integer microseconds.
    pub fn from_micros(micros: u64) -> Self {
        Time(micros)
    }

    /// This time expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in integer microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: `self - other`, or [`Time::ZERO`] if `other`
    /// is later than `self`.
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    /// Panics in debug builds on underflow; use [`Time::saturating_sub`] when
    /// the ordering is not guaranteed.
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Identifier of a cached object (content). Opaque `u64`, typically a hash of
/// the URL in production systems; synthetic generators just use dense ids.
pub type ObjectId = u64;

/// A single content request: the unit every cache policy consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Time at which the request arrives (trace clock).
    pub ts: Time,
    /// The requested object.
    pub id: ObjectId,
    /// Size of the requested object in bytes. The trace is the source of
    /// truth for sizes; policies must use this value, never a guess.
    pub size: u64,
}

impl Request {
    /// Convenience constructor.
    pub fn new(ts: Time, id: ObjectId, size: u64) -> Self {
        Request { ts, id, size }
    }
}

/// An ordered sequence of requests plus a human-readable name.
///
/// Invariant (checked by [`Trace::validate`] and maintained by all generators
/// and readers in this crate): timestamps are monotone non-decreasing and
/// every request for a given object id carries the same size as its most
/// recent prior request (sizes may change over a trace in real CDNs, but our
/// simulators treat a size change as a new version of the object and the
/// generators never produce one).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Display name, e.g. `"CDN-A"` or `"zipf-0.9"`.
    pub name: String,
    /// The requests, in arrival order.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Creates an empty trace with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            requests: Vec::new(),
        }
    }

    /// Creates a trace from parts. Prefer this over struct literal syntax so
    /// call sites read uniformly.
    pub fn from_requests(name: impl Into<String>, requests: Vec<Request>) -> Self {
        Trace {
            name: name.into(),
            requests,
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over the requests in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, Request> {
        self.requests.iter()
    }

    /// Appends a request, asserting (in debug builds) that time does not go
    /// backwards.
    pub fn push(&mut self, req: Request) {
        debug_assert!(
            self.requests.last().is_none_or(|last| last.ts <= req.ts),
            "trace timestamps must be monotone non-decreasing"
        );
        self.requests.push(req);
    }

    /// Total bytes requested (sum of sizes over all requests, with repeats).
    pub fn total_bytes(&self) -> u128 {
        self.requests.iter().map(|r| r.size as u128).sum()
    }

    /// Duration between the first and last request.
    pub fn duration(&self) -> Time {
        match (self.requests.first(), self.requests.last()) {
            (Some(first), Some(last)) => last.ts.saturating_sub(first.ts),
            _ => Time::ZERO,
        }
    }

    /// Checks the trace invariants, returning the index of the first
    /// violation if any: non-monotone timestamp, zero size, or an object
    /// whose size changed mid-trace. At an index with more than one, the
    /// first of those three is reported. The work is split over the cores
    /// the process may use, as many as it pays for
    /// ([`lhr_util::sync::workers`]).
    pub fn validate(&self) -> Result<(), TraceError> {
        self.validate_on(workers(cores(), self.len() as f64 * VALIDATE_REQUEST_NS))
    }

    /// [`Trace::validate`] on `workers` workers. Worker `w` checks order
    /// and non-zero size over the `w`-th of `workers` index ranges, and size
    /// consistency over the ids of hash class `w`, in a map of its own; the
    /// workers claim these `2 × workers` items as they come free. Up to the
    /// sequential loop's first violation every check sees what the loop saw
    /// there — the predecessor's timestamp, and the first size of every id
    /// (every earlier request passed, so the loop inserted each) — so the
    /// smallest (index, check) found is the loop's answer, whatever is
    /// found past it.
    fn validate_on(&self, workers: usize) -> Result<(), TraceError> {
        let workers = workers.max(1);
        let len = self.requests.len();
        let mut found: Vec<Option<TraceError>> = vec![None; 2 * workers];
        // The size classes first: a map probe a request is the larger share.
        claim_each(&mut found, workers, |_, item, slot| {
            *slot = match item.checked_sub(workers) {
                None => self.first_size_change(item, workers),
                Some(w) => self.first_bad_request(w * len / workers..(w + 1) * len / workers),
            };
        });
        found
            .into_iter()
            .flatten()
            .min_by_key(TraceError::order)
            .map_or(Ok(()), Err)
    }

    /// The first request of `range` that goes back in time or has no size.
    fn first_bad_request(&self, range: std::ops::Range<usize>) -> Option<TraceError> {
        let mut prev_ts = match range.start {
            0 => Time::ZERO,
            start => self.requests[start - 1].ts,
        };
        for (index, req) in self.requests[range.clone()].iter().enumerate() {
            let index = range.start + index;
            if req.ts < prev_ts {
                return Some(TraceError::NonMonotoneTimestamp { index });
            }
            prev_ts = req.ts;
            if req.size == 0 {
                return Some(TraceError::ZeroSize { index });
            }
        }
        None
    }

    /// The first request of an id in hash class `class` of `classes` whose
    /// size differs from the id's first one.
    fn first_size_change(&self, class: usize, classes: usize) -> Option<TraceError> {
        // Grown on demand: sized by request count it would hold many times
        // the distinct objects a trace has.
        let mut sizes: FastMap<ObjectId, u64> = FastMap::default();
        // One probe; a repeat of a known object writes nothing.
        let mut check = |index: usize, req: &Request| match sizes.entry(req.id) {
            Entry::Occupied(known) if *known.get() != req.size => {
                Some(TraceError::SizeChanged { index, id: req.id })
            }
            Entry::Occupied(_) => None,
            Entry::Vacant(new) => {
                new.insert(req.size);
                None
            }
        };
        // 64 requests at a time: the class test fills a mask without a
        // branch (a coin flip at two classes), and the loop walks its bits;
        // one class takes every bit.
        for (block, reqs) in self.requests.chunks(64).enumerate() {
            let mut mine = reqs.iter().enumerate().fold(0u64, |mask, (k, req)| {
                mask | u64::from(size_class(req.id, classes) == class) << k
            });
            while mine != 0 {
                let k = mine.trailing_zeros() as usize;
                mine &= mine - 1;
                if let Some(violation) = check(64 * block + k, &reqs[k]) {
                    return Some(violation);
                }
            }
        }
        None
    }
}

/// What a request costs [`Trace::validate`] on one worker: 20–35 ns on
/// trace A. It sizes the fan-out: a second worker from ≈ 14 k requests.
const VALIDATE_REQUEST_NS: f64 = 25.0;

/// The class of `classes` that checks `id`'s sizes. Its own multiplier, so
/// a class does not fix the low bits of the `FastMap` hash it is probed by.
fn size_class(id: ObjectId, classes: usize) -> usize {
    ((u128::from(id.wrapping_mul(0x9E37_79B9_7F4A_7C15)) * classes as u128) >> 64) as usize
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

/// A replay that consumes its trace takes `impl Into<Cow<'_, Trace>>`: a
/// trace handed over by value is moved in and freed as it is stepped past,
/// a borrowed one is cloned at the call.
impl From<Trace> for Cow<'_, Trace> {
    fn from(trace: Trace) -> Self {
        Cow::Owned(trace)
    }
}

impl<'a> From<&'a Trace> for Cow<'a, Trace> {
    fn from(trace: &'a Trace) -> Self {
        Cow::Borrowed(trace)
    }
}

/// Invariant violations reported by [`Trace::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// A request's timestamp precedes its predecessor's.
    NonMonotoneTimestamp {
        /// Index of the offending request.
        index: usize,
    },
    /// A request has `size == 0`, which no policy can account for.
    ZeroSize {
        /// Index of the offending request.
        index: usize,
    },
    /// An object's size differs from an earlier request for the same object.
    SizeChanged {
        /// Index of the offending request.
        index: usize,
        /// The object whose size changed.
        id: ObjectId,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::NonMonotoneTimestamp { index } => {
                write!(f, "timestamp at request {index} precedes its predecessor")
            }
            TraceError::ZeroSize { index } => write!(f, "request {index} has zero size"),
            TraceError::SizeChanged { index, id } => {
                write!(f, "object {id} changed size at request {index}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl TraceError {
    /// Where the sequential check meets this violation: its index, then the
    /// order of the three checks at one request.
    fn order(&self) -> (usize, u8) {
        match *self {
            TraceError::NonMonotoneTimestamp { index } => (index, 0),
            TraceError::ZeroSize { index } => (index, 1),
            TraceError::SizeChanged { index, .. } => (index, 2),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_util::rng::{Rng, SplitMix64};

    /// The sequential loop `validate` was before it was split: the oracle.
    fn validate_reference(trace: &Trace) -> Result<(), TraceError> {
        let mut sizes: FastMap<ObjectId, u64> = FastMap::default();
        let mut prev_ts = Time::ZERO;
        for (idx, req) in trace.requests.iter().enumerate() {
            if req.ts < prev_ts {
                return Err(TraceError::NonMonotoneTimestamp { index: idx });
            }
            prev_ts = req.ts;
            if req.size == 0 {
                return Err(TraceError::ZeroSize { index: idx });
            }
            match sizes.entry(req.id) {
                Entry::Occupied(known) if *known.get() != req.size => {
                    return Err(TraceError::SizeChanged {
                        index: idx,
                        id: req.id,
                    })
                }
                Entry::Occupied(_) => {}
                Entry::Vacant(new) => {
                    new.insert(req.size);
                }
            }
        }
        Ok(())
    }

    /// Breaks request `at` of `trace` in way `kind`: 0 sends it back in
    /// time, 1 zeroes its size, 2 changes its object's size.
    fn inject(trace: &mut Trace, at: usize, kind: u8) {
        let req = &mut trace.requests[at];
        match kind {
            0 => req.ts = req.ts.saturating_sub(Time(1_000)),
            1 => req.size = 0,
            _ => req.size += 1,
        }
    }

    #[test]
    fn validate_split_matches_the_loop_on_random_violations() {
        let mut rng = SplitMix64::new(17);
        for case in 0..400 {
            let len = rng.gen_range(0..300usize);
            let mut ts = 0;
            let requests = (0..len)
                .map(|_| {
                    ts += rng.gen_range(0..3u64) * 1_000;
                    let id = rng.gen_range(0..40u64);
                    Request::new(Time(ts), id, 1 + id * 7)
                })
                .collect();
            let mut trace = Trace::from_requests("random", requests);
            if len > 0 {
                for kind in 0..3 {
                    for _ in 0..rng.gen_range(0..4usize) {
                        inject(&mut trace, rng.gen_range(0..len), kind);
                    }
                }
                // Two kinds at one request, and a pair on either side of the
                // two-worker split.
                let at = rng.gen_range(0..len);
                if case % 3 == 0 {
                    inject(&mut trace, at, rng.gen_range(0..3u8));
                    inject(&mut trace, at, rng.gen_range(0..3u8));
                }
                if case % 5 == 0 && len >= 2 {
                    inject(&mut trace, len / 2 - 1, rng.gen_range(0..3u8));
                    inject(&mut trace, len / 2, rng.gen_range(0..3u8));
                }
            }
            let expected = validate_reference(&trace);
            for workers in [1, 2, 3, 8] {
                assert_eq!(
                    trace.validate_on(workers),
                    expected,
                    "case {case}, {workers} workers"
                );
            }
            assert_eq!(trace.validate(), expected, "case {case}");
        }
    }

    #[test]
    fn validate_reports_the_first_check_at_one_request() {
        // Request 1 goes back in time, has no size and changes its size.
        let trace = Trace::from_requests(
            "three at once",
            vec![Request::new(Time(5), 7, 10), Request::new(Time(4), 7, 0)],
        );
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                trace.validate_on(workers),
                Err(TraceError::NonMonotoneTimestamp { index: 1 })
            );
        }
    }

    #[test]
    fn time_roundtrips_seconds() {
        let t = Time::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(Time::from_secs(2), Time::from_micros(2_000_000));
    }

    #[test]
    fn time_from_secs_clamps() {
        assert_eq!(Time::from_secs_f64(-3.0), Time::ZERO);
        assert_eq!(Time::from_secs_f64(f64::MAX), Time::MAX);
    }

    #[test]
    fn time_saturating_sub_does_not_underflow() {
        let a = Time::from_secs(1);
        let b = Time::from_secs(2);
        assert_eq!(a.saturating_sub(b), Time::ZERO);
        assert_eq!(b.saturating_sub(a), Time::from_secs(1));
    }

    #[test]
    fn time_add_saturates() {
        assert_eq!(Time::MAX + Time::from_secs(1), Time::MAX);
    }

    #[test]
    fn trace_push_and_metrics() {
        let mut t = Trace::new("t");
        t.push(Request::new(Time::from_secs(0), 1, 100));
        t.push(Request::new(Time::from_secs(1), 2, 200));
        t.push(Request::new(Time::from_secs(3), 1, 100));
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_bytes(), 400);
        assert_eq!(t.duration(), Time::from_secs(3));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validate_rejects_non_monotone() {
        let t = Trace::from_requests(
            "bad",
            vec![
                Request::new(Time::from_secs(2), 1, 10),
                Request::new(Time::from_secs(1), 2, 10),
            ],
        );
        assert_eq!(
            t.validate(),
            Err(TraceError::NonMonotoneTimestamp { index: 1 })
        );
    }

    #[test]
    fn validate_rejects_zero_size() {
        let t = Trace::from_requests("bad", vec![Request::new(Time::ZERO, 1, 0)]);
        assert_eq!(t.validate(), Err(TraceError::ZeroSize { index: 0 }));
    }

    #[test]
    fn validate_rejects_size_change() {
        let t = Trace::from_requests(
            "bad",
            vec![
                Request::new(Time::ZERO, 7, 10),
                Request::new(Time::from_secs(1), 7, 11),
            ],
        );
        assert_eq!(
            t.validate(),
            Err(TraceError::SizeChanged { index: 1, id: 7 })
        );
    }

    #[test]
    fn empty_trace_has_zero_duration() {
        let t = Trace::new("empty");
        assert!(t.is_empty());
        assert_eq!(t.duration(), Time::ZERO);
        assert_eq!(t.total_bytes(), 0);
        assert!(t.validate().is_ok());
    }
}

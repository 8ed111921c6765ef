//! Core trace types: [`Time`], [`ObjectId`], [`Request`], and [`Trace`].
//!
//! Timestamps are stored as integer microseconds so that every type in the
//! workspace is `Ord + Hash` and simulations are bit-for-bit deterministic.

use lhr_util::hash::FastMap;
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
    /// whose size changed mid-trace.
    pub fn validate(&self) -> Result<(), TraceError> {
        // Grown on demand: sized by request count it would hold many times
        // the distinct objects a trace has.
        let mut sizes: FastMap<ObjectId, u64> = FastMap::default();
        let mut prev_ts = Time::ZERO;
        for (idx, req) in self.requests.iter().enumerate() {
            if req.ts < prev_ts {
                return Err(TraceError::NonMonotoneTimestamp { index: idx });
            }
            prev_ts = req.ts;
            if req.size == 0 {
                return Err(TraceError::ZeroSize { index: idx });
            }
            // One probe; a repeat of a known object writes nothing.
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
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Request;
    type IntoIter = std::slice::Iter<'a, Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
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

#[cfg(test)]
mod tests {
    use super::*;

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

//! Interface for upper bounds on optimal caching.
//!
//! Bounds differ from [`crate::policy::CachePolicy`] in that they classify
//! every request of a trace as hit or miss *given the whole trace* (offline
//! bounds) or given everything up to the request (online bounds like HRO),
//! without maintaining a feasible cache state request-by-request — e.g.
//! Belady-Size and PFOO relax feasibility, which is exactly why they upper
//! bound OPT.

use crate::metrics::SimMetrics;
use crate::policy::Outcome;
use crate::store::{CacheStore, OrderedStore};
use lhr_trace::{ObjectId, Time, Trace};
use lhr_util::hash::FastMap;
use std::cmp::Reverse;

/// An upper bound on the optimal hit probability for a given cache size.
pub trait OfflineBound {
    /// Bound name, e.g. `"Belady"` or `"PFOO-U"`.
    fn name(&self) -> &str;

    /// Evaluates the bound over `trace` with cache `capacity` bytes,
    /// returning hit/byte counters in the same shape the simulator produces
    /// so figures can mix policies and bounds.
    fn evaluate(&self, trace: &Trace, capacity: u64) -> SimMetrics;
}

/// Helper shared by bound implementations: fills the request/byte totals and
/// duration of `metrics` from `trace`, leaving hit counters to the caller.
pub fn base_metrics(trace: &Trace) -> SimMetrics {
    SimMetrics {
        requests: trace.len() as u64,
        bytes_requested: trace.total_bytes(),
        duration_secs: trace.duration().as_secs_f64(),
        ..SimMetrics::default()
    }
}

/// Sentinel meaning "never requested again".
pub const NEVER: u64 = u64::MAX;

/// For each request index `i` of a stream of object ids, the index of the
/// *next* request for the same object, or [`NEVER`]. Computed in one
/// backward pass.
pub fn next_use_indices(
    ids: impl DoubleEndedIterator<Item = ObjectId> + ExactSizeIterator,
) -> Vec<u64> {
    let mut next = vec![NEVER; ids.len()];
    let mut last_seen: FastMap<ObjectId, u64> = FastMap::default();
    for (i, id) in ids.enumerate().rev() {
        if let Some(later) = last_seen.insert(id, i as u64) {
            next[i] = later;
        }
    }
    next
}

/// Replays a stream of `(id, size)` requests through a future-aware cache
/// of `capacity` bytes that evicts the object requested farthest in the
/// future, and reports what happened to each request.
///
/// With `admission_aware` unset this is Bélády's MIN: always admit. Set,
/// it is the size-aware Bélády-Size: a miss is admitted only if it is
/// "worth" evicting everything needed — eviction stops, and the newcomer
/// is bypassed, at the first would-be victim that is requested again no
/// later than the newcomer — and an object never requested again is
/// neither admitted nor kept past its last hit.
pub fn belady_replay<I>(requests: I, capacity: u64, admission_aware: bool) -> Vec<Outcome>
where
    I: DoubleEndedIterator<Item = (ObjectId, u64)> + ExactSizeIterator + Clone,
{
    let next_use = next_use_indices(requests.clone().map(|(id, _)| id));
    // Cached objects, the one requested farthest ahead (then the largest
    // id) at the minimum. Its stamps are never read.
    let mut cache: OrderedStore<Reverse<(u64, ObjectId)>> = OrderedStore::new(capacity);

    let replay = |((id, size), this_next): ((ObjectId, u64), u64)| {
        let key = Reverse((this_next, id));
        // Hit: refresh the next-use key — or, never needed again, free the
        // space at once (a bookkeeping win allowed to an offline algorithm).
        let hit = if admission_aware && this_next == NEVER {
            cache.remove(id).is_some()
        } else {
            cache.rekey(id, |_, _| key)
        };
        if hit {
            return Outcome::Hit;
        }
        if size > capacity || (admission_aware && this_next == NEVER) {
            return Outcome::MissBypassed;
        }
        // Evict farthest-next-use objects until the newcomer fits.
        while !cache.fits(size) {
            let (Reverse((victim_next, _)), _) = cache.peek_min().expect("cache full");
            if admission_aware && victim_next <= this_next {
                // Every remaining victim is more useful than the newcomer.
                return Outcome::MissBypassed;
            }
            cache.pop_min();
        }
        cache.insert(id, size, Time::ZERO, key, ());
        Outcome::MissAdmitted
    };
    requests.zip(next_use).map(replay).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::{Request, Time};

    #[test]
    fn next_use_is_correct() {
        // ids: a b a c b a
        let next = next_use_indices([1u64, 2, 1, 3, 2, 1].into_iter());
        assert_eq!(next, vec![2, 4, 5, NEVER, NEVER, NEVER]);
        assert!(next_use_indices(std::iter::empty()).is_empty());
    }

    #[test]
    fn belady_replay_reports_each_request() {
        use Outcome::{Hit, MissAdmitted, MissBypassed};
        // Two one-byte slots; object 3 is never requested again.
        let requests = [1u64, 2, 3, 1, 2].map(|id| (id, 1u64));
        assert_eq!(
            belady_replay(requests.into_iter(), 2, true),
            [MissAdmitted, MissAdmitted, MissBypassed, Hit, Hit]
        );
        // MIN admits it, at the price of the object needed farthest ahead.
        assert_eq!(
            belady_replay(requests.into_iter(), 2, false),
            [MissAdmitted, MissAdmitted, MissAdmitted, Hit, MissAdmitted]
        );
    }

    #[test]
    fn base_metrics_copies_totals() {
        let t = Trace::from_requests(
            "t",
            vec![
                Request::new(Time::from_secs(0), 1, 10),
                Request::new(Time::from_secs(4), 2, 30),
            ],
        );
        let m = base_metrics(&t);
        assert_eq!(m.requests, 2);
        assert_eq!(m.bytes_requested, 40);
        assert!((m.duration_secs - 4.0).abs() < 1e-12);
        assert_eq!(m.hits, 0);
    }
}

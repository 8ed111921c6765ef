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
use lhr_trace::{ObjectId, Trace};
use lhr_util::hash::FastMap;
use std::collections::BTreeSet;

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
    // Cached objects ordered by next use (last = farthest).
    let mut by_next: BTreeSet<(u64, ObjectId)> = BTreeSet::new();
    let mut cached: FastMap<ObjectId, (u64 /* next */, u64 /* size */)> = FastMap::default();
    let mut used = 0u64;

    let replay = |((id, size), this_next): ((ObjectId, u64), u64)| {
        if let Some(&(old_next, cached_size)) = cached.get(&id) {
            // Hit: refresh the next-use key.
            by_next.remove(&(old_next, id));
            if this_next == NEVER && admission_aware {
                // Never needed again: free the space immediately (pure
                // bookkeeping win allowed to an offline algorithm).
                cached.remove(&id);
                used -= cached_size;
            } else {
                cached.insert(id, (this_next, cached_size));
                by_next.insert((this_next, id));
            }
            return Outcome::Hit;
        }
        if size > capacity || (admission_aware && this_next == NEVER) {
            return Outcome::MissBypassed;
        }
        // Evict farthest-next-use objects until the newcomer fits.
        while used + size > capacity {
            let &(victim_next, victim) = by_next.iter().next_back().expect("cache full");
            if admission_aware && victim_next <= this_next {
                // Every remaining victim is more useful than the newcomer.
                return Outcome::MissBypassed;
            }
            by_next.remove(&(victim_next, victim));
            let (_, victim_size) = cached.remove(&victim).expect("indexed");
            used -= victim_size;
        }
        cached.insert(id, (this_next, size));
        by_next.insert((this_next, id));
        used += size;
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

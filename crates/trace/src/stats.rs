//! Trace statistics: the Table 1 characteristics, popularity rank-frequency
//! curves, and inter-request-time (IRT) distributions (Figure 1 of the
//! paper).

use crate::request::{ObjectId, Time, Trace};
use std::collections::HashMap;

/// The per-trace characteristics reported in the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Trace name.
    pub name: String,
    /// Wall duration of the trace in hours (trace clock).
    pub duration_hours: f64,
    /// Number of distinct objects requested.
    pub unique_contents: usize,
    /// Total number of requests.
    pub total_requests: usize,
    /// Sum of sizes over all requests (with repeats), in bytes.
    pub total_bytes_requested: u128,
    /// Sum of sizes over distinct objects, in bytes.
    pub unique_bytes_requested: u128,
    /// Peak "active bytes": the maximum over time of the total size of
    /// objects whose first request has happened and whose last request has
    /// not yet happened (an object is *active* between its first and last
    /// request, following Kirilin et al. / the paper's footnote 2).
    pub peak_active_bytes: u128,
    /// Mean object size in bytes (over distinct objects).
    pub mean_content_size: f64,
    /// Largest object size in bytes.
    pub max_content_size: u64,
}

impl TraceStats {
    /// Computes all Table 1 statistics in a single pass (plus one sort for
    /// active bytes).
    pub fn compute(trace: &Trace) -> TraceStats {
        let mut first_last: HashMap<ObjectId, (Time, Time, u64)> = HashMap::new();
        let mut total_bytes: u128 = 0;
        for req in trace.iter() {
            total_bytes += req.size as u128;
            first_last
                .entry(req.id)
                .and_modify(|(_, last, _)| *last = req.ts)
                .or_insert((req.ts, req.ts, req.size));
        }

        let unique_contents = first_last.len();
        let unique_bytes: u128 = first_last.values().map(|&(_, _, s)| s as u128).sum();
        let max_size = first_last.values().map(|&(_, _, s)| s).max().unwrap_or(0);
        let mean_size = if unique_contents == 0 {
            0.0
        } else {
            unique_bytes as f64 / unique_contents as f64
        };

        // Peak active bytes via a sweep over (time, +size/-size) events.
        // An object contributes its size over [first, last]; the -size event
        // is placed just after `last` so single-request objects still count
        // at their request instant.
        let mut events: Vec<(Time, bool, u64)> = Vec::with_capacity(first_last.len() * 2);
        for &(first, last, size) in first_last.values() {
            events.push((first, true, size));
            events.push((last + Time(1), false, size));
        }
        // Sort with arrivals before departures at equal times (true > false,
        // so invert the flag ordering by sorting on (time, !is_arrival)).
        events.sort_unstable_by_key(|&(t, arr, _)| (t, !arr));
        let mut active: u128 = 0;
        let mut peak: u128 = 0;
        for (_, is_arrival, size) in events {
            if is_arrival {
                active += size as u128;
                peak = peak.max(active);
            } else {
                active -= size as u128;
            }
        }

        TraceStats {
            name: trace.name.clone(),
            duration_hours: trace.duration().as_secs_f64() / 3600.0,
            unique_contents,
            total_requests: trace.len(),
            total_bytes_requested: total_bytes,
            unique_bytes_requested: unique_bytes,
            peak_active_bytes: peak,
            mean_content_size: mean_size,
            max_content_size: max_size,
        }
    }
}

/// Rank-frequency popularity data: entry `i` is the request count of the
/// `(i+1)`-st most popular object (Figure 1, left).
pub fn rank_frequency(trace: &Trace) -> Vec<u64> {
    let mut counts: HashMap<ObjectId, u64> = HashMap::new();
    for req in trace.iter() {
        *counts.entry(req.id).or_insert(0) += 1;
    }
    let mut freqs: Vec<u64> = counts.into_values().collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    freqs
}

/// All inter-request times in the trace, in seconds (Figure 1, right):
/// for each object requested `k ≥ 2` times, the `k − 1` gaps between its
/// consecutive requests.
pub fn inter_request_times(trace: &Trace) -> Vec<f64> {
    let mut last_seen: HashMap<ObjectId, Time> = HashMap::new();
    let mut irts = Vec::new();
    for req in trace.iter() {
        if let Some(prev) = last_seen.insert(req.id, req.ts) {
            irts.push(req.ts.saturating_sub(prev).as_secs_f64());
        }
    }
    irts
}

/// Empirical complementary CDF of a sample at the given points:
/// `ccdf(xs, points)[j] = P(X > points[j])`.
pub fn ccdf(samples: &[f64], points: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return vec![0.0; points.len()];
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
    let n = sorted.len() as f64;
    points
        .iter()
        .map(|&p| {
            let idx = sorted.partition_point(|&x| x <= p);
            (sorted.len() - idx) as f64 / n
        })
        .collect()
}

/// Fraction of objects requested exactly once ("one-hit wonders"); the
/// paper attributes CDN-C's behaviour to this being large.
pub fn one_hit_wonder_ratio(trace: &Trace) -> f64 {
    let mut counts: HashMap<ObjectId, u64> = HashMap::new();
    for req in trace.iter() {
        *counts.entry(req.id).or_insert(0) += 1;
    }
    if counts.is_empty() {
        return 0.0;
    }
    let ones = counts.values().filter(|&&c| c == 1).count();
    ones as f64 / counts.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;

    fn trace() -> Trace {
        // Object 1 (size 100): requests at t=0s and t=10s.
        // Object 2 (size 50):  request at t=5s only.
        // Object 3 (size 200): requests at t=2s, 4s, 6s.
        Trace::from_requests(
            "t",
            vec![
                Request::new(Time::from_secs(0), 1, 100),
                Request::new(Time::from_secs(2), 3, 200),
                Request::new(Time::from_secs(4), 3, 200),
                Request::new(Time::from_secs(5), 2, 50),
                Request::new(Time::from_secs(6), 3, 200),
                Request::new(Time::from_secs(10), 1, 100),
            ],
        )
    }

    #[test]
    fn table1_stats() {
        let s = TraceStats::compute(&trace());
        assert_eq!(s.unique_contents, 3);
        assert_eq!(s.total_requests, 6);
        assert_eq!(s.total_bytes_requested, 100 + 200 * 3 + 50 + 100);
        assert_eq!(s.unique_bytes_requested, 350);
        assert_eq!(s.max_content_size, 200);
        assert!((s.mean_content_size - 350.0 / 3.0).abs() < 1e-9);
        assert!((s.duration_hours - 10.0 / 3600.0).abs() < 1e-12);
        // All three objects are simultaneously active at t=5s.
        assert_eq!(s.peak_active_bytes, 350);
    }

    #[test]
    fn active_bytes_counts_single_request_objects() {
        let t = Trace::from_requests("t", vec![Request::new(Time::from_secs(1), 9, 77)]);
        assert_eq!(TraceStats::compute(&t).peak_active_bytes, 77);
    }

    #[test]
    fn active_bytes_non_overlapping_objects_do_not_sum() {
        // Object 1 active [0, 1]; object 2 active [10, 11]; never overlap.
        let t = Trace::from_requests(
            "t",
            vec![
                Request::new(Time::from_secs(0), 1, 100),
                Request::new(Time::from_secs(1), 1, 100),
                Request::new(Time::from_secs(10), 2, 300),
                Request::new(Time::from_secs(11), 2, 300),
            ],
        );
        assert_eq!(TraceStats::compute(&t).peak_active_bytes, 300);
    }

    #[test]
    fn rank_frequency_is_sorted_descending() {
        let rf = rank_frequency(&trace());
        assert_eq!(rf, vec![3, 2, 1]);
    }

    #[test]
    fn irts_per_object() {
        let mut irts = inter_request_times(&trace());
        irts.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        // Object 3: gaps 2s, 2s; object 1: gap 10s.
        assert_eq!(irts, vec![2.0, 2.0, 10.0]);
    }

    #[test]
    fn ccdf_basic() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        let c = ccdf(&samples, &[0.0, 2.0, 5.0]);
        assert_eq!(c, vec![1.0, 0.5, 0.0]);
    }

    #[test]
    fn ccdf_empty_samples() {
        assert_eq!(ccdf(&[], &[1.0]), vec![0.0]);
    }

    #[test]
    fn one_hit_wonders() {
        assert!((one_hit_wonder_ratio(&trace()) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(one_hit_wonder_ratio(&Trace::new("e")), 0.0);
    }

    #[test]
    fn empty_trace_stats_are_zero() {
        let s = TraceStats::compute(&Trace::new("e"));
        assert_eq!(s.unique_contents, 0);
        assert_eq!(s.peak_active_bytes, 0);
        assert_eq!(s.mean_content_size, 0.0);
    }
}

//! Miss-ratio curves for LRU with variable object sizes.
//!
//! LRU with a byte capacity has the *inclusion property*: the contents of
//! a smaller cache are always a subset of a larger one's. A request
//! therefore hits in every cache at least as large as its **byte-weighted
//! reuse distance** — the total size of the distinct objects touched since
//! the previous request to the same object (inclusive of the object
//! itself). One pass computing all reuse distances (a Mattson stack
//! analysis, here with a Fenwick tree over last-access positions,
//! O(n log n)) yields the *entire* hit-ratio-vs-capacity curve.
//!
//! For very long traces, [`MrcConfig::sample_rate`] enables SHARDS-style
//! spatial sampling (Waldspurger et al., FAST '15): only objects whose
//! hashed id falls under the rate are tracked, and distances are scaled by
//! `1/rate`.

use lhr_trace::{ObjectId, Trace};
use std::collections::HashMap;

/// Configuration for MRC construction.
#[derive(Debug, Clone)]
pub struct MrcConfig {
    /// Spatial sampling rate in (0, 1]; 1.0 = exact.
    pub sample_rate: f64,
    /// Capacities (bytes) at which the curve is evaluated.
    pub capacities: Vec<u64>,
}

impl MrcConfig {
    /// An exact curve over the given capacities.
    pub fn exact(capacities: Vec<u64>) -> Self {
        MrcConfig {
            sample_rate: 1.0,
            capacities,
        }
    }

    /// A SHARDS-sampled curve.
    pub fn sampled(capacities: Vec<u64>, sample_rate: f64) -> Self {
        assert!(sample_rate > 0.0 && sample_rate <= 1.0);
        MrcConfig {
            sample_rate,
            capacities,
        }
    }
}

/// A computed miss-ratio curve.
#[derive(Debug, Clone)]
pub struct MissRatioCurve {
    /// `(capacity bytes, object hit ratio)` pairs, ascending capacity.
    pub points: Vec<(u64, f64)>,
    /// Requests analyzed (after sampling).
    pub sampled_requests: u64,
}

/// Fenwick tree over request positions; a 1 at position `p` carries the
/// size of the object whose most recent access was at `p`.
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u64;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over positions `0..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        i += 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    fn total(&self) -> u64 {
        self.prefix(self.tree.len() - 2)
    }
}

/// Hash for SHARDS sampling: uniform in [0,1).
fn sample_hash(id: ObjectId) -> f64 {
    let mut x = id.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x >> 32;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x >> 32;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Computes the LRU miss-ratio curve of `trace` under `config`.
pub fn lru_mrc(trace: &Trace, config: &MrcConfig) -> MissRatioCurve {
    let mut capacities = config.capacities.clone();
    capacities.sort_unstable();
    capacities.dedup();

    let scale = 1.0 / config.sample_rate;
    // Positions of sampled requests only.
    let sampled: Vec<(usize, ObjectId, u64)> = trace
        .iter()
        .enumerate()
        .filter(|(_, r)| config.sample_rate >= 1.0 || sample_hash(r.id) < config.sample_rate)
        .map(|(i, r)| (i, r.id, r.size))
        .collect();

    let mut fenwick = Fenwick::new(sampled.len());
    let mut last_pos: HashMap<ObjectId, usize> = HashMap::new();
    // Histogram of hits per capacity point + beyond-all bucket for cold
    // misses / distances beyond the largest capacity.
    let mut hits_at = vec![0u64; capacities.len()];
    let mut measured = 0u64;

    for (pos, (_, id, size)) in sampled.iter().enumerate() {
        measured += 1;
        match last_pos.insert(*id, pos) {
            None => {
                // Cold miss at every capacity.
            }
            Some(prev) => {
                // Byte-weighted distance: sizes of distinct objects whose
                // last access lies in (prev, pos), plus this object.
                let between = fenwick.total() - fenwick.prefix(prev);
                let distance = ((between + size) as f64 * scale) as u64;
                let first_fit = capacities.partition_point(|&c| c < distance);
                for h in hits_at.iter_mut().skip(first_fit) {
                    *h += 1;
                }
                fenwick.add(prev, -(*size as i64));
            }
        }
        fenwick.add(pos, *size as i64);
    }

    MissRatioCurve {
        points: capacities
            .into_iter()
            .zip(hits_at)
            .map(|(c, h)| {
                (
                    c,
                    if measured == 0 {
                        0.0
                    } else {
                        h as f64 / measured as f64
                    },
                )
            })
            .collect(),
        sampled_requests: measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_sim::{SimConfig, Simulator};
    use lhr_trace::synth::{IrmConfig, SizeModel};
    use lhr_trace::{Request, Time};

    #[test]
    fn tiny_trace_distances_are_exact() {
        // a b a: a's reuse distance = size(a) + size(b) = 30.
        let t = Trace::from_requests(
            "t",
            vec![
                Request::new(Time::from_secs(0), 1, 10),
                Request::new(Time::from_secs(1), 2, 20),
                Request::new(Time::from_secs(2), 1, 10),
            ],
        );
        let curve = lru_mrc(&t, &MrcConfig::exact(vec![10, 29, 30, 100]));
        // Capacity 29 misses the reuse; 30 catches it.
        assert_eq!(curve.points[1], (29, 0.0));
        assert_eq!(curve.points[2].0, 30);
        assert!((curve.points[2].1 - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotone_in_capacity() {
        let trace = IrmConfig::new(300, 20_000)
            .zipf_alpha(0.9)
            .size_model(SizeModel::BoundedPareto {
                alpha: 1.4,
                min: 100,
                max: 10_000,
            })
            .seed(1)
            .generate();
        let caps: Vec<u64> = (1..=20).map(|k| k * 10_000).collect();
        let curve = lru_mrc(&trace, &MrcConfig::exact(caps));
        for w in curve.points.windows(2) {
            assert!(w[1].1 >= w[0].1, "not monotone: {:?}", w);
        }
    }

    #[test]
    fn exact_mrc_matches_lru_simulation() {
        let trace = IrmConfig::new(400, 40_000)
            .zipf_alpha(0.8)
            .size_model(SizeModel::BoundedPareto {
                alpha: 1.5,
                min: 100,
                max: 5_000,
            })
            .seed(2)
            .generate();
        for capacity in [20_000u64, 60_000, 150_000] {
            let curve = lru_mrc(&trace, &MrcConfig::exact(vec![capacity]));
            let mut lru = lhr_policies::Lru::new(capacity);
            let simulated = Simulator::new(SimConfig::default())
                .run(&mut lru, &trace)
                .metrics
                .object_hit_ratio();
            let analytic = curve.points[0].1;
            assert!(
                (analytic - simulated).abs() < 0.01,
                "capacity {capacity}: MRC {analytic:.4} vs sim {simulated:.4}"
            );
        }
    }

    #[test]
    fn shards_approximates_exact() {
        // Spatial sampling is accurate when hit mass is spread over many
        // objects (its intended large-trace regime); with a tiny Zipf head
        // the per-object variance dominates, so this test uses a broad
        // population and moderate skew.
        let trace = IrmConfig::new(10_000, 200_000)
            .zipf_alpha(0.5)
            .size_model(SizeModel::BoundedPareto {
                alpha: 1.5,
                min: 100,
                max: 5_000,
            })
            .seed(3)
            .generate();
        let caps: Vec<u64> = vec![200_000, 1_000_000, 4_000_000];
        let exact = lru_mrc(&trace, &MrcConfig::exact(caps.clone()));
        let sampled = lru_mrc(&trace, &MrcConfig::sampled(caps.clone(), 0.25));
        assert!(sampled.sampled_requests < exact.sampled_requests / 2);
        for (&(c, e), &(_, s)) in exact.points.iter().zip(sampled.points.iter()) {
            assert!(
                (e - s).abs() < 0.05,
                "capacity {c}: exact {e:.4} vs SHARDS {s:.4}"
            );
        }
    }

    #[test]
    fn empty_trace() {
        let curve = lru_mrc(&Trace::new("e"), &MrcConfig::exact(vec![100]));
        assert_eq!(curve.points, [(100, 0.0)]);
    }
}

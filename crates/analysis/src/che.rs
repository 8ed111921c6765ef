//! The Che approximation (Che, Tung & Wang 2002), byte-capacity variant.
//!
//! Under the independent reference model with per-object Poisson request
//! rates `λ_i` and sizes `s_i`, an LRU cache of `C` bytes behaves as if
//! every object were evicted exactly `T_C` seconds after its last request,
//! where the *characteristic time* `T_C` solves
//!
//! ```text
//! Σ_i s_i · (1 − e^{−λ_i T_C}) = C
//! ```
//!
//! Object `i`'s hit probability is then `1 − e^{−λ_i T_C}` and the
//! aggregate (object) hit ratio is the rate-weighted mean. The
//! approximation is remarkably accurate for realistic populations and is
//! the standard analytic tool for CDN capacity planning.

use lhr_trace::Trace;
use std::collections::HashMap;

/// A fitted IRM population: per-object rates and sizes.
#[derive(Debug, Clone)]
pub struct CheModel {
    /// Per-object `(rate λ_i in requests/sec, size in bytes)`.
    pub objects: Vec<(f64, u64)>,
    /// Total request rate, Σ λ_i.
    pub total_rate: f64,
}

impl CheModel {
    /// Builds a model directly from rates and sizes.
    pub fn new(objects: Vec<(f64, u64)>) -> Self {
        assert!(!objects.is_empty(), "need at least one object");
        assert!(
            objects.iter().all(|&(rate, size)| rate > 0.0 && size > 0),
            "rates and sizes must be positive"
        );
        let total_rate = objects.iter().map(|&(r, _)| r).sum();
        CheModel {
            objects,
            total_rate,
        }
    }

    /// Estimates rates from a trace: `λ_i = count_i / duration`.
    pub fn from_trace(trace: &Trace) -> Self {
        assert!(trace.len() >= 2, "need at least two requests");
        let duration = trace.duration().as_secs_f64().max(1e-9);
        let mut counts: HashMap<u64, (u64, u64)> = HashMap::new();
        for req in trace.iter() {
            let e = counts.entry(req.id).or_insert((0, req.size));
            e.0 += 1;
        }
        Self::new(
            counts
                .into_values()
                .map(|(count, size)| (count as f64 / duration, size))
                .collect(),
        )
    }

    /// Expected bytes in cache if every object lived `t` seconds past its
    /// last request.
    fn expected_bytes(&self, t: f64) -> f64 {
        self.objects
            .iter()
            .map(|&(rate, size)| size as f64 * (1.0 - (-rate * t).exp()))
            .sum()
    }

    /// Solves for the characteristic time `T_C` of a `capacity`-byte cache
    /// by bisection. Returns `f64::INFINITY` when the cache fits the whole
    /// population.
    pub fn characteristic_time(&self, capacity: u64) -> f64 {
        let total_bytes: f64 = self.objects.iter().map(|&(_, s)| s as f64).sum();
        if capacity as f64 >= total_bytes {
            return f64::INFINITY;
        }
        let target = capacity as f64;
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        while self.expected_bytes(hi) < target {
            hi *= 2.0;
            if hi > 1e18 {
                return f64::INFINITY;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.expected_bytes(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Predicted LRU object hit ratio at `capacity` bytes.
    pub fn lru_hit_ratio(&self, capacity: u64) -> f64 {
        let t = self.characteristic_time(capacity);
        if t.is_infinite() {
            return 1.0;
        }
        let hit_rate: f64 = self
            .objects
            .iter()
            .map(|&(rate, _)| rate * (1.0 - (-rate * t).exp()))
            .sum();
        hit_rate / self.total_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_sim::{SimConfig, Simulator};
    use lhr_trace::synth::{IrmConfig, SizeModel};

    #[test]
    fn characteristic_time_grows_with_capacity() {
        let model = CheModel::new((1..=100).map(|i| (1.0 / i as f64, 100)).collect());
        let t1 = model.characteristic_time(1_000);
        let t2 = model.characteristic_time(5_000);
        assert!(t2 > t1, "{t1} !< {t2}");
    }

    #[test]
    fn full_capacity_hits_everything() {
        let model = CheModel::new(vec![(1.0, 100), (2.0, 200)]);
        assert_eq!(model.lru_hit_ratio(300), 1.0);
    }

    #[test]
    fn matches_lru_simulation_on_irm() {
        // The headline property: Che ≈ simulated LRU on an IRM trace.
        let trace = IrmConfig::new(500, 100_000)
            .zipf_alpha(0.8)
            .size_model(SizeModel::Fixed { bytes: 1_000 })
            .requests_per_sec(100.0)
            .seed(5)
            .generate();
        let model = CheModel::from_trace(&trace);
        for capacity in [20_000u64, 50_000, 100_000] {
            let predicted = model.lru_hit_ratio(capacity);
            let mut lru = lhr_policies::Lru::new(capacity);
            let cfg = SimConfig {
                warmup_requests: 20_000,
            };
            let simulated = Simulator::new(cfg)
                .run(&mut lru, &trace)
                .metrics
                .object_hit_ratio();
            assert!(
                (predicted - simulated).abs() < 0.04,
                "capacity {capacity}: Che {predicted:.4} vs sim {simulated:.4}"
            );
        }
    }

    #[test]
    fn matches_lru_simulation_with_variable_sizes() {
        let trace = IrmConfig::new(400, 80_000)
            .zipf_alpha(0.9)
            .size_model(SizeModel::BoundedPareto {
                alpha: 1.5,
                min: 100,
                max: 10_000,
            })
            .requests_per_sec(50.0)
            .seed(6)
            .generate();
        let model = CheModel::from_trace(&trace);
        let capacity = 100_000u64;
        let predicted = model.lru_hit_ratio(capacity);
        let mut lru = lhr_policies::Lru::new(capacity);
        let cfg = SimConfig {
            warmup_requests: 16_000,
        };
        let simulated = Simulator::new(cfg)
            .run(&mut lru, &trace)
            .metrics
            .object_hit_ratio();
        assert!(
            (predicted - simulated).abs() < 0.05,
            "Che {predicted:.4} vs sim {simulated:.4}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        CheModel::new(vec![(0.0, 10)]);
    }
}

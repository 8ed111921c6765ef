//! Markov-modulated request processes — the "Syn One" and "Syn Two"
//! responsiveness workloads of §7.6.
//!
//! A Markov chain over a small state space modulates the popularity
//! distribution: in each state, a fixed number of requests `r` is drawn from
//! that state's Zipf distribution, then the chain transitions. The paper
//! uses these workloads (1M requests, N = 1 000 objects, r = 200 000) to
//! show that LHR adapts to popularity changes faster than the SOTAs.

use crate::request::{Request, Time, Trace};
use crate::synth::irm::exp_variate;
use crate::synth::size::SizeModel;
use crate::synth::zipf::ZipfSampler;
use lhr_util::rng::rngs::StdRng;
use lhr_util::rng::SeedableRng;

/// One state of the modulated process: a popularity distribution over the
/// shared object population.
#[derive(Debug, Clone)]
pub struct PopularityState {
    /// Zipf exponent used in this state.
    pub alpha: f64,
    /// When true, ranks are reversed: the object that is least popular under
    /// the forward ordering becomes the most popular (`p_j = A/(N−j+1)^α`).
    pub reversed: bool,
}

/// Configuration for a Markov-modulated trace.
#[derive(Debug, Clone)]
pub struct MarkovConfig {
    /// Trace name.
    pub name: String,
    /// Number of distinct objects N.
    pub n_objects: usize,
    /// Total number of requests to generate.
    pub n_requests: usize,
    /// Requests drawn per state visit (the paper's `r`).
    pub requests_per_state: usize,
    /// The state visit sequence, cycled until `n_requests` are produced.
    /// (The paper's chains are deterministic cycles: 0,1,0,1,… for Syn One
    /// and 0,1,2,1,0,… for Syn Two.)
    pub state_sequence: Vec<usize>,
    /// The popularity distribution of each state.
    pub states: Vec<PopularityState>,
    /// Aggregate Poisson arrival rate (requests/second).
    pub requests_per_sec: f64,
    /// Object size model.
    pub size_model: SizeModel,
    /// PRNG seed.
    pub seed: u64,
}

impl MarkovConfig {
    /// Generates the trace.
    ///
    /// # Panics
    /// Panics if `states` is empty, `state_sequence` is empty, a sequence
    /// entry indexes past `states`, or `requests_per_state` is zero (the
    /// chain would never advance).
    pub fn generate(&self) -> Trace {
        assert!(!self.states.is_empty(), "need at least one state");
        assert!(!self.state_sequence.is_empty(), "need a state sequence");
        assert!(self.requests_per_state > 0, "need requests in each state");
        assert!(
            self.state_sequence.iter().all(|&s| s < self.states.len()),
            "state sequence indexes out of range"
        );
        let mut rng = StdRng::seed_from_u64(self.seed);
        let samplers: Vec<ZipfSampler> = self
            .states
            .iter()
            .map(|s| ZipfSampler::new(self.n_objects, s.alpha))
            .collect();
        let mut trace = Trace::new(self.name.clone());
        trace.requests.reserve_exact(self.n_requests);
        let mut now = 0.0f64;
        let mut produced = 0;
        'outer: loop {
            for &state_idx in &self.state_sequence {
                let state = &self.states[state_idx];
                let sampler = &samplers[state_idx];
                for _ in 0..self.requests_per_state {
                    if produced == self.n_requests {
                        break 'outer;
                    }
                    now += exp_variate(&mut rng, self.requests_per_sec);
                    let rank = sampler.sample(&mut rng) as u64;
                    let id = if state.reversed {
                        // p_j = A/(N−j+1)^α over 1-based j means reversing
                        // the 0-based rank.
                        (self.n_objects as u64 - 1) - rank
                    } else {
                        rank
                    };
                    let size = self.size_model.size_for(self.seed, id);
                    trace.push(Request::new(Time::from_secs_f64(now), id, size));
                    produced += 1;
                }
            }
        }
        trace
    }
}

/// The paper's "Syn One": a two-state chain alternating between a Zipf(α)
/// popularity in increasing rank order and the same distribution with ranks
/// reversed — a maximal popularity inversion every `r` requests.
pub fn syn_one(n_objects: usize, n_requests: usize, r: usize, alpha: f64, seed: u64) -> Trace {
    MarkovConfig {
        name: "syn-one".into(),
        n_objects,
        n_requests,
        requests_per_state: r,
        state_sequence: vec![0, 1],
        states: vec![
            PopularityState {
                alpha,
                reversed: false,
            },
            PopularityState {
                alpha,
                reversed: true,
            },
        ],
        requests_per_sec: 1_000.0,
        size_model: SizeModel::BoundedPareto {
            alpha: 1.3,
            min: 10_000,
            max: 100_000_000,
        },
        seed,
    }
    .generate()
}

/// The paper's "Syn Two": a three-state chain with Zipf exponents
/// α₀ = 0.7, α₁ = 0.9, α₂ = 1.1 visited in the cycle 0 → 1 → 2 → 1 → 0.
pub fn syn_two(n_objects: usize, n_requests: usize, r: usize, seed: u64) -> Trace {
    MarkovConfig {
        name: "syn-two".into(),
        n_objects,
        n_requests,
        requests_per_state: r,
        state_sequence: vec![0, 1, 2, 1],
        states: vec![
            PopularityState {
                alpha: 0.7,
                reversed: false,
            },
            PopularityState {
                alpha: 0.9,
                reversed: false,
            },
            PopularityState {
                alpha: 1.1,
                reversed: false,
            },
        ],
        requests_per_sec: 1_000.0,
        size_model: SizeModel::BoundedPareto {
            alpha: 1.3,
            min: 10_000,
            max: 100_000_000,
        },
        seed,
    }
    .generate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn syn_one_inverts_popularity() {
        let n = 100;
        let r = 5_000;
        let t = syn_one(n, 2 * r, r, 1.0, 1);
        assert_eq!(t.len(), 2 * r);
        // First phase: object 0 dominates. Second phase: object n-1.
        let count = |reqs: &[Request], id: u64| reqs.iter().filter(|q| q.id == id).count();
        let first = &t.requests[..r];
        let second = &t.requests[r..];
        assert!(count(first, 0) > 10 * count(first, (n - 1) as u64).max(1));
        assert!(count(second, (n - 1) as u64) > 10 * count(second, 0).max(1));
    }

    #[test]
    fn syn_two_changes_skew() {
        let n = 200;
        let r = 10_000;
        let t = syn_two(n, 3 * r, r, 2);
        // Skew (share of top-10 objects) should grow from phase 0 (α=0.7) to
        // phase 2 (α=1.1).
        let share_top10 = |reqs: &[Request]| {
            let mut counts: HashMap<u64, usize> = HashMap::new();
            for q in reqs {
                *counts.entry(q.id).or_insert(0) += 1;
            }
            let mut v: Vec<usize> = counts.into_values().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(10).sum::<usize>() as f64 / reqs.len() as f64
        };
        let s0 = share_top10(&t.requests[..r]);
        let s2 = share_top10(&t.requests[2 * r..3 * r]);
        assert!(s2 > s0 + 0.05, "skew did not increase: {s0} -> {s2}");
    }

    #[test]
    fn sequence_cycles_until_exhausted() {
        let t = syn_one(10, 25, 10, 0.8, 3);
        assert_eq!(t.len(), 25);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn deterministic() {
        let a = syn_two(50, 1_000, 100, 7);
        let b = syn_two(50, 1_000, 100, 7);
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    #[should_panic]
    fn bad_state_sequence_panics() {
        MarkovConfig {
            name: "bad".into(),
            n_objects: 10,
            n_requests: 10,
            requests_per_state: 5,
            state_sequence: vec![2],
            states: vec![PopularityState {
                alpha: 1.0,
                reversed: false,
            }],
            requests_per_sec: 1.0,
            size_model: SizeModel::Fixed { bytes: 1 },
            seed: 0,
        }
        .generate();
    }
}

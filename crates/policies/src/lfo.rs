//! LFO — Learning From OPT (Berger, HotNets '18): the first
//! learning-augmented CDN admission scheme, and the design LHR's paper
//! contrasts itself against (§8: LFO "learns from heuristic OPT but
//! performs even worse than some conventional algorithms on production
//! traces").
//!
//! LFO computes offline-optimal decisions (here: Bélády-Size admissions)
//! over a past window of requests, trains a classifier mapping request
//! features to those decisions, and gates *admission* with the learned
//! predictor at a fixed 0.5 threshold; eviction stays plain LRU. The
//! original uses boosted trees over features very similar to ours, so this
//! implementation reuses the workspace GBM.

use crate::util::SegmentedStore;
use lhr_gbm::{Dataset, Gbm, GbmParams};
use lhr_sim::bound::belady_replay;
use lhr_sim::{CachePolicy, CacheStore, Outcome};
use lhr_trace::{ObjectId, Request, Time};
use lhr_util::hash::FastMap;
use std::collections::VecDeque;

/// Feature width: ln(size), ln(1+count), ln(IRT₁..IRT₄).
const N_FEATURES: usize = 6;
/// Fixed admission threshold (LFO uses 0.5; LHR's §5.2.3 argues this is a
/// weakness).
const THRESHOLD: f64 = 0.5;

#[derive(Debug, Clone)]
struct History {
    count: u64,
    /// Recent request times, newest last (≤ 5 kept → 4 IRTs).
    times: VecDeque<Time>,
}

/// The LFO policy.
pub struct Lfo {
    store: SegmentedStore,
    history: FastMap<ObjectId, History>,
    /// The training window: (features, id, size) per request.
    window: Vec<([f32; N_FEATURES], ObjectId, u64)>,
    window_len: usize,
    model: Option<Gbm>,
    trainings: u64,
}

impl Lfo {
    /// An LFO cache of `capacity` bytes retraining every `window_len`
    /// requests.
    pub fn new(capacity: u64, window_len: usize) -> Self {
        Lfo {
            store: SegmentedStore::new(capacity, 1),
            history: FastMap::default(),
            window: Vec::new(),
            window_len: window_len.max(256),
            model: None,
            trainings: 0,
        }
    }

    /// Number of retrainings so far.
    pub fn trainings(&self) -> u64 {
        self.trainings
    }

    fn features(&self, req: &Request) -> [f32; N_FEATURES] {
        let mut f = [f32::NAN; N_FEATURES];
        f[0] = (req.size.max(1) as f32).ln();
        match self.history.get(&req.id) {
            Some(h) => {
                f[1] = (h.count as f32).ln_1p();
                for (j, pair) in h
                    .times
                    .iter()
                    .rev()
                    .zip(h.times.iter().rev().skip(1))
                    .enumerate()
                {
                    if j >= 4 {
                        break;
                    }
                    // Gap between consecutive historical requests.
                    let gap = pair.0.saturating_sub(*pair.1).as_secs_f64().max(1e-6);
                    f[2 + j] = gap.ln() as f32;
                }
                // IRT₁ relative to now replaces the first slot.
                if let Some(&last) = h.times.back() {
                    f[2] = (req.ts.saturating_sub(last).as_secs_f64().max(1e-6)).ln() as f32;
                }
            }
            None => {
                f[1] = 0.0;
            }
        }
        f
    }

    fn record(&mut self, req: &Request) {
        let h = self.history.entry(req.id).or_insert_with(|| History {
            count: 0,
            times: VecDeque::new(),
        });
        h.count += 1;
        h.times.push_back(req.ts);
        if h.times.len() > 5 {
            h.times.pop_front();
        }
    }

    /// Offline-optimal admissions over the window: replay Bélády-Size
    /// (future-aware within the window) and label each request 1 if OPT
    /// admitted or already cached it.
    fn opt_labels(&self) -> Vec<f32> {
        let requests = self.window.iter().map(|&(_, id, size)| (id, size));
        belady_replay(requests, self.store.capacity(), true)
            .into_iter()
            .map(|outcome| f32::from(outcome != Outcome::MissBypassed))
            .collect()
    }

    fn retrain(&mut self) {
        let labels = self.opt_labels();
        let mut data = Dataset::new(N_FEATURES);
        data.reserve(self.window.len());
        for ((features, _, _), &label) in self.window.iter().zip(labels.iter()) {
            data.push_row(features, label);
        }
        if !data.is_empty() {
            let params = GbmParams {
                n_trees: 20,
                max_depth: 5,
                ..GbmParams::default()
            };
            self.model = Some(Gbm::fit(&data, &params));
            self.trainings += 1;
        }
        self.window.clear();
        // Bound the history map to roughly the window's population.
        if self.history.len() > 4 * self.window_len {
            self.history.clear();
        }
    }

    fn admit_probability(&self, features: &[f32; N_FEATURES]) -> f64 {
        match &self.model {
            Some(model) => model.predict_probability(features),
            None => 1.0, // admit-all until the first window trains
        }
    }
}

impl CachePolicy for Lfo {
    fn name(&self) -> &str {
        "LFO"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }

    fn handle(&mut self, req: &Request) -> Outcome {
        let features = self.features(req);
        self.window.push((features, req.id, req.size));
        self.record(req);
        if self.window.len() >= self.window_len {
            self.retrain();
        }

        if self.store.touch(req.id).is_some() {
            return Outcome::Hit;
        }
        if req.size > self.store.capacity() || self.admit_probability(&features) < THRESHOLD {
            return Outcome::MissBypassed;
        }
        self.store.admit(req.id, req.size, req.ts, 0);
        Outcome::MissAdmitted
    }

    fn metadata_overhead_bytes(&self) -> u64 {
        let model = self.model.as_ref().map_or(0, |m| m.approx_size_bytes()) as u64;
        self.store.len() as u64 * 48
            // An entry as the memory figures have always charged it
            // (`tests/golden/policies.tsv` pins the sum).
            + self.history.len() as u64 * 88
            + self.window.len() as u64 * 40
            + model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: u64, id: ObjectId, size: u64) -> Request {
        Request::new(Time::from_secs(t), id, size)
    }

    #[test]
    fn admits_all_before_first_training() {
        let mut c = Lfo::new(1_000, 1_000);
        assert_eq!(c.handle(&req(0, 1, 100)), Outcome::MissAdmitted);
    }

    #[test]
    fn trains_after_window_fills() {
        let mut c = Lfo::new(2_000, 256);
        for i in 0..600u64 {
            c.handle(&req(i, i % 13, 150));
        }
        assert!(c.trainings() >= 2);
    }

    #[test]
    fn opt_labels_mark_rerequested_content() {
        let mut c = Lfo::new(1_000, 1 << 30);
        // hot object + one-hit wonders
        let mut t = 0;
        for round in 0..20u64 {
            c.handle(&req(t, 1, 100));
            t += 1;
            c.handle(&req(t, 1_000 + round, 100));
            t += 1;
        }
        let labels = c.opt_labels();
        // Requests to object 1 after the first must be OPT hits (label 1).
        let window = c.window.clone();
        for (i, (_, id, _)) in window.iter().enumerate() {
            if *id == 1 && i > 0 {
                assert_eq!(labels[i], 1.0, "request {i} to hot object not labeled");
            }
            if *id >= 1_000 {
                assert_eq!(labels[i], 0.0, "one-hit wonder {id} labeled admit");
            }
        }
    }

    #[test]
    fn learned_gate_blocks_one_hit_wonders() {
        let mut c = Lfo::new(1_000, 512);
        let mut t = 0;
        // Train through several windows of hot-vs-one-hit traffic.
        for round in 0..3_000u64 {
            for hot in 0..3u64 {
                c.handle(&req(t, hot, 100));
                t += 1;
            }
            c.handle(&req(t, 10_000 + round, 100));
            t += 1;
        }
        assert!(c.trainings() > 0);
        // A brand-new object (cold features) should now be bypassed.
        let outcome = c.handle(&req(t, 999_999, 100));
        assert_eq!(outcome, Outcome::MissBypassed);
        // While the hot set hits.
        assert!(c.handle(&req(t + 1, 0, 100)).is_hit());
    }

    #[test]
    fn capacity_respected() {
        let mut c = Lfo::new(1_000, 512);
        for i in 0..3_000u64 {
            c.handle(&req(i, i % 29, 120));
            assert!(c.used_bytes() <= 1_000);
        }
    }
}

//! Background (shadow) retraining with deterministic swap timing.
//!
//! A Zipf-α detection used to retrain the admission model *inline*,
//! stalling the serving path for the whole `Gbm::fit`. The shadow trainer
//! moves the fit onto a dedicated thread and publishes the result through
//! an epoch-stamped slot; the serving thread *installs* (swaps in) the
//! trained model only at a window edge pinned when the training was
//! spawned — never at the wall-clock moment training happens to finish.
//!
//! That pinning is what keeps sharded replays byte-identical at any thread
//! count (see DESIGN.md "Sharded engine"): every model the cache ever
//! serves with is a deterministic function of (trace, config), because
//! *which* window's data trained it and *which* window edge activates it
//! are both fixed by window index. Wall-clock only decides whether the
//! serving thread waits at the edge (it normally doesn't — training has a
//! full window of slack), i.e. it can affect latency but never results.
//!
//! A trainer dropped with a fit in flight — its cache's run ended before
//! the pinned edge, so no edge will ever install that model — cancels the
//! fit instead of waiting for it: the fit gives up at its next boosting
//! round and publishes nothing.

use lhr_gbm::{Dataset, Gbm, GbmParams};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// What the training thread publishes: the fitted model and its wall time.
type TrainedSlot = Arc<Mutex<Option<(Gbm, f64)>>>;

struct PendingTrain {
    /// Window index at whose edge the model must be installed.
    due_window: u64,
    /// Training-set size, reported on the `ModelSwap` event.
    rows: usize,
    slot: TrainedSlot,
    /// Set when nothing will install the model: the fit stops early.
    cancel: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// A trained shadow model ready to install, returned by
/// [`ShadowTrainer::take_due`].
pub(crate) struct InstalledModel {
    /// The freshly trained admission model.
    pub model: Gbm,
    /// Rows the model was trained on.
    pub rows: usize,
    /// Wall-clock seconds the background fit took.
    pub wall_secs: f64,
    /// Monotone install counter (1 for the first background swap).
    pub epoch: u64,
}

/// Owns at most one in-flight background `Gbm::fit` and its swap schedule.
#[derive(Default)]
pub(crate) struct ShadowTrainer {
    pending: Option<PendingTrain>,
    epoch: u64,
}

impl ShadowTrainer {
    /// The window at whose edge the in-flight training is installed, if
    /// one is in flight.
    pub fn due_window(&self) -> Option<u64> {
        self.pending.as_ref().map(|p| p.due_window)
    }

    /// Spawns a background fit of `data`, to be installed at the edge of
    /// window `due_window`.
    ///
    /// # Panics
    /// Panics (in debug) if a training is already in flight: `LhrCache`
    /// pins every swap to the edge after the one that spawned it, where
    /// [`Self::take_due`] runs first.
    pub fn spawn(&mut self, data: Dataset, params: GbmParams, due_window: u64) {
        debug_assert!(self.pending.is_none(), "one training in flight at most");
        debug_assert!(!data.is_empty(), "spawned with an empty training set");
        let slot: TrainedSlot = Arc::new(Mutex::new(None));
        let cancel = Arc::new(AtomicBool::new(false));
        let rows = data.n_rows();
        let handle = {
            let (slot, cancel) = (Arc::clone(&slot), Arc::clone(&cancel));
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                // No obs recorder here: span nesting is serving-thread
                // state, and a concurrent emitter would make the span tree
                // depend on scheduling. The install site accounts for the
                // fit on the serving thread instead.
                if let Some(model) = Gbm::fit_unless(&data, &params, &cancel) {
                    *slot.lock().expect("trainer slot poisoned") =
                        Some((model, t0.elapsed().as_secs_f64()));
                }
            })
        };
        self.pending = Some(PendingTrain {
            due_window,
            rows,
            slot,
            cancel,
            handle: Some(handle),
        });
    }

    /// At the edge of window `window`: returns the pending model if its
    /// pinned swap window has arrived, joining the trainer thread first
    /// (normally a no-op — training had a full window of slack). Returns
    /// `None` while nothing is due.
    pub fn take_due(&mut self, window: u64) -> Option<InstalledModel> {
        if self.pending.as_ref().is_none_or(|p| window < p.due_window) {
            return None;
        }
        let mut p = self.pending.take().expect("checked above");
        if let Some(handle) = p.handle.take() {
            if handle.join().is_err() {
                panic!("background Gbm::fit panicked");
            }
        }
        let (model, wall_secs) = p
            .slot
            .lock()
            .expect("trainer slot poisoned")
            .take()
            .expect("trainer publishes before exiting");
        self.epoch += 1;
        Some(InstalledModel {
            model,
            rows: p.rows,
            wall_secs,
            epoch: self.epoch,
        })
    }
}

impl Drop for ShadowTrainer {
    fn drop(&mut self) {
        // A run can end mid-training, and then no edge will install the
        // model: stop the fit at its next round rather than finish it, and
        // don't leak the thread past the cache.
        if let Some(mut p) = self.pending.take() {
            p.cancel.store(true, Ordering::Relaxed);
            if let Some(handle) = p.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_data() -> Dataset {
        let mut d = Dataset::new(1);
        for i in 0..64 {
            d.push_row(&[i as f32], if i < 32 { 0.0 } else { 1.0 });
        }
        d
    }

    #[test]
    fn install_waits_for_the_pinned_window() {
        let mut t = ShadowTrainer::default();
        t.spawn(tiny_data(), GbmParams::default(), 5);
        assert_eq!(t.due_window(), Some(5));
        assert!(t.take_due(3).is_none(), "not due yet");
        assert!(t.take_due(4).is_none(), "not due yet");
        let installed = t.take_due(5).expect("due at its pinned edge");
        assert_eq!(installed.epoch, 1);
        assert_eq!(installed.rows, 64);
        assert!(installed.model.predict(&[60.0]) > 0.5);
        assert_eq!(t.due_window(), None);
    }

    #[test]
    fn late_edges_still_install_and_epochs_advance() {
        let mut t = ShadowTrainer::default();
        t.spawn(tiny_data(), GbmParams::default(), 2);
        // The edge the swap was pinned to can be jumped over (window-index
        // gaps on sparse traces); any later edge installs.
        assert_eq!(t.take_due(9).expect("overdue installs").epoch, 1);
        t.spawn(tiny_data(), GbmParams::default(), 10);
        assert_eq!(t.take_due(10).expect("second install").epoch, 2);
    }

    #[test]
    fn dropping_mid_training_joins_cleanly() {
        let mut t = ShadowTrainer::default();
        t.spawn(tiny_data(), GbmParams::default(), 99);
        drop(t); // must not leak or deadlock
    }

    /// A fit of this many trees over this many rows runs for minutes: only
    /// a cancelled one ends within a test.
    fn large_fit() -> (Dataset, GbmParams) {
        let mut d = Dataset::new(4);
        for i in 0..20_000u32 {
            let x = [(i % 97) as f32, (i % 89) as f32, (i % 83) as f32, i as f32];
            d.push_row(&x, ((i * 7) % 13) as f32 / 13.0);
        }
        let params = GbmParams {
            n_trees: 50_000,
            min_split_gain: 0.0,
            threads: 1,
            ..GbmParams::default()
        };
        (d, params)
    }

    #[test]
    fn dropping_with_a_large_fit_in_flight_abandons_it_unpublished() {
        let (data, params) = large_fit();
        let mut t = ShadowTrainer::default();
        t.spawn(data, params, 7);
        let slot = Arc::clone(&t.pending.as_ref().expect("in flight").slot);
        drop(t);
        assert!(
            slot.lock().expect("trainer slot").is_none(),
            "an abandoned fit publishes no model"
        );
    }

    #[test]
    fn a_fit_whose_edge_arrives_installs_the_model_a_plain_fit_makes() {
        let (data, params) = (tiny_data(), GbmParams::default());
        let expect = Gbm::fit(&data, &params).to_json_string();
        let mut t = ShadowTrainer::default();
        t.spawn(data, params, 3);
        let installed = t.take_due(3).expect("due at its pinned edge");
        assert_eq!(installed.model.to_json_string(), expect);
    }
}

//! Content feature extraction (§5.2.1): up to 20 inter-request times plus
//! static features.
//!
//! The feature vector layout is:
//!
//! | index | feature |
//! |-------|---------|
//! | 0     | ln(size in bytes) |
//! | 1     | ln(1 + requests seen so far) |
//! | 2     | ln(age since first request, seconds) |
//! | 3..3+K | ln(IRT₁..IRT_K in seconds); `NaN` where history is shorter |
//!
//! IRT₁ is the time since the last request, IRT₂ the gap between the two
//! previous requests, and so on — exactly the paper's definition. Missing
//! IRTs are `NaN`, which the GBM routes through learned default directions.

use lhr_trace::{ObjectId, Time};
use lhr_util::hash::FastMap;
use std::collections::hash_map::Entry;

/// Number of static features preceding the IRTs.
pub const N_STATIC: usize = 3;

/// Per-object request history sufficient to produce features. Everything
/// a row needs that does not depend on "now" is stored already logged:
/// `ln(size)` here, the gaps between past requests in the store's ring
/// arena. A gap's logarithm is taken once, when the request that closes it
/// is recorded — from the very pair of timestamps a later row would have
/// subtracted — so a row rendered from the ring is bit-identical to one
/// rendered from the raw timestamps.
#[derive(Debug, Clone)]
struct ObjectHistory {
    /// `ln(size in bytes)` as of the first request.
    ln_size: f32,
    /// This object's ring in [`FeatureStore::gaps`].
    ring: u32,
    /// Time of the object's first observed request.
    first_seen: Time,
    /// Total requests observed.
    count: u64,
    /// Time of the most recent request.
    last: Time,
    /// The window stamp of the most recent request: twice its window
    /// index, plus one if it closed that window
    /// ([`FeatureStore::mark_closing`]). The next request is the object's
    /// first in window `w` unless `stamp / 2 == w`; pruning counts a
    /// closing request as seen in the next window, `stamp.div_ceil(2)`.
    stamp: u64,
}

/// Tracks histories for all recently active objects and renders feature
/// rows.
#[derive(Debug)]
pub struct FeatureStore {
    /// Number of IRT features (the paper settles on 20; Figure 6 sweeps
    /// 10/20/30).
    pub n_irts: usize,
    objects: FastMap<ObjectId, ObjectHistory>,
    /// Ring arena: `n_irts − 1` floats per object, `ln(IRT₂)` first — the
    /// logged gaps between its past requests, newest first, `NaN` where the
    /// history is shorter. A row's IRT₂.. columns are a straight copy.
    gaps: Vec<f32>,
    /// Rings reclaimed by [`Self::prune_before`], reused by first sightings
    /// so steady-state replay does not grow the arena.
    free: Vec<u32>,
}

impl FeatureStore {
    /// A store producing `n_irts` IRT features.
    pub fn new(n_irts: usize) -> Self {
        assert!(n_irts >= 1);
        FeatureStore {
            n_irts,
            objects: FastMap::default(),
            gaps: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Width of feature rows produced by [`FeatureStore::features`].
    pub fn n_features(&self) -> usize {
        N_STATIC + self.n_irts
    }

    /// Records a request of `id` in window `window` and returns whether it
    /// is the object's first request in that window. Given a `row` (which
    /// must be `n_features()` wide), it first renders there the feature row
    /// *as of this request*, in the same probe of the object map; without
    /// one it only closes the gap since the previous request (one
    /// logarithm, the ring shift) and leaves the store exactly as a
    /// rendering call would. A first sighting gets the cold row: its size,
    /// zero count and age, every IRT missing.
    pub fn observe(
        &mut self,
        id: ObjectId,
        size: u64,
        ts: Time,
        window: u64,
        row: Option<&mut [f32]>,
    ) -> bool {
        debug_assert!(row.as_ref().is_none_or(|r| r.len() == self.n_features()));
        let ring_len = self.n_irts - 1;
        match self.objects.entry(id) {
            Entry::Occupied(mut e) => {
                let h = e.get_mut();
                let ring = &mut self.gaps[h.ring as usize * ring_len..][..ring_len];
                // The gap this request closes is the row's IRT₁.
                let ln_irt1 = match row {
                    Some(out) => {
                        render(h, ring, ts, out);
                        out[N_STATIC]
                    }
                    None => ln_secs(ts.saturating_sub(h.last)),
                };
                let first = h.stamp / 2 != window;
                if let Some(last) = ring_len.checked_sub(1) {
                    ring.copy_within(..last, 1);
                    ring[0] = ln_irt1;
                }
                h.count += 1;
                h.last = ts;
                h.stamp = 2 * window;
                first
            }
            Entry::Vacant(e) => {
                let ln_size = (size.max(1) as f32).ln();
                if let Some(out) = row {
                    out[0] = ln_size;
                    out[1] = 0.0; // ln(1 + 0 prior requests)
                    out[2] = (1e-6f32).ln(); // zero age
                    out[N_STATIC..].fill(f32::NAN);
                }
                let ring = self.free.pop().unwrap_or_else(|| {
                    let fresh = self.gaps.len() / ring_len.max(1);
                    self.gaps.resize(self.gaps.len() + ring_len, f32::NAN);
                    fresh as u32
                });
                self.gaps[ring as usize * ring_len..][..ring_len].fill(f32::NAN);
                e.insert(ObjectHistory {
                    ln_size,
                    ring,
                    first_seen: ts,
                    count: 1,
                    last: ts,
                    stamp: 2 * window,
                });
                true
            }
        }
    }

    /// Marks `id`'s latest request as the one that closed its window, which
    /// pruning counts as the next window's. No-op for an untracked object.
    pub fn mark_closing(&mut self, id: ObjectId) {
        if let Some(h) = self.objects.get_mut(&id) {
            h.stamp |= 1;
        }
    }

    /// Drops objects last requested before `horizon_window`, a window's
    /// closing request counting as the next window's (keeps the store
    /// bounded to a few windows of state, mirroring §5.1's "only use data
    /// within the window").
    pub fn prune_before(&mut self, horizon_window: u64) {
        let free = &mut self.free;
        self.objects.retain(|_, h| {
            let keep = h.stamp.div_ceil(2) >= horizon_window;
            if !keep {
                free.push(h.ring);
            }
            keep
        });
    }

    /// Approximate metadata footprint in bytes: a map entry per tracked
    /// object (8-byte key, 40-byte history, control byte), the ring arena
    /// (live and reclaimed rings alike) and the free list.
    pub fn overhead_bytes(&self) -> u64 {
        (self.objects.len() * 49 + self.gaps.len() * 4 + self.free.len() * 4) as u64
    }
}

/// Fills `out` with `h`'s row as of `now`: statics, IRT₁ = `now` − most
/// recent request, then the ring (IRT₂.., already logged).
fn render(h: &ObjectHistory, ring: &[f32], now: Time, out: &mut [f32]) {
    out[0] = h.ln_size;
    out[1] = (h.count as f32).ln_1p();
    out[2] = ln_secs(now.saturating_sub(h.first_seen));
    out[N_STATIC] = ln_secs(now.saturating_sub(h.last));
    out[N_STATIC + 1..].copy_from_slice(ring);
}

fn ln_secs(t: Time) -> f32 {
    (t.as_secs_f64().max(1e-6) as f32).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_util::prop::{any_u64, range};
    use lhr_util::{prop_assert_eq, prop_check};

    /// What only tests read of the store.
    impl FeatureStore {
        /// Renders the feature row for `id` *as of time `now`* without
        /// recording anything, or `None` if the object is not tracked.
        fn features(&self, id: ObjectId, now: Time) -> Option<Vec<f32>> {
            let h = self.objects.get(&id)?;
            let ring_len = self.n_irts - 1;
            let mut row = vec![f32::NAN; self.n_features()];
            render(
                h,
                &self.gaps[h.ring as usize * ring_len..][..ring_len],
                now,
                &mut row,
            );
            Some(row)
        }

        /// Number of tracked objects.
        pub(crate) fn len(&self) -> usize {
            self.objects.len()
        }
    }

    /// Records a request without rendering its row.
    fn sight(fs: &mut FeatureStore, id: ObjectId, size: u64, ts: Time, window: u64) {
        fs.observe(id, size, ts, window, None);
    }

    #[test]
    fn features_have_expected_width_and_statics() {
        let mut fs = FeatureStore::new(20);
        sight(&mut fs, 7, 1 << 20, Time::from_secs(10), 0);
        let row = fs.features(7, Time::from_secs(15)).expect("recorded");
        assert_eq!(row.len(), 23);
        assert!((row[0] - (1024.0f32 * 1024.0).ln()).abs() < 1e-4);
        assert!((row[1] - 1.0f32.ln_1p()).abs() < 1e-6);
        assert!((row[2] - 5.0f32.ln()).abs() < 1e-4); // age = 5 s
    }

    #[test]
    fn a_history_is_40_bytes() {
        // `overhead_bytes` counts 49 bytes per tracked object: the 8-byte
        // key, this and a control byte.
        assert_eq!(std::mem::size_of::<ObjectHistory>(), 40);
    }

    #[test]
    fn irt1_is_time_since_last_request() {
        let mut fs = FeatureStore::new(5);
        sight(&mut fs, 1, 100, Time::from_secs(0), 0);
        sight(&mut fs, 1, 100, Time::from_secs(4), 0);
        let row = fs.features(1, Time::from_secs(10)).expect("recorded");
        assert!((row[N_STATIC] - 6.0f32.ln()).abs() < 1e-4);
        // IRT₂ = 4 − 0.
        assert!((row[N_STATIC + 1] - 4.0f32.ln()).abs() < 1e-4);
        // IRT₃ missing.
        assert!(row[N_STATIC + 2].is_nan());
    }

    #[test]
    fn observe_renders_the_row_before_recording() {
        let mut fs = FeatureStore::new(3);
        let mut row = vec![0.0; fs.n_features()];
        assert!(fs.observe(1, 100, Time::from_secs(2), 0, Some(&mut row)));
        // First sighting: the cold row.
        assert_eq!(row[0], 100.0f32.ln());
        assert_eq!(row[1], 0.0);
        assert_eq!(row[2], (1e-6f32).ln());
        assert!(row[N_STATIC..].iter().all(|v| v.is_nan()));
        // The second request sees one prior request, not two.
        let before = fs.features(1, Time::from_secs(5)).expect("tracked");
        assert!(!fs.observe(1, 100, Time::from_secs(5), 0, Some(&mut row)));
        assert_eq!(row[1], 1.0f32.ln_1p());
        assert_eq!(row[N_STATIC], 3.0f32.ln());
        assert!(row[N_STATIC + 1].is_nan());
        let bits = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&row), bits(&before), "observe and features disagree");
    }

    #[test]
    fn history_is_bounded_to_n_irts() {
        let mut fs = FeatureStore::new(3);
        for t in 0..50 {
            sight(&mut fs, 1, 100, Time::from_secs(t), 0);
        }
        assert_eq!(fs.gaps.len(), 2, "one ring of n_irts − 1 gaps");
        let row = fs.features(1, Time::from_secs(50)).expect("tracked");
        // All three IRTs present, each equal to 1 s.
        for j in 0..3 {
            assert!((row[N_STATIC + j] - 1.0f32.ln()).abs() < 1e-4, "irt {j}");
        }
    }

    #[test]
    fn unknown_object_yields_none() {
        let fs = FeatureStore::new(4);
        assert!(fs.features(99, Time::ZERO).is_none());
    }

    #[test]
    fn pruning_drops_stale_objects_and_reuses_their_rings() {
        let mut fs = FeatureStore::new(4);
        sight(&mut fs, 1, 100, Time::from_secs(0), 0);
        sight(&mut fs, 1, 100, Time::from_secs(1), 0);
        sight(&mut fs, 2, 100, Time::from_secs(1), 5);
        fs.prune_before(3);
        assert!(fs.features(1, Time::from_secs(2)).is_none());
        assert!(fs.features(2, Time::from_secs(2)).is_some());
        assert_eq!(fs.len(), 1);
        // A new object takes over the reclaimed ring, wiped.
        let arena = fs.gaps.len();
        sight(&mut fs, 3, 100, Time::from_secs(3), 5);
        assert_eq!(fs.gaps.len(), arena);
        let row = fs.features(3, Time::from_secs(4)).expect("tracked");
        assert!(row[N_STATIC + 1..].iter().all(|v| v.is_nan()));
        // A window's closing request counts as the next window's.
        sight(&mut fs, 4, 100, Time::from_secs(5), 6);
        sight(&mut fs, 5, 100, Time::from_secs(5), 6);
        fs.mark_closing(4);
        fs.prune_before(7);
        assert!(fs.features(4, Time::from_secs(6)).is_some());
        assert!(fs.features(5, Time::from_secs(6)).is_none());
    }

    #[test]
    fn count_accumulates_across_windows() {
        let mut fs = FeatureStore::new(2);
        for w in 0..5u64 {
            sight(&mut fs, 1, 100, Time::from_secs(w), w);
        }
        let row = fs.features(1, Time::from_secs(5)).expect("tracked");
        assert_eq!(row[1], 5.0f32.ln_1p());
    }

    /// The store as it was before gaps were logged at record time: raw
    /// timestamps per object (newest last, `n_irts + 1` kept), every
    /// logarithm taken when the row is rendered.
    struct RawTimestampStore {
        n_irts: usize,
        /// id → (size, first seen, count, timestamps, last window).
        objects: FastMap<ObjectId, (u64, Time, u64, Vec<Time>, u64)>,
    }

    impl RawTimestampStore {
        fn row(&self, id: ObjectId, size: u64, now: Time) -> Vec<f32> {
            let mut out = vec![f32::NAN; N_STATIC + self.n_irts];
            let Some((size, first_seen, count, times, _)) = self.objects.get(&id) else {
                out[0] = (size.max(1) as f32).ln();
                out[1] = 0.0;
                out[2] = (1e-6f32).ln();
                return out;
            };
            out[0] = ((*size).max(1) as f32).ln();
            out[1] = (*count as f32).ln_1p();
            out[2] = ln_secs(now.saturating_sub(*first_seen));
            if let Some(&last) = times.last() {
                out[N_STATIC] = ln_secs(now.saturating_sub(last));
            }
            for j in 1..self.n_irts {
                if times.len() > j {
                    let a = times[times.len() - j - 1];
                    let b = times[times.len() - j];
                    out[N_STATIC + j] = ln_secs(b.saturating_sub(a));
                }
            }
            out
        }

        fn record(&mut self, id: ObjectId, size: u64, ts: Time, window: u64) {
            let keep = self.n_irts + 1;
            let e = self
                .objects
                .entry(id)
                .or_insert((size, ts, 0, Vec::new(), window));
            e.2 += 1;
            e.4 = window;
            if e.3.len() >= keep {
                e.3.remove(0);
            }
            e.3.push(ts);
        }
    }

    #[test]
    fn rows_from_logged_gaps_with_or_without_rendering_equal_rows_from_raw_timestamps_bitwise() {
        for n_irts in [1usize, 2, 10, 20, 30] {
            prop_check!(cases: 24, (len in range(1usize..1_500), objects in range(1u64..40), seed in any_u64()) => {
                let mut state = seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut fs = FeatureStore::new(n_irts);
                // A second store that renders a row for a request only when
                // a coin says so: the state it is left in must render the
                // same rows.
                let mut mixed = FeatureStore::new(n_irts);
                let mut mixed_row = vec![0.0f32; fs.n_features()];
                let mut reference = RawTimestampStore { n_irts, objects: FastMap::default() };
                let mut row = vec![0.0f32; fs.n_features()];
                let mut ts = 0u64;
                for i in 0..len {
                    // Zero gaps (bursts), sub-microsecond-floor gaps, long
                    // gaps, and now and then a timestamp that runs backwards.
                    ts = match next() % 8 {
                        0 | 1 => ts,
                        2 => ts + 1,
                        3 => ts.saturating_sub(next() % 5_000),
                        _ => ts + next() % 90_000_000,
                    };
                    let now = Time::from_micros(ts);
                    // A skewed population: some objects outgrow the ring,
                    // some are seen once, some go quiet and get pruned.
                    let id = (next() % objects).min(next() % objects);
                    let size = if id % 7 == 0 { 0 } else { (id + 1) * 1_000 + next() % 3 };
                    let window = i as u64 / 64;
                    let want = reference.row(id, size, now);
                    let first = fs.observe(id, size, now, window, Some(&mut row));
                    let tracked_here = reference.objects.get(&id).is_some_and(|e| e.4 == window);
                    prop_assert_eq!(first, !tracked_here, "request {} object {}", i, id);
                    let out = (next() % 3 == 0).then_some(&mut mixed_row[..]);
                    prop_assert_eq!(mixed.observe(id, size, now, window, out), first);
                    reference.record(id, size, now, window);
                    for (k, (got, want)) in row.iter().zip(&want).enumerate() {
                        prop_assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "request {} object {} column {}: {} vs {}", i, id, k, got, want
                        );
                    }
                    // The row the next request of this object would get.
                    let later = Time::from_micros(ts + next() % 1_000);
                    let bits = |r: Option<Vec<f32>>| {
                        r.map(|r| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    };
                    prop_assert_eq!(
                        bits(mixed.features(id, later)),
                        bits(fs.features(id, later)),
                        "request {} object {}: not rendering left another state", i, id
                    );
                    if i % 64 == 63 {
                        let horizon = window.saturating_sub(1);
                        fs.prune_before(horizon);
                        mixed.prune_before(horizon);
                        prop_assert_eq!(mixed.len(), fs.len());
                        reference.objects.retain(|_, e| e.4 >= horizon);
                        prop_assert_eq!(fs.len(), reference.objects.len());
                    }
                }
            });
        }
    }
}

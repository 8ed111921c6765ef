//! The auto-tuned admission threshold (§4.2, §5.2.3).
//!
//! Per window `k` with threshold `δ_k`, the estimator evaluates the
//! candidate set `Δ_k = {0, 0.5, δ_k − 0.1, δ_k + 0.1}` by *shadow
//! simulation* over (half of) the window's requests, using the learned
//! admission probabilities and LHR's own eviction rule. The best candidate
//! `δ̂` replaces `δ_k` only when its hit probability improves on `h(δ_k)`
//! by more than β (0.2%), which suppresses jitter.
//!
//! A shadow reads what `LhrCache` already holds at the window edge: the
//! window's leading requests, the fresh model's probability for each, and
//! the live [`SampleStore`] of `Scored` slots the cache serves from. Each
//! shadow is a store of the same kind, seeded with copies of the live
//! slots in id order. The order is decided here, in
//! [`ThresholdEstimator::update`]: a slot's position steers the shadow's
//! sampled evictions, and by id it does not depend on the order the live
//! cache's own evictions left its slots in. "LHR's own eviction rule"
//! reads the same `q` off the same slot layout. The two *rules* still
//! differ: the shadow draws 1 + 16 candidates and takes the smallest `q`;
//! the live cache draws `eviction_sample` (64) and prefers candidates with
//! `p < δ`.

use lhr_sim::store::{CacheStore, SampleStore, Slot};
use lhr_trace::{Request, Time};
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};
use lhr_util::sync::{claim_each, resolve_threads, Mutex};

/// Threshold-adoption margin β (paper default 0.2%).
const BETA: f64 = 0.002;
/// Fraction of the window used for estimation (the paper observes half
/// suffices).
const SAMPLE_FRACTION: f64 = 0.5;

/// What LHR's eviction rule scores a cached object by: the policy state of
/// one slot, in the live cache and in the shadow alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scored {
    /// Learned admission probability — the paper's ℒ vector entry.
    pub prob: f64,
    pub last_access: Time,
}

impl Scored {
    /// `q = p / (s · IRT₁)` (§5.2.5) at time `now`, for an object of `size`
    /// bytes.
    #[inline]
    pub fn q(&self, size: u64, now: Time) -> f64 {
        let irt1 = now.saturating_sub(self.last_access).as_secs_f64().max(1e-6);
        self.prob / (size as f64 * irt1)
    }
}

/// The estimator state.
#[derive(Debug, Clone)]
pub struct ThresholdEstimator {
    /// Current threshold δ.
    pub delta: f64,
    /// Threshold updates performed.
    pub updates: u64,
}

impl Default for ThresholdEstimator {
    /// An estimator starting from the paper's `δ₀ = 0.5`.
    fn default() -> Self {
        ThresholdEstimator {
            delta: 0.5,
            updates: 0,
        }
    }
}

impl ThresholdEstimator {
    /// The candidate set `Δ_k` (clamped to [0, 1], deduplicated).
    pub fn candidates(&self) -> Vec<f64> {
        let mut c = vec![
            0.0,
            0.5,
            (self.delta - 0.1).max(0.0),
            (self.delta + 0.1).min(1.0),
        ];
        // total_cmp: delta is data-derived; a NaN reaching this sort must
        // not panic the scoring path. (The max/min clamps scrub NaN from
        // the derived candidates, but the sort stays total regardless.)
        c.sort_unstable_by(|a, b| a.total_cmp(b));
        c.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        c
    }

    /// How many of a window's `requests` the estimator evaluates: the
    /// leading [`SAMPLE_FRACTION`] of them, at least one of a non-empty
    /// window. The caller scores and passes to [`Self::update`] only
    /// those.
    pub fn sample_len(requests: usize) -> usize {
        ((requests as f64 * SAMPLE_FRACTION) as usize)
            .max(1)
            .min(requests)
    }

    /// Evaluates the candidates on `requests` — a window's leading
    /// [`Self::sample_len`] requests, `probs[i]` the learned admission
    /// probability of `requests[i]` — and updates `delta` per the adoption
    /// rule. Each shadow run starts from `live`'s contents, in id order,
    /// so candidate thresholds are judged on the state they would actually
    /// inherit. The shadow runs are independent and run concurrently on up
    /// to `threads` threads (`0` = one per core); the current threshold's
    /// and then each candidate's are read in that order, so the outcome
    /// does not depend on `threads`. Returns the (possibly unchanged)
    /// threshold.
    pub(crate) fn update(
        &mut self,
        requests: &[Request],
        probs: &[f64],
        live: &SampleStore<Scored>,
        threads: usize,
    ) -> f64 {
        debug_assert_eq!(requests.len(), probs.len());
        if requests.is_empty() {
            return self.delta;
        }
        // (threshold, its shadow hit ratio): the current one first, then
        // every candidate that is not it.
        let delta = self.delta;
        let is_current = |cand: f64| (cand - delta).abs() < 1e-12;
        let mut runs: Vec<(f64, f64)> = std::iter::once(delta)
            .chain(self.candidates().into_iter().filter(|&c| !is_current(c)))
            .map(|cand| (cand, 0.0))
            .collect();
        let threads = resolve_threads(threads).min(runs.len());
        let seed = in_id_order(live);
        // One shadow cache per worker, allocated here: a worker thread that
        // allocated its own would keep the memory in its own heap for the
        // rest of the run. A shadow fills the same capacity as the cache
        // it starts from, so it holds about as many objects.
        let caches: Vec<Mutex<SampleStore<Scored>>> = (0..threads)
            .map(|_| Mutex::new(SampleStore::with_room(live.capacity(), seed.len())))
            .collect();
        claim_each(&mut runs, threads, |worker, _, (cand, hit_ratio)| {
            let mut cache = caches[worker].lock();
            *hit_ratio = shadow_in(&mut cache, requests, probs, *cand, &seed);
        });
        let current = runs[0].1;
        let mut best = (current, delta);
        for &(cand, h) in &runs[1..] {
            if h > best.0 {
                best = (h, cand);
            }
        }
        if best.0 > current + BETA {
            self.delta = best.1;
            self.updates += 1;
        }
        self.delta
    }
}

/// `live`'s slots by ascending id: the order a shadow is seeded in.
fn in_id_order(live: &SampleStore<Scored>) -> Vec<&Slot<Scored>> {
    let mut slots: Vec<&Slot<Scored>> = (0..live.len()).map(|pos| live.slot(pos)).collect();
    slots.sort_unstable_by_key(|slot| slot.id);
    slots
}

/// Shadow-simulates LHR's admission (p ≥ δ) and eviction
/// (min `q = p / (s · IRT₁)`, sampled) over the non-empty `requests`, each
/// beside its probability in `probs`, on `cache` (emptied first, reusing
/// its allocations) seeded with copies of the `seed` slots — a live
/// store's, which fit its capacity and hold each id once. Returns the
/// object hit ratio. Deterministic: the eviction sampler is re-seeded per
/// call.
fn shadow_in(
    cache: &mut SampleStore<Scored>,
    requests: &[Request],
    probs: &[f64],
    delta: f64,
    seed: &[&Slot<Scored>],
) -> f64 {
    cache.clear();
    let capacity = cache.capacity();
    let mut hits = 0usize;
    let mut rng = SmallRng::seed_from_u64(0x5AD0);
    for slot in seed {
        cache.push(slot.id, slot.size, slot.entry.last_access, slot.entry);
    }

    for (req, &prob) in requests.iter().zip(probs) {
        let scored = Scored {
            prob,
            last_access: req.ts,
        };
        if let Some(entry) = cache.get_mut(req.id) {
            hits += 1;
            *entry = scored;
            continue;
        }
        if prob < delta || req.size > capacity {
            continue;
        }
        while !cache.fits(req.size) {
            // Sampled min-q eviction: one draw for the default victim,
            // then the smallest q of 16 more (fewer in a cache of fewer).
            let n = cache.len();
            let mut victim = rng.gen_range(0..n);
            let mut victim_q = f64::INFINITY;
            for _ in 0..16.min(n) {
                let pos = rng.gen_range(0..n);
                let slot = cache.slot(pos);
                let q = slot.entry.q(slot.size, req.ts);
                if q < victim_q {
                    victim_q = q;
                    victim = pos;
                }
            }
            cache.evict_at(victim);
        }
        cache.push(req.id, req.size, req.ts, scored);
    }
    hits as f64 / requests.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::ObjectId;

    /// `(ts secs, id, size, prob)` specs as requests and their
    /// probabilities.
    fn reqs(specs: &[(u64, u64, u64, f64)]) -> (Vec<Request>, Vec<f64>) {
        specs
            .iter()
            .map(|&(t, id, size, prob)| (Request::new(Time::from_secs(t), id, size), prob))
            .unzip()
    }

    /// One shadow run from `live`, as [`ThresholdEstimator::update`] runs
    /// each candidate's.
    fn shadow(requests: &[Request], probs: &[f64], live: &SampleStore<Scored>, delta: f64) -> f64 {
        let mut cache = SampleStore::new(live.capacity());
        shadow_in(&mut cache, requests, probs, delta, &in_id_order(live))
    }

    #[test]
    fn candidates_match_paper_set() {
        let at = |delta| ThresholdEstimator { delta, updates: 0 };
        assert_eq!(at(0.5).candidates(), vec![0.0, 0.4, 0.5, 0.6]);
        assert_eq!(at(0.0).candidates(), vec![0.0, 0.1, 0.5]);
        assert_eq!(at(1.0).candidates(), vec![0.0, 0.5, 0.9, 1.0]);
    }

    #[test]
    fn nan_delta_survives_candidates_and_update() {
        // A NaN δ (e.g. from a degenerate shadow ratio upstream) must not
        // panic the candidate sort — pre-fix, partial_cmp().unwrap() did.
        let mut e = ThresholdEstimator {
            delta: f64::NAN,
            updates: 0,
        };
        let c = e.candidates();
        assert!(c.iter().all(|v| v.is_finite()), "clamps scrub NaN: {c:?}");
        assert!(c.contains(&0.0) && c.contains(&0.5));
        assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted: {c:?}");
        // The full update path also carries the NaN through comparisons.
        let (r, p) = reqs(&[(0, 1, 10, 1.0), (1, 1, 10, 1.0)]);
        let out = e.update(&r, &p, &SampleStore::new(100), 2);
        assert!(out.is_nan() || (0.0..=1.0).contains(&out));
    }

    #[test]
    fn shadow_counts_hits() {
        // Two objects alternating, everything admitted, plenty of room.
        let (r, p) = reqs(&[
            (0, 1, 10, 1.0),
            (1, 2, 10, 1.0),
            (2, 1, 10, 1.0),
            (3, 2, 10, 1.0),
        ]);
        assert!((shadow(&r, &p, &SampleStore::new(100), 0.5) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn high_threshold_blocks_admission() {
        let (r, p) = reqs(&[(0, 1, 10, 0.3), (1, 1, 10, 0.3), (2, 1, 10, 0.3)]);
        let empty = SampleStore::new(100);
        assert_eq!(shadow(&r, &p, &empty, 0.5), 0.0);
        assert!((shadow(&r, &p, &empty, 0.0) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn estimator_lowers_threshold_when_admit_all_wins() {
        // All objects have low learned probabilities but re-request heavily:
        // the admit-all candidate (δ = 0) is clearly better, and the
        // estimator must adopt it (§4.2's motivation).
        let mut specs = Vec::new();
        for round in 0..50u64 {
            for id in 0..5u64 {
                specs.push((round * 5 + id, id, 10, 0.2));
            }
        }
        let (r, p) = reqs(&specs);
        let mut e = ThresholdEstimator::default();
        let new_delta = e.update(&r, &p, &SampleStore::new(1_000), 2);
        assert!(new_delta < 0.2, "threshold stayed at {new_delta}");
        assert_eq!(e.updates, 1);
    }

    #[test]
    fn estimator_keeps_threshold_on_marginal_difference() {
        // All probabilities 0.9: every candidate ≤ 0.9 behaves identically,
        // so no candidate beats the current δ by more than β.
        let mut specs = Vec::new();
        for round in 0..20u64 {
            for id in 0..3u64 {
                specs.push((round * 3 + id, id, 10, 0.9));
            }
        }
        let (r, p) = reqs(&specs);
        let mut e = ThresholdEstimator::default();
        e.update(&r, &p, &SampleStore::new(1_000), 2);
        assert_eq!(e.delta, 0.5);
        assert_eq!(e.updates, 0);
    }

    #[test]
    fn shadow_respects_capacity() {
        // 10 objects of 60 bytes in a 100-byte cache: at most one cached at
        // a time (the second would need eviction) — never more than
        // capacity.
        let mut specs = Vec::new();
        for i in 0..30u64 {
            specs.push((i, i % 10, 60, 1.0));
        }
        let (r, p) = reqs(&specs);
        // Just ensure it terminates and produces a sane ratio.
        let h = shadow(&r, &p, &SampleStore::new(100), 0.0);
        assert!((0.0..=1.0).contains(&h));
    }

    /// The seed a shadow started from while it took a snapshot of the live
    /// cache: `(id, prob, size, last access)` per slot, sorted by id.
    fn snapshot(live: &SampleStore<Scored>) -> Vec<(ObjectId, f64, u64, Time)> {
        let mut snapshot: Vec<_> = (0..live.len())
            .map(|pos| {
                let slot = live.slot(pos);
                (slot.id, slot.entry.prob, slot.size, slot.entry.last_access)
            })
            .collect();
        snapshot.sort_unstable_by_key(|&(id, ..)| id);
        snapshot
    }

    /// The shadow as it stood before it moved onto [`SampleStore`]: a map
    /// of entries, a dense id array to sample from and a position map,
    /// fixed up by hand, seeded from a [`snapshot`].
    fn three_structure_reference(
        requests: &[Request],
        probs: &[f64],
        capacity: u64,
        delta: f64,
        initial_cache: &[(ObjectId, f64, u64, Time)],
    ) -> f64 {
        use std::collections::HashMap;
        if requests.is_empty() {
            return 0.0;
        }
        let mut cached: HashMap<ObjectId, (f64, u64, Time)> = HashMap::new();
        let mut dense: Vec<ObjectId> = Vec::new();
        let mut positions: HashMap<ObjectId, usize> = HashMap::new();
        let mut used = 0u64;
        let mut hits = 0usize;
        let mut rng = SmallRng::seed_from_u64(0x5AD0);
        for &(id, prob, size, last) in initial_cache {
            if used + size > capacity || cached.contains_key(&id) {
                continue;
            }
            cached.insert(id, (prob, size, last));
            positions.insert(id, dense.len());
            dense.push(id);
            used += size;
        }
        for (req, &prob) in requests.iter().zip(probs) {
            if let Some(entry) = cached.get_mut(&req.id) {
                hits += 1;
                entry.0 = prob;
                entry.2 = req.ts;
                continue;
            }
            if prob < delta || req.size > capacity {
                continue;
            }
            while used + req.size > capacity {
                let k = 16.min(dense.len());
                let mut victim = dense[rng.gen_range(0..dense.len())];
                let mut victim_q = f64::INFINITY;
                for _ in 0..k {
                    let id = dense[rng.gen_range(0..dense.len())];
                    let (p, s, last) = cached[&id];
                    let irt1 = req.ts.saturating_sub(last).as_secs_f64().max(1e-6);
                    let q = p / (s as f64 * irt1);
                    if q < victim_q {
                        victim_q = q;
                        victim = id;
                    }
                }
                let (_, vsize, _) = cached.remove(&victim).expect("sampled from cache");
                used -= vsize;
                let pos = positions.remove(&victim).expect("indexed");
                dense.swap_remove(pos);
                if pos < dense.len() {
                    positions.insert(dense[pos], pos);
                }
            }
            cached.insert(req.id, (prob, req.size, req.ts));
            positions.insert(req.id, dense.len());
            dense.push(req.id);
            used += req.size;
        }
        hits as f64 / requests.len() as f64
    }

    /// Same draws, same push / `swap_remove` order, same `q`: the shadow
    /// seeded from a live store repeats the hand-kept one seeded from the
    /// store's id-sorted snapshot, to the bit — over caches that evict on
    /// most admissions, live stores filled in random id order, objects
    /// larger than the cache, equal timestamps (the 1 µs IRT floor) and a
    /// one-byte cache.
    #[test]
    fn shadow_on_the_store_matches_the_three_structure_shadow_bit_for_bit() {
        use lhr_util::prop::{any_u64, range};
        use lhr_util::{prop_assert, prop_assert_eq, prop_check};
        let evicting = std::cell::Cell::new(0usize);
        prop_check!(cases: 256, (len in range(1usize..400), seed in any_u64(), objects in range(1u64..60), capacity in range(1u64..400)) => {
            let (requests, probs, live) = random_stream(len, seed, objects, capacity);
            let capacity = live.capacity();
            for delta in [0.0, 0.3, 0.5, 0.9, 1.0] {
                for live in [&live, &SampleStore::new(capacity)] {
                    let new = shadow(&requests, &probs, live, delta);
                    let old = three_structure_reference(&requests, &probs, capacity, delta, &snapshot(live));
                    prop_assert_eq!(new.to_bits(), old.to_bits(), "δ = {}", delta);
                    prop_assert!((0.0..=1.0).contains(&new));
                }
            }
            let bytes: u64 = requests.iter().map(|r| r.size).filter(|&s| s <= capacity).sum();
            evicting.set(evicting.get() + (bytes > 2 * capacity) as usize);
        });
        let evicting = evicting.get();
        assert!(
            evicting >= 100,
            "{evicting} of 256 streams overflow their cache"
        );
    }

    /// A random shadow input: `len` requests over `objects` ids, their
    /// probabilities, and a live store of `capacity` bytes — a one-byte
    /// store for a third of the seeds — filled as a live cache would be:
    /// random ids pushed in random order where they fit and are not held
    /// yet. A size is a function of the id; one id in seven never fits.
    fn random_stream(
        len: usize,
        seed: u64,
        objects: u64,
        capacity: u64,
    ) -> (Vec<Request>, Vec<f64>, SampleStore<Scored>) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let capacity = if seed % 3 == 0 { 1 } else { capacity };
        let size_of = |id: u64| match (id + seed % 7) % 7 {
            0 => capacity + 1 + id,
            _ => 1 + (id * 37 + seed % 11) % capacity.min(90),
        };
        let mut ts = 0u64;
        let (requests, probs) = (0..len)
            .map(|_| {
                let id = next() % objects;
                ts += next() % 3;
                let prob = (next() % 101) as f64 / 100.0;
                (Request::new(Time(ts * 500_000), id, size_of(id)), prob)
            })
            .unzip();
        let mut live = SampleStore::new(capacity);
        for _ in 0..next() % 40 {
            let id = next() % (objects + 5);
            let prob = (next() % 101) as f64 / 100.0;
            let last_access = Time(next() % 1_000);
            if live.fits(size_of(id)) && !live.contains(id) {
                live.push(id, size_of(id), last_access, Scored { prob, last_access });
            }
        }
        (requests, probs, live)
    }

    /// `update` as it ran before its shadows ran concurrently: the current
    /// threshold's shadow, then each other candidate's, one at a time.
    fn sequential_update(
        e: &mut ThresholdEstimator,
        requests: &[Request],
        probs: &[f64],
        live: &SampleStore<Scored>,
    ) -> f64 {
        if requests.is_empty() {
            return e.delta;
        }
        let current = shadow(requests, probs, live, e.delta);
        let mut best = (current, e.delta);
        for cand in e.candidates() {
            if (cand - e.delta).abs() < 1e-12 {
                continue;
            }
            let h = shadow(requests, probs, live, cand);
            if h > best.0 {
                best = (h, cand);
            }
        }
        if best.0 > current + BETA {
            e.delta = best.1;
            e.updates += 1;
        }
        e.delta
    }

    /// The concurrent shadows pick what the sequential ones picked, at any
    /// thread count — over random streams, live stores and thresholds
    /// (NaN and the clamped ends among them).
    #[test]
    fn update_matches_the_sequential_update_at_every_thread_count() {
        use lhr_util::prop::{any_u64, range};
        use lhr_util::{prop_assert_eq, prop_check};
        let moved = std::cell::Cell::new(0usize);
        prop_check!(cases: 96, (len in range(1usize..300), seed in any_u64(), objects in range(1u64..40), capacity in range(1u64..300)) => {
            let (requests, probs, live) = random_stream(len, seed, objects, capacity);
            for delta in [0.0, 0.05, 0.3, 0.5, 0.62, 0.95, 1.0, f64::NAN] {
                for live in [&live, &SampleStore::new(live.capacity())] {
                    let mut reference = ThresholdEstimator { delta, updates: 3 };
                    let expect = sequential_update(&mut reference, &requests, &probs, live);
                    moved.set(moved.get() + (reference.updates > 3) as usize);
                    for threads in [1, 2, 4] {
                        let mut e = ThresholdEstimator { delta, updates: 3 };
                        let got = e.update(&requests, &probs, live, threads);
                        prop_assert_eq!(got.to_bits(), expect.to_bits(), "δ = {}, threads = {}", delta, threads);
                        prop_assert_eq!(e.delta.to_bits(), reference.delta.to_bits(), "δ = {}", delta);
                        prop_assert_eq!(e.updates, reference.updates, "δ = {}, threads = {}", delta, threads);
                    }
                }
            }
        });
        let moved = moved.get();
        assert!(
            moved >= 50,
            "only {moved} evaluations adopted a new threshold"
        );
    }

    #[test]
    fn the_sample_is_the_leading_half_and_never_empty_for_a_window() {
        let len = ThresholdEstimator::sample_len;
        assert_eq!([len(0), len(1), len(2), len(3)], [0, 1, 1, 1]);
        assert_eq!([len(95_247), len(73_939)], [47_623, 36_969]);
    }

    #[test]
    fn empty_window_is_noop() {
        let mut e = ThresholdEstimator::default();
        assert_eq!(e.update(&[], &[], &SampleStore::new(100), 2), 0.5);
    }
}

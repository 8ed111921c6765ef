//! Property-based tests (via `lhr_util::prop_check!`) on the workspace's
//! core invariants: random traces through every policy, bound dominance,
//! data-structure laws, and serialization roundtrips.
//!
//! Each property binds *scalar* inputs (lengths, seeds, factors) so the
//! shrinker works on them directly; composite inputs (traces, datasets) are
//! expanded deterministically from those scalars inside the property body.

use lhr_repro::bounds::{Belady, InfiniteCap, PfooUpper};
use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::core::detect::estimate_zipf_alpha;
use lhr_repro::policies::util::{BloomFilter, CountMinSketch, LruList};
use lhr_repro::policies::{Arc, Fifo, Gdsf, LfuDa, Lru, LruK, TinyLfu, WTinyLfu};
use lhr_repro::sim::{CachePolicy, CacheStore, OfflineBound, SimConfig, Simulator};
use lhr_repro::trace::{io, ObjectId, Request, Time, Trace};
use lhr_util::prop::{any_u64, range, vec};
use lhr_util::{prop_assert, prop_assert_eq, prop_check};

/// A small random trace with monotone timestamps, bounded object
/// population, and per-object-stable sizes, expanded deterministically from
/// `(len, seed)`.
fn build_trace(len: usize, seed: u64) -> Trace {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut trace = Trace::new("prop");
    let mut ts = 0u64;
    for _ in 0..len {
        ts += next() % 1_000 + 1;
        let id = next() % 50;
        let size = (id + 1) * 10 + 5; // deterministic per id
        trace.push(Request::new(Time::from_micros(ts), id, size));
    }
    trace
}

fn policies_for(capacity: u64) -> Vec<Box<dyn CachePolicy>> {
    vec![
        Box::new(Lru::new(capacity)),
        Box::new(Fifo::new(capacity)),
        Box::new(LruK::new(capacity, 2)),
        Box::new(LfuDa::new(capacity)),
        Box::new(Gdsf::new(capacity)),
        Box::new(Arc::new(capacity)),
        Box::new(TinyLfu::new(capacity, 1 << 10)),
        Box::new(WTinyLfu::new(capacity, 1 << 10)),
    ]
}

#[test]
fn policies_never_overflow_and_account_correctly() {
    prop_check!(cases: 64, (len in range(1usize..400), seed in any_u64(), cap_factor in range(1u64..20)) => {
        let trace = build_trace(len, seed);
        let capacity = cap_factor * 50;
        for mut policy in policies_for(capacity) {
            let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
            prop_assert!(policy.used_bytes() <= capacity, "{} overflow", result.policy);
            prop_assert_eq!(
                result.metrics.hits + result.metrics.misses(),
                result.metrics.requests
            );
            prop_assert!(result.metrics.bytes_hit <= result.metrics.bytes_requested);
        }
    });
}

#[test]
fn contains_agrees_with_hits() {
    prop_check!(cases: 64, (len in range(1usize..300), seed in any_u64()) => {
        // Replaying the same request immediately must hit iff contains().
        let trace = build_trace(len, seed);
        let capacity = 600u64;
        for mut policy in policies_for(capacity) {
            for req in trace.iter() {
                policy.handle(req);
                let cached = policy.contains(req.id);
                let outcome = policy.handle(req);
                prop_assert_eq!(
                    outcome.is_hit(),
                    cached,
                    "{}: contains() and handle() disagree",
                    policy.name()
                );
            }
        }
    });
}

#[test]
fn infinite_cap_dominates_all() {
    prop_check!(cases: 64, (len in range(1usize..300), seed in any_u64(), cap_factor in range(1u64..10)) => {
        let trace = build_trace(len, seed);
        let capacity = cap_factor * 80;
        let ceiling = InfiniteCap.evaluate(&trace, capacity).hits;
        prop_assert!(Belady.evaluate(&trace, capacity).hits <= ceiling);
        prop_assert!(PfooUpper.evaluate(&trace, capacity).hits <= ceiling);
        for mut policy in policies_for(capacity) {
            let hits = Simulator::new(SimConfig::default())
                .run(&mut policy, &trace)
                .metrics
                .hits;
            prop_assert!(hits <= ceiling);
        }
    });
}

/// `ExactOpt` is the offline optimum in the policies' own model (a hit iff
/// cached on arrival, admission only on a miss, bypass and eviction free),
/// so no roster policy — online, learned or not — hits more than it, and
/// the PFOO upper bound hits no less. Tiny traces (≤ 25 requests over ≤ 64
/// objects, the oracle's limits), with equal and with per-object sizes.
#[test]
fn every_roster_policy_is_dominated_by_exact_opt_and_it_by_pfoo_upper() {
    use lhr_repro::bounds::ExactOpt;
    use lhr_repro::proto::presets::{self, PolicyParams};
    prop_check!(cases: 64, (ids in vec(range(0u64..64), 1..26), units in range(1u64..12), seed in any_u64()) => {
        for variable in [false, true] {
            let requests = ids.iter().enumerate().map(|(i, &id)| {
                let size = if variable { (id % 5 + 1) * 1_000 } else { 1_000 };
                Request::new(Time::from_secs(i as u64), id, size)
            });
            let trace = Trace::from_requests("tiny", requests.collect());
            let capacity = units * 1_000;
            let optimum = ExactOpt::default().evaluate(&trace, capacity).hits;
            let upper = PfooUpper.evaluate(&trace, capacity).hits;
            prop_assert!(optimum <= upper, "ExactOpt {} > PFOO-U {} (variable {})", optimum, upper, variable);
            let params = PolicyParams::for_trace(capacity, seed, &trace);
            for &(name, build) in presets::POLICIES {
                let mut policy = build(&params);
                let hits = Simulator::new(SimConfig::default()).run(&mut policy, &trace).metrics.hits;
                prop_assert!(
                    hits <= optimum,
                    "{} hits {} > ExactOpt {} (variable {})", name, hits, optimum, variable
                );
            }
        }
    });
}

#[test]
fn belady_dominates_lru_on_equal_sizes() {
    prop_check!(cases: 64, (ids in vec(range(0u64..30), 1..300), capacity in range(1u64..20)) => {
        let trace = Trace::from_requests(
            "equal",
            ids.iter()
                .enumerate()
                .map(|(i, &id)| Request::new(Time::from_secs(i as u64), id, 1))
                .collect(),
        );
        let optimum = Belady.evaluate(&trace, capacity).hits;
        let mut lru = Lru::new(capacity);
        let hits = Simulator::new(SimConfig::default()).run(&mut lru, &trace).metrics.hits;
        prop_assert!(optimum >= hits, "Belady {} < LRU {}", optimum, hits);
    });
}

#[test]
fn lru_matches_reference_model() {
    prop_check!(cases: 64, (ids in vec(range(0u64..20), 1..200), slots in range(1usize..10)) => {
        // Reference: Vec-based LRU over unit-size objects.
        let capacity = slots as u64;
        let mut reference: Vec<u64> = Vec::new();
        let mut lru = Lru::new(capacity);
        for (i, &id) in ids.iter().enumerate() {
            let req = Request::new(Time::from_secs(i as u64), id, 1);
            let expected_hit = reference.contains(&id);
            if let Some(pos) = reference.iter().position(|&x| x == id) {
                reference.remove(pos);
            } else if reference.len() == slots {
                reference.remove(0);
            }
            reference.push(id);
            prop_assert_eq!(lru.handle(&req).is_hit(), expected_hit, "diverged at {}", i);
        }
    });
}

/// Hands out 1–7 bytes per `read`, so that every line and record the
/// readers see straddles the edge of what one call delivered.
struct Dribble<'a> {
    data: &'a [u8],
    step: usize,
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.step = self.step % 7 + 1;
        let n = self.step.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

#[test]
fn csv_roundtrip() {
    prop_check!(cases: 64, (len in range(1usize..200), seed in any_u64()) => {
        let trace = build_trace(len, seed);
        let mut buf = Vec::new();
        io::write_csv(&trace, &mut buf).expect("write");
        let back = io::read_csv(&buf[..], "prop").expect("read");
        prop_assert_eq!(back.requests, trace.requests);
        let dribbled = io::read_csv(Dribble { data: &buf, step: len }, "prop").expect("read");
        prop_assert_eq!(dribbled.requests, trace.requests);
    });
}

#[test]
fn binary_roundtrip() {
    prop_check!(cases: 64, (len in range(1usize..200), seed in any_u64()) => {
        let trace = build_trace(len, seed);
        let mut buf = Vec::new();
        io::write_binary(&trace, &mut buf).expect("write");
        let back = io::read_binary(&buf[..], "prop").expect("read");
        prop_assert_eq!(back.requests, trace.requests);
        let dribbled = io::read_binary(Dribble { data: &buf, step: len }, "prop").expect("read");
        prop_assert_eq!(dribbled.requests, trace.requests);
    });
}

#[test]
fn truncated_binary_always_errors_never_panics() {
    prop_check!(cases: 64, (len in range(1usize..100), seed in any_u64(), cut in range(1usize..64)) => {
        let trace = build_trace(len, seed);
        let mut buf = Vec::new();
        io::write_binary(&trace, &mut buf).expect("write");
        // Cut anywhere strictly inside the stream: header, mid-record, or
        // record boundary. The reader must return an error, not panic,
        // because the header's count no longer matches the payload.
        let cut = cut.min(buf.len() - 1);
        buf.truncate(buf.len() - cut);
        prop_assert!(io::read_binary(&buf[..], "trunc").is_err());
    });
}

#[test]
fn garbage_bytes_never_panic_either_reader() {
    prop_check!(cases: 64, (bytes in vec(range(0u64..256), 0..200)) => {
        let raw: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        // Any byte soup: both readers must return Ok or Err, never panic,
        // and the lossy reader must account for every non-blank line.
        let _ = io::read_binary(&raw[..], "garbage");
        let _ = io::read_csv(&raw[..], "garbage");
        // The same soup as the payload behind a valid magic and a record
        // count that is absurd, random (the soup's own first bytes), or
        // just off: the reader may neither panic nor hand the allocator
        // more than the payload backs, and only a count the payload
        // matches to the byte is a trace.
        let first_word = raw.first_chunk::<8>().map_or(0, |w| u64::from_le_bytes(*w));
        let records = raw.len() as u64 / 24;
        for count in [first_word, 0, records, records + 1, 1 << 44, (1 << 60) - 1, u64::MAX] {
            let mut framed = b"LHRTRC01".to_vec();
            framed.extend_from_slice(&count.to_le_bytes());
            framed.extend_from_slice(&raw);
            let exact = count.checked_mul(24) == Some(raw.len() as u64);
            prop_assert_eq!(io::read_binary(&framed[..], "garbage").is_ok(), exact, "count {}", count);
        }
        if let Ok((trace, skipped)) = io::read_csv_lossy(&raw[..], "garbage") {
            let lines = raw
                .split(|&b| b == b'\n')
                .filter(|l| {
                    let t = String::from_utf8_lossy(l);
                    let t = t.trim();
                    !t.is_empty() && !t.starts_with('#')
                })
                .count();
            prop_assert!(trace.len() + skipped <= lines);
        }
    });
}

#[test]
fn lossy_read_recovers_clean_lines_around_corruption() {
    prop_check!(cases: 64, (len in range(2usize..100), seed in any_u64(), corrupt in range(0usize..100)) => {
        let trace = build_trace(len, seed);
        let mut buf = Vec::new();
        io::write_csv(&trace, &mut buf).expect("write");
        // Corrupt one data line into garbage (the first two lines are
        // comments written by write_csv).
        let text = String::from_utf8(buf).expect("utf8");
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let victim = 2 + corrupt % len;
        lines[victim] = "x,y,z".into();
        let corrupted = lines.join("\n");
        // Strict reading fails pointing at the corrupted line...
        let err = io::read_csv(corrupted.as_bytes(), "prop").expect_err("must fail");
        prop_assert!(matches!(
            err,
            io::ParseError::Malformed { location, .. } if location == victim + 1
        ));
        // ...lossy reading skips exactly that line and keeps the rest.
        let (back, skipped) = io::read_csv_lossy(corrupted.as_bytes(), "prop").expect("lossy");
        prop_assert_eq!(skipped, 1);
        prop_assert_eq!(back.len(), trace.len() - 1);
    });
}

#[test]
fn bloom_filter_has_no_false_negatives() {
    prop_check!(cases: 64, (keys in vec(any_u64(), 1..500)) => {
        let mut filter = BloomFilter::new(10_000);
        for &k in &keys {
            filter.insert(k);
        }
        for &k in &keys {
            prop_assert!(filter.contains(k), "lost key {}", k);
        }
    });
}

#[test]
fn count_min_never_underestimates_below_saturation() {
    prop_check!(cases: 64, (keys in vec(range(0u64..100), 1..400)) => {
        let mut sketch = CountMinSketch::new(1 << 14);
        let mut true_counts = std::collections::HashMap::new();
        for &k in &keys {
            sketch.increment(k);
            *true_counts.entry(k).or_insert(0u64) += 1;
        }
        for (&k, &c) in &true_counts {
            let est = sketch.estimate(k);
            prop_assert!(est >= c.min(15), "key {}: est {} < true {}", k, est, c);
        }
    });
}

#[test]
fn lru_list_is_a_correct_deque() {
    prop_check!(cases: 64, (ops in vec(range(0u8..3), 1..200)) => {
        let mut list = LruList::new();
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut handles = std::collections::HashMap::new();
        let mut counter = 0u32;
        for op in ops {
            match op {
                0 => {
                    let h = list.push_front(counter);
                    handles.insert(counter, h);
                    model.push_front(counter);
                    counter += 1;
                }
                1 => {
                    let got = list.pop_back();
                    let expected = model.pop_back();
                    if let Some(v) = expected {
                        handles.remove(&v);
                    }
                    prop_assert_eq!(got, expected);
                }
                _ => {
                    if let Some(&v) = model.back() {
                        list.move_to_front(handles[&v]);
                        model.pop_back();
                        model.push_front(v);
                    }
                }
            }
            prop_assert_eq!(list.len(), model.len());
        }
    });
}

#[test]
fn zipf_estimator_recovers_alpha() {
    prop_check!(cases: 64, (alpha in range(0.3f64..1.5)) => {
        use lhr_repro::trace::synth::zipf::zipf_pmf;
        let mut counts: Vec<u32> = zipf_pmf(400, alpha)
            .iter()
            .map(|p| (p * 5e6).round().max(1.0) as u32)
            .collect();
        let (est, _) = estimate_zipf_alpha(&mut counts);
        prop_assert!((est - alpha).abs() < 0.1, "alpha {} est {}", alpha, est);
    });
}

#[test]
fn lhr_is_deterministic() {
    prop_check!(cases: 64, (len in range(1usize..300), trace_seed in any_u64(), seed in any_u64()) => {
        let trace = build_trace(len, trace_seed);
        let capacity = 500u64;
        let run = || {
            let mut cache = LhrCache::new(
                capacity,
                LhrConfig { seed, min_window_requests: 32, ..LhrConfig::default() },
            );
            Simulator::new(SimConfig::default()).run(&mut cache, &trace).metrics.hits
        };
        prop_assert_eq!(run(), run());
    });
}

#[test]
fn obs_windows_partition_the_measured_request_stream() {
    use lhr_repro::obs::{Obs, ObsConfig, ObsWindow};
    prop_check!(cases: 64, (len in range(1usize..400), seed in any_u64(), win in range(1u64..60), cap_factor in range(1u64..20)) => {
        let trace = build_trace(len, seed);
        let obs = Obs::new(ObsConfig {
            window: ObsWindow::Requests(win),
            deterministic: true,
            ..ObsConfig::default()
        });
        let mut policy = Lru::new(cap_factor * 50);
        let result = Simulator::new(SimConfig::default())
            .with_obs(obs.clone())
            .run(&mut policy, &trace);
        let windows = obs.windows();

        // The windows partition the measured stream exactly: nothing lost,
        // nothing double-counted.
        prop_assert_eq!(windows.iter().map(|w| w.requests).sum::<u64>(), result.metrics.requests);
        prop_assert_eq!(windows.iter().map(|w| w.hits).sum::<u64>(), result.metrics.hits);
        prop_assert_eq!(
            windows.iter().map(|w| w.bytes_requested).sum::<u128>(),
            result.metrics.bytes_requested
        );
        prop_assert_eq!(
            windows.iter().map(|w| w.bytes_hit).sum::<u128>(),
            result.metrics.bytes_hit
        );
        prop_assert_eq!(windows.iter().map(|w| w.evictions).sum::<u64>(), result.evictions);

        // Half-open request windows: every window before the final flush
        // holds exactly `win` requests at its `k·win` offset; the final
        // partial window is flushed, never dropped.
        for (k, w) in windows.iter().enumerate() {
            prop_assert_eq!(w.index, k as u64);
            prop_assert_eq!(w.start_requests, k as u64 * win);
            if k + 1 < windows.len() {
                prop_assert_eq!(w.requests, win);
            } else {
                prop_assert!(w.requests >= 1 && w.requests <= win);
            }
        }
        if len > 0 {
            prop_assert!(!windows.is_empty(), "measured requests must produce windows");
        }
    });
}

/// [`SampleStore`] agrees with a model `HashMap` under arbitrary
/// interleavings of `push` / `get_mut` / `restamp` / `evict_at` over a
/// small key universe: the evicted slot is the one the model holds, bytes
/// are conserved, and after every `swap_remove` fix-up each position's id
/// still indexes back to that position's entry and its freshness stamp.
#[test]
fn sample_store_matches_model_hashmap() {
    use lhr_repro::sim::store::SampleStore;
    use std::collections::HashMap;
    prop_check!(cases: 64, (ops in range(1usize..2_000), seed in any_u64(), key_space in range(1u64..96)) => {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let capacity = 40 * key_space;
        let mut store: SampleStore<u64> = SampleStore::new(capacity);
        // id → (size, entry, freshness stamp).
        let mut model: HashMap<u64, (u64, u64, Time)> = HashMap::new();
        let mut evicted = 0u64;
        for step in 0..ops {
            let id = next() % key_space;
            match next() % 10 {
                // Push-heavy mix keeps the store near its byte budget.
                0..=4 => {
                    let size = next() % 100 + 1;
                    prop_assert_eq!(store.contains(id), model.contains_key(&id));
                    let used: u64 = model.values().map(|&(size, ..)| size).sum();
                    prop_assert_eq!(store.fits(size), used + size <= capacity);
                    if !store.contains(id) && store.fits(size) {
                        store.push(id, size, Time(step as u64), step as u64);
                        model.insert(id, (size, step as u64, Time(step as u64)));
                    }
                }
                5..=6 => {
                    if !store.is_empty() {
                        let slot = store.evict_at(next() as usize % store.len());
                        let (size, entry, _) = model.remove(&slot.id).expect("the model holds it");
                        prop_assert_eq!((slot.size, slot.entry), (size, entry));
                        evicted += 1;
                    }
                }
                7 => {
                    // Present or absent: an absent id is not admitted.
                    store.restamp(id, Time(step as u64));
                    if let Some((.., stamp)) = model.get_mut(&id) {
                        *stamp = Time(step as u64);
                    }
                }
                _ => {
                    if let Some(entry) = store.get_mut(id) {
                        *entry += 1;
                    }
                    if let Some((_, entry, _)) = model.get_mut(&id) {
                        *entry += 1;
                    }
                    prop_assert_eq!(store.get_mut(id).copied(), model.get(&id).map(|&(_, e, _)| e));
                }
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.used(), model.values().map(|&(size, ..)| size).sum::<u64>());
            prop_assert_eq!(store.evictions(), evicted);
            prop_assert_eq!(store.admitted_at(id), model.get(&id).map(|&(.., stamp)| stamp));
        }
        for pos in 0..store.len() {
            let (id, size, entry) = {
                let slot = store.slot(pos);
                (slot.id, slot.size, slot.entry)
            };
            prop_assert_eq!(model.get(&id), Some(&(size, entry, store.admitted_at(id).expect("held"))));
            // The index sends the id back to this very position.
            *store.get_mut(id).expect("indexed") += 1;
            prop_assert_eq!(store.slot(pos).entry, entry + 1);
        }
    });
}

/// A one-segment [`SegmentedStore`] — the LRU store — agrees with a
/// `Vec`-ordered reference (front = LRU end) over mixed-size objects under
/// `touch` / `admit` / `pop_lru`: same hits, same eviction order, same
/// bytes, same eviction count.
#[test]
fn lru_store_matches_reference_model() {
    use lhr_repro::policies::util::SegmentedStore;
    prop_check!(cases: 64, (ops in range(1usize..600), seed in any_u64(), capacity in range(1u64..400)) => {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut store = SegmentedStore::new(capacity, 1);
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut evicted = 0u64;
        for _ in 0..ops {
            let id = next() % 24;
            if next() % 8 == 0 {
                let expected = (!reference.is_empty()).then(|| reference.remove(0));
                evicted += expected.is_some() as u64;
                prop_assert_eq!(store.pop_lru(0).map(|(id, size, _)| (id, size)), expected);
            } else if let Some(pos) = reference.iter().position(|&(x, _)| x == id) {
                let entry = reference.remove(pos);
                reference.push(entry);
                prop_assert_eq!(store.touch(id), Some(0));
            } else {
                prop_assert_eq!(store.touch(id), None);
                let size = (id * 7 + 3) % 60 + 1; // deterministic per id
                if size <= capacity {
                    let mut used: u64 = reference.iter().map(|&(_, s)| s).sum();
                    while used + size > capacity {
                        used -= reference.remove(0).1;
                        evicted += 1;
                    }
                    reference.push((id, size));
                    store.admit(id, size, Time::ZERO, 0);
                }
            }
            prop_assert_eq!(store.iter_lru_first(0).copied().collect::<Vec<_>>(), reference.clone());
            prop_assert_eq!(store.used(), reference.iter().map(|&(_, s)| s).sum::<u64>());
            prop_assert_eq!(store.len(), reference.len());
            prop_assert_eq!(store.evictions(), evicted);
            prop_assert!(store.used() <= capacity);
        }
    });
}

/// Forces the default `contains → handle` path by hiding a policy's
/// `hit_check` override; everything else forwards.
struct DefaultHitCheck<P: CachePolicy>(P);

impl<P: CachePolicy> CachePolicy for DefaultHitCheck<P> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn store(&self) -> &dyn CacheStore {
        self.0.store()
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        self.0.store_mut()
    }
    fn handle(&mut self, req: &Request) -> lhr_repro::sim::Outcome {
        self.0.handle(req)
    }
    fn metadata_overhead_bytes(&self) -> u64 {
        self.0.metadata_overhead_bytes()
    }
}

/// Every roster policy's `hit_check` — the single-probe overrides (LRU,
/// B-LRU, SLRU/S4LRU) and whatever a later policy adds — is
/// observably identical to the default two-probe path: the full serving
/// replay — fault injection, coalescing, breaker and all — produces a
/// byte-identical stable report either way.
#[test]
fn hit_check_overrides_match_default_path_byte_identically() {
    use lhr_repro::proto::presets::{self, PolicyParams};
    use lhr_repro::proto::CdnServer;
    prop_check!(cases: 12, (len in range(200usize..1_500), seed in any_u64(), cap_factor in range(2u64..24)) => {
        let trace = build_trace(len, seed);
        let params = PolicyParams::for_trace(cap_factor * 50, seed, &trace);
        for preset in ["none", "flaky"] {
            let mut config =
                presets::fault_preset(preset, 7, trace.duration().as_secs_f64()).unwrap();
            config.deterministic = true;
            for &(name, build) in presets::POLICIES {
                let fused = CdnServer::new(build(&params), config.clone())
                    .replay(&trace)
                    .stable_json();
                let default = CdnServer::new(DefaultHitCheck(build(&params)), config.clone())
                    .replay(&trace)
                    .stable_json();
                prop_assert_eq!(&fused, &default, "{name} under {preset}: fused hit path diverged");
            }
        }
    });
}

/// The freshness-stamp clause of the `CachePolicy` contract, for every
/// roster policy on every path the serving layer drives it through (bare
/// `handle`; the policy's own `hit_check`, then `handle` on `None`; the
/// default `hit_check`). The reference is the table the server kept before
/// the stamp moved into the policies' slots — written at `req.ts` on every
/// `MissAdmitted`, overwritten by a revalidation of a cached object, never
/// pruned: after each step the policy's stamp equals it for every cached
/// id and is `None` for every other. So eviction then re-admission
/// re-stamps, a `restamp` of an absent id admits nothing, and random
/// `restamp`s survive later hits, moves between segments (SLRU levels, ARC
/// T1→T2, W-TinyLFU window→probation→protected, Hawkeye friendly↔averse)
/// and the sampled stores' `swap_remove` fix-up. A twin that is never
/// restamped makes the same decisions: the stamp is read by no policy.
/// And `hit_check` answers `Some` exactly for a cached id, with a `Hit`:
/// the contract `CdnServer`'s serve path relies on.
#[test]
fn every_roster_policy_keeps_the_stamp_the_server_used_to_keep() {
    use lhr_repro::proto::presets::{self, PolicyParams};
    use lhr_util::hash::FastMap;
    /// Ids `50..IDS` never occur in `build_trace`'s requests.
    const IDS: u64 = 56;
    prop_check!(cases: 16, (len in range(100usize..1_200), seed in any_u64(), cap_factor in range(2u64..24)) => {
        let trace = build_trace(len, seed);
        let params = PolicyParams::for_trace(cap_factor * 50, seed, &trace);
        for &(name, build) in presets::POLICIES {
            for path in ["handle", "hit_check+handle", "default hit_check+handle"] {
                let mut policy: Box<dyn CachePolicy> = if path.starts_with("default") {
                    Box::new(DefaultHitCheck(build(&params)))
                } else {
                    build(&params)
                };
                let mut twin = build(&params);
                let mut reference: FastMap<ObjectId, Time> = FastMap::default();
                let mut state = seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for req in trace.iter() {
                    let was_cached = policy.contains(req.id);
                    let checked = (path != "handle").then(|| policy.hit_check(req));
                    if let Some(checked) = checked {
                        prop_assert_eq!(checked.is_some(), was_cached, "{name} via {path}: hit_check answered for the wrong ids");
                        prop_assert!(checked.is_none_or(|outcome| outcome.is_hit()), "{name} via {path}: hit_check answered {:?}", checked);
                    }
                    let outcome = match checked.flatten() {
                        Some(outcome) => outcome,
                        None => policy.handle(req),
                    };
                    prop_assert_eq!(outcome.is_hit(), was_cached, "{name} via {path}: contains() lied");
                    prop_assert_eq!(outcome, twin.handle(req), "{name} via {path}: a restamp moved a decision");
                    if outcome == lhr_repro::sim::Outcome::MissAdmitted {
                        reference.insert(req.id, req.ts);
                    }
                    if next() % 3 == 0 {
                        let (id, at) = (next() % IDS, Time(next() % 2_000_000));
                        let before = (policy.contains(id), policy.used_bytes(), policy.evictions());
                        policy.restamp(id, at);
                        prop_assert_eq!((policy.contains(id), policy.used_bytes(), policy.evictions()), before);
                        if before.0 {
                            reference.insert(id, at);
                        }
                    }
                    for id in 0..IDS {
                        let want = policy.contains(id).then(|| reference[&id]);
                        prop_assert_eq!(policy.admitted_at(id), want, "{name} via {path}: object {id} at {:?}", req.ts);
                    }
                }
                prop_assert_eq!(policy.used_bytes(), twin.used_bytes());
            }
        }
    });
}

/// A metamorphic relation over the whole roster: a policy reads time only
/// as differences (inter-arrival gaps, ages, windows), so shifting every
/// timestamp of a trace by the same amount changes no decision. Every
/// `presets::POLICIES` row replays a variable-size Zipf trace long enough
/// for LHR's bootstrap training and its first retraining, then the same
/// trace shifted by 1 s, 1 h and 10⁶ s; hits, bytes hit, admitted misses
/// and evictions must all be equal.
#[test]
fn every_roster_policy_is_invariant_under_a_time_shift() {
    use lhr_repro::proto::presets::{self, PolicyParams};
    use lhr_repro::trace::synth::{IrmConfig, SizeModel};
    let trace = IrmConfig::new(400, 13_000)
        .zipf_alpha(0.9)
        .size_model(SizeModel::LogNormal {
            median: 2_000,
            sigma: 1.0,
        })
        .seed(17)
        .generate();
    let shift = |by: Time| {
        let requests = trace
            .iter()
            .map(|req| Request {
                ts: req.ts + by,
                ..*req
            })
            .collect();
        Trace::from_requests("shifted", requests)
    };
    let params = PolicyParams::for_trace(100_000, 5, &trace);
    let run = |trace: &Trace, name: &str, build: presets::PolicyCtor| {
        let mut policy = build(&params);
        let result = Simulator::new(SimConfig::default()).run(&mut policy, trace);
        let m = result.metrics;
        assert!(
            m.hits > 0 && result.evictions > 0,
            "{name}: the trace exercises nothing"
        );
        (m.hits, m.bytes_hit, m.misses_admitted, result.evictions)
    };
    let shifts = [
        Time::from_secs(1),
        Time::from_secs(3_600),
        Time::from_secs(1_000_000),
    ];
    let shifted: Vec<Trace> = shifts.iter().map(|&by| shift(by)).collect();
    for &(name, build) in presets::POLICIES {
        let want = run(&trace, name, build);
        for (by, trace) in shifts.iter().zip(&shifted) {
            assert_eq!(run(trace, name, build), want, "{name} shifted by {by:?}");
        }
    }
}

/// Byte counts near `u64::MAX`: every `presets::POLICIES` row, every
/// `lhr_bounds` bound and HRO replay a 13 000-request Zipf trace whose
/// objects are 1/16 to 1/2 of the capacity, at 2⁶² bytes and at
/// `u64::MAX − 1`. No sum of byte counts may wrap: nothing panics (in a
/// debug build an overflow does, and so does the simulator's per-request
/// `used ≤ capacity` assertion), and every request is counted once, as a
/// hit or a miss. `ExactOpt` is exponential, so it gets the first 25
/// requests.
#[test]
fn every_policy_and_bound_runs_at_byte_counts_near_u64_max() {
    use lhr_repro::bounds::{BeladySize, ExactOpt, PfooLower};
    use lhr_repro::core::Hro;
    use lhr_repro::proto::presets::{self, PolicyParams};
    use lhr_repro::sim::SimMetrics;
    use lhr_repro::trace::synth::IrmConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let shape = IrmConfig::new(400, 13_000)
        .zipf_alpha(0.9)
        .seed(17)
        .generate();
    let mut failures = Vec::new();
    for capacity in [1u64 << 62, u64::MAX - 1] {
        let sized = |requests: &[Request]| {
            let requests = requests.iter().map(|req| Request {
                size: (req.id % 8 + 1) * (capacity / 16),
                ..*req
            });
            Trace::from_requests("near-u64-max", requests.collect())
        };
        let trace = sized(&shape.requests);
        let mut check = |name: &str, run: &mut dyn FnMut() -> SimMetrics| match catch_unwind(
            AssertUnwindSafe(run),
        ) {
            Ok(m) if m.hits + m.misses() == m.requests => {}
            Ok(m) => failures.push(format!(
                "{name} at {capacity}: {} hits + {} misses of {} requests",
                m.hits,
                m.misses(),
                m.requests
            )),
            Err(_) => failures.push(format!("{name} at {capacity}: panicked")),
        };
        let params = PolicyParams::for_trace(capacity, 5, &trace);
        for &(name, build) in presets::POLICIES {
            check(name, &mut || {
                let mut policy = build(&params);
                Simulator::new(SimConfig::default())
                    .run(&mut policy, &trace)
                    .metrics
            });
        }
        let bounds: [Box<dyn OfflineBound>; 6] = [
            Box::new(Belady),
            Box::new(BeladySize),
            Box::new(InfiniteCap),
            Box::new(PfooUpper),
            Box::new(PfooLower),
            Box::new(Hro::default()),
        ];
        for bound in &bounds {
            check(bound.name(), &mut || bound.evaluate(&trace, capacity));
        }
        let prefix = sized(&shape.requests[..25]);
        check("ExactOPT", &mut || {
            ExactOpt::default().evaluate(&prefix, capacity)
        });
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A synthesized [`TraceRecord`] survives the JSONL tagged-line format
/// bitwise: serialize → parse → serialize is a fixpoint, and the parsed
/// record equals the original. Details are drawn from the integral /
/// boolean / string values the instrumentation actually emits.
#[test]
fn trace_records_roundtrip_bitwise() {
    use lhr_repro::obs::trace::{TraceRecord, TraceStep};
    use lhr_repro::obs::ObsRecord;
    use lhr_util::json::ToJson;
    prop_check!(cases: 64, (id in any_u64(), object in any_u64(), n_steps in range(0usize..12), seed in any_u64()) => {
        let steps: Vec<TraceStep> = (0..n_steps)
            .map(|k| {
                let r = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k as u64);
                let names = ["edge_lookup", "failover", "peer_hint", "shield_lookup",
                             "origin_fetch", "breaker", "stale_serve", "coalesce"];
                TraceStep {
                    step: names[(r % 8) as usize].into(),
                    dt_ms: (r % 4_000) as f64 * 0.25,
                    bytes: r % 1_000_000,
                    detail: vec![
                        ("attempt".into(), (r % 5).to_json()),
                        ("hit".into(), (r % 2 == 0).to_json()),
                        ("outcome".into(), "timeout".to_json()),
                    ],
                }
            })
            .collect();
        let record = TraceRecord {
            id,
            object,
            t: (id % 100_000) as f64 * 0.5,
            bytes: object % 1_000_000,
            window: id % 64,
            latency_ms: (object % 10_000) as f64 * 0.25,
            exemplar: id % 3 == 0,
            steps,
        };
        let line = ObsRecord::Trace(record.clone()).to_line();
        let parsed = ObsRecord::parse_line(&line).expect("valid trace line parses");
        let ObsRecord::Trace(back) = &parsed else {
            panic!("tag preserved");
        };
        prop_assert_eq!(back, &record);
        prop_assert_eq!(parsed.to_line(), line);
    });
}

/// SLO breach / recovery events — like every event kind — round-trip
/// bitwise through the export line format.
#[test]
fn slo_event_records_roundtrip_bitwise() {
    use lhr_repro::obs::{Event, EventKind, ObsRecord};
    prop_check!(cases: 64, (t in range(0u64..1_000_000), window in any_u64(), pick in range(0u64..2)) => {
        let kind = if pick == 0 { EventKind::SloBreach } else { EventKind::SloRecover };
        let event = Event::new(t as f64 * 0.5, kind)
            .field("objective", "avail:99.9")
            .field("window", window)
            .field("fast_burn", (window % 40) * 25)
            .field("slow_burn", (window % 10) * 25);
        let line = ObsRecord::Event(event.clone()).to_line();
        let parsed = ObsRecord::parse_line(&line).expect("valid event line parses");
        let ObsRecord::Event(back) = &parsed else {
            panic!("tag preserved");
        };
        prop_assert_eq!(back.kind, kind);
        prop_assert_eq!(back.fields.len(), event.fields.len());
        prop_assert_eq!(parsed.to_line(), line);
    });
}

/// Mangled export lines — truncated anywhere, or with a byte flipped —
/// must make [`ObsRecord::parse_line`] return an error (or, for lucky
/// flips, another valid record), never panic.
#[test]
fn malformed_trace_lines_never_panic() {
    use lhr_repro::obs::trace::{TraceRecord, TraceStep};
    use lhr_repro::obs::ObsRecord;
    prop_check!(cases: 128, (seed in any_u64(), cut in range(0usize..300), flip in range(0usize..300), bit in range(0u64..8)) => {
        let record = TraceRecord {
            id: seed,
            object: seed.rotate_left(17),
            t: (seed % 1_000) as f64 * 0.5,
            bytes: seed % 1_000_000,
            window: seed % 32,
            latency_ms: 1.25,
            exemplar: seed % 2 == 0,
            steps: vec![TraceStep {
                step: "origin_fetch".into(),
                dt_ms: 2.5,
                bytes: seed % 4_096,
                detail: vec![("outcome".into(), lhr_util::json::Json::Str("error".into()))],
            }],
        };
        let line = ObsRecord::Trace(record).to_line();
        // Truncation strictly inside the line.
        let cut = 1 + cut % (line.len() - 1);
        let _ = ObsRecord::parse_line(&line[..cut]);
        // A single flipped bit anywhere (skip if it breaks UTF-8).
        let mut bytes = line.clone().into_bytes();
        let at = flip % bytes.len();
        bytes[at] ^= 1 << bit;
        if let Ok(mangled) = String::from_utf8(bytes) {
            let _ = ObsRecord::parse_line(&mangled);
        }
        prop_assert!(true);
    });
}

/// Deterministic stream of hostile leaves expanded from one seed: the
/// floats, integers and strings a serializer is most likely to spell
/// differently on two code paths.
struct Hostile(u64);

impl Hostile {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Any float at all when `wild`; otherwise finite and not NaN (records
    /// compare with `==`, under which NaN differs from itself).
    fn float(&mut self, wild: bool) -> f64 {
        let r = self.next();
        match r % 16 {
            0 if wild => f64::NAN,
            1 if wild => f64::INFINITY,
            2 if wild => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            5 => (r >> 8) as f64 % 1e6,                       // integral
            6 => -((r >> 8) as f64 % 1e6),                    // negative integral
            7 => 9_007_199_254_740_993.0,                     // 2^53 + 1 rounds to even
            8 => (r >> 4) as f64,                             // integral up to 2^60
            9 => ((r >> 8) % 1_000_000_000_000) as f64 / 1e6, // trace time
            10 => ((r >> 8) % 100_000_000) as f64 * 5e-6,     // latency model
            11 => 999_999_999.999_999,
            12 => 1e-7,
            13 => f64::from_bits(r) % 1e300, // any bits, tamed if wild is off
            14 => 5e-324,
            _ => 1.0 / ((r >> 8) % 1_000 + 3) as f64,
        }
        .clamp(
            if wild { f64::NEG_INFINITY } else { -1e300 },
            if wild { f64::INFINITY } else { 1e300 },
        )
    }

    fn uint(&mut self) -> u64 {
        let r = self.next();
        match r % 4 {
            0 => u64::MAX,
            1 => r % 3,
            2 => r >> 32,
            _ => r,
        }
    }

    fn string(&mut self) -> String {
        let pool = [
            "",
            "edge_lookup",
            "quote\"inside",
            "back\\slash",
            "tab\there",
            "new\nline",
            "cr\rlf",
            "bell\u{7}",
            "nul\u{0}x",
            "\u{1f}",
            "del\u{7f}",
            "héllo",
            "缓存",
            "🦀",
            "\\\"",
            "{\"record\":\"meta\"}",
            "a/b",
            "sim.requests",
        ];
        let r = self.next();
        let mut s = pool[(r % pool.len() as u64) as usize].to_string();
        if r & 0x100 != 0 {
            s.push_str(pool[((r >> 16) % pool.len() as u64) as usize]);
        }
        s
    }

    /// A JSON leaf. Integral floats are left out unless `wild`: the writer
    /// spells them as integers, so they parse back as the integer variant.
    fn json(&mut self, wild: bool) -> lhr_util::json::Json {
        use lhr_util::json::Json;
        let r = self.next();
        match r % 7 {
            0 => Json::UInt(self.uint()),
            1 => Json::Int(-((self.uint() >> 1) as i64) - 1),
            2 => Json::Bool(r & 8 != 0),
            3 => Json::Str(self.string()),
            4 if wild => Json::Float(self.float(true)),
            4 => Json::Float(0.5 + (r >> 8) as f64 % 1e6),
            5 => Json::Null,
            _ => Json::Array(vec![Json::UInt(self.uint()), Json::Str(self.string())]),
        }
    }
}

/// One record of each `ObsRecord` variant, every leaf hostile.
fn hostile_records(seed: u64, wild: bool) -> Vec<lhr_repro::obs::ObsRecord> {
    use lhr_repro::obs::trace::{TraceRecord, TraceStep};
    use lhr_repro::obs::{Event, EventKind, LogHistogram, ObsRecord, SpanRecord, WindowRecord};
    let mut h = Hostile(seed | 1);
    let fields = |h: &mut Hostile| -> Vec<(String, lhr_util::json::Json)> {
        (0..h.next() % 4)
            .map(|_| (h.string(), h.json(wild)))
            .collect()
    };
    let mut hist = LogHistogram::new();
    for _ in 0..h.next() % 5 {
        hist.record(h.uint()); // a few u64::MAX push `sum` past 64 bits
    }
    let kind = EventKind::ALL[(h.next() % EventKind::ALL.len() as u64) as usize];
    let steps = (0..h.next() % 4)
        .map(|_| TraceStep {
            step: h.string().into(),
            dt_ms: h.float(wild),
            bytes: h.uint(),
            detail: fields(&mut h)
                .into_iter()
                .map(|(k, v)| (k.into(), v))
                .collect(),
        })
        .collect();
    vec![
        ObsRecord::Meta(fields(&mut h)),
        ObsRecord::Window(WindowRecord {
            index: h.uint(),
            start_requests: h.uint(),
            first_secs: h.float(wild),
            last_secs: h.float(wild),
            requests: h.uint(),
            hits: h.uint(),
            misses_admitted: h.uint(),
            misses_bypassed: h.uint(),
            bytes_requested: h.uint() as u128 * h.uint() as u128,
            bytes_hit: h.uint() as u128,
            evictions: h.uint(),
            errors: h.uint(),
            stale_served: h.uint(),
            coalesced: h.uint(),
        }),
        ObsRecord::Event(Event {
            t: h.float(wild),
            kind,
            fields: fields(&mut h),
        }),
        ObsRecord::Counter {
            name: h.string(),
            value: h.uint(),
        },
        ObsRecord::Gauge {
            name: h.string(),
            value: h.float(wild),
        },
        ObsRecord::Hist {
            name: h.string(),
            hist,
        },
        ObsRecord::Span(SpanRecord {
            path: h.string(),
            count: h.uint(),
            total_secs: h.float(wild),
            self_secs: h.float(wild),
        }),
        ObsRecord::Trace(TraceRecord {
            id: h.uint(),
            object: h.uint(),
            t: h.float(wild),
            bytes: h.uint(),
            window: h.uint(),
            latency_ms: h.float(wild),
            exemplar: h.next() & 1 == 0,
            steps,
        }),
    ]
}

/// The export's one serializer writes the canonical spelling of every
/// `ObsRecord` variant: whatever the leaves (NaN, ±∞, −0.0, integral and
/// sub-microsecond floats, `u64::MAX`, sums past 64 bits, quotes,
/// backslashes, control and non-ASCII characters in names, step details and
/// metadata), the line `write_line` appends to a buffer that already holds
/// text is the one the JSON layer's own writer spells for the parsed value,
/// and it parses back to a record that writes the same line. (With leaves
/// `==` can compare, the next test holds the parsed record equal to the
/// written one; the serving goldens pin the field order.)
#[test]
fn write_line_is_the_canonical_spelling_for_every_record_variant() {
    use lhr_repro::obs::ObsRecord;
    use lhr_util::json::Json;
    prop_check!(cases: 256, (seed in any_u64()) => {
        for record in hostile_records(seed, true) {
            let mut line = String::from("prefix\n");
            record.write_line(&mut line);
            let line = &line["prefix\n".len()..];
            prop_assert_eq!(record.to_line(), line);
            let tree = Json::parse(line);
            prop_assert!(tree.is_ok(), "{line}: {tree:?}");
            prop_assert_eq!(tree.unwrap().to_string(), line, "{:?}", record);
            let parsed = ObsRecord::parse_line(line);
            prop_assert!(parsed.is_ok(), "{line}: {parsed:?}");
            prop_assert_eq!(parsed.unwrap().to_line(), line);
        }
    });
}

/// With leaves that `==` can compare (no NaN) and that keep their JSON
/// variant (no integral `Json::Float`), a written line parses back to a
/// record equal to the one written.
#[test]
fn written_lines_parse_back_to_equal_records() {
    use lhr_repro::obs::ObsRecord;
    prop_check!(cases: 256, (seed in any_u64()) => {
        for record in hostile_records(seed, false) {
            let line = record.to_line();
            let parsed = ObsRecord::parse_line(&line);
            prop_assert_eq!(parsed.as_ref(), Ok(&record), "{line}");
        }
    });
}

/// The float writer's integer-arithmetic fast path spells what `Display`
/// spells — the path is taken for every whole number of millionths below
/// 10⁹, so the draws concentrate there and on its edges.
#[test]
fn float_writer_fast_path_matches_display() {
    use lhr_util::json::write_f64;
    let same = |f: f64| {
        let mut out = String::new();
        write_f64(f, &mut out);
        let display = if f == 0.0 && f.is_sign_negative() {
            "-0.0".to_string()
        } else {
            format!("{f}")
        };
        (out, display)
    };
    for f in [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.000_001,
        0.000_000_5,
        0.999_999_5,
        999_999_999.999_999,
        1e9,
        1e9 - 1e-6,
        123_456.789_012,
        0.1 + 0.2,
        1e-7,
        4_503_599_627.370_496,
        1e15,
        2e15,
    ] {
        let (out, display) = same(f);
        assert_eq!(out, display, "{f:e}");
    }
    prop_check!(cases: 4096, (r in any_u64(), scale in range(0u64..6)) => {
        let micros = r % [1_000u64, 1_000_000, 1_000_000_000, 1_000_000_000_000_000, 2_000_000_000_000_000, u64::MAX][scale as usize];
        let bits = f64::from_bits(r);
        for f in [micros as f64 / 1e6, -(micros as f64 / 1e6), (micros as f64 / 1e6) * (1.0 + f64::EPSILON),
                  micros as f64 * 5e-6, micros as f64, if bits.is_finite() { bits } else { 0.5 }] {
            let (out, display) = same(f);
            prop_assert_eq!(out, display, "{:e} ({:#x})", f, f.to_bits());
        }
    });
}

/// The recorder's divide-free sampling test is `h % every == 0`, for the
/// rates the CLI sees and the shapes that stress the trick — powers of two,
/// odd, even, `u64::MAX`, and `every` just above and below the hash — on
/// random hashes and on the multiples of `every` (which random hashes
/// almost never hit once `every` is large) and their neighbours.
#[test]
fn divisibility_sampler_matches_the_remainder() {
    use lhr_repro::obs::trace::{sampled, TraceRecorder};
    prop_check!(cases: 512, (h in any_u64(), r in any_u64(), k in range(0u32..64)) => {
        let odd = r | 1;
        let even = (r | 1) << (k % 8 + 1);
        for every in [1u64, 2, 3, 64, 100, 1 << k, odd, even, u64::MAX, u64::MAX - 1,
                      h, h.wrapping_add(1), h / 2 + 1] {
            if every == 0 {
                continue;
            }
            let recorder = TraceRecorder::new(every);
            let multiple = (r % (u64::MAX / every).max(1)) * every; // below u64::MAX: no wrap
            for hash in [h, multiple, multiple.wrapping_add(1), multiple.wrapping_sub(1), 0, u64::MAX] {
                prop_assert_eq!(recorder.keeps(hash), hash % every == 0, "{} % {}", hash, every);
            }
        }
        // And through the hash: `begin` takes `sampled`'s decision.
        for every in [0u64, 1, 2, 3, 64, 100] {
            let recorder = TraceRecorder::new(every);
            prop_assert_eq!(recorder.begin(0, h, r, 1).is_some(), sampled(h, r, every));
        }
        prop_assert!(!TraceRecorder::new(0).keeps(h));
    });
}

/// One generated request of a window-series stream: its trace time, its
/// bytes, its six outcome flags and the evictions it causes.
#[derive(Debug, Clone, Copy)]
struct StreamStep {
    t_micros: u64,
    bytes: u64,
    hit: bool,
    admitted: bool,
    bypassed: bool,
    error: bool,
    stale: bool,
    coalesced: bool,
    evicted: u64,
}

/// `len` steps from `seed`: mostly dense arrivals on a 1 ms grid (so
/// requests land exactly on window edges, and several share a timestamp),
/// now and then a gap of many windows.
fn window_stream(len: usize, seed: u64) -> Vec<StreamStep> {
    let mut h = Hostile(seed | 1);
    let mut t_micros = h.next() % 1_000 * 1_000;
    (0..len)
        .map(|_| {
            let r = h.next();
            t_micros += 1_000
                * if r.is_multiple_of(23) {
                    r % 3_000
                } else {
                    r % 9
                };
            let hit = r & 0x100 != 0;
            StreamStep {
                t_micros,
                bytes: r >> 40,
                hit,
                admitted: !hit && r & 0x200 != 0,
                bypassed: !hit && r & 0x200 == 0,
                error: r & 0xC00 == 0,
                stale: hit && r & 0x3000 == 0,
                coalesced: !hit && r & 0xC000 == 0,
                evicted: if hit { 0 } else { (r >> 16) % 4 },
            }
        })
        .collect()
}

/// The window series of the measured steps `steps[warmup..]`, computed
/// straight from the window rule: `Requests(n)` cuts consecutive runs of
/// `n` requests; `Secs(w)` puts a request in window ⌊(t − t₀)/w⌋, t₀ the
/// first measured request's time, and skips empty indices. A window's
/// evictions are the eviction counter's value at the next window's first
/// request less its value at the window's own first (the last window runs
/// to the lifetime count) — the counter moves during warmup too.
fn windows_by_rule(
    window: lhr_repro::obs::ObsWindow,
    steps: &[StreamStep],
    warmup: usize,
) -> Vec<lhr_repro::obs::WindowRecord> {
    use lhr_repro::obs::{ObsWindow, WindowRecord};
    // The counter just before step i, and the lifetime count at the end.
    let before: Vec<u64> = steps
        .iter()
        .scan(0, |c, s| {
            let at = *c;
            *c += s.evicted;
            Some(at)
        })
        .collect();
    let lifetime: u64 = steps.iter().map(|s| s.evicted).sum();
    let measured = &steps[warmup.min(steps.len())..];
    let index_of = |j: usize| match window {
        ObsWindow::Requests(n) => j as u64 / n,
        ObsWindow::Secs(w) => {
            (measured[j].t_micros - measured[0].t_micros) / (w * 1e6).round() as u64
        }
    };
    let mut out: Vec<WindowRecord> = Vec::new();
    let mut j = 0;
    while j < measured.len() {
        let index = index_of(j);
        let end = (j..measured.len())
            .find(|&k| index_of(k) != index)
            .unwrap_or(measured.len());
        let group = &measured[j..end];
        let count = |f: fn(&StreamStep) -> bool| group.iter().filter(|s| f(s)).count() as u64;
        let next_count = before.get(warmup + end).copied().unwrap_or(lifetime);
        out.push(WindowRecord {
            index,
            start_requests: j as u64,
            first_secs: group[0].t_micros as f64 / 1e6,
            last_secs: group[group.len() - 1].t_micros as f64 / 1e6,
            requests: group.len() as u64,
            hits: count(|s| s.hit),
            misses_admitted: count(|s| s.admitted),
            misses_bypassed: count(|s| s.bypassed),
            bytes_requested: group.iter().map(|s| s.bytes as u128).sum(),
            bytes_hit: group
                .iter()
                .filter(|s| s.hit)
                .map(|s| s.bytes as u128)
                .sum(),
            evictions: next_count - before[warmup + j],
            errors: count(|s| s.error),
            stale_served: count(|s| s.stale),
            coalesced: count(|s| s.coalesced),
        });
        j = end;
    }
    out
}

/// A policy that plays back a [`StreamStep`] script: each request gets the
/// scripted outcome, and the eviction counter moves by the scripted amount.
struct Scripted {
    script: Vec<StreamStep>,
    next: usize,
    evictions: u64,
    store: lhr_repro::sim::store::SampleStore<()>,
}

impl CachePolicy for Scripted {
    fn name(&self) -> &str {
        "Scripted"
    }
    fn store(&self) -> &dyn CacheStore {
        &self.store
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        &mut self.store
    }
    fn handle(&mut self, _req: &Request) -> lhr_repro::sim::Outcome {
        use lhr_repro::sim::Outcome;
        let step = self.script[self.next];
        self.next += 1;
        self.evictions += step.evicted;
        match (step.hit, step.admitted) {
            (true, _) => Outcome::Hit,
            (false, true) => Outcome::MissAdmitted,
            (false, false) => Outcome::MissBypassed,
        }
    }
    fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// The window series is the measured request stream cut by the window
/// rule ([`windows_by_rule`]), under request and time windows, with trace
/// gaps that skip indices, requests exactly on window edges and an eviction
/// counter that moves during warmup. Held twice: a `SeriesAcc` driven the
/// way `Ledger` drives it (each request observed before it is counted, the
/// snapshot reading the live eviction counter, `finish` the lifetime
/// count), with all six flags, the open window's index checked per request
/// and one snapshot taken per window; and `Simulator::run` with a recorder over a policy that plays
/// the stream back (the simulator counts no errors, stale serves or
/// coalesced misses).
#[test]
fn windows_are_the_measured_stream_cut_by_the_window_rule() {
    use lhr_repro::obs::series::{SeriesAcc, Totals};
    use lhr_repro::obs::{Obs, ObsConfig, ObsWindow};
    prop_check!(cases: 256, (len in range(0usize..300), seed in any_u64(), n in range(1u64..40), warmup in range(0usize..20)) => {
        let steps = window_stream(len, seed);
        for window in [ObsWindow::Requests(n), ObsWindow::Secs(n as f64 * 0.01)] {
            let expected = windows_by_rule(window, &steps, warmup);

            let mut acc = SeriesAcc::new(window);
            let mut totals = Totals::default();
            let (mut counter, mut snapshots) = (0u64, 0usize);
            for (i, s) in steps.iter().enumerate() {
                if i >= warmup {
                    acc.observe(s.t_micros, || {
                        snapshots += 1;
                        Totals { evictions: counter, ..totals }
                    });
                    let open = expected
                        .iter()
                        .rfind(|w| w.start_requests <= (i - warmup) as u64)
                        .map(|w| w.index);
                    prop_assert_eq!(Some(acc.last_index()), open, "request {}", i);
                    totals.requests += 1;
                    totals.hits += s.hit as u64;
                    totals.misses_admitted += s.admitted as u64;
                    totals.misses_bypassed += s.bypassed as u64;
                    totals.bytes_requested += s.bytes as u128;
                    totals.bytes_hit += s.hit as u128 * s.bytes as u128;
                    totals.errors += s.error as u64;
                    totals.stale_served += s.stale as u64;
                    totals.coalesced += s.coalesced as u64;
                }
                counter += s.evicted;
            }
            let series = acc.finish(Totals { evictions: counter, ..totals });
            prop_assert_eq!(&series, &expected, "{}", window);
            prop_assert_eq!(snapshots, expected.len(), "one snapshot per window opened");

            let script: Vec<StreamStep> = steps
                .iter()
                .map(|s| StreamStep { error: false, stale: false, coalesced: false, ..*s })
                .collect();
            let trace = Trace::from_requests(
                "stream",
                steps.iter().enumerate().map(|(i, s)| {
                    Request::new(Time::from_micros(s.t_micros), i as ObjectId, s.bytes)
                }).collect(),
            );
            let obs = Obs::new(ObsConfig { window, ..ObsConfig::default() });
            let mut policy = Scripted {
                script: script.clone(),
                next: 0,
                evictions: 0,
                store: lhr_repro::sim::store::SampleStore::new(0),
            };
            Simulator::new(SimConfig { warmup_requests: warmup })
                .with_obs(obs.clone())
                .run(&mut policy, &trace);
            prop_assert_eq!(obs.windows(), windows_by_rule(window, &script, warmup), "{}", window);
        }
    });
}

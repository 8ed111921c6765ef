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
use lhr_repro::sim::{CachePolicy, OfflineBound, SimConfig, Simulator};
use lhr_repro::trace::{io, Request, Time, Trace};
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
/// interleavings of `push` / `get_mut` / `evict_at` over a small key
/// universe: the evicted slot is the one the model holds, bytes are
/// conserved, and after every `swap_remove` fix-up each position's id
/// still indexes back to that position's entry.
#[test]
fn sample_store_matches_model_hashmap() {
    use lhr_repro::policies::util::SampleStore;
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
        let mut model: HashMap<u64, (u64, u64)> = HashMap::new();
        let mut evicted = 0u64;
        for step in 0..ops {
            let id = next() % key_space;
            match next() % 10 {
                // Push-heavy mix keeps the store near its byte budget.
                0..=4 => {
                    let size = next() % 100 + 1;
                    prop_assert_eq!(store.contains(id), model.contains_key(&id));
                    let used: u64 = model.values().map(|&(size, _)| size).sum();
                    prop_assert_eq!(store.fits(size), used + size <= capacity);
                    if !store.contains(id) && store.fits(size) {
                        store.push(id, size, step as u64);
                        model.insert(id, (size, step as u64));
                    }
                }
                5..=7 => {
                    if !store.is_empty() {
                        let slot = store.evict_at(next() as usize % store.len());
                        prop_assert_eq!(model.remove(&slot.id), Some((slot.size, slot.entry)));
                        evicted += 1;
                    }
                }
                _ => {
                    if let Some(entry) = store.get_mut(id) {
                        *entry += 1;
                    }
                    if let Some((_, entry)) = model.get_mut(&id) {
                        *entry += 1;
                    }
                    prop_assert_eq!(store.get_mut(id).copied(), model.get(&id).map(|&(_, e)| e));
                }
            }
            prop_assert_eq!(store.len(), model.len());
            prop_assert_eq!(store.used(), model.values().map(|&(size, _)| size).sum::<u64>());
            prop_assert_eq!(store.evictions(), evicted);
        }
        for pos in 0..store.len() {
            let (id, size, entry) = {
                let slot = store.slot(pos);
                (slot.id, slot.size, slot.entry)
            };
            prop_assert_eq!(model.get(&id), Some(&(size, entry)));
            // The index sends the id back to this very position.
            *store.get_mut(id).expect("indexed") += 1;
            prop_assert_eq!(store.slot(pos).entry, entry + 1);
        }
    });
}

/// [`LruStore`] agrees with a `Vec`-ordered reference (front = LRU end)
/// over mixed-size objects under `touch` / `insert` / `evict_lru`: same
/// hits, same eviction order, same bytes, same eviction count.
#[test]
fn lru_store_matches_reference_model() {
    use lhr_repro::policies::util::LruStore;
    prop_check!(cases: 64, (ops in range(1usize..600), seed in any_u64(), capacity in range(1u64..400)) => {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut store = LruStore::new(capacity);
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut evicted = 0u64;
        for _ in 0..ops {
            let id = next() % 24;
            if next() % 8 == 0 {
                let expected = (!reference.is_empty()).then(|| reference.remove(0));
                evicted += expected.is_some() as u64;
                prop_assert_eq!(store.evict_lru(), expected);
            } else if let Some(pos) = reference.iter().position(|&(x, _)| x == id) {
                let entry = reference.remove(pos);
                reference.push(entry);
                prop_assert!(store.touch(id));
            } else {
                prop_assert!(!store.touch(id));
                let size = (id * 7 + 3) % 60 + 1; // deterministic per id
                if size <= capacity {
                    let mut used: u64 = reference.iter().map(|&(_, s)| s).sum();
                    while used + size > capacity {
                        used -= reference.remove(0).1;
                        evicted += 1;
                    }
                    reference.push((id, size));
                    store.insert(id, size);
                }
            }
            prop_assert_eq!(store.iter_lru_first().copied().collect::<Vec<_>>(), reference.clone());
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
    fn capacity(&self) -> u64 {
        self.0.capacity()
    }
    fn used_bytes(&self) -> u64 {
        self.0.used_bytes()
    }
    fn contains(&self, id: lhr_repro::trace::ObjectId) -> bool {
        self.0.contains(id)
    }
    fn handle(&mut self, req: &Request) -> lhr_repro::sim::Outcome {
        self.0.handle(req)
    }
    fn evictions(&self) -> u64 {
        self.0.evictions()
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
                    step: names[(r % 8) as usize].to_string(),
                    dt_ms: (r % 4_000) as f64 * 0.25,
                    bytes: r % 1_000_000,
                    detail: vec![
                        ("attempt".to_string(), (r % 5).to_json()),
                        ("hit".to_string(), (r % 2 == 0).to_json()),
                        ("outcome".to_string(), "timeout".to_json()),
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
                step: "origin_fetch".to_string(),
                dt_ms: 2.5,
                bytes: seed % 4_096,
                detail: vec![("outcome".to_string(), lhr_util::json::Json::Str("error".into()))],
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

//! Failure-injection and adversarial-workload tests: patterns engineered
//! to break caching policies — sequential scans, thrash loops, ties in
//! every ordering key, pathological size mixes, and bursts at identical
//! timestamps. Every policy must remain correct (capacity, accounting,
//! termination) even where its hit ratio collapses.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::proto::presets::{PolicyParams, POLICIES};
use lhr_repro::sim::{CachePolicy, SimConfig, Simulator};
use lhr_repro::trace::{Request, Time, Trace};
use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// Every roster row, built as `lhr-cache --policy NAME` builds it for
/// `trace` — so a new row is covered the day it is listed — and one more
/// LHR: the roster's keep their 4 096-request window floor, which these
/// short traces cross once or never, so this one trains every 64 requests.
fn all_policies(capacity: u64, trace: &Trace) -> Vec<Box<dyn CachePolicy + Send>> {
    let seed = 99;
    let params = PolicyParams::for_trace(capacity, seed, trace);
    let mut policies: Vec<_> = POLICIES.iter().map(|(_, build)| build(&params)).collect();
    policies.push(Box::new(LhrCache::new(
        capacity,
        LhrConfig {
            seed,
            min_window_requests: 64,
            ..LhrConfig::default()
        },
    )));
    policies
}

/// Runs a trace through every policy asserting only correctness invariants.
fn assert_survives(trace: &Trace, capacity: u64) {
    for mut policy in all_policies(capacity, trace) {
        let result = Simulator::new(SimConfig::default()).run(&mut policy, trace);
        assert_eq!(
            result.metrics.hits + result.metrics.misses(),
            result.metrics.requests,
            "{}: accounting broken",
            result.policy
        );
        assert!(
            policy.used_bytes() <= policy.capacity(),
            "{}: capacity exceeded",
            result.policy
        );
    }
}

#[test]
fn sequential_scan_never_repeats() {
    // Pure scan: 0 hits possible; policies must not leak or overflow.
    let trace = Trace::from_requests(
        "scan",
        (0..5_000u64)
            .map(|i| Request::new(Time::from_secs(i), i, 1_000))
            .collect(),
    );
    assert_survives(&trace, 100_000);
    // And nobody may claim a hit.
    for mut policy in all_policies(100_000, &trace) {
        let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
        assert_eq!(
            result.metrics.hits, 0,
            "{} hit on a pure scan",
            result.policy
        );
    }
}

#[test]
fn thrash_loop_one_object_larger_than_cache_over_capacity_cycle() {
    // Cyclic working set exactly 2× the cache: classic LRU worst case.
    let trace = Trace::from_requests(
        "loop",
        (0..10_000u64)
            .map(|i| Request::new(Time::from_secs(i), i % 20, 10_000))
            .collect(),
    );
    assert_survives(&trace, 100_000); // cache holds 10 of 20 objects
}

#[test]
fn identical_timestamps_burst() {
    // An entire burst arrives at the same instant: IRT-based math must not
    // divide by zero or panic.
    let mut reqs = Vec::new();
    for round in 0..50u64 {
        for id in 0..40u64 {
            reqs.push(Request::new(Time::from_secs(round), id, 5_000));
        }
    }
    let trace = Trace::from_requests("burst", reqs);
    assert_survives(&trace, 100_000);
}

#[test]
fn all_requests_same_object() {
    let trace = Trace::from_requests(
        "mono",
        (0..2_000u64)
            .map(|i| Request::new(Time::from_secs(i), 7, 999))
            .collect(),
    );
    for mut policy in all_policies(10_000, &trace) {
        let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
        // Admission-controlled policies may bypass the first few sightings,
        // but a single hot object must eventually produce a hit majority.
        assert!(
            result.metrics.object_hit_ratio() > 0.5,
            "{}: only {:.1}% hits on a single hot object",
            result.policy,
            result.metrics.object_hit_ratio() * 100.0
        );
    }
}

#[test]
fn object_exactly_at_capacity() {
    let capacity = 10_000u64;
    let trace = Trace::from_requests(
        "exact",
        vec![
            Request::new(Time::from_secs(0), 1, capacity), // fits exactly
            Request::new(Time::from_secs(1), 1, capacity),
            Request::new(Time::from_secs(2), 2, capacity + 1), // must bypass
            Request::new(Time::from_secs(3), 2, capacity + 1),
        ],
    );
    for mut policy in all_policies(capacity, &trace) {
        let name = policy.name().to_string();
        for req in trace.iter() {
            policy.handle(req);
            assert!(policy.used_bytes() <= capacity, "{name} overflowed");
            assert!(!policy.contains(2), "{name} admitted an oversized object");
        }
    }
}

#[test]
fn caches_of_a_few_bytes_stay_within_them() {
    // One-byte objects, 20 ids drawn uniformly, caches of 1 to 8 bytes:
    // every split of the capacity (levels, segments, a window) is down to
    // single bytes or to none. No policy can beat `capacity / 20` here by
    // much, so a row far above LRU is holding more than it admits to.
    let mut rng = SmallRng::seed_from_u64(99);
    let requests =
        (0..4_000u64).map(|i| Request::new(Time::from_secs(i), rng.gen_range(0..20u64), 1));
    let trace = Trace::from_requests("tiny", requests.collect());
    for capacity in 1..=8u64 {
        let mut hits = Vec::new();
        for mut policy in all_policies(capacity, &trace) {
            let name = policy.name().to_string();
            assert_eq!(policy.capacity(), capacity, "{name}");
            let mut policy_hits = 0u64;
            for req in trace.iter() {
                policy_hits += u64::from(policy.handle(req).is_hit());
                assert!(
                    policy.used_bytes() <= capacity,
                    "{name} holds {} of {capacity} bytes",
                    policy.used_bytes()
                );
            }
            hits.push((name, policy_hits));
        }
        let lru = hits
            .iter()
            .find(|(name, _)| name == "LRU")
            .expect("listed")
            .1;
        for (name, policy_hits) in hits {
            assert!(
                policy_hits <= 3 * lru && lru <= 3 * policy_hits,
                "{name} at {capacity} bytes: {policy_hits} hits against LRU's {lru}"
            );
        }
    }
}

#[test]
fn pathological_size_mix() {
    // 1-byte and near-capacity objects interleaved.
    let capacity = 1_000_000u64;
    let mut reqs = Vec::new();
    for i in 0..2_000u64 {
        let (id, size) = if i % 2 == 0 {
            (i % 40, 1u64)
        } else {
            (1_000 + i % 3, capacity - 7)
        };
        reqs.push(Request::new(Time::from_secs(i), id, size));
    }
    let trace = Trace::from_requests("mix", reqs);
    assert_survives(&trace, capacity);
}

#[test]
fn adversarial_flip_flop_popularity() {
    // Popularity inverts every 500 requests between two disjoint sets.
    let mut reqs = Vec::new();
    let mut t = 0u64;
    for phase in 0..10u64 {
        let base = if phase % 2 == 0 { 0 } else { 100 };
        for i in 0..500u64 {
            reqs.push(Request::new(Time::from_secs(t), base + i % 20, 2_000));
            t += 1;
        }
    }
    let trace = Trace::from_requests("flipflop", reqs);
    assert_survives(&trace, 20_000);
}

#[test]
fn lhr_with_degenerate_configs_stays_sound() {
    let trace = Trace::from_requests(
        "degenerate",
        (0..3_000u64)
            .map(|i| Request::new(Time::from_secs(i), i % 50, 1_000))
            .collect(),
    );
    // Extreme knob settings must not panic or overflow.
    let configs = vec![
        LhrConfig {
            window_multiplier: 0.01,
            min_window_requests: 1,
            ..LhrConfig::default()
        },
        LhrConfig {
            window_multiplier: 1000.0,
            ..LhrConfig::default()
        },
        LhrConfig {
            n_irts: 1,
            ..LhrConfig::default()
        },
        LhrConfig {
            eviction_sample: 1,
            ..LhrConfig::default()
        },
        LhrConfig {
            fixed_threshold: Some(1.0),
            ..LhrConfig::default()
        }, // admit ~nothing
        LhrConfig {
            fixed_threshold: Some(0.0),
            ..LhrConfig::default()
        }, // admit everything
        LhrConfig {
            train_window_history: 1,
            max_train_rows: 8,
            ..LhrConfig::default()
        },
    ];
    for config in configs {
        let mut cache = LhrCache::new(10_000, config.clone());
        let result = Simulator::new(SimConfig::default()).run(&mut cache, &trace);
        assert!(cache.used_bytes() <= cache.capacity(), "{config:?}");
        assert_eq!(
            result.metrics.hits + result.metrics.misses(),
            result.metrics.requests
        );
    }
}

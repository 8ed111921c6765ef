//! Cross-crate integration tests: the relationships the paper's evaluation
//! depends on must hold end-to-end on real simulated workloads.

use lhr_repro::bounds::{Belady, BeladySize, InfiniteCap, PfooLower, PfooUpper};
use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::core::hazard::Hro;
use lhr_repro::policies::{Fifo, Lfo, LfuDa, Lru};
use lhr_repro::proto::presets::{self, PolicyParams};
use lhr_repro::sim::{CachePolicy, OfflineBound, SimConfig, Simulator};
use lhr_repro::trace::synth::{markov, IrmConfig, SizeModel};
use lhr_repro::trace::{Request, Time, Trace, TraceStats};

fn zipf_trace(seed: u64, n_objects: usize, n_requests: usize) -> Trace {
    IrmConfig::new(n_objects, n_requests)
        .zipf_alpha(0.9)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.3,
            min: 5_000,
            max: 2_000_000,
        })
        .seed(seed)
        .generate()
}

/// The whole roster at the CLI's parameters — except that LFO retrains
/// every 2 048 requests: the traces here are 8 000–20 000 requests long,
/// and the bounds must hold for LFO's learned admission, not only for the
/// admit-all it starts with.
fn all_policies(capacity: u64, seed: u64, trace: &Trace) -> Vec<Box<dyn CachePolicy>> {
    let params = PolicyParams::for_trace(capacity, seed, trace);
    presets::POLICIES
        .iter()
        .map(|&(name, build)| -> Box<dyn CachePolicy> {
            match name {
                "LFO" => Box::new(Lfo::new(capacity, 2_048)),
                _ => build(&params),
            }
        })
        .collect()
}

#[test]
fn every_policy_respects_capacity_and_accounting() {
    let trace = zipf_trace(1, 500, 20_000);
    let capacity = (trace.total_bytes() / 100) as u64;
    for mut policy in all_policies(capacity, 1, &trace) {
        let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
        let m = &result.metrics;
        assert_eq!(
            m.hits + m.misses(),
            m.requests,
            "{}: hit/miss accounting broken",
            result.policy
        );
        assert!(m.bytes_hit <= m.bytes_requested, "{}", result.policy);
        assert!(
            policy.used_bytes() <= policy.capacity(),
            "{}",
            result.policy
        );
    }
}

#[test]
fn infinite_cap_dominates_every_bound_and_policy() {
    let trace = zipf_trace(2, 300, 10_000);
    let capacity = (trace.total_bytes() / 50) as u64;
    let ceiling = InfiniteCap.evaluate(&trace, capacity).hits;
    for bound in [
        &Belady as &dyn OfflineBound,
        &BeladySize,
        &PfooUpper,
        &PfooLower,
        &Hro::default(),
    ] {
        let hits = bound.evaluate(&trace, capacity).hits;
        assert!(
            hits <= ceiling,
            "{} exceeded InfiniteCap: {hits} > {ceiling}",
            bound.name()
        );
    }
    for mut policy in all_policies(capacity, 2, &trace) {
        let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
        assert!(
            result.metrics.hits <= ceiling,
            "{} exceeded InfiniteCap",
            result.policy
        );
    }
}

#[test]
fn pfoo_upper_dominates_feasible_policies() {
    let trace = zipf_trace(3, 300, 10_000);
    let capacity = (trace.total_bytes() / 80) as u64;
    let bound = PfooUpper.evaluate(&trace, capacity).hits;
    for mut policy in all_policies(capacity, 3, &trace) {
        let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
        assert!(
            result.metrics.hits <= bound,
            "{}: {} hits > PFOO-U {}",
            result.policy,
            result.metrics.hits,
            bound
        );
    }
}

#[test]
fn belady_is_optimal_among_policies_on_equal_sizes() {
    // With equal sizes Belady is exact OPT: no feasible policy may beat it.
    let trace = IrmConfig::new(200, 8_000)
        .zipf_alpha(0.7)
        .size_model(SizeModel::Fixed { bytes: 1_000 })
        .seed(4)
        .generate();
    let capacity = 50 * 1_000u64;
    let optimum = Belady.evaluate(&trace, capacity).hits;
    for mut policy in all_policies(capacity, 4, &trace) {
        let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
        assert!(
            result.metrics.hits <= optimum,
            "{} beat Belady on equal sizes: {} > {}",
            result.policy,
            result.metrics.hits,
            optimum
        );
    }
}

#[test]
fn lhr_beats_classic_baselines_on_skewed_workload() {
    let trace = zipf_trace(5, 1_000, 60_000);
    let capacity = (trace.total_bytes() / 200) as u64;
    let config = SimConfig {
        warmup_requests: trace.len() / 5,
    };
    let run = |mut p: Box<dyn CachePolicy>| {
        Simulator::new(config.clone())
            .run(&mut p, &trace)
            .metrics
            .object_hit_ratio()
    };
    let lhr = run(Box::new(LhrCache::new(
        capacity,
        LhrConfig {
            seed: 5,
            ..LhrConfig::default()
        },
    )));
    let lru = run(Box::new(Lru::new(capacity)));
    let fifo = run(Box::new(Fifo::new(capacity)));
    assert!(lhr > lru, "LHR {lhr} ≤ LRU {lru}");
    assert!(lhr > fifo, "LHR {lhr} ≤ FIFO {fifo}");
}

#[test]
fn lhr_adapts_to_popularity_inversion_better_than_lru() {
    let r = 20_000;
    let trace = markov::syn_one(500, 4 * r, r, 0.9, 6);
    let unique = TraceStats::compute(&trace).unique_bytes_requested;
    let capacity = (unique / 10) as u64;
    let config = SimConfig { warmup_requests: r };
    let mut lhr = LhrCache::new(
        capacity,
        LhrConfig {
            seed: 6,
            ..LhrConfig::default()
        },
    );
    let lhr_hit = Simulator::new(config.clone())
        .run(&mut lhr, &trace)
        .metrics
        .object_hit_ratio();
    let mut lru = Lru::new(capacity);
    let lru_hit = Simulator::new(config)
        .run(&mut lru, &trace)
        .metrics
        .object_hit_ratio();
    assert!(
        lhr_hit > lru_hit,
        "LHR {lhr_hit} ≤ LRU {lru_hit} on Syn One"
    );
}

#[test]
fn bounds_are_monotone_in_capacity() {
    let trace = zipf_trace(7, 200, 6_000);
    let caps: Vec<u64> = (1..=4)
        .map(|k| (trace.total_bytes() / 100) as u64 * k)
        .collect();
    for bound in [
        &BeladySize as &dyn OfflineBound,
        &PfooUpper,
        &Hro::default(),
    ] {
        let mut prev = 0;
        for &c in &caps {
            let hits = bound.evaluate(&trace, c).hits;
            assert!(
                hits + 50 >= prev, // small slack: HRO windows shift with capacity
                "{} not (approximately) monotone at cap {c}: {hits} < {prev}",
                bound.name()
            );
            prev = hits.max(prev);
        }
    }
}

#[test]
fn server_report_is_consistent_with_simulator_metrics() {
    use lhr_repro::proto::{CdnServer, ServerConfig};
    let trace = zipf_trace(8, 200, 5_000);
    let capacity = (trace.total_bytes() / 20) as u64;

    // Same policy, same trace: the server's hit% must match the simulator's
    // (freshness disabled so the serving path does not diverge).
    let mut sim_policy = Lru::new(capacity);
    let sim_result = Simulator::new(SimConfig::default()).run(&mut sim_policy, &trace);

    let server_config = ServerConfig {
        freshness_secs: None,
        ..ServerConfig::default()
    };
    let mut server = CdnServer::new(Lru::new(capacity), server_config);
    let report = server.replay(&trace);

    let sim_hit = sim_result.metrics.object_hit_ratio() * 100.0;
    assert!(
        (report.content_hit_pct - sim_hit).abs() < 1e-9,
        "server {} vs simulator {}",
        report.content_hit_pct,
        sim_hit
    );
    // WAN bytes must equal miss bytes.
    let wan_bytes = report.wan_gbps * trace.duration().as_secs_f64() * 1e9 / 8.0;
    let expected = (sim_result.metrics.bytes_requested - sim_result.metrics.bytes_hit) as f64;
    assert!(
        (wan_bytes - expected).abs() / expected < 1e-6,
        "WAN {wan_bytes} vs misses {expected}"
    );
}

#[test]
fn hro_tracks_lfu_like_optimum_on_irm() {
    // On an IRM trace with equal sizes, the hazard ordering is the LFU
    // ordering; HRO must therefore be at least as good as what LFU-DA
    // achieves online.
    let trace = IrmConfig::new(300, 20_000)
        .zipf_alpha(1.0)
        .size_model(SizeModel::Fixed { bytes: 1_000 })
        .seed(9)
        .generate();
    let capacity = 60_000u64;
    let hro = Hro::default().evaluate(&trace, capacity).hits;
    let mut lfuda = LfuDa::new(capacity);
    let lfu_hits = Simulator::new(SimConfig::default())
        .run(&mut lfuda, &trace)
        .metrics
        .hits;
    assert!(hro >= lfu_hits, "HRO {hro} < LFU-DA {lfu_hits}");
}

#[test]
fn ablations_expose_their_knobs() {
    let trace = zipf_trace(10, 400, 30_000);
    let capacity = (trace.total_bytes() / 150) as u64;
    let mut d_lhr = LhrCache::new(capacity, LhrConfig::d_lhr());
    Simulator::new(SimConfig::default()).run(&mut d_lhr, &trace);
    assert_eq!(d_lhr.stats().final_threshold, 0.5);

    let mut n_lhr = LhrCache::new(capacity, LhrConfig::n_lhr());
    Simulator::new(SimConfig::default()).run(&mut n_lhr, &trace);
    let stats = n_lhr.stats();
    assert_eq!(stats.trainings, stats.windows);
}

#[test]
fn trace_roundtrip_preserves_simulation_results() {
    use lhr_repro::trace::io;
    let trace = zipf_trace(11, 100, 3_000);
    let mut csv = Vec::new();
    io::write_csv(&trace, &mut csv).expect("serialize");
    let back = io::read_csv(&csv[..], trace.name.clone()).expect("parse");
    let capacity = (trace.total_bytes() / 30) as u64;
    let run = |t: &Trace| {
        let mut p = Lru::new(capacity);
        Simulator::new(SimConfig::default())
            .run(&mut p, t)
            .metrics
            .hits
    };
    assert_eq!(run(&trace), run(&back));
}

#[test]
fn oversized_objects_never_enter_any_policy() {
    let mut trace = Trace::new("oversized");
    for i in 0..100u64 {
        trace.push(Request::new(Time::from_secs(i), i % 5, 10_000));
    }
    let capacity = 5_000u64; // every object is too large
    for mut policy in all_policies(capacity, 12, &trace) {
        let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
        assert_eq!(result.metrics.hits, 0, "{}", result.policy);
        assert_eq!(policy.used_bytes(), 0, "{}", result.policy);
    }
}

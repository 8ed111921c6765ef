//! Sharded-engine integration tests: the determinism contract end-to-end.
//!
//! The contract (ARCHITECTURE.md, "Determinism contract"): with a fixed
//! seed, the engine's stable report and the full `--obs` export are
//! byte-identical at any thread count, under a fault-free origin and under
//! fault presets alike.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::{Obs, ObsConfig, ObsWindow};
use lhr_repro::policies::Lru;
use lhr_repro::proto::{presets, EngineConfig, ShardedEngine};
use lhr_repro::sim::shard::{shard_seed, RouteConfig};
use lhr_repro::sim::{SimConfig, Simulator};
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Trace;

fn zipf_trace(seed: u64) -> Trace {
    IrmConfig::new(300, 20_000)
        .zipf_alpha(1.0)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 100_000,
        })
        .seed(seed)
        .generate()
}

fn deterministic_obs() -> Obs {
    Obs::new(ObsConfig {
        window: ObsWindow::Requests(2_000),
        deterministic: true,
        ..ObsConfig::default()
    })
}

/// One engine replay of the shared trace: LRU shards, the given fault
/// preset, and an attached recorder. Returns (stable report, obs export).
fn run_engine(trace: &Trace, threads: usize, preset: &str) -> (String, String) {
    let server = presets::fault_preset(preset, 7, trace.duration().as_secs_f64())
        .expect("known fault preset");
    let config = EngineConfig {
        total_capacity: 2 << 20,
        n_shards: 8,
        route: RouteConfig { threads },
        server,
    };
    let obs = deterministic_obs();
    let engine = ShardedEngine::new(config).with_obs(obs.clone());
    let report = engine.replay(trace, |_shard, capacity, _obs| Lru::new(capacity));
    (report.stable_json(), obs.to_jsonl())
}

#[test]
fn engine_report_and_obs_are_byte_identical_across_threads_fault_free() {
    let trace = zipf_trace(3);
    let (report1, obs1) = run_engine(&trace, 1, "none");
    for threads in [2usize, 4, 8] {
        let (report, obs) = run_engine(&trace, threads, "none");
        assert_eq!(report1, report, "report differs at {threads} threads");
        assert_eq!(obs1, obs, "obs export differs at {threads} threads");
    }
    assert!(
        report1.contains("\"threads\":0"),
        "stable report zeroes threads"
    );
    assert!(obs1.contains("\"record\":\"window\""), "{obs1}");
}

#[test]
fn engine_report_and_obs_are_byte_identical_across_threads_flaky_origin() {
    let trace = zipf_trace(5);
    let (report1, obs1) = run_engine(&trace, 1, "flaky");
    for threads in [2usize, 4, 8] {
        let (report, obs) = run_engine(&trace, threads, "flaky");
        assert_eq!(report1, report, "report differs at {threads} threads");
        assert_eq!(obs1, obs, "obs export differs at {threads} threads");
    }
    // The flaky preset actually exercises the hardened path.
    assert!(
        report1.contains("\"retries\":") && !report1.contains("\"retries\":0,"),
        "{report1}"
    );
}

#[test]
fn engine_with_learned_policy_is_byte_identical_across_threads() {
    let trace = zipf_trace(9);
    let run = |threads: usize| {
        let config = EngineConfig {
            total_capacity: 2 << 20,
            n_shards: 4,
            route: RouteConfig { threads },
            ..EngineConfig::new(2 << 20)
        };
        ShardedEngine::new(config)
            .replay(&trace, |shard, capacity, _obs| {
                let seed = shard_seed(LhrConfig::default().seed, shard);
                LhrCache::new(
                    capacity,
                    LhrConfig {
                        seed,
                        ..LhrConfig::default()
                    },
                )
            })
            .stable_json()
    };
    assert_eq!(run(1), run(4));
}

/// Two IRM halves with very different Zipf exponents over one object
/// population — the α shift makes every shard's detector fire, so a
/// retraining is actually fit and swapped in mid-replay.
fn shifting_alpha_trace() -> Trace {
    use lhr_repro::trace::{Request, Time};
    let half = |alpha: f64, seed: u64| {
        IrmConfig::new(400, 25_000)
            .zipf_alpha(alpha)
            .size_model(SizeModel::Fixed { bytes: 2_000 })
            .seed(seed)
            .generate()
    };
    let a = half(0.5, 3);
    let b = half(1.3, 4);
    let offset = a.duration().as_micros() + 1_000_000;
    let mut out = Trace::new("alpha-shift");
    for r in &a {
        out.push(Request::new(r.ts, r.id, r.size));
    }
    for r in &b {
        out.push(Request::new(
            Time::from_micros(r.ts.as_micros() + offset),
            r.id,
            r.size,
        ));
    }
    out.validate().expect("seam must preserve trace invariants");
    out
}

#[test]
fn engine_with_pinned_retraining_is_byte_identical_across_threads() {
    // The retraining contract: a retraining is scheduled at one window
    // edge and fit and installed on the serving thread at the next — pinned
    // to window *indices*, never wall-clock — so while shards swap models
    // on parallel workers, the stable report and the obs export stay
    // byte-identical at any thread count.
    let trace = shifting_alpha_trace();
    let run = |threads: usize| {
        let config = EngineConfig {
            total_capacity: 160_000,
            n_shards: 4,
            route: RouteConfig { threads },
            ..EngineConfig::new(160_000)
        };
        let obs = deterministic_obs();
        let engine = ShardedEngine::new(config).with_obs(obs.clone());
        let lhr = LhrConfig {
            // Small per-shard windows so each shard sees several window
            // edges: bootstrap inline, then detection-gated retrainings
            // installed one edge after they are scheduled.
            min_window_requests: 2_048,
            ..LhrConfig::default()
        };
        let report = engine.replay(&trace, |shard, capacity, obs| {
            let seed = shard_seed(lhr.seed, shard);
            let cache = LhrCache::new(
                capacity,
                LhrConfig {
                    seed,
                    ..lhr.clone()
                },
            );
            match obs {
                Some(o) => cache.with_obs(o.clone()),
                None => cache,
            }
        });
        (report.stable_json(), obs.to_jsonl())
    };
    let (report1, obs1) = run(1);
    assert!(
        obs1.contains("\"kind\":\"ModelSwap\""),
        "no model swap happened — the test isn't exercising \
         retraining; events:\n{obs1}"
    );
    for threads in [2usize, 4, 8] {
        let (report, obs) = run(threads);
        assert_eq!(report1, report, "report differs at {threads} threads");
        assert_eq!(obs1, obs, "obs export differs at {threads} threads");
    }
}

#[test]
fn sharded_simulator_obs_is_byte_identical_across_threads() {
    let trace = zipf_trace(13);
    let run = |threads: usize| {
        let obs = deterministic_obs();
        let sim = Simulator::new(SimConfig {
            warmup_requests: 1_000,
        })
        .with_obs(obs.clone());
        let result = sim.run_sharded(&trace, 8, &RouteConfig { threads }, |_, _| {
            Lru::new(256 << 10)
        });
        (result.stable_json(), obs.to_jsonl())
    };
    let baseline = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(baseline, run(threads), "differs at {threads} threads");
    }
}

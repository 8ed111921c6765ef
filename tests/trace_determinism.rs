//! Request-path tracing and SLO determinism, end-to-end: with
//! `trace_sample` set, the sampled trace set, the per-window exemplar
//! marks, and the synthesized SLO breach/recovery events are all pure
//! functions of the replayed trace — so the whole `--obs` export stays
//! byte-identical at threads 1, 2, and 8 (the determinism contract's
//! seventh clause, ARCHITECTURE.md).

use lhr_repro::obs::slo::SloObjective;
use lhr_repro::obs::{Obs, ObsConfig, ObsRecord, ObsWindow};
use lhr_repro::policies::Lru;
use lhr_repro::proto::{
    presets, EngineConfig, FleetConfig, FleetEngine, NodeFaultConfig, ShardedEngine,
};
use lhr_repro::sim::shard::RouteConfig;
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

fn traced_obs() -> Obs {
    Obs::new(ObsConfig {
        window: ObsWindow::Requests(2_000),
        deterministic: true,
        trace_sample: 64,
        slos: vec![
            SloObjective::Availability(99.9),
            SloObjective::P99Ms(10_000.0),
        ],
        ..ObsConfig::default()
    })
}

fn run_engine(trace: &Trace, threads: usize, preset: &str, capacity: u64) -> String {
    let server = presets::fault_preset(preset, 7, trace.duration().as_secs_f64())
        .expect("known fault preset");
    let config = EngineConfig {
        total_capacity: capacity,
        n_shards: 8,
        route: RouteConfig { threads },
        server,
    };
    let obs = traced_obs();
    let engine = ShardedEngine::new(config).with_obs(obs.clone());
    engine.replay(trace, |_shard, capacity, _obs| Lru::new(capacity));
    obs.to_jsonl()
}

fn run_fleet(trace: &Trace, threads: usize, preset: &str) -> String {
    let mut config = FleetConfig::new(2 << 20);
    config.node_faults =
        NodeFaultConfig::preset(preset, 7, config.n_nodes, trace.duration().as_secs_f64())
            .expect("known preset");
    config.route.threads = threads;
    let obs = traced_obs();
    let engine = FleetEngine::new(config).with_obs(obs.clone());
    engine.replay(trace, |_node, _shard, capacity, _obs| Lru::new(capacity));
    obs.to_jsonl()
}

/// Parses an export and returns (trace records, exemplar count, SLO events).
fn dissect(jsonl: &str) -> (Vec<lhr_repro::obs::TraceRecord>, usize, usize) {
    let mut traces = Vec::new();
    let mut slo_events = 0usize;
    for line in jsonl.lines() {
        match ObsRecord::parse_line(line).expect("every export line parses") {
            ObsRecord::Trace(t) => traces.push(t),
            ObsRecord::Event(e) => {
                if matches!(
                    e.kind,
                    lhr_repro::obs::EventKind::SloBreach | lhr_repro::obs::EventKind::SloRecover
                ) {
                    slo_events += 1;
                }
            }
            _ => {}
        }
    }
    let exemplars = traces.iter().filter(|t| t.exemplar).count();
    (traces, exemplars, slo_events)
}

#[test]
fn engine_traced_export_is_byte_identical_across_threads() {
    let trace = zipf_trace(11);
    let one = run_engine(&trace, 1, "flaky", 2 << 20);
    for threads in [2usize, 8] {
        let other = run_engine(&trace, threads, "flaky", 2 << 20);
        assert_eq!(one, other, "traced export differs at {threads} threads");
    }
    let (traces, exemplars, _) = dissect(&one);
    assert!(
        !traces.is_empty(),
        "1/64 sampling over 20k requests must sample something"
    );
    // Trace ids are global request indices, sorted and unique.
    let ids: Vec<u64> = traces.iter().map(|t| t.id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(ids, sorted, "traces sorted by unique global id");
    assert!(exemplars > 0, "exemplar marks survive the merge");
    assert!(
        traces.iter().all(|t| !t.steps.is_empty()),
        "every sampled request records at least its edge lookup"
    );
    assert!(one.contains("\"trace_sample\":64"), "meta carries the rate");
}

#[test]
fn fleet_traced_export_is_byte_identical_across_threads_under_node_faults() {
    let trace = zipf_trace(13);
    for preset in ["none", "node-brownout"] {
        let one = run_fleet(&trace, 1, preset);
        for threads in [2usize, 8] {
            let other = run_fleet(&trace, threads, preset);
            assert_eq!(
                one, other,
                "{preset}: traced export differs at {threads} threads"
            );
        }
        let (traces, exemplars, _) = dissect(&one);
        assert!(!traces.is_empty(), "{preset}: sampling found nothing");
        assert!(exemplars > 0, "{preset}: no exemplar marks");
        // Every fleet trace starts with routing-level steps.
        assert!(
            traces.iter().all(|t| t
                .steps
                .iter()
                .any(|s| s.step == "edge_lookup" || s.step == "failover")),
            "{preset}: fleet traces carry routing steps"
        );
    }
}

/// The SLO engine sees the merged window series: under a fault preset
/// that errors requests, a tight availability objective synthesizes
/// breach events, identically at any thread count (covered above by the
/// byte-compare) and deterministically across repeated exports.
///
/// The cache is kept far below the working set so mid-outage misses must
/// reach the dead origin — with a fitting cache, stale-if-error rescues
/// nearly every request and the objective is (correctly) met.
#[test]
fn slo_events_are_deterministic_and_present_under_faults() {
    let trace = zipf_trace(17);
    let jsonl = run_engine(&trace, 4, "outage", 64 << 10);
    let (_, _, slo_events) = dissect(&jsonl);
    assert!(
        slo_events > 0,
        "an outage preset vs avail:99.9 must synthesize SLO events"
    );
    let again = run_engine(&trace, 4, "outage", 64 << 10);
    assert_eq!(jsonl, again, "repeated replay re-synthesizes identically");
    // Fault-free runs at the same objectives stay quiet.
    let calm = run_engine(&trace, 4, "none", 64 << 10);
    let (_, _, calm_events) = dissect(&calm);
    assert_eq!(calm_events, 0, "no SLO events without faults");
}

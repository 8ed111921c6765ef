//! Fleet chaos suite: replays traces across the N-node consistent-hash
//! fleet under node-level fault presets and asserts the contract from
//! ARCHITECTURE.md — reports and obs exports byte-identical at any thread
//! count, availability above the analytic floor when a node is hard-down,
//! and failover that moves only the ring-adjacent key range.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::{Obs, ObsConfig};
use lhr_repro::policies::Lru;
use lhr_repro::proto::{FleetConfig, FleetEngine, FleetReport, HashRing, NodeFaultConfig};
use lhr_repro::sim::shard::shard_seed;
use lhr_repro::trace::{Request, Time, Trace};

const MB: u64 = 1 << 20;

/// A mixed synthetic trace with skewed popularity and varied sizes,
/// expanded deterministically from `seed` (xorshift, as in chaos.rs).
fn mixed_trace(n: u64, seed: u64) -> Trace {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut trace = Trace::new("mixed");
    for i in 0..n {
        let id = if next() % 2 == 0 {
            next() % 16
        } else {
            16 + next() % 400
        };
        let size = (id % 7 + 1) * 100_000;
        trace.push(Request::new(Time::from_secs(i), id, size));
    }
    trace
}

fn fleet_config(trace: &Trace, preset: &str) -> FleetConfig {
    let mut config = FleetConfig::new(48 * MB);
    config.node_faults =
        NodeFaultConfig::preset(preset, 7, config.n_nodes, trace.duration().as_secs_f64())
            .expect("known preset");
    config
}

fn replay_lru(
    mut config: FleetConfig,
    trace: &Trace,
    threads: usize,
    obs: Option<&Obs>,
) -> FleetReport {
    config.route.threads = threads;
    let mut engine = FleetEngine::new(config);
    if let Some(o) = obs {
        engine = engine.with_obs(o.clone());
    }
    engine.replay(trace, |_node, _shard, capacity, _obs| Lru::new(capacity))
}

fn replay_lhr(
    mut config: FleetConfig,
    trace: &Trace,
    threads: usize,
    obs: Option<&Obs>,
) -> FleetReport {
    config.route.threads = threads;
    let mut engine = FleetEngine::new(config);
    if let Some(o) = obs {
        engine = engine.with_obs(o.clone());
    }
    engine.replay(trace, |node, shard, capacity, _obs| {
        LhrCache::new(
            capacity,
            LhrConfig {
                seed: shard_seed(shard_seed(9, node), shard),
                min_window_requests: 64,
                ..LhrConfig::default()
            },
        )
    })
}

/// The determinism contract: report and obs export are byte-identical at
/// threads 1, 2, 4 and 8 for every fault preset × policy combination.
#[test]
fn fleet_reports_and_obs_are_byte_identical_across_thread_counts() {
    let trace = mixed_trace(4_000, 23);
    for preset in ["none", "node-brownout", "node-churn"] {
        for policy in ["lru", "lhr"] {
            let run = |threads: usize| {
                let obs = Obs::new(ObsConfig {
                    deterministic: true,
                    ..ObsConfig::default()
                });
                let config = fleet_config(&trace, preset);
                let report = match policy {
                    "lru" => replay_lru(config, &trace, threads, Some(&obs)),
                    _ => replay_lhr(config, &trace, threads, Some(&obs)),
                };
                (report.stable_json(), obs.to_jsonl())
            };
            let (report1, obs1) = run(1);
            for threads in [2usize, 4, 8] {
                let (report, obs) = run(threads);
                assert_eq!(report1, report, "{preset}/{policy}: threads 1 vs {threads}");
                assert_eq!(obs1, obs, "{preset}/{policy}: obs threads 1 vs {threads}");
            }
        }
    }
}

/// With one of N nodes hard-down for the whole trace, ring-successor
/// failover keeps every request routable, so availability stays at or
/// above the analytic floor — the worst case where every request owned
/// by the dead node during its downtime is lost:
/// `100 × (1 − share_of_keyspace × down_fraction)`.
#[test]
fn fleet_availability_floor_holds_with_one_node_hard_down() {
    let trace = mixed_trace(4_000, 31);
    let duration = trace.duration().as_secs_f64();

    let calm = replay_lru(fleet_config(&trace, "none"), &trace, 2, None);

    let mut config = fleet_config(&trace, "none");
    config.node_faults = NodeFaultConfig {
        seed: 7,
        windows: vec![(0, 0.0, duration + 1.0)],
        cold_restart: false,
    };
    let down = replay_lru(config, &trace, 2, None);

    // The dead node's keyspace share, measured from the calm run.
    let total: u64 = calm.per_node_requests.iter().sum();
    let share = calm.per_node_requests[0] as f64 / total as f64;
    let floor = 100.0 * (1.0 - share);
    assert!(
        down.availability_pct >= floor,
        "availability {:.3}% below analytic floor {:.3}%",
        down.availability_pct,
        floor
    );
    // Failover actually routes around the dead node: nothing unroutable,
    // no node-loss errors (the origin is healthy in this scenario).
    assert_eq!(down.unrouted, 0, "three live nodes must cover the keyspace");
    assert!(down.failovers > 0, "the dead node's keys must fail over");
    assert_eq!(
        down.per_node_requests[0], 0,
        "a hard-down node serves nothing"
    );
    assert!(
        down.availability_pct >= 99.9,
        "failover should keep availability near-perfect, got {:.3}%",
        down.availability_pct
    );
    // Offload degrades gracefully, not catastrophically: the surviving
    // nodes absorb the dead node's working set at reduced per-key capacity.
    assert!(
        down.origin_offload_pct >= calm.origin_offload_pct - 25.0,
        "offload collapsed: calm {:.2}% vs down {:.2}%",
        calm.origin_offload_pct,
        down.origin_offload_pct
    );

    // The node-brownout preset (1 of 4 nodes down for the middle 30 % of
    // the trace, warm rejoin) meets the same floor with its partial down
    // fraction, and keeps offload within the graceful-degradation band.
    let brown = replay_lru(fleet_config(&trace, "node-brownout"), &trace, 2, None);
    let browned = brown
        .per_node_requests
        .iter()
        .zip(&calm.per_node_requests)
        .position(|(b, c)| b < c)
        .expect("one node must have lost traffic to the brownout");
    let share = calm.per_node_requests[browned] as f64 / total as f64;
    let floor = 100.0 * (1.0 - share * 0.3);
    assert!(
        brown.availability_pct >= floor,
        "brownout availability {:.3}% below analytic floor {:.3}%",
        brown.availability_pct,
        floor
    );
    assert_eq!(brown.unrouted, 0);
    assert!(brown.failovers > 0, "brownout must trigger failovers");
    assert!(
        brown.origin_offload_pct >= calm.origin_offload_pct - 25.0,
        "brownout offload collapsed: calm {:.2}% vs brownout {:.2}%",
        calm.origin_offload_pct,
        brown.origin_offload_pct
    );
}

/// Consistent hashing's bounded-rehash property, end to end: taking one
/// node down moves only the keys that node owned — every other key keeps
/// its primary owner.
#[test]
fn fleet_failover_moves_only_the_ring_adjacent_range() {
    let ring = HashRing::new(5, 64);
    for dead in 0..5usize {
        let mut moved = 0u32;
        for id in 0..10_000u64 {
            let primary = ring.primary(id);
            let rerouted = ring.node_for(id, |n| n != dead).expect("4 of 5 live");
            if primary == dead {
                assert_ne!(rerouted, dead, "id {id} routed to the dead node");
                moved += 1;
            } else {
                assert_eq!(
                    rerouted, primary,
                    "id {id}: losing node {dead} must not move keys owned by node {primary}"
                );
            }
        }
        assert!(moved > 0, "node {dead} owned no keys at all");
    }
}

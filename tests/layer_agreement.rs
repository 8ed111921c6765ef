//! Layer agreement: in their degenerate configurations the four replay
//! layers are the same cache. With an infallible origin and no freshness
//! lifetime, `Simulator` ≡ `CdnServer` ≡ `ShardedEngine(shards = 1)` ≡
//! `FleetEngine(nodes = 1, shards = 1, no shield, no peer hints)` on
//! measured requests, hits and WAN bytes, for a classic and the learned
//! policy — and the single-threaded server *is* the engine at one shard,
//! field for field and trace stamp for trace stamp, as the plain simulator
//! run *is* the sharded run at one shard.
//!
//! Counts are compared through the reports' derived floats: every layer
//! computes `hits / measured × 100` and `wan_bytes × 8 / duration / 1e9`
//! with the same expression, so the floats are equal exactly when the
//! integers are.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::{Obs, ObsConfig, ObsWindow};
use lhr_repro::policies::Lru;
use lhr_repro::proto::{
    CdnServer, EngineConfig, FleetConfig, FleetEngine, ServerConfig, ServerReport, ShardedEngine,
};
use lhr_repro::sim::shard::RouteConfig;
use lhr_repro::sim::{CachePolicy, SimConfig, Simulator};
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Trace;

const CAPACITY: u64 = 1 << 20;
const WARMUP: usize = 500;

fn trace() -> Trace {
    IrmConfig::new(600, 8_000)
        .zipf_alpha(0.9)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 100_000,
        })
        .seed(17)
        .generate()
}

fn policy(name: &str) -> Box<dyn CachePolicy + Send> {
    match name {
        "lru" => Box::new(Lru::new(CAPACITY)),
        _ => Box::new(LhrCache::new(
            CAPACITY,
            LhrConfig {
                seed: 5,
                min_window_requests: 64,
                ..LhrConfig::default()
            },
        )),
    }
}

/// No faults, no freshness lifetime. `coalesce` stays a parameter: a miss
/// that joins an in-flight fetch moves no WAN bytes, and the simulator has
/// no notion of a fetch being in flight.
fn server_config(coalesce: bool) -> ServerConfig {
    let mut config = ServerConfig {
        freshness_secs: None,
        warmup_requests: WARMUP,
        deterministic: true,
        ..ServerConfig::default()
    };
    config.resilience.coalesce = coalesce;
    config
}

fn engine_report(trace: &Trace, name: &str, config: ServerConfig, threads: usize) -> ServerReport {
    let engine = ShardedEngine::new(EngineConfig {
        n_shards: 1,
        route: RouteConfig { threads },
        server: config,
        ..EngineConfig::new(CAPACITY)
    });
    let report = engine.replay(trace, |_shard, capacity, _obs| {
        assert_eq!(capacity, CAPACITY, "one shard holds the whole cache");
        policy(name)
    });
    assert_eq!(report.per_shard_requests, [trace.len() as u64]);
    report.report
}

/// (measured requests, edge hit %, WAN Gbps) of the one-node fleet.
fn fleet_figures(trace: &Trace, name: &str, config: ServerConfig) -> (u64, f64, f64) {
    let mut fleet = FleetConfig::new(CAPACITY);
    fleet.n_nodes = 1;
    fleet.n_shards = 1;
    fleet.shield_capacity = 0;
    fleet.peer_hints = false;
    fleet.server = config;
    let report = FleetEngine::new(fleet).replay(trace, |_node, _shard, capacity, _obs| {
        assert_eq!(capacity, CAPACITY, "one slice holds the whole cache");
        policy(name)
    });
    assert_eq!(report.failovers + report.unrouted + report.peer_hits, 0);
    assert_eq!(report.shield_hit_pct, 0.0, "a zero-byte shield never hits");
    (report.requests, report.edge_hit_pct, report.wan_gbps)
}

#[test]
fn simulator_server_engine_and_fleet_agree_on_requests_hits_and_wan() {
    let trace = trace();
    let duration = trace.duration().as_secs_f64();
    for name in ["lru", "lhr"] {
        let sim = Simulator::new(SimConfig {
            warmup_requests: WARMUP,
        })
        .run(&mut policy(name), &trace)
        .metrics;
        let measured = (trace.len() - WARMUP) as u64;
        assert_eq!(sim.requests, measured);
        assert!(sim.hits > 0 && sim.hits < measured, "{name}: a real mix");
        let sim_hit_pct = sim.hits as f64 / measured as f64 * 100.0;
        let sim_wan_gbps = (sim.bytes_requested - sim.bytes_hit) as f64 * 8.0 / duration / 1e9;

        for coalesce in [false, true] {
            let config = server_config(coalesce);
            let server = CdnServer::new(policy(name), config.clone()).replay(&trace);
            let engine = engine_report(&trace, name, config.clone(), 1);
            let (fleet_requests, fleet_hit_pct, fleet_wan_gbps) =
                fleet_figures(&trace, name, config);
            let case = format!("{name}, coalesce {coalesce}");

            assert_eq!(fleet_requests, measured, "{case}");
            assert_eq!(server.content_hit_pct, sim_hit_pct, "{case}: server hits");
            assert_eq!(engine.content_hit_pct, sim_hit_pct, "{case}: engine hits");
            assert_eq!(fleet_hit_pct, sim_hit_pct, "{case}: fleet hits");
            assert_eq!(engine.wan_gbps, server.wan_gbps, "{case}: engine WAN");
            assert_eq!(fleet_wan_gbps, server.wan_gbps, "{case}: fleet WAN");
            if coalesce {
                assert!(server.wan_gbps <= sim_wan_gbps, "{case}: joins save WAN");
            } else {
                assert_eq!(server.wan_gbps, sim_wan_gbps, "{case}: WAN is miss bytes");
                assert_eq!(server.coalesced_fetches, 0, "{case}");
            }
            assert_eq!(server.availability_pct, 100.0, "{case}: infallible origin");
        }
    }
}

/// The deterministic single-threaded server and the one-shard engine are
/// the same loop: every `ServerReport` field but the name matches, under
/// the default serving path (freshness, coalescing) too.
#[test]
fn deterministic_server_is_the_engine_at_one_shard() {
    let trace = trace();
    for name in ["lru", "lhr"] {
        for config in [
            server_config(true),
            ServerConfig {
                warmup_requests: WARMUP,
                deterministic: true,
                freshness_secs: Some(20.0),
                ..ServerConfig::default()
            },
        ] {
            let server = CdnServer::new(policy(name), config.clone()).replay(&trace);
            // One shard is the partition's identity path (the trace itself,
            // no index), whatever the thread count asked for.
            for threads in [1usize, 2] {
                let engine = engine_report(&trace, name, config.clone(), threads);
                assert_eq!(engine.name, format!("engine({})x1", server.name));
                let renamed = ServerReport {
                    name: server.name.clone(),
                    ..engine
                };
                assert_eq!(
                    renamed.stable_json(),
                    server.stable_json(),
                    "{name}: server vs engine(shards = 1, threads = {threads})"
                );
            }
        }
    }
}

/// Both stamp a sampled request trace with the window the request was
/// counted in. Every measured request traced, five-request windows: the
/// request that fills a window carries that window's index — not the next
/// one's — in the single server and in the engine shard alike, and the two
/// hold equal traces and equal windows.
#[test]
fn server_and_one_shard_engine_stamp_traces_with_the_window_they_were_counted_in() {
    let trace = trace();
    let recorder = || {
        Obs::new(ObsConfig {
            window: ObsWindow::Requests(5),
            deterministic: true,
            trace_sample: 1,
            ..ObsConfig::default()
        })
    };
    let single = recorder();
    CdnServer::new(policy("lru"), server_config(true))
        .with_obs(single.clone())
        .replay(&trace);
    let sharded = recorder();
    ShardedEngine::new(EngineConfig {
        n_shards: 1,
        route: RouteConfig { threads: 1 },
        server: server_config(true),
        ..EngineConfig::new(CAPACITY)
    })
    .with_obs(sharded.clone())
    .replay(&trace, |_, _, _| policy("lru"));

    let traces = single.traces();
    assert_eq!(traces.len(), trace.len() - WARMUP);
    for (measured, t) in traces.iter().enumerate() {
        assert_eq!(t.id, (WARMUP + measured) as u64);
        assert_eq!(t.window, measured as u64 / 5, "trace {}", t.id);
    }
    assert_eq!(sharded.traces(), traces);
    assert_eq!(sharded.windows(), single.windows());
}

/// `Simulator::run` and `Simulator::run_sharded` are two front ends of one
/// step: at one shard they agree on every counter, the eviction count, the
/// metadata peak (sampled on the shard's own request count, which at one
/// shard is the global index) and every window record, whatever the thread
/// count asked for.
#[test]
fn sharded_simulator_at_one_shard_is_the_plain_run() {
    let trace = trace();
    let sim = |obs: &Obs| {
        Simulator::new(SimConfig {
            warmup_requests: WARMUP,
        })
        .with_obs(obs.clone())
    };
    let recorder = || {
        Obs::new(ObsConfig {
            window: ObsWindow::Requests(1_000),
            deterministic: true,
            ..ObsConfig::default()
        })
    };
    for name in ["lru", "lhr"] {
        let plain_obs = recorder();
        let plain = sim(&plain_obs).run(&mut policy(name), &trace);
        assert!(plain.evictions > 0, "{name}: the cache is under pressure");
        assert!(plain_obs.windows().len() > 1, "{name}: several windows");
        for threads in [1usize, 2] {
            let obs = recorder();
            let sharded =
                sim(&obs).run_sharded(&trace, 1, &RouteConfig { threads }, |_, _| policy(name));
            let case = format!("{name}, threads {threads}");
            assert_eq!(sharded.policy, format!("sharded({})x1", plain.policy));
            assert_eq!(sharded.metrics, plain.metrics, "{case}");
            assert_eq!(sharded.evictions, plain.evictions, "{case}");
            assert_eq!(
                sharded.peak_metadata_bytes, plain.peak_metadata_bytes,
                "{case}"
            );
            assert_eq!(obs.windows(), plain_obs.windows(), "{case}");
        }
    }
}

//! Golden stable reports **and** deterministic `--obs` exports of the three
//! serving layers — `CdnServer::replay`, `ShardedEngine`, `FleetEngine` —
//! recorded on commit `efc9d2d`, before `crates/proto`'s three replay loops
//! were collapsed into one shard step and one merge. They are what makes
//! "the refactor changed no behaviour" an executable claim instead of an
//! argument.
//!
//! The files under `tests/golden/serving/` are the parent's bytes,
//! unedited, written by the ignored `record` test below run against the
//! untouched parent tree:
//!
//! ```sh
//! cargo test --release --test serving_golden -- --ignored record
//! ```
//!
//! One edit since: the `.report.json` files of the server and engine cases
//! lost their empty `series` member, and nothing else, when `ServerReport`
//! lost that field (the obs window series is the one hit-ratio time
//! series). Every `.obs.jsonl` is unedited.
//!
//! Every case replays one small fixed-seed Zipf trace (1 000 requests a
//! second, several times the cache in unique bytes, 2 s freshness) with
//! 1 000 warmup requests, `1000r` windows, 1/64 request tracing and the
//! `avail` and `hitratio` SLOs, under LRU and LHR: the single server and
//! the 4-shard engine with a fault-free and a `flaky` origin, the 4-node
//! shielded fleet with those and with `node-churn` over the flaky origin.
//! Engine and fleet are asserted at threads 1, 2, 4 and 8. Only `peak_mem_gb`
//! is masked, as in `tests/lhr_golden.rs`: it reports metadata
//! *accounting*, not behaviour.
//!
//! # Hint expiry (`fleet-expiry-*`, recorded on commit `f3d1962`)
//!
//! The cases above replay 6 s of trace under the default 3 600 s hint TTL,
//! so no peer hint in them ever expires — and the *cadence* of the fleet's
//! expiry sweep is part of the export: an expired hint still in the table
//! when its object is next missed is refused and shows as a
//! `peer_hint{owner, hit:false}` step in a sampled trace, one already swept
//! shows nothing. An amortised sweep ("when the table has doubled" instead
//! of every 512th request of the shard) passed every case above and
//! `tests/fleet.rs`, and changed `lhr-cache fleet` exports. The
//! `fleet-expiry-*` cases are the ones it fails: 50 s of trace (two dozen
//! sweep ticks a shard), `node-churn` over the `flaky` origin, hint TTLs of
//! 0.5 s and 2 s, 1/8 request tracing. The test asserts that refused and
//! accepted `peer_hint` steps both occur in each, so a case cannot silently
//! stop covering the hint path.

mod common;

use common::mask_peak_mem;
use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::slo::SloObjective;
use lhr_repro::obs::{Obs, ObsConfig, ObsWindow};
use lhr_repro::policies::Lru;
use lhr_repro::proto::{
    presets, CdnServer, EngineConfig, FleetConfig, FleetEngine, NodeFaultConfig, ServerConfig,
    ShardedEngine,
};
use lhr_repro::sim::shard::{shard_seed, RouteConfig};
use lhr_repro::sim::CachePolicy;
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Trace;
use std::path::PathBuf;

const CAPACITY: u64 = 1 << 20;
const WARMUP: usize = 1_000;
const SEED: u64 = 42;
const POLICIES: [&str; 2] = ["lru", "lhr"];

/// A fixed-seed Zipf trace at 1 000 requests a second.
fn irm(requests: usize, seed: u64) -> Trace {
    IrmConfig::new(1_000, requests)
        .zipf_alpha(0.9)
        .requests_per_sec(1_000.0)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 100_000,
        })
        .seed(seed)
        .generate()
}

fn trace() -> Trace {
    irm(6_000, 31)
}

/// The expiry cases' trace: the same object population at the same rate,
/// 50 s long, so hints published early are long expired by the end.
fn expiry_trace() -> Trace {
    irm(50_000, 37)
}

fn recorder(trace_sample: u64) -> Obs {
    Obs::new(ObsConfig {
        window: ObsWindow::Requests(1_000),
        deterministic: true,
        trace_sample,
        slos: vec![
            SloObjective::Availability(99.9),
            SloObjective::HitRatio(50.0),
        ],
        ..ObsConfig::default()
    })
}

/// LRU or LHR, the latter attached to the shard recorder as the CLI does.
fn policy(name: &str, capacity: u64, seed: u64, obs: Option<&Obs>) -> Box<dyn CachePolicy + Send> {
    if name == "lru" {
        return Box::new(Lru::new(capacity));
    }
    let mut cache = LhrCache::new(
        capacity,
        LhrConfig {
            seed,
            min_window_requests: 64,
            // The goldens were recorded while LHR re-scored every hit.
            rescore_hits: true,
            ..LhrConfig::default()
        },
    );
    if let Some(obs) = obs {
        cache.set_obs(obs.clone());
    }
    Box::new(cache)
}

/// The named origin preset, tightened so a six-second trace reaches every
/// branch of the hardened path: contents expire after 2 s (synchronous
/// revalidation, stale-while-revalidate inside 0.5 s, stale-if-error
/// beyond), a fetch gives up after one retry, and one failed fetch trips
/// the breaker for 0.1 s (fast-fails, then half-open probes and a close).
fn server_config(trace: &Trace, origin: &str) -> ServerConfig {
    let mut config =
        presets::fault_preset(origin, 7, trace.duration().as_secs_f64()).expect("known preset");
    config.warmup_requests = WARMUP;
    config.freshness_secs = Some(2.0);
    config.resilience.stale_while_revalidate_secs = 0.5;
    config.resilience.retry.max_retries = 1;
    config.resilience.breaker.failure_threshold = 1;
    config.resilience.breaker.open_secs = 0.1;
    config
}

/// One replayed case: (stable report, obs export).
type Case = (String, String);

fn run_server(trace: &Trace, origin: &str, name: &str) -> Case {
    let obs = recorder(64);
    let config = ServerConfig {
        deterministic: true,
        ..server_config(trace, origin)
    };
    let mut server =
        CdnServer::new(policy(name, CAPACITY, SEED, Some(&obs)), config).with_obs(obs.clone());
    (server.replay(trace).stable_json(), obs.to_jsonl())
}

fn run_engine(trace: &Trace, origin: &str, name: &str, threads: usize) -> Case {
    let obs = recorder(64);
    let engine = ShardedEngine::new(EngineConfig {
        total_capacity: CAPACITY,
        n_shards: 4,
        route: RouteConfig { threads },
        server: server_config(trace, origin),
    })
    .with_obs(obs.clone());
    let report = engine.replay(trace, |shard, capacity, shard_obs| {
        policy(name, capacity, shard_seed(SEED, shard), shard_obs)
    });
    (report.stable_json(), obs.to_jsonl())
}

/// `hint_ttl_secs: None` is the default TTL at 1/64 tracing; `Some` is an
/// expiry case at 1/8.
fn run_fleet(
    trace: &Trace,
    origin: &str,
    nodes: &str,
    name: &str,
    threads: usize,
    hint_ttl_secs: Option<f64>,
) -> Case {
    let obs = recorder(if hint_ttl_secs.is_some() { 8 } else { 64 });
    let mut config = FleetConfig::new(CAPACITY);
    if let Some(ttl) = hint_ttl_secs {
        config.hint_ttl_secs = ttl;
    }
    config.n_nodes = 4;
    config.n_shards = 4;
    config.route.threads = threads;
    config.server = server_config(trace, origin);
    config.node_faults = NodeFaultConfig::preset(nodes, 7, 4, trace.duration().as_secs_f64())
        .expect("known node preset");
    assert!(config.shield_capacity > 0, "the shield tier is on");
    let engine = FleetEngine::new(config).with_obs(obs.clone());
    let report = engine.replay(trace, |node, shard, capacity, shard_obs| {
        policy(
            name,
            capacity,
            shard_seed(shard_seed(SEED, node), shard),
            shard_obs,
        )
    });
    (report.stable_json(), obs.to_jsonl())
}

/// Every golden case as `(file stem, threaded, threads → case)`.
#[allow(clippy::type_complexity)]
fn cases<'a>(
    trace: &'a Trace,
    expiry: &'a Trace,
) -> Vec<(String, bool, Box<dyn Fn(usize) -> Case + 'a>)> {
    let mut out: Vec<(String, bool, Box<dyn Fn(usize) -> Case + 'a>)> = Vec::new();
    for name in POLICIES {
        for origin in ["none", "flaky"] {
            out.push((
                format!("server-{origin}-{name}"),
                false,
                Box::new(move |_| run_server(trace, origin, name)),
            ));
            out.push((
                format!("engine-{origin}-{name}"),
                true,
                Box::new(move |threads| run_engine(trace, origin, name, threads)),
            ));
        }
        for (origin, nodes) in [("none", "none"), ("flaky", "none"), ("flaky", "node-churn")] {
            out.push((
                format!("fleet-{origin}-{nodes}-{name}"),
                true,
                Box::new(move |threads| run_fleet(trace, origin, nodes, name, threads, None)),
            ));
        }
        for ttl in [0.5, 2.0] {
            out.push((
                format!("fleet-expiry-ttl{ttl}-{name}"),
                true,
                Box::new(move |threads| {
                    run_fleet(expiry, "flaky", "node-churn", name, threads, Some(ttl))
                }),
            ));
        }
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serving")
}

/// How many `peer_hint` steps of sampled traces carry `"hit":<hit>` (the
/// step's last detail field).
fn peer_hint_steps(export: &str, hit: bool) -> usize {
    let flag = format!("\"hit\":{hit}");
    export
        .split("{\"step\":\"peer_hint\"")
        .skip(1)
        .filter(|rest| {
            rest.split_once("}}")
                .is_some_and(|(step, _)| step.ends_with(&flag))
        })
        .count()
}

/// Writes the golden files. Run against the parent tree only (see the
/// module docs); the committed bytes are never edited by hand.
#[test]
#[ignore = "records tests/golden/serving/ — run against the parent commit"]
fn record() {
    let (trace, expiry) = (trace(), expiry_trace());
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir");
    for (stem, _, run) in cases(&trace, &expiry) {
        let (report, obs) = run(1);
        std::fs::write(dir.join(format!("{stem}.report.json")), report + "\n").expect("write");
        std::fs::write(dir.join(format!("{stem}.obs.jsonl")), obs).expect("write");
    }
}

#[test]
fn serving_reports_and_obs_exports_match_the_parent_goldens() {
    let (trace, expiry) = (trace(), expiry_trace());
    let dir = golden_dir();
    for (stem, threaded, run) in cases(&trace, &expiry) {
        let read = |ext: &str| {
            let path = dir.join(format!("{stem}.{ext}"));
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        let golden_report = mask_peak_mem(read("report.json").trim_end()).0;
        let golden_obs = read("obs.jsonl");
        if stem.starts_with("fleet-expiry") {
            for hit in [true, false] {
                assert!(
                    peer_hint_steps(&golden_obs, hit) > 0,
                    "{stem}: no sampled trace has a peer_hint step with hit:{hit}"
                );
            }
        }
        let thread_counts: &[usize] = if threaded { &[1, 2, 4, 8] } else { &[1] };
        for &threads in thread_counts {
            let (report, obs) = run(threads);
            assert_eq!(
                mask_peak_mem(&report).0,
                golden_report,
                "{stem}: stable report diverged at {threads} threads"
            );
            assert!(
                obs == golden_obs,
                "{stem}: obs export diverged at {threads} threads (first differing line: {:?})",
                obs.lines()
                    .zip(golden_obs.lines())
                    .find(|(a, b)| a != b)
                    .map(|(a, _)| a)
            );
        }
    }
}

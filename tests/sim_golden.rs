//! Golden `SimResult::stable_json()` and deterministic `--obs` exports of
//! the trace-driven simulator — the plain run and the sharded run —
//! recorded on commit `e2d6750`, while `crates/sim` still held two
//! hand-copied replay loops (`Simulator::run` and a second simulator type
//! for the sharded run). They are what makes "the two loops became one step
//! and no byte moved" an executable claim instead of an argument.
//!
//! The files under `tests/golden/sim/` are the parent's bytes, unedited,
//! written by the ignored `record` test below run against the untouched
//! parent tree (with `run_sharded` spelled against the parent's second
//! simulator type):
//!
//! ```sh
//! cargo test --release --test sim_golden -- --ignored record
//! ```
//!
//! One edit since: the `.result.json` files lost their empty `series`
//! member, and nothing else, when `SimResult` lost that field (the obs
//! window series is the one hit-ratio time series); the `-series` cases,
//! which asked for the deleted per-request series, went with it — their
//! obs exports were byte-identical to their twins'. Every `.obs.jsonl` is
//! unedited.
//!
//! Every case replays one small fixed-seed Zipf trace (6 000 requests at
//! 1 000 a second, many times the 256 KiB cache in unique bytes) under LRU and
//! LHR — LHR bypasses admissions (`misses_bypassed`) and emits its own
//! events into whichever recorder it is attached to — with `1000r` windows
//! and with 1.5-second trace-time windows:
//!
//! - the plain run at warmup 0, 1 000 and 10 000 (longer than the trace);
//! - the sharded run at 1 and 8 shards, warmup 1 000 and 10 000, asserted
//!   at threads 1, 2 and 8.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::{Obs, ObsConfig, ObsWindow};
use lhr_repro::policies::Lru;
use lhr_repro::sim::shard::{shard_seed, RouteConfig};
use lhr_repro::sim::{CachePolicy, SimConfig, Simulator};
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Trace;
use std::path::PathBuf;

/// A quarter of the serving goldens' cache: small enough that LHR closes
/// several windows inside 6 000 requests, trains, and starts bypassing.
const CAPACITY: u64 = 256 << 10;
const SEED: u64 = 42;
const POLICIES: [&str; 2] = ["lru", "lhr"];
const WINDOWS: [(&str, ObsWindow); 2] = [
    ("1000r", ObsWindow::Requests(1_000)),
    ("1.5s", ObsWindow::Secs(1.5)),
];

fn trace() -> Trace {
    IrmConfig::new(1_000, 6_000)
        .zipf_alpha(0.9)
        .requests_per_sec(1_000.0)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 100_000,
        })
        .seed(31)
        .generate()
}

fn recorder(window: ObsWindow) -> Obs {
    Obs::new(ObsConfig {
        window,
        deterministic: true,
        ..ObsConfig::default()
    })
}

/// LRU or LHR, the latter attached to the recorder it is handed, as the
/// CLI does (the run's own for the plain run, the shard's for a sharded
/// one).
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

/// One replayed case: (stable result, obs export).
type Case = (String, String);

fn run_plain(trace: &Trace, name: &str, window: ObsWindow, warmup: usize) -> Case {
    let obs = recorder(window);
    let mut policy = policy(name, CAPACITY, SEED, Some(&obs));
    let config = SimConfig {
        warmup_requests: warmup,
    };
    let result = Simulator::new(config)
        .with_obs(obs.clone())
        .run(&mut policy, trace);
    (result.stable_json(), obs.to_jsonl())
}

fn run_sharded(
    trace: &Trace,
    name: &str,
    window: ObsWindow,
    warmup: usize,
    n_shards: usize,
    threads: usize,
) -> Case {
    let obs = recorder(window);
    let shard_capacity = CAPACITY / n_shards as u64;
    let config = SimConfig {
        warmup_requests: warmup,
    };
    let result = Simulator::new(config).with_obs(obs.clone()).run_sharded(
        trace,
        n_shards,
        &RouteConfig { threads },
        |shard, shard_obs| policy(name, shard_capacity, shard_seed(SEED, shard), shard_obs),
    );
    (result.stable_json(), obs.to_jsonl())
}

/// Every golden case as `(file stem, threaded, threads → case)`.
#[allow(clippy::type_complexity)]
fn cases(trace: &Trace) -> Vec<(String, bool, Box<dyn Fn(usize) -> Case + '_>)> {
    let mut out: Vec<(String, bool, Box<dyn Fn(usize) -> Case + '_>)> = Vec::new();
    for name in POLICIES {
        for (tag, window) in WINDOWS {
            for warmup in [0usize, 1_000, 10_000] {
                out.push((
                    format!("run-{name}-{tag}-w{warmup}"),
                    false,
                    Box::new(move |_| run_plain(trace, name, window, warmup)),
                ));
            }
            for n_shards in [1usize, 8] {
                for warmup in [1_000usize, 10_000] {
                    out.push((
                        format!("sharded{n_shards}-{name}-{tag}-w{warmup}"),
                        true,
                        Box::new(move |threads| {
                            run_sharded(trace, name, window, warmup, n_shards, threads)
                        }),
                    ));
                }
            }
        }
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim")
}

/// Writes the golden files. Run against the parent tree only (see the
/// module docs); the committed bytes are never edited by hand.
#[test]
#[ignore = "records tests/golden/sim/ — run against the parent commit"]
fn record() {
    let trace = trace();
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir");
    for (stem, _, run) in cases(&trace) {
        let (result, obs) = run(1);
        std::fs::write(dir.join(format!("{stem}.result.json")), result + "\n").expect("write");
        std::fs::write(dir.join(format!("{stem}.obs.jsonl")), obs).expect("write");
    }
}

#[test]
fn sim_results_and_obs_exports_match_the_parent_goldens() {
    let trace = trace();
    let dir = golden_dir();
    for (stem, threaded, run) in cases(&trace) {
        let read = |ext: &str| {
            let path = dir.join(format!("{stem}.{ext}"));
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        let golden_result = read("result.json");
        let golden_obs = read("obs.jsonl");
        let thread_counts: &[usize] = if threaded { &[1, 2, 8] } else { &[1] };
        for &threads in thread_counts {
            let (result, obs) = run(threads);
            assert_eq!(
                result,
                golden_result.trim_end(),
                "{stem}: stable result diverged at {threads} threads"
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

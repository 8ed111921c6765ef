//! The traced run: the same pipeline the CLI runs, replayed in-process
//! through the crates' public functions with a span around every crate
//! boundary, followed by isolated probes of single layers on the same
//! in-memory trace. Every per-layer number comes from here; the crates
//! themselves are not instrumented.

use crate::e2e::{outputs, write_inputs, Cli, Outputs};
use crate::metrics::{Measured, Outcome, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{median, Summary};
use crate::workload::{engine_replay, fleet_replay, lhr_cache, obs_recorder};
use crate::workload::{Paths, Policy, Workload};
use crate::workload::{CLI_SEED, FLEET_NODES, THREADS};
use lhr::cache::{LhrCache, LhrStats};
use lhr_gbm::{Dataset, Gbm, GbmParams};
use lhr_obs::ObsRecord;
use lhr_policies::Lru;
use lhr_proto::{CdnServer, HashRing, ServerConfig};
use lhr_sim::shard::{route, shard_of, shard_seed, RouteConfig};
use lhr_sim::{CachePolicy, SimConfig, Simulator};
use lhr_trace::Trace;
use lhr_util::rng::rngs::StdRng;
use lhr_util::rng::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Interleaved repetitions a run makes at the least; a timing metric is the
/// minimum over them.
const MIN_ROUNDS: u32 = 5;
/// `lhr-cache stats` invocations on a 10-request file (`cli.startup_ms`).
const STARTUP_SAMPLES: usize = 15;
/// Requests the bare `LhrCache::handle` loop replays: at ≈2 µs a request
/// the whole of trace A would take most of a run by itself.
const CORE_PROBE_REQUESTS: usize = 200_000;
/// Rows × features of the GBM probe's dataset (LHR trains on ≤ 32 768 rows
/// of 20 IRTs + 3 statics).
const GBM_ROWS: usize = 8_192;
const GBM_FEATURES: usize = 23;

/// Inputs the probes reuse across rounds.
struct Fixtures {
    core_trace: Trace,
    gbm_data: Dataset,
    gbm_rows: Vec<Vec<f32>>,
    ring: HashRing,
}

impl Fixtures {
    fn new(trace: &Trace, seed: u64) -> Self {
        let prefix = trace.requests[..trace.len().min(CORE_PROBE_REQUESTS)].to_vec();
        // LHR-shaped rows: ~10 % missing values, binary labels keyed on the
        // first feature (the shape `crates/bench/src/bin/gbm.rs` uses).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gbm_data = Dataset::new(GBM_FEATURES);
        let mut gbm_rows = Vec::with_capacity(GBM_ROWS);
        for _ in 0..GBM_ROWS {
            let row: Vec<f32> = (0..GBM_FEATURES)
                .map(|_| {
                    if rng.gen_bool(0.1) {
                        f32::NAN
                    } else {
                        rng.gen::<f32>() * 10.0
                    }
                })
                .collect();
            let label = if row[0].is_nan() || row[0] > 5.0 {
                1.0
            } else {
                0.0
            };
            gbm_data.push_row(&row, label);
            gbm_rows.push(row);
        }
        Fixtures {
            core_trace: Trace::from_requests("core-probe", prefix),
            gbm_data,
            gbm_rows,
            ring: HashRing::new(FLEET_NODES, 64),
        }
    }
}

/// One pipeline iteration: what `lhr-cache server|fleet … --report R` does
/// between process start and exit, stage by stage, writing the same files.
fn pipeline(w: &Workload, paths: &Paths, spans: &mut Spans) -> Result<(), String> {
    spans.span("pipeline", |s| {
        let trace = s
            .span("trace.read", |_| w.read_trace(paths))
            .map_err(|e| format!("{}: {e}", paths.trace.display()))?;
        s.span("trace.validate", |_| trace.validate())
            .map_err(|e| format!("invalid trace: {e}"))?;
        let obs = w.obs();
        if let Some(obs) = &obs {
            obs.stream_to(&paths.obs)
                .map_err(|e| format!("{}: {e}", paths.obs.display()))?;
        }
        let report = s.span("proto.replay", |_| w.replay(&trace, obs.as_ref()));
        s.span("proto.report_export", |_| {
            std::fs::write(&paths.report, report.stable_json())
        })
        .map_err(|e| format!("{}: {e}", paths.report.display()))?;
        if let Some(obs) = &obs {
            s.span("obs.export", |_| obs.close_stream())
                .map_err(|e| format!("{}: {e}", paths.obs.display()))?;
        }
        Ok(())
    })
}

/// Counts the probes read off reports and recorders; identical every round.
type Counts = Vec<(&'static str, f64)>;

/// Isolated probes of single layers on the in-memory trace. Classic-policy
/// probes always run LRU and the `core.*` probe always runs LHR, whatever
/// the workload's own policy, so a metric means the same on every workload;
/// shard count, capacity and the trace are the workload's.
fn probes(w: &Workload, trace: &Trace, fx: &Fixtures, out: &Path, s: &mut Spans) -> Counts {
    let mut counts: Counts = Vec::new();
    let shard_capacity = (w.capacity / w.shards as u64).max(1);
    let route_config = RouteConfig {
        threads: THREADS,
        ..RouteConfig::default()
    };

    // sim: the router alone (a step that only touches the request), and the
    // single-threaded simulator loop with the workload's policy.
    s.span("sim.route", |_| {
        let sums = route(
            trace,
            vec![0u64; w.shards],
            &route_config,
            |sum, _, _, req| *sum = sum.wrapping_add(req.size),
        );
        black_box(sums);
    });
    let mut policy = w.policy.build(w.capacity, CLI_SEED, None);
    s.span("sim.simulator", |_| {
        black_box(Simulator::new(SimConfig::default()).run(&mut policy, trace));
    });
    drop(policy);

    // policies: the bare lookup/admit loop the serving path wraps, over
    // shard-sized LRU instances partitioned as the engine partitions them.
    let mut lrus: Vec<Lru> = (0..w.shards).map(|_| Lru::new(shard_capacity)).collect();
    let mut metadata_peak = 0u64;
    s.span("policies.handle", |_| {
        for (i, req) in trace.iter().enumerate() {
            let lru = &mut lrus[shard_of(req.id, w.shards)];
            if lru.hit_check(req).is_none() {
                black_box(lru.handle(req));
            }
            if i % 65_536 == 0 {
                metadata_peak =
                    metadata_peak.max(lrus.iter().map(Lru::metadata_overhead_bytes).sum());
            }
        }
    });
    metadata_peak = metadata_peak.max(lrus.iter().map(Lru::metadata_overhead_bytes).sum());
    counts.push((
        "policies.evictions",
        lrus.iter().map(Lru::evictions).sum::<u64>() as f64,
    ));
    counts.push(("policies.metadata_peak_bytes", metadata_peak as f64));
    drop(lrus);

    // core: the bare LHR loop, configured as the CLI configures `--policy
    // LHR` (background retraining on), one instance per shard.
    let mut lhrs: Vec<LhrCache> = (0..w.shards)
        .map(|shard| lhr_cache(shard_capacity, shard_seed(CLI_SEED, shard)))
        .collect();
    s.span("core.handle", |_| {
        for req in fx.core_trace.iter() {
            black_box(lhrs[shard_of(req.id, w.shards)].handle(req));
        }
    });
    let stats: Vec<_> = lhrs.iter().map(LhrCache::stats).collect();
    let total = |field: fn(&LhrStats) -> u64| stats.iter().map(field).sum::<u64>() as f64;
    counts.extend([
        ("core.trainings", total(|s| s.trainings)),
        ("core.windows", total(|s| s.windows)),
        ("core.threshold_updates", total(|s| s.threshold_updates)),
        (
            "core.train_wall_s",
            stats.iter().map(|s| s.train_wall_secs).sum(),
        ),
    ]);
    drop(lhrs);

    // gbm: one LHR-sized fit, then the per-row and the batch scoring path.
    let params = GbmParams {
        n_trees: 25,
        max_depth: 6,
        threads: 1,
        ..GbmParams::default()
    };
    let model = s.span("gbm.fit", |_| Gbm::fit(black_box(&fx.gbm_data), &params));
    s.span("gbm.predict_row", |_| {
        let mut acc = 0f32;
        for row in black_box(&fx.gbm_rows) {
            acc += model.predict(row);
        }
        black_box(acc);
    });
    s.span("gbm.predict_batch", |_| {
        black_box(model.predict_batch(black_box(&fx.gbm_rows), 1));
    });

    // proto: the sharded engine at one thread (as the workloads run it) and
    // at two, one unsharded CdnServer, the fleet, the ring.
    let engine = |threads| engine_replay(trace, Policy::Lru, w.capacity, threads, w.shards, None);
    s.span("proto.engine_t1", |_| black_box(engine(1)));
    let report = s.span("proto.engine_t2", |_| engine(2));
    counts.push(("proto.shard_imbalance", report.shard_imbalance));
    counts.push(("proto.wan_gbps", report.report.wan_gbps));
    // `deterministic` as the engine forces it on its shards, so the two
    // differ by sharding alone and not by two clock reads per request.
    let mut server = CdnServer::new(
        Lru::new(w.capacity),
        ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        },
    );
    s.span("proto.server", |_| black_box(server.replay(trace)));
    drop(server);
    let fleet = s.span("proto.fleet", |_| {
        fleet_replay(trace, Policy::Lru, w.capacity, THREADS, w.shards)
    });
    counts.extend([
        ("proto.retries", fleet.retries as f64),
        ("proto.failovers", fleet.failovers as f64),
        ("proto.peer_hits", fleet.peer_hits as f64),
        ("proto.errors_served", fleet.errors_served as f64),
        ("proto.stale_served", fleet.stale_served as f64),
        ("proto.coalesced_fetches", fleet.coalesced_fetches as f64),
        ("proto.breaker_opens", fleet.breaker_opens as f64),
        ("proto.origin_offload_pct", fleet.origin_offload_pct),
        ("proto.node_imbalance", fleet.node_imbalance),
    ]);
    s.span("proto.ring", |_| {
        let mut acc = 0usize;
        for req in trace.iter() {
            acc += fx.ring.node_for(req.id, |_| true).unwrap_or(0);
        }
        black_box(acc);
    });

    // obs: the engine probe again with the full recorder attached and its
    // export streamed to a file. Overhead is this replay against the
    // recorder-less one-thread engine probe.
    let obs = obs_recorder();
    let export = out.join("probe.obs.jsonl");
    obs.stream_to(&export)
        .expect("probe export file opens in the out directory");
    s.span("obs.engine_replay", |_| {
        black_box(engine_replay(
            trace,
            Policy::Lru,
            w.capacity,
            THREADS,
            w.shards,
            Some(&obs),
        ));
    });
    s.span("obs.close_stream", |_| obs.close_stream())
        .expect("probe export writes to the out directory");
    let records = obs.records();
    let records_of = |tag: &str| records.iter().filter(|r| r.tag() == tag).count() as f64;
    let counter = |wanted: &str| {
        records
            .iter()
            .find_map(|r| match r {
                ObsRecord::Counter { name, value } if name == wanted => Some(*value as f64),
                _ => None,
            })
            .unwrap_or(0.0)
    };
    counts.extend([
        (
            "obs.export_bytes",
            std::fs::metadata(&export).map_or(0, |m| m.len()) as f64,
        ),
        ("obs.windows", records_of("window")),
        ("obs.events", records_of("event")),
        ("obs.traces", records_of("trace")),
        ("obs.traces_dropped", counter("obs.traces_dropped")),
        ("obs.events_dropped", counter("obs.events_dropped")),
    ]);
    counts
}

/// One `lhr-cache` invocation of the workload: its wall time in seconds and
/// what it wrote.
fn cli_once(cli: &mut Cli, w: &Workload, paths: &Paths) -> Result<(f64, Outputs), String> {
    let exit = cli.invoke(w, paths, THREADS)?;
    if !exit.success {
        return Err(format!("{}: lhr-cache invocation failed", w.name));
    }
    Ok((exit.wall_s, outputs(w, paths)?))
}

/// Median wall, in ms, of `lhr-cache stats` on a 10-request trace: process
/// start, argument parsing, one tiny parse, printing, exit.
fn cli_startup_ms(cli: &mut Cli, dir: &Path) -> Result<f64, String> {
    let tiny = dir.join("tiny.csv");
    let trace = lhr_trace::synth::IrmConfig::new(5, 10).seed(1).generate();
    lhr_trace::io::write_csv_file(&trace, &tiny).map_err(|e| format!("{}: {e}", tiny.display()))?;
    let args = ["stats".to_string(), tiny.to_string_lossy().into_owned()];
    let mut walls = Vec::with_capacity(STARTUP_SAMPLES);
    for _ in 0..STARTUP_SAMPLES {
        let exit = cli
            .spawner
            .run(&cli.program, &args, &dir.join("cli.stderr.log"))
            .map_err(|e| format!("{}: {e}", cli.program.display()))?;
        if !exit.success {
            return Err("`lhr-cache stats` on a 10-request trace failed".to_string());
        }
        walls.push(exit.wall_s * 1e3);
    }
    Ok(median(&walls))
}

/// Measures `w`'s layers for about `seconds`.
pub fn run(
    cli: &mut Cli,
    out: &Path,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let paths = w.paths(out);
    let trace = write_inputs(w, &paths, seed)?;
    let requests = trace.len() as f64;
    let file_bytes = std::fs::metadata(&paths.trace).map_or(0, |m| m.len()) as f64;
    let fx = Fixtures::new(&trace, seed);
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // One untimed CLI invocation warms the page cache and fixes the outputs
    // the in-process pipeline must reproduce.
    let cli_outputs = cli_once(cli, w, &paths)?.1;
    let startup_ms = cli_startup_ms(cli, &paths.dir)?;

    // Rounds: one timed CLI invocation, the traced and the untraced
    // pipeline (order alternating), then every probe once. Interleaving
    // keeps the host's minute-scale speed drift common to everything a
    // metric subtracts or divides.
    let mut spans = Spans::new();
    let mut cli_wall_s = Vec::new();
    let mut untraced_ns = Vec::new();
    let mut counts = Counts::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut round = 0u32;
    while round < MIN_ROUNDS || start.elapsed() < budget {
        spans.set_iter(round);
        let (wall_s, written) = cli_once(cli, w, &paths)?;
        cli_wall_s.push(wall_s);
        attempted += 1;
        if written != cli_outputs {
            failed += 1;
            failures.push(format!(
                "round {round}: CLI outputs differ from the first invocation's"
            ));
        }
        for traced in [round.is_multiple_of(2), !round.is_multiple_of(2)] {
            // Neither side may pass on files the other left behind.
            let _ = std::fs::remove_file(&paths.report);
            let _ = std::fs::remove_file(&paths.obs);
            if traced {
                pipeline(w, &paths, &mut spans)?;
            } else {
                let t = Instant::now();
                pipeline(w, &paths, &mut Spans::disabled())?;
                untraced_ns.push(t.elapsed().as_nanos() as f64);
            }
            attempted += 1;
            if outputs(w, &paths)? != cli_outputs {
                failed += 1;
                failures.push(format!(
                    "round {round}: in-process report or obs export differs from the CLI's"
                ));
            }
        }
        counts = spans.span("probes", |s| probes(w, &trace, &fx, &paths.dir, s));
        round += 1;
    }

    let spans_path = out.join(format!("{}.spans.jsonl", w.name));
    std::fs::write(&spans_path, spans.to_jsonl())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    // Timing metrics: the shortest span of each name.
    let min_ns = |name: &str| spans.min_ns(name).unwrap_or(0.0);
    let per_req = |name: &str| min_ns(name) / requests;
    // The engine probe at the thread count the workloads run at.
    let engine_own = "proto.engine_t1";
    let pipeline_ms: Vec<f64> = spans
        .durations_ns("pipeline")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    // Per round, traced over untraced: the pair shares the round's drift.
    let traced_over_untraced: Vec<f64> = spans
        .durations_ns("pipeline")
        .iter()
        .zip(&untraced_ns)
        .map(|(traced, untraced)| traced / untraced)
        .collect();
    let wall_s = Summary::of(&cli_wall_s).expect("MIN_ROUNDS samples");
    let cli_wall_ms = wall_s.median * 1e3;
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gbm_rows = GBM_ROWS as f64;
    let mut values: Counts = vec![
        ("trace.read_ns_per_req", per_req("trace.read")),
        (
            "trace.read_mb_per_s",
            file_bytes / 1e6 / (min_ns("trace.read") / 1e9),
        ),
        ("trace.validate_ns_per_req", per_req("trace.validate")),
        ("trace.file_bytes", file_bytes),
        ("sim.route_ns_per_req", per_req("sim.route")),
        ("sim.simulator_ns_per_req", per_req("sim.simulator")),
        ("policies.handle_ns_per_req", per_req("policies.handle")),
        (
            "core.handle_ns_per_req",
            min_ns("core.handle") / fx.core_trace.len() as f64,
        ),
        (
            "gbm.fit_ms_per_krow",
            min_ns("gbm.fit") / 1e6 / (gbm_rows / 1e3),
        ),
        ("gbm.predict_row_ns", min_ns("gbm.predict_row") / gbm_rows),
        (
            "gbm.predict_batch_ns_per_row",
            min_ns("gbm.predict_batch") / gbm_rows,
        ),
        ("proto.replay_ns_per_req", per_req("proto.replay")),
        ("proto.engine_ns_per_req", per_req(engine_own)),
        ("proto.server_ns_per_req", per_req("proto.server")),
        (
            "proto.serve_overhead_ns_per_req",
            per_req(engine_own) - per_req("policies.handle") - per_req("sim.route"),
        ),
        (
            "proto.report_export_ms",
            min_ns("proto.report_export") / 1e6,
        ),
        (
            "proto.thread_speedup",
            min_ns("proto.engine_t1") / min_ns("proto.engine_t2"),
        ),
        ("proto.fleet_ns_per_req", per_req("proto.fleet")),
        (
            "proto.fleet_overhead_ns_per_req",
            per_req("proto.fleet") - per_req(engine_own),
        ),
        ("proto.ring_ns_per_lookup", per_req("proto.ring")),
        (
            "obs.overhead_pct",
            (min_ns("obs.engine_replay") / min_ns(engine_own) - 1.0) * 100.0,
        ),
        ("obs.export_ms", min_ns("obs.close_stream") / 1e6),
        ("cli.startup_ms", startup_ms),
        ("cli.wall_ms", cli_wall_ms),
        ("cli.unattributed_ms", cli_wall_ms - median(&pipeline_ms)),
        ("bench.pipeline_ms", median(&pipeline_ms)),
        (
            "bench.trace_overhead_pct",
            (median(&traced_over_untraced) - 1.0) * 100.0,
        ),
        ("bench.host_cpus", host_cpus as f64),
    ];
    values.extend(counts);

    // In table order, every metric exactly once.
    let metrics = PER_LAYER
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("no value measured for `{}`", def.name))
                .1;
            Measured {
                def,
                value,
                samples: round as usize,
                spread: None,
            }
        })
        .collect();
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        wall_s,
        failures,
    })
}

//! The four workloads: how each one's trace is synthesised from the seed,
//! the `lhr-cache` command line that replays it, and the same replay through
//! the crates' public functions (the traced run). Both sides are derived
//! from the one [`Workload`] value, and the traced run checks that its
//! stable report is byte-identical to the CLI's, so they cannot drift.

use lhr::cache::{LhrCache, LhrConfig};
use lhr_obs::{Obs, ObsConfig};
use lhr_policies::Lru;
use lhr_proto::fleet::{FleetConfig, FleetEngine, NodeFaultConfig};
use lhr_proto::{presets, EngineConfig, ServerConfig, ShardedEngine};
use lhr_sim::shard::{shard_seed, RouteConfig};
use lhr_sim::CachePolicy;
use lhr_trace::synth::{markov, IrmConfig, SizeModel};
use lhr_trace::{io, Trace};
use std::path::{Path, PathBuf};

/// The seed `lhr-cache` uses for policies and fault plans when `--seed` is
/// not passed. The benchmark's own `--seed` only shapes the trace files.
pub const CLI_SEED: u64 = 42;

/// Worker threads of every timed invocation and every in-process replay of
/// a workload: one, the router's inline path. This host does not hold two
/// cores steady (README, "Why one thread"), so the multi-threaded router is
/// checked for identical output on every run but timed only by a probe.
pub const THREADS: usize = 1;

/// Nodes of the `fleet` workload (and of the fleet probe on the others).
pub const FLEET_NODES: usize = 4;
const NODE_FAULTS: &str = "node-churn";
const ORIGIN_FAULTS: &str = "flaky";

const OBS_TRACE_SAMPLE: &str = "1/100";
const OBS_SLOS: &str = "avail:99.9,hitratio:50";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceModel {
    /// "Trace A": IRM, Zipf α 0.9 over 200 000 objects, bounded-Pareto
    /// sizes — what `lhr-cache generate --kind zipf` writes.
    ZipfA,
    /// `markov::syn_one`: the same Zipf popularity with ranks reversed every
    /// fifth of the trace — a maximal popularity shift.
    SynOne,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    Lru,
    Lhr,
}

impl Policy {
    pub fn name(self) -> &'static str {
        match self {
            Policy::Lru => "LRU",
            Policy::Lhr => "LHR",
        }
    }

    /// Builds the policy as the CLI's registry does for `--policy NAME`.
    pub fn build(self, capacity: u64, seed: u64, obs: Option<&Obs>) -> Box<dyn CachePolicy + Send> {
        match self {
            Policy::Lru => Box::new(Lru::new(capacity)),
            Policy::Lhr => {
                let mut cache = lhr_cache(capacity, seed);
                if let Some(obs) = obs {
                    cache.set_obs(obs.clone());
                }
                Box::new(cache)
            }
        }
    }
}

/// `--policy LHR` as the CLI's registry configures it: the paper's defaults
/// (background retraining on) and the given seed.
pub fn lhr_cache(capacity: u64, seed: u64) -> LhrCache {
    LhrCache::new(
        capacity,
        LhrConfig {
            seed,
            ..LhrConfig::default()
        },
    )
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Subcommand {
    Server,
    Fleet,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, one line (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub model: TraceModel,
    /// Trace file format: CSV (parsed) or the compact binary format.
    pub csv: bool,
    pub subcommand: Subcommand,
    pub policy: Policy,
    /// `--capacity`, in bytes.
    pub capacity: u64,
    pub shards: usize,
    /// Record and export the full `--obs` stream.
    pub obs: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "csv-lru-hit",
        why: "CSV parse + sharded LRU hit path: the classic-policy common case; core/gbm/fault path idle, so an LHR or retry-path change must not move it",
        model: TraceModel::ZipfA,
        csv: true,
        subcommand: Subcommand::Server,
        policy: Policy::Lru,
        capacity: 1_000_000_000,
        shards: 16,
        obs: false,
    },
    Workload {
        name: "bin-lhr-shift",
        why: "LHR under popularity inversions (syn-one): features, per-row scoring, eviction, window labelling, bootstrap training and gbm dominate, parse is negligible; hit_pct guards speed bought with hit ratio",
        model: TraceModel::SynOne,
        csv: false,
        subcommand: Subcommand::Server,
        policy: Policy::Lhr,
        capacity: 500_000_000,
        shards: 2,
        obs: false,
    },
    Workload {
        name: "fleet-chaos",
        why: "4-node fleet under node churn and a flaky origin: ring routing, failover, cold rebuilds, retries, shield; a hit-path gain that costs the miss/fault path or availability shows here",
        model: TraceModel::ZipfA,
        csv: false,
        subcommand: Subcommand::Fleet,
        policy: Policy::Lru,
        capacity: 1_000_000_000,
        shards: 16,
        obs: false,
    },
    Workload {
        name: "obs-1shard",
        why: "one shard (one large object table, not sixteen small) with obs doing its most (windows, sampled traces, SLOs, streamed export): gates the obs budget end to end",
        model: TraceModel::ZipfA,
        csv: false,
        subcommand: Subcommand::Server,
        policy: Policy::Lru,
        capacity: 1_000_000_000,
        shards: 1,
        obs: true,
    },
];

/// Where one workload's generated inputs and the program's outputs live.
#[derive(Debug, Clone)]
pub struct Paths {
    pub dir: PathBuf,
    pub trace: PathBuf,
    pub report: PathBuf,
    pub obs: PathBuf,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn paths(&self, out: &Path) -> Paths {
        let dir = out.join(self.name);
        Paths {
            trace: dir.join(if self.csv { "trace.csv" } else { "trace.bin" }),
            report: dir.join("report.json"),
            obs: dir.join("obs.jsonl"),
            dir,
        }
    }

    /// Generates the workload's trace; the same seed gives the same trace.
    ///
    /// Trace A is a quarter of the issue's 4 M requests, so that one CLI
    /// invocation takes 0.3–0.5 s and a measuring run collects 35–65 of them.
    /// It keeps its object count and cache size, so its hit ratio stays
    /// where it was.
    ///
    /// The LHR workload is the issue's size. At a quarter of it (50 000
    /// objects, 250 000 requests, 250 MB) a fifth of its CPU time is system
    /// time — LHR's allocation churn — and under this hypervisor that part
    /// swings fourfold with the host's load (0.13 s to 0.6 s an invocation,
    /// user time unchanged), so runs spread 21–28 % even after host-speed
    /// scaling. At this size system time is a tenth of CPU time and runs
    /// spread as the other workloads' do.
    pub fn synthesize(&self, seed: u64) -> Trace {
        match self.model {
            TraceModel::ZipfA => IrmConfig::new(200_000, 1_000_000)
                .zipf_alpha(0.9)
                .size_model(SizeModel::BoundedPareto {
                    alpha: 1.2,
                    min: 10_000,
                    max: 100_000_000,
                })
                .seed(seed)
                .generate(),
            TraceModel::SynOne => markov::syn_one(100_000, 1_000_000, 200_000, 0.9, seed),
        }
    }

    pub fn write_trace(&self, trace: &Trace, paths: &Paths) -> std::io::Result<()> {
        let file = std::fs::File::create(&paths.trace)?;
        if self.csv {
            io::write_csv(trace, file)
        } else {
            io::write_binary(trace, file)
        }
    }

    /// Reads the trace file the way the CLI's `load_trace` does.
    pub fn read_trace(&self, paths: &Paths) -> Result<Trace, io::ParseError> {
        if self.csv {
            io::read_csv_file(&paths.trace)
        } else {
            io::read_binary(std::fs::File::open(&paths.trace)?, "trace")
        }
    }

    /// The `lhr-cache` arguments for this workload at `threads` workers
    /// ([`THREADS`] when timed, 2 for the determinism check's report).
    pub fn cli_args(&self, paths: &Paths, threads: usize) -> Vec<String> {
        let mut args: Vec<String> = vec![
            match self.subcommand {
                Subcommand::Server => "server",
                Subcommand::Fleet => "fleet",
            }
            .into(),
            "--policy".into(),
            self.policy.name().into(),
            "--capacity".into(),
            self.capacity.to_string(),
            "--threads".into(),
            threads.to_string(),
            "--shards".into(),
            self.shards.to_string(),
        ];
        if self.subcommand == Subcommand::Fleet {
            args.extend([
                "--nodes".into(),
                FLEET_NODES.to_string(),
                "--faults".into(),
                NODE_FAULTS.into(),
                "--origin-faults".into(),
                ORIGIN_FAULTS.into(),
            ]);
        }
        if self.obs {
            args.extend([
                "--obs".into(),
                path_arg(&paths.obs),
                "--obs-deterministic".into(),
                "true".into(),
                "--trace-sample".into(),
                OBS_TRACE_SAMPLE.into(),
                "--slo".into(),
                OBS_SLOS.into(),
            ]);
        }
        args.extend([
            "--report".into(),
            path_arg(&paths.report),
            path_arg(&paths.trace),
        ]);
        args
    }

    /// The recorder `--obs … --obs-deterministic true --trace-sample 1/100
    /// --slo …` builds, or `None` for a workload that records nothing.
    pub fn obs(&self) -> Option<Obs> {
        self.obs.then(obs_recorder)
    }

    /// Replays `trace` in-process exactly as the CLI subcommand does.
    pub fn replay(&self, trace: &Trace, obs: Option<&Obs>) -> Report {
        match self.subcommand {
            Subcommand::Server => Report::Engine(engine_replay(
                trace,
                self.policy,
                self.capacity,
                THREADS,
                self.shards,
                obs,
            )),
            Subcommand::Fleet => {
                assert!(obs.is_none(), "no fleet workload records obs");
                Report::Fleet(fleet_replay(
                    trace,
                    self.policy,
                    self.capacity,
                    THREADS,
                    self.shards,
                ))
            }
        }
    }
}

/// What a replay reports, by subcommand.
pub enum Report {
    Engine(lhr_proto::EngineReport),
    Fleet(lhr_proto::FleetReport),
}

impl Report {
    /// The bytes `--report` writes.
    pub fn stable_json(&self) -> String {
        match self {
            Report::Engine(r) => r.stable_json(),
            Report::Fleet(r) => r.stable_json(),
        }
    }
}

fn path_arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// The `obs-1shard` recorder configuration; also used by the obs probe on
/// every workload.
pub fn obs_recorder() -> Obs {
    Obs::new(ObsConfig {
        deterministic: true,
        trace_sample: lhr_obs::trace::parse_sample(OBS_TRACE_SAMPLE)
            .expect("constant sample spec parses"),
        slos: lhr_obs::slo::parse_objectives(OBS_SLOS).expect("constant SLO list parses"),
        ..ObsConfig::default()
    })
}

/// `lhr-cache server --policy P --capacity C --threads T --shards S`.
pub fn engine_replay(
    trace: &Trace,
    policy: Policy,
    capacity: u64,
    threads: usize,
    shards: usize,
    obs: Option<&Obs>,
) -> lhr_proto::EngineReport {
    let mut engine = ShardedEngine::new(EngineConfig {
        total_capacity: capacity,
        n_shards: shards,
        route: RouteConfig {
            threads,
            ..RouteConfig::default()
        },
        server: ServerConfig::default(),
    });
    if let Some(obs) = obs {
        engine = engine.with_obs(obs.clone());
    }
    engine.replay(trace, |shard, shard_capacity, shard_obs| {
        policy.build(shard_capacity, shard_seed(CLI_SEED, shard), shard_obs)
    })
}

/// `lhr-cache fleet --policy P --capacity C --nodes 4 --faults node-churn
/// --origin-faults flaky --threads T --shards S`.
pub fn fleet_replay(
    trace: &Trace,
    policy: Policy,
    capacity: u64,
    threads: usize,
    shards: usize,
) -> lhr_proto::FleetReport {
    let duration = trace.duration().as_secs_f64();
    let mut config = FleetConfig::new(capacity);
    config.n_nodes = FLEET_NODES;
    config.n_shards = shards;
    config.route.threads = threads;
    config.server = presets::fault_preset(ORIGIN_FAULTS, CLI_SEED, duration)
        .expect("constant origin preset exists");
    config.node_faults = NodeFaultConfig::preset(NODE_FAULTS, CLI_SEED, FLEET_NODES, duration)
        .expect("constant node preset exists");
    FleetEngine::new(config).replay(trace, |node, shard, slice_capacity, shard_obs| {
        policy.build(
            slice_capacity,
            shard_seed(shard_seed(CLI_SEED, node), shard),
            shard_obs,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
        }
        assert!(Workload::by_name("nope").is_none());
    }

    #[test]
    fn cli_args_follow_the_workload() {
        let w = Workload::by_name("obs-1shard").unwrap();
        let paths = w.paths(Path::new("out"));
        let args = w.cli_args(&paths, 1).join(" ");
        assert_eq!(
            args,
            "server --policy LRU --capacity 1000000000 --threads 1 --shards 1 --obs out/obs-1shard/obs.jsonl \
             --obs-deterministic true --trace-sample 1/100 --slo avail:99.9,hitratio:50 \
             --report out/obs-1shard/report.json out/obs-1shard/trace.bin"
        );
        let w = Workload::by_name("fleet-chaos").unwrap();
        let args = w.cli_args(&w.paths(Path::new("out")), 2).join(" ");
        assert!(args.starts_with(
            "fleet --policy LRU --capacity 1000000000 --threads 2 --shards 16 --nodes 4 \
             --faults node-churn --origin-faults flaky --report"
        ));
    }
}

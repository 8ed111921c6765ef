//! Shard lifetime: a sharded replay builds a shard's policy on the worker
//! that claims the shard and drops it right after the shard's last
//! request, so however many shards there are, at most `threads` shards'
//! policies — `threads × nodes` in a fleet — are alive at once. Counting
//! the live instances through a wrapper moves no report.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::{Obs, ObsConfig};
use lhr_repro::policies::Lru;
use lhr_repro::proto::{
    presets, EngineConfig, FleetConfig, FleetEngine, NodeFaultConfig, ShardedEngine,
};
use lhr_repro::sim::shard::{shard_seed, RouteConfig};
use lhr_repro::sim::{CachePolicy, CacheStore, Outcome, SimConfig, Simulator};
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::{ObjectId, Request, Trace};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

const SHARDS: usize = 8;

fn zipf_trace(seed: u64) -> Trace {
    IrmConfig::new(4_000, 16_000)
        .zipf_alpha(0.9)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 100_000,
        })
        .seed(seed)
        .generate()
}

/// How many policies are alive, and the most that ever were at once.
#[derive(Default)]
struct Live {
    now: AtomicUsize,
    most: AtomicUsize,
}

impl Live {
    /// The peak, once every counted policy has been dropped.
    fn most_after_all_dropped(&self) -> usize {
        assert_eq!(
            self.now.load(SeqCst),
            0,
            "a counted policy outlived its replay"
        );
        self.most.load(SeqCst)
    }
}

/// `inner`, counted in `live` from its construction to its drop.
struct Counted<'a, P> {
    inner: P,
    live: &'a Live,
}

impl<'a, P> Counted<'a, P> {
    fn new(inner: P, live: &'a Live) -> Self {
        live.most
            .fetch_max(live.now.fetch_add(1, SeqCst) + 1, SeqCst);
        Counted { inner, live }
    }
}

impl<P> Drop for Counted<'_, P> {
    fn drop(&mut self) {
        self.live.now.fetch_sub(1, SeqCst);
    }
}

impl<P: CachePolicy> CachePolicy for Counted<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn store(&self) -> &dyn CacheStore {
        self.inner.store()
    }
    fn store_mut(&mut self) -> &mut dyn CacheStore {
        self.inner.store_mut()
    }
    fn contains(&self, id: ObjectId) -> bool {
        self.inner.contains(id)
    }
    fn handle(&mut self, req: &Request) -> Outcome {
        self.inner.handle(req)
    }
    fn hit_check(&mut self, req: &Request) -> Option<Outcome> {
        self.inner.hit_check(req)
    }
    fn metadata_overhead_bytes(&self) -> u64 {
        self.inner.metadata_overhead_bytes()
    }
}

/// N-LHR with windows short enough that every shard retrains several
/// times, so each shard ends with a retraining scheduled that no edge
/// fits.
fn n_lhr(capacity: u64, shard: usize) -> LhrCache {
    LhrCache::new(
        capacity,
        LhrConfig {
            seed: shard_seed(42, shard),
            min_window_requests: 256,
            ..LhrConfig::n_lhr()
        },
    )
}

#[test]
fn the_sharded_simulator_keeps_at_most_one_policy_per_thread() {
    let trace = zipf_trace(3);
    let sim = Simulator::new(SimConfig {
        warmup_requests: 1_000,
    });
    let capacity = 256 << 10;
    for threads in [1usize, 2, 4] {
        let route = RouteConfig { threads };
        let live = Live::default();
        let counted = sim.run_sharded(&trace, SHARDS, &route, |_, _| {
            Counted::new(Lru::new(capacity), &live)
        });
        let plain = sim.run_sharded(&trace, SHARDS, &route, |_, _| Lru::new(capacity));
        assert_eq!(
            counted.stable_json(),
            plain.stable_json(),
            "threads={threads}"
        );
        let most = live.most_after_all_dropped();
        assert!(most <= threads, "{most} live policies at {threads} threads");
    }
}

/// One recorded engine replay: (stable report, deterministic export).
fn replay<P: CachePolicy + Send>(
    config: &EngineConfig,
    trace: &Trace,
    build: impl Fn(usize, u64, Option<&Obs>) -> P + Sync,
) -> (String, String) {
    let obs = Obs::new(ObsConfig {
        deterministic: true,
        ..ObsConfig::default()
    });
    let report = ShardedEngine::new(config.clone())
        .with_obs(obs.clone())
        .replay(trace, build);
    (report.stable_json(), obs.to_jsonl())
}

#[test]
fn the_engine_keeps_at_most_one_serving_path_per_thread() {
    let trace = zipf_trace(5);
    let server = presets::fault_preset("flaky", 7, trace.duration().as_secs_f64())
        .expect("known fault preset");
    // LHR records into its shard's recorder; the export shows its retrains.
    let lhr = |s: usize, cap: u64, obs: Option<&Obs>| {
        n_lhr(cap, s).with_obs(obs.expect("recorded").clone())
    };
    for threads in [1usize, 2, 4] {
        let config = EngineConfig {
            total_capacity: 512 << 10,
            n_shards: SHARDS,
            route: RouteConfig { threads },
            server: server.clone(),
        };
        let (lru_live, lhr_live) = (Live::default(), Live::default());
        let counted = [
            replay(&config, &trace, |_, cap, _| {
                Counted::new(Lru::new(cap), &lru_live)
            }),
            replay(&config, &trace, |s, cap, obs| {
                Counted::new(lhr(s, cap, obs), &lhr_live)
            }),
        ];
        let plain = [
            replay(&config, &trace, |_, cap, _| Lru::new(cap)),
            replay(&config, &trace, lhr),
        ];
        assert_eq!(counted, plain, "threads={threads}");
        assert!(
            plain[1].1.contains("\"kind\":\"ModelSwap\""),
            "sanity: LHR shards swapped in retrained models"
        );
        for live in [lru_live, lhr_live] {
            let most = live.most_after_all_dropped();
            assert!(most <= threads, "{most} live policies at {threads} threads");
        }
    }
}

#[test]
fn the_fleet_keeps_at_most_one_shard_of_node_slices_per_thread() {
    let trace = zipf_trace(9);
    let duration = trace.duration().as_secs_f64();
    let nodes = 4;
    for threads in [1usize, 2, 4] {
        let fleet = || {
            let mut config = FleetConfig::new(8 << 20);
            config.n_nodes = nodes;
            config.n_shards = SHARDS;
            config.route = RouteConfig { threads };
            // Cold restarts rebuild node slices mid-replay.
            config.node_faults =
                NodeFaultConfig::preset("node-churn", 7, nodes, duration).expect("known preset");
            FleetEngine::new(config)
        };
        let live = Live::default();
        let counted = fleet().replay(&trace, |_, _, cap, _| Counted::new(Lru::new(cap), &live));
        let plain = fleet().replay(&trace, |_, _, cap, _| Lru::new(cap));
        assert_eq!(
            counted.stable_json(),
            plain.stable_json(),
            "threads={threads}"
        );
        // A rebuild holds the new slice beside the one it replaces, for a
        // moment, on the worker doing it.
        let most = live.most_after_all_dropped();
        assert!(
            most <= threads * (nodes + 1),
            "{most} live slices at {threads} threads × {nodes} nodes"
        );
        if threads == 1 {
            assert_eq!(most, nodes + 1, "sanity: a cold restart rebuilt a slice");
        }
    }
}

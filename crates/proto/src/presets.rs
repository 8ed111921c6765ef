//! Named constructors: the policy roster every front end builds from
//! ([`POLICIES`]) and the fault presets.

use crate::fault::{FaultConfig, ResilienceConfig};
use crate::server::ServerConfig;
use lhr::cache::{LhrCache, LhrConfig};
use lhr_obs::Obs;
use lhr_policies::{
    s4lru, slru, AdaptSize, Arc, BLru, Fifo, Gdsf, Hawkeye, Hyperbolic, Lfo, LfuDa, Lhd, Lrb, Lru,
    LruK, PopCache, RandomEviction, RlCache, TinyLfu, WTinyLfu,
};
use lhr_sim::CachePolicy;
use lhr_trace::Trace;

/// What a roster constructor is given. [`PolicyParams::for_trace`] fills in
/// the values `lhr-cache --policy NAME` runs with; a caller that tests
/// something those values would hide overrides the field and says why.
#[derive(Debug, Clone, Copy)]
pub struct PolicyParams<'a> {
    /// Cache capacity in bytes.
    pub capacity: u64,
    /// Seed of every randomized policy (sampled eviction, probabilistic
    /// admission, exploration).
    pub seed: u64,
    /// Expected distinct objects: sizes B-LRU's Bloom filter and the
    /// TinyLFU sketches.
    pub expected_objects: u64,
    /// LRB's memory window, and the horizon over which RL-Cache regrets a
    /// bypass and PopCache labels a re-request, in seconds.
    pub window_secs: f64,
    /// Labeled samples between LRB retrainings.
    pub lrb_train_batch: usize,
    /// Recorder the LHR variants report their windows, trainings and
    /// threshold moves to; the other policies carry no instrumentation.
    pub obs: Option<&'a Obs>,
}

impl PolicyParams<'_> {
    /// The CLI's parameters for replaying `trace`: 2¹⁶ expected objects, a
    /// quarter of the trace (at least a minute) as the window, LRB
    /// retraining every 8 192 labels, no recorder.
    pub fn for_trace(capacity: u64, seed: u64, trace: &Trace) -> Self {
        PolicyParams {
            capacity,
            seed,
            expected_objects: 1 << 16,
            window_secs: (trace.duration().as_secs_f64() / 4.0).max(60.0),
            lrb_train_batch: 8_192,
            obs: None,
        }
    }

    /// The same parameters for shard `shard` of a sharded replay: its
    /// capacity slice, its recorder, and a seed derived with
    /// [`lhr_sim::shard::shard_seed`], so shards are decorrelated yet
    /// independent of the thread count.
    pub fn for_shard<'o>(
        &self,
        capacity: u64,
        shard: usize,
        obs: Option<&'o Obs>,
    ) -> PolicyParams<'o> {
        PolicyParams {
            capacity,
            seed: lhr_sim::shard::shard_seed(self.seed, shard),
            obs,
            ..*self
        }
    }
}

/// Builds one policy. The box is `Send` so the same roster feeds the
/// single-threaded simulator and the sharded engines' worker threads.
pub type PolicyCtor = fn(&PolicyParams<'_>) -> Box<dyn CachePolicy + Send>;

fn lhr(p: &PolicyParams<'_>, config: LhrConfig) -> Box<dyn CachePolicy + Send> {
    let seed = p.seed;
    let mut cache = LhrCache::new(p.capacity, LhrConfig { seed, ..config });
    if let Some(obs) = p.obs {
        cache.set_obs(obs.clone());
    }
    Box::new(cache)
}

/// The roster: every policy in the workspace under the name `--policy`
/// accepts, `compare` prints and the benches report, in display order.
/// This is the only table from names to constructors.
pub const POLICIES: &[(&str, PolicyCtor)] = &[
    ("LHR", |p| lhr(p, LhrConfig::default())),
    ("E-LHR", |p| lhr(p, LhrConfig::eager())),
    ("D-LHR", |p| lhr(p, LhrConfig::d_lhr())),
    ("N-LHR", |p| lhr(p, LhrConfig::n_lhr())),
    ("LRU", |p| Box::new(Lru::new(p.capacity))),
    ("FIFO", |p| Box::new(Fifo::new(p.capacity))),
    ("Random", |p| {
        Box::new(RandomEviction::new(p.capacity, p.seed))
    }),
    ("LRU-4", |p| Box::new(LruK::new(p.capacity, 4))),
    ("LFU-DA", |p| Box::new(LfuDa::new(p.capacity))),
    ("GDSF", |p| Box::new(Gdsf::new(p.capacity))),
    ("ARC", |p| Box::new(Arc::new(p.capacity))),
    ("SLRU", |p| Box::new(slru(p.capacity))),
    ("S4LRU", |p| Box::new(s4lru(p.capacity))),
    ("AdaptSize", |p| {
        Box::new(AdaptSize::new(p.capacity, p.seed))
    }),
    ("B-LRU", |p| {
        Box::new(BLru::new(p.capacity, p.expected_objects))
    }),
    ("TinyLFU", |p| {
        Box::new(TinyLfu::new(p.capacity, p.expected_objects))
    }),
    ("W-TinyLFU", |p| {
        Box::new(WTinyLfu::new(p.capacity, p.expected_objects))
    }),
    ("Hyperbolic", |p| {
        Box::new(Hyperbolic::new(p.capacity, p.seed))
    }),
    ("LHD", |p| Box::new(Lhd::new(p.capacity, p.seed))),
    // Retraining every 8 192 requests.
    ("LFO", |p| Box::new(Lfo::new(p.capacity, 8_192))),
    ("RL-Cache", |p| {
        Box::new(RlCache::new(p.capacity, p.window_secs, p.seed))
    }),
    ("PopCache", |p| {
        Box::new(PopCache::new(p.capacity, p.window_secs, p.seed))
    }),
    ("LRB", |p| {
        let mut lrb = Lrb::new(p.capacity, p.window_secs, p.seed);
        lrb.train_batch = p.lrb_train_batch;
        Box::new(lrb)
    }),
    ("Hawkeye", |p| Box::new(Hawkeye::new(p.capacity))),
];

/// Every roster name, in roster order.
pub fn policy_names() -> Vec<&'static str> {
    POLICIES.iter().map(|&(name, _)| name).collect()
}

/// The constructor registered under `name` (case-insensitive).
pub fn policy(name: &str) -> Option<PolicyCtor> {
    POLICIES
        .iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(name))
        .map(|&(_, build)| build)
}

/// A [`ServerConfig`] with the named fault preset (see
/// [`FaultConfig::preset_names`]) scaled to a trace of `duration_secs`,
/// and the full graceful-degradation stack enabled
/// ([`ResilienceConfig::hardened`]). `None` for an unknown preset name.
pub fn fault_preset(name: &str, seed: u64, duration_secs: f64) -> Option<ServerConfig> {
    let faults = FaultConfig::preset(name, seed, duration_secs)?;
    Some(ServerConfig {
        faults,
        resilience: ResilienceConfig::hardened(),
        ..ServerConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::synth::IrmConfig;

    #[test]
    fn the_roster_lists_exactly_what_it_builds() {
        let trace = IrmConfig::new(10, 100).generate();
        let params = PolicyParams::for_trace(10_000, 1, &trace);
        let names = policy_names();
        assert_eq!(names.len(), 24);
        for (i, name) in names.iter().enumerate() {
            let built = policy(name).unwrap_or_else(|| panic!("{name} is listed but not built"));
            let cache = built(&params);
            // A policy's own name is its roster name, so reports, `compare`
            // rows and bench rows can be looked up again.
            assert_eq!(cache.name(), *name);
            assert_eq!(cache.capacity(), 10_000);
            assert!(policy(&name.to_lowercase()).is_some(), "{name}: case");
            assert!(!names[..i].contains(name), "{name} is listed twice");
        }
        assert!(policy("NOPE").is_none());
    }

    #[test]
    fn fault_presets_resolve_and_harden() {
        for name in FaultConfig::preset_names() {
            let cfg = fault_preset(name, 42, 1_000.0).expect(name);
            assert_eq!(cfg.faults.seed, 42);
            assert!(cfg.resilience.stale_if_error_secs > 0.0);
        }
        assert!(fault_preset("bogus", 42, 1_000.0).is_none());
        // The outage preset scales its window to the trace duration.
        let outage = fault_preset("outage", 1, 1_000.0).unwrap();
        assert_eq!(outage.faults.outages, vec![(400.0, 600.0)]);
    }
}

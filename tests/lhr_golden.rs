//! Golden stable reports of `server --policy LHR` and `--policy N-LHR`,
//! recorded on commit `b90e209` — before the LHR serve path was rebuilt
//! (logged-gap feature rings, inline eviction slots, the padded scoring
//! kernel) — and held here so that "every admission, eviction and
//! probability is bit-identical" stays an executable claim.
//!
//! The files under `tests/golden/` are the parent's bytes, unedited:
//!
//! ```sh
//! lhr-cache generate --kind syn-one --objects 500 --requests 40000 \
//!     --seed 11 --out lhr-golden.bin
//! lhr-cache server --policy LHR   --capacity 1000000 --shards 2 \
//!     --threads 1 --report tests/golden/lhr-server.json   lhr-golden.bin
//! lhr-cache server --policy N-LHR --capacity 1000000 --shards 2 \
//!     --threads 1 --report tests/golden/n-lhr-server.json lhr-golden.bin
//! ```
//!
//! One edit since: the reports' empty `series` member was removed from
//! these bytes, and from nothing else, when the report types lost that
//! field (the obs window series is the one hit-ratio time series).
//!
//! On that trace LHR bootstraps both shards, installs two retrained models
//! and moves its threshold twice; N-LHR retrains at every window edge
//! (eleven trainings, seven swaps). Hit ratio, latency percentiles,
//! WAN traffic and coalesced fetches all depend on every cache decision.
//! Only `peak_mem_gb` is masked: it reports the metadata *accounting*,
//! which shrinks when per-object state does. `scripts/verify.sh` holds the
//! CLI itself against the same files.
//!
//! The parent re-scored every hit. That is `LhrConfig::rescore_hits` now
//! (`--policy E-LHR`), so the two parent files are held by the *eager*
//! configurations; the default — score at admission, rows rendered only
//! where they are read — makes different decisions by design and has its
//! own pair, `lhr-lazy-server.json` / `n-lhr-lazy-server.json`, recorded
//! with the same commands on the commit that introduced it (the ignored
//! `record_lazy` test writes them).

mod common;

use common::mask_peak_mem;
use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::proto::{EngineConfig, ServerConfig, ShardedEngine};
use lhr_repro::sim::shard::{shard_seed, RouteConfig};
use lhr_repro::trace::synth::markov;
use lhr_repro::trace::{io, Trace};

/// The seed `lhr-cache` gives policies when `--seed` is not passed.
const CLI_SEED: u64 = 42;

/// What `generate --kind syn-one --objects 500 --requests 40000 --seed 11`
/// writes, read back the way the CLI reads `lhr-golden.bin`.
fn golden_trace() -> Trace {
    let trace = markov::syn_one(500, 40_000, 40_000 / 5, 0.9, 11);
    let mut file = Vec::new();
    io::write_binary(&trace, &mut file).expect("write to memory");
    io::read_binary(file.as_slice(), "lhr-golden").expect("own output parses")
}

/// `server --policy … --capacity 1000000 --shards 2 --threads N --report`.
fn server_report(trace: &Trace, config: &LhrConfig, threads: usize) -> String {
    let engine = ShardedEngine::new(EngineConfig {
        total_capacity: 1_000_000,
        n_shards: 2,
        route: RouteConfig { threads },
        server: ServerConfig::default(),
    });
    engine
        .replay(trace, |shard, capacity, _obs| {
            let seed = shard_seed(config.seed, shard);
            LhrCache::new(
                capacity,
                LhrConfig {
                    seed,
                    ..config.clone()
                },
            )
        })
        .stable_json()
}

fn assert_matches_golden(golden: &str, config: LhrConfig) {
    let trace = golden_trace();
    let (golden, golden_peak) = mask_peak_mem(golden.trim_end());
    for threads in [1usize, 2, 8] {
        let (report, peak) = mask_peak_mem(&server_report(&trace, &config, threads));
        assert_eq!(
            report, golden,
            "stable report diverged from the golden at {threads} threads"
        );
        assert!(
            peak <= golden_peak,
            "peak_mem_gb grew: {peak} > {golden_peak}"
        );
    }
}

/// `--policy LHR` (`n_lhr: false`) or `--policy N-LHR`, re-scoring hits as
/// the parent did (`eager`) or not. The eager LHR keeps the name the
/// golden report embeds, which `LhrConfig::eager()`'s "E-LHR" would not.
fn config(n_lhr: bool, eager: bool) -> LhrConfig {
    LhrConfig {
        seed: CLI_SEED,
        rescore_hits: eager,
        ..if n_lhr {
            LhrConfig::n_lhr()
        } else {
            LhrConfig::default()
        }
    }
}

#[test]
fn lhr_server_report_matches_the_parent_golden_at_1_2_8_threads() {
    assert_matches_golden(include_str!("golden/lhr-server.json"), config(false, true));
}

#[test]
fn n_lhr_server_report_matches_the_parent_golden_at_1_2_8_threads() {
    assert_matches_golden(include_str!("golden/n-lhr-server.json"), config(true, true));
}

#[test]
fn lazy_lhr_server_report_matches_its_golden_at_1_2_8_threads() {
    assert_matches_golden(
        include_str!("golden/lhr-lazy-server.json"),
        config(false, false),
    );
}

#[test]
fn lazy_n_lhr_server_report_matches_its_golden_at_1_2_8_threads() {
    assert_matches_golden(
        include_str!("golden/n-lhr-lazy-server.json"),
        config(true, false),
    );
}

/// Writes the two lazy goldens. For a deliberate change of the default
/// path's decisions only; the parent files are never re-recorded.
#[test]
#[ignore = "records tests/golden/{lhr,n-lhr}-lazy-server.json"]
fn record_lazy() {
    let trace = golden_trace();
    for (file, n_lhr) in [
        ("lhr-lazy-server.json", false),
        ("n-lhr-lazy-server.json", true),
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(file);
        // No trailing newline: the bytes `--report` writes.
        std::fs::write(path, server_report(&trace, &config(n_lhr, false), 1))
            .expect("write golden");
    }
}

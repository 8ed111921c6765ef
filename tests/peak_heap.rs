//! The memory gates of the sharded replay and of the HRO bound. A shard's
//! state lives only from its first request to its last, so at one thread a
//! replay holds one shard's policy at a time, and splitting the same trace
//! and cache across more shards must not raise the heap's high-water mark.
//! HRO classifies each window at its edge and drops it, so a longer trace
//! over the same objects must not raise the bound's mark either. An LHR
//! window's row matrix and request log live only while its edge reads
//! them, so the windows after the bootstrap one peak well under it. A
//! replay handed its trace by value frees the trace as it steps past it,
//! so it peaks at little more than the partition's index.
//!
//! This file is its own test binary because `#[global_allocator]` is
//! process-wide, and it holds a single test: the high-water mark counts
//! every thread's bytes, so nothing else may allocate while it measures
//! (`common/heap.rs` has the counting allocator).

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::core::features::FeatureStore;
use lhr_repro::core::Hro;
use lhr_repro::gbm::GbmParams;
use lhr_repro::policies::Lru;
use lhr_repro::proto::{EngineConfig, ServerConfig, ShardedEngine};
use lhr_repro::sim::shard::{shard_seed, RouteConfig};
use lhr_repro::sim::{CachePolicy, OfflineBound};
use lhr_repro::trace::synth::{markov, IrmConfig, SizeModel};
use lhr_repro::trace::Trace;

#[path = "common/heap.rs"]
mod heap;

#[global_allocator]
static GLOBAL: heap::Tracking = heap::Tracking;

use heap::high_water;

/// `lhr-cache server --policy LHR --threads 1 --shards N` on `trace`.
fn lhr_replay(trace: &Trace, capacity: u64, n_shards: usize) {
    let engine = ShardedEngine::new(EngineConfig {
        total_capacity: capacity,
        n_shards,
        route: RouteConfig { threads: 1 },
        server: ServerConfig::default(),
    });
    let report = engine.replay(trace, |shard, capacity, _| {
        LhrCache::new(
            capacity,
            LhrConfig {
                seed: shard_seed(42, shard),
                ..LhrConfig::default()
            },
        )
    });
    assert!(
        report.report.content_hit_pct > 0.0,
        "sanity: the replay hits"
    );
}

/// `lhr-cache server --policy LRU --threads 1 --shards 16` on `trace`,
/// handed over by value as the CLI hands it.
fn lru_replay(trace: Trace, capacity: u64) {
    let engine = ShardedEngine::new(EngineConfig {
        total_capacity: capacity,
        n_shards: 16,
        route: RouteConfig { threads: 1 },
        server: ServerConfig::default(),
    });
    let report = engine.replay(trace, |_, capacity, _| Lru::new(capacity));
    assert!(
        report.report.content_hit_pct > 0.0,
        "sanity: the replay hits"
    );
}

#[test]
fn more_shards_of_one_trace_do_not_raise_the_heap_high_water_mark() {
    // A replay consumes the trace it is handed: the partition regroups it
    // in place beside a `u32` index, and the shards give it back block by
    // block as they step past it, so the latency samples and the merge
    // reuse its room. Above the heap it started with, trace included, the
    // replay peaks at the 4 B index plus the first shard's state: 5.5 B a
    // request here, under a bound of 6.3. The partition that indexed a
    // borrowed trace and kept it whole until the replay returned peaked at
    // the merge, where the shard latency vectors sit beside the merged
    // copy: 15.2 B a request.
    let requests = 200_000;
    let trace = IrmConfig::new(20_000, requests)
        .zipf_alpha(0.9)
        .size_model(SizeModel::Fixed { bytes: 1_000 })
        .seed(9)
        .generate();
    let replay = high_water(|| lru_replay(trace, 1_000_000_000));
    let bound = 5 * requests + (256 << 10);
    assert!(
        replay <= bound,
        "the replay of an owned trace peaked at {replay} B above it, over {bound} B"
    );

    // Long enough that each of 16 shards closes a few learning windows:
    // were every shard's state kept until the merge, 16 shards would peak
    // near twice as high as 2 (≈ 24 MB against 12 MB); dropped after each
    // shard's last request, they peak about a third as high (≈ 3 MB
    // against 8 MB).
    let trace = markov::syn_one(12_000, 100_000, 20_000, 0.9, 11);
    let capacity = 50_000_000;
    let two = high_water(|| lhr_replay(&trace, capacity, 2));
    let sixteen = high_water(|| lhr_replay(&trace, capacity, 16));
    // The fits of a window edge run on gbm's worker threads, each with its
    // own scratch: a little of the mark is theirs, whatever the shard count.
    let slack = 1 << 20;
    assert!(
        sixteen <= two + slack,
        "16 shards peaked at {sixteen} B, 2 shards at {two} B"
    );

    // The HRO bound, run after the replays so that nothing else allocates
    // while it measures. Every one of 500 objects shows up in both traces,
    // and a window holds ≈ 200 of them: were every window kept until the
    // end, 8× the requests would peak near 8× as high.
    let hro_peak = |requests| {
        let trace = IrmConfig::new(500, requests)
            .zipf_alpha(0.8)
            .size_model(SizeModel::Fixed { bytes: 1_000 })
            .seed(5)
            .generate();
        high_water(|| {
            Hro::default().evaluate(&trace, 50_000);
        })
    };
    let short = hro_peak(20_000);
    let long = hro_peak(160_000);
    assert!(
        long < 2 * short,
        "HRO peaked at {long} B over 160 000 requests, {short} B over 20 000"
    );

    // LHR's window buffers. The bootstrap window keeps a feature row per
    // request, for its edge to label, train on and score; a later window
    // keeps every `row_every`-th. Once an edge has read its rows the matrix
    // gives back what the next window does not use, and the tracker keeps
    // one request log, not a second parked beside it for the next edge: the
    // later windows peak lower than the bootstrap window by at least half
    // that window's matrix. Five thousand objects are nearly all seen in
    // the bootstrap window, so the cache and the feature history hold about
    // as much after it as at its edge; the popularity never turns within
    // the trace, so the model is never retrained (a window whose edge
    // evaluates a retrained model keeps every row again); and a training
    // set of 2 048 rows keeps the labeled history small beside the matrix.
    let trace = markov::syn_one(5_000, 400_000, 400_000, 0.9, 3);
    let config = LhrConfig::default();
    let n_features = FeatureStore::new(config.n_irts).n_features();
    let mut lhr = LhrCache::new(
        30_000_000,
        LhrConfig {
            gbm: GbmParams {
                threads: 1,
                ..config.gbm.clone()
            },
            max_train_rows: 2_048,
            ..config
        },
    );
    let base = heap::reset_peak();
    let mut requests = trace.iter();
    let mut bootstrap_len = 0;
    for req in requests.by_ref() {
        lhr.handle(req);
        bootstrap_len += 1;
        if lhr.stats().windows == 1 {
            break;
        }
    }
    let bootstrap = heap::peak_above(base);
    heap::reset_peak();
    for req in requests {
        lhr.handle(req);
    }
    let later = heap::peak_above(base);
    let stats = lhr.stats();
    assert!(stats.windows >= 6, "{} windows closed", stats.windows);
    assert_eq!(stats.trainings, 1, "the bootstrap model is never retrained");
    let matrix = bootstrap_len * n_features * 4;
    assert!(
        later + matrix / 2 <= bootstrap,
        "after the bootstrap edge LHR peaked at {later} B, over it at {bootstrap} B \
         (its {bootstrap_len}-row matrix: {matrix} B)"
    );
}

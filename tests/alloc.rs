//! Counting-allocator proof of the alloc-free steady state (PR 8
//! acceptance): after a warm first pass, LRU replay performs **zero**
//! heap allocations per request — including eviction churn, under which
//! the one-segment `SegmentedStore`'s list recycles its nodes and its
//! `FastMap` reclaims tombstones by rehashing in place — and LHR allocates only at
//! retrain/window boundaries, never on the per-request serve path.
//!
//! This file is its own test binary because `#[global_allocator]` is
//! process-wide. The *counter* is per thread: the test harness runs this
//! file's tests on parallel threads of one process, so a process-wide
//! counter would charge one test's window-edge allocations to the other's
//! "zero allocations" delta. Each test reads its own thread's counter as a
//! delta around its measured loop; allocations made by threads a test
//! spawns (LHR's scoped fit workers, at window edges) are not its own.

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::policies::Lru;
use lhr_repro::sim::CachePolicy;
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocator entry point on the calling thread; frees are not
/// counted (a free in steady state is fine, a fresh allocation is the
/// regression).
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator still runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A fixed-population Zipf trace: every measured request re-references an
/// object seen during the warm pass, so steady state adds no new keys.
fn fixed_population_trace(seed: u64, n_objects: usize, n_requests: usize) -> Trace {
    IrmConfig::new(n_objects, n_requests)
        .zipf_alpha(0.8)
        .size_model(SizeModel::Fixed { bytes: 4_000 })
        .seed(seed)
        .generate()
}

#[test]
fn lru_steady_state_replay_is_allocation_free() {
    let trace = fixed_population_trace(7, 4_000, 200_000);
    // Capacity holds 1/4 of the population: plenty of hits *and* constant
    // miss→evict churn, so the zero-alloc claim covers the whole handle
    // surface (probe, splice, evict, tombstone reuse, in-place rehash).
    let mut lru = Lru::new(1_000 * 4_000);
    for req in trace.iter() {
        lru.handle(req);
    }
    let hits_before = lru.evictions();

    let before = allocs();
    let mut hits = 0u64;
    for req in trace.iter() {
        if lru.handle(req) == lhr_repro::sim::Outcome::Hit {
            hits += 1;
        }
    }
    let delta = allocs() - before;

    assert!(hits > 0, "sanity: the measured pass must hit");
    assert!(
        lru.evictions() > hits_before,
        "sanity: the measured pass must churn evictions"
    );
    assert_eq!(
        delta,
        0,
        "LRU steady-state replay allocated {delta} times over {} requests",
        trace.len()
    );
}

#[test]
fn lhr_steady_state_allocates_only_at_window_boundaries() {
    let trace = fixed_population_trace(11, 3_000, 60_000);
    // Capacity 400 objects against a 3_000-object population: the 4×
    // unique-bytes window target (6.4 MB) is crossed several times per
    // pass, so the measured pass sees real window edges.
    let mut lhr = LhrCache::new(
        400 * 4_000,
        LhrConfig {
            seed: 11,
            // Retrain at every edge (the popularity never shifts, so the
            // detection gate would stay shut after the bootstrap): each
            // window swaps in a newly laid-out forest.
            detection: false,
            min_window_requests: 2_048,
            ..LhrConfig::default()
        },
    );
    // Warm pass: populate the object metadata, size the recycled window
    // buffers, train the first models.
    for req in trace.iter() {
        lhr.handle(req);
    }
    let (warm_stats, warm_evictions) = (lhr.stats(), lhr.evictions());

    // Measured pass: per-request allocation deltas. The serve path itself
    // must be alloc-free: the feature row and the history ring it is
    // copied from (reclaimed rings of pruned objects are reused by the
    // re-sighted tail), scoring on the padded forest, admission into and
    // eviction out of the inline slot array. Only a window-edge request
    // may allocate (labeling, training and re-laying-out the forest,
    // threshold refresh, pruning).
    let mut allocating_requests = 0u64;
    let mut clean_requests = 0u64;
    for req in trace.iter() {
        let before = allocs();
        lhr.handle(req);
        if allocs() > before {
            allocating_requests += 1;
        } else {
            clean_requests += 1;
        }
    }

    // The measured pass did all of that, not just hits on a frozen model.
    let stats = lhr.stats();
    assert!(
        stats.windows >= warm_stats.windows + 4,
        "sanity: the measured pass must cross window edges (and prune)"
    );
    assert!(
        stats.trainings > warm_stats.trainings,
        "sanity: the measured pass must swap in a freshly laid-out forest"
    );
    assert!(
        lhr.evictions() > warm_evictions,
        "sanity: the measured pass must churn the slot array"
    );

    // Windows close every >= min_window_requests, so the measured pass
    // crosses at most len / min_window_requests edges (plus slack for the
    // first window after the warm pass and a mid-window buffer growth).
    let max_edges = (trace.len() / 2_048 + 4) as u64;
    assert!(
        allocating_requests <= max_edges,
        "{allocating_requests} requests allocated; only ~{max_edges} window edges expected"
    );
    assert!(
        clean_requests >= (trace.len() as u64 / 100) * 99,
        "steady-state serve path must be ≥99% allocation-free \
         ({clean_requests} clean of {})",
        trace.len()
    );
}

/// One-shard, one-thread engine replay of `trace` under a fresh LRU, on the
/// calling thread (worker 0 of one is the caller); returns the allocations
/// it made.
fn engine_replay_allocs(trace: &Trace, obs: Option<&lhr_repro::obs::Obs>) -> u64 {
    use lhr_repro::proto::{EngineConfig, ServerConfig, ShardedEngine};
    use lhr_repro::sim::shard::RouteConfig;
    let mut engine = ShardedEngine::new(EngineConfig {
        total_capacity: 1_000 * 4_000,
        n_shards: 1,
        route: RouteConfig { threads: 1 },
        server: ServerConfig::default(),
    });
    if let Some(obs) = obs {
        engine = engine.with_obs(obs.clone());
    }
    let before = allocs();
    let report = engine.replay(trace, |_, capacity, _| Lru::new(capacity));
    let delta = allocs() - before;
    assert!(
        report.report.content_hit_pct > 0.0,
        "sanity: the replay hits"
    );
    delta
}

/// The recorder's share of a replay's allocations: none per request. With
/// tracing off it allocates at window edges only; with 1/64 sampling it adds
/// a bounded handful per *sampled* request; and the export writes each line
/// into a reused buffer instead of building a tree per record.
#[test]
fn recorder_allocates_per_window_and_per_sampled_trace_not_per_request() {
    use lhr_repro::obs::{Obs, ObsConfig, ObsRecord, ObsWindow};
    let trace = fixed_population_trace(13, 4_000, 120_000);
    let recorder = |trace_sample: u64| {
        Obs::new(ObsConfig {
            window: ObsWindow::Requests(1_000),
            deterministic: true,
            trace_sample,
            ..ObsConfig::default()
        })
    };
    let plain = engine_replay_allocs(&trace, None);

    // Windows only: 120 window edges, 120 000 requests.
    let windowed = recorder(0);
    let with_windows = engine_replay_allocs(&trace, Some(&windowed));
    let windows = windowed.windows().len() as u64;
    assert_eq!(windows, 120);
    let per_window = with_windows.saturating_sub(plain);
    assert!(
        per_window <= 2 * windows + 64,
        "recorder without tracing allocated {per_window} times over {windows} windows \
         ({plain} plain, {with_windows} recorded)"
    );

    // 1/64 sampling: a sampled request costs its steps vector, one detail
    // vector per step and one string for the origin outcome — at most 6
    // allocations on this fault-free path (a hit has one step, a miss
    // three) — plus the trace buffer's one reservation.
    let traced = recorder(64);
    let with_traces = engine_replay_allocs(&trace, Some(&traced));
    let traces = traced.traces().len() as u64;
    assert!(
        (1_000..3_000).contains(&traces),
        "sanity: {traces} sampled of 120 000"
    );
    let per_trace = with_traces.saturating_sub(with_windows);
    assert!(
        per_trace <= 6 * traces + 64,
        "1/64 tracing allocated {per_trace} times for {traces} traces"
    );

    // Export: one growing output string, no per-line or per-field
    // allocation. (The parent built a `Json` tree per record: some forty
    // allocations for a three-step trace line.)
    let before = allocs();
    let jsonl = traced.to_jsonl();
    let export = allocs() - before;
    let lines = jsonl.lines().count() as u64;
    assert!(lines > traces + windows);
    assert!(
        export <= lines / 8,
        "buffered export allocated {export} times for {lines} lines"
    );
    // And a record written into a reused buffer allocates nothing at all.
    let records = traced.records();
    let mut line = String::with_capacity(4_096);
    let before = allocs();
    for record in &records {
        line.clear();
        record.write_line(&mut line);
    }
    assert_eq!(allocs() - before, 0, "write_line into a reused buffer");
    assert!(records
        .iter()
        .any(|r| matches!(r, ObsRecord::Trace(t) if t.steps.len() == 3)));
}

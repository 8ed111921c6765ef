//! The paper's evaluation (§6–7 and the appendix), one report per table or
//! figure. Each experiment is its parameters and its [`Table`]s over three
//! runs: [`simulate`] (one `Simulator` run), [`serve`] (one `CdnServer`
//! replay of a roster policy) and [`grid`] (the headline line-up in
//! parallel). Experiments return typed rows: [`run`] prints the ones
//! `repro --only` names, and the tests below hold the paper's orderings
//! over the rows themselves.

use crate::harness::{
    caffeine_capacity, default_capacity, gb, pct, production_traces, Cell, Options, Table,
};
use lhr::cache::{EvictionRule, LhrCache, LhrConfig};
use lhr::detect::ZipfDetector;
use lhr::hazard::Hro;
use lhr::window::WindowData;
use lhr_bounds::{BeladySize, PfooUpper};
use lhr_gbm::{GbmParams, Loss};
use lhr_obs::{Obs, ObsConfig, ObsWindow, WindowRecord};
use lhr_policies::Lru;
use lhr_proto::presets::{self, PolicyParams};
use lhr_proto::{CdnServer, ServerConfig, ServerReport};
use lhr_sim::bound::OfflineBound;
use lhr_sim::{CachePolicy, SimConfig, SimResult, Simulator};
use lhr_trace::stats::{ccdf, inter_request_times, one_hit_wonder_ratio, rank_frequency};
use lhr_trace::synth::renewal::bursty_trace;
use lhr_trace::synth::{markov, IrmConfig, SizeModel, ZipfSampler};
use lhr_trace::{Request, Time, Trace, TraceStats};
use lhr_util::rng::rngs::StdRng;
use lhr_util::rng::SeedableRng;
use lhr_util::sync::claim_each;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// The three runs
// ---------------------------------------------------------------------------

/// Default warmup: the first fifth of the trace (≈ the first training
/// windows), excluded from measured hit ratios as in §5.1.
fn warmup_for(trace: &Trace) -> usize {
    trace.len() / 5
}

/// One simulator run of `policy` over `trace`, its first `warmup` requests
/// excluded from the metrics. The policy comes back with the result, so an
/// LHR caller can read its training stats.
fn simulate<P: CachePolicy>(mut policy: P, trace: &Trace, warmup: usize) -> (SimResult, P) {
    let config = SimConfig {
        warmup_requests: warmup,
    };
    let result = Simulator::new(config).run(&mut policy, trace);
    (result, policy)
}

/// LHR under `config`, seeded from the options.
fn lhr(o: &Options, capacity: u64, config: LhrConfig) -> LhrCache {
    LhrCache::new(
        capacity,
        LhrConfig {
            seed: o.seed,
            ..config
        },
    )
}

/// One replay of `trace` through a `CdnServer` running the roster policy
/// `name`, built from `params`, recording into `obs` when given.
fn serve(
    params: &PolicyParams<'_>,
    name: &str,
    trace: &Trace,
    config: ServerConfig,
    obs: Option<Obs>,
) -> ServerReport {
    let build = presets::policy(name).expect("a roster name");
    let server = CdnServer::new(build(params), config);
    match obs {
        Some(obs) => server.with_obs(obs),
        None => server,
    }
    .replay(trace)
}

/// The headline comparisons' line-up: LHR (first, as every figure leads
/// with it) and the paper's seven best-performing SOTAs (§6.2).
const HEADLINE: [&str; 8] = [
    "LHR",
    "LRU",
    "LRU-4",
    "LFU-DA",
    "AdaptSize",
    "B-LRU",
    "LRB",
    "Hawkeye",
];

/// The [`HEADLINE`] line-up at each of `capacities` over `trace`, its first
/// `warmup` requests excluded, on the options' threads: one result list per
/// capacity, in line-up order. Workers claim `(capacity, policy)` cells and
/// build each policy from the roster. Two parameters follow the trace
/// instead of the CLI's constants: B-LRU's filter is sized to its distinct
/// objects (at least 1 024), and LRB's retraining batch shrinks with it so
/// reduced-scale runs still exercise the learned path.
///
/// With a recorder, each worker records into a private shard recorder (a
/// `SpanTree` assumes one thread per recorder) and wraps every cell it
/// claims in a `sweep.cell` span; the shards are absorbed in worker order
/// and `sweep.cells` counts the cells. All workers share the one span path,
/// so a deterministic export is byte-identical at any thread count although
/// which worker ran a cell is a race.
fn grid(o: &Options, trace: &Trace, capacities: &[u64], warmup: usize) -> Vec<Vec<SimResult>> {
    let params = PolicyParams {
        expected_objects: (TraceStats::compute(trace).unique_contents as u64).max(1_024),
        lrb_train_batch: (trace.len() / 16).clamp(1_024, 8_192),
        ..PolicyParams::for_trace(0, o.seed, trace)
    };
    let mut cells: Vec<(u64, &str, Option<SimResult>)> = capacities
        .iter()
        .flat_map(|&capacity| HEADLINE.map(|name| (capacity, name, None)))
        .collect();
    let workers = o.threads.clamp(1, cells.len().max(1));
    let worker_obs: Vec<Obs> = o
        .obs
        .iter()
        .flat_map(|master| (0..workers).map(move |_| Obs::new(master.config().clone())))
        .collect();
    claim_each(&mut cells, workers, |w, _, (capacity, name, result)| {
        let _cell_span = worker_obs.get(w).map(|obs| obs.span("sweep.cell"));
        let build = presets::policy(name).expect("a roster name");
        let policy = build(&PolicyParams {
            capacity: *capacity,
            ..params
        });
        *result = Some(simulate(policy, trace, warmup).0);
    });
    if let Some(master) = &o.obs {
        master.absorb_shards(&worker_obs);
        master.counter_add("sweep.cells", cells.len() as u64);
    }
    let mut results = cells
        .into_iter()
        .map(|(.., result)| result.expect("every cell ran"));
    capacities
        .iter()
        .map(|_| results.by_ref().take(HEADLINE.len()).collect())
        .collect()
}

/// LHR's measured hit ratio under each of `configs`, per production-like
/// trace at its default cache size, the trace's warmup excluded.
fn lhr_hits(o: &Options, configs: &[LhrConfig]) -> Vec<(String, Vec<f64>)> {
    production_traces(o)
        .iter()
        .map(|trace| {
            let capacity = default_capacity(trace);
            let hits = configs
                .iter()
                .map(|config| {
                    hit(&simulate(lhr(o, capacity, config.clone()), trace, warmup_for(trace)).0)
                })
                .collect();
            (trace.name.clone(), hits)
        })
        .collect()
}

fn hit(result: &SimResult) -> f64 {
    result.metrics.object_hit_ratio()
}

/// `a − b` in signed percentage points.
fn delta(a: f64, b: f64) -> Cell {
    Cell::Delta((a - b) * 100.0, 2)
}

/// A row of two runs side by side: both hit ratios and their difference.
fn versus((trace, hits): (String, Vec<f64>)) -> Vec<Cell> {
    vec![
        Cell::Text(trace),
        pct(hits[0]),
        pct(hits[1]),
        delta(hits[0], hits[1]),
    ]
}

// ---------------------------------------------------------------------------
// Table 1 & Figure 1 — trace characteristics
// ---------------------------------------------------------------------------

/// Table 1: key characteristics of the (production-like) traces.
fn table1(o: &Options) -> Table {
    let rows = production_traces(o)
        .iter()
        .map(|t| {
            let s = TraceStats::compute(t);
            vec![
                Cell::text(&s.name),
                Cell::Num(s.duration_hours, 1),
                Cell::Num(s.unique_contents as f64, 0),
                Cell::Num(s.total_requests as f64 / 1e6, 2),
                Cell::Num(s.total_bytes_requested as f64 / 1e12, 2),
                Cell::Num(s.unique_bytes_requested as f64 / 1e9, 0),
                Cell::Num(s.peak_active_bytes as f64 / 1e9, 0),
                Cell::Num(s.mean_content_size / 1e6, 1),
                Cell::Num(s.max_content_size as f64 / 1e6, 0),
                Cell::Num(one_hit_wonder_ratio(t), 2),
            ]
        })
        .collect();
    Table::new(
        format!("Table 1 (scale: {:?}) — trace characteristics", o.scale),
        &[
            "trace",
            "hours",
            "unique",
            "reqs(M)",
            "TB-req",
            "GB-unique",
            "GB-active",
            "meanMB",
            "maxMB",
            "1-hit",
        ],
        rows,
    )
}

/// Figure 1: content popularity (rank-frequency) and inter-request time
/// CCDF, a few representative points per trace.
fn fig1(o: &Options) -> Table {
    let rows = production_traces(o)
        .iter()
        .map(|t| {
            let rf = rank_frequency(t);
            let at_rank = |r: usize| Cell::Num(rf.get(r - 1).copied().unwrap_or(0) as f64, 0);
            let tail = ccdf(&inter_request_times(t), &[1.0, 60.0, 3_600.0]);
            let mut row = vec![Cell::text(&t.name)];
            row.extend([1, 10, 100, 1_000].map(at_rank));
            row.extend(tail.iter().map(|&p| Cell::Num(p, 3)));
            row
        })
        .collect();
    Table::new(
        "Figure 1 — popularity and inter-request times",
        &[
            "trace",
            "freq@1",
            "freq@10",
            "freq@100",
            "freq@1k",
            "P(IRT>1s)",
            "P(IRT>1m)",
            "P(IRT>1h)",
        ],
        rows,
    )
}

// ---------------------------------------------------------------------------
// Figure 2 — bounds vs best SOTA vs LHR
// ---------------------------------------------------------------------------

/// Figure 2: Belady-Size and PFOO (offline bounds), HRO (online bound), the
/// best-performing SOTA, and LHR, per trace at the default cache size. No
/// warmup: the bounds count every request, so the policies do too.
fn fig2(o: &Options) -> Table {
    let rows = production_traces(o)
        .iter()
        .map(|trace| {
            let capacity = default_capacity(trace);
            let results = grid(o, trace, &[capacity], 0).concat();
            let (lhr, sotas) = results.split_first().expect("LHR leads the line-up");
            let best = sotas
                .iter()
                .max_by(|a, b| hit(a).total_cmp(&hit(b)))
                .expect("seven SOTAs");
            vec![
                Cell::text(&trace.name),
                gb(capacity),
                pct(BeladySize.evaluate(trace, capacity).object_hit_ratio()),
                pct(PfooUpper.evaluate(trace, capacity).object_hit_ratio()),
                pct(Hro::default().evaluate(trace, capacity).object_hit_ratio()),
                Cell::Noted(hit(best) * 100.0, 2, best.policy.clone()),
                pct(hit(lhr)),
            ]
        })
        .collect();
    Table::new(
        "Figure 2 — hit probability (%) of bounds, best SOTA, and LHR",
        &[
            "trace",
            "cacheGB",
            "Belady-Size",
            "PFOO-U",
            "HRO",
            "best SOTA",
            "LHR",
        ],
        rows,
    )
}

// ---------------------------------------------------------------------------
// Figures 5 & 6 — LHR design sweeps
// ---------------------------------------------------------------------------

/// Figure 5: impact of the sliding-window size (unique bytes = k × cache).
fn fig5(o: &Options) -> Table {
    let configs = [1.0, 2.0, 4.0, 8.0].map(|window_multiplier| LhrConfig {
        window_multiplier,
        ..LhrConfig::default()
    });
    let rows = lhr_hits(o, &configs)
        .into_iter()
        .map(|(trace, hits)| {
            [Cell::Text(trace)]
                .into_iter()
                .chain(hits.into_iter().map(pct))
                .collect()
        })
        .collect();
    Table::new(
        "Figure 5 — LHR hit probability (%) vs sliding-window size",
        &["trace", "1x", "2x", "4x", "8x"],
        rows,
    )
}

/// Figure 6: impact of the feature set — 10/20/30 IRTs (static features
/// always included), improvement relative to 10 IRTs.
fn fig6(o: &Options) -> Table {
    let configs = [10, 20, 30].map(|n_irts| LhrConfig {
        n_irts,
        ..LhrConfig::default()
    });
    let rows = lhr_hits(o, &configs)
        .into_iter()
        .map(|(trace, h)| {
            vec![
                Cell::Text(trace),
                pct(h[0]),
                delta(h[1], h[0]),
                delta(h[2], h[0]),
            ]
        })
        .collect();
    Table::new(
        "Figure 6 — LHR hit probability vs number of IRT features",
        &["trace", "10 IRTs (%)", "20 IRTs (Δpp)", "30 IRTs (Δpp)"],
        rows,
    )
}

// ---------------------------------------------------------------------------
// Figures 7 & 13 / Tables 2 & 4 — the LHR prototypes
// ---------------------------------------------------------------------------

/// One prototype comparison: LHR and a baseline on the same serving path.
struct Prototype {
    /// Titles of the hit-series figure and of the resource table.
    figure: &'static str,
    table: &'static str,
    /// The baseline server as the paper names it, and its roster policy.
    server: &'static str,
    baseline: &'static str,
    /// Cache size per trace.
    capacity: fn(&Trace) -> u64,
    /// Whether cached objects are revalidated with the origin.
    freshness: bool,
}

/// Figure 7 / Table 2 (§6.1): the LHR prototype against unmodified Apache
/// Traffic Server. The paper replaces ATS's lookup structures with LHR;
/// the baseline keeps ATS's default LRU cache.
const ATS: Prototype = Prototype {
    figure: "Figure 7",
    table: "Table 2",
    server: "ATS",
    baseline: "LRU",
    capacity: default_capacity,
    freshness: true,
};

/// Figure 13 / Table 4 (Appendix A.3): LHR in Caffeine against Caffeine's
/// own policy, W-TinyLFU, at the appendix's smaller caches (64 / 128 / 16 /
/// 128 GB at full scale). In-memory caches skip origin freshness checks.
const CAFFEINE: Prototype = Prototype {
    figure: "Figure 13",
    table: "Table 4",
    server: "Caffeine",
    baseline: "W-TinyLFU",
    capacity: caffeine_capacity,
    freshness: false,
};

/// The cumulative hit ratio, in percent, at the end of each full window of
/// `windows` (request windows of `every` requests: only the last can be
/// partial).
fn cumulative_hit_pct(windows: &[WindowRecord], every: u64) -> Vec<f64> {
    let (mut hits, mut requests) = (0, 0);
    windows
        .iter()
        .take_while(|w| w.requests == every)
        .map(|w| {
            (hits, requests) = (hits + w.hits, requests + w.requests);
            hits as f64 / requests as f64 * 100.0
        })
        .collect()
}

/// Runs a prototype comparison once: the figure holds the cumulative hit
/// ratio at every tenth of the trace, read off the replay's window series,
/// the table the resources.
fn prototype(o: &Options, p: &Prototype) -> [Table; 2] {
    let mut series_rows = Vec::new();
    let mut resource_rows = Vec::new();
    for trace in &production_traces(o) {
        let mut config = ServerConfig::default();
        if !p.freshness {
            config.freshness_secs = None;
        }
        let every = (trace.len() as u64 / 10).max(1);
        let params = PolicyParams {
            // Caffeine's W-TinyLFU sizes its sketches for 2¹⁸ objects; LRU
            // and LHR read no such size.
            expected_objects: 1 << 18,
            ..PolicyParams::for_trace((p.capacity)(trace), o.seed, trace)
        };
        for (server, policy) in [("LHR", "LHR"), (p.server, p.baseline)] {
            let obs = Obs::new(ObsConfig {
                window: ObsWindow::Requests(every),
                ..ObsConfig::default()
            });
            let r = serve(&params, policy, trace, config.clone(), Some(obs.clone()));
            let series = cumulative_hit_pct(&obs.windows(), every);
            series_rows.push(vec![
                Cell::text(&trace.name),
                Cell::text(server),
                Cell::Series(series, 1),
            ]);
            resource_rows.push(vec![
                Cell::text(&trace.name),
                Cell::text(server),
                Cell::Num(r.throughput_gbps, 2),
                Cell::Num(r.peak_cpu_pct, 3),
                Cell::Num(r.peak_mem_gb * 1e3, 1),
                Cell::Num(r.p90_latency_ms, 0),
                Cell::Num(r.p99_latency_ms, 0),
                Cell::Num(r.mean_latency_ms, 0),
                Cell::Num(r.wan_gbps, 2),
                Cell::Num(r.content_hit_pct, 2),
            ]);
        }
    }
    [
        Table::new(
            format!(
                "{} — cumulative hit probability (%) over time, LHR vs {}",
                p.figure, p.server
            ),
            &["trace", "server", "hit% at 10%,20%,...,100% of trace"],
            series_rows,
        ),
        Table::new(
            format!("{} — resource usage, LHR vs {}", p.table, p.server),
            &[
                "trace",
                "server",
                "thrpt(Gbps)",
                "cpu%",
                "mem(MB)",
                "P90(ms)",
                "P99(ms)",
                "mean(ms)",
                "WAN(Gbps)",
                "hit%",
            ],
            resource_rows,
        ),
    ]
}

// ---------------------------------------------------------------------------
// Figures 8 & 9 — LHR vs SOTAs
// ---------------------------------------------------------------------------

/// Runs the LHR-vs-SOTAs grid once (4 traces × 2 cache sizes × 8 policies);
/// Figure 8 holds hit/WAN, Figure 9 memory/time of the learned algorithms
/// at the default capacity.
fn sota_comparison(o: &Options) -> [Table; 2] {
    let mut fig8_rows = Vec::new();
    let mut fig9_rows = Vec::new();
    for trace in &production_traces(o) {
        let base = default_capacity(trace);
        let capacities = [base / 2, base];
        let results = grid(o, trace, &capacities, warmup_for(trace));
        for (&capacity, results) in capacities.iter().zip(&results) {
            for r in results {
                fig8_rows.push(vec![
                    Cell::text(&trace.name),
                    gb(capacity),
                    Cell::text(&r.policy),
                    pct(hit(r)),
                    Cell::Num(r.metrics.wan_gbps(), 3),
                ]);
                if capacity == base && ["LHR", "LRB", "Hawkeye"].contains(&r.policy.as_str()) {
                    fig9_rows.push(vec![
                        Cell::text(&trace.name),
                        Cell::text(&r.policy),
                        Cell::Num(r.peak_metadata_bytes as f64 / 1e6, 1),
                        Cell::Num(r.wall_secs, 2),
                    ]);
                }
            }
        }
    }
    [
        Table::new(
            "Figure 8 — hit probability and WAN traffic, LHR vs SOTAs",
            &["trace", "cacheGB", "policy", "hit%", "WAN(Gbps)"],
            fig8_rows,
        ),
        Table::new(
            "Figure 9 — peak metadata memory and running time (learned algorithms)",
            &["trace", "policy", "peakMem(MB)", "runTime(s)"],
            fig9_rows,
        ),
    ]
}

// ---------------------------------------------------------------------------
// Table 3 — latency & throughput of LHR / Hawkeye / LRB / LRU
// ---------------------------------------------------------------------------

/// Table 3: estimated average latency (ms) and throughput (Gbps) on the
/// §7.3 serving model, without freshness checks.
fn table3(o: &Options) -> Table {
    let mut rows = Vec::new();
    for trace in &production_traces(o) {
        let params = PolicyParams::for_trace(default_capacity(trace), o.seed, trace);
        for policy in ["LHR", "Hawkeye", "LRB", "LRU"] {
            let config = ServerConfig {
                freshness_secs: None,
                ..ServerConfig::default()
            };
            let r = serve(&params, policy, trace, config, None);
            rows.push(vec![
                Cell::text(&trace.name),
                Cell::text(&r.name),
                Cell::Num(r.mean_latency_ms, 1),
                Cell::Num(r.throughput_gbps, 2),
                Cell::Num(r.content_hit_pct, 2),
            ]);
        }
    }
    Table::new(
        "Table 3 — estimated latency and throughput",
        &["trace", "policy", "latency(ms)", "thrpt(Gbps)", "hit%"],
        rows,
    )
}

// ---------------------------------------------------------------------------
// Figure 10 — ablations (LHR vs D-LHR vs N-LHR)
// ---------------------------------------------------------------------------

/// Figure 10: hit probability, peak memory, and training time of LHR and
/// its ablations — the paper's two (D-LHR, N-LHR) and E-LHR, which
/// re-scores every hit as the paper's Algorithm 1 does (LHR scores at
/// admission only; a test below holds LHR to within 0.5 pp of it).
fn fig10(o: &Options) -> Table {
    let mut rows = Vec::new();
    for trace in &production_traces(o) {
        let base = default_capacity(trace);
        for capacity in [base / 2, base] {
            for config in [
                LhrConfig::default(),
                LhrConfig::eager(),
                LhrConfig::d_lhr(),
                LhrConfig::n_lhr(),
            ] {
                let (r, cache) = simulate(lhr(o, capacity, config), trace, warmup_for(trace));
                let stats = cache.stats();
                rows.push(vec![
                    Cell::text(&trace.name),
                    gb(capacity),
                    Cell::text(&r.policy),
                    pct(hit(&r)),
                    Cell::Num(r.peak_metadata_bytes as f64 / 1e6, 1),
                    Cell::Num(stats.train_wall_secs, 2),
                    Cell::text(format!("{}/{}", stats.trainings, stats.windows)),
                    Cell::Num(stats.final_threshold, 2),
                ]);
            }
        }
    }
    Table::new(
        "Figure 10 — LHR vs E-LHR (re-scores hits) vs D-LHR (fixed δ) vs N-LHR (no detection)",
        &[
            "trace",
            "cacheGB",
            "variant",
            "hit%",
            "peakMem(MB)",
            "trainTime(s)",
            "trainings",
            "final δ",
        ],
        rows,
    )
}

// ---------------------------------------------------------------------------
// Figure 11 — responsiveness on Markov-modulated workloads
// ---------------------------------------------------------------------------

/// Figure 11's workloads, "Syn One" and "Syn Two" (N = 1 000 contents, 1 M
/// requests, r = 200 000 at full scale), each with its cache size: a tenth
/// of its unique bytes.
fn syn_workloads(o: &Options) -> Vec<(Trace, u64)> {
    let div = o.scale.divisor();
    let (n_requests, r) = (1_000_000 / div, 200_000 / div);
    [
        markov::syn_one(1_000, n_requests, r, 0.9, o.seed),
        markov::syn_two(1_000, n_requests, r, o.seed),
    ]
    .into_iter()
    .map(|trace| {
        let unique = TraceStats::compute(&trace).unique_bytes_requested as u64;
        (trace, (unique / 10).max(1))
    })
    .collect()
}

/// Figure 11: hit probability and WAN traffic on "Syn One" and "Syn Two".
fn fig11(o: &Options) -> Table {
    let mut rows = Vec::new();
    for (trace, capacity) in &syn_workloads(o) {
        for r in grid(o, trace, &[*capacity], warmup_for(trace)).concat() {
            rows.push(vec![
                Cell::text(&trace.name),
                Cell::text(&r.policy),
                pct(hit(&r)),
                Cell::Num(r.metrics.wan_gbps(), 3),
            ]);
        }
    }
    Table::new(
        "Figure 11 — responsiveness on Markov-modulated workloads",
        &["workload", "policy", "hit%", "WAN(Gbps)"],
        rows,
    )
}

// ---------------------------------------------------------------------------
// Figure 12 — detection accuracy (Appendix A.2)
// ---------------------------------------------------------------------------

/// Figure 12: accuracy of the LSM detection mechanism on a synthetic
/// workload whose Zipf α shifts between segments.
fn fig12(o: &Options) -> Table {
    let div = o.scale.divisor();
    let n_contents = 10_000 / div.max(1);
    let reqs_per_segment = 100_000 / div.max(1);
    // α schedule: alternating shifts with some repeats (true negatives).
    let alphas = [0.7, 0.7, 1.0, 1.0, 1.0, 0.8, 1.1, 1.1, 0.7, 0.9];

    let mut rng = StdRng::seed_from_u64(o.seed);
    let mut trace = Trace::new("detect");
    let mut now = 0.0f64;
    for &alpha in &alphas {
        let sampler = ZipfSampler::new(n_contents, alpha);
        for _ in 0..reqs_per_segment {
            now += 0.001;
            let id = sampler.sample(&mut rng) as u64;
            trace.push(Request::new(Time::from_secs_f64(now), id, 1_000));
        }
    }

    // Windows aligned with segments: one window per segment.
    let mut detector = ZipfDetector::default();
    let verdicts: Vec<_> = trace
        .requests
        .chunks(reqs_per_segment)
        .enumerate()
        .map(|(i, segment)| {
            detector.observe(&WindowData::from_requests(i as u64, segment).objects())
        })
        .collect();

    let mut correct = 0;
    let mut total = 0;
    let mut rows = Vec::new();
    for (i, v) in verdicts.iter().enumerate() {
        let truly_changed = i == 0 || (alphas[i] - alphas[i - 1]).abs() > 1e-9;
        if i > 0 {
            total += 1;
            if v.retrain == truly_changed {
                correct += 1;
            }
        }
        rows.push(vec![
            Cell::Num(i as f64, 0),
            Cell::Num(alphas[i], 1),
            Cell::Num(v.alpha, 3),
            Cell::text(v.retrain.to_string()),
            Cell::text(truly_changed.to_string()),
        ]);
    }
    Table::new(
        format!(
            "Figure 12 — detection mechanism on synthetic α shifts \
             (accuracy {}/{} = {:.0}%)",
            correct,
            total,
            correct as f64 / total.max(1) as f64 * 100.0,
        ),
        &["segment", "true α", "est α", "flagged", "changed"],
        rows,
    )
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper's Figure 10
// ---------------------------------------------------------------------------

/// Eviction-rule ablation (§5.2.5 discusses both rules): the paper's full
/// `q = p/(s·IRT₁)` rule vs the straightforward min-`p` rule.
fn ablation_eviction_rule(o: &Options) -> Table {
    let configs = [EvictionRule::QSizeIrt, EvictionRule::MinP].map(|eviction_rule| LhrConfig {
        eviction_rule,
        ..LhrConfig::default()
    });
    Table::new(
        "Ablation — LHR eviction rule: q = p/(s·IRT₁) vs min-p (§5.2.5)",
        &["trace", "q-rule hit%", "min-p hit%", "Δpp"],
        lhr_hits(o, &configs).into_iter().map(versus).collect(),
    )
}

/// Scoring ablation: LHR consults the model at admission only and renders
/// feature rows only where they are read; E-LHR is the paper-literal
/// algorithm (every request renders a row, every hit is re-scored). On the
/// production-like traces at the default cache size and on Figure 11's two
/// Markov-modulated workloads: what the refresh is worth in hit ratio, and
/// what it costs in running time and peak metadata.
fn ablation_rescore_hits(o: &Options) -> Table {
    let mut workloads: Vec<(Trace, u64)> = production_traces(o)
        .into_iter()
        .map(|trace| {
            let capacity = default_capacity(&trace);
            (trace, capacity)
        })
        .collect();
    workloads.extend(syn_workloads(o));
    let rows = workloads
        .iter()
        .map(|(trace, capacity)| {
            let [lazy, eager] = [LhrConfig::default(), LhrConfig::eager()]
                .map(|config| simulate(lhr(o, *capacity, config), trace, warmup_for(trace)).0);
            let mut row = versus((trace.name.clone(), vec![hit(&lazy), hit(&eager)]));
            row.push(Cell::Num(lazy.wall_secs / eager.wall_secs, 2));
            row.push(Cell::Num(
                lazy.peak_metadata_bytes as f64 / eager.peak_metadata_bytes as f64,
                2,
            ));
            row
        })
        .collect();
    Table::new(
        "Ablation — LHR scoring: at admission only (LHR) vs every hit re-scored (E-LHR)",
        &[
            "trace",
            "LHR hit%",
            "E-LHR hit%",
            "Δpp",
            "run time ×",
            "peak mem ×",
        ],
        rows,
    )
}

/// Loss-function ablation (§5.2.4: the paper reports MSE beat the other
/// losses it explored): LHR trained with squared error vs logistic loss.
fn ablation_loss(o: &Options) -> Table {
    let configs = [Loss::SquaredError, Loss::Logistic].map(|loss| LhrConfig {
        gbm: GbmParams {
            n_trees: 25,
            max_depth: 6,
            loss,
            ..GbmParams::default()
        },
        ..LhrConfig::default()
    });
    Table::new(
        "Ablation — LHR training loss: squared error (paper) vs logistic (§5.2.4)",
        &["trace", "MSE hit%", "logistic hit%", "Δpp"],
        lhr_hits(o, &configs).into_iter().map(versus).collect(),
    )
}

/// HRO under non-Poisson (bursty) request processes: the Poisson
/// approximation is exact for IRM traces; hyperexponential renewal
/// processes test how much tightness it loses (§3.2's "accurate
/// approximation … under the assumption that the number of requests in
/// each sliding window is large").
fn ablation_hro_burstiness(o: &Options) -> Table {
    let duration = (4_000.0 / o.scale.divisor() as f64).max(200.0);
    let bursty = bursty_trace(2_000, duration, o.seed);
    // A Poisson control with the same population scale.
    let poisson = IrmConfig::new(2_000, bursty.len())
        .name("poisson-control")
        .zipf_alpha(0.8)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.4,
            min: 10_000,
            max: 5_000_000,
        })
        .requests_per_sec(bursty.len() as f64 / duration)
        .seed(o.seed)
        .generate();

    let rows = [&poisson, &bursty]
        .into_iter()
        .map(|trace| {
            let unique = TraceStats::compute(trace).unique_bytes_requested as f64;
            let capacity = (unique / 10.0) as u64;
            // No warmup, like the bounds beside it.
            let (lru, _) = simulate(Lru::new(capacity), trace, 0);
            vec![
                Cell::text(&trace.name),
                pct(Hro::default().evaluate(trace, capacity).object_hit_ratio()),
                pct(BeladySize.evaluate(trace, capacity).object_hit_ratio()),
                pct(PfooUpper.evaluate(trace, capacity).object_hit_ratio()),
                pct(hit(&lru)),
            ]
        })
        .collect();
    Table::new(
        "Ablation — HRO's Poisson approximation on bursty (hyperexponential) IRTs",
        &["workload", "HRO", "Belady-Size", "PFOO-U", "LRU"],
        rows,
    )
}

/// HRO tightness vs window multiplier: how the online bound's window size
/// trades estimation quality against adaptivity.
fn ablation_hro_window(o: &Options) -> Table {
    let rows = production_traces(o)
        .iter()
        .map(|trace| {
            let capacity = default_capacity(trace);
            let mut row = vec![Cell::text(&trace.name)];
            for window_multiplier in [1.0, 2.0, 4.0, 8.0] {
                let hro = Hro { window_multiplier };
                row.push(pct(hro.evaluate(trace, capacity).object_hit_ratio()));
            }
            row.push(pct(BeladySize.evaluate(trace, capacity).object_hit_ratio()));
            row
        })
        .collect();
    Table::new(
        "Ablation — HRO bound vs window multiplier (Belady-Size for reference)",
        &["trace", "1x", "2x", "4x", "8x", "Belady-Size"],
        rows,
    )
}

// ---------------------------------------------------------------------------
// The experiment table
// ---------------------------------------------------------------------------

/// The names `repro --only` knows an experiment's reports by, and the run
/// that yields them: one report per name, each one table or more (`fig7`
/// and `table2` are two views of one prototype replay; `ablation` is five
/// studies).
type Experiment = (&'static [&'static str], fn(&Options) -> Vec<Vec<Table>>);

/// Every experiment, in report order.
const EXPERIMENTS: &[Experiment] = &[
    (&["table1"], |o| vec![vec![table1(o)]]),
    (&["fig1"], |o| vec![vec![fig1(o)]]),
    (&["fig2"], |o| vec![vec![fig2(o)]]),
    (&["fig5"], |o| vec![vec![fig5(o)]]),
    (&["fig6"], |o| vec![vec![fig6(o)]]),
    (&["fig7", "table2"], |o| {
        Vec::from(prototype(o, &ATS).map(|t| vec![t]))
    }),
    (&["fig8", "fig9"], |o| {
        Vec::from(sota_comparison(o).map(|t| vec![t]))
    }),
    (&["table3"], |o| vec![vec![table3(o)]]),
    (&["fig10"], |o| vec![vec![fig10(o)]]),
    (&["fig11"], |o| vec![vec![fig11(o)]]),
    (&["fig12"], |o| vec![vec![fig12(o)]]),
    (&["fig13", "table4"], |o| {
        Vec::from(prototype(o, &CAFFEINE).map(|t| vec![t]))
    }),
    (&["ablation"], |o| {
        vec![vec![
            ablation_rescore_hits(o),
            ablation_eviction_rule(o),
            ablation_loss(o),
            ablation_hro_window(o),
            ablation_hro_burstiness(o),
        ]]
    }),
];

/// Runs the experiments named in the comma-separated `only` list (all of
/// them when `None`) and renders their tables in report order, each
/// followed by a blank line. Only the replays a requested report needs are
/// run, each inside a `bench.NAME` span on the options' recorder. An unknown
/// name is an error listing the valid ones.
pub fn run(options: &Options, only: Option<&str>) -> Result<String, String> {
    let wanted: Option<Vec<&str>> = only.map(|list| list.split(',').map(str::trim).collect());
    let known = || {
        EXPERIMENTS
            .iter()
            .flat_map(|(names, _)| names.iter().copied())
    };
    if let Some(unknown) = wanted.iter().flatten().find(|w| !known().any(|k| k == **w)) {
        let valid: Vec<&str> = known().collect();
        return Err(format!(
            "unknown experiment `{unknown}` (valid: {})",
            valid.join(", ")
        ));
    }
    let is_wanted = |name: &str| wanted.as_ref().is_none_or(|w| w.contains(&name));
    let span = |name: &str| options.obs.as_ref().map(|o| o.span(name));
    let _run_all = span("bench.run_all");
    let mut out = String::new();
    for (names, replay) in EXPERIMENTS {
        if !names.iter().any(|name| is_wanted(name)) {
            continue;
        }
        let _experiment = span(&format!("bench.{}", names.join("+")));
        for (name, report) in names.iter().zip(replay(options)) {
            if is_wanted(name) {
                for table in report {
                    writeln!(out, "{table}").expect("writing to a String cannot fail");
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> Options {
        Options {
            scale: lhr_trace::synth::ProductionScale::Tiny,
            seed: 1,
            threads: 2,
            ..Options::default()
        }
    }

    /// The number in column `column` of `row`, a row of `table`.
    fn value(table: &Table, row: &[Cell], column: &str) -> f64 {
        row[table.column(column)]
            .value()
            .unwrap_or_else(|| panic!("`{column}` holds no number in `{}`", table.title))
    }

    #[test]
    fn table1_renders() {
        let t = table1(&tiny_options()).to_string();
        assert!(t.contains("CDN-A") && t.contains("Wiki"));
    }

    /// Appendix A.2: the detector flags a retrain exactly where α moved, in
    /// at least three of four segments; the title quotes what the rows say.
    #[test]
    fn fig12_reports_high_accuracy() {
        let t = fig12(&tiny_options());
        let [flagged, changed] = ["flagged", "changed"].map(|c| t.column(c));
        // The first segment has no predecessor to differ from.
        let judged = &t.rows[1..];
        let correct = judged.iter().filter(|r| r[flagged] == r[changed]).count();
        let quoted = format!("accuracy {correct}/{} ", judged.len());
        assert!(t.title.contains(&quoted), "{t}");
        assert!(
            correct * 4 >= judged.len() * 3,
            "detection accuracy {correct}/{} is under 75 %\n{t}",
            judged.len()
        );
    }

    #[test]
    fn only_selects_reports_by_name_and_refuses_unknown_names() {
        let options = tiny_options();
        let both = run(&options, Some("table1, fig12")).unwrap();
        assert_eq!(both, format!("{}\n{}\n", table1(&options), fig12(&options)));
        let err = run(&options, Some("fig12,fig99")).unwrap_err();
        assert!(
            err.contains("`fig99`") && err.contains("table4") && err.contains("ablation"),
            "{err}"
        );
    }

    /// Figure 2, per trace: HRO bounds every non-anticipative policy (the
    /// theorem of "A New Upper Bound on Cache Hit Probability for
    /// Non-anticipative Caching Policies"), so it tops LHR and the best
    /// SOTA, and PFOO-U bounds every feasible one. Belady-Size is a
    /// heuristic on variable sizes, not a bound: LHR beats it on CDN-A at
    /// seed 42.
    #[test]
    fn fig2_bounds_dominate_lhr() {
        let t = fig2(&tiny_options());
        assert_eq!(t.rows.len(), 4, "{t}");
        for row in &t.rows {
            let [hro, pfoo, best, lhr] =
                ["HRO", "PFOO-U", "best SOTA", "LHR"].map(|c| value(&t, row, c));
            assert!(hro >= lhr, "HRO {hro} < LHR {lhr}\n{t}");
            assert!(pfoo >= lhr, "PFOO-U {pfoo} < LHR {lhr}\n{t}");
            assert!(hro >= best, "HRO {hro} < best SOTA {best}\n{t}");
        }
    }

    /// Figure 10: scoring at admission only costs LHR at most 0.5 pp
    /// against E-LHR, the paper-literal algorithm it replaced as the
    /// default, in every trace × cache cell.
    #[test]
    fn fig10_lhr_is_within_half_a_point_of_e_lhr() {
        let t = fig10(&tiny_options());
        let [trace, cache, variant] = ["trace", "cacheGB", "variant"].map(|c| t.column(c));
        let rows_of = |name: &str| -> Vec<&Vec<Cell>> {
            let name = Cell::text(name);
            t.rows.iter().filter(|r| r[variant] == name).collect()
        };
        let (lazy, eager) = (rows_of("LHR"), rows_of("E-LHR"));
        assert_eq!((lazy.len(), eager.len()), (8, 8), "{t}");
        for (l, e) in lazy.iter().zip(&eager) {
            assert_eq!((&l[trace], &l[cache]), (&e[trace], &e[cache]));
            let (l_hit, e_hit) = (value(&t, l, "hit%"), value(&t, e, "hit%"));
            assert!(
                l_hit >= e_hit - 0.5,
                "{} @ {} GB: LHR {l_hit:.2} % is more than 0.5 pp under E-LHR {e_hit:.2} %",
                l[trace],
                l[cache]
            );
        }
    }

    /// Figures 7 / 13 read the cumulative hit ratio off the replay's window
    /// series, one window per tenth of the trace; Tables 2 / 4 report the
    /// same replay. Every series has 10 points, and its last is within
    /// 0.2 pp of the report's `hit%`, so the two cannot drift apart.
    #[test]
    fn hit_series_end_where_the_report_does() {
        let o = tiny_options();
        let mut rows = 0;
        for p in [&ATS, &CAFFEINE] {
            let [figure, table] = prototype(&o, p);
            assert_eq!(figure.rows.len(), table.rows.len());
            for (series, report) in figure.rows.iter().zip(&table.rows) {
                assert_eq!(series[..2], report[..2], "{} row order", p.figure);
                let Cell::Series(points, _) = &series[2] else {
                    panic!("{}: no series in {series:?}", p.figure)
                };
                let hit = value(&table, report, "hit%");
                assert_eq!(points.len(), 10, "{} {series:?}", p.figure);
                assert!(
                    (points[9] - hit).abs() <= 0.2,
                    "{} {} {}: 10th point {:.2} % is more than 0.2 pp from hit% {hit:.2}",
                    p.figure,
                    series[0],
                    series[1],
                    points[9]
                );
                rows += 1;
            }
        }
        assert_eq!(rows, 16);
    }

    /// The grid runs the headline line-up in order at each capacity, one
    /// `sweep.cell` span per cell, and its deterministic export is
    /// byte-identical however many workers raced for the cells.
    #[test]
    fn grid_obs_is_thread_count_invariant() {
        let trace = IrmConfig::new(50, 2_000).seed(3).generate();
        let export = |threads: usize| {
            let obs = Obs::new(ObsConfig {
                deterministic: true,
                ..ObsConfig::default()
            });
            let o = Options {
                threads,
                obs: Some(obs.clone()),
                ..tiny_options()
            };
            let results = grid(&o, &trace, &[50_000, 200_000], 0);
            assert_eq!(results.len(), 2);
            for line_up in &results {
                let names: Vec<&str> = line_up.iter().map(|r| r.policy.as_str()).collect();
                assert_eq!(names, HEADLINE);
            }
            obs.to_jsonl()
        };
        let one = export(1);
        assert!(
            one.contains("sweep.cell") && one.contains("sweep.cells"),
            "{one}"
        );
        assert_eq!(one, export(4));
    }
}

//! One function per paper table/figure. Each returns a printable report;
//! the `src/bin/*` binaries are thin wrappers, and `repro` runs everything.

use crate::harness::{
    all_factories, default_capacity, format_table, gb, lrb_window_secs, pct, production_traces,
    Options,
};
use lhr::cache::{LhrCache, LhrConfig};
use lhr::detect::ZipfDetector;
use lhr::hazard::Hro;
use lhr::window::WindowTracker;
use lhr_bounds::{BeladySize, PfooUpper};
use lhr_policies::{Hawkeye, Lrb, Lru};
use lhr_proto::presets::{ats_server, caffeine_server, lhr_caffeine_server, lhr_server};
use lhr_proto::{CdnServer, ServerConfig, ServerReport};
use lhr_sim::bound::OfflineBound;
use lhr_sim::sweep::{run_grid_obs, Cell};
use lhr_sim::{CachePolicy, SimConfig, Simulator};
use lhr_trace::stats::{ccdf, inter_request_times, one_hit_wonder_ratio, rank_frequency};
use lhr_trace::synth::{markov, ZipfSampler};
use lhr_trace::{Request, Time, Trace, TraceStats};

/// Default warmup: the first fifth of the trace (≈ the first training
/// windows), excluded from measured hit ratios as in §5.1.
fn warmup_for(trace: &Trace) -> usize {
    trace.len() / 5
}

// ---------------------------------------------------------------------------
// Table 1 & Figure 1 — trace characteristics
// ---------------------------------------------------------------------------

/// Table 1: key characteristics of the (production-like) traces.
pub fn table1(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.table1"));
    let traces = production_traces(options);
    let rows: Vec<Vec<String>> = traces
        .iter()
        .map(|t| {
            let s = TraceStats::compute(t);
            vec![
                s.name.clone(),
                format!("{:.1}", s.duration_hours),
                s.unique_contents.to_string(),
                format!("{:.2}", s.total_requests as f64 / 1e6),
                format!("{:.2}", s.total_bytes_requested as f64 / 1e12),
                format!("{:.0}", s.unique_bytes_requested as f64 / 1e9),
                format!("{:.0}", s.peak_active_bytes as f64 / 1e9),
                format!("{:.1}", s.mean_content_size / 1e6),
                format!("{:.0}", s.max_content_size as f64 / 1e6),
                format!("{:.2}", one_hit_wonder_ratio(t)),
            ]
        })
        .collect();
    format!(
        "Table 1 (scale: {:?}) — trace characteristics\n{}",
        options.scale,
        format_table(
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
            &rows,
        )
    )
}

/// Figure 1: content popularity (rank-frequency) and inter-request time
/// CCDF, a few representative points per trace.
pub fn fig1(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.fig1"));
    let traces = production_traces(options);
    let mut out = String::from("Figure 1 — popularity and inter-request times\n");
    let mut rows = Vec::new();
    for t in &traces {
        let rf = rank_frequency(t);
        let sample_rank = |r: usize| rf.get(r.saturating_sub(1)).copied().unwrap_or(0);
        let irts = inter_request_times(t);
        let points = [1.0, 60.0, 3_600.0];
        let tail = ccdf(&irts, &points);
        rows.push(vec![
            t.name.clone(),
            sample_rank(1).to_string(),
            sample_rank(10).to_string(),
            sample_rank(100).to_string(),
            sample_rank(1_000).to_string(),
            format!("{:.3}", tail[0]),
            format!("{:.3}", tail[1]),
            format!("{:.3}", tail[2]),
        ]);
    }
    out.push_str(&format_table(
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
        &rows,
    ));
    out
}

// ---------------------------------------------------------------------------
// Figure 2 — bounds vs best SOTA vs LHR
// ---------------------------------------------------------------------------

/// Figure 2: Belady-Size and PFOO (offline bounds), HRO (online bound), the
/// best-performing SOTA, and LHR, per trace at the default cache size.
pub fn fig2(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.fig2"));
    let traces = production_traces(options);
    let mut rows = Vec::new();
    for trace in &traces {
        let capacity = default_capacity(trace, options);
        let belady = BeladySize.evaluate(trace, capacity);
        let pfoo = PfooUpper.evaluate(trace, capacity);
        let hro = Hro::default().evaluate(trace, capacity);

        let factories = all_factories(trace, options.seed);
        let cells: Vec<Cell<'_>> = (0..factories.len())
            .map(|policy| Cell {
                policy,
                trace,
                capacity,
            })
            .collect();
        let config = SimConfig::default();
        let results = run_grid_obs(
            &factories,
            &cells,
            &config,
            options.threads,
            options.obs.as_ref(),
        );
        let lhr = &results[0];
        let best_sota = results[1..]
            .iter()
            .max_by(|a, b| {
                a.metrics
                    .object_hit_ratio()
                    .partial_cmp(&b.metrics.object_hit_ratio())
                    .expect("finite")
            })
            .expect("seven SOTAs");

        rows.push(vec![
            trace.name.clone(),
            gb(capacity),
            pct(belady.object_hit_ratio()),
            pct(pfoo.object_hit_ratio()),
            pct(hro.object_hit_ratio()),
            format!(
                "{} ({})",
                pct(best_sota.metrics.object_hit_ratio()),
                best_sota.policy
            ),
            pct(lhr.metrics.object_hit_ratio()),
        ]);
    }
    format!(
        "Figure 2 — hit probability (%) of bounds, best SOTA, and LHR\n{}",
        format_table(
            &[
                "trace",
                "cacheGB",
                "Belady-Size",
                "PFOO-U",
                "HRO",
                "best SOTA",
                "LHR"
            ],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------------
// Figures 5 & 6 — LHR design sweeps
// ---------------------------------------------------------------------------

/// Figure 5: impact of the sliding-window size (unique bytes = k × cache).
pub fn fig5(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.fig5"));
    let traces = production_traces(options);
    let multipliers = [1.0, 2.0, 4.0, 8.0];
    let mut rows = Vec::new();
    for trace in &traces {
        let capacity = default_capacity(trace, options);
        let config = SimConfig {
            warmup_requests: warmup_for(trace),
            series_every: None,
        };
        let mut row = vec![trace.name.clone()];
        for &m in &multipliers {
            let mut cache = LhrCache::new(
                capacity,
                LhrConfig {
                    window_multiplier: m,
                    seed: options.seed,
                    ..LhrConfig::default()
                },
            );
            let r = Simulator::new(config.clone()).run(&mut cache, trace);
            row.push(pct(r.metrics.object_hit_ratio()));
        }
        rows.push(row);
    }
    format!(
        "Figure 5 — LHR hit probability (%) vs sliding-window size\n{}",
        format_table(&["trace", "1x", "2x", "4x", "8x"], &rows)
    )
}

/// Figure 6: impact of the feature set — 10/20/30 IRTs (static features
/// always included), improvement relative to 10 IRTs.
pub fn fig6(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.fig6"));
    let traces = production_traces(options);
    let irts = [10usize, 20, 30];
    let mut rows = Vec::new();
    for trace in &traces {
        let capacity = default_capacity(trace, options);
        let config = SimConfig {
            warmup_requests: warmup_for(trace),
            series_every: None,
        };
        let mut hit = Vec::new();
        for &k in &irts {
            let mut cache = LhrCache::new(
                capacity,
                LhrConfig {
                    n_irts: k,
                    seed: options.seed,
                    ..LhrConfig::default()
                },
            );
            let r = Simulator::new(config.clone()).run(&mut cache, trace);
            hit.push(r.metrics.object_hit_ratio());
        }
        rows.push(vec![
            trace.name.clone(),
            pct(hit[0]),
            format!("{:+.2}", (hit[1] - hit[0]) * 100.0),
            format!("{:+.2}", (hit[2] - hit[0]) * 100.0),
        ]);
    }
    format!(
        "Figure 6 — LHR hit probability vs number of IRT features\n{}",
        format_table(
            &["trace", "10 IRTs (%)", "20 IRTs (Δpp)", "30 IRTs (Δpp)"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// Figure 7 / Table 2 — LHR prototype vs ATS
// ---------------------------------------------------------------------------

/// Runs the ATS-vs-LHR prototype comparison once; Figure 7 prints the hit
/// series, Table 2 the resource rows.
pub fn prototype_vs_ats(options: &Options) -> (String, String) {
    let _span = options
        .obs
        .as_ref()
        .map(|o| o.span("bench.prototype_vs_ats"));
    let traces = production_traces(options);
    let mut series_rows = Vec::new();
    let mut resource_rows = Vec::new();
    for trace in &traces {
        let capacity = default_capacity(trace, options);
        let server_config = ServerConfig {
            series_every: Some((trace.len() / 10).max(1)),
            ..ServerConfig::default()
        };
        let mut ats = ats_server(capacity, server_config.clone());
        let ats_report = ats.replay(trace);
        let mut lhr = lhr_server(
            capacity,
            LhrConfig {
                seed: options.seed,
                ..LhrConfig::default()
            },
            server_config,
        );
        let lhr_report = lhr.replay(trace);

        let fmt_series = |r: &ServerReport| {
            r.series
                .iter()
                .map(|(_, h)| format!("{:.1}", h * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        };
        series_rows.push(vec![
            trace.name.clone(),
            "LHR".into(),
            fmt_series(&lhr_report),
        ]);
        series_rows.push(vec![
            trace.name.clone(),
            "ATS".into(),
            fmt_series(&ats_report),
        ]);

        for r in [&lhr_report, &ats_report] {
            resource_rows.push(vec![
                trace.name.clone(),
                if std::ptr::eq(r, &lhr_report) {
                    "LHR".into()
                } else {
                    "ATS".into()
                },
                format!("{:.2}", r.throughput_gbps),
                format!("{:.3}", r.peak_cpu_pct),
                format!("{:.1}", r.peak_mem_gb * 1e3),
                format!("{:.0}", r.p90_latency_ms),
                format!("{:.0}", r.p99_latency_ms),
                format!("{:.0}", r.mean_latency_ms),
                format!("{:.2}", r.wan_gbps),
                format!("{:.2}", r.content_hit_pct),
            ]);
        }
    }
    let fig7 = format!(
        "Figure 7 — cumulative hit probability (%) over time, LHR vs ATS\n{}",
        format_table(
            &["trace", "server", "hit%% at 10%,20%,...,100% of trace"],
            &series_rows
        )
    );
    let table2 = format!(
        "Table 2 — resource usage, LHR vs ATS\n{}",
        format_table(
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
            &resource_rows,
        )
    );
    (fig7, table2)
}

// ---------------------------------------------------------------------------
// Figures 8 & 9 — LHR vs SOTAs
// ---------------------------------------------------------------------------

/// Runs the LHR-vs-SOTAs grid once (4 traces × 2 cache sizes × 8 policies);
/// Figure 8 prints hit/WAN, Figure 9 memory/time.
pub fn sota_comparison(options: &Options) -> (String, String) {
    let _span = options
        .obs
        .as_ref()
        .map(|o| o.span("bench.sota_comparison"));
    let traces = production_traces(options);
    let mut fig8_rows = Vec::new();
    let mut fig9_rows = Vec::new();
    for trace in &traces {
        let base = default_capacity(trace, options);
        let capacities = [base / 2, base];
        let factories = all_factories(trace, options.seed);
        let config = SimConfig {
            warmup_requests: warmup_for(trace),
            series_every: None,
        };
        let cells: Vec<Cell<'_>> = capacities
            .iter()
            .flat_map(|&capacity| {
                (0..factories.len()).map(move |policy| Cell {
                    policy,
                    trace,
                    capacity,
                })
            })
            .collect();
        let results = run_grid_obs(
            &factories,
            &cells,
            &config,
            options.threads,
            options.obs.as_ref(),
        );

        for (cell, result) in cells.iter().zip(results.iter()) {
            fig8_rows.push(vec![
                trace.name.clone(),
                gb(cell.capacity),
                result.policy.clone(),
                pct(result.metrics.object_hit_ratio()),
                format!("{:.3}", result.metrics.wan_gbps()),
            ]);
        }
        // Figure 9 covers the learned algorithms at the default capacity.
        for result in results.iter().skip(factories.len()) {
            if ["LHR", "LRB", "Hawkeye"].contains(&result.policy.as_str()) {
                fig9_rows.push(vec![
                    trace.name.clone(),
                    result.policy.clone(),
                    format!("{:.1}", result.peak_metadata_bytes as f64 / 1e6),
                    format!("{:.2}", result.wall_secs),
                ]);
            }
        }
    }
    let fig8 = format!(
        "Figure 8 — hit probability and WAN traffic, LHR vs SOTAs\n{}",
        format_table(
            &["trace", "cacheGB", "policy", "hit%", "WAN(Gbps)"],
            &fig8_rows
        )
    );
    let fig9 = format!(
        "Figure 9 — peak metadata memory and running time (learned algorithms)\n{}",
        format_table(
            &["trace", "policy", "peakMem(MB)", "runTime(s)"],
            &fig9_rows
        )
    );
    (fig8, fig9)
}

// ---------------------------------------------------------------------------
// Table 3 — latency & throughput of LHR / Hawkeye / LRB / LRU
// ---------------------------------------------------------------------------

/// Table 3: estimated average latency (ms) and throughput (Gbps) on the
/// §7.3 serving model.
pub fn table3(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.table3"));
    let traces = production_traces(options);
    let mut rows = Vec::new();
    for trace in &traces {
        let capacity = default_capacity(trace, options);
        let server_config = ServerConfig {
            freshness_secs: None,
            ..ServerConfig::default()
        };
        let mut reports: Vec<ServerReport> = Vec::new();
        {
            let mut s = lhr_server(
                capacity,
                LhrConfig {
                    seed: options.seed,
                    ..LhrConfig::default()
                },
                server_config.clone(),
            );
            reports.push(s.replay(trace));
        }
        {
            let mut s = CdnServer::new(Hawkeye::new(capacity), server_config.clone());
            reports.push(s.replay(trace));
        }
        {
            let mut s = CdnServer::new(
                Lrb::new(capacity, lrb_window_secs(trace), options.seed),
                server_config.clone(),
            );
            reports.push(s.replay(trace));
        }
        {
            let mut s = CdnServer::new(Lru::new(capacity), server_config.clone());
            reports.push(s.replay(trace));
        }
        for r in &reports {
            rows.push(vec![
                trace.name.clone(),
                r.name.clone(),
                format!("{:.1}", r.mean_latency_ms),
                format!("{:.2}", r.throughput_gbps),
                format!("{:.2}", r.content_hit_pct),
            ]);
        }
    }
    format!(
        "Table 3 — estimated latency and throughput\n{}",
        format_table(
            &["trace", "policy", "latency(ms)", "thrpt(Gbps)", "hit%"],
            &rows
        )
    )
}

// ---------------------------------------------------------------------------
// Figure 10 — ablations (LHR vs D-LHR vs N-LHR)
// ---------------------------------------------------------------------------

/// Figure 10: hit probability, peak memory, and training time of LHR and
/// its ablations — the paper's two (D-LHR, N-LHR) and E-LHR, which
/// re-scores every hit as the paper's Algorithm 1 does (LHR scores at
/// admission only; `scripts/verify.sh` holds LHR to within 0.5 pp of it).
pub fn fig10(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.fig10"));
    let traces = production_traces(options);
    let mut rows = Vec::new();
    for trace in &traces {
        let base = default_capacity(trace, options);
        for capacity in [base / 2, base] {
            for config in [
                LhrConfig {
                    seed: options.seed,
                    ..LhrConfig::default()
                },
                LhrConfig {
                    seed: options.seed,
                    ..LhrConfig::eager()
                },
                LhrConfig {
                    seed: options.seed,
                    ..LhrConfig::d_lhr()
                },
                LhrConfig {
                    seed: options.seed,
                    ..LhrConfig::n_lhr()
                },
            ] {
                let mut cache = LhrCache::new(capacity, config);
                let sim_config = SimConfig {
                    warmup_requests: warmup_for(trace),
                    series_every: None,
                };
                let result = Simulator::new(sim_config).run(&mut cache, trace);
                let stats = cache.stats();
                rows.push(vec![
                    trace.name.clone(),
                    gb(capacity),
                    cache.name().to_string(),
                    pct(result.metrics.object_hit_ratio()),
                    format!("{:.1}", result.peak_metadata_bytes as f64 / 1e6),
                    format!("{:.2}", stats.train_wall_secs),
                    format!("{}/{}", stats.trainings, stats.windows),
                    format!("{:.2}", stats.final_threshold),
                ]);
            }
        }
    }
    format!(
        "Figure 10 — LHR vs E-LHR (re-scores hits) vs D-LHR (fixed δ) vs N-LHR (no detection)\n{}",
        format_table(
            &[
                "trace",
                "cacheGB",
                "variant",
                "hit%",
                "peakMem(MB)",
                "trainTime(s)",
                "trainings",
                "final δ"
            ],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------------
// Figure 11 — responsiveness on Markov-modulated workloads
// ---------------------------------------------------------------------------

/// Figure 11's workloads, "Syn One" and "Syn Two" (N = 1 000 contents, 1 M
/// requests, r = 200 000 at full scale), each with its cache size: a tenth
/// of its unique bytes.
fn syn_workloads(options: &Options) -> Vec<(Trace, u64)> {
    let div = options.scale.divisor();
    let (n_requests, r) = (1_000_000 / div, 200_000 / div);
    [
        markov::syn_one(1_000, n_requests, r, 0.9, options.seed),
        markov::syn_two(1_000, n_requests, r, options.seed),
    ]
    .into_iter()
    .map(|trace| {
        let unique = TraceStats::compute(&trace).unique_bytes_requested as u64;
        (trace, (unique / 10).max(1))
    })
    .collect()
}

/// Figure 11: hit probability and WAN traffic on "Syn One" and "Syn Two".
pub fn fig11(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.fig11"));
    let mut rows = Vec::new();
    for &(ref trace, capacity) in &syn_workloads(options) {
        let factories = all_factories(trace, options.seed);
        let config = SimConfig {
            warmup_requests: warmup_for(trace),
            series_every: None,
        };
        let cells: Vec<Cell<'_>> = (0..factories.len())
            .map(|policy| Cell {
                policy,
                trace,
                capacity,
            })
            .collect();
        let results = run_grid_obs(
            &factories,
            &cells,
            &config,
            options.threads,
            options.obs.as_ref(),
        );
        for result in &results {
            rows.push(vec![
                trace.name.clone(),
                result.policy.clone(),
                pct(result.metrics.object_hit_ratio()),
                format!("{:.3}", result.metrics.wan_gbps()),
            ]);
        }
    }
    format!(
        "Figure 11 — responsiveness on Markov-modulated workloads\n{}",
        format_table(&["workload", "policy", "hit%", "WAN(Gbps)"], &rows)
    )
}

// ---------------------------------------------------------------------------
// Figure 12 — detection accuracy (Appendix A.2)
// ---------------------------------------------------------------------------

/// Figure 12: accuracy of the LSM detection mechanism on a synthetic
/// workload whose Zipf α shifts between segments.
pub fn fig12(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.fig12"));
    use lhr_util::rng::rngs::StdRng;
    use lhr_util::rng::SeedableRng;

    let div = options.scale.divisor();
    let n_contents = 10_000 / div.max(1);
    let reqs_per_segment = 100_000 / div.max(1);
    // α schedule: alternating shifts with some repeats (true negatives).
    let alphas = [0.7, 0.7, 1.0, 1.0, 1.0, 0.8, 1.1, 1.1, 0.7, 0.9];

    let mut rng = StdRng::seed_from_u64(options.seed);
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
    let mut tracker = WindowTracker::new(u64::MAX);
    let mut verdicts = Vec::new();
    for (i, req) in trace.iter().enumerate() {
        tracker.observe(req);
        if (i + 1) % reqs_per_segment == 0 {
            let window =
                std::mem::replace(&mut tracker, WindowTracker::new(u64::MAX)).into_partial();
            verdicts.push(detector.observe(&window));
        }
    }

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
            format!("{}", i),
            format!("{:.1}", alphas[i]),
            format!("{:.3}", v.alpha),
            v.retrain.to_string(),
            truly_changed.to_string(),
        ]);
    }
    format!(
        "Figure 12 — detection mechanism on synthetic α shifts \
         (accuracy {}/{} = {:.0}%)\n{}",
        correct,
        total,
        correct as f64 / total.max(1) as f64 * 100.0,
        format_table(&["segment", "true α", "est α", "flagged", "changed"], &rows)
    )
}

// ---------------------------------------------------------------------------
// Figure 13 / Table 4 — LHR vs Caffeine (Appendix A.3)
// ---------------------------------------------------------------------------

/// Runs the Caffeine comparison once; Figure 13 prints the series, Table 4
/// the resources. Caffeine experiments use the appendix's smaller caches
/// (64 / 128 / 16 / 128 GB at full scale).
pub fn prototype_vs_caffeine(options: &Options) -> (String, String) {
    let _span = options
        .obs
        .as_ref()
        .map(|o| o.span("bench.prototype_vs_caffeine"));
    let traces = production_traces(options);
    let mut series_rows = Vec::new();
    let mut resource_rows = Vec::new();
    for trace in traces.iter() {
        let capacity = crate::harness::caffeine_capacity(trace);
        let server_config = ServerConfig {
            series_every: Some((trace.len() / 10).max(1)),
            ..ServerConfig::default()
        };
        let mut caffeine = caffeine_server(capacity, server_config.clone());
        let caffeine_report = caffeine.replay(trace);
        let mut lhr = lhr_caffeine_server(
            capacity,
            LhrConfig {
                seed: options.seed,
                ..LhrConfig::default()
            },
            server_config,
        );
        let lhr_report = lhr.replay(trace);

        let fmt_series = |r: &ServerReport| {
            r.series
                .iter()
                .map(|(_, h)| format!("{:.1}", h * 100.0))
                .collect::<Vec<_>>()
                .join(" ")
        };
        series_rows.push(vec![
            trace.name.clone(),
            "LHR".into(),
            fmt_series(&lhr_report),
        ]);
        series_rows.push(vec![
            trace.name.clone(),
            "Caffeine".into(),
            fmt_series(&caffeine_report),
        ]);
        for (label, r) in [("LHR", &lhr_report), ("Caffeine", &caffeine_report)] {
            resource_rows.push(vec![
                trace.name.clone(),
                label.into(),
                format!("{:.2}", r.throughput_gbps),
                format!("{:.3}", r.peak_cpu_pct),
                format!("{:.1}", r.peak_mem_gb * 1e3),
                format!("{:.0}", r.p90_latency_ms),
                format!("{:.0}", r.p99_latency_ms),
                format!("{:.0}", r.mean_latency_ms),
                format!("{:.2}", r.wan_gbps),
                format!("{:.2}", r.content_hit_pct),
            ]);
        }
    }
    let fig13 = format!(
        "Figure 13 — cumulative hit probability (%) over time, LHR vs Caffeine\n{}",
        format_table(
            &["trace", "server", "hit%% at 10%,...,100% of trace"],
            &series_rows
        )
    );
    let table4 = format!(
        "Table 4 — resource usage, LHR vs Caffeine\n{}",
        format_table(
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
            &resource_rows,
        )
    );
    (fig13, table4)
}

// ---------------------------------------------------------------------------
// Ablations beyond the paper's Figure 10
// ---------------------------------------------------------------------------

/// Eviction-rule ablation (§5.2.5 discusses both rules): the paper's full
/// `q = p/(s·IRT₁)` rule vs the straightforward min-`p` rule.
pub fn ablation_eviction_rule(options: &Options) -> String {
    let _span = options
        .obs
        .as_ref()
        .map(|o| o.span("bench.ablation_eviction_rule"));
    use lhr::cache::EvictionRule;
    let traces = production_traces(options);
    let mut rows = Vec::new();
    for trace in &traces {
        let capacity = default_capacity(trace, options);
        let config = SimConfig {
            warmup_requests: warmup_for(trace),
            series_every: None,
        };
        let mut hit = Vec::new();
        for rule in [EvictionRule::QSizeIrt, EvictionRule::MinP] {
            let mut cache = LhrCache::new(
                capacity,
                LhrConfig {
                    eviction_rule: rule,
                    seed: options.seed,
                    ..LhrConfig::default()
                },
            );
            let r = Simulator::new(config.clone()).run(&mut cache, trace);
            hit.push(r.metrics.object_hit_ratio());
        }
        rows.push(vec![
            trace.name.clone(),
            pct(hit[0]),
            pct(hit[1]),
            format!("{:+.2}", (hit[0] - hit[1]) * 100.0),
        ]);
    }
    format!(
        "Ablation — LHR eviction rule: q = p/(s·IRT₁) vs min-p (§5.2.5)\n{}",
        format_table(&["trace", "q-rule hit%", "min-p hit%", "Δpp"], &rows)
    )
}

/// Scoring ablation: LHR consults the model at admission only and renders
/// feature rows only where they are read; E-LHR is the paper-literal
/// algorithm (every request renders a row, every hit is re-scored). On the
/// production-like traces at the default cache size and on Figure 11's two
/// Markov-modulated workloads: what the refresh is worth in hit ratio, and
/// what it costs in running time and peak metadata.
pub fn ablation_rescore_hits(options: &Options) -> String {
    let _span = options
        .obs
        .as_ref()
        .map(|o| o.span("bench.ablation_rescore_hits"));
    let mut traces: Vec<(Trace, u64)> = production_traces(options)
        .into_iter()
        .map(|trace| {
            let capacity = default_capacity(&trace, options);
            (trace, capacity)
        })
        .collect();
    traces.extend(syn_workloads(options));
    let mut rows = Vec::new();
    for (trace, capacity) in &traces {
        let config = SimConfig {
            warmup_requests: warmup_for(trace),
            series_every: None,
        };
        let results: Vec<_> = [LhrConfig::default(), LhrConfig::eager()]
            .into_iter()
            .map(|lhr| {
                let seed = options.seed;
                let mut cache = LhrCache::new(*capacity, LhrConfig { seed, ..lhr });
                Simulator::new(config.clone()).run(&mut cache, trace)
            })
            .collect();
        let hit = |i: usize| results[i].metrics.object_hit_ratio();
        rows.push(vec![
            trace.name.clone(),
            pct(hit(0)),
            pct(hit(1)),
            format!("{:+.2}", (hit(0) - hit(1)) * 100.0),
            format!("{:.2}", results[0].wall_secs / results[1].wall_secs),
            format!(
                "{:.2}",
                results[0].peak_metadata_bytes as f64 / results[1].peak_metadata_bytes as f64
            ),
        ]);
    }
    format!(
        "Ablation — LHR scoring: at admission only (LHR) vs every hit re-scored (E-LHR)\n{}",
        format_table(
            &[
                "trace",
                "LHR hit%",
                "E-LHR hit%",
                "Δpp",
                "run time ×",
                "peak mem ×"
            ],
            &rows
        )
    )
}

/// Loss-function ablation (§5.2.4: the paper reports MSE beat the other
/// losses it explored): LHR trained with squared error vs logistic loss.
pub fn ablation_loss(options: &Options) -> String {
    let _span = options.obs.as_ref().map(|o| o.span("bench.ablation_loss"));
    use lhr_gbm::{GbmParams, Loss};
    let traces = production_traces(options);
    let mut rows = Vec::new();
    for trace in &traces {
        let capacity = default_capacity(trace, options);
        let config = SimConfig {
            warmup_requests: warmup_for(trace),
            series_every: None,
        };
        let mut hit = Vec::new();
        for loss in [Loss::SquaredError, Loss::Logistic] {
            let mut cache = LhrCache::new(
                capacity,
                LhrConfig {
                    gbm: GbmParams {
                        n_trees: 25,
                        max_depth: 6,
                        loss,
                        ..GbmParams::default()
                    },
                    seed: options.seed,
                    ..LhrConfig::default()
                },
            );
            let r = Simulator::new(config.clone()).run(&mut cache, trace);
            hit.push(r.metrics.object_hit_ratio());
        }
        rows.push(vec![
            trace.name.clone(),
            pct(hit[0]),
            pct(hit[1]),
            format!("{:+.2}", (hit[0] - hit[1]) * 100.0),
        ]);
    }
    format!(
        "Ablation — LHR training loss: squared error (paper) vs logistic (§5.2.4)\n{}",
        format_table(&["trace", "MSE hit%", "logistic hit%", "Δpp"], &rows)
    )
}

/// HRO under non-Poisson (bursty) request processes: the Poisson
/// approximation is exact for IRM traces; hyperexponential renewal
/// processes test how much tightness it loses (§3.2's "accurate
/// approximation … under the assumption that the number of requests in
/// each sliding window is large").
pub fn ablation_hro_burstiness(options: &Options) -> String {
    let _span = options
        .obs
        .as_ref()
        .map(|o| o.span("bench.ablation_hro_burstiness"));
    use lhr_trace::synth::renewal::bursty_trace;
    use lhr_trace::synth::{IrmConfig, SizeModel};

    let div = options.scale.divisor() as f64;
    let duration = (4_000.0 / div).max(200.0);
    let bursty = bursty_trace(2_000, duration, options.seed);
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
        .seed(options.seed)
        .generate();

    let mut rows = Vec::new();
    for trace in [&poisson, &bursty] {
        let unique = TraceStats::compute(trace).unique_bytes_requested as f64;
        let capacity = (unique / 10.0) as u64;
        let hro = Hro::default().evaluate(trace, capacity);
        let belady = BeladySize.evaluate(trace, capacity);
        let pfoo = PfooUpper.evaluate(trace, capacity);
        let mut lru = Lru::new(capacity);
        let lru_hit = Simulator::new(SimConfig::default())
            .run(&mut lru, trace)
            .metrics
            .object_hit_ratio();
        rows.push(vec![
            trace.name.clone(),
            pct(hro.object_hit_ratio()),
            pct(belady.object_hit_ratio()),
            pct(pfoo.object_hit_ratio()),
            pct(lru_hit),
        ]);
    }
    format!(
        "Ablation — HRO's Poisson approximation on bursty (hyperexponential) IRTs\n{}",
        format_table(&["workload", "HRO", "Belady-Size", "PFOO-U", "LRU"], &rows)
    )
}

/// HRO tightness vs window multiplier: how the online bound's window size
/// trades estimation quality against adaptivity.
pub fn ablation_hro_window(options: &Options) -> String {
    let _span = options
        .obs
        .as_ref()
        .map(|o| o.span("bench.ablation_hro_window"));
    let traces = production_traces(options);
    let multipliers = [1.0, 2.0, 4.0, 8.0];
    let mut rows = Vec::new();
    for trace in &traces {
        let capacity = default_capacity(trace, options);
        let mut row = vec![trace.name.clone()];
        for &m in &multipliers {
            let hro = Hro {
                window_multiplier: m,
            };
            row.push(pct(hro.evaluate(trace, capacity).object_hit_ratio()));
        }
        let belady = BeladySize.evaluate(trace, capacity);
        row.push(pct(belady.object_hit_ratio()));
        rows.push(row);
    }
    format!(
        "Ablation — HRO bound vs window multiplier (Belady-Size for reference)\n{}",
        format_table(&["trace", "1x", "2x", "4x", "8x", "Belady-Size"], &rows)
    )
}

// ---------------------------------------------------------------------------
// Helpers reused by tests and the repro binary
// ---------------------------------------------------------------------------

/// One replay and the reports it yields, one per name (`fig7` and `table2`
/// are two views of one prototype run, and so on).
type Experiment = (&'static [&'static str], fn(&Options) -> Vec<String>);

fn pair((first, second): (String, String)) -> Vec<String> {
    vec![first, second]
}

/// Every experiment under the name `repro --only` knows it by, in report
/// order.
const EXPERIMENTS: &[Experiment] = &[
    (&["table1"], |o| vec![table1(o)]),
    (&["fig1"], |o| vec![fig1(o)]),
    (&["fig2"], |o| vec![fig2(o)]),
    (&["fig5"], |o| vec![fig5(o)]),
    (&["fig6"], |o| vec![fig6(o)]),
    (&["fig7", "table2"], |o| pair(prototype_vs_ats(o))),
    (&["fig8", "fig9"], |o| pair(sota_comparison(o))),
    (&["table3"], |o| vec![table3(o)]),
    (&["fig10"], |o| vec![fig10(o)]),
    (&["fig11"], |o| vec![fig11(o)]),
    (&["fig12"], |o| vec![fig12(o)]),
    (&["fig13", "table4"], |o| pair(prototype_vs_caffeine(o))),
    (&["ablation"], |o| {
        let studies = [
            ablation_rescore_hits(o),
            ablation_eviction_rule(o),
            ablation_loss(o),
            ablation_hro_window(o),
            ablation_hro_burstiness(o),
        ];
        vec![studies.join("\n")]
    }),
];

/// Runs the experiments named in the comma-separated `only` list (all of
/// them when `None`), returning their reports concatenated in report
/// order. Only the replays a requested report needs are run. An unknown
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
    let _span = options.obs.as_ref().map(|o| o.span("bench.run_all"));
    let mut out = String::new();
    for (names, replay) in EXPERIMENTS {
        if !names.iter().any(|name| is_wanted(name)) {
            continue;
        }
        for (name, report) in names.iter().zip(replay(options)) {
            if is_wanted(name) {
                out.push_str(&report);
                out.push('\n');
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

    #[test]
    fn table1_renders() {
        let t = table1(&tiny_options());
        assert!(t.contains("CDN-A") && t.contains("Wiki"));
    }

    #[test]
    fn fig12_reports_high_accuracy() {
        let s = fig12(&tiny_options());
        // Extract "accuracy X/Y = Z%".
        let z: f64 = s
            .split("= ")
            .nth(1)
            .and_then(|rest| rest.split('%').next())
            .and_then(|v| v.parse().ok())
            .expect("accuracy in output");
        assert!(z >= 75.0, "detection accuracy {z}% too low\n{s}");
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

    #[test]
    fn fig2_bounds_dominate_lhr() {
        let s = fig2(&tiny_options());
        assert!(s.contains("HRO"));
    }
}

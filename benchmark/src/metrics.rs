//! The metric tables: every end-to-end and per-layer metric by name, unit
//! and direction, with the bound by which an end-to-end metric may worsen
//! before it counts as a regression. `BENCHMARK.json` carries the same
//! tables; a unit test holds the two together.

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Host timing or memory: the median may worsen by this share, in
    /// `compare` and for the driver alike.
    Share(f64),
    /// Simulated statistic, deterministic for a fixed seed. `compare` takes
    /// two result files of one seed, where any worsening is a regression.
    /// The driver compares medians over runs of *different* seeds, so
    /// `BENCHMARK.json` declares `across_seeds` as the bound, with room for
    /// seed-to-seed variation; `None` keeps the metric out of that file (it
    /// is still printed and compared).
    Exact { across_seeds: Option<f64> },
    /// Must read zero.
    Zero,
    /// Per-layer metric: reported, never judged.
    Unjudged,
    /// Says under what conditions the run measured (the host's speed):
    /// printed and stored, never judged, and not in `BENCHMARK.json`.
    Context,
}

impl Rule {
    /// The bound `BENCHMARK.json` declares for an end-to-end metric, if the
    /// metric is listed there.
    pub fn gate(self) -> Option<f64> {
        match self {
            Rule::Share(bound) => Some(bound),
            Rule::Exact { across_seeds } => across_seeds,
            Rule::Zero | Rule::Unjudged | Rule::Context => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rule: Rule,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, rule: Rule) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        rule,
    }
}

use Better::{Higher, Lower};

const fn exact(across_seeds: f64) -> Rule {
    Rule::Exact {
        across_seeds: Some(across_seeds),
    }
}

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, Rule::Share(0.25)),
    e2e("pipeline_rps", "req/s", Higher, Rule::Share(0.25)),
    e2e(
        "pipeline_cpu_s_per_mreq",
        "cpu_s/Mreq",
        Lower,
        Rule::Share(0.25),
    ),
    e2e("peak_rss_mb", "MB", Lower, Rule::Share(0.10)),
    e2e("hit_pct", "%", Higher, exact(0.05)),
    e2e("sim_p99_latency_ms", "sim_ms", Lower, exact(0.02)),
    e2e("availability_pct", "%", Higher, exact(0.001)),
    // Byte-weighted over bounded-Pareto sizes: its seed-to-seed spread
    // (10–20 %) is wider than any admissible bound.
    e2e(
        "wan_gbps",
        "Gbps",
        Lower,
        Rule::Exact { across_seeds: None },
    ),
    e2e("failed_ops_pct", "%", Lower, Rule::Zero),
    // Median of nominal ÷ measured reference time over the run's brackets:
    // the factor the host-time metrics above were scaled by.
    e2e("host_speed", "x", Higher, Rule::Context),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        rule: Rule::Unjudged,
    }
}

pub const PER_LAYER: &[MetricDef] = &[
    layer("trace.read_ns_per_req", "ns/req", Lower),
    layer("trace.read_mb_per_s", "MB/s", Higher),
    layer("trace.validate_ns_per_req", "ns/req", Lower),
    layer("trace.file_bytes", "bytes", Lower),
    layer("sim.route_ns_per_req", "ns/req", Lower),
    layer("sim.simulator_ns_per_req", "ns/req", Lower),
    layer("policies.handle_ns_per_req", "ns/req", Lower),
    layer("policies.evictions", "count", Lower),
    layer("policies.metadata_peak_bytes", "bytes", Lower),
    layer("core.handle_ns_per_req", "ns/req", Lower),
    layer("core.trainings", "count", Lower),
    layer("core.windows", "count", Higher),
    layer("core.threshold_updates", "count", Higher),
    layer("core.train_wall_s", "s", Lower),
    layer("gbm.fit_ms_per_krow", "ms/krow", Lower),
    layer("gbm.predict_row_ns", "ns/row", Lower),
    layer("gbm.predict_batch_ns_per_row", "ns/row", Lower),
    layer("proto.replay_ns_per_req", "ns/req", Lower),
    layer("proto.engine_ns_per_req", "ns/req", Lower),
    layer("proto.server_ns_per_req", "ns/req", Lower),
    layer("proto.serve_overhead_ns_per_req", "ns/req", Lower),
    layer("proto.report_export_ms", "ms", Lower),
    layer("proto.thread_speedup", "x", Higher),
    layer("proto.shard_imbalance", "x", Lower),
    layer("proto.wan_gbps", "Gbps", Lower),
    layer("proto.fleet_ns_per_req", "ns/req", Lower),
    layer("proto.fleet_overhead_ns_per_req", "ns/req", Lower),
    layer("proto.ring_ns_per_lookup", "ns/lookup", Lower),
    layer("proto.retries", "count", Lower),
    layer("proto.failovers", "count", Lower),
    layer("proto.peer_hits", "count", Higher),
    layer("proto.errors_served", "count", Lower),
    layer("proto.stale_served", "count", Lower),
    layer("proto.coalesced_fetches", "count", Higher),
    layer("proto.breaker_opens", "count", Lower),
    layer("proto.origin_offload_pct", "%", Higher),
    layer("proto.node_imbalance", "x", Lower),
    layer("obs.overhead_pct", "%", Lower),
    layer("obs.export_ms", "ms", Lower),
    layer("obs.export_bytes", "bytes", Lower),
    layer("obs.windows", "count", Higher),
    layer("obs.events", "count", Higher),
    layer("obs.traces", "count", Higher),
    layer("obs.traces_dropped", "count", Lower),
    layer("obs.events_dropped", "count", Lower),
    layer("cli.startup_ms", "ms", Lower),
    layer("cli.wall_ms", "ms", Lower),
    layer("cli.unattributed_ms", "ms", Lower),
    layer("bench.pipeline_ms", "ms", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.host_cpus", "count", Higher),
];

pub fn find(table: &'static [MetricDef], name: &str) -> Option<&'static MetricDef> {
    table.iter().find(|d| d.name == name)
}

/// One measured metric: the reported value, how many samples stand behind
/// it, and their interquartile spread as a share of the median (`None` for
/// a count or a simulated statistic, which has no run-to-run spread).
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub def: &'static MetricDef,
    pub value: f64,
    pub samples: usize,
    pub spread: Option<f64>,
}

impl Measured {
    /// A deterministic value (count or simulated statistic) seen `samples`
    /// times.
    pub fn exact(table: &'static [MetricDef], name: &str, value: f64, samples: usize) -> Self {
        Measured {
            def: find(table, name).unwrap_or_else(|| panic!("metric `{name}` is not in the table")),
            value,
            samples,
            spread: None,
        }
    }

    /// A value derived from timing samples summarised by `summary`.
    pub fn timed(table: &'static [MetricDef], name: &str, value: f64, summary: &Summary) -> Self {
        Measured {
            spread: Some(summary.spread()),
            ..Measured::exact(table, name, value, summary.n)
        }
    }
}

/// What one run (one workload, traced or not) produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Wall time of the CLI invocations the run timed.
    pub wall_s: Summary,
    /// One line per failed output check.
    pub failures: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "name {}", d.name);
            assert!(ok_unit(d.unit), "unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} is used twice", d.name);
            assert!(
                d.rule.gate().is_none_or(|g| g > 0.0 && g <= 0.25),
                "{}",
                d.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(
            END_TO_END
                .iter()
                .filter(|d| d.rule.gate().is_some())
                .count()
                <= 16
        );
        let setup = find(END_TO_END, "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        // setup_s carries the largest bound.
        assert!(END_TO_END
            .iter()
            .all(|d| d.rule.gate() <= setup.rule.gate()));
    }
}

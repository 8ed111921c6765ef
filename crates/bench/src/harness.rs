//! Shared experiment infrastructure: CLI options, trace construction, the
//! headline policy line-up, and table formatting.

use lhr_obs::{Obs, ObsConfig};
use lhr_proto::presets::{self, PolicyParams};
use lhr_sim::sweep::PolicyFactory;
use lhr_trace::synth::{production, ProductionScale};
use lhr_trace::Trace;

/// Parsed harness options (every experiment binary accepts the same set).
#[derive(Debug, Clone)]
pub struct Options {
    /// Trace scale; defaults to [`ProductionScale::Small`].
    pub scale: ProductionScale,
    /// Base PRNG seed.
    pub seed: u64,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Observability recorder, present when `--obs PATH` was given. The
    /// experiment functions wrap their phases in spans on it; sweeps feed
    /// it per-worker shard recorders (see `lhr_sim::sweep::run_grid_obs`).
    pub obs: Option<Obs>,
    /// Where [`write_obs`] exports the JSONL recording.
    pub obs_path: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: ProductionScale::Small,
            seed: 42,
            threads: std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(16),
            obs: None,
            obs_path: None,
        }
    }
}

impl Options {
    /// Parses `--scale {tiny|small|medium|full}`, `--seed N`,
    /// `--threads N`, `--obs PATH` from the process arguments. Unknown
    /// arguments abort with a usage message.
    pub fn from_args() -> Options {
        match Self::from_args_with_only() {
            (options, None) => options,
            (_, Some(_)) => usage(),
        }
    }

    /// [`Options::from_args`] plus `repro`'s `--only LIST` (returned
    /// unparsed; `experiments::run` knows the names).
    pub fn from_args_with_only() -> (Options, Option<String>) {
        let mut options = Options::default();
        let mut only = None;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let value = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i).unwrap_or_else(|| usage()).clone()
            };
            match args[i].as_str() {
                "--scale" => {
                    options.scale = match value(&mut i).as_str() {
                        "tiny" => ProductionScale::Tiny,
                        "small" => ProductionScale::Small,
                        "medium" => ProductionScale::Medium,
                        "full" => ProductionScale::Full,
                        _ => usage(),
                    }
                }
                "--seed" => options.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
                "--threads" => options.threads = value(&mut i).parse().unwrap_or_else(|_| usage()),
                "--obs" => options.obs_path = Some(value(&mut i)),
                "--only" => only = Some(value(&mut i)),
                _ => usage(),
            }
            i += 1;
        }
        if options.obs_path.is_some() {
            // Deterministic mode: span counts are recorded but wall-clock
            // readings are zeroed, so a fixed-seed export is byte-identical
            // across runs and thread counts.
            let obs = Obs::new(ObsConfig {
                deterministic: true,
                ..ObsConfig::default()
            });
            obs.set_meta("bench.seed", options.seed);
            options.obs = Some(obs);
        }
        (options, only)
    }
}

/// Writes the `--obs` recording (if one was requested) to its path; a
/// no-op otherwise. Experiment binaries call this once, after printing.
pub fn write_obs(options: &Options) {
    let (Some(obs), Some(path)) = (&options.obs, &options.obs_path) else {
        return;
    };
    if let Err(e) = std::fs::write(path, obs.to_jsonl()) {
        eprintln!("obs export to {path} failed: {e}");
        std::process::exit(1);
    }
    eprintln!("obs export written to {path}");
}

fn usage() -> ! {
    eprintln!(
        "usage: <bin> [--scale tiny|small|medium|full] [--seed N] [--threads N] [--obs PATH]\n\
         \x20      repro also takes --only NAME[,NAME...] (e.g. fig8,table2; default: everything)"
    );
    std::process::exit(2)
}

/// The four production-like traces at the chosen scale.
pub fn production_traces(options: &Options) -> Vec<Trace> {
    production::all_production(options.scale, options.seed)
}

/// The paper's per-trace default simulator cache size (Figure 2 / 7
/// setting), scaled by the *cache-to-unique-bytes ratio* so reduced-scale
/// traces keep the full-scale experiment's cache pressure.
pub fn default_capacity(trace: &Trace, _options: &Options) -> u64 {
    let unique = lhr_trace::TraceStats::compute(trace).unique_bytes_requested as f64;
    ((unique * production::cache_to_unique_ratio(&trace.name)) as u64).max(1)
}

/// The appendix's Caffeine-experiment cache size, same ratio-based scaling.
pub fn caffeine_capacity(trace: &Trace) -> u64 {
    let unique = lhr_trace::TraceStats::compute(trace).unique_bytes_requested as f64;
    ((unique * production::caffeine_cache_to_unique_ratio(&trace.name)) as u64).max(1)
}

/// Per-trace memory window for LRB: a quarter of the trace duration.
pub fn lrb_window_secs(trace: &Trace) -> f64 {
    PolicyParams::for_trace(0, 0, trace).window_secs
}

/// Expected distinct objects (sizes B-LRU's Bloom filter and TinyLFU's
/// sketch).
pub fn expected_objects(trace: &Trace) -> u64 {
    (lhr_trace::TraceStats::compute(trace).unique_contents as u64).max(1_024)
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

/// Factories for the [`HEADLINE`] policies, built from the roster. Two
/// parameters follow the trace instead of the CLI's constants: the filter
/// and sketch are sized to its population, and LRB's retraining batch
/// shrinks with it so reduced-scale runs still exercise the learned path.
pub fn all_factories(trace: &Trace, seed: u64) -> Vec<PolicyFactory> {
    let params = PolicyParams {
        expected_objects: expected_objects(trace),
        lrb_train_batch: (trace.len() / 16).clamp(1_024, 8_192),
        ..PolicyParams::for_trace(0, seed, trace)
    };
    HEADLINE
        .iter()
        .map(|&name| {
            let build = presets::policy(name).expect("a roster name");
            PolicyFactory::new(name, move |capacity| {
                build(&PolicyParams { capacity, ..params })
            })
        })
        .collect()
}

/// Renders an aligned text table: `header` then one row per entry.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    let mut out = render(&head);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&render(row));
        out.push('\n');
    }
    out
}

/// Formats a byte count as GB with one decimal.
pub fn gb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e9)
}

/// Formats a ratio as a percentage with two decimals.
pub fn pct(ratio: f64) -> String {
    format!("{:.2}", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_sim::CachePolicy;

    #[test]
    fn factories_build_the_headline_line_up_at_the_requested_capacity() {
        let trace = lhr_trace::synth::IrmConfig::new(10, 100).generate();
        let factories = all_factories(&trace, 0);
        assert_eq!(factories.len(), HEADLINE.len());
        for (factory, name) in factories.iter().zip(HEADLINE) {
            let policy = (factory.build)(12_345);
            assert_eq!(policy.name(), name);
            assert_eq!(policy.capacity(), 12_345, "{name}");
        }
    }

    #[test]
    fn table_is_aligned() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with("a          "));
    }

    #[test]
    fn helpers_format() {
        assert_eq!(gb(1_500_000_000), "1.5");
        assert_eq!(pct(0.12345), "12.35");
    }
}

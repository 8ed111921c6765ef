//! Shared experiment infrastructure: `repro`'s options, trace construction,
//! the headline policy line-up, and table formatting.

use lhr_obs::{Obs, ObsConfig};
use lhr_proto::presets::{self, PolicyParams};
use lhr_sim::sweep::PolicyFactory;
use lhr_trace::synth::{production, ProductionScale};
use lhr_trace::{Trace, TraceStats};

/// `repro`'s flags.
pub const USAGE: &str = "usage: repro [--scale tiny|small|medium|full] [--seed N] [--threads N] \
                         [--obs PATH] [--only NAME[,NAME...]]";

/// Parsed `repro` options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Trace scale; defaults to [`ProductionScale::Small`].
    pub scale: ProductionScale,
    /// Base PRNG seed.
    pub seed: u64,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Observability recorder, present when `--obs PATH` was given, its
    /// export file already open ([`Obs::stream_to`]; `Obs::close_stream`
    /// writes it). Every experiment runs inside a span on it; sweeps feed
    /// it per-worker shard recorders (see `lhr_sim::sweep::run_grid`).
    pub obs: Option<Obs>,
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
        }
    }
}

impl Options {
    /// Parses `--scale {tiny|small|medium|full}`, `--seed N`, `--threads N`
    /// (0: one per core, as `lhr-cache --threads 0`), `--obs PATH` and
    /// `--only LIST` (returned unparsed; `experiments::run` knows the
    /// names). `--obs` creates its file here, so a path that cannot be
    /// written is refused before the first experiment runs.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Options, Option<String>), String> {
        let mut options = Options::default();
        let (mut only, mut obs_path) = (None, None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"));
            let number = |v: String| v.parse().map_err(|_| format!("{flag}: not a number: {v}"));
            match flag.as_str() {
                "--scale" => {
                    options.scale = match value?.as_str() {
                        "tiny" => ProductionScale::Tiny,
                        "small" => ProductionScale::Small,
                        "medium" => ProductionScale::Medium,
                        "full" => ProductionScale::Full,
                        other => return Err(format!("--scale: unknown scale {other}")),
                    }
                }
                "--seed" => options.seed = number(value?)?,
                "--threads" => {
                    options.threads = match number(value?)? {
                        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                        n => n as usize,
                    }
                }
                "--obs" => obs_path = Some(value?),
                "--only" => only = Some(value?),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if let Some(path) = obs_path {
            // Deterministic mode: span counts are recorded but wall-clock
            // readings are zeroed, so a fixed-seed export is byte-identical
            // across runs and thread counts.
            let obs = Obs::new(ObsConfig {
                deterministic: true,
                ..ObsConfig::default()
            });
            obs.set_meta("bench.seed", options.seed);
            obs.stream_to(&path)
                .map_err(|e| format!("--obs {path}: {e}"))?;
            options.obs = Some(obs);
        }
        Ok((options, only))
    }
}

/// The four production-like traces at the chosen scale.
pub fn production_traces(options: &Options) -> Vec<Trace> {
    production::all_production(options.scale, options.seed)
}

/// The paper's per-trace default simulator cache size (Figure 2 / 7
/// setting), scaled by the *cache-to-unique-bytes ratio* so reduced-scale
/// traces keep the full-scale experiment's cache pressure.
pub fn default_capacity(trace: &Trace) -> u64 {
    let unique = TraceStats::compute(trace).unique_bytes_requested as f64;
    ((unique * production::cache_to_unique_ratio(&trace.name)) as u64).max(1)
}

/// The appendix's Caffeine-experiment cache size, same ratio-based scaling.
pub fn caffeine_capacity(trace: &Trace) -> u64 {
    let unique = TraceStats::compute(trace).unique_bytes_requested as f64;
    ((unique * production::caffeine_cache_to_unique_ratio(&trace.name)) as u64).max(1)
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
/// parameters follow the trace instead of the CLI's constants: B-LRU's
/// filter and TinyLFU's sketch are sized to its distinct objects (at least
/// 1 024), and LRB's retraining batch shrinks with it so reduced-scale runs
/// still exercise the learned path.
pub fn all_factories(trace: &Trace, seed: u64) -> Vec<PolicyFactory> {
    let params = PolicyParams {
        expected_objects: (TraceStats::compute(trace).unique_contents as u64).max(1_024),
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

    fn parse(args: &[&str]) -> Result<(Options, Option<String>), String> {
        Options::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_parse_and_only_comes_back_unparsed() {
        let (options, only) = parse(&["--scale", "tiny", "--seed", "7", "--only", "fig2"]).unwrap();
        assert_eq!(options.scale, ProductionScale::Tiny);
        assert_eq!(options.seed, 7);
        assert!(options.obs.is_none());
        assert_eq!(only.as_deref(), Some("fig2"));
    }

    /// `--threads 0` once reached the sweep as zero workers and panicked.
    #[test]
    fn zero_threads_means_one_per_core() {
        let (options, _) = parse(&["--threads", "0"]).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(options.threads, cores);
        assert_eq!(parse(&["--threads", "3"]).unwrap().0.threads, 3);
    }

    /// An `--obs` path that cannot be written once failed only after every
    /// experiment had run.
    #[test]
    fn an_unwritable_obs_path_is_refused_at_parse_time() {
        let path = std::env::temp_dir()
            .join(format!("lhr-bench-no-such-dir-{}", std::process::id()))
            .join("x.jsonl");
        let path = path.to_str().expect("utf-8 temp path");
        let err = parse(&["--obs", path]).unwrap_err();
        assert!(err.starts_with("--obs ") && err.contains(path), "{err}");
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors() {
        for (args, named) in [
            (
                &["--threads", "2", "--thread", "2"][..],
                "unknown flag --thread",
            ),
            (&["--seed"], "--seed needs a value"),
            (&["--seed", "x"], "--seed: not a number"),
            (&["--scale", "huge"], "--scale: unknown scale huge"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(named), "{args:?}: {err}");
        }
    }

    #[test]
    fn helpers_format() {
        assert_eq!(gb(1_500_000_000), "1.5");
        assert_eq!(pct(0.12345), "12.35");
    }
}

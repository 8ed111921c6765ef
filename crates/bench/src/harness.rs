//! Shared experiment infrastructure: `repro`'s options, trace construction,
//! and the typed tables every experiment returns.

use lhr_obs::{Obs, ObsConfig};
use lhr_trace::synth::{production, ProductionScale};
use lhr_trace::{Trace, TraceStats};
use lhr_util::sync::resolve_threads;
use std::fmt;

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
    /// Worker threads for the headline grid.
    pub threads: usize,
    /// Observability recorder, present when `--obs PATH` was given, its
    /// export file already open ([`Obs::stream_to`]; `Obs::close_stream`
    /// writes it). Every experiment runs inside a span on it; the headline
    /// grid feeds it per-worker shard recorders (`experiments::grid`).
    pub obs: Option<Obs>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: ProductionScale::Small,
            seed: 42,
            threads: resolve_threads(0),
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
                "--threads" => options.threads = resolve_threads(number(value?)? as usize),
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

/// One cell of a report table: the value it holds and how it prints.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text, printed as it is.
    Text(String),
    /// A number, printed with this many decimals.
    Num(f64, usize),
    /// A difference, printed with this many decimals and its sign: `+0.25`.
    Delta(f64, usize),
    /// A number with a note after it: `57.39 (LRU-4)`.
    Noted(f64, usize, String),
    /// Numbers printed with this many decimals each, space-separated.
    Series(Vec<f64>, usize),
}

impl Cell {
    /// A text cell.
    pub fn text(text: impl Into<String>) -> Cell {
        Cell::Text(text.into())
    }

    /// The number the cell prints, if it prints one.
    pub fn value(&self) -> Option<f64> {
        match *self {
            Cell::Num(v, _) | Cell::Delta(v, _) | Cell::Noted(v, _, _) => Some(v),
            Cell::Text(_) | Cell::Series(..) => None,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(text) => f.write_str(text),
            Cell::Num(v, digits) => write!(f, "{v:.*}", *digits),
            Cell::Delta(v, digits) => write!(f, "{v:+.*}", *digits),
            Cell::Noted(v, digits, note) => write!(f, "{v:.*} ({note})", *digits),
            Cell::Series(values, digits) => {
                for (i, v) in values.iter().enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}{v:.*}", *digits)?;
                }
                Ok(())
            }
        }
    }
}

/// One report: a title line over a table of typed rows. Experiments return
/// tables; `experiments::run` prints them through [`format_table`].
#[derive(Debug, Clone)]
pub struct Table {
    /// The line printed above the table.
    pub title: String,
    /// Column names.
    pub header: Vec<&'static str>,
    /// The rows, one cell per column.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table titled `title` with columns `header`.
    pub fn new(title: impl Into<String>, header: &[&'static str], rows: Vec<Vec<Cell>>) -> Table {
        Table {
            title: title.into(),
            header: header.to_vec(),
            rows,
        }
    }

    /// The index of the column named `name`.
    ///
    /// # Panics
    ///
    /// If the table has no such column.
    pub fn column(&self, name: &str) -> usize {
        self.header
            .iter()
            .position(|h| *h == name)
            .unwrap_or_else(|| panic!("no column `{name}` in `{}`", self.title))
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::to_string).collect())
            .collect();
        write!(f, "{}\n{}", self.title, format_table(&self.header, &rows))
    }
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

/// A byte count in GB, printed with one decimal.
pub fn gb(bytes: u64) -> Cell {
    Cell::Num(bytes as f64 / 1e9, 1)
}

/// A ratio as a percentage, printed with two decimals.
pub fn pct(ratio: f64) -> Cell {
    Cell::Num(ratio * 100.0, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// `--threads 0` once reached the sweep as zero workers and panicked,
    /// and the default once ran `min(cores, 16)` — 4 where the cores could
    /// not be told — while `--threads 0` ran one per core.
    #[test]
    fn zero_threads_means_one_per_core() {
        let (options, _) = parse(&["--threads", "0"]).unwrap();
        assert_eq!(options.threads, lhr_util::sync::cores());
        assert_eq!(parse(&[]).unwrap().0.threads, options.threads);
        assert_eq!(Options::default().threads, options.threads);
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
    fn cells_print_their_value_at_their_precision() {
        assert_eq!(gb(1_500_000_000).to_string(), "1.5");
        assert_eq!(pct(0.12345).to_string(), "12.35");
        assert_eq!(pct(0.5).value(), Some(50.0));
        assert_eq!(Cell::Num(12_345.0, 0).to_string(), "12345");
        assert_eq!(Cell::Delta(0.0, 2).to_string(), "+0.00");
        assert_eq!(Cell::Delta(-0.256, 2).to_string(), "-0.26");
        assert_eq!(
            Cell::Noted(57.391, 2, "LRU-4".into()).to_string(),
            "57.39 (LRU-4)"
        );
        assert_eq!(Cell::Series(vec![1.0, 2.26], 1).to_string(), "1.0 2.3");
        assert_eq!(Cell::Series(vec![], 1).to_string(), "");
        assert_eq!(Cell::text("LHR").value(), None);
    }
}

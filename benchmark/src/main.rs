//! `benchmark` — one command that times the real `lhr-cache` pipeline
//! (trace file → parse → route → policy → serve path → obs → report) on four
//! named workloads, and a traced run that attributes the time per crate.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     compare A.json B.json
//! ```
//!
//! Run from the repository root. Without `--workload` every workload runs;
//! without `--trace` each runs untraced, then traced. See `README.md`.

mod child;
mod e2e;
mod layers;
mod metrics;
mod reference;
mod results;
mod spans;
mod stats;
mod workload;

use lhr_util::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Workload, WORKLOADS};

/// `BENCHMARK.json`'s `run_seconds`, for a run started by hand.
const DEFAULT_SECONDS: f64 = 25.0;
const OUT_DIR: &str = "benchmark/out";

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                options.workload = Some(Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of: {})", names.join(", "))
                })?)
            }
            "--seed" => options.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
            }
            "--trace" => {
                options.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok(options)
}

/// Builds `lhr-cache` from the repository's workspace and returns the
/// binary's path and how long the build took (not part of `setup_s`).
fn build_cli() -> Result<(PathBuf, f64), String> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root (crates/cli/Cargo.toml not found)".to_string());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let start = Instant::now();
    let status = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "lhr-cli",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{cargo}: {e}"))?;
    if !status.success() {
        return Err("`cargo build --release --offline -p lhr-cli` failed".to_string());
    }
    let build_s = start.elapsed().as_secs_f64();
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let cli = Path::new(&target).join("release").join("lhr-cache");
    // Children are started with relative output paths but the binary by an
    // absolute one, so a relative target directory cannot be misread.
    let cli = cli
        .canonicalize()
        .map_err(|e| format!("{}: {e}", cli.display()))?;
    Ok((cli, build_s))
}

fn run(options: &Options) -> Result<bool, String> {
    // First of all, while this process is still small (see `child`).
    let spawner = child::Spawner::start().map_err(|e| format!("starting the spawn helper: {e}"))?;
    let (program, build_s) = build_cli()?;
    let harness = std::env::current_exe().map_err(|e| format!("this executable's path: {e}"))?;
    let mut cli = e2e::Cli {
        program,
        harness,
        spawner,
    };
    eprintln!(
        "built {} in {build_s:.1} s (not part of setup_s)",
        cli.program.display()
    );
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let workloads: Vec<&Workload> = match options.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let kinds: &[bool] = match options.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut stored = Vec::new();
    let mut all_correct = true;
    for w in workloads {
        let mut fields = vec![("why".to_string(), Json::Str(w.why.to_string()))];
        for &traced in kinds {
            let (kind, outcome) = if traced {
                (
                    "layers",
                    layers::run(&mut cli, out, w, options.seed, options.seconds)?,
                )
            } else {
                (
                    "e2e",
                    e2e::run(&mut cli, out, w, options.seed, options.seconds)?,
                )
            };
            results::print_outcome(w.name, kind, &outcome);
            println!("{}", results::contract_line(&outcome));
            all_correct &= outcome.correct;
            fields.push((kind.to_string(), results::outcome_json(&outcome)));
        }
        stored.push((w.name.to_string(), Json::Object(fields)));
    }

    let mut file = results::header(options.seed, options.seconds, build_s);
    file.push(("workloads".to_string(), Json::Object(stored)));
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let label = options.workload.map_or("all", |w| w.name);
    let path = out.join(format!(
        "results.{label}.seed{}.{unix_ms}.json",
        options.seed
    ));
    std::fs::write(&path, Json::Object(file).to_string_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(all_correct)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (table, all_pass) = results::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!(
        "{}",
        if all_pass {
            "every judged metric passes"
        } else {
            "some metric regressed or is unresolved"
        }
    );
    Ok(all_pass)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = match argv.first().map(String::as_str) {
        Some(child::SPAWNER_ARG) => return child::spawner_main(),
        Some(reference::ARG) => return reference::main(),
        Some("compare") if argv.len() == 3 => compare(&argv[1], &argv[2]),
        Some("compare") => Err("usage: benchmark compare A.json B.json".to_string()),
        _ => parse_options(&argv).and_then(|options| run(&options)),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        // An output check failed (or `compare` found a regression): said on
        // stdout above, and in the exit code.
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{Better, END_TO_END, PER_LAYER};

    fn better(b: Better) -> String {
        match b {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
        .to_string()
    }

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_and_reject() {
        let o = parse_options(&strings(&[
            "--workload",
            "fleet-chaos",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.unwrap().name, "fleet-chaos");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, Some(true)));
        let o = parse_options(&[]).unwrap();
        assert!(o.workload.is_none() && o.trace.is_none());
        assert_eq!((o.seed, o.seconds), (42, DEFAULT_SECONDS));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--seed"],
            &["--only", "csv-lru-hit"],
        ] {
            assert!(parse_options(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables in this crate
    /// are what the harness prints. They must say the same.
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let text = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();
        let list = |key: &str| match json.get(key) {
            Some(Json::Array(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };

        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        assert_eq!(list("paths"), vec![Json::Str("benchmark".to_string())]);

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS.iter().all(|w| w.why.chars().count() <= 200));

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter_map(|d| {
                d.rule
                    .gate()
                    .map(|g| (d.name.to_string(), d.unit.to_string(), better(d.better), g))
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|d| (d.name.to_string(), d.unit.to_string(), better(d.better)))
            .collect();
        assert_eq!(layers, expected);
    }
}

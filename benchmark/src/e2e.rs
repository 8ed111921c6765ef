//! The untraced run: times whole `lhr-cache` invocations, one at a time
//! (closed loop, one client), and checks every invocation's outputs.
//!
//! Every timed operation — a set-up, an invocation — sits between two runs
//! of the host-speed reference (see [`crate::reference`]) and its wall and
//! CPU time are scaled to the nominal host before anything is summarised.
//! The gated host-time metrics are medians of those scaled times. Raw
//! minimum, median and maximum wall and the median host speed stay in the
//! printout and the result file.

use crate::child::{Exit, Spawner};
use crate::metrics::{Measured, Outcome, END_TO_END};
use crate::reference::{self, HostSpeed};
use crate::stats::Summary;
use crate::workload::{Paths, Subcommand, Workload, THREADS};
use lhr_util::json::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Workers of the untimed invocation whose report must equal the timed
/// ones': the multi-threaded router, checked end to end but not timed.
const CHECK_THREADS: usize = 2;
/// Where the reference load's (empty) stderr goes.
const REFERENCE_LOG: &str = "reference.stderr.log";
/// Timed invocations a run makes at the least, however short `--seconds`.
const MIN_TIMED: usize = 5;

/// The built `lhr-cache` binary, this executable (which is also the
/// reference load), and the helper process that runs both.
pub struct Cli {
    pub program: PathBuf,
    pub harness: PathBuf,
    pub spawner: Spawner,
}

impl Cli {
    /// One `lhr-cache` invocation of `w` at `threads` workers. The
    /// program's stderr goes to `cli.stderr.log` in the workload's
    /// directory, which is quoted back if the invocation fails.
    pub fn invoke(&mut self, w: &Workload, paths: &Paths, threads: usize) -> Result<Exit, String> {
        // A stale output must not pass for this invocation's.
        let _ = std::fs::remove_file(&paths.report);
        let _ = std::fs::remove_file(&paths.obs);
        let log = paths.dir.join("cli.stderr.log");
        let exit = self
            .spawner
            .run(&self.program, &w.cli_args(paths, threads), &log)
            .map_err(|e| format!("{}: {e}", self.program.display()))?;
        if !exit.success {
            let said = std::fs::read_to_string(&log).unwrap_or_default();
            eprintln!("{}: lhr-cache failed: {}", w.name, said.trim_end());
        }
        Ok(exit)
    }

    /// One run of the host-speed reference load, spawned as the CLI is.
    pub fn reference(&mut self, paths: &Paths) -> Result<Exit, String> {
        let log = paths.dir.join(REFERENCE_LOG);
        let exit = self
            .spawner
            .run(&self.harness, &[reference::ARG.to_string()], &log)
            .map_err(|e| format!("{}: {e}", self.harness.display()))?;
        if !exit.success {
            return Err("the host-speed reference load failed".to_string());
        }
        Ok(exit)
    }
}

/// Synthesises the workload's trace from `seed` and writes its file.
pub fn write_inputs(w: &Workload, paths: &Paths, seed: u64) -> Result<lhr_trace::Trace, String> {
    std::fs::create_dir_all(&paths.dir).map_err(|e| format!("{}: {e}", paths.dir.display()))?;
    let trace = w.synthesize(seed);
    w.write_trace(&trace, paths)
        .map_err(|e| format!("{}: {e}", paths.trace.display()))?;
    Ok(trace)
}

/// The simulated statistics and conservation sums of one stable report.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportFigures {
    pub hit_pct: f64,
    pub wan_gbps: f64,
    pub p99_latency_ms: f64,
    pub availability_pct: f64,
    /// Requests the report accounts for, summed over its per-shard
    /// (server) or per-node (fleet) breakdown.
    pub requests_accounted: u64,
}

/// Reads the figures out of `--report`'s bytes.
pub fn report_figures(w: &Workload, report: &str) -> Result<ReportFigures, String> {
    let json = Json::parse(report).map_err(|e| format!("report does not parse: {e}"))?;
    let num = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("report has no number `{key}`"))
    };
    let sum = |v: &Json, key: &str| -> Result<u64, String> {
        let Some(Json::Array(items)) = v.get(key) else {
            return Err(format!("report has no array `{key}`"));
        };
        Ok(items.iter().filter_map(Json::as_f64).sum::<f64>() as u64)
    };
    match w.subcommand {
        Subcommand::Server => {
            let inner = json.get("report").ok_or("report has no `report` object")?;
            Ok(ReportFigures {
                hit_pct: num(inner, "content_hit_pct")?,
                wan_gbps: num(inner, "wan_gbps")?,
                p99_latency_ms: num(inner, "p99_latency_ms")?,
                availability_pct: num(inner, "availability_pct")?,
                requests_accounted: sum(&json, "per_shard_requests")?,
            })
        }
        Subcommand::Fleet => Ok(ReportFigures {
            hit_pct: num(&json, "edge_hit_pct")?,
            wan_gbps: num(&json, "wan_gbps")?,
            p99_latency_ms: num(&json, "p99_latency_ms")?,
            availability_pct: num(&json, "availability_pct")?,
            // A request reaches exactly one node or is counted unrouted,
            // and the report's own total must agree with that sum.
            requests_accounted: {
                let routed = sum(&json, "per_node_requests")? + num(&json, "unrouted")? as u64;
                if routed != num(&json, "requests")? as u64 {
                    return Err(format!(
                        "per-node requests + unrouted = {routed}, report says {}",
                        num(&json, "requests")?
                    ));
                }
                routed
            },
        }),
    }
}

/// What one invocation wrote: the `--report` bytes and the `--obs` export
/// (empty on a workload that records none).
pub type Outputs = (Vec<u8>, Vec<u8>);

/// Reads back what the last invocation wrote.
pub fn outputs(w: &Workload, paths: &Paths) -> Result<Outputs, String> {
    let read = |path: &Path| std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()));
    let export = if w.obs { read(&paths.obs)? } else { Vec::new() };
    Ok((read(&paths.report)?, export))
}

/// Measures `w` for `seconds`: set-up (median of [`SETUPS`]), an untimed
/// `--threads 2` reference report, then timed invocations back to back,
/// each operation between two runs of the host-speed reference.
pub fn run(
    cli: &mut Cli,
    out: &Path,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let paths = w.paths(out);
    std::fs::create_dir_all(&paths.dir).map_err(|e| format!("{}: {e}", paths.dir.display()))?;
    let mut failures = Vec::new();
    // Twice: the first run also pulls the harness binary into the page cache.
    cli.reference(&paths)?;
    let mut before = cli.reference(&paths)?;
    // Closes the bracket around the operation that just ended: how fast the
    // host was while it ran. Its second reference run opens the next bracket.
    let mut host_speed = |cli: &mut Cli| -> Result<HostSpeed, String> {
        let after = cli.reference(&paths)?;
        let speed = HostSpeed::between(&before, &after);
        before = after;
        Ok(speed)
    };

    // Set-up: synthesise, write, and one warm-up invocation that pulls the
    // binary and the trace file into the page cache.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut requests = 0;
    for _ in 0..SETUPS {
        let start = Instant::now();
        requests = write_inputs(w, &paths, seed)?.len();
        if !cli.invoke(w, &paths, THREADS)?.success {
            return Err(format!("{}: warm-up invocation failed", w.name));
        }
        let raw = start.elapsed().as_secs_f64();
        setup_s.push(raw * host_speed(cli)?.wall);
    }

    // The determinism contract: the report does not depend on the thread
    // count. One untimed invocation on two workers gives the reference (one
    // shard cannot be split over two).
    let reference = if w.shards > 1 {
        if !cli.invoke(w, &paths, CHECK_THREADS)?.success {
            return Err(format!(
                "{}: --threads {CHECK_THREADS} reference invocation failed",
                w.name
            ));
        }
        let report = outputs(w, &paths)?.0;
        // Nothing to scale here; this only opens the next bracket afresh.
        host_speed(cli)?;
        Some(report)
    } else {
        None
    };

    let mut raw_wall = Vec::new();
    let mut wall = Vec::new();
    let mut cpu = Vec::new();
    let mut rss = Vec::new();
    let mut speeds = Vec::new();
    let mut first: Option<Outputs> = None;
    let mut failed = 0u64;
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < budget || wall.len() < MIN_TIMED {
        let exit = cli.invoke(w, &paths, THREADS)?;
        let speed = host_speed(cli)?;
        raw_wall.push(exit.wall_s);
        wall.push(exit.wall_s * speed.wall);
        cpu.push(exit.cpu_s * speed.cpu);
        rss.push(exit.maxrss_mb);
        speeds.push(speed.wall);
        // A failed or output-less invocation differs from any first.
        let written = if exit.success {
            outputs(w, &paths).ok()
        } else {
            None
        };
        let same = written.is_some() && first.as_ref().is_none_or(|f| Some(f) == written.as_ref());
        if !same {
            failed += 1;
            failures.push(format!(
                "invocation {}: exit or outputs differ from the first invocation's",
                wall.len()
            ));
        }
        if first.is_none() {
            first = written;
        }
    }
    let attempted = wall.len() as u64;

    // Checks on the (common) outputs; failing one fails every invocation.
    let (report, export) = first.ok_or("no timed invocation produced a report")?;
    let report_text = String::from_utf8_lossy(&report).into_owned();
    let figures = report_figures(w, &report_text)?;
    let mut outputs_wrong = false;
    if reference.is_some_and(|r| r != report) {
        outputs_wrong = true;
        failures.push(format!(
            "--threads {CHECK_THREADS} report differs from --threads {THREADS}"
        ));
    }
    if figures.requests_accounted != requests as u64 {
        outputs_wrong = true;
        failures.push(format!(
            "report accounts for {} requests, the trace has {requests}",
            figures.requests_accounted
        ));
    }
    if w.obs && export.is_empty() {
        outputs_wrong = true;
        failures.push("--obs export is empty".to_string());
    }
    if outputs_wrong {
        failed = attempted;
    }

    let wall_s = Summary::of(&wall).expect("at least MIN_TIMED samples");
    let cpu_s = Summary::of(&cpu).expect("as many as wall");
    let rss_mb = Summary::of(&rss).expect("as many as wall");
    let speed = Summary::of(&speeds).expect("as many as wall");
    let setup = Summary::of(&setup_s).expect("SETUPS samples");
    let n = attempted as usize;
    let metrics = vec![
        Measured::timed(END_TO_END, "setup_s", setup.median, &setup),
        Measured::timed(
            END_TO_END,
            "pipeline_rps",
            requests as f64 / wall_s.median,
            &wall_s,
        ),
        Measured::timed(
            END_TO_END,
            "pipeline_cpu_s_per_mreq",
            cpu_s.median / requests as f64 * 1e6,
            &cpu_s,
        ),
        Measured::timed(END_TO_END, "peak_rss_mb", rss_mb.max, &rss_mb),
        Measured::exact(END_TO_END, "hit_pct", figures.hit_pct, n),
        Measured::exact(END_TO_END, "sim_p99_latency_ms", figures.p99_latency_ms, n),
        Measured::exact(END_TO_END, "availability_pct", figures.availability_pct, n),
        Measured::exact(END_TO_END, "wan_gbps", figures.wan_gbps, n),
        Measured::exact(
            END_TO_END,
            "failed_ops_pct",
            failed as f64 / attempted as f64 * 100.0,
            n,
        ),
        Measured::timed(END_TO_END, "host_speed", speed.median, &speed),
    ];
    let wall_s = Summary::of(&raw_wall).expect("as many as wall");
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        wall_s,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_report_figures_and_shard_sum() {
        let w = Workload::by_name("csv-lru-hit").unwrap();
        let report = r#"{"report":{"content_hit_pct":61.5,"p99_latency_ms":71.25,"wan_gbps":0.015,
            "availability_pct":100},"per_shard_requests":[3,4,5]}"#;
        let f = report_figures(w, report).unwrap();
        assert_eq!(
            f,
            ReportFigures {
                hit_pct: 61.5,
                wan_gbps: 0.015,
                p99_latency_ms: 71.25,
                availability_pct: 100.0,
                requests_accounted: 12,
            }
        );
        assert!(report_figures(w, "{}").is_err());
        assert!(report_figures(w, "not json").is_err());
    }

    #[test]
    fn fleet_report_must_account_for_every_request() {
        let w = Workload::by_name("fleet-chaos").unwrap();
        let body = |requests: u64| {
            format!(
                r#"{{"requests":{requests},"edge_hit_pct":60,"wan_gbps":0.016,"p99_latency_ms":202,
                "availability_pct":99.98,"unrouted":1,"per_node_requests":[4,5]}}"#
            )
        };
        assert_eq!(report_figures(w, &body(10)).unwrap().requests_accounted, 10);
        assert!(report_figures(w, &body(11)).is_err());
    }
}

//! `lhr-cache` — command-line front end for the LHR reproduction.
//!
//! ```text
//! lhr-cache generate --kind zipf --objects 2000 --requests 100000 --out t.csv
//! lhr-cache stats t.csv
//! lhr-cache simulate --policy LHR --capacity 512MB t.csv
//! lhr-cache compare --capacity 512MB t.csv
//! lhr-cache bound --capacity 512MB t.csv
//! ```

#![forbid(unsafe_code)]

mod args;

use args::{parse_size, Args};
use lhr_obs::{Export, Obs, ObsConfig, ObsWindow};
use lhr_proto::presets::{self, PolicyCtor, PolicyParams};
use lhr_sim::shard::{shard_seed, RouteConfig};
use lhr_sim::{OfflineBound, SimConfig, Simulator};
use lhr_trace::stats::one_hit_wonder_ratio;
use lhr_trace::{io, Trace, TraceStats};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        return usage();
    }
    let command = argv.remove(0);
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    // Every command prints through this one lock: a write that fails
    // stops the command (`Stop`), where `println!` would panic.
    let mut out = std::io::stdout().lock();
    let result = match command.as_str() {
        "generate" => cmd_generate(&args, &mut out),
        "stats" => cmd_stats(&args, &mut out),
        "simulate" => cmd_simulate(&args, &mut out),
        "compare" => cmd_compare(&args, &mut out),
        "bound" => cmd_bound(&args, &mut out),
        "mrc" => cmd_mrc(&args, &mut out),
        "server" => cmd_server(&args, &mut out),
        "fleet" => cmd_fleet(&args, &mut out),
        "obs" => cmd_obs(&args, &mut out),
        "--help" | "-h" | "help" => return usage(),
        other => Err(format!("unknown command `{other}`").into()),
    };
    match result.and_then(|()| Ok(out.flush()?)) {
        Ok(()) | Err(Stop::Closed) => ExitCode::SUCCESS,
        Err(Stop::Error(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped before its end.
enum Stop {
    /// Whoever read its stdout closed it (`lhr-cache stats t.bin | head
    /// -3`): no one is left to print for, so it ends quietly, exit 0.
    Closed,
    /// One `error: …` line on stderr, exit 1.
    Error(String),
}

impl From<String> for Stop {
    fn from(e: String) -> Self {
        Stop::Error(e)
    }
}

impl From<&str> for Stop {
    fn from(e: &str) -> Self {
        Stop::Error(e.to_string())
    }
}

/// A failed write to stdout.
impl From<std::io::Error> for Stop {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => Stop::Closed,
            _ => Stop::Error(format!("writing to stdout: {e}")),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "lhr-cache — trace-driven CDN cache simulation (LHR, CoNEXT '21 reproduction)

USAGE:
  lhr-cache generate --kind KIND [--objects N] [--requests N] [--alpha A]
                     [--seed S] --out PATH        synthesize a trace
      KIND: zipf | cdn-a | cdn-b | cdn-c | wiki | syn-one | syn-two
      (cdn-* and wiki are fixed models: they take none of --objects,
      --requests, --alpha; syn-two takes no --alpha; at most 10 000 000
      objects — 100 000 for syn-* — and 100 000 000 requests)
      PATH ending in .bin writes the compact binary format, else CSV
  lhr-cache stats PATH                             Table-1 characteristics
  lhr-cache simulate --policy NAME --capacity SIZE [--warmup N] [--seed S] PATH
  lhr-cache compare --capacity SIZE [--warmup N] [--seed S] PATH
  lhr-cache bound --capacity SIZE PATH             offline/online bounds
  lhr-cache mrc [--points N] [--sample R] PATH     LRU miss-ratio curve +
                                                   Che-approximation prediction
  lhr-cache server --policy NAME --capacity SIZE [--faults PRESET]
                   [--report PATH] PATH            replay through the simulated
                                                   CDN serving path (latency,
                                                   throughput, WAN); PRESET
                                                   injects origin faults:
                                                   none | flaky | brownout |
                                                   outage | recovery
  lhr-cache fleet --policy NAME --capacity SIZE [--nodes N] [--vnodes V]
                  [--shield-mb M] [--faults PRESET] [--origin-faults PRESET]
                  [--peer-hints BOOL] [--hint-ttl SECS]
                  [--report PATH] PATH             replay across an N-node
                                                   consistent-hash edge fleet
                                                   over an origin shield;
                                                   --faults takes node presets
                                                   (none | node-flaky |
                                                   node-brownout | node-churn)
                                                   or an origin preset; origin
                                                   faults can also be injected
                                                   separately via
                                                   --origin-faults;
                                                   --peer-hints false stops
                                                   nodes advertising their
                                                   contents to ring neighbours,
                                                   --hint-ttl bounds how long
                                                   an advertisement is believed
  lhr-cache obs summarize PATH                     render an --obs recording
                                                   as a text report (series
                                                   sparklines, events, spans,
                                                   exemplar traces)
  lhr-cache obs trace PATH [--id N | --slowest K]  render sampled request-path
                                                   traces as step waterfalls
                                                   (default: the per-window
                                                   worst-latency exemplars)
  lhr-cache obs slo PATH [--objective LIST]        evaluate burn-rate SLOs
                                                   over the export's window
                                                   series (exit 1 on breach);
                                                   defaults to the --slo list
                                                   the run was recorded with

  simulate, server, and fleet also accept the sharded-engine flags:
    --threads N               replay with N worker threads (0 = one per
                              core); reports and --obs exports are
                              byte-identical at any thread count
    --shards N                shard the keyspace (and capacity) across N
                              independent policy instances (default 16
                              when --threads is given; at most 4096)
  server/fleet --report PATH writes the stable JSON report (wall-clock
  and thread-count fields zeroed) for determinism diffing.

  simulate, compare, server, and fleet also accept:
    --obs PATH                record windowed metric series, structured
                              events, and profiling spans; PATH ending in
                              .csv writes the window series as CSV, any
                              other path the full JSONL export (compare
                              writes one recording per policy, inserting
                              the policy name before the extension)
    --obs-window SPEC         series window: `300s` (trace seconds), `5000r`
                              or a bare integer (requests); default 10000r
    --obs-deterministic true  zero wall-clock readings so fixed-seed
                              recordings are byte-identical
    --trace-sample 1/N        record a request-path trace (edge lookup,
                              failover, peer hint, shield, origin attempts)
                              for a deterministic 1-in-N sample of requests;
                              sampling is a pure function of (object, trace
                              time), so exports stay byte-identical at any
                              --threads setting
    --slo LIST                declare burn-rate objectives evaluated at
                              export, e.g. avail:99.9,hitratio:80,p99:250;
                              breaches become SloBreach/SloRecover events
  bound also accepts --obs PATH (per-bound evaluation spans + counters;
  a JSONL export only — it records no window series to write as .csv).

  SIZE accepts raw bytes or suffixes KB/MB/GB/TB (powers of 10).
  Trace-reading commands accept --lossy true to skip malformed CSV lines
  (the skip count is reported on stderr) instead of failing.
  A flag the command does not read is an error, not a silently dropped
  setting.
  Policies: {}",
        presets::policy_names().join(", ")
    );
    ExitCode::FAILURE
}

/// The roster constructor behind `--policy NAME`.
fn policy_ctor(name: &str) -> Result<PolicyCtor, String> {
    presets::policy(name).ok_or_else(|| {
        format!(
            "unknown policy `{name}` (try: {})",
            presets::policy_names().join(", ")
        )
    })
}

/// Read by [`load_trace`], so by every trace-reading command.
const TRACE_FLAGS: &[&str] = &["lossy"];
/// Read by [`obs_config_from_args`].
const OBS_FLAGS: &[&str] = &[
    "obs",
    "obs-window",
    "obs-deterministic",
    "trace-sample",
    "slo",
];
/// Read by [`PolicyRun::open`] itself, on top of the two lists above.
const RUN_FLAGS: &[&str] = &["policy", "capacity", "seed", "threads", "shards"];

/// One-line rendering of a trace parse failure: malformed records point at
/// their line (`path:line: reason`), everything else is `path: error`.
fn format_parse_error(path: &str, e: io::ParseError) -> String {
    match e {
        io::ParseError::Malformed { location, reason } => format!("{path}:{location}: {reason}"),
        other => format!("{path}: {other}"),
    }
}

fn trace_path(args: &Args) -> Result<&String, String> {
    Ok(args.positional.first().ok_or("missing trace path")?)
}

fn load_trace(args: &Args) -> Result<Trace, String> {
    let path = trace_path(args)?;
    let lossy = args.get_parse("lossy")?.unwrap_or(false);
    let trace = if path.ends_with(".bin") {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        io::read_binary(file, path_stem(path)).map_err(|e| format_parse_error(path, e))?
    } else if lossy {
        let (trace, skipped) =
            io::read_csv_file_lossy(path).map_err(|e| format_parse_error(path, e))?;
        if skipped > 0 {
            eprintln!("warning: {path}: skipped {skipped} malformed line(s)");
        }
        trace
    } else {
        io::read_csv_file(path).map_err(|e| format_parse_error(path, e))?
    };
    trace
        .validate()
        .map_err(|e| format!("{path}: invalid trace: {e}"))?;
    Ok(trace)
}

fn path_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// The most objects and requests `generate` accepts. A generator holds one
/// popularity table entry per object — per object and popularity state for
/// the Markov-modulated `syn-one` / `syn-two`, hence their lower bound — and
/// the whole trace in memory, so an unbounded count is an allocation the
/// size of the typo.
const MAX_GENERATE_OBJECTS: usize = 10_000_000;
const MAX_SYN_OBJECTS: usize = 100_000;
const MAX_GENERATE_REQUESTS: usize = 100_000_000;

fn cmd_generate(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    let kind = args.get("kind").ok_or("--kind is required")?;
    // The shape flags each kind reads: the production models are fixed
    // populations and syn-two has no Zipf exponent, so a flag one of them
    // would drop is refused like any other flag the command does not read.
    let shape: &[&str] = match kind.as_str() {
        "zipf" | "syn-one" => &["objects", "requests", "alpha"],
        "syn-two" => &["objects", "requests"],
        "cdn-a" | "cdn-b" | "cdn-c" | "wiki" => &[],
        other => return Err(format!("unknown trace kind `{other}`").into()),
    };
    let command = format!("generate --kind {kind}");
    args.expect_flags(&command, &[&["kind", "out", "seed"], shape])?;
    let path = args.get("out").ok_or("--out is required")?;
    let seed = args.get_parse("seed")?.unwrap_or(42u64);
    let objects = args.get_parse("objects")?.unwrap_or(10_000usize);
    let requests = args.get_parse("requests")?.unwrap_or(100_000usize);
    let alpha = args.get_parse("alpha")?.unwrap_or(0.9f64);
    // The generators assert a non-empty population and a sane exponent, and
    // allocate for whatever they are asked: a flag must reach neither an
    // assert nor the allocator.
    let max_objects = if kind.starts_with("syn-") {
        MAX_SYN_OBJECTS
    } else {
        MAX_GENERATE_OBJECTS
    };
    if !(1..=max_objects).contains(&objects) {
        return Err(format!(
            "--objects must be in 1..={max_objects} for --kind {kind}, got {objects}"
        )
        .into());
    }
    if requests > MAX_GENERATE_REQUESTS {
        return Err(
            format!("--requests must be at most {MAX_GENERATE_REQUESTS}, got {requests}").into(),
        );
    }
    if !(alpha.is_finite() && alpha >= 0.0) {
        return Err(format!("--alpha must be finite and non-negative, got {alpha}").into());
    }
    // Requests per popularity state; zero would never advance the chain.
    let per_state = (requests / 5).max(1);

    use lhr_trace::synth::{markov, production, IrmConfig, ProductionScale, SizeModel};
    let trace = match kind.as_str() {
        "zipf" => IrmConfig::new(objects, requests)
            .zipf_alpha(alpha)
            .size_model(SizeModel::BoundedPareto {
                alpha: 1.2,
                min: 10_000,
                max: 100_000_000,
            })
            .seed(seed)
            .generate(),
        "cdn-a" => production::cdn_a(ProductionScale::Small, seed),
        "cdn-b" => production::cdn_b(ProductionScale::Small, seed),
        "cdn-c" => production::cdn_c(ProductionScale::Small, seed),
        "wiki" => production::wiki(ProductionScale::Small, seed),
        "syn-one" => markov::syn_one(objects, requests, per_state, alpha, seed),
        "syn-two" => markov::syn_two(objects, requests, per_state, seed),
        _ => unreachable!("the kind was matched against the same list above"),
    };
    let file = create(path)?;
    if path.ends_with(".bin") {
        io::write_binary(&trace, file).map_err(|e| format!("{path}: {e}"))?;
    } else {
        io::write_csv(&trace, file).map_err(|e| format!("{path}: {e}"))?;
    }
    writeln!(out, "wrote {} requests to {path}", trace.len())?;
    Ok(())
}

fn cmd_stats(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    args.expect_flags("stats", &[TRACE_FLAGS])?;
    let trace = load_trace(args)?;
    let s = TraceStats::compute(&trace);
    writeln!(out, "trace:            {}", s.name)?;
    writeln!(out, "requests:         {}", s.total_requests)?;
    writeln!(out, "unique contents:  {}", s.unique_contents)?;
    writeln!(out, "duration:         {:.2} h", s.duration_hours)?;
    writeln!(
        out,
        "total bytes:      {:.3} TB",
        s.total_bytes_requested as f64 / 1e12
    )?;
    writeln!(
        out,
        "unique bytes:     {:.1} GB",
        s.unique_bytes_requested as f64 / 1e9
    )?;
    writeln!(
        out,
        "peak active:      {:.1} GB",
        s.peak_active_bytes as f64 / 1e9
    )?;
    writeln!(out, "mean size:        {:.2} MB", s.mean_content_size / 1e6)?;
    writeln!(
        out,
        "max size:         {:.1} MB",
        s.max_content_size as f64 / 1e6
    )?;
    writeln!(
        out,
        "one-hit wonders:  {:.1} %",
        one_hit_wonder_ratio(&trace) * 100.0
    )?;
    Ok(())
}

/// Parses the shared observability flags into a recorder configuration:
/// `--obs PATH` turns recording on, `--obs-window SPEC` sets the series
/// windowing (`300s`, `5000r`, or a bare request count),
/// `--obs-deterministic true` zeroes wall-clock readings so fixed-seed
/// recordings are byte-identical, `--trace-sample 1/N` records a
/// deterministic request-path trace for one request in N, and
/// `--slo LIST` declares burn-rate objectives (`avail:99.9,p99:50`)
/// evaluated at export. `compare` builds one recorder per policy from
/// this configuration; the other commands build exactly one.
fn obs_config_from_args(args: &Args) -> Result<Option<(ObsConfig, String)>, String> {
    let Some(path) = args.get("obs") else {
        for flag in ["obs-window", "obs-deterministic", "trace-sample", "slo"] {
            if args.get(flag).is_some() {
                return Err(format!("--{flag} requires --obs PATH"));
            }
        }
        return Ok(None);
    };
    let window: ObsWindow = args.get_parse("obs-window")?.unwrap_or_default();
    let deterministic = args.get_parse("obs-deterministic")?.unwrap_or(false);
    let trace_sample = match args.get("trace-sample") {
        Some(raw) => lhr_obs::trace::parse_sample(raw)?,
        None => 0,
    };
    let slos = match args.get("slo") {
        Some(raw) => lhr_obs::slo::parse_objectives(raw)?,
        None => Vec::new(),
    };
    let config = ObsConfig {
        window,
        deterministic,
        trace_sample,
        slos,
        ..ObsConfig::default()
    };
    Ok(Some((config, path.clone())))
}

/// [`obs_config_from_args`] plus the recorder itself, for the
/// one-recording-per-run commands.
fn obs_from_args(args: &Args) -> Result<Option<(Obs, String)>, String> {
    Ok(obs_config_from_args(args)?.map(|(config, path)| (Obs::new(config), path)))
}

/// Derives a per-policy recording path by inserting the sanitized policy
/// name before the extension: `out.jsonl` + `W-TinyLFU` → `out.w-tinylfu.jsonl`.
fn obs_path_for_policy(path: &str, policy: &str) -> String {
    let tag: String = policy
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    match path.rfind('.') {
        Some(dot) if dot > path.rfind('/').map_or(0, |s| s + 1) => {
            format!("{}.{tag}{}", &path[..dot], &path[dot..])
        }
        _ => format!("{path}.{tag}"),
    }
}

/// Opens the `--obs` file before replay, so a path that cannot be written
/// is refused before the run; [`finish_obs`] writes it. A `.csv` path is
/// created and written there: the CSV is only the windowed series.
fn start_obs(obs: &Obs, path: &str) -> Result<(), String> {
    if !path.ends_with(".csv") {
        obs.stream_to(path).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// Finishes an `--obs` recording started by [`start_obs`]: writes the
/// JSONL export into the open file, or the windowed CSV.
fn finish_obs(obs: &Obs, path: &str) -> Result<(), String> {
    let bytes = if path.ends_with(".csv") {
        let body = obs.windows_csv();
        std::fs::write(path, &body).map_err(|e| format!("{path}: {e}"))?;
        body.len() as u64
    } else {
        obs.close_stream().map_err(|e| format!("{path}: {e}"))?;
        std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
    };
    eprintln!("obs: wrote {bytes} bytes to {path}");
    Ok(())
}

fn cmd_obs(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    match args.positional.first().map(String::as_str) {
        Some("summarize") => {
            args.expect_flags("obs summarize", &[])?;
            let path = args
                .positional
                .get(1)
                .ok_or("obs summarize expects a recording path")?;
            let report = lhr_obs::summary::summarize(&Export::read(path)?);
            write!(out, "{report}")?;
            if !report.ends_with('\n') {
                writeln!(out)?;
            }
            Ok(())
        }
        Some("trace") => cmd_obs_trace(args, out),
        Some("slo") => cmd_obs_slo(args, out),
        Some(other) => {
            Err(format!("unknown obs action `{other}` (try: summarize, trace, slo)").into())
        }
        None => Err("obs expects an action: summarize | trace | slo PATH".into()),
    }
}

/// Renders one sampled trace as a step waterfall.
fn print_trace_waterfall(out: &mut impl Write, t: &lhr_obs::TraceRecord) -> std::io::Result<()> {
    writeln!(
        out,
        "trace {} object {} t={:.3}s {} B window {} latency {:.3} ms{}",
        t.id,
        t.object,
        t.t,
        t.bytes,
        t.window,
        t.latency_ms,
        if t.exemplar { " [exemplar]" } else { "" }
    )?;
    for s in &t.steps {
        let detail: Vec<String> = s.detail.iter().map(|(k, v)| format!("{k}={v}")).collect();
        writeln!(
            out,
            "  +{:>10.3} ms  {:<14} {:>12} B  {}",
            s.dt_ms,
            s.step,
            s.bytes,
            detail.join(" ")
        )?;
    }
    Ok(())
}

/// `obs trace EXPORT [--id N | --slowest K]`: renders sampled request
/// paths. Default shows the per-window exemplars (worst sampled latency).
fn cmd_obs_trace(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    // Every flag is judged before the export is read.
    args.expect_flags("obs trace", &[&["id", "slowest"]])?;
    let id = args.get_parse::<u64>("id")?;
    let slowest = args.get_parse::<usize>("slowest")?;
    if id.is_some() && slowest.is_some() {
        return Err("obs trace takes --id or --slowest, not both".into());
    }
    let path = args
        .positional
        .get(1)
        .ok_or("obs trace expects a recording path")?;
    let traces = Export::read(path)?.traces;
    if traces.is_empty() {
        return Err(format!(
            "{path}: no sampled traces (was the run recorded with --trace-sample?)"
        )
        .into());
    }
    if let Some(id) = id {
        let t = traces
            .iter()
            .find(|t| t.id == id)
            .ok_or_else(|| format!("{path}: no sampled trace with id {id}"))?;
        print_trace_waterfall(out, t)?;
        return Ok(());
    }
    let picked: Vec<&lhr_obs::TraceRecord> = if let Some(k) = slowest {
        let mut by_latency: Vec<&lhr_obs::TraceRecord> = traces.iter().collect();
        // Worst first; ties break toward the smaller id so the listing is
        // stable across reruns.
        by_latency.sort_by(|a, b| b.latency_ms.total_cmp(&a.latency_ms).then(a.id.cmp(&b.id)));
        by_latency.into_iter().take(k.max(1)).collect()
    } else {
        traces.iter().filter(|t| t.exemplar).collect()
    };
    writeln!(out, "{} sampled trace(s) in {path}", traces.len())?;
    for (i, t) in picked.iter().enumerate() {
        if i > 0 {
            writeln!(out)?;
        }
        print_trace_waterfall(out, t)?;
    }
    Ok(())
}

/// `obs slo EXPORT [--objective LIST]`: evaluates burn-rate objectives
/// over the export's window series. Defaults to the objectives the run
/// was recorded with (the meta line's `slos` key).
fn cmd_obs_slo(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    args.expect_flags("obs slo", &[&["objective"]])?;
    let path = args
        .positional
        .get(1)
        .ok_or("obs slo expects a recording path")?;
    let export = Export::read(path)?;
    let recorded = export.meta_value("slos").and_then(|v| v.as_str());
    let raw = match (args.get("objective"), recorded) {
        (Some(flag), _) => flag.as_str(),
        (None, Some(meta)) => meta,
        (None, None) => {
            return Err(format!(
                "{path}: no objectives — pass --objective (e.g. avail:99.9,p99:250) \
                 or record the run with --slo"
            )
            .into())
        }
    };
    let objectives = lhr_obs::slo::parse_objectives(raw)?;
    let latency = lhr_obs::slo::pick_latency_hist(&export.hists);
    let verdicts = lhr_obs::slo::evaluate(&objectives, &export.windows, latency);
    let mut breached = false;
    writeln!(
        out,
        "{:<16} {:>9} {:>12} {:>10}  breached windows",
        "objective", "verdict", "observed", "events"
    )?;
    for v in &verdicts {
        breached |= !v.met;
        let shown: Vec<String> = v
            .breached_windows
            .iter()
            .take(8)
            .map(u64::to_string)
            .collect();
        let more = v.breached_windows.len().saturating_sub(8);
        let mut tail = shown.join(",");
        if more > 0 {
            tail.push_str(&format!(",… +{more}"));
        }
        if tail.is_empty() {
            tail.push('-');
        }
        writeln!(
            out,
            "{:<16} {:>9} {:>12.4} {:>10}  {}",
            v.objective.to_string(),
            if v.met { "MET" } else { "BREACHED" },
            v.observed,
            v.events.len(),
            tail
        )?;
    }
    for v in &verdicts {
        for e in &v.events {
            let fields: Vec<String> = e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            writeln!(out, "  t={:<12} {:?} {}", e.t, e.kind, fields.join(" "))?;
        }
    }
    if breached {
        return Err("one or more objectives breached".into());
    }
    Ok(())
}

fn sim_config(args: &Args) -> Result<SimConfig, String> {
    Ok(SimConfig {
        warmup_requests: args.get_parse("warmup")?.unwrap_or(0usize),
    })
}

/// The most shards `--shards` accepts. Every shard is a full serving path
/// (policy slice, maps, latency buffers — times `--nodes` in a fleet), so
/// an unbounded count is an allocation the size of the typo.
const MAX_SHARDS: usize = 4_096;

/// The threading flags shared by `simulate`, `server` and `fleet`:
/// `--threads N` (0 = one per core) and `--shards N` (at most
/// [`MAX_SHARDS`]). Returns `None` when neither is given
/// (single-threaded replay).
fn shard_args(args: &Args) -> Result<Option<(usize, usize)>, String> {
    let threads: Option<usize> = args.get_parse("threads")?;
    let shards: Option<usize> = args.get_parse("shards")?;
    if threads.is_none() && shards.is_none() {
        return Ok(None);
    }
    let shards = shards.unwrap_or(16);
    if !(1..=MAX_SHARDS).contains(&shards) {
        return Err(format!(
            "--shards must be in 1..={MAX_SHARDS}, got {shards}"
        ));
    }
    Ok(Some((threads.unwrap_or(1), shards)))
}

/// What `simulate`, `server` and `fleet` set up the same way before they
/// replay: the trace, `--policy`, `--capacity`, `--seed`, the sharding
/// flags, the `--obs` recorder with its sink already open, and the
/// `--report` file, created.
struct PolicyRun {
    trace: Trace,
    capacity: u64,
    seed: u64,
    build: PolicyCtor,
    /// `(threads, shards)` when either flag was given.
    sharding: Option<(usize, usize)>,
    obs: Option<(Obs, String)>,
    report: Option<(std::fs::File, String)>,
}

impl PolicyRun {
    /// Reads the shared flags of `command`, which reads `own_flags` itself
    /// — in `own`, whose result is handed back; any other flag is refused.
    /// Every flag, shared or own, is checked before the trace is read, so a
    /// misspelt `--policy` or `--faults` costs one line, not a full load.
    fn open<T>(
        args: &Args,
        command: &str,
        own_flags: &[&str],
        own: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Self, T), String> {
        args.expect_flags(command, &[RUN_FLAGS, TRACE_FLAGS, OBS_FLAGS, own_flags])?;
        trace_path(args)?;
        let name = args.get("policy").ok_or("--policy is required")?;
        let capacity = parse_size(args.get("capacity").ok_or("--capacity is required")?)?;
        let seed = args.get_parse("seed")?.unwrap_or(42u64);
        let sharding = shard_args(args)?;
        let build = policy_ctor(name)?;
        let obs = obs_from_args(args)?;
        let own = own()?;
        let trace = load_trace(args)?;
        // Every output path is opened before the replay, so one that
        // cannot be written fails before the run instead of after it.
        if let Some((o, path)) = &obs {
            start_obs(o, path)?;
        }
        let report = match args.get("report") {
            Some(path) => Some((create(path)?, path.clone())),
            None => None,
        };
        let run = PolicyRun {
            trace,
            capacity,
            seed,
            build,
            sharding,
            obs,
            report,
        };
        Ok((run, own))
    }

    /// The roster parameters `--policy NAME` runs with, no recorder attached.
    fn params(&self) -> PolicyParams<'static> {
        PolicyParams::for_trace(self.capacity, self.seed, &self.trace)
    }

    fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref().map(|(o, _)| o)
    }

    /// A sharded replay indexes requests as `u32`: a longer trace is one
    /// error line here, not a panic inside the partition.
    fn check_shardable(&self) -> Result<(), String> {
        lhr_sim::shard::indexable(self.trace.len())
            .map(drop)
            .map_err(|e| e.to_string())
    }

    /// Writes the stable JSON report into the `--report` file, if there
    /// is one.
    fn write_report(&mut self, stable_json: impl FnOnce() -> String) -> Result<(), String> {
        let Some((file, path)) = &mut self.report else {
            return Ok(());
        };
        let body = stable_json();
        file.write_all(body.as_bytes())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("report: wrote {} bytes to {path}", body.len());
        Ok(())
    }

    /// Completes the `--obs` recording, if there is one.
    fn close(self) -> Result<(), String> {
        match &self.obs {
            Some((o, path)) => finish_obs(o, path),
            None => Ok(()),
        }
    }
}

/// Creates (or truncates) the output file at `path`.
fn create(path: &str) -> Result<std::fs::File, String> {
    std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_simulate(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    let (mut run, config) = PolicyRun::open(args, "simulate", &["warmup"], || sim_config(args))?;
    let params = run.params();
    let mut sim = Simulator::new(config);
    if let Some(o) = run.obs() {
        sim = sim.with_obs(o.clone());
    }
    let result = if let Some((threads, n_shards)) = run.sharding {
        run.check_shardable()?;
        let shard_capacity = (run.capacity / n_shards as u64).max(1);
        // Handed over by value: the replay frees it as the shards step past it.
        sim.run_sharded(
            std::mem::take(&mut run.trace),
            n_shards,
            &RouteConfig { threads },
            |shard, shard_obs| (run.build)(&params.for_shard(shard_capacity, shard, shard_obs)),
        )
    } else {
        let mut policy = (run.build)(&PolicyParams {
            obs: run.obs(),
            ..params
        });
        sim.run(&mut policy, &run.trace)
    };
    writeln!(
        out,
        "{} @ {:.2} GB on {}: hit {:.2}%  byte-hit {:.2}%  WAN {:.3} Gbps  \
         evictions {}  wall {:.2}s",
        result.policy,
        run.capacity as f64 / 1e9,
        result.trace,
        result.metrics.object_hit_ratio() * 100.0,
        result.metrics.byte_hit_ratio() * 100.0,
        result.metrics.wan_gbps(),
        result.evictions,
        result.wall_secs,
    )?;
    Ok(run.close()?)
}

fn cmd_compare(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    let flags = ["capacity", "seed", "warmup"];
    args.expect_flags("compare", &[&flags, TRACE_FLAGS, OBS_FLAGS])?;
    let capacity = parse_size(args.get("capacity").ok_or("--capacity is required")?)?;
    let seed = args.get_parse("seed")?.unwrap_or(42u64);
    let config = sim_config(args)?;
    // With `--obs PATH`, every policy gets its own recorder and its own
    // recording file (the policy name is inserted before the extension).
    let obs_config = obs_config_from_args(args)?;
    let trace = load_trace(args)?;
    writeln!(
        out,
        "{:<11} {:>8} {:>9} {:>10} {:>9}",
        "policy", "hit%", "byte-hit%", "WAN(Gbps)", "wall(s)"
    )?;
    let params = PolicyParams::for_trace(capacity, seed, &trace);
    for &(name, build) in presets::POLICIES {
        let obs = obs_config
            .as_ref()
            .map(|(cfg, path)| (Obs::new(cfg.clone()), obs_path_for_policy(path, name)));
        if let Some((o, path)) = &obs {
            start_obs(o, path)?;
        }
        let mut policy = build(&PolicyParams {
            obs: obs.as_ref().map(|(o, _)| o),
            ..params
        });
        let mut sim = Simulator::new(config.clone());
        if let Some((o, _)) = &obs {
            sim = sim.with_obs(o.clone());
        }
        let result = sim.run(&mut policy, &trace);
        writeln!(
            out,
            "{:<11} {:>8.2} {:>9.2} {:>10.3} {:>9.2}",
            result.policy,
            result.metrics.object_hit_ratio() * 100.0,
            result.metrics.byte_hit_ratio() * 100.0,
            result.metrics.wan_gbps(),
            result.wall_secs,
        )?;
        if let Some((o, path)) = &obs {
            finish_obs(o, path)?;
        }
    }
    Ok(())
}

/// The most curve points `mrc --points` accepts: the flag is a capacity
/// list and a table of that length, so an unbounded count is an allocation
/// and a loop the size of the typo.
const MAX_MRC_POINTS: usize = 10_000;

fn cmd_mrc(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    use lhr_analysis::che::CheModel;
    use lhr_analysis::mrc::{lru_mrc, MrcConfig};
    args.expect_flags("mrc", &[&["points", "sample"], TRACE_FLAGS])?;
    let n_points: usize = args.get_parse("points")?.unwrap_or(10);
    if !(1..=MAX_MRC_POINTS).contains(&n_points) {
        return Err(format!("--points must be in 1..={MAX_MRC_POINTS}, got {n_points}").into());
    }
    let sample: f64 = args.get_parse("sample")?.unwrap_or(1.0);
    if sample.is_nan() || sample <= 0.0 {
        return Err(
            format!("--sample must be a rate above 0 (1 or more = exact), got {sample}").into(),
        );
    }
    let trace = load_trace(args)?;
    if trace.len() < 2 {
        // A rate is a count over a duration: `CheModel::from_trace`
        // asserts this, and a curve of one request says nothing.
        return Err(format!(
            "{}: mrc needs a trace of at least two requests, this one has {}",
            args.positional[0],
            trace.len()
        )
        .into());
    }
    let stats = TraceStats::compute(&trace);
    let unique = stats.unique_bytes_requested as u64;
    let capacities: Vec<u64> = (1..=n_points as u64)
        .map(|k| (unique * k / n_points as u64).max(1))
        .collect();
    let config = if sample >= 1.0 {
        MrcConfig::exact(capacities)
    } else {
        MrcConfig::sampled(capacities, sample)
    };
    let curve = lru_mrc(&trace, &config);
    let che = CheModel::from_trace(&trace);
    writeln!(
        out,
        "{:<14} {:>12} {:>10}",
        "capacity(GB)", "LRU hit%", "Che hit%"
    )?;
    for &(capacity, hit) in &curve.points {
        writeln!(
            out,
            "{:<14.3} {:>12.2} {:>10.2}",
            capacity as f64 / 1e9,
            hit * 100.0,
            che.lru_hit_ratio(capacity) * 100.0
        )?;
    }
    Ok(())
}

fn cmd_server(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    use lhr_proto::{CdnServer, FaultConfig, ServerConfig};
    let (mut run, preset) = PolicyRun::open(args, "server", &["faults", "report"], || {
        let preset = args.get("faults").map(String::as_str);
        match preset.filter(|p| !FaultConfig::preset_names().contains(p)) {
            Some(unknown) => Err(format!(
                "unknown fault preset `{unknown}` (try: {})",
                FaultConfig::preset_names().join(", ")
            )),
            None => Ok(preset),
        }
    })?;
    let faulted = preset.is_some_and(|p| p != "none");
    // Only building the preset needs the trace (its windows scale with the
    // duration); the name was checked before the load.
    let config = match preset {
        Some(preset) => presets::fault_preset(preset, run.seed, run.trace.duration().as_secs_f64())
            .expect("checked against the preset names"),
        None => ServerConfig::default(),
    };
    let params = run.params();

    // `--threads`/`--shards`/`--report` select the sharded engine; its
    // stable report is byte-identical at any thread count.
    if run.sharding.is_some() || run.report.is_some() {
        use lhr_proto::{EngineConfig, ShardedEngine};
        let (threads, n_shards) = run.sharding.unwrap_or((1, 16));
        run.check_shardable()?;
        let mut engine = ShardedEngine::new(EngineConfig {
            total_capacity: run.capacity,
            n_shards,
            route: RouteConfig { threads },
            server: config,
        });
        if let Some(o) = run.obs() {
            engine = engine.with_obs(o.clone());
        }
        // Handed over by value: the replay frees it as the shards step past it.
        let trace = std::mem::take(&mut run.trace);
        let er = engine.replay(trace, |shard, shard_capacity, shard_obs| {
            (run.build)(&params.for_shard(shard_capacity, shard, shard_obs))
        });
        print_server_report(out, &er.report, Some(&er), faulted)?;
        run.write_report(|| er.stable_json())?;
    } else {
        let policy = (run.build)(&PolicyParams {
            obs: run.obs(),
            ..params
        });
        let mut server = CdnServer::new(policy, config);
        if let Some(o) = run.obs() {
            server = server.with_obs(o.clone());
        }
        print_server_report(out, &server.replay(&run.trace), None, faulted)?;
    }
    Ok(run.close()?)
}

/// Prints a serving report, single-server or (with `engine`) sharded. The
/// engine's busy-time throughput and degraded percentiles are not part of
/// its output: it prints its shard/thread/rate line instead.
fn print_server_report(
    out: &mut impl Write,
    r: &lhr_proto::ServerReport,
    engine: Option<&lhr_proto::EngineReport>,
    faulted: bool,
) -> std::io::Result<()> {
    writeln!(out, "policy:          {}", r.name)?;
    if let Some(er) = engine {
        writeln!(
            out,
            "engine:          {} shards, {} threads, {:.0} req/s",
            er.n_shards, er.threads, er.requests_per_sec
        )?;
    }
    writeln!(out, "content hit:     {:.2} %", r.content_hit_pct)?;
    if engine.is_none() {
        writeln!(out, "throughput:      {:.2} Gbps", r.throughput_gbps)?;
    }
    writeln!(out, "mean latency:    {:.1} ms", r.mean_latency_ms)?;
    writeln!(out, "P90 latency:     {:.1} ms", r.p90_latency_ms)?;
    writeln!(out, "P99 latency:     {:.1} ms", r.p99_latency_ms)?;
    writeln!(out, "WAN traffic:     {:.3} Gbps", r.wan_gbps)?;
    writeln!(out, "peak metadata:   {:.2} MB", r.peak_mem_gb * 1e3)?;
    if faulted {
        writeln!(out, "availability:    {:.2} %", r.availability_pct)?;
        writeln!(out, "errors served:   {}", r.errors_served)?;
        writeln!(out, "stale served:    {}", r.stale_served)?;
        writeln!(out, "retries:         {}", r.retries)?;
        writeln!(out, "coalesced:       {}", r.coalesced_fetches)?;
        writeln!(
            out,
            "breaker:         {} open / {} close",
            r.breaker_opens, r.breaker_closes
        )?;
        if engine.is_none() {
            writeln!(
                out,
                "degraded P90/99: {:.1} / {:.1} ms",
                r.degraded_p90_latency_ms, r.degraded_p99_latency_ms
            )?;
        }
    }
    writeln!(out, "replay wall:     {:.2} s", r.replay_wall_secs)
}

/// Upper bound on `--vnodes`: the ring holds `nodes × vnodes` points, and
/// the keyspace is already balanced to ~1.2 max/mean at 64.
const MAX_VNODES: usize = 4_096;

/// `fleet`'s own flags, parsed and range-checked; nothing here needs the
/// trace.
struct FleetFlags<'a> {
    n_nodes: usize,
    vnodes: usize,
    /// `--shield-mb` in bytes (default: a quarter of `--capacity`).
    shield_capacity: Option<u64>,
    /// `--faults`: a node preset or an origin preset, by name.
    faults: &'a str,
    /// `--origin-faults`: an origin preset, by name.
    origin_faults: Option<&'a str>,
    hint_ttl_secs: Option<f64>,
    peer_hints: Option<bool>,
}

fn fleet_flags(args: &Args) -> Result<FleetFlags<'_>, String> {
    use lhr_proto::fleet::{NodeFaultConfig, MAX_NODES};
    use lhr_proto::FaultConfig;
    let n_nodes: usize = args.get_parse("nodes")?.unwrap_or(4);
    if !(1..=MAX_NODES).contains(&n_nodes) {
        return Err(format!("--nodes must be in 1..={MAX_NODES}, got {n_nodes}"));
    }
    let vnodes: usize = args.get_parse("vnodes")?.unwrap_or(64);
    if !(1..=MAX_VNODES).contains(&vnodes) {
        return Err(format!(
            "--vnodes must be in 1..={MAX_VNODES}, got {vnodes}"
        ));
    }
    let shield_capacity = args
        .get_parse::<u64>("shield-mb")?
        .map(|mb| {
            mb.checked_mul(1_000_000)
                .ok_or_else(|| format!("--shield-mb {mb} does not fit a byte count"))
        })
        .transpose()?;
    let (node_presets, origin_presets) =
        (NodeFaultConfig::preset_names(), FaultConfig::preset_names());
    let faults = args.get("faults").map_or("none", String::as_str);
    if !node_presets.contains(&faults) && !origin_presets.contains(&faults) {
        return Err(format!(
            "unknown fault preset `{faults}` (node: {}; origin: {})",
            node_presets.join(", "),
            origin_presets.join(", ")
        ));
    }
    let origin_faults = args.get("origin-faults").map(String::as_str);
    if let Some(preset) = origin_faults.filter(|p| !origin_presets.contains(p)) {
        return Err(format!(
            "unknown origin fault preset `{preset}` (try: {})",
            origin_presets.join(", ")
        ));
    }
    let hint_ttl_secs = args.get_parse::<f64>("hint-ttl")?;
    // NaN or a negative TTL would refuse every hint while the run still
    // reports peer hints as on; `inf` (never expire) is legal.
    if let Some(ttl) = hint_ttl_secs.filter(|ttl| ttl.is_nan() || *ttl < 0.0) {
        return Err(format!(
            "--hint-ttl must be a number of seconds >= 0, got {ttl}"
        ));
    }
    Ok(FleetFlags {
        n_nodes,
        vnodes,
        shield_capacity,
        faults,
        origin_faults,
        hint_ttl_secs,
        peer_hints: args.get_parse("peer-hints")?,
    })
}

fn cmd_fleet(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    use lhr_proto::fleet::{FleetConfig, FleetEngine, NodeFaultConfig};
    use lhr_proto::ServerConfig;
    let own_flags = [
        "nodes",
        "vnodes",
        "shield-mb",
        "faults",
        "origin-faults",
        "hint-ttl",
        "peer-hints",
        "report",
    ];
    let (mut run, flags) = PolicyRun::open(args, "fleet", &own_flags, || fleet_flags(args))?;
    let (capacity, seed) = (run.capacity, run.seed);
    let params = run.params();
    let duration = run.trace.duration().as_secs_f64();

    // Only building the presets needs the trace (their windows scale with
    // its duration); the names were checked before the load. `--faults`
    // takes a node-level preset, or an origin preset (routed to the
    // shield's origin); `--origin-faults` composes an origin preset with
    // node faults.
    let origin = |preset| {
        presets::fault_preset(preset, seed, duration).expect("checked against the preset names")
    };
    let (node_faults, mut server) =
        match NodeFaultConfig::preset(flags.faults, seed, flags.n_nodes, duration) {
            Some(node_faults) => (node_faults, ServerConfig::default()),
            None => (NodeFaultConfig::default(), origin(flags.faults)),
        };
    if let Some(preset) = flags.origin_faults {
        server = origin(preset);
    }

    let (threads, n_shards) = run.sharding.unwrap_or((1, 8));
    run.check_shardable()?;
    let mut config = FleetConfig::new(capacity);
    config.n_nodes = flags.n_nodes;
    config.vnodes = flags.vnodes;
    config.shield_capacity = flags.shield_capacity.unwrap_or(capacity / 4);
    config.n_shards = n_shards;
    config.route = RouteConfig { threads };
    config.server = server;
    config.node_faults = node_faults;
    if let Some(ttl) = flags.hint_ttl_secs {
        config.hint_ttl_secs = ttl;
    }
    if let Some(peer_hints) = flags.peer_hints {
        config.peer_hints = peer_hints;
    }
    let mut engine = FleetEngine::new(config);
    if let Some(o) = run.obs() {
        engine = engine.with_obs(o.clone());
    }
    // Per-slice seeds derive as shard_seed(node_seed, shard) with
    // node_seed = shard_seed(seed, node) — the ARCHITECTURE.md clause.
    // Handed over by value: the replay frees it as the shards step past it.
    let trace = std::mem::take(&mut run.trace);
    let r = engine.replay(trace, |node, shard, slice_capacity, shard_obs| {
        let node_params = PolicyParams {
            seed: shard_seed(seed, node),
            ..params
        };
        (run.build)(&node_params.for_shard(slice_capacity, shard, shard_obs))
    });

    writeln!(out, "fleet:           {}", r.name)?;
    writeln!(
        out,
        "topology:        {} nodes x {} vnodes, {} shards, {} threads, {:.0} req/s",
        r.n_nodes, r.vnodes, r.n_shards, r.threads, r.requests_per_sec
    )?;
    writeln!(out, "edge hit:        {:.2} %", r.edge_hit_pct)?;
    writeln!(out, "byte hit:        {:.2} %", r.byte_hit_pct)?;
    writeln!(out, "shield hit:      {:.2} %", r.shield_hit_pct)?;
    writeln!(out, "peer hits:       {}", r.peer_hits)?;
    writeln!(out, "origin offload:  {:.2} %", r.origin_offload_pct)?;
    writeln!(out, "availability:    {:.2} %", r.availability_pct)?;
    writeln!(
        out,
        "errors served:   {} (+{} unrouted)",
        r.errors_served, r.unrouted
    )?;
    writeln!(out, "failovers:       {}", r.failovers)?;
    writeln!(
        out,
        "stale served:    {}  retries: {}  coalesced: {}",
        r.stale_served, r.retries, r.coalesced_fetches
    )?;
    writeln!(
        out,
        "breaker:         {} open / {} close",
        r.breaker_opens, r.breaker_closes
    )?;
    writeln!(out, "mean latency:    {:.1} ms", r.mean_latency_ms)?;
    writeln!(
        out,
        "P90/P99 latency: {:.1} / {:.1} ms",
        r.p90_latency_ms, r.p99_latency_ms
    )?;
    writeln!(out, "WAN traffic:     {:.3} Gbps", r.wan_gbps)?;
    writeln!(out, "node imbalance:  {:.2}", r.node_imbalance)?;
    for node in 0..r.per_node_requests.len() {
        writeln!(
            out,
            "  node {node}:        {} reqs, {:.2} % hit, {} errors",
            r.per_node_requests[node], r.per_node_hit_pct[node], r.per_node_errors[node]
        )?;
    }
    writeln!(out, "replay wall:     {:.2} s", r.replay_wall_secs)?;
    run.write_report(|| r.stable_json())?;
    Ok(run.close()?)
}

fn cmd_bound(args: &Args, out: &mut impl Write) -> Result<(), Stop> {
    args.expect_flags("bound", &[&["capacity"], TRACE_FLAGS, OBS_FLAGS])?;
    let capacity = parse_size(args.get("capacity").ok_or("--capacity is required")?)?;
    // With `--obs PATH` each evaluation records a `bound.evaluate/<name>`
    // span, `bound.<name>.{requests,hits}` counters and a
    // `bound.<name>.hit_ratio` gauge into one export.
    let obs = obs_from_args(args)?;
    if obs.as_ref().is_some_and(|(_, path)| path.ends_with(".csv")) {
        return Err("bound records no window series: --obs takes a JSONL path, not .csv".into());
    }
    let trace = load_trace(args)?;
    if let Some((o, path)) = &obs {
        start_obs(o, path)?;
        o.set_meta("command", "bound");
        o.set_meta("trace", trace.name.as_str());
        o.set_meta("capacity", capacity);
    }
    let bounds: Vec<Box<dyn OfflineBound>> = vec![
        Box::new(lhr_bounds::InfiniteCap),
        Box::new(lhr_bounds::Belady),
        Box::new(lhr_bounds::BeladySize),
        Box::new(lhr_bounds::PfooUpper),
        Box::new(lhr_bounds::PfooLower),
        Box::<lhr::Hro>::default(),
    ];
    writeln!(out, "{:<12} {:>8} {:>10}", "bound", "hit%", "byte-hit%")?;
    for bound in bounds {
        let name = bound.name();
        let m = {
            let _span = obs
                .as_ref()
                .map(|(o, _)| o.span(&format!("bound.evaluate/{name}")));
            bound.evaluate(&trace, capacity)
        };
        if let Some((o, _)) = &obs {
            o.counter_add(&format!("bound.{name}.requests"), m.requests);
            o.counter_add(&format!("bound.{name}.hits"), m.hits);
            o.gauge_set(&format!("bound.{name}.hit_ratio"), m.object_hit_ratio());
        }
        writeln!(
            out,
            "{:<12} {:>8.2} {:>10.2}",
            name,
            m.object_hit_ratio() * 100.0,
            m.byte_hit_ratio() * 100.0
        )?;
    }
    if let Some((o, path)) = &obs {
        finish_obs(o, path)?;
    }
    Ok(())
}

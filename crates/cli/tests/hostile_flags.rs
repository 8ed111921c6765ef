//! Hostile numeric flags: a shard count or shield size that would abort
//! the process on allocation, or silently wrap, must instead be one
//! `error:` line on stderr and a nonzero exit — a thread or shard count
//! that is merely absurd (more threads than shards, more shards than
//! requests) must replay exactly like `--threads 1` — and a capacity of
//! `u64::MAX − 1` bytes must run.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lhr-cache"))
        .args(args)
        .output()
        .expect("spawn lhr-cache")
}

/// A small trace on disk, removed on drop.
struct TraceFile(PathBuf);

impl TraceFile {
    fn generate(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("lhr-hostile-{tag}-{}.csv", std::process::id()));
        let out = cli(&[
            "generate",
            "--kind",
            "zipf",
            "--objects",
            "50",
            "--requests",
            "500",
            "--seed",
            "3",
            "--out",
            path.to_str().expect("utf-8 temp path"),
        ]);
        assert!(out.status.success(), "generate failed: {out:?}");
        TraceFile(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Asserts a clean refusal: exit code 1, nothing on stdout, exactly one
/// stderr line, and that line names the flag.
fn assert_one_line_error(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no report on a refused run");
    assert_eq!(stderr.lines().count(), 1, "one line, got: {stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(flag),
        "{stderr}"
    );
}

#[test]
fn an_absurd_shard_count_is_refused_by_every_sharded_command() {
    let trace = TraceFile::generate("shards");
    // Zero used to replay on one shard without a word.
    for shards in ["100000000", "0"] {
        for command in ["simulate", "server", "fleet"] {
            let out = cli(&[
                command,
                "--policy",
                "LRU",
                "--capacity",
                "1MB",
                "--shards",
                shards,
                trace.path(),
            ]);
            assert_one_line_error(&out, &format!("--shards must be in 1..=4096, got {shards}"));
        }
    }
    // The bound itself is still served.
    let out = cli(&[
        "server",
        "--policy",
        "LRU",
        "--capacity",
        "1MB",
        "--shards",
        "4096",
        trace.path(),
    ]);
    assert!(out.status.success(), "{out:?}");
}

/// Every output path is opened before the replay: a `--report` or
/// `bound --obs` path that cannot be created is one error line with no
/// report or bound row printed, and `bound`, which records no window
/// series, refuses a `.csv` export without creating it.
#[test]
fn an_output_path_that_cannot_be_written_is_refused_before_the_run() {
    let trace = TraceFile::generate("outputs");
    let dir = std::env::temp_dir().join(format!("lhr-hostile-no-such-dir-{}", std::process::id()));
    let unwritable = |name: &str| {
        dir.join(name)
            .to_str()
            .expect("utf-8 temp path")
            .to_string()
    };
    let report = unwritable("r.json");
    for command in ["server", "fleet"] {
        let out = cli(&[
            command,
            "--policy",
            "LRU",
            "--capacity",
            "1MB",
            "--report",
            &report,
            trace.path(),
        ]);
        assert_one_line_error(&out, &report);
    }
    let obs = unwritable("o.jsonl");
    let out = cli(&["bound", "--capacity", "1MB", "--obs", &obs, trace.path()]);
    assert_one_line_error(&out, &obs);

    let csv = std::env::temp_dir().join(format!("lhr-hostile-bound-{}.csv", std::process::id()));
    let csv = csv.to_str().expect("utf-8 temp path");
    let out = cli(&["bound", "--capacity", "1MB", "--obs", csv, trace.path()]);
    assert_one_line_error(&out, "--obs");
    assert!(
        !std::path::Path::new(csv).exists(),
        "a refused export is not created"
    );
}

#[test]
fn a_hint_ttl_that_is_not_a_duration_is_refused() {
    // `nan` and `-1` both used to run: every hint lookup refused and
    // dropped, under a report that still said peer hints were on.
    let trace = TraceFile::generate("hint-ttl");
    let fleet = |ttl: &str| {
        cli(&[
            "fleet",
            "--policy",
            "LRU",
            "--capacity",
            "1MB",
            "--hint-ttl",
            ttl,
            trace.path(),
        ])
    };
    for ttl in ["nan", "-1", "-inf"] {
        assert_one_line_error(&fleet(ttl), "--hint-ttl");
    }
    // Never expire and expire at once are both durations.
    for ttl in ["inf", "0"] {
        let out = fleet(ttl);
        assert!(out.status.success(), "--hint-ttl {ttl}: {out:?}");
    }
}

#[test]
fn a_bad_flag_is_reported_before_the_trace_is_read() {
    // The trace does not exist; every shared flag is still checked first,
    // so the one line names the flag, not the file. With sound flags the
    // missing file is the error, and without a path that is.
    let missing = "lhr-hostile-no-such-trace.csv";
    let policy = ["--policy", "LRU", "--capacity", "1MB"];
    // `--slo` with no objective in it once recorded an export without one.
    let obs = [&policy[..], &["--obs", "lhr-hostile-no-such-export.jsonl"]].concat();
    let cases: [(&[&str], &str); 8] = [
        (&["--policy", "NOPE", "--capacity", "1MB"], "NOPE"),
        (&["--policy", "LRU", "--capacity", "banana"], "banana"),
        (&["--policy", "LRU"], "--capacity is required"),
        (&[&policy[..], &["--seed", "x"]].concat(), "--seed"),
        (&[&policy[..], &["--shards", "0"]].concat(), "--shards"),
        (&[&policy[..], &["--trace-sample", "1/8"]].concat(), "--obs"),
        (
            &[&obs[..], &["--slo", ","]].concat(),
            "empty objective list",
        ),
        (
            &[&obs[..], &["--slo", " "]].concat(),
            "empty objective list",
        ),
    ];
    for command in ["simulate", "server", "fleet"] {
        for (flags, named) in &cases {
            let out = cli(&[&[command], *flags, &[missing][..]].concat());
            assert_one_line_error(&out, named);
        }
        assert_one_line_error(
            &cli(&[&[command], &policy[..], &[missing]].concat()),
            missing,
        );
        assert_one_line_error(
            &cli(&[&[command][..], &["--policy", "NOPE"]].concat()),
            "missing trace path",
        );
    }
}

#[test]
fn a_commands_own_bad_flag_is_reported_before_the_trace_is_read_too() {
    // As above, for the flags only one command reads: the trace does not
    // exist, and the one line still names the flag. (A fault preset is
    // *built* from the trace's duration; its name is judged without it.)
    let missing = "lhr-hostile-no-such-trace.csv";
    let policy = ["--policy", "LRU", "--capacity", "1MB"];
    let cases: [(&str, &[&str], &str); 21] = [
        (
            "server",
            &["--faults", "bogus"],
            "unknown fault preset `bogus`",
        ),
        (
            "fleet",
            &["--faults", "bogus"],
            "unknown fault preset `bogus`",
        ),
        // Preset names match exactly, in every check and in the builders.
        (
            "server",
            &["--faults", "FLAKY"],
            "unknown fault preset `FLAKY`",
        ),
        (
            "fleet",
            &["--faults", "FLAKY"],
            "unknown fault preset `FLAKY`",
        ),
        (
            "fleet",
            &["--origin-faults", "FLAKY"],
            "unknown origin fault preset `FLAKY`",
        ),
        (
            "fleet",
            &["--origin-faults", "bogus"],
            "unknown origin fault preset `bogus`",
        ),
        // A node preset is not an origin preset.
        (
            "fleet",
            &["--origin-faults", "node-churn"],
            "unknown origin fault preset `node-churn`",
        ),
        ("fleet", &["--nodes", "0"], "--nodes must be in"),
        ("fleet", &["--vnodes", "0"], "--vnodes must be in"),
        ("fleet", &["--vnodes", "5000"], "--vnodes must be in"),
        (
            "fleet",
            &["--shield-mb", "99999999999999999"],
            "--shield-mb",
        ),
        ("fleet", &["--hint-ttl", "nan"], "--hint-ttl"),
        ("fleet", &["--hint-ttl", "-1"], "--hint-ttl"),
        ("fleet", &["--peer-hints", "x"], "--peer-hints"),
        ("simulate", &["--warmup", "x"], "--warmup"),
        ("compare", &["--capacity", "banana"], "banana"),
        ("compare", &[], "--capacity is required"),
        ("bound", &["--capacity", "banana"], "banana"),
        ("mrc", &["--points", "0"], "--points"),
        ("mrc", &["--points", "100000000"], "--points"),
        ("mrc", &["--sample", "nan"], "--sample"),
    ];
    for (command, flags, named) in cases {
        let shared: &[&str] = match command {
            "compare" | "bound" | "mrc" => &[],
            _ => &policy,
        };
        let out = cli(&[&[command], shared, flags, &[missing][..]].concat());
        assert_one_line_error(&out, named);
    }
    // With sound flags the missing file is the error.
    for (command, flags) in [
        ("server", &["--faults", "flaky"][..]),
        ("fleet", &["--faults", "flaky", "--origin-faults", "outage"]),
        ("fleet", &["--faults", "node-churn", "--hint-ttl", "inf"]),
    ] {
        let out = cli(&[&[command], &policy[..], flags, &[missing]].concat());
        assert_one_line_error(&out, missing);
    }
    for flags in [
        &["compare", "--capacity", "1MB"][..],
        &["bound", "--capacity", "1MB"],
        &["mrc", "--points", "3"],
    ] {
        assert_one_line_error(&cli(&[flags, &[missing]].concat()), missing);
    }
}

#[test]
fn obs_trace_judges_its_flags_before_the_export_and_refuses_both_picks_at_once() {
    // `--id abc` reported the export's problem instead — a missing file, or
    // one recorded without traces — and `--id 5 --slowest 3` silently ran
    // as `--id 5`.
    let trace = TraceFile::generate("obs-trace");
    let untraced =
        std::env::temp_dir().join(format!("lhr-hostile-untraced-{}.jsonl", std::process::id()));
    let untraced = untraced.to_str().expect("utf-8 temp path");
    let out = cli(&[
        "server",
        "--policy",
        "LRU",
        "--capacity",
        "1MB",
        "--obs",
        untraced,
        trace.path(),
    ]);
    assert!(out.status.success(), "{out:?}");
    for export in ["lhr-hostile-no-such-export.jsonl", untraced] {
        let out = cli(&["obs", "trace", "--id", "abc", export]);
        assert_one_line_error(&out, "--id abc");
        let out = cli(&["obs", "trace", "--id", "5", "--slowest", "3", export]);
        assert_one_line_error(&out, "--id or --slowest, not both");
    }
    let _ = std::fs::remove_file(untraced);
}

#[test]
fn absurd_thread_and_shard_counts_replay_exactly_like_one_thread() {
    let trace = TraceFile::generate("threads");
    let scratch = |tag: &str| {
        let path =
            std::env::temp_dir().join(format!("lhr-hostile-{tag}-{}.out", std::process::id()));
        path.to_str().expect("utf-8 temp path").to_string()
    };
    let (report, obs) = (scratch("report"), scratch("obs"));
    for command in ["simulate", "server", "fleet"] {
        // 1000 shards for the trace's 500 requests: most shards stay idle.
        for shards in ["3", "1000"] {
            // The deterministic obs export, plus the stable report where
            // the command writes one (`simulate` has no `--report`).
            let stable = |threads: &str| {
                let mut args = vec![
                    command,
                    "--policy",
                    "LRU",
                    "--capacity",
                    "1MB",
                    "--shards",
                    shards,
                    "--threads",
                    threads,
                    "--obs",
                    &obs,
                    "--obs-window",
                    "100r",
                    "--obs-deterministic",
                    "true",
                ];
                if command != "simulate" {
                    args.extend(["--report", &report]);
                }
                args.push(trace.path());
                let out = cli(&args);
                assert!(
                    out.status.success(),
                    "{command} --shards {shards} --threads {threads}: {out:?}"
                );
                let mut stable = std::fs::read_to_string(&obs).expect("obs export written");
                if command != "simulate" {
                    stable += &std::fs::read_to_string(&report).expect("report written");
                }
                stable
            };
            let baseline = stable("1");
            assert!(baseline.contains("\"record\":\"window\""), "{baseline}");
            for threads in ["0", "100000"] {
                assert_eq!(
                    stable(threads),
                    baseline,
                    "{command} --shards {shards} --threads {threads}"
                );
            }
        }
    }
    for path in [report, obs] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_shield_size_that_overflows_bytes_is_refused() {
    let trace = TraceFile::generate("shield");
    let out = cli(&[
        "fleet",
        "--policy",
        "LRU",
        "--capacity",
        "1MB",
        "--shield-mb",
        "99999999999999999",
        trace.path(),
    ]);
    assert_one_line_error(&out, "--shield-mb");
}

#[test]
fn generate_refuses_a_population_or_length_it_cannot_hold_and_a_meaningless_alpha() {
    let out_path = std::env::temp_dir().join(format!("lhr-hostile-gen-{}.csv", std::process::id()));
    let out_path = out_path.to_str().expect("utf-8 temp path");
    // Past the bound the first two panicked (`capacity overflow`) or aborted
    // in the allocator; syn-one / syn-two silently generated over 100 000
    // objects whatever the flag said.
    for (kind, flag, value) in [
        ("zipf", "--objects", "0"),
        ("syn-one", "--objects", "0"),
        ("zipf", "--objects", "18446744073709551615"),
        ("zipf", "--objects", "4294967296"),
        ("zipf", "--objects", "10000001"),
        ("syn-one", "--objects", "100001"),
        ("syn-two", "--objects", "100001"),
        ("zipf", "--requests", "1000000000000"),
        ("syn-two", "--requests", "100000001"),
    ] {
        let out = cli(&["generate", "--kind", kind, flag, value, "--out", out_path]);
        assert_one_line_error(&out, flag);
    }
    for alpha in ["nan", "inf", "-1"] {
        let out = cli(&[
            "generate", "--kind", "zipf", "--alpha", alpha, "--out", out_path,
        ]);
        assert_one_line_error(&out, "--alpha");
    }
    assert!(
        !std::path::Path::new(out_path).exists(),
        "a refused run writes nothing"
    );
}

#[test]
fn generate_refuses_the_shape_flags_its_kind_does_not_read() {
    // `--kind wiki --objects 1 --requests 1` used to exit 0 and write the
    // fixed model's 40 000 requests.
    let out_path =
        std::env::temp_dir().join(format!("lhr-hostile-kind-{}.csv", std::process::id()));
    let out_path = out_path.to_str().expect("utf-8 temp path");
    let shape = [("--objects", "1"), ("--requests", "1"), ("--alpha", "0.5")];
    for kind in ["cdn-a", "cdn-b", "cdn-c", "wiki"] {
        for (flag, value) in shape {
            let out = cli(&["generate", "--kind", kind, flag, value, "--out", out_path]);
            assert_one_line_error(
                &out,
                &format!("unknown flag {flag} for generate --kind {kind}"),
            );
        }
    }
    let out = cli(&[
        "generate", "--kind", "syn-two", "--alpha", "0.5", "--out", out_path,
    ]);
    assert_one_line_error(&out, "unknown flag --alpha for generate --kind syn-two");
    assert!(
        !std::path::Path::new(out_path).exists(),
        "a refused run writes nothing"
    );
    // What each kind does read is still accepted.
    for (kind, flags) in [
        ("syn-two", &["--objects", "10", "--requests", "20"][..]),
        (
            "syn-one",
            &["--objects", "10", "--requests", "20", "--alpha", "0.5"],
        ),
    ] {
        let base = ["generate", "--kind", kind, "--seed", "3", "--out", out_path];
        let out = cli(&[&base[..], flags].concat());
        assert!(out.status.success(), "{kind}: {out:?}");
    }
    let _ = std::fs::remove_file(out_path);
}

#[test]
fn generate_syn_traces_shorter_than_their_five_states_terminate() {
    // `requests / 5` requests per popularity state used to be zero here,
    // and a chain that never advances never finishes.
    let path = std::env::temp_dir().join(format!("lhr-hostile-syn-{}.csv", std::process::id()));
    for kind in ["syn-one", "syn-two"] {
        for requests in ["0", "3"] {
            let out = cli(&[
                "generate",
                "--kind",
                kind,
                "--objects",
                "10",
                "--requests",
                requests,
                "--out",
                path.to_str().expect("utf-8 temp path"),
            ]);
            assert!(
                out.status.success(),
                "{kind} --requests {requests}: {out:?}"
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.starts_with(&format!("wrote {requests} requests")),
                "{stdout}"
            );
        }
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn mrc_refuses_a_sample_rate_that_is_not_positive_and_a_curve_of_no_points() {
    let trace = TraceFile::generate("mrc");
    for sample in ["0", "-1", "nan"] {
        let out = cli(&["mrc", "--sample", sample, trace.path()]);
        assert_one_line_error(&out, "--sample");
    }
    // Used to print the table header alone and exit 0; a hundred million
    // points used not to return (a capacity list and a loop that long).
    for points in ["0", "10001", "100000000"] {
        let out = cli(&["mrc", "--points", points, trace.path()]);
        assert_one_line_error(&out, "--points must be in 1..=10000");
    }
}

#[test]
fn a_trace_sample_of_one_in_zero_is_refused_like_zero_in_one() {
    // `1/0` used to mean "off" without saying so; `off` is the spelling.
    // The rest are regression rows: one in N, with N a positive u64.
    let trace = TraceFile::generate("trace-sample");
    let obs = std::env::temp_dir().join(format!("lhr-hostile-ts-{}.jsonl", std::process::id()));
    let obs = obs.to_str().expect("utf-8 temp path");
    for sample in ["1/0", "0/1", "2/4", "1/-3", "1/18446744073709551616"] {
        let out = cli(&[
            "server",
            "--policy",
            "LRU",
            "--capacity",
            "1MB",
            "--obs",
            obs,
            "--trace-sample",
            sample,
            trace.path(),
        ]);
        assert_one_line_error(&out, sample);
    }
    assert!(!std::path::Path::new(obs).exists(), "nothing recorded");
    let out = cli(&[
        "server",
        "--policy",
        "LRU",
        "--capacity",
        "1MB",
        "--obs",
        obs,
        "--trace-sample",
        "off",
        trace.path(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let _ = std::fs::remove_file(obs);
}

#[test]
fn a_bad_obs_window_or_objective_is_one_error_line() {
    // Regression rows: a window that is not a positive request count or a
    // finite positive duration, and an objective that is not `avail:PCT`,
    // `hitratio:PCT` or `p99:MS` with a finite value in range.
    let trace = TraceFile::generate("obs-specs");
    let obs = std::env::temp_dir().join(format!("lhr-hostile-specs-{}.jsonl", std::process::id()));
    let obs = obs.to_str().expect("utf-8 temp path");
    let simulate = |flag: &str, value: &str| {
        cli(&[
            "simulate",
            "--policy",
            "LRU",
            "--capacity",
            "1MB",
            "--obs",
            obs,
            flag,
            value,
            trace.path(),
        ])
    };
    for window in [
        "0",
        "0r",
        "-5s",
        "nan s",
        "1e400s",
        "18446744073709551616",
        "5x",
    ] {
        assert_one_line_error(&simulate("--obs-window", window), "--obs-window");
    }
    let objectives = [
        "avail:",
        "avail:abc",
        "avail:101",
        "avail:nan",
        "hitratio:150",
        "p99:-5",
        "p99:inf",
        "bogus:5",
        ":",
        "avail:99.9:3",
    ];
    for objective in objectives {
        let named = format!("bad objective `{objective}`");
        assert_one_line_error(&simulate("--slo", objective), &named);
    }
    assert!(!std::path::Path::new(obs).exists(), "nothing recorded");
    // `obs slo --objective` shares the parser; it reads the export first.
    let out = cli(&[
        "server",
        "--policy",
        "LRU",
        "--capacity",
        "1MB",
        "--obs",
        obs,
        trace.path(),
    ]);
    assert!(out.status.success(), "{out:?}");
    for objective in objectives {
        let out = cli(&["obs", "slo", obs, "--objective", objective]);
        assert_one_line_error(&out, &format!("bad objective `{objective}`"));
    }
    let _ = std::fs::remove_file(obs);
}

#[test]
fn empty_and_one_request_traces_run_everywhere_except_mrc_which_refuses_them() {
    // `mrc` used to panic (exit 101) in `CheModel::from_trace`'s "need at
    // least two requests" assertion; the other commands have nothing to
    // estimate and report on whatever they are given.
    for records in [0u64, 1] {
        let path = std::env::temp_dir().join(format!(
            "lhr-hostile-{records}req-{}.bin",
            std::process::id()
        ));
        let mut bytes = b"LHRTRC01".to_vec();
        bytes.extend_from_slice(&records.to_le_bytes());
        for _ in 0..records {
            // One record: timestamp (µs), object id, size.
            for field in [5_000_000u64, 7, 1_000] {
                bytes.extend_from_slice(&field.to_le_bytes());
            }
        }
        std::fs::write(&path, bytes).expect("write temp trace");
        let file = TraceFile(path);
        let policy = ["--policy", "LRU", "--capacity", "1MB"];
        let runs: [(&str, &[&str]); 6] = [
            ("stats", &[]),
            ("simulate", &policy),
            ("compare", &["--capacity", "1MB"]),
            ("bound", &["--capacity", "1MB"]),
            ("server", &policy),
            ("fleet", &policy),
        ];
        for (command, flags) in runs {
            let out = cli(&[&[command], flags, &[file.path()][..]].concat());
            assert!(
                out.status.success(),
                "{command}, {records} records: {out:?}"
            );
        }
        for flags in [&[][..], &["--sample", "0.5"], &["--points", "3"]] {
            let out = cli(&[&["mrc"], flags, &[file.path()][..]].concat());
            assert_one_line_error(&out, "at least two requests");
            assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
        }
        // A bad flag is judged before the trace is read, so it wins.
        let out = cli(&["mrc", "--points", "0", file.path()]);
        assert_one_line_error(&out, "--points");
    }
}

#[test]
fn a_one_request_trace_writes_the_same_reports_through_every_sharded_replay() {
    // The sharded replays consume the trace they load: a single request
    // leaves one shard of one (or fifteen of sixteen) with nothing to step,
    // and the report must read as it did when the trace was kept whole.
    // The directory keeps the file stem, which the reports name, fixed.
    let dir = std::env::temp_dir().join(format!("lhr-hostile-one-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut bytes = b"LHRTRC01".to_vec();
    bytes.extend_from_slice(&1u64.to_le_bytes());
    for field in [5_000_000u64, 7, 1_000] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    let file = TraceFile(dir.join("one.bin"));
    std::fs::write(&file.0, bytes).expect("write temp trace");
    let report = dir.join("report.json");
    let report = report.to_str().expect("utf-8 temp path");
    let engine = |shards: u64, per_shard: &str| {
        format!(
            r#"{{"report":{{"name":"engine(LRU)x{shards}","trace":"one","content_hit_pct":0,"throughput_gbps":2,"peak_cpu_pct":0,"peak_mem_gb":0.000000048,"p90_latency_ms":70.005,"p99_latency_ms":70.005,"mean_latency_ms":70.005,"wan_gbps":7999.999999999999,"availability_pct":100,"errors_served":0,"stale_served":0,"retries":0,"coalesced_fetches":0,"breaker_opens":0,"breaker_closes":0,"degraded_p90_latency_ms":0,"degraded_p99_latency_ms":0,"replay_wall_secs":0}},"n_shards":{shards},"threads":0,"requests_per_sec":0,"per_shard_requests":[{per_shard}],"shard_imbalance":{shards},"suggested_shards":{}}}"#,
            if shards == 1 { 1 } else { 8 * shards }
        )
    };
    let fleet = r#"{"name":"fleet(LRU)x4","trace":"one","n_nodes":4,"vnodes":64,"n_shards":8,"threads":0,"requests_per_sec":0,"requests":1,"edge_hit_pct":0,"byte_hit_pct":0,"shield_hit_pct":0,"peer_hits":0,"origin_offload_pct":0,"availability_pct":100,"errors_served":0,"unrouted":0,"failovers":0,"stale_served":0,"retries":0,"coalesced_fetches":0,"breaker_opens":0,"breaker_closes":0,"mean_latency_ms":80.005,"p90_latency_ms":80.005,"p99_latency_ms":80.005,"wan_gbps":7999.999999999999,"peak_mem_gb":0.000000096,"per_node_requests":[0,0,1,0],"per_node_hit_pct":[0,0,0,0],"per_node_errors":[0,0,0,0],"node_imbalance":4,"replay_wall_secs":0}"#;
    let policy = ["--policy", "LRU", "--capacity", "1MB"];
    let runs = [
        ("server", "1", engine(1, "1")),
        (
            "server",
            "16",
            engine(16, "0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0"),
        ),
        ("fleet", "8", fleet.to_string()),
    ];
    for (command, shards, expect) in runs {
        let _ = std::fs::remove_file(report);
        let out = cli(&[
            &[command],
            &policy[..],
            &["--shards", shards, "--report", report, file.path()],
        ]
        .concat());
        assert!(out.status.success(), "{command} --shards {shards}: {out:?}");
        let written = std::fs::read_to_string(report).expect("report written");
        assert_eq!(written, expect, "{command} --shards {shards}");
    }
    let out = cli(&[&["simulate"], &policy[..], &["--shards", "16", file.path()]].concat());
    assert!(out.status.success(), "simulate --shards 16: {out:?}");
    let line = String::from_utf8_lossy(&out.stdout);
    assert!(
        line.starts_with(
            "sharded(LRU)x16 @ 0.00 GB on one: hit 0.00%  byte-hit 0.00%  \
             WAN 0.000 Gbps  evictions 0  wall "
        ),
        "{line}"
    );
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_refuses_a_vnode_count_of_zero_or_beyond_the_bound() {
    let trace = TraceFile::generate("vnodes");
    for vnodes in ["0", "100000000"] {
        let out = cli(&[
            "fleet",
            "--policy",
            "LRU",
            "--capacity",
            "1MB",
            "--vnodes",
            vnodes,
            trace.path(),
        ]);
        assert_one_line_error(&out, "--vnodes");
    }
    // The bound itself is still served.
    let out = cli(&[
        "fleet",
        "--policy",
        "LRU",
        "--capacity",
        "1MB",
        "--vnodes",
        "4096",
        trace.path(),
    ]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn an_unknown_policy_is_refused_with_the_whole_roster_as_the_hint() {
    let trace = TraceFile::generate("policy");
    for command in ["simulate", "server", "fleet"] {
        let out = cli(&[
            command,
            "--policy",
            "NOPE",
            "--capacity",
            "1MB",
            trace.path(),
        ]);
        assert_one_line_error(&out, "NOPE");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("RL-Cache") && stderr.contains("PopCache"),
            "{stderr}"
        );
    }
}

#[test]
fn a_binary_header_that_overstates_its_count_is_refused_without_allocating_for_it() {
    // 2^60 - 1 records overflowed `reserve_exact` (exit 101); 2^44 made the
    // allocator abort the process (exit 134). Neither file has a payload.
    for count in [(1u64 << 60) - 1, 1 << 44] {
        let path =
            std::env::temp_dir().join(format!("lhr-hostile-{count}-{}.bin", std::process::id()));
        let mut bytes = b"LHRTRC01".to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        std::fs::write(&path, bytes).expect("write temp trace");
        let file = TraceFile(path);
        let out = cli(&["stats", file.path()]);
        assert_one_line_error(&out, &format!("header declares {count} records"));
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }
}

#[test]
fn a_misspelt_or_inapplicable_flag_is_refused_not_silently_dropped() {
    // Each of these used to exit 0: `--warmpu` reported the no-warmup hit
    // ratio, `compare` ran single-threaded whatever `--threads` said, and
    // `server` / `fleet` never read `--warmup`.
    let trace = TraceFile::generate("unknown-flag");
    let policy = ["--policy", "LRU", "--capacity", "1MB"];
    let cases: [(&str, &[&str], &[&str], &str); 8] = [
        ("simulate", &policy, &["--warmpu", "5000"], "--warmpu"),
        ("simulate", &policy, &["--report", "r.json"], "--report"),
        (
            "compare",
            &["--capacity", "1MB"],
            &["--threads", "8"],
            "--threads",
        ),
        (
            "compare",
            &["--capacity", "1MB"],
            &["--threads", "8", "--shards", "4"],
            // Several: the alphabetically first is the one named.
            "--shards",
        ),
        ("server", &policy, &["--warmup", "10"], "--warmup"),
        ("fleet", &policy, &["--warmup", "10"], "--warmup"),
        ("stats", &[], &["--capacity", "1MB"], "--capacity"),
        (
            "bound",
            &["--capacity", "1MB"],
            &["--policy", "LRU"],
            "--policy",
        ),
    ];
    for (command, flags, hostile, named) in cases {
        let out = cli(&[&[command], flags, hostile, &[trace.path()][..]].concat());
        assert_one_line_error(&out, &format!("unknown flag {named} for {command}"));
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }
    let out = cli(&[
        "generate", "--kind", "zipf", "--out", "x.csv", "--policy", "LRU",
    ]);
    assert_one_line_error(&out, "unknown flag --policy for generate");
    assert!(!std::path::Path::new("x.csv").exists(), "nothing written");
}

#[test]
fn every_documented_flag_of_the_replay_commands_is_still_accepted() {
    // The flag lists are allow-lists: a flag a command reads but does not
    // list would turn every script that passes it into an error. These are
    // the benchmark's command lines (`benchmark/src/workload.rs::cli_args`)
    // plus the flags only `usage()` and verify.sh exercise.
    let trace = TraceFile::generate("known-flags");
    let scratch = |tag: &str| {
        let path =
            std::env::temp_dir().join(format!("lhr-hostile-known-{tag}-{}", std::process::id()));
        path.to_str().expect("utf-8 temp path").to_string()
    };
    let (report, obs) = (scratch("report.json"), scratch("obs.jsonl"));
    let policy = ["--policy", "LRU", "--capacity", "1000000", "--seed", "7"];
    let sharding = ["--threads", "2", "--shards", "4"];
    let recording = [
        "--obs",
        &obs,
        "--obs-window",
        "100r",
        "--obs-deterministic",
        "true",
        "--trace-sample",
        "1/100",
        "--slo",
        "avail:99.9,hitratio:50",
    ];
    let lossy = ["--lossy", "true"];
    let reporting = ["--report", report.as_str()];
    // `fleet` records last: the `obs` actions below read its export.
    let runs: [(&str, Vec<&[&str]>); 7] = [
        (
            "bound",
            vec![&["--capacity", "1MB"], &lossy, &recording[..2]],
        ),
        (
            "simulate",
            vec![&policy, &sharding, &recording, &lossy, &["--warmup", "100"]],
        ),
        (
            "server",
            vec![
                &policy,
                &sharding,
                &recording,
                &lossy,
                &["--faults", "flaky"],
                &reporting,
            ],
        ),
        (
            "fleet",
            vec![
                &policy,
                &sharding,
                &recording,
                &lossy,
                &["--nodes", "4", "--vnodes", "16", "--shield-mb", "1"],
                &["--faults", "node-churn", "--origin-faults", "flaky"],
                &["--hint-ttl", "30", "--peer-hints", "false"],
                &reporting,
            ],
        ),
        (
            "compare",
            vec![
                &["--capacity", "1MB", "--seed", "7", "--warmup", "100"],
                &lossy,
            ],
        ),
        ("mrc", vec![&["--points", "4", "--sample", "0.5"], &lossy]),
        ("stats", vec![&lossy]),
    ];
    for (command, flag_sets) in runs {
        let mut args = vec![command];
        args.extend(flag_sets.into_iter().flatten());
        args.push(trace.path());
        let out = cli(&args);
        assert!(out.status.success(), "{command}: {out:?}");
    }
    for action in [&["trace", "--slowest", "2"][..], &["trace", "--id", "0"]] {
        // Reads its flags whether or not the export holds that trace.
        let out = cli(&[&["obs"], action, &[obs.as_str()][..]].concat());
        assert!(
            !String::from_utf8_lossy(&out.stderr).contains("unknown flag"),
            "{out:?}"
        );
    }
    let out = cli(&["obs", "slo", "--objective", "hitratio:1", &obs]);
    assert!(out.status.success(), "{out:?}");
    for path in [report, obs] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_capacity_that_does_not_fit_a_byte_count_is_refused_not_saturated() {
    // Both used to run as an 18446744073.71 GB cache.
    let trace = TraceFile::generate("capacity");
    for capacity in ["inf", "1e30TB"] {
        let out = cli(&[
            "simulate",
            "--policy",
            "LRU",
            "--capacity",
            capacity,
            trace.path(),
        ]);
        assert_one_line_error(&out, capacity);
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }
}

#[test]
fn a_capacity_under_one_byte_is_refused_by_every_command_that_sizes_a_cache() {
    // It truncated to 0 bytes: LHR's constructor panicked (exit 101) under
    // `simulate` and `compare`, and LRU ran a 0-byte cache under `server`
    // and `fleet` without a word.
    let trace = TraceFile::generate("under-a-byte");
    let rows: [(&str, &[&str], &str); 5] = [
        ("simulate", &["--policy", "LHR"], "0.5"),
        ("compare", &[], "0.4"),
        ("server", &["--policy", "LRU"], "0.5"),
        ("fleet", &["--policy", "LRU"], "0.9"),
        ("bound", &[], "0.0001KB"),
    ];
    for (command, flags, capacity) in rows {
        let sized = ["--capacity", capacity];
        let out = cli(&[&[command], flags, &sized, &[trace.path()]].concat());
        assert_one_line_error(&out, &format!("size is under one byte: `{capacity}`"));
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }
}

#[test]
fn a_capacity_of_u64_max_minus_one_runs_every_store_without_a_panic() {
    // 50 objects of 2^59 to 2^62 bytes in a cache of u64::MAX − 1 bytes:
    // a sum of byte counts here passes u64::MAX unless it subtracts,
    // saturates or widens — LHR's window, ARC's ghost balance, W-TinyLFU's
    // protected share, SLRU's level 0, the Bélády and PFOO-L bounds. In the
    // debug profile of `cargo test` a wrap panics.
    let trace = csv_trace("near-u64-max", 2_000, |line, _| {
        let id = line % 50;
        format!("{},{id},{}", 1_000_000 + 10 * line, (id % 8 + 1) << 59)
    });
    let capacity = "18446744073709551614";
    for policy in ["LHR", "ARC", "W-TinyLFU", "SLRU"] {
        let out = cli(&[
            "simulate",
            "--policy",
            policy,
            "--capacity",
            capacity,
            trace.path(),
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{policy}: {out:?}");
        assert!(stdout.starts_with(&format!("{policy} @ ")), "{stdout}");
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }
    let out = cli(&["bound", "--capacity", capacity, trace.path()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    for bound in ["Belady ", "Belady-Size ", "PFOO-L ", "HRO "] {
        assert!(stdout.lines().any(|l| l.starts_with(bound)), "{stdout}");
    }
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
}

/// A CSV trace of `lines` lines, `ts,id,size` with 1 000 objects of fixed
/// sizes and rising timestamps, after `edit` has had its way with them.
fn csv_trace(tag: &str, lines: u64, edit: impl Fn(u64, String) -> String) -> TraceFile {
    let text: String = (1..=lines)
        .map(|line| {
            let id = line % 1_000;
            edit(
                line,
                format!("{},{id},{}", 1_000_000 + 10 * line, 1_000 + id),
            ) + "\n"
        })
        .collect();
    let path = std::env::temp_dir().join(format!("lhr-hostile-{tag}-{}.csv", std::process::id()));
    std::fs::write(&path, text).expect("write temp trace");
    TraceFile(path)
}

#[test]
fn a_backwards_timestamp_deep_in_a_large_csv_is_reported_at_its_line() {
    // ≈ 17 bytes a line, so line 31 800 starts ≈ 530 kB in: the third
    // chunk, whether the reader cuts 192 KiB or 256 KiB ones.
    let file = csv_trace("backwards", 60_000, |line, text| match line {
        31_800 => "5,800,1800".to_string(),
        _ => text,
    });
    let out = cli(&["stats", file.path()]);
    assert_one_line_error(
        &out,
        &format!("{}:31800: timestamp goes backwards", file.path()),
    );
    // Lossy, it is one skipped line.
    let out = cli(&["stats", "--lossy", "true", file.path()]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.trim_end(),
        format!("warning: {}: skipped 1 malformed line(s)", file.path())
    );
}

#[test]
fn a_malformed_line_after_a_size_change_is_the_error_reported() {
    // The reader stops at the malformed line before validation sees the
    // earlier size change; read lossily, the size change is the error.
    let file = csv_trace("size-then-malformed", 60_000, |line, text| match line {
        20_000 => "1200000,0,7".to_string(),
        45_000 => "x,y,z".to_string(),
        _ => text,
    });
    let out = cli(&["stats", file.path()]);
    assert_one_line_error(
        &out,
        &format!(
            "{}:45000: bad `timestamp`: invalid digit found in string",
            file.path()
        ),
    );
    let out = cli(&[
        "server",
        "--policy",
        "LRU",
        "--capacity",
        "1MB",
        "--lossy",
        "true",
        file.path(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(
        stderr.lines().last(),
        Some(
            format!(
                "error: {}: invalid trace: object 0 changed size at request 19999",
                file.path()
            )
            .as_str()
        )
    );
}

#[test]
fn a_command_whose_stdout_is_closed_stops_quietly_and_a_failed_write_is_one_error_line() {
    let file = TraceFile::generate("closed-stdout");
    let commands: [&[&str]; 2] = [
        &["stats", file.path()],
        &[
            "server",
            "--policy",
            "LRU",
            "--capacity",
            "1MB",
            file.path(),
        ],
    ];
    for args in commands {
        // The reader goes away before the command writes its first line
        // (`lhr-cache stats t.bin | head -0`).
        let mut child = Command::new(env!("CARGO_BIN_EXE_lhr-cache"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lhr-cache");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for lhr-cache");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");

        // Any other failed write is a real error: a full device.
        let Ok(full) = std::fs::File::create("/dev/full") else {
            continue;
        };
        let out = Command::new(env!("CARGO_BIN_EXE_lhr-cache"))
            .args(args)
            .stdout(full)
            .output()
            .expect("spawn lhr-cache");
        assert_one_line_error(&out, "error: writing to stdout: No space left on device");
    }
}

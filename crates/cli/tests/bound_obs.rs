//! `bound --obs`: each bound's evaluation is recorded as a
//! `bound.evaluate/<name>` span, `bound.<name>.{requests,hits}` counters
//! and a `bound.<name>.hit_ratio` gauge; recording changes no printed
//! number, and a deterministic export repeats byte for byte.

use lhr_obs::Export;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lhr-cache"))
        .args(args)
        .output()
        .expect("spawn lhr-cache")
}

fn temp(tag: &str) -> String {
    let path = std::env::temp_dir().join(format!("lhr-bound-obs-{tag}-{}", std::process::id()));
    path.to_str().expect("utf-8 temp path").to_string()
}

#[test]
fn bound_obs_records_each_evaluation_and_repeats_deterministically() {
    let trace = temp("trace.csv");
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
        &trace,
    ]);
    assert!(out.status.success(), "generate: {out:?}");
    let bound = |obs: Option<&str>| {
        let mut args = vec!["bound", "--capacity", "20KB"];
        if let Some(path) = obs {
            args.extend(["--obs", path, "--obs-deterministic", "true"]);
        }
        args.push(&trace);
        let out = cli(&args);
        assert!(out.status.success(), "bound {args:?}: {out:?}");
        out.stdout
    };
    let (a, b) = (temp("a.jsonl"), temp("b.jsonl"));
    let plain = bound(None);
    assert_eq!(bound(Some(&a)), plain, "recording moved a printed number");
    bound(Some(&b));
    let export = std::fs::read_to_string(&a).expect("export written");
    assert_eq!(
        export,
        std::fs::read_to_string(&b).expect("export written"),
        "two deterministic recordings differ"
    );

    let parsed = Export::read(&a).expect("export parses");
    let counter = |key: String| parsed.counters.iter().find(|(k, _)| *k == key).map(|p| p.1);
    let gauge = |key: String| parsed.gauges.iter().find(|(k, _)| *k == key).map(|p| p.1);
    let plain = String::from_utf8(plain).expect("utf-8 stdout");
    // Below the header, one row per bound, its name first.
    let names: Vec<&str> = plain
        .lines()
        .skip(1)
        .flat_map(str::split_whitespace)
        .step_by(3)
        .collect();
    assert_eq!(names.len(), 6, "{plain}");
    for name in names {
        let span = parsed
            .spans
            .iter()
            .find(|s| s.path == format!("bound.evaluate/{name}"));
        assert_eq!(
            span.map(|s| (s.count, s.total_secs)),
            Some((1, 0.0)),
            "{name}: {export}"
        );
        let requests = counter(format!("bound.{name}.requests"));
        assert_eq!(requests, Some(500), "{name}: {export}");
        let hits = counter(format!("bound.{name}.hits")).expect("a hits counter");
        let ratio = gauge(format!("bound.{name}.hit_ratio"));
        assert_eq!(ratio, Some(hits as f64 / 500.0), "{name}: {export}");
    }
    for path in [trace, a, b] {
        let _ = std::fs::remove_file(path);
    }
}

//! Hostile numeric flags: a shard count or shield size that would abort
//! the process on allocation, or silently wrap, must instead be one
//! `error:` line on stderr and a nonzero exit.

use std::path::PathBuf;
use std::process::{Command, Output};

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
    for command in ["simulate", "server", "fleet"] {
        let out = cli(&[
            command,
            "--policy",
            "LRU",
            "--capacity",
            "1MB",
            "--shards",
            "100000000",
            trace.path(),
        ]);
        assert_one_line_error(&out, "--shards");
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

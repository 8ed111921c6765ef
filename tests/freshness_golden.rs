//! Golden freshness behaviour of every roster policy behind `CdnServer`,
//! recorded on commit `f0d4c2b` — while the server still kept admission
//! times in its own `admitted_at` map, before that table was deleted and
//! the stamp moved into each policy's cache slot — so that "every policy
//! carries the stamp the server used to keep" is an executable claim. The
//! serving goldens (`tests/serving_golden.rs`) cover LRU and LHR only.
//!
//! `tests/golden/freshness.tsv` holds the parent's bytes, unedited, written
//! by the ignored `record` test below run against the untouched parent
//! tree:
//!
//! ```sh
//! cargo test --release --test freshness_golden -- --ignored record
//! ```
//!
//! One re-recording since, by `record` and `record_lazy` on the tree that
//! removed the report's `series` member: only the `stable_report_fnv1a`
//! column moved (it hashes the report's bytes); every other column is the
//! parent's.
//!
//! The serving goldens' trace and server settings (2 s freshness, 0.5 s
//! stale-while-revalidate, one retry, a one-failure breaker; a fault-free
//! and a `flaky` origin) are replayed through a single deterministic
//! `CdnServer` per roster policy. Each line records the measured hits,
//! stale serves, error responses, coalesced fetches, retries, WAN bytes,
//! the bit pattern of the P99 latency and an FNV-1a hash of the stable
//! report with `peak_mem_gb` masked (metadata accounting, not behaviour).
//!
//! The parent's LHR variants re-scored every hit: `tests/common/mod.rs` has
//! the roster that holds the parent's lines (`parent_roster`) and the
//! `*/lazy` lines that follow them (`lazy_roster`).

mod common;

use common::{lazy_roster, mask_peak_mem, parent_roster, Roster};
use lhr_repro::proto::presets::{self, PolicyParams};
use lhr_repro::proto::{CdnServer, ServerConfig};
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Trace;
use std::fmt::Write as _;
use std::path::PathBuf;

const CAPACITY: u64 = 1 << 20;
const WARMUP: usize = 1_000;
const SEED: u64 = 42;

/// `tests/serving_golden.rs`'s trace.
fn trace() -> Trace {
    IrmConfig::new(1_000, 6_000)
        .zipf_alpha(0.9)
        .requests_per_sec(1_000.0)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 100_000,
        })
        .seed(31)
        .generate()
}

/// `tests/serving_golden.rs`'s `server_config`, deterministic.
fn server_config(trace: &Trace, origin: &str) -> ServerConfig {
    let mut config =
        presets::fault_preset(origin, 7, trace.duration().as_secs_f64()).expect("known preset");
    config.warmup_requests = WARMUP;
    config.freshness_secs = Some(2.0);
    config.resilience.stale_while_revalidate_secs = 0.5;
    config.resilience.retry.max_retries = 1;
    config.resilience.breaker.failure_threshold = 1;
    config.resilience.breaker.open_secs = 0.1;
    config.deterministic = true;
    config
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const HEADER: &str = "policy\torigin\thits\tstale_served\terrors_served\tcoalesced_fetches\tretries\twan_bytes\tp99_latency_bits\tstable_report_fnv1a\n";

/// One line per origin and policy of `roster`.
fn render(roster: fn(&PolicyParams<'_>) -> Roster) -> String {
    let trace = trace();
    let measured = (trace.len() - WARMUP) as f64;
    let params = PolicyParams::for_trace(CAPACITY, SEED, &trace);
    let mut out = String::new();
    for origin in ["none", "flaky"] {
        for (name, policy) in roster(&params) {
            let mut server = CdnServer::new(policy, server_config(&trace, origin));
            let report = server.replay(&trace);
            // The report carries ratios; both counts are whole numbers
            // well inside what the round trip through `f64` preserves.
            let hits = (report.content_hit_pct / 100.0 * measured).round() as u64;
            let wan_bytes =
                (report.wan_gbps * trace.duration().as_secs_f64() * 1e9 / 8.0).round() as u64;
            writeln!(
                out,
                "{name}\t{origin}\t{hits}\t{}\t{}\t{}\t{}\t{wan_bytes}\t{:016x}\t{:016x}",
                report.stale_served,
                report.errors_served,
                report.coalesced_fetches,
                report.retries,
                report.p99_latency_ms.to_bits(),
                fnv1a(&mask_peak_mem(&report.stable_json()).0),
            )
            .expect("string");
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/freshness.tsv")
}

/// Writes the golden file. Run against the parent tree only (see the
/// module docs); the committed bytes are never edited by hand.
#[test]
#[ignore = "records tests/golden/freshness.tsv — run against the parent commit"]
fn record() {
    std::fs::write(golden_path(), HEADER.to_string() + &render(parent_roster))
        .expect("write golden");
}

/// Appends the lazy lines to the golden file (see the module docs).
#[test]
#[ignore = "appends the LHR variants' lazy lines to tests/golden/freshness.tsv"]
fn record_lazy() {
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(golden_path())
        .expect("golden file");
    file.write_all(render(lazy_roster).as_bytes())
        .expect("append golden");
}

#[test]
fn every_roster_policy_serves_the_parent_freshness_decisions() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file");
    let got = HEADER.to_string() + &render(parent_roster) + &render(lazy_roster);
    assert_eq!(
        got.lines().count(),
        1 + 2 * (23 + 3),
        "the parent's 23 policies and 3 lazy LHR variants, 2 origins"
    );
    for (got, want) in got.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(got, golden);
}

//! Golden cache decisions of every roster policy, recorded on commit
//! `3b85f6d` — before the policies' hand-written open-addressing table was
//! deleted and eleven of them moved onto the two shared cache stores of
//! the day (a single-list LRU store, since folded into `SegmentedStore`,
//! and `SampleStore`) — so that "the stores changed no decision" is an
//! executable claim.
//!
//! `tests/golden/policies.tsv` holds the parent's bytes, unedited, written
//! by the ignored `record` test below run against the untouched parent
//! tree (which had no roster a test could reach, so that run carried the
//! roster's 23 constructors, at `PolicyParams::for_trace`'s parameters, as
//! a literal list):
//!
//! ```sh
//! cargo test --release --test policy_golden -- --ignored record
//! ```
//!
//! One fixed-seed trace — 20 000 requests over 2 000 mixed-size objects,
//! the Zipf ranks reversed half way through — is replayed through every
//! policy at two capacities, twice: through bare `handle`, and through the
//! serve-path split (`hit_check`, then `handle` only when it returned
//! `None`). Each line records hits, bytes hit, admissions, bypasses,
//! evictions, the final `used_bytes`, the peak `metadata_overhead_bytes`
//! and an FNV-1a hash of the whole outcome sequence.
//!
//! The parent's LHR variants re-scored every hit: `tests/common/mod.rs` has
//! the roster that holds the parent's lines (`parent_roster`) and the
//! `*/lazy` lines that follow them (`lazy_roster`).

mod common;

use common::{lazy_roster, parent_roster, Roster};
use lhr_repro::proto::presets::PolicyParams;
use lhr_repro::sim::{CachePolicy, Outcome};
use lhr_repro::trace::synth::markov::{MarkovConfig, PopularityState};
use lhr_repro::trace::synth::SizeModel;
use lhr_repro::trace::Trace;
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 42;
/// ≈5 % and ≈29 % of the trace's 10.4 MB of unique bytes; the largest
/// objects (1 MB) do not fit the smaller cache at all.
const CAPACITIES: [u64; 2] = [500_000, 3_000_000];

fn trace() -> Trace {
    let state = |reversed| PopularityState {
        alpha: 0.9,
        reversed,
    };
    MarkovConfig {
        name: "policy-golden".into(),
        n_objects: 2_000,
        n_requests: 20_000,
        requests_per_state: 10_000,
        state_sequence: vec![0, 1],
        states: vec![state(false), state(true)],
        requests_per_sec: 50.0,
        size_model: SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 1_000_000,
        },
        seed: 17,
    }
    .generate()
}

/// One golden line: the policy replayed over `trace`, through `handle`
/// alone or through the serve-path split.
fn replay(name: &str, policy: &mut dyn CachePolicy, trace: &Trace, split: bool) -> String {
    let (mut hits, mut bytes_hit, mut admitted, mut bypassed) = (0u64, 0u64, 0u64, 0u64);
    let mut peak_metadata = 0u64;
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    for req in trace.iter() {
        let outcome = match split.then(|| policy.hit_check(req)).flatten() {
            Some(outcome) => outcome,
            None => policy.handle(req),
        };
        match outcome {
            Outcome::Hit => {
                hits += 1;
                bytes_hit += req.size;
            }
            Outcome::MissAdmitted => admitted += 1,
            Outcome::MissBypassed => bypassed += 1,
        }
        fnv = (fnv ^ outcome as u64).wrapping_mul(0x0000_0100_0000_01b3);
        peak_metadata = peak_metadata.max(policy.metadata_overhead_bytes());
    }
    format!(
        "{name}\t{}\t{}\t{hits}\t{bytes_hit}\t{admitted}\t{bypassed}\t{}\t{}\t{peak_metadata}\t{fnv:016x}\n",
        policy.capacity(),
        if split { "hit_check+handle" } else { "handle" },
        policy.evictions(),
        policy.used_bytes(),
    )
}

const HEADER: &str = "policy\tcapacity\tpath\thits\tbytes_hit\tadmitted\tbypassed\tevictions\tused_bytes\tpeak_metadata_bytes\toutcome_fnv1a\n";

/// One line per capacity, path and policy of `roster`.
fn render(roster: fn(&PolicyParams<'_>) -> Roster) -> String {
    let trace = trace();
    let mut out = String::new();
    for capacity in CAPACITIES {
        // Every roster policy at the CLI's parameters.
        let params = PolicyParams::for_trace(capacity, SEED, &trace);
        for split in [false, true] {
            for (name, mut policy) in roster(&params) {
                write!(out, "{}", replay(&name, policy.as_mut(), &trace, split)).expect("string");
            }
        }
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/policies.tsv")
}

/// Writes the golden file. Run against the parent tree only (see the
/// module docs); the committed bytes are never edited by hand.
#[test]
#[ignore = "records tests/golden/policies.tsv — run against the parent commit"]
fn record() {
    std::fs::write(golden_path(), HEADER.to_string() + &render(parent_roster))
        .expect("write golden");
}

/// Appends the lazy lines to the golden file (see the module docs).
#[test]
#[ignore = "appends the LHR variants' lazy lines to tests/golden/policies.tsv"]
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
fn every_roster_policy_repeats_the_parent_decisions_on_both_paths() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file");
    let got = HEADER.to_string() + &render(parent_roster) + &render(lazy_roster);
    assert_eq!(
        got.lines().count(),
        1 + 2 * 2 * (23 + 3),
        "the parent's 23 policies and 3 lazy LHR variants, 2 capacities, 2 paths"
    );
    for (got, want) in got.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(got, golden);
}

//! Shared by the golden tests: the one mask for the peak-memory field of a
//! stable report (`serving_golden`, `freshness_golden`, `lhr_golden`), and
//! — for `policy_golden` and `freshness_golden` — the roster as the
//! commits that recorded their golden files ran it, and the three LHR
//! variants as the roster builds them today.
//!
//! The parent's LHR, D-LHR and N-LHR re-scored every hit, which is
//! `LhrConfig::rescore_hits` now (roster name `E-LHR`, for LHR). The
//! parent's golden lines are therefore held by today's roster without
//! `E-LHR` and with those three built eager; the three as the roster builds
//! them today (score at admission, rows rendered only where they are read)
//! follow as `LHR/lazy`, `D-LHR/lazy` and `N-LHR/lazy` lines, which each
//! test's ignored `record_lazy` appended on the commit that introduced
//! that default.

// Each test binary uses a subset of these.
#![allow(dead_code)]

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::proto::presets::{self, PolicyParams};
use lhr_repro::sim::CachePolicy;

pub type Roster = Vec<(String, Box<dyn CachePolicy + Send>)>;

/// The preset behind an LHR variant's roster name.
fn lhr_variant(name: &str) -> Option<LhrConfig> {
    match name {
        "LHR" => Some(LhrConfig::default()),
        "D-LHR" => Some(LhrConfig::d_lhr()),
        "N-LHR" => Some(LhrConfig::n_lhr()),
        _ => None,
    }
}

/// The parent's 23-policy roster: today's without `E-LHR`, the three LHR
/// variants re-scoring hits as they did then.
pub fn parent_roster(params: &PolicyParams<'_>) -> Roster {
    presets::POLICIES
        .iter()
        .filter(|&&(name, _)| name != "E-LHR")
        .map(|&(name, build)| -> (_, Box<dyn CachePolicy + Send>) {
            let policy = match lhr_variant(name) {
                Some(preset) => {
                    let config = LhrConfig {
                        seed: params.seed,
                        rescore_hits: true,
                        ..preset
                    };
                    Box::new(LhrCache::new(params.capacity, config))
                }
                None => build(params),
            };
            (name.to_string(), policy)
        })
        .collect()
}

/// The three LHR variants as the roster builds them today, named
/// `<roster name>/lazy`.
pub fn lazy_roster(params: &PolicyParams<'_>) -> Roster {
    ["LHR", "D-LHR", "N-LHR"]
        .iter()
        .map(|name| {
            let build = presets::policy(name).expect("in the roster");
            (format!("{name}/lazy"), build(params))
        })
        .collect()
}

/// One stable `report` with the value of its `"peak_mem_gb"` masked, and
/// that value. The field reports metadata *accounting*, not behaviour: it
/// shrinks when per-object state does.
pub fn mask_peak_mem(report: &str) -> (String, f64) {
    let key = "\"peak_mem_gb\":";
    let start = report.find(key).expect("the report has peak_mem_gb") + key.len();
    let end = start + report[start..].find([',', '}']).expect("a value ends");
    let masked = format!("{}_{}", &report[..start], &report[end..]);
    (masked, report[start..end].parse().expect("a number"))
}

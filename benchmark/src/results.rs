//! Result files and `compare`.
//!
//! Every harness invocation writes one result file under `benchmark/out/`:
//! the host and commit it measured, and per workload the untraced (`e2e`)
//! and/or traced (`layers`) outcome. `compare A.json B.json` holds two such
//! files of the same seed against the bounds table.

use crate::metrics::{Better, Measured, MetricDef, Outcome, Rule, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use lhr_util::json::{Json, ToJson};
use std::fmt::Write as _;
use std::process::Command;

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// First line of a command's stdout, or "unknown" (the driver's checkout,
/// for one, is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host/commit header every result file starts with.
pub fn header(seed: u64, seconds: f64, build_s: f64) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("schema".to_string(), 1u64.to_json()),
        ("seed".to_string(), seed.to_json()),
        ("seconds".to_string(), seconds.to_json()),
        ("nproc".to_string(), (nproc as u64).to_json()),
        (
            "rustc".to_string(),
            first_line_of("rustc", &["-V"]).to_json(),
        ),
        (
            "git_head".to_string(),
            first_line_of("git", &["rev-parse", "HEAD"]).to_json(),
        ),
        ("build_s".to_string(), build_s.to_json()),
    ]
}

fn summary_json(s: &Summary) -> Json {
    obj(vec![
        ("n", (s.n as u64).to_json()),
        ("min", s.min.to_json()),
        ("median", s.median.to_json()),
        ("max", s.max.to_json()),
    ])
}

/// One outcome as it is stored under `workloads.<name>.<e2e|layers>`.
pub fn outcome_json(o: &Outcome) -> Json {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![
                ("value", m.value.to_json()),
                ("unit", m.def.unit.to_json()),
                ("samples", (m.samples as u64).to_json()),
            ];
            if let Some(spread) = m.spread {
                fields.push(("spread", spread.to_json()));
            }
            (m.def.name.to_string(), obj(fields))
        })
        .collect();
    obj(vec![
        ("correct", o.correct.to_json()),
        ("attempted", o.attempted.to_json()),
        ("failed", o.failed.to_json()),
        ("cli_wall_s", summary_json(&o.wall_s)),
        ("metrics", Json::Object(metrics)),
    ])
}

/// The line the benchmark contract asks for: `correct`, `attempted`,
/// `failed`, and every metric `BENCHMARK.json` lists for this kind of run.
pub fn contract_line(o: &Outcome) -> String {
    let listed = |d: &MetricDef| d.rule == Rule::Unjudged || d.rule.gate().is_some();
    let metrics = o
        .metrics
        .iter()
        .filter(|m| listed(m.def))
        .map(|m| {
            (
                m.def.name.to_string(),
                obj(vec![
                    ("value", m.value.to_json()),
                    ("unit", m.def.unit.to_json()),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", o.correct.to_json()),
        ("attempted", o.attempted.to_json()),
        ("failed", o.failed.to_json()),
        ("metrics", Json::Object(metrics)),
    ])
    .to_string()
}

/// Every metric by name and unit, with the sample count behind it.
pub fn print_outcome(workload: &str, kind: &str, o: &Outcome) {
    println!(
        "== {workload} ({kind}): {} CLI invocations timed, wall min/median/max {:.3}/{:.3}/{:.3} s",
        o.wall_s.n, o.wall_s.min, o.wall_s.median, o.wall_s.max
    );
    for m in &o.metrics {
        let spread = m
            .spread
            .map_or(String::new(), |s| format!(", spread {:.1}%", s * 100.0));
        println!(
            "{workload:<14} {:<34} {:>16.4} {:<11} (n={}{spread})",
            m.def.name, m.value, m.def.unit, m.samples
        );
    }
    for failure in &o.failures {
        println!("{workload:<14} FAILED CHECK: {failure}");
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Pass,
    Regress,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Regress => "REGRESS",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The share by which `b` is worse than `a` (negative when it is better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Higher => a - b,
        Better::Lower => b - a,
    };
    if a == 0.0 {
        // No base to take a share of: any worsening is total.
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// Judges metric `def` between a parent measurement `a` and a change `b`.
pub fn judge(def: &MetricDef, a: &Measured, b: &Measured) -> Verdict {
    match def.rule {
        Rule::Unjudged | Rule::Context => Verdict::Pass,
        Rule::Zero => {
            if b.value == 0.0 {
                Verdict::Pass
            } else {
                Verdict::Regress
            }
        }
        Rule::Exact { .. } => {
            if worse_by(def.better, a.value, b.value) > 0.0 {
                Verdict::Regress
            } else {
                Verdict::Pass
            }
        }
        Rule::Share(bound) => {
            let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
            if worse_by(def.better, a.value, b.value) > bound {
                Verdict::Regress
            } else if spread > bound {
                // The runs scatter more than the bound: "no worse" cannot
                // be told from "worse by less than the scatter".
                Verdict::Unresolved
            } else {
                Verdict::Pass
            }
        }
    }
}

fn bound_text(rule: Rule) -> String {
    match rule {
        Rule::Share(b) => format!("{:.1}%", b * 100.0),
        Rule::Exact { .. } => "exact".to_string(),
        Rule::Zero => "0".to_string(),
        Rule::Unjudged | Rule::Context => "-".to_string(),
    }
}

fn measured_from(def: &'static MetricDef, v: &Json) -> Option<Measured> {
    Some(Measured {
        def,
        value: v.get("value")?.as_f64()?,
        samples: v.get("samples").and_then(Json::as_f64).unwrap_or(0.0) as usize,
        spread: v.get("spread").and_then(Json::as_f64),
    })
}

/// Compares two parsed result files. Returns the table and whether every
/// judged metric passed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let seed = |v: &Json| v.get("seed").and_then(Json::as_f64);
    if seed(a).is_none() || seed(a) != seed(b) {
        return Err(format!(
            "the files measure different inputs (seeds {:?} and {:?}); simulated metrics only compare at equal seed",
            seed(a),
            seed(b)
        ));
    }
    let Some(Json::Object(workloads)) = a.get("workloads") else {
        return Err("first file has no `workloads` object".to_string());
    };
    let mut table = String::new();
    let mut all_pass = true;
    let mut compared = 0;
    for (workload, in_a) in workloads {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for (kind, defs) in [("e2e", END_TO_END), ("layers", PER_LAYER)] {
            let metrics = |v: &Json| v.get(kind).and_then(|k| k.get("metrics")).cloned();
            let (Some(ma), Some(mb)) = (metrics(in_a), metrics(in_b)) else {
                continue;
            };
            for def in defs {
                let (Some(a), Some(b)) = (
                    ma.get(def.name).and_then(|v| measured_from(def, v)),
                    mb.get(def.name).and_then(|v| measured_from(def, v)),
                ) else {
                    continue;
                };
                let verdict = judge(def, &a, &b);
                compared += 1;
                all_pass &= verdict == Verdict::Pass;
                let shown = if matches!(def.rule, Rule::Unjudged | Rule::Context) {
                    "-"
                } else {
                    verdict.as_str()
                };
                writeln!(
                    table,
                    "{workload:<14} {:<34} {:>16.4} {:>16.4} {:<11} {:>+8.2}% worse  bound {:<6} {shown}",
                    def.name,
                    a.value,
                    b.value,
                    def.unit,
                    worse_by(def.better, a.value, b.value) * 100.0,
                    bound_text(def.rule),
                )
                .expect("writing to a String");
            }
        }
    }
    if compared == 0 {
        return Err("the files share no (workload, metric) pair".to_string());
    }
    Ok((table, all_pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    fn def_of(name: &str) -> &'static MetricDef {
        find(END_TO_END, name)
            .or_else(|| find(PER_LAYER, name))
            .expect("metric in a table")
    }

    fn measured(name: &str, value: f64, spread: Option<f64>) -> Measured {
        Measured {
            def: def_of(name),
            value,
            samples: 21,
            spread,
        }
    }

    #[test]
    fn share_bound_judges_by_direction_and_spread() {
        let def = |better| MetricDef {
            name: "m",
            unit: "u",
            better,
            rule: Rule::Share(0.10),
        };
        let at = |value, spread| Measured {
            def: def_of("pipeline_rps"),
            value,
            samples: 21,
            spread: Some(spread),
        };
        // Higher is better: 8 % lower passes a 10 % bound, 12 % does not.
        let higher = def(Better::Higher);
        let a = at(1000.0, 0.02);
        assert_eq!(judge(&higher, &a, &at(920.0, 0.02)), Verdict::Pass);
        assert_eq!(judge(&higher, &a, &at(880.0, 0.02)), Verdict::Regress);
        assert_eq!(judge(&higher, &a, &at(1500.0, 0.02)), Verdict::Pass);
        // A scatter wider than the bound leaves "no worse" unresolved — but
        // never hides a regression beyond the bound.
        assert_eq!(judge(&higher, &a, &at(990.0, 0.15)), Verdict::Unresolved);
        assert_eq!(judge(&higher, &a, &at(800.0, 0.15)), Verdict::Regress);
        // Lower is better.
        let lower = def(Better::Lower);
        assert_eq!(judge(&lower, &a, &at(1080.0, 0.0)), Verdict::Pass);
        assert_eq!(judge(&lower, &a, &at(1120.0, 0.0)), Verdict::Regress);
        assert_eq!(judge(&lower, &a, &at(500.0, 0.0)), Verdict::Pass);
    }

    #[test]
    fn exact_and_zero_rules() {
        let hit = def_of("hit_pct");
        let a = measured("hit_pct", 61.9127, None);
        assert_eq!(
            judge(hit, &a, &measured("hit_pct", 61.9127, None)),
            Verdict::Pass
        );
        assert_eq!(
            judge(hit, &a, &measured("hit_pct", 61.9126, None)),
            Verdict::Regress
        );
        assert_eq!(
            judge(hit, &a, &measured("hit_pct", 62.5, None)),
            Verdict::Pass
        );
        let failed = def_of("failed_ops_pct");
        let zero = measured("failed_ops_pct", 0.0, None);
        assert_eq!(judge(failed, &zero, &zero), Verdict::Pass);
        assert_eq!(
            judge(failed, &zero, &measured("failed_ops_pct", 4.0, None)),
            Verdict::Regress
        );
    }

    fn file(seed: u64, rps: f64, hit: f64) -> Json {
        let outcome = Outcome {
            correct: true,
            attempted: 21,
            failed: 0,
            metrics: vec![
                measured("pipeline_rps", rps, Some(0.01)),
                measured("hit_pct", hit, None),
            ],
            wall_s: Summary::of(&[0.3, 0.31, 0.32]).unwrap(),
            failures: Vec::new(),
        };
        let mut fields = header(seed, 15.0, 0.0);
        fields.push((
            "workloads".to_string(),
            obj(vec![(
                "csv-lru-hit",
                obj(vec![("e2e", outcome_json(&outcome))]),
            )]),
        ));
        // Through text, as `compare` reads files.
        Json::parse(&Json::Object(fields).to_string()).unwrap()
    }

    #[test]
    fn compare_reads_result_files_back() {
        let (table, pass) = compare(&file(42, 1000.0, 61.5), &file(42, 1001.0, 61.5)).unwrap();
        assert!(pass, "{table}");
        assert_eq!(table.lines().count(), 2);
        assert!(table.contains("pipeline_rps") && table.contains("bound 25.0%"));
        assert!(table.contains("hit_pct") && table.contains("bound exact"));

        let (table, pass) = compare(&file(42, 1000.0, 61.5), &file(42, 700.0, 61.4)).unwrap();
        assert!(!pass);
        assert_eq!(table.matches("REGRESS").count(), 2, "{table}");

        assert!(compare(&file(42, 1.0, 1.0), &file(43, 1.0, 1.0)).is_err());
    }

    #[test]
    fn contract_line_lists_only_the_gated_metrics() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                measured("setup_s", 0.5, Some(0.1)),
                measured("wan_gbps", 0.015, None),
                measured("failed_ops_pct", 0.0, None),
            ],
            wall_s: Summary::of(&[1.0]).unwrap(),
            failures: Vec::new(),
        };
        let line = Json::parse(&contract_line(&outcome)).unwrap();
        let Some(Json::Object(metrics)) = line.get("metrics") else {
            panic!("no metrics object in {line}");
        };
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].0, "setup_s");
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(3.0));
    }
}

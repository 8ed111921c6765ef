//! Per-policy `handle()` throughput benchmark — the number the hot-path
//! memory-layout work (fast hashing, the shared cache stores, alloc-free
//! replay) is judged by:
//!
//! ```text
//! cargo run --release -p lhr-bench --bin policies -- --scale small
//! ```
//!
//! Every policy of the roster (`lhr_proto::presets::POLICIES`, built with
//! the CLI's parameters) replays the same fixed-seed IRM trace through a
//! bare `handle()` loop (no server, no simulator) and reports mean ns per
//! request. Set `LHR_BENCH_JSON=<path>` to append machine-readable results
//! plus a `policy_ns_per_op` summary line (the format committed as
//! `BENCH_policies.json`; `scripts/bench_policies.sh` adds the commit),
//! with `host_cpus` recorded honestly as in the other BENCH files.

use lhr_proto::presets::{self, PolicyParams};
use lhr_sim::CachePolicy;
use lhr_trace::synth::{IrmConfig, ProductionScale, SizeModel};
use lhr_trace::Trace;
use lhr_util::bench::{black_box, Bench};
use lhr_util::json::{Json, ToJson};
use std::io::Write;

/// Replays the trace through a fresh policy; returns a counter so the
/// optimizer can't discard the loop.
fn replay(trace: &Trace, mut policy: Box<dyn CachePolicy + Send>) -> u64 {
    let mut hits = 0u64;
    for req in trace.iter() {
        if black_box(policy.handle(req)) == lhr_sim::Outcome::Hit {
            hits += 1;
        }
    }
    hits
}

fn main() {
    let options = lhr_bench::harness::Options::from_args();
    let requests = match options.scale {
        ProductionScale::Tiny => 20_000,
        ProductionScale::Small => 100_000,
        ProductionScale::Medium => 400_000,
        ProductionScale::Full => 1_000_000,
    };
    let trace = IrmConfig::new(10_000, requests)
        .zipf_alpha(0.9)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 10_000,
            max: 10_000_000,
        })
        .seed(options.seed)
        .generate();
    // Every roster policy exactly as `lhr-cache --policy NAME` builds it.
    let params = PolicyParams::for_trace(25_000_000, options.seed, &trace);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut group = Bench::new("policy_handle");
    group.throughput_elems(requests as u64);
    for &(name, build) in presets::POLICIES {
        group.bench(name, || replay(black_box(&trace), build(&params)));
    }
    let results = group.finish();

    println!("per-request handle() cost over {requests} requests ({host_cpus} host cpu(s)):");
    let mut summary: Vec<(String, f64)> = Vec::new();
    for r in &results {
        let ns_per_op = r.mean_ns / requests as f64;
        println!("  {:<12} {:>8.1} ns/op", r.name, ns_per_op);
        summary.push((r.name.clone(), ns_per_op));
    }

    if let Ok(path) = std::env::var("LHR_BENCH_JSON") {
        let mut fields = vec![
            ("group".to_string(), "policy_ns_per_op".to_json()),
            ("requests".to_string(), (requests as u64).to_json()),
            ("host_cpus".to_string(), (host_cpus as u64).to_json()),
        ];
        for (name, ns) in &summary {
            fields.push((name.clone(), ns.to_json()));
        }
        let record = Json::Object(fields);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("warning: could not write {path}: {e}");
        }
    }
    lhr_bench::harness::write_obs(&options);
}

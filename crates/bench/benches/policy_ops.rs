//! Per-request `handle()` cost of every cache policy (the compute side of
//! the paper's Figure 9 / Table 2 overhead story): each policy of the
//! roster (`lhr_proto::presets::POLICIES`, built with the CLI's parameters)
//! replays one fixed-seed IRM trace through a bare `handle()` loop — no
//! server, no simulator.
//!
//! Run with `cargo bench -p lhr-bench --bench policy_ops`. The committed
//! per-policy figure is `policies.handle_ns_per_req` of `benchmark/`.

use lhr_proto::presets::{self, PolicyParams};
use lhr_sim::{CachePolicy, Outcome};
use lhr_trace::synth::{IrmConfig, SizeModel};
use lhr_trace::Trace;
use lhr_util::bench::{black_box, Bench};

/// Replays the trace through a fresh policy; returns a counter so the
/// optimizer can't discard the loop.
fn replay(trace: &Trace, mut policy: Box<dyn CachePolicy + Send>) -> u64 {
    let mut hits = 0u64;
    for req in trace.iter() {
        if black_box(policy.handle(req)) == Outcome::Hit {
            hits += 1;
        }
    }
    hits
}

fn main() {
    let trace = IrmConfig::new(2_000, 50_000)
        .zipf_alpha(0.9)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 10_000,
            max: 10_000_000,
        })
        .seed(7)
        .generate();
    let capacity = 200_000_000u64; // ~4% of unique bytes
    let params = PolicyParams::for_trace(capacity, 42, &trace);

    let mut group = Bench::new("policy_handle");
    group.throughput_elems(trace.len() as u64);
    for &(name, build) in presets::POLICIES {
        group.bench(name, || replay(black_box(&trace), build(&params)));
    }
    group.finish();
}

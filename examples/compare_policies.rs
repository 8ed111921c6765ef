//! Compare every implemented policy across a sweep of cache sizes on a
//! production-like workload (a miniature Figure 8).
//!
//! ```text
//! cargo run --release --example compare_policies
//! ```

use lhr_repro::policies::Lfo;
use lhr_repro::proto::presets::{self, PolicyParams};
use lhr_repro::sim::{SimConfig, Simulator};
use lhr_repro::trace::synth::{production, ProductionScale};
use lhr_repro::trace::TraceStats;

fn main() {
    let trace = production::cdn_a(ProductionScale::Tiny, 11);
    let unique = TraceStats::compute(&trace).unique_bytes_requested as f64;

    // The whole roster, as `lhr-cache compare` builds it — except that LFO
    // retrains every 4 096 requests: at the CLI's 8 192 it would train
    // once on this 9 700-request trace.
    let params = PolicyParams::for_trace(0, 11, &trace);

    // Cache sizes: 2%, 6%, and 12% of the unique bytes.
    let capacities: Vec<u64> = [0.02, 0.06, 0.12]
        .iter()
        .map(|f| (unique * f) as u64)
        .collect();
    let simulator = Simulator::new(SimConfig {
        warmup_requests: trace.len() / 5,
    });

    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "policy",
        format!("{:.1}GB", capacities[0] as f64 / 1e9),
        format!("{:.1}GB", capacities[1] as f64 / 1e9),
        format!("{:.1}GB", capacities[2] as f64 / 1e9)
    );
    for &(name, build) in presets::POLICIES {
        let hits: Vec<String> = capacities
            .iter()
            .map(|&capacity| {
                let mut policy = match name {
                    "LFO" => Box::new(Lfo::new(capacity, 4_096)),
                    _ => build(&PolicyParams { capacity, ..params }),
                };
                let r = simulator.run(&mut policy, &trace);
                format!("{:6.2}%", r.metrics.object_hit_ratio() * 100.0)
            })
            .collect();
        println!(
            "{:<10} {:>12} {:>12} {:>12}",
            name, hits[0], hits[1], hits[2]
        );
    }
}

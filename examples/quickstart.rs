//! Quickstart: generate a synthetic CDN workload, run the LHR cache next
//! to plain LRU, and print what the paper calls the content hit
//! probability and WAN traffic.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::policies::Lru;
use lhr_repro::sim::{SimConfig, Simulator};
use lhr_repro::trace::synth::{IrmConfig, SizeModel};

fn main() {
    // 1. A Zipf(1.0) workload: 2 000 objects, 100 000 requests, sizes from
    //    a bounded Pareto (10 KB – 10 MB), Poisson arrivals.
    let trace = IrmConfig::new(2_000, 100_000)
        .name("quickstart")
        .zipf_alpha(1.0)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 10_000,
            max: 10_000_000,
        })
        .requests_per_sec(200.0)
        .seed(7)
        .generate();

    // 2. A cache sized at ~5% of the unique bytes.
    let unique_bytes = lhr_repro::trace::TraceStats::compute(&trace).unique_bytes_requested;
    let capacity = (unique_bytes / 20) as u64;
    println!(
        "trace: {} requests, {:.1} GB unique bytes, cache {:.2} GB",
        trace.len(),
        unique_bytes as f64 / 1e9,
        capacity as f64 / 1e9
    );

    // 3. Replay through LHR and LRU; skip the first fifth as warmup.
    let sim = Simulator::new(SimConfig {
        warmup_requests: trace.len() / 5,
    });

    let mut lhr = LhrCache::new(capacity, LhrConfig::default());
    let lhr_result = sim.run(&mut lhr, &trace);

    let mut lru = Lru::new(capacity);
    let lru_result = sim.run(&mut lru, &trace);

    for r in [&lhr_result, &lru_result] {
        println!(
            "{:>4}: hit probability {:5.2}%  byte hit {:5.2}%  WAN {:.3} Gbps",
            r.policy,
            r.metrics.object_hit_ratio() * 100.0,
            r.metrics.byte_hit_ratio() * 100.0,
            r.metrics.wan_gbps(),
        );
    }
    let stats = lhr.stats();
    println!(
        "LHR internals: {} windows, {} trainings, final threshold δ = {:.2}",
        stats.windows, stats.trainings, stats.final_threshold
    );
}

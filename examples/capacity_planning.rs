//! Capacity planning with the analysis toolkit: given a workload, how big
//! must the cache be for a target hit ratio? Combines the exact LRU
//! miss-ratio curve and the Che approximation — then sanity-checks the
//! answer against an actual simulation and shows how much less capacity
//! LHR needs for the same hit ratio.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use lhr_repro::analysis::che::CheModel;
use lhr_repro::analysis::mrc::{lru_mrc, MrcConfig};
use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::policies::Lru;
use lhr_repro::sim::{SimConfig, Simulator};
use lhr_repro::trace::synth::{production, ProductionScale};
use lhr_repro::trace::TraceStats;

fn main() {
    let trace = production::cdn_a(ProductionScale::Tiny, 3);
    let stats = TraceStats::compute(&trace);
    println!(
        "workload: {} ({} requests, {:.1} GB unique bytes)",
        stats.name,
        stats.total_requests,
        stats.unique_bytes_requested as f64 / 1e9
    );

    // 1. Miss-ratio curve: hit ratio at each capacity, one pass.
    let unique = stats.unique_bytes_requested as u64;
    let capacities: Vec<u64> = (1..=12).map(|k| unique * k / 24).collect();
    let curve = lru_mrc(&trace, &MrcConfig::exact(capacities.clone()));
    let che = CheModel::from_trace(&trace);

    let target = 0.45;
    println!(
        "\n{:<14} {:>9} {:>9}",
        "capacity(GB)", "MRC hit%", "Che hit%"
    );
    let mut planned: Option<u64> = None;
    for &(capacity, hit) in &curve.points {
        println!(
            "{:<14.2} {:>9.2} {:>9.2}",
            capacity as f64 / 1e9,
            hit * 100.0,
            che.lru_hit_ratio(capacity) * 100.0
        );
        if planned.is_none() && hit >= target {
            planned = Some(capacity);
        }
    }
    let Some(capacity) = planned else {
        println!(
            "\ntarget {:.0}% not reachable with LRU in the swept range",
            target * 100.0
        );
        return;
    };
    println!(
        "\nsmallest swept LRU capacity reaching {:.0}% hits: {:.2} GB",
        target * 100.0,
        capacity as f64 / 1e9
    );

    // 2. Verify by simulation, and compare what LHR does with the same
    //    budget.
    let config = SimConfig {
        warmup_requests: trace.len() / 5,
    };
    let mut lru = Lru::new(capacity);
    let lru_hit = Simulator::new(config.clone())
        .run(&mut lru, &trace)
        .metrics
        .object_hit_ratio();
    let mut lhr = LhrCache::new(capacity, LhrConfig::default());
    let lhr_hit = Simulator::new(config)
        .run(&mut lhr, &trace)
        .metrics
        .object_hit_ratio();
    println!(
        "simulated at that capacity: LRU {:.2}%  LHR {:.2}%",
        lru_hit * 100.0,
        lhr_hit * 100.0
    );
    println!("(the gap is the capacity a learned policy hands back to the operator)");
}

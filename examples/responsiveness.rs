//! The paper's §7.6 responsiveness scenario in miniature: a Markov-
//! modulated workload whose popularity distribution inverts every `r`
//! requests ("Syn One"), with the windowed hit ratio printed over time so
//! the recovery after each inversion is visible.
//!
//! ```text
//! cargo run --release --example responsiveness
//! ```

use lhr_repro::core::cache::{LhrCache, LhrConfig};
use lhr_repro::obs::{Obs, ObsConfig, ObsWindow};
use lhr_repro::policies::{Lru, LruK};
use lhr_repro::sim::{CachePolicy, SimConfig, Simulator};
use lhr_repro::trace::synth::markov;
use lhr_repro::trace::TraceStats;

fn main() {
    let r = 20_000;
    let trace = markov::syn_one(1_000, 6 * r, r, 0.9, 42);
    let unique = TraceStats::compute(&trace).unique_bytes_requested;
    let capacity = (unique / 10) as u64;
    println!(
        "Syn One: {} requests, popularity inverted every {} requests, cache {:.2} GB\n",
        trace.len(),
        r,
        capacity as f64 / 1e9
    );

    let every = r as u64 / 4; // 4 windows per phase
    let policies: Vec<Box<dyn CachePolicy>> = vec![
        Box::new(LhrCache::new(capacity, LhrConfig::default())),
        Box::new(Lru::new(capacity)),
        Box::new(LruK::new(capacity, 4)),
    ];
    for mut policy in policies {
        let obs = Obs::new(ObsConfig {
            window: ObsWindow::Requests(every),
            ..ObsConfig::default()
        });
        let result = Simulator::new(SimConfig::default())
            .with_obs(obs.clone())
            .run(&mut policy, &trace);
        let series: Vec<String> = obs
            .windows()
            .iter()
            .filter(|w| w.requests == every)
            .map(|w| format!("{:4.1}", w.hit_ratio() * 100.0))
            .collect();
        println!(
            "{:>6} overall {:5.2}% | windowed hit%: {}",
            result.policy,
            result.metrics.object_hit_ratio() * 100.0,
            series.join(" ")
        );
    }
    println!("\n(phases change every 4 columns; watch how quickly each policy recovers)");
}

//! Cost of computing the HRO bound and its per-window top set — the paper's
//! claim is that HRO is computable online in polynomial time (§3.2).
//!
//! Run with `cargo bench --bench hazard`.

use lhr::hazard::{hro_top_set, Hro};
use lhr::window::WindowData;
use lhr_sim::OfflineBound;
use lhr_trace::synth::{IrmConfig, SizeModel};
use lhr_util::bench::{black_box, Bench};

fn bench_hro_bound() {
    for &n in &[20_000usize, 100_000] {
        let trace = IrmConfig::new(n / 20, n)
            .zipf_alpha(0.9)
            .size_model(SizeModel::BoundedPareto {
                alpha: 1.3,
                min: 10_000,
                max: 5_000_000,
            })
            .seed(3)
            .generate();
        let capacity = (trace.total_bytes() / 50) as u64;
        let mut group = Bench::new("hro_evaluate");
        group.throughput_elems(n as u64);
        group.bench(format!("{n}"), || {
            Hro::default().evaluate(black_box(&trace), capacity)
        });
        group.finish();
    }
}

fn bench_top_set() {
    let trace = IrmConfig::new(5_000, 50_000)
        .zipf_alpha(1.0)
        .seed(4)
        .generate();
    let window = WindowData::from_requests(0, &trace.requests);
    let objects = window.objects();
    let capacity = (trace.total_bytes() / 20) as u64;
    let mut group = Bench::new("hro_top_set");
    group.throughput_elems(objects.len() as u64);
    group.bench("5000_contents", || {
        hro_top_set(&objects, window.span_secs(), capacity)
    });
    group.finish();
}

fn main() {
    bench_hro_bound();
    bench_top_set();
}

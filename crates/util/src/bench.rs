//! A wall-clock micro-benchmark harness (the workspace's `criterion`
//! replacement).
//!
//! Each bench binary in `crates/bench/benches/` is a plain `main()`
//! (`harness = false`) that builds a [`Bench`] group, registers closures,
//! and calls [`Bench::finish`]. Per registered function the harness:
//!
//! 1. **warms up** for [`Bench::warmup_ms`] milliseconds (JIT-free Rust
//!    still needs cache/branch-predictor warmup and lazy allocs),
//! 2. runs timed batches until [`Bench::measure_ms`] of samples exist,
//! 3. prints one line of min / mean / max ns per iteration, plus throughput
//!    when [`Bench::throughput_elems`] was set.
//!
//! [`Bench::finish`] hands the results back to the caller; nothing is
//! written to disk.
//!
//! Timings are wall-clock: pin the process and quiesce the machine for
//! stable numbers. Unlike criterion there is no statistical outlier
//! rejection — the goal is a dependency-free harness that is honest about
//! being a stopwatch.
//!
//! # Example
//!
//! ```
//! use lhr_util::bench::{black_box, Bench};
//!
//! let mut group = Bench::new("example_sum");
//! group.warmup_ms(1).measure_ms(5); // keep the doctest fast
//! group.bench("sum_1k", || (0..1000u64).map(black_box).sum::<u64>());
//! let results = group.finish();
//! assert_eq!(results[0].name, "sum_1k");
//! assert!(results[0].mean_ns > 0.0);
//! ```

use std::time::Instant;

pub use std::hint::black_box;

/// One benchmarked function's timing summary.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Function label within the group.
    pub name: String,
    /// Total timed iterations.
    pub iters: u64,
    /// Fastest observed batch, per iteration.
    pub min_ns: f64,
    /// Mean over all timed batches.
    pub mean_ns: f64,
    /// Slowest observed batch, per iteration.
    pub max_ns: f64,
    /// Elements processed per iteration (when declared).
    pub elems_per_iter: Option<u64>,
}

impl BenchResult {
    /// Throughput in elements/second, when an element count was declared.
    pub fn elems_per_sec(&self) -> Option<f64> {
        self.elems_per_iter.map(|n| n as f64 * 1e9 / self.mean_ns)
    }
}

/// A named group of benchmark functions sharing warmup/measurement budgets.
pub struct Bench {
    group: String,
    warmup_ms: u64,
    measure_ms: u64,
    throughput: Option<u64>,
    results: Vec<BenchResult>,
}

impl Bench {
    /// A new group; budgets default to 300 ms warmup / 1 s measurement per
    /// function (override with `LHR_BENCH_WARMUP_MS` / `LHR_BENCH_MEASURE_MS`).
    pub fn new(group: impl Into<String>) -> Self {
        Bench {
            group: group.into(),
            warmup_ms: crate::prop::env_u64("LHR_BENCH_WARMUP_MS", 300),
            measure_ms: crate::prop::env_u64("LHR_BENCH_MEASURE_MS", 1_000),
            throughput: None,
            results: Vec::new(),
        }
    }

    /// Sets the warmup budget in milliseconds.
    pub fn warmup_ms(&mut self, ms: u64) -> &mut Self {
        self.warmup_ms = ms;
        self
    }

    /// Sets the measurement budget in milliseconds.
    pub fn measure_ms(&mut self, ms: u64) -> &mut Self {
        self.measure_ms = ms;
        self
    }

    /// Declares how many elements one iteration processes; subsequent
    /// [`bench`](Self::bench) calls report throughput.
    pub fn throughput_elems(&mut self, elems: u64) -> &mut Self {
        self.throughput = Some(elems);
        self
    }

    /// Times `f`, printing a one-line summary immediately.
    pub fn bench<T>(&mut self, name: impl Into<String>, mut f: impl FnMut() -> T) -> &mut Self {
        let name = name.into();

        // Warmup: also estimates the per-iteration cost so measurement
        // batches are sized to ~10 samples per budget.
        let warmup_budget = std::time::Duration::from_millis(self.warmup_ms.max(1));
        let start = Instant::now();
        let mut warmup_iters = 0u64;
        while start.elapsed() < warmup_budget {
            black_box(f());
            warmup_iters += 1;
        }
        let est_ns = (start.elapsed().as_nanos() as f64 / warmup_iters as f64).max(1.0);

        let measure_budget = std::time::Duration::from_millis(self.measure_ms.max(1));
        let batch =
            ((measure_budget.as_nanos() as f64 / 10.0 / est_ns).round() as u64).clamp(1, 1 << 24);

        let mut iters = 0u64;
        let mut min_ns = f64::INFINITY;
        let mut max_ns = 0.0f64;
        let measure_start = Instant::now();
        while measure_start.elapsed() < measure_budget {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let per_iter = t.elapsed().as_nanos() as f64 / batch as f64;
            min_ns = min_ns.min(per_iter);
            max_ns = max_ns.max(per_iter);
            iters += batch;
        }
        let mean_ns = measure_start.elapsed().as_nanos() as f64 / iters as f64;

        let result = BenchResult {
            name,
            iters,
            min_ns,
            mean_ns,
            max_ns,
            elems_per_iter: self.throughput,
        };
        let throughput = match result.elems_per_sec() {
            Some(eps) => format!("  ({:.2} Melem/s)", eps / 1e6),
            None => String::new(),
        };
        println!(
            "{}/{:<24} {:>12.1} ns/iter  (min {:.1}, max {:.1}, {} iters){}",
            self.group,
            result.name,
            result.mean_ns,
            result.min_ns,
            result.max_ns,
            result.iters,
            throughput
        );
        self.results.push(result);
        self
    }

    /// Finishes the group, returning the collected results.
    pub fn finish(self) -> Vec<BenchResult> {
        self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let mut b = Bench::new("test_group");
        b.warmup_ms(1).measure_ms(5).throughput_elems(100);
        b.bench("noop_sum", || (0..100u64).sum::<u64>());
        let results = b.finish();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert!(r.iters > 0);
        assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns * 1.01);
        assert!(r.elems_per_sec().unwrap() > 0.0);
    }
}

//! Production-like traces calibrated to the paper's Table 1.
//!
//! The four production traces (CDN-A, CDN-B, CDN-C, Wikipedia) are
//! proprietary, so we generate synthetic stand-ins that reproduce the
//! characteristics the paper's evaluation depends on:
//!
//! | Trace  | Character (from §2)                        | Model here |
//! |--------|--------------------------------------------|------------|
//! | CDN-A  | web + video mix, 24 h, mean 25.5 MB        | IRM, Zipf(0.9), bimodal sizes |
//! | CDN-B  | live mobile video, 9.9 h, mean 68.4 MB     | drifting population (live churn), Zipf(1.1), Pareto sizes |
//! | CDN-C  | one-off content requests, 330 h, ~100 MB   | Zipf(0.25) (≫ one-hit wonders), near-constant sizes |
//! | Wiki   | photos/media burst, 0.1 h, mean 69.5 MB    | IRM, Zipf(1.0), heavy-tail sizes, very high rate |
//!
//! Full-scale traces have ~1 M requests over hundreds of thousands of
//! objects, like the paper's. Because the full experiment grid is large, a
//! [`ProductionScale`] lets the harness shrink request and object counts
//! (and, correspondingly, cache sizes) while preserving the ratios that
//! drive caching behaviour.

use crate::request::{Request, Time, Trace};
use crate::synth::irm::{exp_variate, IrmConfig};
use crate::synth::size::SizeModel;
use crate::synth::zipf::ZipfSampler;
use lhr_util::rng::rngs::StdRng;
use lhr_util::rng::{Rng, SeedableRng};

/// Scale factor for the production-like traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProductionScale {
    /// Paper scale: ~1 M requests, hundreds of thousands of objects.
    Full,
    /// ~1/5 scale; the default for the experiment harness.
    Medium,
    /// ~1/25 scale; used by tests and quick runs.
    Small,
    /// ~1/100 scale; used by unit tests only.
    Tiny,
}

impl ProductionScale {
    /// Divisor applied to request and object counts.
    pub fn divisor(self) -> usize {
        match self {
            ProductionScale::Full => 1,
            ProductionScale::Medium => 5,
            ProductionScale::Small => 25,
            ProductionScale::Tiny => 100,
        }
    }

    fn scaled(self, full: usize) -> usize {
        (full / self.divisor()).max(1)
    }
}

/// CDN-A: mixed web and video traffic from several nodes on one continent.
///
/// Calibration targets (Table 1): 330 446 unique contents, 0.97 M requests,
/// 24 h, mean content size 25.5 MB, max ~7.8 GB.
pub fn cdn_a(scale: ProductionScale, seed: u64) -> Trace {
    let n_requests = scale.scaled(970_000);
    let n_objects = scale.scaled(330_446);
    let duration_secs = 24.0 * 3600.0;
    IrmConfig::new(n_objects, n_requests)
        .name("CDN-A")
        .zipf_alpha(0.9)
        .requests_per_sec(n_requests as f64 / duration_secs)
        .size_model(SizeModel::BimodalLogNormal {
            p_small: 0.5,
            small_median: 120_000, // ~120 KB web objects
            small_sigma: 1.2,
            large_median: 30_000_000, // ~30 MB video segments
            large_sigma: 1.1,
        })
        .seed(seed ^ 0xA)
        .generate()
}

/// CDN-B: mobile live-video streaming. Live content churns: the popular set
/// drifts over time, so we modulate which slice of the population the Zipf
/// ranks map onto.
///
/// Calibration targets: 162 104 unique contents, 1 M requests, 9.9 h, mean
/// 68.4 MB, max ~38 GB.
pub fn cdn_b(scale: ProductionScale, seed: u64) -> Trace {
    let n_requests = scale.scaled(1_000_000);
    let n_objects = scale.scaled(162_104);
    let duration_secs = 9.9 * 3600.0;
    let rate = n_requests as f64 / duration_secs;
    let size_model = SizeModel::BoundedPareto {
        alpha: 0.55,
        min: 500_000,                                        // 500 KB segments
        max: 38_000_000_000 / scale.divisor().max(1) as u64, // cap scales so tiny traces stay tiny
    };

    // Live churn: the Zipf head maps onto a window of the object population
    // that advances every epoch. 20 epochs over the trace.
    let epochs = 20usize;
    let reqs_per_epoch = n_requests.div_ceil(epochs);
    let window = (n_objects / 4).max(1); // popular window = 25% of population
    let stride = (n_objects.saturating_sub(window)) / epochs.max(1);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xB);
    let sampler = ZipfSampler::new(window, 1.1);
    let mut trace = Trace::new("CDN-B");
    trace.requests.reserve_exact(n_requests);
    let mut now = 0.0f64;
    for i in 0..n_requests {
        now += exp_variate(&mut rng, rate);
        let epoch = i / reqs_per_epoch;
        let base = (epoch * stride) as u64;
        let rank = sampler.sample(&mut rng) as u64;
        let id = base + rank;
        let size = size_model.size_for(seed ^ 0xB, id);
        trace.push(Request::new(Time::from_secs_f64(now), id, size));
    }
    trace
}

/// CDN-C: user requests for specific contents on a local network; most
/// contents are requested only once (the paper attributes LHR's muted gains
/// on this trace to that), and sizes are nearly constant around 100 MB.
///
/// Calibration targets: 297 920 unique contents, 0.6 M requests, 330 h,
/// mean 100 MB, max 101 MB.
pub fn cdn_c(scale: ProductionScale, seed: u64) -> Trace {
    let n_requests = scale.scaled(600_000);
    let n_objects = scale.scaled(297_920);
    let duration_secs = 330.0 * 3600.0;
    let rate = n_requests as f64 / duration_secs;
    let size_model = SizeModel::BoundedPareto {
        alpha: 6.0,
        min: 95_000_000,
        max: 101_000_000,
    };

    // Mixture: with probability `q` a request targets a small Zipf head of
    // repeatedly-requested contents; otherwise it targets a fresh,
    // never-before-seen object (the one-hit-wonder stream that dominates
    // CDN-C). `q` is chosen so the expected unique-object count matches the
    // Table 1 target: head + (1-q)·R = N.
    let head = (n_objects / 30).max(1);
    let q = 1.0 - (n_objects.saturating_sub(head)) as f64 / n_requests as f64;
    let q = q.clamp(0.0, 1.0);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xC);
    let sampler = ZipfSampler::new(head, 0.8);
    let mut trace = Trace::new("CDN-C");
    trace.requests.reserve_exact(n_requests);
    let mut now = 0.0f64;
    let mut next_fresh = head as u64;
    for _ in 0..n_requests {
        now += exp_variate(&mut rng, rate);
        let id = if rng.gen::<f64>() < q {
            sampler.sample(&mut rng) as u64
        } else {
            let id = next_fresh;
            next_fresh += 1;
            id
        };
        let size = size_model.size_for(seed ^ 0xC, id);
        trace.push(Request::new(Time::from_secs_f64(now), id, size));
    }
    trace
}

/// Wikipedia: a six-minute burst of photo/media requests on a west-coast
/// node — very high request rate, large population, Zipf(1.0) popularity.
///
/// Calibration targets: 406 883 unique contents, 1 M requests, 0.1 h, mean
/// 69.5 MB, max ~92 GB.
pub fn wiki(scale: ProductionScale, seed: u64) -> Trace {
    let n_requests = scale.scaled(1_000_000);
    let n_objects = scale.scaled(406_883);
    let duration_secs = 0.1 * 3600.0;
    IrmConfig::new(n_objects, n_requests)
        .name("Wiki")
        .zipf_alpha(1.0)
        .requests_per_sec(n_requests as f64 / duration_secs)
        .size_model(SizeModel::BoundedPareto {
            alpha: 0.5,
            min: 200_000,
            max: 92_000_000_000 / scale.divisor().max(1) as u64,
        })
        .seed(seed ^ 0xD)
        .generate()
}

/// All four production-like traces at the given scale.
pub fn all_production(scale: ProductionScale, seed: u64) -> Vec<Trace> {
    vec![
        cdn_a(scale, seed),
        cdn_b(scale, seed),
        cdn_c(scale, seed),
        wiki(scale, seed),
    ]
}

/// The paper's cache-size-to-unique-bytes ratio for the simulator
/// experiments (cache GB over Table 1's unique GB): scaling a generated
/// trace's cache by this ratio preserves the *cache pressure* of the
/// full-size experiment even though object sizes do not shrink with the
/// request count.
pub fn cache_to_unique_ratio(trace_name: &str) -> f64 {
    match trace_name {
        "CDN-A" => 512.0 / 8_242.0,
        "CDN-B" => 1_024.0 / 10_832.0,
        "CDN-C" => 128.0 / 29_094.0,
        "Wiki" => 1_024.0 / 27_618.0,
        other => panic!("unknown production trace {other}"),
    }
}

/// Same, for the appendix's Caffeine experiments (64 / 128 / 16 / 128 GB).
pub fn caffeine_cache_to_unique_ratio(trace_name: &str) -> f64 {
    match trace_name {
        "CDN-A" => 64.0 / 8_242.0,
        "CDN-B" => 128.0 / 10_832.0,
        "CDN-C" => 16.0 / 29_094.0,
        "Wiki" => 128.0 / 27_618.0,
        other => panic!("unknown production trace {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{one_hit_wonder_ratio, TraceStats};

    #[test]
    fn cdn_a_shape() {
        let t = cdn_a(ProductionScale::Tiny, 1);
        assert!(t.validate().is_ok());
        let s = TraceStats::compute(&t);
        assert_eq!(s.total_requests, 9_700);
        // Mean size within a factor of ~3 of 25.5 MB.
        assert!(
            s.mean_content_size > 8e6 && s.mean_content_size < 8e7,
            "{}",
            s.mean_content_size
        );
        assert!(
            (s.duration_hours - 24.0).abs() < 2.0,
            "{}",
            s.duration_hours
        );
    }

    #[test]
    fn cdn_b_population_drifts() {
        let t = cdn_b(ProductionScale::Tiny, 1);
        assert!(t.validate().is_ok());
        let n = t.len();
        let early_max = t.requests[..n / 10].iter().map(|r| r.id).max().unwrap();
        let late_min_popular = t.requests[9 * n / 10..].iter().map(|r| r.id).min().unwrap();
        // The late popular window starts beyond where the early window ended.
        assert!(late_min_popular > 0 && early_max < t.requests.iter().map(|r| r.id).max().unwrap());
    }

    #[test]
    fn cdn_c_is_mostly_one_hit() {
        let t = cdn_c(ProductionScale::Tiny, 1);
        assert!(t.validate().is_ok());
        let ratio = one_hit_wonder_ratio(&t);
        assert!(ratio > 0.7, "one-hit ratio {ratio}");
        let s = TraceStats::compute(&t);
        // Sizes nearly constant around 100 MB.
        assert!(s.mean_content_size > 9e7 && s.mean_content_size < 1.02e8);
        assert!(s.max_content_size <= 101_000_000);
    }

    #[test]
    fn wiki_is_a_short_burst() {
        let t = wiki(ProductionScale::Tiny, 1);
        assert!(t.validate().is_ok());
        let s = TraceStats::compute(&t);
        assert!(s.duration_hours < 0.2, "{}", s.duration_hours);
    }

    #[test]
    fn scales_are_consistent() {
        let tiny = cdn_a(ProductionScale::Tiny, 2);
        let small = cdn_a(ProductionScale::Small, 2);
        assert_eq!(tiny.len() * 4, small.len());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = wiki(ProductionScale::Tiny, 3);
        let b = wiki(ProductionScale::Tiny, 3);
        assert_eq!(a.requests, b.requests);
    }
}

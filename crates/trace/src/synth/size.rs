//! Object size models.
//!
//! Production CDN object sizes span a few KB to tens of GB (paper Table 1).
//! Each model deterministically assigns a size to an object id given a seed,
//! so that a given object always has the same size regardless of how many
//! times or in which order it is requested.

use lhr_util::rng::rngs::SmallRng;
use lhr_util::rng::{Rng, SeedableRng};

/// How object sizes are drawn. All variants are deterministic per
/// `(seed, object id)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeModel {
    /// Every object has the same size — the classic equal-size caching
    /// setting in which Belady is exactly optimal.
    Fixed {
        /// Object size in bytes.
        bytes: u64,
    },
    /// Log-normal sizes: `exp(N(ln median, sigma²))`, clamped to
    /// `[1, 2^40]`. A good fit for mixed web/media traffic.
    LogNormal {
        /// Median object size in bytes.
        median: u64,
        /// Log-space standard deviation.
        sigma: f64,
    },
    /// Bounded Pareto on `[min, max]` with tail exponent `alpha` — the
    /// standard heavy-tailed model for video/CDN object sizes.
    BoundedPareto {
        /// Tail exponent (smaller = heavier tail).
        alpha: f64,
        /// Smallest size in bytes.
        min: u64,
        /// Largest size in bytes.
        max: u64,
    },
    /// Mixture of two log-normals — e.g. small web objects plus large video
    /// segments (the paper's CDN-A serves such a mix).
    BimodalLogNormal {
        /// Probability of drawing from the *first* (usually small) mode.
        p_small: f64,
        /// Median of the small mode in bytes.
        small_median: u64,
        /// Log-space sigma of the small mode.
        small_sigma: f64,
        /// Median of the large mode in bytes.
        large_median: u64,
        /// Log-space sigma of the large mode.
        large_sigma: f64,
    },
}

impl SizeModel {
    /// Size in bytes for `id` under this model, deterministic in
    /// `(seed, id)`.
    pub fn size_for(&self, seed: u64, id: u64) -> u64 {
        // Derive a per-object RNG; splitmix-style mixing avoids correlation
        // between consecutive ids.
        let mixed = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SmallRng::seed_from_u64(mixed);
        match *self {
            SizeModel::Fixed { bytes } => bytes.max(1),
            SizeModel::LogNormal { median, sigma } => lognormal(&mut rng, median as f64, sigma),
            SizeModel::BoundedPareto { alpha, min, max } => {
                bounded_pareto(&mut rng, alpha, min as f64, max as f64)
            }
            SizeModel::BimodalLogNormal {
                p_small,
                small_median,
                small_sigma,
                large_median,
                large_sigma,
            } => {
                if rng.gen::<f64>() < p_small {
                    lognormal(&mut rng, small_median as f64, small_sigma)
                } else {
                    lognormal(&mut rng, large_median as f64, large_sigma)
                }
            }
        }
    }
}

/// One standard normal variate via Box–Muller (we implement our own rather
/// than pull in `rand_distr`; see DESIGN.md dependency policy).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue; // avoid ln(0)
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

fn lognormal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> u64 {
    let z = standard_normal(rng);
    let v = (median.ln() + sigma * z).exp();
    v.clamp(1.0, (1u64 << 40) as f64) as u64
}

fn bounded_pareto<R: Rng + ?Sized>(rng: &mut R, alpha: f64, min: f64, max: f64) -> u64 {
    assert!(alpha > 0.0 && min >= 1.0 && max > min);
    let u: f64 = rng.gen();
    // Inverse-CDF of the bounded Pareto.
    let ha = max.powf(-alpha);
    let la = min.powf(-alpha);
    let x = (-(u * (la - ha) - la)).powf(-1.0 / alpha);
    x.clamp(min, max) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_fixed() {
        let m = SizeModel::Fixed { bytes: 1234 };
        assert_eq!(m.size_for(1, 42), 1234);
        assert_eq!(m.size_for(9, 43), 1234);
    }

    #[test]
    fn sizes_are_deterministic_per_seed_and_id() {
        let m = SizeModel::LogNormal {
            median: 1 << 20,
            sigma: 1.5,
        };
        assert_eq!(m.size_for(5, 10), m.size_for(5, 10));
        // Different ids should (overwhelmingly) differ.
        assert_ne!(m.size_for(5, 10), m.size_for(5, 11));
        // Different seeds change the assignment.
        assert_ne!(m.size_for(5, 10), m.size_for(6, 10));
    }

    #[test]
    fn lognormal_median_is_roughly_right() {
        let median = 1u64 << 20;
        let m = SizeModel::LogNormal { median, sigma: 1.0 };
        let mut sizes: Vec<u64> = (0..20_001).map(|id| m.size_for(7, id)).collect();
        sizes.sort_unstable();
        let emp_median = sizes[sizes.len() / 2] as f64;
        let ratio = emp_median / median as f64;
        assert!(ratio > 0.9 && ratio < 1.1, "empirical median ratio {ratio}");
    }

    #[test]
    fn bounded_pareto_respects_bounds() {
        let m = SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 1_000,
            max: 1_000_000,
        };
        for id in 0..10_000 {
            let s = m.size_for(3, id);
            assert!((1_000..=1_000_000).contains(&s), "size {s} out of bounds");
        }
    }

    #[test]
    fn bounded_pareto_is_heavy_tailed() {
        // With alpha close to 1 a visible fraction of mass sits near max.
        // P(X > 1e6) ≈ 1.8e-3 for these parameters, so ~36 of 20 000.
        let m = SizeModel::BoundedPareto {
            alpha: 0.9,
            min: 1_000,
            max: 10_000_000,
        };
        let big = (0..20_000)
            .filter(|&id| m.size_for(11, id) > 1_000_000)
            .count();
        assert!(
            (15..=80).contains(&big),
            "expected ~36 large objects, got {big}"
        );
    }

    #[test]
    fn bimodal_produces_both_modes() {
        let m = SizeModel::BimodalLogNormal {
            p_small: 0.7,
            small_median: 10_000,
            small_sigma: 0.5,
            large_median: 100_000_000,
            large_sigma: 0.5,
        };
        let sizes: Vec<u64> = (0..5_000).map(|id| m.size_for(1, id)).collect();
        let small = sizes.iter().filter(|&&s| s < 1_000_000).count();
        let large = sizes.iter().filter(|&&s| s >= 1_000_000).count();
        assert!(small > 2_500, "small mode underrepresented: {small}");
        assert!(large > 800, "large mode underrepresented: {large}");
    }

    #[test]
    fn sizes_never_zero() {
        for m in [
            SizeModel::Fixed { bytes: 1 },
            SizeModel::LogNormal {
                median: 2,
                sigma: 3.0,
            },
            SizeModel::BoundedPareto {
                alpha: 2.0,
                min: 1,
                max: 10,
            },
        ] {
            for id in 0..1_000 {
                assert!(m.size_for(0, id) >= 1);
            }
        }
    }
}

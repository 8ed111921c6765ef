//! The detection mechanism (§5.2.2, Appendix A.2): a least-squares estimate
//! of the window's Zipf exponent α; the learning model is retrained only
//! when α shifts by at least ε between consecutive windows.

use crate::window::WindowObject;

/// Least-squares fit of `log p_i = log A − α log i` over a window's
/// rank-frequency data. Returns `(alpha, log_a)`; `alpha` is the estimated
/// Zipf exponent. Complexity O(N log N) for the rank sort, O(N) for the
/// fit (the paper quotes O(N) assuming counts are already ranked).
pub fn estimate_zipf_alpha(counts: &mut Vec<u32>) -> (f64, f64) {
    counts.sort_unstable_by(|a, b| b.cmp(a));
    if counts.len() < 2 {
        return (0.0, 0.0);
    }
    let total: f64 = counts.iter().map(|&c| c as f64).sum();
    // Empirical counts in the tail are dominated by sampling noise (ranks
    // whose expected count is below ~3 observe 0/1/2 essentially at
    // random), which both biases the slope and inflates its window-to-
    // window variance — fatal for a change detector. Fit only the head
    // where counts are statistically meaningful, unless that leaves too
    // few points.
    let head = counts.partition_point(|&c| c >= 3);
    let fit = if head >= 10 {
        &counts[..head]
    } else {
        &counts[..]
    };
    // x = ln(rank), y = ln(share).
    let n = fit.len() as f64;
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (i, &c) in fit.iter().enumerate() {
        let x = ((i + 1) as f64).ln();
        let y = (c as f64 / total).ln();
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (0.0, 0.0);
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    (-slope, intercept)
}

/// Retraining threshold ε on |α_k − α_{k−1}|.
const EPSILON: f64 = 0.05;

/// The detector: holds the previous window's α and decides when the model
/// must be retrained.
#[derive(Debug, Clone, Default)]
pub struct ZipfDetector {
    prev_alpha: Option<f64>,
}

impl ZipfDetector {
    /// Estimates α from a window's request counts (its
    /// [`crate::window::WindowData::objects`]) and reports whether the
    /// request pattern changed enough to warrant retraining. The first
    /// window always triggers (there is no model yet).
    pub fn observe(&mut self, objects: &[WindowObject]) -> DetectOutcome {
        let mut counts: Vec<u32> = objects.iter().map(|o| o.count).collect();
        let (alpha, _) = estimate_zipf_alpha(&mut counts);
        let retrain = self
            .prev_alpha
            .replace(alpha)
            .is_none_or(|prev| (alpha - prev).abs() >= EPSILON);
        DetectOutcome { alpha, retrain }
    }
}

/// Result of examining one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectOutcome {
    /// Estimated Zipf exponent of the window.
    pub alpha: f64,
    /// Whether the model should be retrained.
    pub retrain: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_trace::synth::zipf::zipf_pmf;

    fn table_with_counts(counts: &[u32]) -> Vec<WindowObject> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &count)| WindowObject {
                id: i as u64,
                count,
                size: 1,
            })
            .collect()
    }

    /// Ideal Zipf counts for n contents and R requests.
    fn ideal_counts(n: usize, alpha: f64, requests: f64) -> Vec<u32> {
        zipf_pmf(n, alpha)
            .iter()
            .map(|p| (p * requests).round().max(1.0) as u32)
            .collect()
    }

    #[test]
    fn recovers_alpha_on_ideal_data() {
        for &alpha in &[0.5, 0.8, 1.1] {
            let mut counts = ideal_counts(500, alpha, 1e6);
            let (est, _) = estimate_zipf_alpha(&mut counts);
            assert!((est - alpha).abs() < 0.05, "alpha {alpha}: estimated {est}");
        }
    }

    #[test]
    fn uniform_counts_give_zero_alpha() {
        let mut counts = vec![10u32; 100];
        let (est, _) = estimate_zipf_alpha(&mut counts);
        assert!(est.abs() < 1e-9, "estimated {est}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(estimate_zipf_alpha(&mut vec![]), (0.0, 0.0));
        assert_eq!(estimate_zipf_alpha(&mut vec![5]), (0.0, 0.0));
    }

    #[test]
    fn first_window_always_retrains() {
        let mut d = ZipfDetector::default();
        let out = d.observe(&table_with_counts(&ideal_counts(100, 0.8, 1e5)));
        assert!(out.retrain);
    }

    #[test]
    fn stable_alpha_suppresses_retraining() {
        let mut d = ZipfDetector::default();
        let counts = ideal_counts(200, 0.9, 1e5);
        d.observe(&table_with_counts(&counts));
        let out = d.observe(&table_with_counts(&counts));
        assert!(!out.retrain, "identical window triggered retraining");
    }

    #[test]
    fn alpha_shift_triggers_retraining() {
        let mut d = ZipfDetector::default();
        d.observe(&table_with_counts(&ideal_counts(200, 0.7, 1e5)));
        let out = d.observe(&table_with_counts(&ideal_counts(200, 1.1, 1e5)));
        assert!(out.retrain, "α 0.7 → 1.1 went undetected");
        assert!((out.alpha - 1.1).abs() < 0.1);
    }

    #[test]
    fn detection_accuracy_on_noisy_synthetic_shifts() {
        // Appendix A.2-style check: alternate α between 0.7 and 1.1 with
        // sampled (noisy) counts; the detector must flag ≥ 90% of true
        // shifts and not fire on repeats of the same α.
        use lhr_trace::synth::ZipfSampler;
        use lhr_util::rng::rngs::StdRng;
        use lhr_util::rng::SeedableRng;

        let mut rng = StdRng::seed_from_u64(1);
        let sample_counts = |alpha: f64, rng: &mut StdRng| {
            let s = ZipfSampler::new(300, alpha);
            let mut counts = vec![0u32; 300];
            for _ in 0..50_000 {
                counts[s.sample(rng)] += 1;
            }
            counts.retain(|&c| c > 0);
            counts
        };
        let mut d = ZipfDetector::default();
        let alphas = [0.7, 0.7, 1.1, 1.1, 0.7, 1.1, 0.7, 0.7, 1.1];
        let mut correct = 0;
        let mut total = 0;
        let mut prev: Option<f64> = None;
        for &a in &alphas {
            let out = d.observe(&table_with_counts(&sample_counts(a, &mut rng)));
            if let Some(p) = prev {
                let truly_changed = (a - p).abs() > 1e-9;
                total += 1;
                if out.retrain == truly_changed {
                    correct += 1;
                }
            }
            prev = Some(a);
        }
        assert!(
            correct as f64 / total as f64 >= 0.85,
            "accuracy {correct}/{total}"
        );
    }
}

//! Log-bucketed histograms: 65 power-of-two buckets covering the full
//! `u64` range, constant memory, O(1) record.
//!
//! Bucket `b` (for `b ≥ 1`) holds values in `[2^(b−1), 2^b)`; bucket 0
//! holds exactly the value 0. Instrumented loops keep a local histogram
//! (no locking) and merge it into the shared [`crate::Obs`] registry once
//! at the end of the run.

use lhr_util::json::{self, FromJson, Json, JsonError, ObjectWriter};

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; 65],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive lower bound of bucket `b`.
    pub fn bucket_floor(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate `p`-quantile: the inclusive floor of the bucket holding
    /// the p-th sample (so the true quantile is within 2× above it).
    pub fn quantile_floor(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as f64 * p).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_floor(b);
            }
        }
        Self::bucket_floor(64)
    }

    fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (Self::bucket_floor(b), c))
    }
}

impl LogHistogram {
    /// This histogram's fields in export order, for
    /// [`crate::ObsRecord::write_line`].
    pub(crate) fn write_fields(&self, w: &mut ObjectWriter<'_>) {
        w.uint("total", self.total);
        w.uint128("sum", self.sum);
        w.uint("min", self.min());
        w.uint("max", self.max);
        let out = w.key("buckets");
        out.push('[');
        for (i, (floor, count)) in self.nonzero().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            json::write_u64(floor, out);
            out.push(',');
            json::write_u64(count, out);
            out.push(']');
        }
        out.push(']');
    }
}

impl FromJson for LogHistogram {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut h = LogHistogram::new();
        h.total = lhr_util::json::field(v, "total")?;
        h.sum = lhr_util::json::field(v, "sum")?;
        h.max = lhr_util::json::field(v, "max")?;
        let min: u64 = lhr_util::json::field(v, "min")?;
        h.min = if h.total == 0 { u64::MAX } else { min };
        let pairs: Vec<(u64, u64)> = lhr_util::json::field(v, "buckets")?;
        for (floor, count) in pairs {
            h.buckets[Self::bucket_of(floor)] = count;
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        for b in 0..=64usize {
            let floor = LogHistogram::bucket_floor(b);
            assert_eq!(LogHistogram::bucket_of(floor), b, "floor of bucket {b}");
        }
    }

    #[test]
    fn records_and_quantiles() {
        let mut h = LogHistogram::new();
        for v in [1u64, 2, 3, 100, 1000, 1000, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.total(), 8);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1_000_000);
        assert!(h.mean() > 0.0);
        // The median sample (rank 4 of 8) is 100 → bucket floor 64.
        assert_eq!(h.quantile_floor(0.5), 64);
        assert_eq!(h.quantile_floor(1.0), 524_288); // bucket of 1e6
    }

    #[test]
    fn merge_equals_recording_everything() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for v in 0..100u64 {
            if v % 2 == 0 {
                a.record(v * 17)
            } else {
                b.record(v * 17)
            }
            all.record(v * 17);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn line_roundtrip() {
        let mut h = LogHistogram::new();
        for v in [0u64, 5, 5, 900, u64::MAX] {
            h.record(v);
        }
        // The empty histogram survives too.
        for hist in [h, LogHistogram::new()] {
            let record = crate::ObsRecord::Hist {
                name: "h".to_string(),
                hist,
            };
            let line = record.to_line();
            let back = crate::ObsRecord::parse_line(&line).unwrap();
            assert_eq!(back, record);
            assert_eq!(back.to_line(), line);
        }
    }
}

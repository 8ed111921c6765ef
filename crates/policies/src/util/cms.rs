//! Count-Min sketch with conservative update and periodic halving — the
//! frequency estimator behind TinyLFU / W-TinyLFU.
//!
//! Following the TinyLFU paper, counters are aged with a "reset" operation:
//! once the total increment count reaches a sample-size threshold, every
//! counter is halved, so the sketch tracks a sliding exponential window of
//! popularity. Counters saturate at 15 (4-bit semantics, stored in u8 for
//! simplicity).

use lhr_util::hash::splitmix64;

/// The sketch.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    rows: usize,
    width: u64,
    counters: Vec<u8>,
    increments: u64,
    sample_size: u64,
}

const MAX_COUNT: u8 = 15;

impl CountMinSketch {
    /// A sketch sized for roughly `expected_items` distinct keys: 4 rows of
    /// the next power of two ≥ `expected_items` counters; reset period
    /// 10 × expected items (TinyLFU's `W`).
    pub fn new(expected_items: u64) -> Self {
        let width = expected_items.max(16).next_power_of_two();
        CountMinSketch {
            rows: 4,
            width,
            counters: vec![0u8; (width as usize) * 4],
            increments: 0,
            sample_size: expected_items.max(16) * 10,
        }
    }

    #[inline]
    fn index(&self, row: usize, key: u64) -> usize {
        let h = splitmix64(key ^ (row as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        row * self.width as usize + (h & (self.width - 1)) as usize
    }

    /// Increments the frequency of `key` (conservative update), halving all
    /// counters when the sample window is exhausted.
    pub fn increment(&mut self, key: u64) {
        let est = self.estimate(key);
        if est < MAX_COUNT as u64 {
            for row in 0..self.rows {
                let idx = self.index(row, key);
                // Conservative update: only bump counters at the minimum.
                if (self.counters[idx] as u64) == est {
                    self.counters[idx] += 1;
                }
            }
        }
        self.increments += 1;
        if self.increments >= self.sample_size {
            self.age();
        }
    }

    /// Estimated frequency of `key` (min over rows, ≤ 15).
    pub fn estimate(&self, key: u64) -> u64 {
        (0..self.rows)
            .map(|row| self.counters[self.index(row, key)])
            .min()
            .unwrap_or(0) as u64
    }

    fn age(&mut self) {
        for c in &mut self.counters {
            *c >>= 1;
        }
        self.increments /= 2;
    }

    /// Approximate memory footprint in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.counters.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_grow_with_increments() {
        let mut s = CountMinSketch::new(1_000);
        assert_eq!(s.estimate(5), 0);
        for _ in 0..7 {
            s.increment(5);
        }
        assert_eq!(s.estimate(5), 7);
    }

    #[test]
    fn estimates_never_undercount_single_key() {
        let mut s = CountMinSketch::new(10_000);
        for k in 0..1_000u64 {
            s.increment(k);
        }
        for _ in 0..5 {
            s.increment(999_999);
        }
        assert!(s.estimate(999_999) >= 5);
    }

    #[test]
    fn counters_saturate() {
        let mut s = CountMinSketch::new(1_000);
        for _ in 0..100 {
            s.increment(1);
        }
        assert_eq!(s.estimate(1), MAX_COUNT as u64);
    }

    #[test]
    fn aging_halves_counts() {
        let mut s = CountMinSketch::new(16); // sample size = 160
        for _ in 0..10 {
            s.increment(7);
        }
        assert_eq!(s.estimate(7), 10);
        // Exhaust the sample window with other keys.
        for i in 0..150u64 {
            s.increment(1_000 + i % 50);
        }
        assert!(s.estimate(7) <= 5, "estimate {} after aging", s.estimate(7));
    }

    #[test]
    fn distinguishes_hot_from_cold() {
        let mut s = CountMinSketch::new(4_096);
        for _ in 0..12 {
            s.increment(1);
        }
        s.increment(2);
        assert!(s.estimate(1) > s.estimate(2));
    }

    #[test]
    fn size_is_reported() {
        let s = CountMinSketch::new(1_024);
        assert_eq!(s.size_bytes(), 4 * 1_024);
    }
}

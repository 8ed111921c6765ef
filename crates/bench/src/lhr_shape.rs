//! A training set shaped like the ones LHR fits at its bootstrap window
//! edge, for the `gbm` microbench and the `tests/gbm_golden.rs` case that
//! holds fits of it.
//!
//! LHR's rows (`lhr::features`) are `ln(size)`, `ln(1 + requests)`,
//! `ln(age)` and then `ln(IRT₁..IRT₂₀)`, where `IRT_k` is missing (NaN)
//! for an object seen fewer than `k` times before. Missingness is therefore
//! nested — column `k + 1` is missing wherever column `k` is — and rises
//! from ≈ 24 % at `IRT₁` to ≈ 59 % at `IRT₂₀`. HRO admits most requests,
//! so ≈ 89 % of the labels are 1. Every column has far more than 64
//! distinct values, so each one fills all of the binning's real bins.

use lhr_gbm::Dataset;

/// Columns of an LHR feature row: three static features and 20 IRTs.
pub const COLUMNS: usize = 23;
/// Rows of a bootstrap training set on `bin-lhr-shift`'s trace.
pub const BOOTSTRAP_ROWS: usize = 19_000;

/// `rows` LHR-shaped rows with 0/1 labels; the same `seed` gives the same
/// dataset.
pub fn dataset(rows: usize, seed: u64) -> Dataset {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut data = Dataset::new(COLUMNS);
    data.reserve(rows);
    let mut row = [0f32; COLUMNS];
    for _ in 0..rows {
        // Requests seen before this one: none for 24 % of rows, 1..=19 for
        // the next 35 %, at least 20 (every IRT present) for the rest.
        let u = (next() % 10_000) as f64 / 10_000.0;
        let seen = if u < 0.24 {
            0
        } else if u < 0.59 {
            1 + ((u - 0.24) / 0.35 * 19.0) as u64
        } else {
            20 + next() % 2_000
        };
        let size = 1 + next() % 1_000_000;
        row[0] = (size as f32).ln();
        row[1] = (1.0 + seen as f32).ln();
        row[2] = ((1 + next() % 100_000) as f32 / 10.0).ln();
        for (k, irt) in row[3..].iter_mut().enumerate() {
            *irt = if (k as u64) < seen {
                ((1 + next() % 100_000) as f32 / 100.0).ln()
            } else {
                f32::NAN
            };
        }
        // A first request is admitted three times in four, a recent one
        // almost always, a stale one nine times in ten.
        let admit = if seen == 0 {
            0.75
        } else if row[3] < 300f32.ln() {
            0.99
        } else {
            0.9
        };
        let label = ((next() % 10_000) as f64) < admit * 10_000.0;
        data.push_row(&row, label as u8 as f32);
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shape_is_what_the_docs_say() {
        let data = dataset(BOOTSTRAP_ROWS, 1);
        let rows = data.n_rows() as f64;
        let missing = |f: usize| {
            (0..data.n_rows())
                .filter(|&r| data.row(r)[f].is_nan())
                .count()
        };
        let first = missing(3) as f64 / rows;
        let last = missing(COLUMNS - 1) as f64 / rows;
        assert!((0.22..0.26).contains(&first), "IRT₁ missing {first}");
        assert!((0.57..0.61).contains(&last), "IRT₂₀ missing {last}");
        for r in 0..data.n_rows() {
            let row = data.row(r);
            assert!(
                (4..COLUMNS).all(|f| !row[f - 1].is_nan() || row[f].is_nan()),
                "row {r}: missingness is nested"
            );
        }
        let positive = data.labels().iter().sum::<f32>() as f64 / rows;
        assert!((0.87..0.91).contains(&positive), "positive {positive}");
        for f in 0..COLUMNS {
            let mut values: Vec<u32> = (0..data.n_rows())
                .map(|r| data.row(r)[f])
                .filter(|v| !v.is_nan())
                .map(f32::to_bits)
                .collect();
            values.sort_unstable();
            values.dedup();
            assert!(values.len() >= 64, "column {f}: {} values", values.len());
        }
    }
}

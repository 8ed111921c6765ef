//! Training data container and quantile binning.

use std::sync::OnceLock;

/// A dense, row-major training set. Missing feature values are `f32::NAN`.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    n_features: usize,
    /// Row-major feature matrix, `n_rows × n_features`.
    features: Vec<f32>,
    /// Regression targets, one per row.
    labels: Vec<f32>,
    /// Lazily built binning of the current rows, reused by every `fit` of
    /// them; reset by every mutation.
    cache: OnceLock<Binned>,
}

impl Dataset {
    /// An empty dataset whose rows will have `n_features` columns.
    pub fn new(n_features: usize) -> Self {
        assert!(n_features > 0, "need at least one feature");
        Dataset {
            n_features,
            features: Vec::new(),
            labels: Vec::new(),
            cache: OnceLock::new(),
        }
    }

    /// Reserves room for `rows` additional rows.
    pub fn reserve(&mut self, rows: usize) {
        self.features.reserve(rows * self.n_features);
        self.labels.reserve(rows);
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row.len() != n_features` or the label is not finite.
    pub fn push_row(&mut self, row: &[f32], label: f32) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        assert!(label.is_finite(), "labels must be finite");
        self.features.extend_from_slice(row);
        self.labels.push(label);
        self.cache = OnceLock::new();
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.labels.len()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The `i`-th row's features.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.features[i * self.n_features..(i + 1) * self.n_features]
    }

    /// All labels.
    pub fn labels(&self) -> &[f32] {
        &self.labels
    }

    /// Drops all rows, keeping the allocation (used when a sliding window
    /// rebuilds its training set).
    pub fn clear(&mut self) {
        self.features.clear();
        self.labels.clear();
        self.cache = OnceLock::new();
    }

    /// The binning of the current rows, built on first use and kept until
    /// the dataset is mutated.
    pub(crate) fn binned(&self) -> &Binned {
        self.cache.get_or_init(|| Binned::build(self))
    }
}

/// Per-feature quantile bin edges plus the prebinned (u8) feature matrix.
///
/// Bin index `MISSING_BIN` marks a missing (NaN) value. A value `v` falls
/// into bin `j` where `j` is the number of edges `< v` — i.e. edges are
/// *lower-exclusive* cut points, so `tree::SplitCandidate` thresholds can be
/// reconstructed as real feature values.
///
/// `codes` is stored **feature-major** (column-major): histogram
/// construction streams one contiguous `u8` column per feature instead of
/// striding `n_features` bytes between consecutive rows.
#[derive(Debug, Clone)]
pub(crate) struct Binned {
    pub n_features: usize,
    /// `edges[f]` — ascending cut values for feature `f` (may be empty when
    /// the feature is constant).
    pub edges: Vec<Vec<f32>>,
    /// Feature-major bin indices: `codes[f * n_rows + r]`.
    pub codes: Vec<u8>,
    pub n_rows: usize,
    /// Histogram slot layout: feature `f` owns slots
    /// `slot_offsets[f]..slot_offsets[f + 1]` in a node histogram — its
    /// `n_bins(f)` real bins followed by one missing-value slot.
    pub slot_offsets: Vec<usize>,
}

/// Bin code reserved for missing values.
pub(crate) const MISSING_BIN: u8 = u8::MAX;
/// Maximum number of real bins per feature (exclusive of the missing bin).
pub(crate) const MAX_BINS: usize = 64;

impl Binned {
    /// Builds quantile bins from the dataset and encodes every value.
    pub fn build(data: &Dataset) -> Binned {
        let n_features = data.n_features();
        let n_rows = data.n_rows();
        let mut edges: Vec<Vec<f32>> = vec![Vec::new(); n_features];
        let mut codes = vec![MISSING_BIN; n_rows * n_features];
        let mut keyed = Vec::with_capacity(n_rows);
        let mut spare = Vec::with_capacity(n_rows);
        for (f, (cuts, col)) in edges
            .iter_mut()
            .zip(codes.chunks_mut(n_rows.max(1)))
            .enumerate()
        {
            let column = data.features.iter().skip(f).step_by(n_features).copied();
            bin_column(column, &mut keyed, &mut spare, cuts, col);
        }
        let mut slot_offsets = Vec::with_capacity(n_features + 1);
        let mut total = 0usize;
        slot_offsets.push(0);
        for cuts in &edges {
            total += cuts.len() + 2; // real bins (edges + 1) + missing slot
            slot_offsets.push(total);
        }
        Binned {
            n_features,
            edges,
            codes,
            n_rows,
            slot_offsets,
        }
    }

    /// Bin index for row `r`, feature `f` (hot paths stream [`Binned::col`]
    /// instead; kept for tests and oracles).
    #[cfg(test)]
    #[inline]
    pub fn code(&self, r: usize, f: usize) -> u8 {
        self.codes[f * self.n_rows + r]
    }

    /// The contiguous code column of feature `f` (one `u8` per row).
    #[inline]
    pub fn col(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Total histogram slots across all features (see `slot_offsets`).
    pub fn n_slots(&self) -> usize {
        *self.slot_offsets.last().expect("offsets never empty")
    }

    /// Number of real bins for feature `f` (edges + 1).
    pub fn n_bins(&self, f: usize) -> usize {
        self.edges[f].len() + 1
    }

    /// The real-valued threshold "value ≤ edges\[f\]\[bin\]" that separates
    /// bins `0..=bin` from the rest.
    pub fn threshold(&self, f: usize, bin: u8) -> f32 {
        self.edges[f][bin as usize]
    }
}

/// Cuts and codes one feature column: `values` in row order, `col` its
/// code column (prefilled with [`MISSING_BIN`]), `keyed` and `spare`
/// scratch.
///
/// The finite values are sorted once, as `(order key, row)` pairs, and
/// that one sorted run yields both the cut points and every row's code:
/// a value's code is the number of cuts below it, which only grows along
/// the run. A non-finite value (NaN, ±inf) keeps the missing code.
fn bin_column(
    values: impl Iterator<Item = f32>,
    keyed: &mut Vec<u64>,
    spare: &mut Vec<u64>,
    cuts: &mut Vec<f32>,
    col: &mut [u8],
) {
    keyed.clear();
    keyed.extend(
        values
            .enumerate()
            .filter(|(_, v)| v.is_finite())
            .map(|(r, v)| (u64::from(order_key(v)) << 32) | r as u64),
    );
    radix_sort_by_key(keyed, spare);

    // The distinct values, as order keys in `spare`: one per run of
    // `==`-equal values, the run's first (so −0.0 stands for ±0.0 when
    // both occur).
    spare.clear();
    let mut prev = f32::NAN;
    for &pair in keyed.iter() {
        let v = from_order_key((pair >> 32) as u32);
        if v != prev {
            spare.push(pair >> 32);
            prev = v;
        }
    }
    let distinct = spare.len();
    cuts.clear();
    if distinct > 1 {
        let want = MAX_BINS.min(distinct);
        // Quantile cut points. A cut at value `e` separates `v ≤ e` from
        // `v > e`, so cuts are drawn from all distinct values except the
        // largest (a cut at the max separates nothing).
        for k in 1..=want.saturating_sub(1) {
            let idx = (k * distinct / want).max(1) - 1;
            let cut = from_order_key(spare[idx.min(distinct - 2)] as u32);
            if cuts.last() != Some(&cut) {
                cuts.push(cut);
            }
        }
    }

    // Codes: walking the run in ascending order, a value's code is the
    // count of cuts strictly below it.
    let mut code = 0usize;
    for &pair in keyed.iter() {
        let v = from_order_key((pair >> 32) as u32);
        while code < cuts.len() && cuts[code] < v {
            code += 1;
        }
        col[pair as u32 as usize] = code as u8;
    }
}

/// An unsigned key whose order is `f32::total_cmp`'s.
#[inline]
fn order_key(v: f32) -> u32 {
    let bits = v.to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// The value whose [`order_key`] is `key`.
#[inline]
fn from_order_key(key: u32) -> f32 {
    f32::from_bits(if key >> 31 == 1 {
        key & !(1 << 31)
    } else {
        !key
    })
}

/// Sorts `xs` by their upper 32 bits, stably — an LSD radix sort, one
/// byte per pass, skipping a pass in which every element shares the byte.
/// `spare` is scratch.
fn radix_sort_by_key(xs: &mut Vec<u64>, spare: &mut Vec<u64>) {
    let mut counts = [[0usize; 256]; 4];
    for &x in xs.iter() {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[(x >> (32 + 8 * pass)) as u8 as usize] += 1;
        }
    }
    for (pass, count) in counts.iter().enumerate() {
        if count.iter().any(|&c| c == xs.len()) {
            continue;
        }
        let mut next = [0usize; 256];
        let mut at = 0;
        for (slot, &c) in next.iter_mut().zip(count) {
            *slot = at;
            at += c;
        }
        spare.clear();
        spare.resize(xs.len(), 0);
        for &x in xs.iter() {
            let byte = (x >> (32 + 8 * pass)) as u8 as usize;
            spare[next[byte]] = x;
            next[byte] += 1;
        }
        std::mem::swap(xs, spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::bin_of;

    #[test]
    fn push_and_read_rows() {
        let mut d = Dataset::new(3);
        d.push_row(&[1.0, 2.0, 3.0], 0.5);
        d.push_row(&[4.0, f32::NAN, 6.0], 1.0);
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.row(0), &[1.0, 2.0, 3.0]);
        assert!(d.row(1)[1].is_nan());
        assert_eq!(d.labels(), &[0.5, 1.0]);
    }

    #[test]
    #[should_panic]
    fn wrong_width_panics() {
        let mut d = Dataset::new(2);
        d.push_row(&[1.0], 0.0);
    }

    #[test]
    #[should_panic]
    fn nan_label_panics() {
        let mut d = Dataset::new(1);
        d.push_row(&[1.0], f32::NAN);
    }

    #[test]
    fn binning_separates_values() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            d.push_row(&[i as f32], 0.0);
        }
        let b = Binned::build(&d);
        assert!(b.n_bins(0) > 10);
        // Codes are monotone in the underlying value.
        for r in 1..100 {
            assert!(b.code(r, 0) >= b.code(r - 1, 0));
        }
    }

    #[test]
    fn binning_handles_constant_feature() {
        let mut d = Dataset::new(2);
        for i in 0..10 {
            d.push_row(&[5.0, i as f32], 0.0);
        }
        let b = Binned::build(&d);
        assert_eq!(b.n_bins(0), 1);
        assert!((0..10).all(|r| b.code(r, 0) == 0));
    }

    #[test]
    fn binning_marks_missing() {
        let mut d = Dataset::new(1);
        d.push_row(&[1.0], 0.0);
        d.push_row(&[f32::NAN], 0.0);
        d.push_row(&[2.0], 0.0);
        let b = Binned::build(&d);
        assert_eq!(b.code(1, 0), MISSING_BIN);
        assert_ne!(b.code(0, 0), MISSING_BIN);
    }

    #[test]
    fn threshold_reconstruction_respects_encoding() {
        let mut d = Dataset::new(1);
        for v in [1.0f32, 2.0, 3.0, 4.0, 5.0] {
            d.push_row(&[v], 0.0);
        }
        let b = Binned::build(&d);
        // For every (bin, value) pair: value's bin ≤ bin iff value ≤ threshold(bin).
        for bin in 0..(b.n_bins(0) - 1) as u8 {
            let thr = b.threshold(0, bin);
            for v in [1.0f32, 2.0, 3.0, 4.0, 5.0] {
                let code = bin_of(&b.edges[0], v);
                assert_eq!(
                    code <= bin,
                    v <= thr,
                    "bin {bin} thr {thr} v {v} code {code}"
                );
            }
        }
    }

    #[test]
    fn slot_offsets_cover_bins_plus_missing() {
        let mut d = Dataset::new(2);
        for i in 0..100 {
            d.push_row(&[i as f32, 5.0], 0.0);
        }
        let b = Binned::build(&d);
        assert_eq!(b.slot_offsets.len(), 3);
        assert_eq!(b.slot_offsets[1], b.n_bins(0) + 1);
        assert_eq!(b.n_slots(), b.n_bins(0) + 1 + b.n_bins(1) + 1);
        assert_eq!(b.col(0).len(), 100);
    }

    #[test]
    fn feature_major_codes_roundtrip_against_row_major_oracle() {
        use lhr_util::{prop, prop_assert_eq, prop_check};
        // The binned matrix is stored feature-major; this property rebins
        // every value with a naive row-major oracle (including NaN rows and
        // a constant column) and asserts `code(r, f)` / `col(f)` agree.
        prop_check!(cases: 48, (cells in prop::vec(prop::range(0u32..9), 4..240),
                                 extra in prop::range(1usize..5)) => {
            let n_features = extra + 1; // feature 0 is held constant
            let n_rows = cells.len() / extra;
            if n_rows == 0 {
                return Ok(());
            }
            let mut d = Dataset::new(n_features);
            let mut raw: Vec<Vec<f32>> = Vec::with_capacity(n_rows);
            for r in 0..n_rows {
                let mut row = vec![5.0f32]; // constant column
                for f in 0..extra {
                    // Cell value 8 encodes a missing (NaN) entry.
                    let c = cells[r * extra + f];
                    row.push(if c == 8 { f32::NAN } else { c as f32 * 1.5 });
                }
                d.push_row(&row, 0.0);
                raw.push(row);
            }
            let b = Binned::build(&d);
            for (r, row) in raw.iter().enumerate() {
                for (f, &v) in row.iter().enumerate() {
                    let expected = if v.is_finite() {
                        bin_of(&b.edges[f], v)
                    } else {
                        MISSING_BIN
                    };
                    prop_assert_eq!(b.code(r, f), expected,
                        "row {} feature {} value {}", r, f, v);
                    prop_assert_eq!(b.col(f)[r], expected,
                        "column access row {} feature {}", r, f);
                }
            }
            // The constant column collapses to a single real bin.
            prop_assert_eq!(b.n_bins(0), 1);
        });
    }

    #[test]
    fn binning_survives_nan_and_infinite_columns() {
        // Regression: the quantile sort must be NaN-total, and ±inf (which
        // passes no `is_finite` gate at *predict* time) must encode
        // deterministically. A column that is mostly NaN/±inf still bins.
        let mut d = Dataset::new(2);
        for i in 0..40 {
            let x0 = match i % 4 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => i as f32,
            };
            d.push_row(&[x0, i as f32], 0.0);
        }
        let b = Binned::build(&d);
        for r in 0..40 {
            match r % 4 {
                0 | 1 | 2 => assert_eq!(b.code(r, 0), MISSING_BIN, "row {r}"),
                _ => assert_ne!(b.code(r, 0), MISSING_BIN, "row {r}"),
            }
        }
        // bin_of itself is total on ±inf: -inf sorts before every edge,
        // +inf after all of them.
        assert_eq!(bin_of(&b.edges[0], f32::NEG_INFINITY), 0);
        assert_eq!(
            bin_of(&b.edges[0], f32::INFINITY) as usize,
            b.edges[0].len()
        );
    }

    #[test]
    fn dedup_repeated_values() {
        let mut d = Dataset::new(1);
        for _ in 0..50 {
            d.push_row(&[7.0], 0.0);
            d.push_row(&[9.0], 0.0);
        }
        let b = Binned::build(&d);
        assert_eq!(b.n_bins(0), 2);
    }
}

//! Set-at-a-time forest scoring on pre-binned codes — the batched
//! quantized serving path.
//!
//! [`crate::flat::FlatForest`]'s single-row kernel still pays a load
//! chain per tree per level. For whole datasets this module removes the
//! chase entirely by evaluating *blocks of 64 rows* as bit masks:
//!
//! 1. **Predicate masks.** Every distinct split predicate
//!    `(feature, threshold, default_left)` in the forest becomes one
//!    64-bit mask per block: bit `l` set ⟺ row `l` goes *left*. On a
//!    [`Binned`] matrix the predicate is a `u8` compare against the cut's
//!    bin index (`code ≤ cut ⟺ value ≤ edges[cut]`, exact for every
//!    `f32` — see [`BitsetForest::resolve`]), so one AVX-512 `vpcmpleub`
//!    evaluates a predicate for 64 rows in a single instruction.
//! 2. **Reach propagation.** Each tree is padded to a complete binary
//!    tree of the forest's max depth (≤ [`MAX_DEPTH`]); a node's *reach
//!    mask* (which rows arrive at it) splits into its children with one
//!    AND and one ANDNOT. Processing eight blocks per ZMM register scores
//!    512 rows per sweep. Per level, the union of the "went right" masks
//!    is one *direction bit* per row.
//! 3. **Leaf lookup.** The per-level direction bits concatenate into each
//!    row's leaf index; leaf values resolve 16 rows at a time with a
//!    two-register permute and accumulate in tree order with `f32` adds
//!    from the base score — bit-identical to the per-row reference walk.
//!
//! The portable scalar kernel below implements the same three stages on
//! one 64-row block at a time (also used for sub-block tails), so results
//! are identical on every architecture; the AVX-512 kernel is selected at
//! runtime and is where the ~10x over the per-row walk comes from.

use crate::dataset::{Binned, MISSING_BIN};
use crate::tree::Tree;

/// Deepest tree the bitset and padded layouts support (64 leaves). Matches
/// the default `GbmParams::max_depth`; deeper hand-tuned forests are scored
/// by the reference walk instead.
pub(crate) const MAX_DEPTH: u32 = 6;

/// Rows per bit-mask block.
const BLOCK: usize = 64;

/// Blocks per AVX-512 superblock (eight `u64` masks per ZMM register).
const SB_BLOCKS: usize = 8;

/// Rows per AVX-512 superblock.
const SB: usize = BLOCK * SB_BLOCKS;

/// Reserved predicate slot whose mask is all-ones: every row goes left.
/// Pads short branches and fills unreachable slots.
const ALWAYS: u16 = 0;

/// One distinct split predicate: "row goes left ⟺ `value ≤ thr`, with
/// NaN routed by `default_left`".
#[derive(Debug, Clone)]
struct Pred {
    feature: u32,
    thr: f32,
    default_left: bool,
}

/// A fitted forest in padded complete-tree layout over deduplicated
/// predicates, ready for block scoring. Built once per model; the
/// per-dataset cut resolution happens in [`BitsetForest::resolve`].
#[derive(Debug, Clone)]
pub(crate) struct BitsetForest {
    n_features: usize,
    /// Uniform padded depth, `1..=MAX_DEPTH`.
    depth: u32,
    n_trees: usize,
    /// `preds[0]` is the reserved [`ALWAYS`] predicate (never read —
    /// kernels special-case slot 0); the rest are sorted by feature.
    preds: Vec<Pred>,
    /// Per feature: the contiguous `preds` index range using it.
    feat_ranges: Vec<(u32, u32)>,
    /// Per tree: `(1 << depth) - 1` level-order predicate slots.
    /// Position `p` of level `lv` lives at `(1 << lv) - 1 + p`; its
    /// children are positions `2p` (left) and `2p + 1` (right).
    slots: Vec<u16>,
    /// Per tree: leaf values padded to 64 entries (a leaf at level `lv`,
    /// position `p` lands at index `p << (depth - lv)` — the all-left
    /// descent through its [`ALWAYS`]-padded subtree).
    leaves: Vec<f32>,
}

impl BitsetForest {
    /// Lays out `trees`, or `None` when the forest doesn't fit the padded
    /// layout (a tree deeper than [`MAX_DEPTH`], or a malformed
    /// out-of-range feature index in hand-written model JSON).
    pub(crate) fn build(trees: &[Tree], n_features: usize) -> Option<BitsetForest> {
        let depth = trees
            .iter()
            .map(crate::flat::tree_depth)
            .max()
            .unwrap_or(0)
            .max(1);
        if depth > MAX_DEPTH {
            return None;
        }
        for tree in trees {
            for n in &tree.nodes {
                if n.feature != u32::MAX && n.feature as usize >= n_features {
                    return None;
                }
            }
        }
        // Deduplicate predicates, then sort by feature so stage 1 touches
        // each code column once per block.
        let mut keys: Vec<(u32, u32, bool)> = trees
            .iter()
            .flat_map(|t| &t.nodes)
            .filter(|n| n.feature != u32::MAX)
            .map(|n| (n.feature, n.threshold.to_bits(), n.default_left))
            .collect();
        keys.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        keys.dedup();
        if keys.len() + 1 > u16::MAX as usize {
            return None;
        }
        let mut preds = Vec::with_capacity(keys.len() + 1);
        preds.push(Pred {
            feature: 0,
            thr: 0.0,
            default_left: true,
        });
        for &(feature, thr_bits, default_left) in &keys {
            preds.push(Pred {
                feature,
                thr: f32::from_bits(thr_bits),
                default_left,
            });
        }
        let mut feat_ranges = Vec::with_capacity(n_features);
        for f in 0..n_features as u32 {
            let lo = 1 + keys.partition_point(|k| k.0 < f);
            let hi = 1 + keys.partition_point(|k| k.0 <= f);
            feat_ranges.push((lo as u32, hi as u32));
        }
        let slot_of = |feature: u32, thr: f32, dl: bool| -> u16 {
            let key = (feature, thr.to_bits(), dl);
            (1 + keys.binary_search(&key).expect("predicate was pooled")) as u16
        };

        let n_pos = (1usize << depth) - 1;
        let mut forest = BitsetForest {
            n_features,
            depth,
            n_trees: trees.len(),
            preds,
            feat_ranges,
            slots: vec![ALWAYS; trees.len() * n_pos],
            leaves: vec![0.0; trees.len() * BLOCK],
        };
        for (t, tree) in trees.iter().enumerate() {
            let slots = &mut forest.slots[t * n_pos..(t + 1) * n_pos];
            let leaves = &mut forest.leaves[t * BLOCK..(t + 1) * BLOCK];
            // Iterative DFS placing arena node `i` at (level, pos).
            let mut stack = vec![(0u32, 0u32, 0u32)];
            while let Some((i, lv, pos)) = stack.pop() {
                let n = &tree.nodes[i as usize];
                if n.feature == u32::MAX {
                    // Leaf: all-left through the padded subtree below it.
                    leaves[(pos << (depth - lv)) as usize] = n.value;
                } else {
                    slots[(1usize << lv) - 1 + pos as usize] =
                        slot_of(n.feature, n.threshold, n.default_left);
                    stack.push((n.left, lv + 1, 2 * pos));
                    stack.push((n.right, lv + 1, 2 * pos + 1));
                }
            }
        }
        Some(forest)
    }

    /// Resolves every predicate threshold to a bin index of `binned`:
    /// `cuts[pi]` satisfies `value ≤ thr ⟺ bin_of(value) ≤ cuts[pi]` for
    /// *every* `f32` value (±inf included), which holds exactly when the
    /// threshold equals the edge `binned.edges[f][cuts[pi]]`. Thresholds
    /// of a trained model are bin edges of its training dataset by
    /// construction, so resolution always succeeds there; against a
    /// differently-binned dataset it returns `None` and the caller serves
    /// from the raw path. Value equality (not bit equality) suffices: the
    /// only non-identical equal pair is `-0.0 == 0.0`, and `v ≤ -0.0 ⟺
    /// v ≤ 0.0` for every `v`.
    pub(crate) fn resolve(&self, binned: &Binned) -> Option<Vec<u8>> {
        debug_assert_eq!(binned.n_features, self.n_features);
        let mut cuts = vec![0u8; self.preds.len()];
        for (pi, p) in self.preds.iter().enumerate().skip(1) {
            let edges = &binned.edges[p.feature as usize];
            let i = edges.partition_point(|&e| e < p.thr);
            if !edges.get(i).is_some_and(|&e| e == p.thr) {
                return None;
            }
            debug_assert!(i < MISSING_BIN as usize);
            cuts[pi] = i as u8;
        }
        Some(cuts)
    }

    /// Raw (pre-transform) scores for rows `start..start + out.len()` of
    /// `binned`, written into `out`. `cuts` must come from
    /// [`BitsetForest::resolve`] against the same `binned`.
    pub(crate) fn score_range(
        &self,
        binned: &Binned,
        cuts: &[u8],
        base: f32,
        start: usize,
        out: &mut [f32],
    ) {
        let mut done = 0usize;
        #[cfg(target_arch = "x86_64")]
        if out.len() - done >= SB
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            let full = (out.len() / SB) * SB;
            let mut scratch = avx512::Scratch::new(self);
            while done < full {
                // SAFETY contract of the kernel: detected features above,
                // and `start + done .. + SB` is in range for `binned`.
                avx512::superblock(
                    self,
                    binned,
                    cuts,
                    base,
                    start + done,
                    &mut out[done..done + SB],
                    &mut scratch,
                );
                done += SB;
            }
        }
        let mut pmask = vec![0u64; self.preds.len()];
        while done < out.len() {
            let n = BLOCK.min(out.len() - done);
            self.block_scalar(
                binned,
                cuts,
                base,
                start + done,
                &mut out[done..done + n],
                &mut pmask,
            );
            done += n;
        }
    }

    /// Portable one-block (≤ 64 rows) kernel: the same three stages as the
    /// AVX-512 path, on plain `u64` masks.
    fn block_scalar(
        &self,
        binned: &Binned,
        cuts: &[u8],
        base: f32,
        row0: usize,
        out: &mut [f32],
        pmask: &mut [u64],
    ) {
        let n = out.len();
        debug_assert!(n <= BLOCK);
        let valid: u64 = if n == BLOCK { !0 } else { (1u64 << n) - 1 };
        // Stage 1: one mask per predicate.
        for (f, &(lo, hi)) in self.feat_ranges.iter().enumerate() {
            if lo == hi {
                continue;
            }
            let col = &binned.col(f)[row0..row0 + n];
            let mut miss = 0u64;
            for (l, &c) in col.iter().enumerate() {
                miss |= ((c == MISSING_BIN) as u64) << l;
            }
            for pi in lo as usize..hi as usize {
                let cut = cuts[pi];
                let mut m = 0u64;
                for (l, &c) in col.iter().enumerate() {
                    m |= ((c <= cut) as u64) << l;
                }
                if self.preds[pi].default_left {
                    m |= miss;
                }
                pmask[pi] = m;
            }
        }
        pmask[ALWAYS as usize] = !0;

        let depth = self.depth as usize;
        let n_pos = (1usize << depth) - 1;
        let mut acc = [base; BLOCK];
        let mut reach = [0u64; BLOCK];
        for t in 0..self.n_trees {
            let slots = &self.slots[t * n_pos..(t + 1) * n_pos];
            let leaves = &self.leaves[t * BLOCK..(t + 1) * BLOCK];
            reach[0] = valid;
            // Stage 2: expand in place, levels forward, positions
            // descending (writes land at indices ≥ the pending reads).
            for lv in 0..depth {
                let base_i = (1usize << lv) - 1;
                for p in (0..(1usize << lv)).rev() {
                    let r = reach[p];
                    let m = pmask[slots[base_i + p] as usize];
                    reach[2 * p + 1] = r & !m;
                    reach[2 * p] = r & m;
                }
            }
            // Stage 3: one leaf-value add per reached row, tree order.
            for (p, &v) in leaves.iter().enumerate().take(1 << depth) {
                let mut m = reach[p];
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    acc[l] += v;
                }
            }
        }
        out.copy_from_slice(&acc[..n]);
    }
}

/// The AVX-512 superblock kernel. Isolated `unsafe`: raw SIMD loads and
/// stores over slices whose bounds the safe caller has already checked,
/// plus `#[target_feature]` dispatch guarded by runtime detection in
/// [`BitsetForest::score_range`].
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use super::{BitsetForest, ALWAYS, BLOCK, SB, SB_BLOCKS};
    use crate::dataset::{Binned, MISSING_BIN};
    use std::arch::x86_64::*;

    /// Per-call reusable buffers (all `[item][SB_BLOCKS]` of `u64`).
    pub(super) struct Scratch {
        /// One mask per predicate per block.
        pmask: Vec<u64>,
        /// Reach frontier: ≤ 32 positions.
        reach: Vec<u64>,
        /// Went-right masks: `[tree][level][block]`.
        dirs: Vec<u64>,
    }

    impl Scratch {
        pub(super) fn new(forest: &BitsetForest) -> Scratch {
            Scratch {
                pmask: vec![0u64; forest.preds.len() * SB_BLOCKS],
                reach: vec![0u64; 32 * SB_BLOCKS],
                dirs: vec![0u64; forest.n_trees * forest.depth as usize * SB_BLOCKS],
            }
        }
    }

    /// Scores rows `row0..row0 + SB` of `binned` into `out` (length `SB`).
    /// Caller guarantees `avx512f` + `avx512bw` are available and the row
    /// range is in bounds.
    pub(super) fn superblock(
        forest: &BitsetForest,
        binned: &Binned,
        cuts: &[u8],
        base: f32,
        row0: usize,
        out: &mut [f32],
        scratch: &mut Scratch,
    ) {
        debug_assert_eq!(out.len(), SB);
        // SAFETY: the caller checked the target features at runtime; all
        // pointer arithmetic below stays inside the checked slices.
        unsafe { superblock_impl(forest, binned, cuts, base, row0, out, scratch) }
    }

    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn superblock_impl(
        forest: &BitsetForest,
        binned: &Binned,
        cuts: &[u8],
        base: f32,
        row0: usize,
        out: &mut [f32],
        scratch: &mut Scratch,
    ) {
        let depth = forest.depth as usize;
        let n_pos = (1usize << depth) - 1;

        // ---- Stage 1: predicate masks, eight blocks per compare sweep.
        let pmask = scratch.pmask.as_mut_ptr();
        for b in 0..SB_BLOCKS {
            *pmask.add(ALWAYS as usize * SB_BLOCKS + b) = !0u64;
        }
        let missv = _mm512_set1_epi8(MISSING_BIN as i8);
        for (f, &(lo, hi)) in forest.feat_ranges.iter().enumerate() {
            if lo == hi {
                continue;
            }
            let col = &binned.col(f)[row0..row0 + SB];
            let mut code_v = [_mm512_setzero_si512(); SB_BLOCKS];
            let mut miss = [0u64; SB_BLOCKS];
            for b in 0..SB_BLOCKS {
                code_v[b] = _mm512_loadu_si512(col.as_ptr().add(b * BLOCK) as *const _);
                miss[b] = _mm512_cmpeq_epi8_mask(code_v[b], missv);
            }
            for pi in lo as usize..hi as usize {
                let cutv = _mm512_set1_epi8(cuts[pi] as i8);
                let dl = if forest.preds[pi].default_left {
                    !0u64
                } else {
                    0
                };
                let dst = pmask.add(pi * SB_BLOCKS);
                for b in 0..SB_BLOCKS {
                    let k = _mm512_cmple_epu8_mask(code_v[b], cutv);
                    *dst.add(b) = k | (dl & miss[b]);
                }
            }
        }

        // ---- Stage 2: reach propagation + per-level direction masks.
        let reach = scratch.reach.as_mut_ptr();
        for t in 0..forest.n_trees {
            let slots = &forest.slots[t * n_pos..(t + 1) * n_pos];
            _mm512_storeu_si512(reach as *mut _, _mm512_set1_epi64(-1i64));
            for lv in 0..depth {
                let base_i = (1usize << lv) - 1;
                let mut d = _mm512_setzero_si512();
                if lv + 1 < depth {
                    for p in (0..(1usize << lv)).rev() {
                        let r = _mm512_loadu_si512(reach.add(p * SB_BLOCKS) as *const _);
                        let m = _mm512_loadu_si512(
                            pmask.add(slots[base_i + p] as usize * SB_BLOCKS) as *const _,
                        );
                        let right = _mm512_andnot_si512(m, r);
                        let left = _mm512_and_si512(m, r);
                        d = _mm512_or_si512(d, right);
                        _mm512_storeu_si512(reach.add((2 * p + 1) * SB_BLOCKS) as *mut _, right);
                        _mm512_storeu_si512(reach.add(2 * p * SB_BLOCKS) as *mut _, left);
                    }
                } else {
                    // Deepest level: only the direction union is needed.
                    for p in 0..(1usize << lv) {
                        let r = _mm512_loadu_si512(reach.add(p * SB_BLOCKS) as *const _);
                        let m = _mm512_loadu_si512(
                            pmask.add(slots[base_i + p] as usize * SB_BLOCKS) as *const _,
                        );
                        // d |= r & !m (ternary-logic truth table 0xF4).
                        d = _mm512_ternarylogic_epi64::<0xF4>(d, r, m);
                    }
                }
                _mm512_storeu_si512(
                    scratch.dirs.as_mut_ptr().add((t * depth + lv) * SB_BLOCKS) as *mut _,
                    d,
                );
            }
        }

        // ---- Stage 3: direction bits → leaf index bytes → permute adds.
        for b in 0..SB_BLOCKS {
            let mut acc = [_mm512_set1_ps(base); 4];
            for t in 0..forest.n_trees {
                let dirs = scratch.dirs.as_ptr().add(t * depth * SB_BLOCKS);
                let mut idx = _mm512_setzero_si512();
                for lv in 0..depth {
                    let k: __mmask64 = *dirs.add(lv * SB_BLOCKS + b);
                    let bytev = _mm512_movm_epi8(k);
                    let bit = _mm512_set1_epi8(1i8 << (depth - 1 - lv));
                    // idx |= bytev & bit (truth table 0xF8).
                    idx = _mm512_ternarylogic_epi64::<0xF8>(idx, bytev, bit);
                }
                let lv = forest.leaves.as_ptr().add(t * BLOCK);
                let t0 = _mm512_loadu_ps(lv);
                let t1 = _mm512_loadu_ps(lv.add(16));
                let t2 = _mm512_loadu_ps(lv.add(32));
                let t3 = _mm512_loadu_ps(lv.add(48));
                let high = _mm512_set1_epi32(32);
                let quads = [
                    _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32::<0>(idx)),
                    _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32::<1>(idx)),
                    _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32::<2>(idx)),
                    _mm512_cvtepu8_epi32(_mm512_extracti32x4_epi32::<3>(idx)),
                ];
                for (qi, q) in quads.into_iter().enumerate() {
                    let lov = _mm512_permutex2var_ps(t0, q, t1);
                    let hiv = _mm512_permutex2var_ps(t2, q, t3);
                    let kh = _mm512_test_epi32_mask(q, high);
                    let v = _mm512_mask_blend_ps(kh, lov, hiv);
                    acc[qi] = _mm512_add_ps(acc[qi], v);
                }
            }
            for (qi, &a) in acc.iter().enumerate() {
                _mm512_storeu_ps(out.as_mut_ptr().add(b * BLOCK + qi * 16), a);
            }
        }
    }
}

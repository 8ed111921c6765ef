//! Fast, deterministic hashing for hot-path maps.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 behind a per-process
//! `RandomState`. That costs two ways on a cache's request path: SipHash
//! needs ~1 ns even for an 8-byte key, and the random seed makes map
//! iteration order differ between *processes*, which is how latent
//! nondeterminism sneaks into replay reports (see ARCHITECTURE.md,
//! "Determinism contract").
//!
//! [`FastHasher`] is an FxHash-style multiplicative hasher (the rustc
//! compiler's interner hash) with a **fixed seed**: one rotate, one xor,
//! and one multiply per 8-byte word. Keys here are object ids — already
//! high-entropy u64s or small dense integers — for which the multiply's
//! avalanche is plenty; it is *not* a DoS-resistant hash and must not be
//! keyed by untrusted remote input.
//!
//! [`FastMap`]/[`FastSet`] are drop-in aliases. Because the seed is fixed,
//! two processes replaying the same trace build byte-identical tables —
//! but iteration order is still *arbitrary* (it depends on capacity and
//! insertion history), so decision paths must never depend on it: sort, or
//! keep a side order (dense vec / insertion slab), before iterating.
//!
//! # Example
//!
//! ```
//! use lhr_util::hash::FastMap;
//!
//! let mut m: FastMap<u64, &str> = FastMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// The classic Fx multiplier (the golden-ratio-derived odd constant used
/// by Firefox and rustc).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fixed-seed FxHash-style hasher: `hash = (hash.rotl(5) ^ word) * K`
/// per 8-byte word. Deterministic across processes, platforms, and runs.
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold in the length so "ab" and "ab\0" differ.
            self.add_to_hash(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }
    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// The `BuildHasher` for [`FastHasher`] — zero-sized, fixed seed.
pub type FastState = BuildHasherDefault<FastHasher>;

/// `HashMap` with the fast deterministic hasher. Construct with
/// `FastMap::default()`.
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;

/// `HashSet` with the fast deterministic hasher. Construct with
/// `FastSet::default()`.
pub type FastSet<T> = std::collections::HashSet<T, FastState>;

/// SplitMix64 (Steele, Lea & Flood 2014) of `x`: a golden-ratio Weyl step,
/// then a full-avalanche mix. The sketches' hash of an object id, and the
/// output of [`crate::rng::SplitMix64`] at state `x`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `u64` key as [`FastMap`] hashes it per lookup.
    fn hash_u64(key: u64) -> u64 {
        let mut h = FastHasher::default();
        h.write_u64(key);
        h.finish()
    }

    #[test]
    fn deterministic_across_hasher_instances() {
        let h = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(h(b"object-7"), h(b"object-7"));
        assert_ne!(h(b"object-7"), h(b"object-8"));
    }

    #[test]
    fn u64_keys_hash_pinned_values() {
        // Golden values: the hash is part of the determinism contract
        // (ARCHITECTURE.md) — changing it reorders every map and must be a
        // deliberate, version-noted decision.
        assert_eq!(hash_u64(0), 0);
        assert_eq!(hash_u64(1), 0x517c_c1b7_2722_0a95);
        // 0x9E37_79B9_7F4A_7C15 * K mod 2^64 (hash starts at 0, so the
        // first word reduces to a bare multiply).
        assert_eq!(hash_u64(0x9E37_79B9_7F4A_7C15), 10594965232939764281);
    }

    #[test]
    fn splitmix64_is_the_reference_mix() {
        // The published first outputs of SplitMix64 seeded with 0 and 1.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn tail_bytes_and_length_both_matter() {
        let h = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefg"));
    }

    #[test]
    fn map_and_set_work_with_u64_keys() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        let mut s: FastSet<u64> = FastSet::default();
        for i in 0..1_000u64 {
            m.insert(i, i * 2);
            s.insert(i * 3);
        }
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.get(&999), Some(&1998));
        assert!(s.contains(&2997));
        assert!(!s.contains(&2998));
    }

    #[test]
    fn iteration_order_is_process_independent() {
        // Same insertions ⇒ same iteration order, every run of every
        // process (this is what RandomState deliberately broke).
        let build = || {
            let mut m: FastMap<u64, ()> = FastMap::default();
            for i in 0..100u64 {
                m.insert(i * 0x9E37_79B9, ());
            }
            m.keys().copied().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn sequential_and_sparse_keys_spread() {
        // The multiply must avalanche enough that neither dense nor
        // strided ids collapse onto a few buckets (a 4× worst bucket would
        // show up as quadratic probe behavior).
        for stride in [1u64, 8, 4096, 0x1_0000_0001] {
            let mut buckets = [0usize; 64];
            for i in 0..6_400u64 {
                buckets[(hash_u64(i * stride) >> 58) as usize] += 1;
            }
            let max = *buckets.iter().max().expect("non-empty");
            assert!(max < 400, "stride {stride}: worst bucket {max}/6400");
        }
    }
}

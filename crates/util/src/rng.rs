//! Deterministic, seedable pseudo-random number generation.
//!
//! This module replaces the `rand` crate for the whole workspace. The design
//! constraints come from the paper reproduction itself (see DESIGN.md):
//!
//! - **Bit-reproducible.** Every figure/table run is keyed by a `u64` seed;
//!   the same seed must yield the identical request stream on every platform
//!   and every build. All generators here are pure integer arithmetic with
//!   fixed constants — no platform entropy, no `getrandom`.
//! - **Cheap.** Policies keep a generator per instance for random-sampling
//!   eviction; [`Xoshiro256pp`] is four `u64`s of state and a handful of
//!   xor/rotate ops per draw.
//!
//! Three engines are provided:
//!
//! - [`SplitMix64`] — 64-bit state; used to expand one `u64` seed into the
//!   larger states of the other engines (and fine as an RNG on its own).
//! - [`Pcg64`] — PCG XSL-RR 128/64; the workspace's default "statistical
//!   quality first" generator ([`rngs::StdRng`]).
//! - [`Xoshiro256pp`] — xoshiro256++; the "speed first" generator
//!   ([`rngs::SmallRng`]) policies embed per instance.
//!
//! # Example
//!
//! ```
//! use lhr_util::rng::{Rng, SeedableRng, rngs::SmallRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let u: f64 = rng.gen();          // uniform in [0, 1)
//! assert!((0.0..1.0).contains(&u));
//! let d = rng.gen_range(1..7);     // uniform integer in [1, 7)
//! assert!((1..7).contains(&d));
//! let mut deck: Vec<u32> = (0..52).collect();
//! rng.shuffle(&mut deck);          // Fisher–Yates, in place
//! assert_eq!(deck.len(), 52);
//! ```

use std::ops::Range;

/// Construction of a generator from a 64-bit seed.
///
/// Seeding discipline: a single `u64` is expanded through [`SplitMix64`]
/// into however many state words the engine needs. This matches the scheme
/// recommended by the xoshiro authors and guarantees that nearby seeds
/// (0, 1, 2, …) still produce decorrelated streams.
pub trait SeedableRng: Sized {
    /// Builds a generator whose entire state is derived from `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A source of uniformly distributed `u64`s plus derived sampling helpers.
///
/// Implemented by all engines in this module and by `&mut R` for any
/// `R: Rng`, so `fn f<R: Rng + ?Sized>(rng: &mut R)` call chains compose.
pub trait Rng {
    /// The core primitive: the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Draws a value of type `T` from its canonical distribution:
    /// full-range for integers, uniform `[0, 1)` for floats, fair coin for
    /// `bool`.
    ///
    /// ```
    /// use lhr_util::rng::{Rng, SeedableRng, rngs::StdRng};
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let x: f64 = rng.gen();
    /// assert!((0.0..1.0).contains(&x));
    /// ```
    #[inline]
    fn gen<T: Sample>(&mut self) -> T {
        T::sample(self)
    }

    /// Uniform draw from the half-open range `lo..hi`.
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }

    /// Uniform in-place Fisher–Yates shuffle.
    #[inline]
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = usize::sample_range(self, 0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Standard normal draw (mean 0, variance 1) via Box–Muller.
    #[inline]
    fn gen_gaussian(&mut self) -> f64 {
        // Reject u1 == 0 so ln() stays finite.
        let mut u1 = f64::sample(self);
        while u1 <= f64::MIN_POSITIVE {
            u1 = f64::sample(self);
        }
        let u2 = f64::sample(self);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Pareto draw with scale `x_min > 0` and shape `alpha > 0` (support
    /// `[x_min, ∞)`), by inversion.
    #[inline]
    fn gen_pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        debug_assert!(x_min > 0.0 && alpha > 0.0);
        let u = 1.0 - f64::sample(self); // (0, 1]
        x_min * u.powf(-1.0 / alpha)
    }

    /// Exponential draw with the given `rate` (mean `1/rate`), by inversion.
    #[inline]
    fn gen_exp(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0);
        let u = 1.0 - f64::sample(self); // (0, 1] keeps ln() finite
        -u.ln() / rate
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types drawable via [`Rng::gen`].
pub trait Sample {
    /// Draws one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for u64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for u8 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl Sample for usize {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl Sample for i64 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as i64
    }
}

impl Sample for i32 {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as i32
    }
}

impl Sample for bool {
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types usable with [`Rng::gen_range`].
pub trait UniformRange: Sized {
    /// Uniform draw from `lo..hi`; panics if the range is empty.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// Maps a uniform `u64` onto `[0, span)` by 128-bit widening multiply
/// (Lemire's method, without the rejection step: the residual bias is
/// ≤ `span / 2^64`, far below anything observable here).
#[inline]
fn bounded(x: u64, span: u64) -> u64 {
    ((x as u128 * span as u128) >> 64) as u64
}

macro_rules! uniform_int_range {
    ($($t:ty),+) => {$(
        impl UniformRange for $t {
            #[inline]
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = range.end.wrapping_sub(range.start) as u64;
                range.start.wrapping_add(bounded(rng.next_u64(), span) as $t)
            }
        }
    )+};
}

uniform_int_range!(u8, u16, u32, usize, i32, i64);

impl UniformRange for u64 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let span = range.end - range.start;
        range.start + bounded(rng.next_u64(), span)
    }
}

impl UniformRange for f64 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let u = f64::sample(rng);
        range.start + (range.end - range.start) * u
    }
}

impl UniformRange for f32 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "gen_range: empty range");
        let u = f32::sample(rng);
        range.start + (range.end - range.start) * u
    }
}

/// SplitMix64 (Steele, Lea & Flood 2014): one additive `u64` of state with a
/// strong avalanche output mix. Used to seed the larger engines; also a
/// perfectly serviceable generator by itself.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Builds the generator directly from its state word.
    #[inline]
    pub fn new(state: u64) -> Self {
        SplitMix64 { state }
    }
}

impl SeedableRng for SplitMix64 {
    #[inline]
    fn seed_from_u64(seed: u64) -> Self {
        SplitMix64::new(seed)
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let z = crate::hash::splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }
}

/// PCG XSL-RR 128/64 (O'Neill 2014): a 128-bit LCG with an
/// xorshift-then-rotate output permutation. 64 bits out per step, period
/// 2^128, excellent statistical quality — the workspace default
/// ([`rngs::StdRng`]).
#[derive(Debug, Clone)]
pub struct Pcg64 {
    state: u128,
}

/// The PCG 128-bit LCG multiplier.
const PCG_MUL: u128 = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645;
/// Default stream increment (must be odd).
const PCG_INC: u128 = 0x5851_F42D_4C95_7F2D_1405_7B7E_F767_814F;

impl Pcg64 {
    #[inline]
    fn step(&mut self) {
        self.state = self.state.wrapping_mul(PCG_MUL).wrapping_add(PCG_INC);
    }
}

impl SeedableRng for Pcg64 {
    fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        let hi = mix.next_u64() as u128;
        let lo = mix.next_u64() as u128;
        let mut rng = Pcg64 {
            state: (hi << 64) | lo,
        };
        // One warm-up step so the first output already mixes the seed
        // through the LCG (matches reference pcg64 initialization shape).
        rng.step();
        rng
    }
}

impl Rng for Pcg64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step();
        let xored = (self.state >> 64) as u64 ^ self.state as u64;
        let rot = (self.state >> 122) as u32;
        xored.rotate_right(rot)
    }
}

/// xoshiro256++ (Blackman & Vigna 2019): four `u64`s of state, a few
/// xor/shift/rotate ops per draw, period 2^256 − 1. The "speed first"
/// engine ([`rngs::SmallRng`]) that policies embed one-per-instance.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl SeedableRng for Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        // SplitMix64 never yields four zeros, so the all-zero (degenerate)
        // state is unreachable.
        Xoshiro256pp {
            s: [
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
            ],
        }
    }
}

impl Rng for Xoshiro256pp {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Drop-in engine aliases mirroring `rand::rngs` so call sites read the
/// same: `StdRng` for trace generation and experiments (quality first),
/// `SmallRng` for per-policy-instance sampling (speed first).
pub mod rngs {
    /// Default generator: [`super::Pcg64`].
    pub type StdRng = super::Pcg64;
    /// Small/fast generator: [`super::Xoshiro256pp`].
    pub type SmallRng = super::Xoshiro256pp;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c (Vigna).
        let mut rng = SplitMix64::seed_from_u64(1234567);
        let got: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                6457827717110365317,
                3203168211198807973,
                9817491932198370423
            ]
        );
    }

    #[test]
    fn xoshiro_reference_smoke() {
        // First outputs for the state {1, 2, 3, 4} from xoshiro256plusplus.c.
        let mut rng = Xoshiro256pp { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 41943041);
        assert_eq!(rng.next_u64(), 58720359);
    }

    #[test]
    fn engines_are_deterministic_per_seed() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let mut a = Pcg64::seed_from_u64(seed);
            let mut b = Pcg64::seed_from_u64(seed);
            for _ in 0..100 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
            let mut a = Xoshiro256pp::seed_from_u64(seed);
            let mut b = Xoshiro256pp::seed_from_u64(seed);
            for _ in 0..100 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn nearby_seeds_decorrelate() {
        let mut a = Xoshiro256pp::seed_from_u64(0);
        let mut b = Xoshiro256pp::seed_from_u64(1);
        let same = (0..1000).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_in_range_and_cover() {
        let mut rng = Pcg64::seed_from_u64(9);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            lo |= u < 0.1;
            hi |= u > 0.9;
        }
        assert!(lo && hi, "10k draws never reached the tails");
    }

    #[test]
    fn gen_range_is_uniform_ish() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.gen_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn gen_range_respects_negative_and_float_bounds() {
        let mut rng = Pcg64::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
            let f = rng.gen_range(-2.5f64..2.5);
            assert!((-2.5..2.5).contains(&f));
        }
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        let mut rng = Pcg64::seed_from_u64(0);
        rng.gen_range(5..5u64);
    }

    #[test]
    fn gen_bool_tracks_p() {
        let mut rng = Pcg64::seed_from_u64(11);
        let heads = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((28_000..32_000).contains(&heads), "{heads}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left 100 elements in order");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Pcg64::seed_from_u64(21);
        let n = 100_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.gen_gaussian()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn pareto_support_and_median() {
        let mut rng = Pcg64::seed_from_u64(31);
        let mut draws: Vec<f64> = (0..50_000).map(|_| rng.gen_pareto(2.0, 1.5)).collect();
        assert!(draws.iter().all(|&x| x >= 2.0));
        draws.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        // Median of Pareto(x_min, α) is x_min * 2^(1/α).
        let expected = 2.0 * 2f64.powf(1.0 / 1.5);
        let got = draws[draws.len() / 2];
        assert!(
            (got - expected).abs() / expected < 0.05,
            "median {got} vs {expected}"
        );
    }

    #[test]
    fn exp_mean() {
        let mut rng = Pcg64::seed_from_u64(41);
        let n = 100_000;
        let mean = (0..n).map(|_| rng.gen_exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn works_through_mut_references() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            let mut r = rng;
            // Call through `&mut (&mut R)` to exercise `impl Rng for &mut R`.
            Rng::next_u64(&mut r)
        }
        let mut rng = Pcg64::seed_from_u64(2);
        let a = draw(&mut rng);
        let b = draw(&mut rng);
        assert_ne!(a, b);
    }
}

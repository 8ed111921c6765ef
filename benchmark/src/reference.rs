//! The host-speed reference: a fixed load whose running time says how fast
//! the machine is *right now*.
//!
//! The benchmark's host is a small guest on a shared machine, and the speed
//! the guest gets moves with its neighbours: by 10–20 % from one second to
//! the next and, in phases that last minutes, by 30–50 %. `lhr-cache` is
//! deterministic, so that movement is all there is between two runs of one
//! commit — and it is wider than any admissible bound. No statistic of a
//! 25 s run removes a phase that outlasts the run.
//!
//! So every timed operation is bracketed by two runs of this load — a fresh
//! process like the CLI, spawned and reaped the same way — and its time is
//! scaled by [`NOMINAL_S`] ÷ the mean of the two: the time it would have
//! taken on a host on which the reference takes [`NOMINAL_S`]. The load is
//! part of the benchmark, so it is the same code on both sides of every
//! comparison.
//!
//! What the load does was chosen by measurement: it has to slow down by as
//! much as `lhr-cache` does when the host does. The neighbours take most
//! from code that keeps a core's execution units busy (parsing, hashing: up
//! to 2×) and least from a single chain of dependent arithmetic or loads
//! (1.1–1.4×); `lhr-cache` sits between the two. Three parts — first-touching
//! and chasing through 32 MB, parsing 16 MB of decimal text out of a 2 MB
//! buffer, and 800 000 skewed updates of a 200 000-key hash map — summed,
//! follow all four workloads with a log-log slope of 0.75–1.03 and a
//! correlation of 0.86–0.99 over 14 s segments, where a memory-and-arithmetic
//! load alone had slopes of 1.3–1.9 (it under-corrects) and the parser or the
//! hash map alone 0.7–0.8.

use crate::child::Exit;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::io::Write;
use std::process::ExitCode;

/// The argument that turns this executable into one reference run.
pub const ARG: &str = "__reference";

/// What one reference run takes, wall and CPU alike (it is single-threaded),
/// on this kind of host when nothing contends for it. It only fixes the
/// scale of the normalised metrics; no comparison depends on it.
pub const NOMINAL_S: f64 = 0.080;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// First-touches and fills 32 MB (page faults, streaming stores), then
/// follows a million dependent loads through it (cache and TLB misses).
fn memory() -> u64 {
    const WORDS: usize = 1 << 22;
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut table: Vec<u64> = Vec::with_capacity(WORDS);
    for _ in 0..WORDS {
        x = xorshift(x);
        table.push(x);
    }
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..1_000_000 {
        let word = table[at];
        acc = acc.wrapping_add(word);
        at = word as usize & (WORDS - 1);
    }
    acc
}

/// Parses 2 MB of comma-separated decimals eight times over: byte loads,
/// unpredictable branches, short multiply chains, all out of the cache.
fn parse() -> u64 {
    let mut x = 88_172_645_463_325_252_u64;
    let mut text = Vec::with_capacity(1 << 21);
    while text.len() < (1 << 21) - 32 {
        x = xorshift(x);
        let (a, b, c) = (x % 100_000, (x >> 20) % 1_000_000, (x >> 40) % 10_000_000);
        writeln!(text, "{a},{b},{c}").expect("writing to a Vec");
    }
    let mut acc = 0u64;
    for _ in 0..8 {
        let mut value = 0u64;
        for &byte in &text {
            if byte.is_ascii_digit() {
                value = value * 10 + u64::from(byte - b'0');
            } else {
                acc = acc.wrapping_add(value);
                value = 0;
            }
        }
    }
    acc
}

/// Updates a hash map of up to 200 000 keys 800 000 times, keys skewed to the
/// low end as a cache index's are: hashing, probing, growth and rehashing.
fn index() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut acc = 0u64;
    for i in 0..800_000u64 {
        x = xorshift(x);
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        let key = (200_000.0 * unit * unit * unit) as u64;
        let slot = map.entry(key).or_insert(0);
        *slot += i;
        acc = acc.wrapping_add(*slot);
    }
    acc
}

fn load() -> u64 {
    memory() ^ parse() ^ index()
}

/// `main` of one reference run.
pub fn main() -> ExitCode {
    black_box(load());
    ExitCode::SUCCESS
}

/// How fast the host ran between two reference runs, as a share of the
/// nominal host's speed (1.0 = nominal, 0.5 = everything takes twice as
/// long). Multiplying a measured time by it gives the time on the nominal
/// host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    pub wall: f64,
    pub cpu: f64,
}

impl HostSpeed {
    /// From the reference runs just before and just after an operation.
    pub fn between(before: &Exit, after: &Exit) -> HostSpeed {
        HostSpeed {
            wall: NOMINAL_S / ((before.wall_s + after.wall_s) / 2.0),
            cpu: NOMINAL_S / ((before.cpu_s + after.cpu_s) / 2.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exit(wall_s: f64, cpu_s: f64) -> Exit {
        Exit {
            success: true,
            wall_s,
            cpu_s,
            maxrss_mb: 34.0,
        }
    }

    #[test]
    fn speed_is_nominal_over_the_bracketing_mean() {
        let speed = HostSpeed::between(&exit(0.08, 0.04), &exit(0.24, 0.12));
        assert!((speed.wall - 0.5).abs() < 1e-12);
        assert!((speed.cpu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_load_is_the_same_work_every_time() {
        assert_eq!(load(), load());
    }
}

//! Exact offline optimum for *tiny* traces, by exhaustive search with
//! memoization and pruning.
//!
//! Computing OPT with variable object sizes is NP-hard (Chrobak et al.
//! 2012), so this is exponential in the worst case and deliberately
//! restricted to short traces (≤ ~25 requests, small object populations).
//! Its purpose is validation: every polynomial *upper bound* in this crate
//! must dominate it, and every feasible policy must be dominated by it —
//! properties the test suites assert on randomized tiny traces.
//!
//! The model matches the bounds' setting: on each request the cache may
//! admit the (missed) object and evict any set of cached objects
//! (eviction is free, bypassing is allowed), and a request is a hit iff
//! the object is cached when it arrives.

use lhr_sim::bound::{base_metrics, next_use_indices, OfflineBound, NEVER};
use lhr_sim::SimMetrics;
use lhr_trace::Trace;
use std::collections::HashMap;

/// The exact optimum (exhaustive search). See the module docs for limits.
#[derive(Debug, Clone, Default)]
pub struct ExactOpt {
    /// Hard cap on trace length; longer traces panic (the search would not
    /// finish). Default 25.
    pub max_requests: usize,
}

impl ExactOpt {
    /// An oracle allowing traces up to `max_requests` long.
    pub fn new(max_requests: usize) -> Self {
        ExactOpt { max_requests }
    }

    fn limit(&self) -> usize {
        if self.max_requests == 0 {
            25
        } else {
            self.max_requests
        }
    }
}

impl OfflineBound for ExactOpt {
    fn name(&self) -> &str {
        "ExactOPT"
    }

    fn evaluate(&self, trace: &Trace, capacity: u64) -> SimMetrics {
        assert!(
            trace.len() <= self.limit(),
            "ExactOpt is exponential; trace has {} requests (limit {})",
            trace.len(),
            self.limit()
        );
        let mut metrics = base_metrics(trace);
        if trace.is_empty() {
            return metrics;
        }

        // Dense object ids.
        let mut ids: Vec<u64> = trace.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(
            ids.len() <= 64,
            "ExactOpt supports at most 64 distinct objects"
        );
        let index_of: HashMap<u64, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let sizes: Vec<u64> = ids
            .iter()
            .map(|&id| trace.iter().find(|r| r.id == id).expect("present").size)
            .collect();
        let requests: Vec<usize> = trace.iter().map(|r| index_of[&r.id]).collect();
        let next_use = next_use_indices(trace.iter().map(|r| r.id));

        // DP over (request index, cache bitmask) → max hits from here on.
        // Masks always satisfy the capacity constraint.
        let mut memo: HashMap<(usize, u64), u64> = HashMap::new();
        let total_size = |mask: u64| -> u64 {
            let mut sum = 0;
            let mut m = mask;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                sum += sizes[bit];
                m &= m - 1;
            }
            sum
        };

        // Recursive search with an explicit stack-free memoized recursion
        // (trace lengths are tiny, plain recursion is fine).
        fn solve(
            i: usize,
            mask: u64,
            requests: &[usize],
            sizes: &[u64],
            next_use: &[u64],
            capacity: u64,
            total_size: &dyn Fn(u64) -> u64,
            memo: &mut HashMap<(usize, u64), u64>,
        ) -> u64 {
            if i == requests.len() {
                return 0;
            }
            // Canonicalize: drop objects never used again — they cannot
            // contribute hits, so discarding them is always optimal and
            // shrinks the state space.
            let mut mask = mask;
            {
                let mut m = mask;
                while m != 0 {
                    let bit = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let obj_used_later = (i..requests.len()).any(|j| requests[j] == bit);
                    if !obj_used_later {
                        mask &= !(1u64 << bit);
                    }
                }
            }
            if let Some(&v) = memo.get(&(i, mask)) {
                return v;
            }
            let obj = requests[i];
            let bit = 1u64 << obj;
            let best = if mask & bit != 0 {
                // Hit; the object may stay or be dropped afterwards (the
                // canonicalization will drop it if useless).
                1 + solve(
                    i + 1,
                    mask,
                    requests,
                    sizes,
                    next_use,
                    capacity,
                    total_size,
                    memo,
                )
            } else {
                // Miss: choose any subset of current contents to keep such
                // that the new object fits (or bypass it). Enumerate
                // subsets of the (tiny) mask.
                let mut best = solve(
                    i + 1,
                    mask,
                    requests,
                    sizes,
                    next_use,
                    capacity,
                    total_size,
                    memo,
                ); // bypass
                if sizes[obj] <= capacity && next_use[i] != NEVER {
                    // Admission: iterate subsets of mask to keep.
                    let mut keep = mask;
                    loop {
                        if sizes[obj] <= capacity - total_size(keep) {
                            let v = solve(
                                i + 1,
                                keep | bit,
                                requests,
                                sizes,
                                next_use,
                                capacity,
                                total_size,
                                memo,
                            );
                            best = best.max(v);
                        }
                        if keep == 0 {
                            break;
                        }
                        keep = (keep - 1) & mask;
                    }
                }
                best
            };
            memo.insert((i, mask), best);
            best
        }

        let hits = solve(
            0,
            0,
            &requests,
            &sizes,
            &next_use,
            capacity,
            &total_size,
            &mut memo,
        );
        metrics.hits = hits;
        metrics.misses_admitted = metrics.requests - hits;
        // Byte hits are not tracked by the DP (hit identity is ambiguous
        // among equal-value solutions); leave at zero.
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::belady::{Belady, BeladySize};
    use crate::pfoo::{PfooLower, PfooUpper};
    use lhr_trace::{Request, Time};

    fn trace_of(specs: &[(u64, u64)]) -> Trace {
        Trace::from_requests(
            "t",
            specs
                .iter()
                .enumerate()
                .map(|(i, &(id, size))| Request::new(Time::from_secs(i as u64), id, size))
                .collect(),
        )
    }

    #[test]
    fn equal_sizes_match_belady_size_and_dominate_belady() {
        // With equal sizes, Bélády-Size (= MIN + bypass) is optimal in the
        // oracle's bypass-allowed model; demand-paging MIN (no bypass) may
        // do strictly worse (e.g. a cyclic scan through a capacity-1
        // cache, where bypassing lets OPT pin one object).
        let patterns: [&[u64]; 4] = [
            &[1, 2, 3, 1, 2, 3, 1, 2, 3],
            &[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5],
            &[1, 1, 1, 2, 2, 3],
            &[5, 4, 3, 2, 1, 1, 2, 3, 4, 5],
        ];
        for ids in patterns {
            let t = trace_of(&ids.iter().map(|&id| (id, 1)).collect::<Vec<_>>());
            for capacity in 1..=3u64 {
                let exact = ExactOpt::default().evaluate(&t, capacity).hits;
                let belady_size = BeladySize.evaluate(&t, capacity).hits;
                let belady = Belady.evaluate(&t, capacity).hits;
                assert_eq!(exact, belady_size, "ids {ids:?} capacity {capacity}");
                assert!(exact >= belady, "ids {ids:?} capacity {capacity}");
            }
        }
    }

    #[test]
    fn variable_sizes_can_beat_belady_size() {
        // A case where the greedy Belady-Size heuristic is suboptimal:
        // keeping two small objects beats keeping one large one even
        // though the large one's next use is sooner.
        // capacity 2: big object B (size 2) requested at 1,3; smalls x,y
        // (size 1 each) requested at 2,4 and 2,5.
        let t = trace_of(&[(10, 2), (11, 1), (12, 1), (10, 2), (11, 1), (12, 1)]);
        let exact = ExactOpt::default().evaluate(&t, 2).hits;
        let heuristic = BeladySize.evaluate(&t, 2).hits;
        assert!(exact >= heuristic);
        assert_eq!(exact, 2, "OPT keeps the two small objects");
    }

    #[test]
    fn pfoo_upper_dominates_exact_and_exact_dominates_pfoo_lower() {
        // Randomized tiny traces.
        use lhr_util::rng::rngs::StdRng;
        use lhr_util::rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for case in 0..40 {
            let n = rng.gen_range(4..16);
            let specs: Vec<(u64, u64)> = (0..n)
                .map(|_| (rng.gen_range(0..6u64), rng.gen_range(1..5u64)))
                .collect();
            // Per-object stable sizes: size keyed by id.
            let specs: Vec<(u64, u64)> = specs.iter().map(|&(id, _)| (id, id + 1)).collect();
            let t = trace_of(&specs);
            let capacity = rng.gen_range(2..10u64);
            let exact = ExactOpt::default().evaluate(&t, capacity).hits;
            let upper = PfooUpper.evaluate(&t, capacity).hits;
            let lower = PfooLower.evaluate(&t, capacity).hits;
            assert!(
                upper >= exact,
                "case {case}: PFOO-U {upper} < OPT {exact}\n{specs:?} cap {capacity}"
            );
            assert!(
                exact >= lower,
                "case {case}: OPT {exact} < PFOO-L {lower}\n{specs:?} cap {capacity}"
            );
        }
    }

    #[test]
    fn exact_dominates_belady_size_on_random_tiny_traces() {
        use lhr_util::rng::rngs::StdRng;
        use lhr_util::rng::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for case in 0..40 {
            let n = rng.gen_range(4..14);
            let specs: Vec<(u64, u64)> = (0..n)
                .map(|_| (rng.gen_range(0..5u64), 0))
                .map(|(id, _)| (id, 2 * id + 1))
                .collect();
            let t = trace_of(&specs);
            let capacity = rng.gen_range(1..12u64);
            let exact = ExactOpt::default().evaluate(&t, capacity).hits;
            let heuristic = BeladySize.evaluate(&t, capacity).hits;
            assert!(
                exact >= heuristic,
                "case {case}: OPT {exact} < Belady-Size {heuristic}\n{specs:?} cap {capacity}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn refuses_long_traces() {
        let specs: Vec<(u64, u64)> = (0..100).map(|i| (i % 5, 1)).collect();
        ExactOpt::default().evaluate(&trace_of(&specs), 3);
    }

    #[test]
    fn empty_trace() {
        let m = ExactOpt::default().evaluate(&Trace::new("e"), 5);
        assert_eq!(m.hits, 0);
    }
}

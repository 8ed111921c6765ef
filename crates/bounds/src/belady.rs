//! Bélády's MIN and its size-aware community variant.

use lhr_sim::bound::{base_metrics, belady_replay, OfflineBound};
use lhr_sim::{Outcome, SimMetrics};
use lhr_trace::Trace;

/// Bélády's MIN (1966): evict the object whose next request is farthest in
/// the future. Exact OPT when all objects have the same size, in which case
/// `capacity` is interpreted in bytes and holds `capacity / object_size`
/// objects. On variable-size traces MIN's farthest-future eviction remains
/// well-defined (this is what the community plots as "Bélády") but is no
/// longer provably optimal — that is precisely the gap the paper's Figure 2
/// illustrates.
#[derive(Debug, Clone, Default)]
pub struct Belady;

/// The size-aware Bélády variant (`Bélády-Size`): on a miss the object is
/// admitted only if it is "worth" evicting everything needed — eviction
/// removes farthest-next-use objects first and stops (bypassing the
/// newcomer) if a would-be victim is requested again sooner than the
/// newcomer.
#[derive(Debug, Clone, Default)]
pub struct BeladySize;

/// Tallies [`belady_replay`] over `trace`. `admission_aware` distinguishes
/// Bélády-Size (true) from plain MIN (false: always admit, evict farthest).
fn run(trace: &Trace, capacity: u64, admission_aware: bool) -> SimMetrics {
    let mut metrics = base_metrics(trace);
    let requests = trace.iter().map(|req| (req.id, req.size));
    let outcomes = belady_replay(requests, capacity, admission_aware);
    for (req, outcome) in trace.iter().zip(outcomes) {
        match outcome {
            Outcome::Hit => {
                metrics.hits += 1;
                metrics.bytes_hit += req.size as u128;
            }
            Outcome::MissAdmitted => metrics.misses_admitted += 1,
            Outcome::MissBypassed => metrics.misses_bypassed += 1,
        }
    }
    metrics
}

impl OfflineBound for Belady {
    fn name(&self) -> &str {
        "Belady"
    }
    fn evaluate(&self, trace: &Trace, capacity: u64) -> SimMetrics {
        run(trace, capacity, false)
    }
}

impl OfflineBound for BeladySize {
    fn name(&self) -> &str {
        "Belady-Size"
    }
    fn evaluate(&self, trace: &Trace, capacity: u64) -> SimMetrics {
        run(trace, capacity, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhr_sim::store::{CacheStore, SampleStore};
    use lhr_sim::{CachePolicy, SimConfig, Simulator};
    use lhr_trace::{Request, Time};

    fn uniform_trace(ids: &[u64]) -> Trace {
        Trace::from_requests(
            "t",
            ids.iter()
                .enumerate()
                .map(|(i, &id)| Request::new(Time::from_secs(i as u64), id, 1))
                .collect(),
        )
    }

    #[test]
    fn textbook_belady_example() {
        // Classic example: pages 1 2 3 4 1 2 5 1 2 3 4 5, capacity 3 →
        // MIN gives 7 faults / 5 hits... (for this sequence OPT faults:
        // 1,2,3,4,5,3,4 = 7). Verify against a brute-force-known value.
        let t = uniform_trace(&[1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5]);
        let m = Belady.evaluate(&t, 3);
        assert_eq!(m.misses(), 7);
        assert_eq!(m.hits, 5);
    }

    #[test]
    fn belady_beats_lru_on_looping_pattern() {
        // Cyclic access over capacity+1 objects: LRU gets 0 hits, MIN hits.
        let ids: Vec<u64> = (0..60).map(|i| i % 4).collect();
        let t = uniform_trace(&ids);
        let belady = Belady.evaluate(&t, 3);
        let mut lru = lhr_policies_test_lru(3);
        let lru_result = Simulator::new(SimConfig::default()).run(&mut lru, &t);
        assert_eq!(lru_result.metrics.hits, 0, "LRU should thrash on a loop");
        assert!(
            belady.hits > 30,
            "MIN should retain most of the loop: {}",
            belady.hits
        );
    }

    /// Minimal LRU local to the test (the policies crate depends on sim,
    /// not the other way around).
    fn lhr_policies_test_lru(capacity: u64) -> impl CachePolicy {
        struct MiniLru {
            store: SampleStore<()>,
            /// Held ids, LRU first.
            order: Vec<u64>,
        }
        impl CachePolicy for MiniLru {
            fn name(&self) -> &str {
                "mini-lru"
            }
            fn store(&self) -> &dyn CacheStore {
                &self.store
            }
            fn store_mut(&mut self) -> &mut dyn CacheStore {
                &mut self.store
            }
            fn handle(&mut self, req: &Request) -> lhr_sim::Outcome {
                if let Some(pos) = self.order.iter().position(|&id| id == req.id) {
                    let id = self.order.remove(pos);
                    self.order.push(id);
                    return lhr_sim::Outcome::Hit;
                }
                if req.size > self.store.capacity() {
                    return lhr_sim::Outcome::MissBypassed;
                }
                while !self.store.fits(req.size) {
                    let victim = self.order.remove(0);
                    let pos = self.store.position(victim).expect("held");
                    self.store.evict_at(pos);
                }
                self.order.push(req.id);
                self.store.push(req.id, req.size, req.ts, ());
                lhr_sim::Outcome::MissAdmitted
            }
        }
        MiniLru {
            store: SampleStore::new(capacity),
            order: Vec::new(),
        }
    }

    #[test]
    fn belady_size_skips_never_again_objects() {
        let mut reqs = Vec::new();
        // Object 1 requested repeatedly; one-hit wonders interleaved.
        for i in 0..10u64 {
            reqs.push(Request::new(Time::from_secs(2 * i), 1, 3));
            reqs.push(Request::new(Time::from_secs(2 * i + 1), 100 + i, 3));
        }
        let t = Trace::from_requests("t", reqs);
        let m = BeladySize.evaluate(&t, 3);
        // Object 1 always cached; every one-hit wonder bypassed.
        assert_eq!(m.hits, 9);
        assert_eq!(m.misses_bypassed, 10);
    }

    #[test]
    fn belady_size_at_least_matches_belady_on_skewed_sizes() {
        // Big useless object vs small useful ones.
        let reqs = vec![
            Request::new(Time::from_secs(0), 1, 10), // big, reused rarely
            Request::new(Time::from_secs(1), 2, 2),
            Request::new(Time::from_secs(2), 3, 2),
            Request::new(Time::from_secs(3), 2, 2),
            Request::new(Time::from_secs(4), 3, 2),
            Request::new(Time::from_secs(5), 1, 10),
            Request::new(Time::from_secs(6), 2, 2),
            Request::new(Time::from_secs(7), 3, 2),
        ];
        let t = Trace::from_requests("t", reqs);
        let plain = Belady.evaluate(&t, 10);
        let sized = BeladySize.evaluate(&t, 10);
        assert!(
            sized.hits >= plain.hits,
            "sized {} < plain {}",
            sized.hits,
            plain.hits
        );
    }

    #[test]
    fn oversized_objects_bypassed() {
        let t = Trace::from_requests(
            "t",
            vec![
                Request::new(Time::from_secs(0), 1, 100),
                Request::new(Time::from_secs(1), 1, 100),
            ],
        );
        let m = BeladySize.evaluate(&t, 50);
        assert_eq!(m.hits, 0);
        assert_eq!(m.misses_bypassed, 2);
    }

    #[test]
    fn full_capacity_caches_everything_after_first_touch() {
        let ids: Vec<u64> = (0..20).map(|i| i % 5).collect();
        let t = uniform_trace(&ids);
        let m = Belady.evaluate(&t, 5);
        assert_eq!(m.hits, 15);
        assert_eq!(m.misses(), 5);
    }
}

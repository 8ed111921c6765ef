//! Parallel simulation grids.
//!
//! The paper's figures sweep policies × cache sizes × traces. Individual
//! simulations are single-threaded and independent, so the sweep fans them
//! out over scoped threads (CPU-bound work ⇒ plain threads, not an async
//! runtime).

use crate::engine::{SimConfig, SimResult, Simulator};
use crate::policy::CachePolicy;
use lhr_obs::Obs;
use lhr_trace::Trace;
use lhr_util::sync::claim_each;

/// A named policy constructor: given a capacity in bytes, builds a fresh
/// policy instance.
pub struct PolicyFactory {
    /// Display name used in result tables.
    pub name: String,
    /// Builds the policy for a given capacity.
    pub build: Box<dyn Fn(u64) -> Box<dyn CachePolicy> + Sync>,
}

impl PolicyFactory {
    /// Convenience constructor.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn(u64) -> Box<dyn CachePolicy> + Sync + 'static,
    ) -> Self {
        PolicyFactory {
            name: name.into(),
            build: Box::new(build),
        }
    }
}

/// One cell of a sweep: which policy, trace, and capacity to run.
#[derive(Debug, Clone, Copy)]
pub struct Cell<'a> {
    /// Index into the factory list.
    pub policy: usize,
    /// The trace to replay.
    pub trace: &'a Trace,
    /// Cache capacity in bytes.
    pub capacity: u64,
}

/// Runs every `(policy, trace, capacity)` combination, in parallel across
/// `threads` workers, preserving input order in the result vector.
///
/// With a recorder, each worker gets a private shard recorder (the
/// [`crate::shard`] pattern — a `SpanTree` assumes one thread per recorder)
/// and wraps every cell it claims in a `sweep.cell` span; the shards are
/// absorbed into `obs` in worker order once the scope ends. All workers
/// share the single span path, so the merged span count is exactly
/// `cells.len()` and — in deterministic mode — the export is
/// byte-identical at any thread count even though *which* worker ran a
/// given cell is a race.
pub fn run_grid(
    factories: &[PolicyFactory],
    cells: &[Cell<'_>],
    config: &SimConfig,
    threads: usize,
    obs: Option<&Obs>,
) -> Vec<SimResult> {
    assert!(threads > 0, "need at least one worker");
    let workers = threads.min(cells.len().max(1));
    let worker_obs: Vec<Obs> = match obs {
        Some(master) => (0..workers)
            .map(|_| Obs::new(master.config().clone()))
            .collect(),
        None => Vec::new(),
    };
    // Workers claim cells off a shared queue and write each result into
    // the cell's own slot, so the vector comes back in input order.
    let mut results: Vec<Option<SimResult>> = (0..cells.len()).map(|_| None).collect();
    claim_each(&mut results, workers, |w, i, slot| {
        let cell = &cells[i];
        let _cell_span = worker_obs.get(w).map(|o| o.span("sweep.cell"));
        let factory = &factories[cell.policy];
        let mut policy = (factory.build)(cell.capacity);
        *slot = Some(Simulator::new(config.clone()).run(&mut policy, cell.trace));
    });

    if let Some(master) = obs {
        master.absorb_shards(&worker_obs);
        master.counter_add("sweep.cells", cells.len() as u64);
    }

    results
        .into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Outcome;
    use lhr_trace::{ObjectId, Request, Time};
    use std::collections::HashMap;

    /// Cache-everything-until-full policy (no eviction) for sweep tests.
    struct FillOnce {
        capacity: u64,
        used: u64,
        cached: HashMap<ObjectId, Time>,
    }

    impl CachePolicy for FillOnce {
        fn name(&self) -> &str {
            "fill-once"
        }
        fn capacity(&self) -> u64 {
            self.capacity
        }
        fn used_bytes(&self) -> u64 {
            self.used
        }
        fn admitted_at(&self, id: ObjectId) -> Option<Time> {
            self.cached.get(&id).copied()
        }
        fn restamp(&mut self, id: ObjectId, at: Time) {
            if let Some(stamp) = self.cached.get_mut(&id) {
                *stamp = at;
            }
        }
        fn handle(&mut self, req: &Request) -> Outcome {
            if self.cached.contains_key(&req.id) {
                return Outcome::Hit;
            }
            if self.used + req.size <= self.capacity {
                self.cached.insert(req.id, req.ts);
                self.used += req.size;
                Outcome::MissAdmitted
            } else {
                Outcome::MissBypassed
            }
        }
    }

    fn trace() -> Trace {
        let mut t = Trace::new("cycle");
        for i in 0..300u64 {
            t.push(Request::new(Time::from_secs(i), i % 3, 100));
        }
        t
    }

    fn factory() -> PolicyFactory {
        PolicyFactory::new("fill-once", |capacity| {
            Box::new(FillOnce {
                capacity,
                used: 0,
                cached: HashMap::new(),
            })
        })
    }

    #[test]
    fn grid_preserves_order() {
        let t = trace();
        let factories = vec![factory(), factory()];
        let cells = vec![
            Cell {
                policy: 0,
                trace: &t,
                capacity: 100,
            },
            Cell {
                policy: 1,
                trace: &t,
                capacity: 300,
            },
        ];
        let results = run_grid(&factories, &cells, &SimConfig::default(), 4, None);
        assert_eq!(results.len(), 2);
        assert!(results[0].metrics.object_hit_ratio() < results[1].metrics.object_hit_ratio());
    }

    #[test]
    fn single_thread_works() {
        let t = trace();
        let cells = [Cell {
            policy: 0,
            trace: &t,
            capacity: 300,
        }];
        let results = run_grid(&[factory()], &cells, &SimConfig::default(), 1, None);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn empty_cells_is_fine() {
        let results = run_grid(&[], &[], &SimConfig::default(), 2, None);
        assert!(results.is_empty());
    }

    /// One `sweep.cell` span per cell, and a deterministic-mode export that
    /// is byte-identical regardless of how many workers raced for cells.
    #[test]
    fn grid_obs_is_thread_count_invariant() {
        use lhr_obs::{Obs, ObsConfig};
        let t = trace();
        let factories = vec![factory(), factory()];
        let cells: Vec<Cell<'_>> = (0..6)
            .map(|i| Cell {
                policy: i % 2,
                trace: &t,
                capacity: 100 + 50 * i as u64,
            })
            .collect();
        let config = ObsConfig {
            deterministic: true,
            ..ObsConfig::default()
        };
        let export = |threads: usize| {
            let obs = Obs::new(config.clone());
            run_grid(
                &factories,
                &cells,
                &SimConfig::default(),
                threads,
                Some(&obs),
            );
            obs.to_jsonl()
        };
        let one = export(1);
        assert!(one.contains("sweep.cell"), "{one}");
        assert!(one.contains("sweep.cells"), "{one}");
        assert_eq!(one, export(4));
        assert_eq!(one, export(8));
    }
}

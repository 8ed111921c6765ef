//! Trace-driven cache simulator engine.
//!
//! This crate is the evaluation vehicle shared by every policy and bound in
//! the workspace (in the spirit of libCacheSim, which the paper's own
//! simulator builds on):
//!
//! - [`policy::CachePolicy`] — the admission + eviction interface every
//!   online cache implements.
//! - [`engine::Simulator`] — the one simulator, collecting
//!   [`metrics::SimMetrics`] (and, with a recorder attached, the obs window
//!   series) through two entry points that share one per-request step and
//!   one finish: [`Simulator::run`] drives a trace through a borrowed
//!   policy, [`Simulator::run_sharded`] through one policy instance per
//!   key-hash shard, thread-parallel, merged in shard order so results and
//!   obs exports are byte-identical at any thread count.
//! - [`ledger::Ledger`] — the one running count under both the simulator
//!   and `lhr-proto`'s serving layers: warmup cut, `lhr_obs::series::Totals`,
//!   the window series fed from them, and the shard-order merge.
//! - [`shard`] — the thread-parallel replay driver under the latter (and
//!   under `lhr-proto`'s engine and fleet): key-hash sharding and a one-pass
//!   [`shard::Partition`] of the trace whose shards run start to finish on
//!   whichever worker claims them.
//! - [`store::SampleStore`] — the byte-bounded slot array every sampling
//!   policy keeps its objects in (the `lhr-policies` samplers, `LhrCache`
//!   and its threshold estimator's shadow cache): position index,
//!   `swap_remove` fix-up, byte accounting and the freshness stamp of
//!   [`policy::CachePolicy`]'s contract, once.
//! - [`bound::OfflineBound`] — the interface for (offline or online) upper
//!   bounds on OPT, which see the whole trace instead of reacting
//!   request-by-request — and [`bound::belady_replay`], the future-aware
//!   replay under `lhr-bounds`' Bélády bounds and LFO's training labels.
//!
//! # Example
//!
//! ```
//! use lhr_sim::engine::{SimConfig, Simulator};
//! use lhr_sim::policy::{CachePolicy, Outcome};
//! use lhr_trace::{Request, Trace, Time};
//!
//! // A trivially small policy: cache everything, never evict (infinite cap).
//! // Each cached id maps to its freshness stamp (see `CachePolicy`).
//! struct Infinite { used: u64, cached: std::collections::HashMap<u64, Time> }
//! impl CachePolicy for Infinite {
//!     fn name(&self) -> &str { "infinite" }
//!     fn capacity(&self) -> u64 { u64::MAX }
//!     fn used_bytes(&self) -> u64 { self.used }
//!     fn admitted_at(&self, id: u64) -> Option<Time> { self.cached.get(&id).copied() }
//!     fn restamp(&mut self, id: u64, at: Time) {
//!         if let Some(stamp) = self.cached.get_mut(&id) { *stamp = at; }
//!     }
//!     fn handle(&mut self, req: &Request) -> Outcome {
//!         if self.cached.contains_key(&req.id) { return Outcome::Hit; }
//!         self.cached.insert(req.id, req.ts);
//!         self.used += req.size;
//!         Outcome::MissAdmitted
//!     }
//! }
//!
//! let trace = Trace::from_requests("t", vec![
//!     Request::new(Time::from_secs(0), 1, 100),
//!     Request::new(Time::from_secs(1), 1, 100),
//! ]);
//! let mut policy = Infinite { used: 0, cached: Default::default() };
//! let result = Simulator::new(SimConfig::default()).run(&mut policy, &trace);
//! assert_eq!(result.metrics.hits, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod engine;
pub mod ledger;
pub mod metrics;
pub mod policy;
pub mod shard;
pub mod store;

pub use bound::OfflineBound;
pub use engine::{SimConfig, SimResult, Simulator};
pub use metrics::SimMetrics;
pub use policy::{CachePolicy, Outcome};
pub use shard::RouteConfig;

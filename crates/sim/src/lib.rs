//! Trace-driven cache simulator engine.
//!
//! This crate is the evaluation vehicle shared by every policy and bound in
//! the workspace (in the spirit of libCacheSim, which the paper's own
//! simulator builds on):
//!
//! - [`policy::CachePolicy`] — the admission + eviction interface every
//!   online cache implements: a name, a [`store::CacheStore`] and a
//!   `handle`.
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
//!   under `lhr-proto`'s engine and fleet): key-hash sharding and an
//!   in-place [`shard::Partition`] of the trace whose shards run start to
//!   finish on whichever worker claims them, giving the trace back as they
//!   step past it.
//! - [`store::CacheStore`] — the contract of the store a policy keeps
//!   its objects in: capacity, bytes held, evictions and the freshness
//!   stamp, with the one `fits` rule. [`store::SampleStore`] is the
//!   byte-bounded slot array every sampling policy stands on (the
//!   `lhr-policies` samplers, `LhrCache` and its threshold estimator's
//!   shadow cache): position index, `swap_remove` fix-up, byte accounting
//!   and the freshness stamp, once. [`store::OrderedStore`] evicts the
//!   minimum of a key its owner computes (GDSF, LFU-DA, LRU-K and the
//!   Bélády replay).
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
//! use lhr_sim::store::{CacheStore, SampleStore};
//! use lhr_trace::{Request, Trace, Time};
//!
//! // A trivially small policy: cache everything, never evict (infinite
//! // cap). A policy is a name, a store and a `handle`; the store keeps the
//! // bytes, the evictions and each object's freshness stamp.
//! struct Infinite { store: SampleStore<()> }
//! impl CachePolicy for Infinite {
//!     fn name(&self) -> &str { "infinite" }
//!     fn store(&self) -> &dyn CacheStore { &self.store }
//!     fn store_mut(&mut self) -> &mut dyn CacheStore { &mut self.store }
//!     fn handle(&mut self, req: &Request) -> Outcome {
//!         if self.store.contains(req.id) { return Outcome::Hit; }
//!         self.store.push(req.id, req.size, req.ts, ());
//!         Outcome::MissAdmitted
//!     }
//! }
//!
//! let trace = Trace::from_requests("t", vec![
//!     Request::new(Time::from_secs(0), 1, 100),
//!     Request::new(Time::from_secs(1), 1, 100),
//! ]);
//! let mut policy = Infinite { store: SampleStore::new(u64::MAX) };
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
pub use store::CacheStore;

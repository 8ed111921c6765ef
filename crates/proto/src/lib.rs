//! Simulated CDN server prototypes (§6, §7.2, Appendix A.3).
//!
//! The paper implements LHR inside Apache Traffic Server (C++) and Caffeine
//! (Java) and compares hit probability, latency, throughput and resource
//! usage. Neither server is available here, so this crate models the
//! *serving path* those experiments exercise:
//!
//! ```text
//! user ── edge RTT ──► [cache lookup → freshness check]
//!                        │ hit: serve at the edge link rate
//!                        └ miss: origin RTT + origin fetch, then serve
//! ```
//!
//! A [`server::CdnServer`] wraps any [`lhr_sim::CachePolicy`]; the
//! [`server::ServerReport`] it produces contains every row of the paper's
//! Tables 2–4 (throughput, peak CPU, peak memory, P90/P99/mean latency,
//! WAN traffic, content hit ratio). "ATS" is the server wrapped around LRU
//! (ATS's default), "Caffeine" around W-TinyLFU (Caffeine's policy), and
//! the LHR prototype around [`lhr::LhrCache`] — constructors in
//! [`presets`].
//!
//! The origin side is fallible: [`fault`] provides a deterministic seeded
//! fault schedule (errors, timeouts, latency spikes, outage windows,
//! slow-start recovery) and the resilience primitives the hardened serving
//! path layers over it — retries with backoff and jitter, a per-origin
//! circuit breaker, RFC 5861 stale serving, and request coalescing. The
//! report's availability/degradation counters quantify what survived.
//!
//! [`engine::ShardedEngine`] scales the serving path across cores: the
//! keyspace is hash-sharded over independent servers, the trace is
//! partitioned by shard once, N worker threads each run whole shards start
//! to finish, and the per-shard results merge in fixed shard order, so
//! reports and obs exports are byte-identical at any thread count (the
//! determinism contract in `ARCHITECTURE.md`).
//!
//! [`fleet::FleetEngine`] turns the single cache into a CDN: N edge
//! nodes on a consistent-hash ring over a shared origin-shield tier,
//! with node-level fault injection (down/up windows, churn with cold
//! restarts), ring-successor failover, and a peer-hint protocol — under
//! the same determinism contract.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod fault;
pub mod fleet;
pub mod latency;
pub mod presets;
pub mod server;
mod tally;

pub use engine::{EngineConfig, EngineReport, ShardedEngine};
pub use fault::{
    BreakerConfig, BreakerState, CircuitBreaker, FaultConfig, FaultPlan, OriginOutcome,
    ResilienceConfig, RetryPolicy,
};
pub use fleet::{FleetConfig, FleetEngine, FleetReport, HashRing, NodeFaultConfig};
pub use server::{CdnServer, ServerConfig, ServerReport};

//! State-of-the-art caching policies used as baselines throughout the
//! paper's evaluation (§6.2, §7.3): the classic eviction algorithms (LRU,
//! FIFO, Random, LRU-K, LFU-DA, GDSF, ARC), admission-controlled designs
//! (AdaptSize, B-LRU, TinyLFU / W-TinyLFU), and the learning-augmented
//! SOTAs LHR is compared against (LRB, Hawkeye).
//!
//! Every policy implements [`lhr_sim::CachePolicy`] and obeys its contract:
//! capacity is never exceeded, objects larger than the cache are never
//! admitted, and behaviour is deterministic given construction parameters.
//! Each is a rule on one of three cache stores — [`util::SegmentedStore`]
//! (one segment for the LRU family), [`lhr_sim::store::OrderedStore`] and
//! [`lhr_sim::store::SampleStore`], every one a [`lhr_sim::CacheStore`]
//! whose insert cannot pass its capacity — so a policy is its name, its
//! store and its `handle`.
//!
//! # Example
//!
//! ```
//! use lhr_policies::Lru;
//! use lhr_sim::{CachePolicy, Outcome};
//! use lhr_trace::{Request, Time};
//!
//! let mut lru = Lru::new(250);
//! let a = Request::new(Time::from_secs(0), 1, 100);
//! let b = Request::new(Time::from_secs(1), 2, 100);
//! let c = Request::new(Time::from_secs(2), 3, 100);
//! assert_eq!(lru.handle(&a), Outcome::MissAdmitted);
//! assert_eq!(lru.handle(&b), Outcome::MissAdmitted);
//! assert_eq!(lru.handle(&c), Outcome::MissAdmitted); // evicts object 1
//! assert!(!lru.contains(1));
//! assert_eq!(lru.handle(&b), Outcome::Hit);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptsize;
pub mod arc;
pub mod basic;
pub mod blru;
pub mod gdsf;
pub mod hawkeye;
pub mod hyperbolic;
pub mod lfo;
pub mod lfuda;
pub mod lhd;
pub mod lrb;
pub mod lru;
pub mod lruk;
pub mod popcache;
pub mod rlcache;
pub mod slru;
pub mod tinylfu;
pub mod util;

pub use adaptsize::AdaptSize;
pub use arc::Arc;
pub use basic::{Fifo, RandomEviction};
pub use blru::BLru;
pub use gdsf::Gdsf;
pub use hawkeye::Hawkeye;
pub use hyperbolic::Hyperbolic;
pub use lfo::Lfo;
pub use lfuda::LfuDa;
pub use lhd::Lhd;
pub use lrb::Lrb;
pub use lru::Lru;
pub use lruk::LruK;
pub use popcache::PopCache;
pub use rlcache::RlCache;
pub use slru::{s4lru, slru, SegmentedLru};
pub use tinylfu::{TinyLfu, WTinyLfu};

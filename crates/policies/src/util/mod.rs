//! Shared data structures used by several policies.

pub mod bloom;
pub mod cms;
pub mod list;
pub mod lru_store;
pub mod ordf64;

pub use bloom::BloomFilter;
pub use cms::CountMinSketch;
pub use list::{Handle, LruList};
pub use lru_store::LruStore;
pub use ordf64::OrdF64;

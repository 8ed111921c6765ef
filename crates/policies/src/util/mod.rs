//! Shared data structures used by several policies.

pub mod bloom;
pub mod cms;
pub mod list;
pub mod lru_store;
pub mod ordered_store;
pub mod ordf64;
pub mod segmented_store;

pub use bloom::BloomFilter;
pub use cms::CountMinSketch;
pub use list::{Handle, LruList};
pub use lru_store::LruStore;
pub use ordered_store::OrderedStore;
pub use ordf64::OrdF64;
pub use segmented_store::SegmentedStore;

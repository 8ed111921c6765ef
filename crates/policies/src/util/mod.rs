//! Shared data structures used by several policies.

pub mod bloom;
pub mod cms;
pub mod list;
pub mod ordf64;
pub mod segmented_store;

pub use bloom::BloomFilter;
pub use cms::CountMinSketch;
pub use list::{Handle, LruList};
pub use ordf64::OrdF64;
pub use segmented_store::SegmentedStore;

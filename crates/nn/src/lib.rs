//! A small feed-forward neural network, from scratch.
//!
//! The paper's related work (§8) covers a family of DNN-based caching
//! designs — DeepCache, FNN-Cache, PopCache, PA-Cache — whose common
//! substrate is a modest multi-layer perceptron predicting content
//! popularity. No deep-learning framework is in this workspace's allowed
//! dependency set, so this crate provides that substrate natively:
//!
//! - dense layers with ReLU / sigmoid / identity activations,
//! - mean-squared-error and logistic losses,
//! - minibatch SGD with momentum and Adam,
//! - deterministic Xavier initialization from a seed.
//!
//! Correctness is guarded by analytic-vs-numerical gradient checks in the
//! test suite.
//!
//! # Example
//!
//! ```
//! use lhr_nn::{Activation, Mlp, TrainConfig};
//!
//! // Learn XOR.
//! let mut net = Mlp::new(&[2, 8, 1], Activation::Relu, Activation::Sigmoid, 7);
//! let inputs = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]];
//! let targets = [[0.0], [1.0], [1.0], [0.0]];
//! let config = TrainConfig { learning_rate: 0.05, ..TrainConfig::default() };
//! for _ in 0..4000 {
//!     for (x, y) in inputs.iter().zip(targets.iter()) {
//!         net.train_step(x, y, &config);
//!     }
//! }
//! assert!(net.forward(&[1.0, 0.0])[0] > 0.7);
//! assert!(net.forward(&[1.0, 1.0])[0] < 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mlp;

pub use mlp::{Activation, Mlp, TrainConfig};

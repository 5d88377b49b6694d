//! Random Forest classification built from scratch for IoT Sentinel.
//!
//! The paper's stage-one classifiers are Random Forests (Breiman 2001,
//! cited as \[23\]). This crate implements the full algorithm with no
//! external ML dependency:
//!
//! * [`tree`] — CART decision trees: Gini-impurity splits over
//!   per-node random feature subsets (√d by default), midpoint
//!   thresholds, depth/size stopping rules.
//! * [`forest`] — bootstrap-aggregated ensembles of those trees with
//!   majority voting and vote-fraction probabilities. Training can be
//!   parallelised across trees with [`std::thread::scope`] while
//!   remaining bit-for-bit deterministic for a given seed.
//! * [`compiled`] — flat-arena compilation of whole *banks* of binary
//!   forests: packed 16-byte branch nodes, leaves folded into tagged
//!   child references, early-exit voting, allocation- and panic-free
//!   evaluation. The representation behind the identification hot
//!   path: one arena, one sequential scan.
//! * [`metrics`] — accuracy and labelled confusion matrices (the shapes
//!   reported in Fig. 5 and Table III).
//! * [`sampler`] — bootstrap and without-replacement index sampling
//!   (also used by `sentinel-core` for the 10×n negative subsampling).
//!
//! # Example
//!
//! ```
//! use sentinel_ml::{ForestConfig, RandomForest};
//!
//! // Learn y = (x0 > 0.5) from noisy data.
//! let samples: Vec<Vec<f32>> = (0..100)
//!     .map(|i| vec![i as f32 / 100.0, (i % 7) as f32])
//!     .collect();
//! let labels: Vec<usize> = (0..100).map(|i| usize::from(i >= 50)).collect();
//! let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default(), 42)?;
//! assert_eq!(forest.predict(&[0.9, 3.0])?, 1);
//! assert_eq!(forest.predict(&[0.1, 3.0])?, 0);
//! # Ok::<(), sentinel_ml::MlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod compiled;
pub mod error;
pub mod forest;
pub mod metrics;
pub mod sampler;
pub mod tree;

pub use compiled::{
    CompiledBank, CompiledBankBuilder, ForestSpan, PackedNode, ScanCounters, ScanSnapshot,
};
pub use error::MlError;
pub use forest::{ForestConfig, RandomForest};
pub use metrics::{accuracy, ConfusionMatrix};
pub use tree::{DecisionTree, FeatureSubsample, TreeConfig};

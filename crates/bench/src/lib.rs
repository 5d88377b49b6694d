//! Shared plumbing for the experiment binaries that regenerate every
//! table and figure of the IoT Sentinel evaluation (§VI).
//!
//! Each binary in `src/bin/` reproduces one artefact:
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig5_accuracy` | Fig. 5 — per-type identification accuracy |
//! | `table3_confusion` | Table III — confusion matrix of the 10 confused types |
//! | `table4_timing` | Table IV — identification stage timing |
//! | `gateway_overhead` | Tables V–VI and Fig. 6a/b/c — per-packet cost and heap of the real enforcement path, with and without filtering, against flows and rules |
//! | `ablations` | DESIGN.md §5 — prefix length, negative ratio, reference count, distance variant |
//! | `standby_identification` | §VIII-A — identification from standby/operation traffic |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sentinel_core::eval::{cross_validate, CrossValConfig, EvaluationReport};
use sentinel_core::CoreError;
use sentinel_devices::{catalog, generate_dataset, NetworkEnvironment};
use sentinel_fingerprint::Dataset;

/// Number of setups per device type in the paper's dataset (§VI-A).
pub const RUNS_PER_TYPE: u32 = 20;

/// Default dataset seed shared across experiment binaries so that every
/// table/figure is computed from the same 540 fingerprints.
pub const DATASET_SEED: u64 = 0x5e17_1e57;

/// Builds the paper's evaluation dataset: 27 device types × 20 setups
/// = 540 fingerprints.
pub fn evaluation_dataset() -> Dataset {
    let profiles = catalog::standard_catalog();
    generate_dataset(
        &profiles,
        &NetworkEnvironment::default(),
        RUNS_PER_TYPE,
        DATASET_SEED,
    )
}

/// Builds the §VIII-A standby evaluation dataset: 27 device types ×
/// 20 standby observation windows = 540 fingerprints. A distinct seed
/// keeps the standby randomness independent of the setup dataset's.
pub fn standby_dataset() -> Dataset {
    sentinel_devices::standby::generate_standby_dataset(
        &NetworkEnvironment::default(),
        RUNS_PER_TYPE,
        DATASET_SEED ^ 0xa5a5_a5a5,
    )
}

/// Runs the paper's headline evaluation: stratified 10-fold
/// cross-validation repeated `repetitions` times.
///
/// # Errors
///
/// Propagates [`CoreError`] from training.
pub fn run_identification_eval(
    dataset: &Dataset,
    repetitions: usize,
    seed: u64,
) -> Result<EvaluationReport, CoreError> {
    let config = CrossValConfig {
        folds: 10,
        repetitions,
        seed,
        ..CrossValConfig::default()
    };
    cross_validate(dataset, &config)
}

/// The Fig. 5 x-axis order (paper device numbering; the final ten are
/// the confused types 1-10 of Table III).
pub fn fig5_order() -> Vec<&'static str> {
    catalog::standard_catalog()
        .iter()
        .map(|p| Box::leak(p.type_name.clone().into_boxed_str()) as &str)
        .collect()
}

/// Formats a ratio as the paper prints accuracies.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_dataset_shape() {
        let ds = evaluation_dataset();
        assert_eq!(ds.len(), 540);
        assert_eq!(ds.labels().len(), 27);
    }

    #[test]
    fn fig5_order_has_27_types() {
        assert_eq!(fig5_order().len(), 27);
    }
}

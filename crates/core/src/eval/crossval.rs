//! Stratified k-fold cross-validation of the identification pipeline.
//!
//! Mirrors §VI-B: "The IoT device identification method was evaluated
//! through a stratified 10-fold cross-validation process … At each
//! fold, we used the training data to learn one classification model
//! per device-type taking all the n fingerprints F′ of the targeted
//! type as one class and 10·n randomly selected fingerprints F′ from
//! the rest to represent the other class. … The cross-validation was
//! repeated 10 times to generalize the results."

use rand::rngs::SmallRng;
use rand::SeedableRng;

use sentinel_fingerprint::{Dataset, StratifiedKFold};
use sentinel_ml::ConfusionMatrix;

use crate::error::CoreError;
use crate::trainer::{IdentifierConfig, Trainer};

/// Cross-validation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossValConfig {
    /// Number of folds (paper: 10).
    pub folds: usize,
    /// Number of repetitions with reshuffled folds (paper: 10).
    pub repetitions: usize,
    /// Pipeline configuration under evaluation.
    pub identifier: IdentifierConfig,
    /// Master seed.
    pub seed: u64,
    /// Worker threads across folds (1 = serial; results are identical
    /// regardless).
    pub threads: usize,
}

impl Default for CrossValConfig {
    fn default() -> Self {
        CrossValConfig {
            folds: 10,
            repetitions: 10,
            identifier: IdentifierConfig::default(),
            seed: 1,
            threads: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Aggregated results of a cross-validation run.
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    /// Actual × predicted counts over all folds and repetitions.
    /// Unknown identifications are recorded under the pseudo-label
    /// `"<unknown>"`.
    pub confusion: ConfusionMatrix,
    /// Total identifications performed.
    pub total: usize,
    /// Identifications where more than one classifier accepted
    /// (discrimination needed).
    pub multi_match: usize,
    /// Identifications where no classifier accepted.
    pub no_match: usize,
    /// Sum of candidate-set sizes over multi-match identifications.
    pub candidate_sum: usize,
    /// Sum of edit-distance computations performed.
    pub distance_computations: usize,
}

impl EvaluationReport {
    /// Fraction of identifications needing discrimination (the paper
    /// reports 55%).
    pub fn multi_match_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.multi_match as f64 / self.total as f64
        }
    }

    /// Mean number of edit-distance computations per identification
    /// (the paper reports ≈ 7).
    pub fn avg_distance_computations(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.distance_computations as f64 / self.total as f64
        }
    }

    /// Per-type correct-identification ratio, sorted by type name
    /// (Fig. 5's bars).
    pub fn per_type_accuracy(&self) -> Vec<(String, f64)> {
        self.confusion
            .labels()
            .into_iter()
            .filter(|l| l != "<unknown>")
            .filter_map(|l| self.confusion.recall(&l).map(|r| (l, r)))
            .collect()
    }

    /// Macro-averaged accuracy over types (the paper's "global ratio
    /// of correct identification", 0.815).
    pub fn global_accuracy(&self) -> f64 {
        self.confusion.macro_recall()
    }
}

/// Runs repeated stratified cross-validation of the full two-stage
/// pipeline on `dataset`.
///
/// # Errors
///
/// Returns [`CoreError`] if the dataset cannot be split or trained on.
pub fn cross_validate(
    dataset: &Dataset,
    config: &CrossValConfig,
) -> Result<EvaluationReport, CoreError> {
    // Enumerate all (repetition, fold) work items up front.
    let mut folds = Vec::new();
    for rep in 0..config.repetitions {
        let mut rng = SmallRng::seed_from_u64(config.seed ^ (rep as u64) << 17);
        let splits = StratifiedKFold::new(config.folds).split(dataset, &mut rng)?;
        for (fold_no, split) in splits.into_iter().enumerate() {
            folds.push((rep, fold_no, split));
        }
    }
    let run_fold = |(rep, fold_no, split): &(usize, usize, sentinel_fingerprint::folds::Fold)|
     -> Result<EvaluationReport, CoreError> {
        let mut train_set = Dataset::new();
        for idx in &split.train {
            train_set.push(dataset.sample(*idx).clone());
        }
        let trainer = Trainer::new(config.identifier);
        let fold_seed = config
            .seed
            .wrapping_add((*rep as u64) << 32)
            .wrapping_add(*fold_no as u64);
        let identifier = trainer.train(&train_set, fold_seed)?;
        let refs = config.identifier.references_per_type;
        let mut report = EvaluationReport {
            confusion: ConfusionMatrix::new(),
            total: 0,
            multi_match: 0,
            no_match: 0,
            candidate_sum: 0,
            distance_computations: 0,
        };
        for idx in &split.test {
            let sample = dataset.sample(*idx);
            let result = identifier.identify(sample.fingerprint());
            report.total += 1;
            match &result {
                crate::identifier::Identification::Known { accepted, .. } => {
                    if *accepted > 1 {
                        report.multi_match += 1;
                        report.candidate_sum += accepted;
                        report.distance_computations += accepted * refs;
                    }
                    report
                        .confusion
                        .record(sample.label(), identifier.name_of(&result).unwrap_or("<unknown>"));
                }
                crate::identifier::Identification::Unknown => {
                    report.no_match += 1;
                    report.confusion.record(sample.label(), "<unknown>");
                }
            }
        }
        Ok(report)
    };
    let partials: Vec<Result<EvaluationReport, CoreError>> = if config.threads <= 1 {
        folds.iter().map(run_fold).collect()
    } else {
        let mut slots: Vec<Option<Result<EvaluationReport, CoreError>>> = Vec::new();
        slots.resize_with(folds.len(), || None);
        let chunk = folds.len().div_ceil(config.threads);
        std::thread::scope(|scope| {
            for (ci, slot_chunk) in slots.chunks_mut(chunk).enumerate() {
                let folds = &folds;
                let run_fold = &run_fold;
                scope.spawn(move || {
                    for (off, slot) in slot_chunk.iter_mut().enumerate() {
                        *slot = Some(run_fold(&folds[ci * chunk + off]));
                    }
                });
            }
        });
        slots.into_iter().map(|s| s.expect("slot filled")).collect()
    };
    let mut merged = EvaluationReport {
        confusion: ConfusionMatrix::new(),
        total: 0,
        multi_match: 0,
        no_match: 0,
        candidate_sum: 0,
        distance_computations: 0,
    };
    for partial in partials {
        let partial = partial?;
        merged.confusion.merge(&partial.confusion);
        merged.total += partial.total;
        merged.multi_match += partial.multi_match;
        merged.no_match += partial.no_match;
        merged.candidate_sum += partial.candidate_sum;
        merged.distance_computations += partial.distance_computations;
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_fingerprint::{Fingerprint, LabeledFingerprint, PacketFeatures};
    use sentinel_ml::{ForestConfig, TreeConfig};

    fn fp(tags: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(
            tags.iter()
                .map(|t| {
                    let mut v = [0u32; 23];
                    v[18] = *t;
                    PacketFeatures::from_raw(v)
                })
                .collect(),
        )
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..10u32 {
            ds.push(LabeledFingerprint::new("A", fp(&[100 + i, 110, 120])));
            ds.push(LabeledFingerprint::new("B", fp(&[500 + i, 510, 520])));
        }
        ds
    }

    fn quick_config() -> CrossValConfig {
        CrossValConfig {
            folds: 5,
            repetitions: 1,
            identifier: IdentifierConfig {
                forest: ForestConfig {
                    n_trees: 9,
                    tree: TreeConfig::default(),
                    bootstrap: true,
                    threads: 1,
                },
                ..IdentifierConfig::default()
            },
            seed: 5,
            threads: 2,
        }
    }

    #[test]
    fn separable_types_reach_high_accuracy() {
        let report = cross_validate(&dataset(), &quick_config()).unwrap();
        assert_eq!(report.total, 20);
        assert!(
            report.global_accuracy() > 0.9,
            "accuracy {}",
            report.global_accuracy()
        );
        let per_type = report.per_type_accuracy();
        assert_eq!(per_type.len(), 2);
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = cross_validate(
            &dataset(),
            &CrossValConfig {
                threads: 1,
                ..quick_config()
            },
        )
        .unwrap();
        let parallel = cross_validate(
            &dataset(),
            &CrossValConfig {
                threads: 4,
                ..quick_config()
            },
        )
        .unwrap();
        assert_eq!(serial.confusion, parallel.confusion);
        assert_eq!(serial.multi_match, parallel.multi_match);
    }

    #[test]
    fn report_rates() {
        let report = EvaluationReport {
            confusion: ConfusionMatrix::new(),
            total: 100,
            multi_match: 55,
            no_match: 2,
            candidate_sum: 150,
            distance_computations: 700,
        };
        assert!((report.multi_match_rate() - 0.55).abs() < 1e-9);
        assert!((report.avg_distance_computations() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let report = EvaluationReport {
            confusion: ConfusionMatrix::new(),
            total: 0,
            multi_match: 0,
            no_match: 0,
            candidate_sum: 0,
            distance_computations: 0,
        };
        assert_eq!(report.multi_match_rate(), 0.0);
        assert_eq!(report.avg_distance_computations(), 0.0);
        assert_eq!(report.global_accuracy(), 0.0);
    }
}

//! Bootstrap-aggregated Random Forests.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::error::MlError;
use crate::sampler::bootstrap_indices;
use crate::tree::{validate, DecisionTree, TreeConfig};

/// Random Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Per-tree configuration.
    pub tree: TreeConfig,
    /// Whether each tree trains on a bootstrap resample (true for the
    /// standard algorithm) or the full set.
    pub bootstrap: bool,
    /// Train trees across this many threads (1 = serial). Training is
    /// deterministic for a given seed regardless of thread count.
    pub threads: usize,
}

impl Default for ForestConfig {
    /// 33 trees, √d features per split, bootstrap on — the shape of the
    /// classifiers in the paper's evaluation.
    fn default() -> Self {
        ForestConfig {
            n_trees: 33,
            tree: TreeConfig::default(),
            bootstrap: true,
            threads: 1,
        }
    }
}

/// A trained Random Forest classifier.
///
/// # Examples
///
/// ```
/// use sentinel_ml::{ForestConfig, RandomForest};
///
/// let samples = vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]];
/// let labels = vec![0, 0, 1, 1];
/// let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default(), 1)?;
/// let proba = forest.predict_proba(&[0.95])?;
/// assert!(proba[1] > proba[0]);
/// # Ok::<(), sentinel_ml::MlError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    n_features: usize,
}

impl RandomForest {
    /// Fits a forest on `samples` with labels in `0..n_classes`,
    /// deterministically for the given `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError`] for an empty/ragged training set,
    /// out-of-range labels, or a zero-tree configuration.
    pub fn fit(
        samples: &[Vec<f32>],
        labels: &[usize],
        n_classes: usize,
        config: &ForestConfig,
        seed: u64,
    ) -> Result<Self, MlError> {
        validate(samples, labels, n_classes)?;
        if config.n_trees == 0 {
            return Err(MlError::BadConfig("n_trees must be at least 1".into()));
        }
        let n_features = samples[0].len();
        // Every tree gets an independent, index-derived seed so results
        // do not depend on scheduling.
        let fit_one = |tree_index: usize| -> Result<DecisionTree, MlError> {
            let mut rng = SmallRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tree_index as u64 + 1)),
            );
            if config.bootstrap {
                let picked = bootstrap_indices(samples.len(), &mut rng);
                let boot_samples: Vec<Vec<f32>> =
                    picked.iter().map(|i| samples[*i].clone()).collect();
                let boot_labels: Vec<usize> = picked.iter().map(|i| labels[*i]).collect();
                DecisionTree::fit(
                    &boot_samples,
                    &boot_labels,
                    n_classes,
                    &config.tree,
                    &mut rng,
                )
            } else {
                DecisionTree::fit(samples, labels, n_classes, &config.tree, &mut rng)
            }
        };
        let trees: Vec<DecisionTree> = if config.threads <= 1 || config.n_trees == 1 {
            (0..config.n_trees).map(fit_one).collect::<Result<_, _>>()?
        } else {
            Self::fit_parallel(config.n_trees, config.threads, &fit_one)?
        };
        Ok(RandomForest {
            trees,
            n_classes,
            n_features,
        })
    }

    fn fit_parallel(
        n_trees: usize,
        threads: usize,
        fit_one: &(dyn Fn(usize) -> Result<DecisionTree, MlError> + Sync),
    ) -> Result<Vec<DecisionTree>, MlError> {
        let mut slots: Vec<Option<Result<DecisionTree, MlError>>> = Vec::new();
        slots.resize_with(n_trees, || None);
        let threads = threads.min(n_trees);
        std::thread::scope(|scope| {
            for (worker, chunk) in slots.chunks_mut(n_trees.div_ceil(threads)).enumerate() {
                let base = worker * n_trees.div_ceil(threads);
                scope.spawn(move || {
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        *slot = Some(fit_one(base + offset));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("all slots filled"))
            .collect()
    }

    /// Reassembles a forest from trained trees (the persistence path),
    /// checking that every tree agrees on class count and feature
    /// dimensionality.
    pub(crate) fn from_parts(
        trees: Vec<DecisionTree>,
        n_classes: usize,
        n_features: usize,
    ) -> Result<Self, MlError> {
        if trees.is_empty() {
            return Err(MlError::BadConfig("forest has no trees".into()));
        }
        for (idx, tree) in trees.iter().enumerate() {
            if tree.n_classes() != n_classes {
                return Err(MlError::BadConfig(format!(
                    "tree {idx} has {} classes, forest declares {n_classes}",
                    tree.n_classes()
                )));
            }
            if tree.n_features() != n_features {
                return Err(MlError::DimensionMismatch {
                    expected: n_features,
                    got: tree.n_features(),
                });
            }
        }
        Ok(RandomForest {
            trees,
            n_classes,
            n_features,
        })
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Training feature dimensionality.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The individual trees (for ensemble inspection).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Predicts the majority-vote class for `sample`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for a wrong-length sample.
    pub fn predict(&self, sample: &[f32]) -> Result<usize, MlError> {
        let proba = self.predict_proba(sample)?;
        Ok(proba
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0))
    }

    /// Predicts per-class vote fractions (each tree votes for its leaf
    /// majority; fractions sum to 1).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for a wrong-length sample.
    pub fn predict_proba(&self, sample: &[f32]) -> Result<Vec<f32>, MlError> {
        let mut votes = vec![0u32; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(sample)?] += 1;
        }
        let total = self.trees.len() as f32;
        Ok(votes.into_iter().map(|v| v as f32 / total).collect())
    }

    /// The fraction of trees voting for class 1, computed without any
    /// heap allocation — the hot-path form of `predict_proba(..)[1]`
    /// for the binary (one-vs-rest) classifiers of the identification
    /// pipeline. Bit-identical to `predict_proba(sample)?[1]`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::DimensionMismatch`] for a wrong-length sample
    /// and [`MlError::BadConfig`] when the forest has fewer than two
    /// classes (no positive class exists).
    pub fn positive_vote_fraction(&self, sample: &[f32]) -> Result<f32, MlError> {
        if self.n_classes < 2 {
            return Err(MlError::BadConfig(
                "positive_vote_fraction needs a positive class (n_classes >= 2)".into(),
            ));
        }
        let mut votes = 0u32;
        for tree in &self.trees {
            votes += u32::from(tree.predict(sample)? == 1);
        }
        Ok(votes as f32 / self.trees.len() as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::FeatureSubsample;
    use rand::rngs::SmallRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// Two noisy interleaved half-moons flattened to a rectangle task:
    /// class = x0 > 0.5 with 10% label noise.
    fn noisy_threshold_data(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f32 = rng.gen();
            let noise: f32 = rng.gen();
            let y = rng.gen::<f32>();
            let mut label = usize::from(x > 0.5);
            if noise < 0.1 {
                label = 1 - label;
            }
            samples.push(vec![x, y]);
            labels.push(label);
        }
        (samples, labels)
    }

    #[test]
    fn forest_fits_and_predicts() {
        let (samples, labels) = noisy_threshold_data(300, 1);
        let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default(), 7).unwrap();
        assert_eq!(forest.n_trees(), 33);
        assert_eq!(forest.predict(&[0.95, 0.5]).unwrap(), 1);
        assert_eq!(forest.predict(&[0.05, 0.5]).unwrap(), 0);
    }

    #[test]
    fn proba_sums_to_one() {
        let (samples, labels) = noisy_threshold_data(100, 2);
        let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default(), 7).unwrap();
        let p = forest.predict_proba(&[0.7, 0.2]).unwrap();
        assert_eq!(p.len(), 2);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn positive_vote_fraction_matches_predict_proba() {
        let (samples, labels) = noisy_threshold_data(200, 9);
        let forest = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default(), 13).unwrap();
        for i in 0..40 {
            let x = vec![i as f32 / 40.0, 0.6];
            assert_eq!(
                forest.positive_vote_fraction(&x).unwrap(),
                forest.predict_proba(&x).unwrap()[1],
                "fractions must be bit-identical at {x:?}"
            );
        }
        assert!(forest.positive_vote_fraction(&[0.5]).is_err());
    }

    #[test]
    fn positive_vote_fraction_needs_two_classes() {
        let samples = vec![vec![1.0], vec![2.0]];
        let forest = RandomForest::fit(&samples, &[0, 0], 1, &ForestConfig::default(), 1).unwrap();
        assert!(matches!(
            forest.positive_vote_fraction(&[1.0]).unwrap_err(),
            MlError::BadConfig(_)
        ));
    }

    #[test]
    fn deterministic_for_seed() {
        let (samples, labels) = noisy_threshold_data(200, 3);
        let grid: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32 / 50.0, 0.5]).collect();
        let f1 = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default(), 99).unwrap();
        let f2 = RandomForest::fit(&samples, &labels, 2, &ForestConfig::default(), 99).unwrap();
        for g in &grid {
            assert_eq!(f1.predict_proba(g).unwrap(), f2.predict_proba(g).unwrap());
        }
    }

    #[test]
    fn parallel_training_matches_serial() {
        let (samples, labels) = noisy_threshold_data(200, 4);
        let serial_cfg = ForestConfig {
            threads: 1,
            ..ForestConfig::default()
        };
        let parallel_cfg = ForestConfig {
            threads: 4,
            ..ForestConfig::default()
        };
        let serial = RandomForest::fit(&samples, &labels, 2, &serial_cfg, 11).unwrap();
        let parallel = RandomForest::fit(&samples, &labels, 2, &parallel_cfg, 11).unwrap();
        for i in 0..30 {
            let x = vec![i as f32 / 30.0, 0.3];
            assert_eq!(
                serial.predict_proba(&x).unwrap(),
                parallel.predict_proba(&x).unwrap(),
                "thread count must not change results"
            );
        }
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        let (samples, labels) = noisy_threshold_data(400, 5);
        let (test_samples, test_labels) = noisy_threshold_data(400, 6);
        let tree_cfg = TreeConfig {
            feature_subsample: FeatureSubsample::All,
            ..TreeConfig::default()
        };
        let mut rng = SmallRng::seed_from_u64(8);
        let tree = DecisionTree::fit(&samples, &labels, 2, &tree_cfg, &mut rng).unwrap();
        let forest = RandomForest::fit(
            &samples,
            &labels,
            2,
            &ForestConfig {
                n_trees: 60,
                ..ForestConfig::default()
            },
            8,
        )
        .unwrap();
        let acc = |preds: Vec<usize>| {
            preds
                .iter()
                .zip(&test_labels)
                .filter(|(p, t)| p == t)
                .count() as f64
                / test_labels.len() as f64
        };
        let tree_acc = acc(test_samples
            .iter()
            .map(|s| tree.predict(s).unwrap())
            .collect());
        let forest_acc = acc(test_samples
            .iter()
            .map(|s| forest.predict(s).unwrap())
            .collect());
        assert!(
            forest_acc >= tree_acc - 0.02,
            "forest {forest_acc} should not lose badly to single tree {tree_acc}"
        );
        assert!(
            forest_acc > 0.8,
            "forest should learn the rule, got {forest_acc}"
        );
    }

    #[test]
    fn rejects_zero_trees() {
        let samples = vec![vec![1.0], vec![2.0]];
        let cfg = ForestConfig {
            n_trees: 0,
            ..ForestConfig::default()
        };
        assert!(matches!(
            RandomForest::fit(&samples, &[0, 1], 2, &cfg, 1).unwrap_err(),
            MlError::BadConfig(_)
        ));
    }

    #[test]
    fn rejects_wrong_dimension_at_predict() {
        let samples = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let forest = RandomForest::fit(&samples, &[0, 1], 2, &ForestConfig::default(), 1).unwrap();
        assert!(forest.predict(&[1.0]).is_err());
        assert_eq!(forest.n_features(), 2);
    }

    #[test]
    fn three_class_problem() {
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for i in 0..30 {
                samples.push(vec![c as f32 * 10.0 + (i % 3) as f32 * 0.1]);
                labels.push(c);
            }
        }
        let forest = RandomForest::fit(&samples, &labels, 3, &ForestConfig::default(), 5).unwrap();
        assert_eq!(forest.predict(&[0.0]).unwrap(), 0);
        assert_eq!(forest.predict(&[10.0]).unwrap(), 1);
        assert_eq!(forest.predict(&[20.0]).unwrap(), 2);
        assert_eq!(forest.n_classes(), 3);
    }
}

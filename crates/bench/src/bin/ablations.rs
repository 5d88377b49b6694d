//! Ablations over the design parameters the paper fixes (§IV) and two
//! of this implementation's own:
//!
//! * F′ unique-packet prefix length (paper fixes 12),
//! * negative subsampling ratio (paper fixes 10×n),
//! * references per type for discrimination (paper fixes 5),
//! * edit-distance variant (paper's operation set = OSA),
//! * classifier accept threshold (sibling recall vs unknown
//!   detection trade-off),
//! * forest size (trees per per-type classifier).
//!
//! Each ablation runs a reduced cross-validation (2 repetitions) on
//! the full 540-fingerprint dataset and reports global accuracy.
//!
//! Usage: `ablations [repetitions]` (default 2).

use sentinel_bench::evaluation_dataset;
use sentinel_core::eval::{cross_validate, CrossValConfig};
use sentinel_core::IdentifierConfig;
use sentinel_editdist::DistanceVariant;
use sentinel_fingerprint::Dataset;

fn run(dataset: &Dataset, identifier: IdentifierConfig, reps: usize) -> (f64, f64) {
    let config = CrossValConfig {
        folds: 10,
        repetitions: reps,
        identifier,
        seed: 5,
        ..CrossValConfig::default()
    };
    let report = cross_validate(dataset, &config).expect("cross-validation");
    (report.global_accuracy(), report.multi_match_rate())
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2);
    let dataset = evaluation_dataset();
    let base = IdentifierConfig::default();

    println!("== Ablation: F' unique-packet prefix length ==");
    println!("(the paper picked K=12 as \"a good trade-off\")");
    println!("{:>8} | {:>8} | {:>11}", "K", "accuracy", "multi-match");
    for prefix in [4usize, 8, 12, 16, 20] {
        let (acc, mm) = run(
            &dataset,
            IdentifierConfig {
                fixed_prefix_len: prefix,
                ..base
            },
            reps,
        );
        println!("{prefix:>8} | {acc:>8.3} | {:>10.1}%", mm * 100.0);
    }
    println!();

    println!("== Ablation: negative subsampling ratio ==");
    println!("{:>8} | {:>8} | {:>11}", "ratio", "accuracy", "multi-match");
    for ratio in [1usize, 5, 10, 25] {
        let (acc, mm) = run(
            &dataset,
            IdentifierConfig {
                negative_ratio: ratio,
                ..base
            },
            reps,
        );
        println!("{ratio:>7}x | {acc:>8.3} | {:>10.1}%", mm * 100.0);
    }
    println!("(paper uses 10x)\n");

    println!("== Ablation: references per type for discrimination ==");
    println!("{:>8} | {:>8}", "refs", "accuracy");
    for refs in [1usize, 3, 5, 10] {
        let (acc, _) = run(
            &dataset,
            IdentifierConfig {
                references_per_type: refs,
                ..base
            },
            reps,
        );
        println!("{refs:>8} | {acc:>8.3}");
    }
    println!("(paper uses 5)\n");

    println!("== Ablation: edit-distance variant ==");
    println!("{:>12} | {:>8}", "variant", "accuracy");
    for (name, variant) in [
        ("OSA", DistanceVariant::Osa),
        ("full-DL", DistanceVariant::FullDamerau),
        ("Levenshtein", DistanceVariant::Levenshtein),
    ] {
        let (acc, _) = run(
            &dataset,
            IdentifierConfig {
                distance: variant,
                ..base
            },
            reps,
        );
        println!("{name:>12} | {acc:>8.3}");
    }
    println!("(paper's operation set — insert/delete/substitute/adjacent-transpose — is OSA)\n");

    println!("== Ablation: classifier accept threshold ==");
    println!(
        "{:>10} | {:>8} | {:>11} | {:>9}",
        "threshold", "accuracy", "multi-match", "unknowns"
    );
    for threshold in [0.25f32, 0.35, 0.5, 0.65] {
        let config = CrossValConfig {
            folds: 10,
            repetitions: reps,
            identifier: IdentifierConfig {
                accept_threshold: threshold,
                ..base
            },
            seed: 5,
            ..CrossValConfig::default()
        };
        let report = cross_validate(&dataset, &config).expect("cross-validation");
        println!(
            "{threshold:>10.2} | {:>8.3} | {:>10.1}% | {:>9}",
            report.global_accuracy(),
            report.multi_match_rate() * 100.0,
            report.no_match
        );
    }
    println!("(default 0.35 favours sibling recall; >=0.5 favours unknown-device rejection)\n");

    println!("== Ablation: forest size (trees per classifier) ==");
    println!("{:>8} | {:>8} | {:>11}", "trees", "accuracy", "multi-match");
    for n_trees in [9usize, 17, 33, 65] {
        let (acc, mm) = run(
            &dataset,
            IdentifierConfig {
                forest: sentinel_ml::ForestConfig {
                    n_trees,
                    ..base.forest
                },
                ..base
            },
            reps,
        );
        println!("{n_trees:>8} | {acc:>8.3} | {:>10.1}%", mm * 100.0);
    }
    println!("(default 33; the paper does not report its forest size)");
}

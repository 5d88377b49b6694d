//! Regenerates **Fig. 5**: ratio of correct identification for the 27
//! device types, via stratified 10-fold cross-validation repeated 10
//! times (§VI-B), plus the §VI-B prose statistics (global accuracy,
//! multi-match rate, mean edit-distance computations).
//!
//! The run exits nonzero, naming the claim, unless it reproduces the
//! paper's Fig. 5: global accuracy in [0.80, 0.85] (paper 0.815),
//! exactly 17 types at ≥ 0.95, and the types below 0.95 exactly the ten
//! members of the same-vendor confusion groups (Table III).
//!
//! Usage: `fig5_accuracy [repetitions]` (default 10).

use std::collections::BTreeSet;

use sentinel_bench::{
    enforce_claims, evaluation_dataset, fig5_order, fmt_ratio, run_identification_eval,
};
use sentinel_devices::catalog;

fn main() {
    let repetitions: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    eprintln!("building dataset (27 types x 20 setups)...");
    let dataset = evaluation_dataset();
    eprintln!(
        "running {repetitions}x stratified 10-fold cross-validation on {} fingerprints...",
        dataset.len()
    );
    let report = run_identification_eval(&dataset, repetitions, 7).expect("evaluation runs");

    println!("== Fig. 5: ratio of correct identification per device type ==");
    let per_type: std::collections::HashMap<String, f64> =
        report.per_type_accuracy().into_iter().collect();
    let mut high_accuracy = 0usize;
    let mut below = BTreeSet::new();
    for name in fig5_order() {
        let acc = per_type.get(name).copied().unwrap_or(0.0);
        if acc >= 0.95 {
            high_accuracy += 1;
        } else {
            below.insert(name);
        }
        let bar: String = std::iter::repeat_n('#', (acc * 40.0).round() as usize).collect();
        println!("{name:>20} {} {bar}", fmt_ratio(acc));
    }
    println!();
    println!(
        "global accuracy (macro over types): {}",
        fmt_ratio(report.global_accuracy())
    );
    println!("paper reference:                    0.815");
    println!("types with accuracy >= 0.95:        {high_accuracy} (paper: 17 at >0.95)");
    println!();
    println!("== §VI-B prose statistics ==");
    println!(
        "fingerprints needing discrimination: {:.1}% (paper: 55%)",
        report.multi_match_rate() * 100.0
    );
    println!(
        "edit distance computations per identification: {:.1} (paper: ~7)",
        report.avg_distance_computations()
    );
    println!(
        "identifications rejected by all classifiers: {} of {}",
        report.no_match, report.total
    );

    let global = report.global_accuracy();
    let confused: BTreeSet<&str> = catalog::confusion_groups().into_iter().flatten().collect();
    let mismatched: Vec<&str> = below.symmetric_difference(&confused).copied().collect();
    let claims = [
        (
            format!(
                "global accuracy {} in [0.80, 0.85] (paper: 0.815)",
                fmt_ratio(global)
            ),
            (0.80..=0.85).contains(&global),
        ),
        (
            format!("{high_accuracy} types reach >= 0.95 (paper: 17)"),
            high_accuracy == 17,
        ),
        (
            format!(
                "types below 0.95 are the ten confusion-group members (mismatched: {mismatched:?})"
            ),
            mismatched.is_empty(),
        ),
    ];
    enforce_claims("fig5_accuracy", "fidelity claim", &claims);
}

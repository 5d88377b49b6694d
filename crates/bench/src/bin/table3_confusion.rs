//! Regenerates **Table III**: the confusion matrix for the ten device
//! types with low identification rate (the four same-vendor blocks).
//!
//! The run exits nonzero unless block purity is 100 %: no prediction
//! for a confused device leaves its own vendor block, as in the paper.
//!
//! Usage: `table3_confusion [repetitions]` (default 10).

use sentinel_bench::{enforce_claims, evaluation_dataset, run_identification_eval};
use sentinel_devices::catalog;

fn main() {
    let repetitions: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let dataset = evaluation_dataset();
    eprintln!("running {repetitions}x 10-fold cross-validation...");
    let report = run_identification_eval(&dataset, repetitions, 7).expect("evaluation runs");

    // The paper numbers the confused devices 1-10 in catalogue order.
    let confused: Vec<&str> = catalog::confusion_groups().into_iter().flatten().collect();
    println!("== Table III: confusion matrix (A = actual, P = predicted) ==");
    println!("device numbering:");
    for (i, name) in confused.iter().enumerate() {
        println!("  ({}) {}", i + 1, name);
    }
    println!();
    print!("A\\P |");
    for i in 1..=confused.len() {
        print!(" {i:>5}");
    }
    println!(" | other unknown");
    for (i, actual) in confused.iter().enumerate() {
        print!("{:>3} |", i + 1);
        let mut in_block = 0usize;
        for predicted in &confused {
            let n = report.confusion.count(actual, predicted);
            in_block += n;
            print!(" {n:>5}");
        }
        let total = report.confusion.row_total(actual);
        let unknown = report.confusion.count(actual, "<unknown>");
        let other = total - in_block - unknown;
        println!(" | {other:>5} {unknown:>7}");
    }
    println!();
    println!("expected shape (paper): block-diagonal within the four vendor groups,");
    println!("zero confusion across groups, first row (D-LinkSwitch) partially separable.");

    // Quantify block purity: predictions must stay inside the actual
    // device's own vendor block.
    let groups = catalog::confusion_groups();
    let mut within = 0usize;
    let mut outside = 0usize;
    for group in &groups {
        for actual in group {
            for predicted in &confused {
                let n = report.confusion.count(actual, predicted);
                if group.contains(predicted) {
                    within += n;
                } else {
                    outside += n;
                }
            }
        }
    }
    println!(
        "\nblock purity: {:.1}% of confused-device predictions stay within the vendor block",
        within as f64 / (within + outside).max(1) as f64 * 100.0
    );
    enforce_claims(
        "table3_confusion",
        "fidelity claim",
        &[(
            format!(
                "block purity 100 % ({outside} of {} predictions leave their block)",
                within + outside
            ),
            outside == 0,
        )],
    );
}

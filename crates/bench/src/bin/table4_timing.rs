//! Regenerates **Table IV**: time consumption for device-type
//! identification — single classification, single discrimination,
//! fingerprint extraction, 27 classifications, the discrimination
//! phase, and full type identification.
//!
//! Absolute numbers depend on the host. Discrimination is timed
//! through the identifier's served stage two (interned packet words,
//! bit-parallel OSA), so the paper's shape — one edit distance costing
//! ~1 670 classifications, identification dominated by discrimination —
//! is what this table shows to have been engineered away: one distance
//! is now a handful of classifications.
//!
//! Usage: `table4_timing`

use sentinel_bench::{evaluation_dataset, DATASET_SEED};
use sentinel_core::eval::{measure_extraction, measure_identification, TimingStats};
use sentinel_core::Trainer;
use sentinel_devices::{capture_setups, catalog, NetworkEnvironment};
use sentinel_fingerprint::Fingerprint;

/// Microseconds: every row here is three to five orders of magnitude
/// under the paper's, and `TimingStats`' millisecond display would
/// print them all as 0.000.
fn us(stats: &TimingStats) -> String {
    format!("{:.2} µs (±{:.2})", stats.mean_ms * 1e3, stats.std_ms * 1e3)
}

fn main() {
    let dataset = evaluation_dataset();
    eprintln!("training the 27-classifier identifier...");
    let identifier = Trainer::default().train(&dataset, 7).expect("training");

    // Time identification over 200 fingerprints drawn round-robin.
    let test: Vec<&Fingerprint> = dataset
        .iter()
        .step_by(2)
        .take(200)
        .map(|s| s.fingerprint())
        .collect();
    eprintln!("timing identification over {} fingerprints...", test.len());
    let report = measure_identification(&identifier, &test);

    // Time extraction over freshly captured packet sequences.
    let env = NetworkEnvironment::default();
    let captures: Vec<Vec<sentinel_net::Packet>> = catalog::standard_catalog()
        .iter()
        .map(|p| {
            capture_setups(p, &env, 1, DATASET_SEED ^ 0xE)
                .remove(0)
                .into_packets()
        })
        .collect();
    let extraction = measure_extraction(&captures);

    println!("== Table IV: time consumption for device-type identification ==");
    println!("{:<42} {:>22}  (paper)", "step", "measured");
    println!(
        "{:<42} {:>22}  0.014 ms (±0.003)",
        "1 classification (Random Forest)",
        us(&report.single_classification)
    );
    println!(
        "{:<42} {:>22}  23.36 ms (±24.37)",
        "1 discrimination (edit distance)",
        us(&report.single_discrimination)
    );
    println!(
        "{:<42} {:>22}  0.850 ms (±0.698)",
        "fingerprint extraction",
        us(&extraction)
    );
    println!(
        "{:<42} {:>22}  0.385 ms (±0.081)",
        format!(
            "{} classifications (Random Forest)",
            report.classifier_count
        ),
        us(&report.full_classification)
    );
    println!(
        "{:<42} {:>22}  156.5 ms (±170.6)",
        "discrimination phase (when needed)",
        us(&report.discrimination_phase)
    );
    println!(
        "{:<42} {:>22}  157.7 ms (±171.4)",
        "type identification (end to end)",
        us(&report.identification)
    );
    println!();
    println!(
        "mean edit-distance computations per identification: {:.1} (paper: ~7)",
        report.avg_distance_computations
    );
    let ratio =
        report.single_discrimination.mean_ms / report.single_classification.mean_ms.max(1e-9);
    println!(
        "discrimination / classification cost ratio: {ratio:.1}x (paper: ~1670x; \
         23.36 ms per edit distance there, {:.2} µs here)",
        report.single_discrimination.mean_ms * 1e3
    );
}

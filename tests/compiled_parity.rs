//! Compiled-bank / interpreter parity properties.
//!
//! The compiled flat-arena classifier bank (`sentinel-ml::compiled`)
//! exists purely as a faster representation of the per-type forest
//! bank: for every fingerprint it must produce the **bit-identical
//! candidate set** the reference tree-walking interpreter produces —
//! including after incremental `add_device_type` calls, after a
//! persistence round-trip, and across `ServiceCell` hot-reload epochs
//! (every published service carries a freshly compiled bank).

use proptest::prelude::*;

use iot_sentinel::core::{
    persist, CandidateScratch, DeviceTypeIdentifier, IdentifierConfig, IoTSecurityService,
    ServiceCell, Trainer, VulnerabilityDatabase,
};
use iot_sentinel::fingerprint::{
    Dataset, Fingerprint, FixedFingerprint, LabeledFingerprint, PacketFeatures, FEATURE_COUNT,
};
use iot_sentinel::ml::{ForestConfig, TreeConfig};

fn fp(tags: &[u32]) -> Fingerprint {
    Fingerprint::from_columns(
        tags.iter()
            .map(|t| {
                let mut v = [0u32; 23];
                v[18] = 40 + *t;
                v[20] = t % 4;
                PacketFeatures::from_raw(v)
            })
            .collect(),
    )
}

fn quick_config() -> IdentifierConfig {
    IdentifierConfig {
        forest: ForestConfig {
            n_trees: 7,
            tree: TreeConfig::default(),
            bootstrap: true,
            threads: 1,
        },
        ..IdentifierConfig::default()
    }
}

fn class_dataset(class_seeds: &[u32], samples_per_class: usize) -> Dataset {
    let mut ds = Dataset::new();
    for (ci, cs) in class_seeds.iter().enumerate() {
        for i in 0..samples_per_class as u32 {
            ds.push(LabeledFingerprint::new(
                format!("T{ci}"),
                fp(&[cs + i, cs + 17, cs + 31]),
            ));
        }
    }
    ds
}

/// Asserts the compiled bank and the interpreter agree on `fixed`,
/// through every stage-one entry point: the allocating and
/// caller-scratch identifier calls and the bank's own scan.
fn assert_fixed_parity(
    identifier: &DeviceTypeIdentifier,
    scratch: &mut CandidateScratch,
    fixed: &FixedFingerprint,
    what: &str,
) {
    let compiled = identifier.classify_candidates(fixed);
    let interpreted = identifier.classify_candidates_interpreted(fixed);
    assert_eq!(
        compiled, interpreted,
        "compiled and interpreted candidate sets diverge on {what}"
    );
    identifier.classify_candidates_into(fixed, scratch);
    assert_eq!(scratch.candidates(), compiled.as_slice());
    let ids: Vec<_> = identifier.known_type_ids().collect();
    let mut scanned = Vec::new();
    identifier
        .compiled_bank()
        .for_each_accepting(fixed.as_slice(), |i| scanned.push(ids[i]));
    assert_eq!(
        scanned, interpreted,
        "bank scan diverged from the interpreter on {what}"
    );
}

fn assert_parity(
    identifier: &DeviceTypeIdentifier,
    scratch: &mut CandidateScratch,
    probe: &Fingerprint,
) {
    let fixed = probe.to_fixed_with(identifier.config().fixed_prefix_len);
    assert_fixed_parity(identifier, scratch, &fixed, &format!("{probe:?}"));
}

fn ulp_up(x: f32) -> f32 {
    if !x.is_finite() {
        x
    } else if x == 0.0 {
        f32::from_bits(1)
    } else if x > 0.0 {
        f32::from_bits(x.to_bits() + 1)
    } else {
        f32::from_bits(x.to_bits() - 1)
    }
}

fn ulp_down(x: f32) -> f32 {
    if !x.is_finite() {
        x
    } else if x == 0.0 {
        -f32::from_bits(1)
    } else if x > 0.0 {
        f32::from_bits(x.to_bits() - 1)
    } else {
        f32::from_bits(x.to_bits() + 1)
    }
}

/// Fixed-width probes most likely to expose a mis-compiled comparison:
/// NaN (all comparisons false), signed zeros (equal but bit-distinct),
/// denormals, infinities, the all-default F′, and values exactly on /
/// one ulp either side of real split thresholds harvested from the
/// compiled arena.
fn adversarial_fixed_probes(identifier: &DeviceTypeIdentifier) -> Vec<(FixedFingerprint, String)> {
    let dims = identifier.config().fixed_prefix_len * FEATURE_COUNT;
    let mut probes = vec![(
        FixedFingerprint::from_values(vec![0.0f32; dims]),
        "all-default F'".to_string(),
    )];
    let specials = [
        f32::NAN,
        -0.0,
        f32::MIN_POSITIVE / 2.0,
        f32::from_bits(1),
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];
    for (si, s) in specials.iter().enumerate() {
        let mut values = vec![41.5f32; dims];
        for v in values.iter_mut().step_by(si + 2) {
            *v = *s;
        }
        probes.push((
            FixedFingerprint::from_values(values),
            format!("special-value probe #{si} ({s})"),
        ));
    }
    // Straddle real split thresholds: exactly at, one ulp below, one
    // ulp above — the three points where a mis-compiled compare
    // could flip a branch the interpreter would not.
    let bank = identifier.compiled_bank();
    for (ni, node) in bank.nodes().iter().enumerate().step_by(7).take(24) {
        let feature = usize::from(node.feature);
        for (which, value) in [
            ("at", node.threshold),
            ("just below", ulp_down(node.threshold)),
            ("just above", ulp_up(node.threshold)),
        ] {
            let mut values = vec![0.0f32; dims];
            // Paint the whole column so the probe hits every forest's
            // use of this feature, not just one node.
            for v in values
                .iter_mut()
                .skip(feature % FEATURE_COUNT)
                .step_by(FEATURE_COUNT)
            {
                *v = value;
            }
            probes.push((
                FixedFingerprint::from_values(values),
                format!("node {ni} {which} threshold {}", node.threshold),
            ));
        }
    }
    probes
}

/// The probe battery every property below ends with: the empty
/// fingerprint plus [`adversarial_fixed_probes`].
fn assert_adversarial_parity(identifier: &DeviceTypeIdentifier, scratch: &mut CandidateScratch) {
    assert_parity(identifier, scratch, &Fingerprint::default());
    for (fixed, what) in adversarial_fixed_probes(identifier) {
        assert_fixed_parity(identifier, scratch, &fixed, &what);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The compiled bank returns bit-identical candidate sets to the
    /// interpreter over arbitrary trained banks and random probes —
    /// both for in-distribution fingerprints and for alien ones.
    #[test]
    fn compiled_bank_matches_interpreter(
        class_seeds in proptest::collection::vec(0u32..10_000, 2..6),
        samples_per_class in 4usize..8,
        probe_tags in proptest::collection::vec(0u32..12_000, 1..16),
    ) {
        let ds = class_dataset(&class_seeds, samples_per_class);
        let identifier = Trainer::new(quick_config()).train(&ds, 5).unwrap();
        prop_assert_eq!(identifier.compiled_bank().forest_count(), identifier.type_count());
        let mut scratch = CandidateScratch::new();
        for tag in probe_tags {
            assert_parity(&identifier, &mut scratch, &fp(&[tag, tag + 17, tag + 31]));
        }
        assert_adversarial_parity(&identifier, &mut scratch);
    }

    /// Parity survives incremental learning: each `add_device_type`
    /// trains one new classifier and appends it to the compiled arena
    /// in place; candidate sets stay bit-identical for old and new
    /// probes alike, across several consecutive appends.
    #[test]
    fn parity_survives_add_device_type(
        class_seeds in proptest::collection::vec(0u32..8_000, 2..4),
        new_seeds in proptest::collection::vec(20_000u32..30_000, 1..4),
        probe_tags in proptest::collection::vec(0u32..32_000, 1..12),
    ) {
        let ds = class_dataset(&class_seeds, 5);
        let mut identifier = Trainer::new(quick_config()).train(&ds, 7).unwrap();
        let mut scratch = CandidateScratch::new();
        for (round, new_seed) in new_seeds.iter().enumerate() {
            let new_fps: Vec<Fingerprint> = (0..5u32)
                .map(|i| fp(&[new_seed + i, new_seed + 17, new_seed + 31]))
                .collect();
            identifier
                .add_device_type(&format!("Late{round}"), &new_fps, 11 + round as u64)
                .unwrap();
            prop_assert_eq!(identifier.compiled_bank().forest_count(), identifier.type_count());
            assert_parity(&identifier, &mut scratch, &new_fps[0]);
        }
        for tag in probe_tags {
            assert_parity(&identifier, &mut scratch, &fp(&[tag, tag + 17, tag + 31]));
        }
        assert_adversarial_parity(&identifier, &mut scratch);
    }

    /// Parity survives persistence and a `ServiceCell` hot reload: the
    /// loaded identifier recompiles its bank, the published epoch
    /// serves it, and candidate sets still match the interpreter.
    #[test]
    fn parity_survives_reload_epochs(
        class_seeds in proptest::collection::vec(0u32..8_000, 2..4),
        new_seed in 20_000u32..30_000,
        probe_tags in proptest::collection::vec(0u32..32_000, 1..10),
    ) {
        let ds = class_dataset(&class_seeds, 5);
        let identifier = Trainer::new(quick_config()).train(&ds, 9).unwrap();
        let cell = ServiceCell::new(IoTSecurityService::new(
            identifier,
            VulnerabilityDatabase::new(),
        ));

        // Persist the served model, reload it, extend it by one type,
        // and publish the result as epoch 2.
        let mut buf = Vec::new();
        persist::write_identifier(&mut buf, cell.load().identifier()).unwrap();
        let mut reloaded = persist::read_identifier(buf.as_slice()).unwrap();
        let new_fps: Vec<Fingerprint> = (0..5u32)
            .map(|i| fp(&[new_seed + i, new_seed + 17, new_seed + 31]))
            .collect();
        reloaded.add_device_type("Hotswap", &new_fps, 13).unwrap();
        prop_assert_eq!(cell.replace_identifier(reloaded).unwrap(), 2);

        let pinned = cell.load();
        let identifier = pinned.identifier();
        prop_assert_eq!(identifier.compiled_bank().forest_count(), identifier.type_count());
        let mut scratch = CandidateScratch::new();
        assert_parity(identifier, &mut scratch, &new_fps[0]);
        for tag in probe_tags {
            assert_parity(identifier, &mut scratch, &fp(&[tag, tag + 17, tag + 31]));
        }
        assert_adversarial_parity(identifier, &mut scratch);
    }
}

//! Indexed / clustered scan parity properties.
//!
//! The feature-bitmap prefilter and the coarse-to-fine cluster scan
//! exist purely as faster routes through the compiled classifier
//! bank: for every fingerprint, over every bank shape we can randomly
//! construct — including probes stuffed with NaN, signed zeros,
//! denormals, and values one ulp either side of real split
//! thresholds — the candidate set (content **and** order) must be
//! bit-identical to the reference tree-walking interpreter — the same
//! contract `compiled_parity.rs` pins for the plain compiled scan. An index is
//! a correctness hazard (a wrongly skipped forest is a silently lost
//! candidate), so this suite drives the indexed paths through every
//! mutation path a served bank goes through: incremental
//! `add_device_type` appends (which extend the arena and index in
//! place), persistence round-trips, and `ServiceCell` hot-reload
//! epochs.

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
                // A protocol-flag column keyed off the tag, so probes
                // differ in which of the 23 feature columns are
                // nonzero — the dimension the prefilter routes on.
                v[(t % 12) as usize] = 1;
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

/// Asserts every scan route — auto-routed, unindexed full, forced
/// prefilter and clustered — reproduces the interpreter's candidate
/// set exactly, through the owned-Vec and caller-scratch entry points.
fn assert_fixed_parity(
    identifier: &DeviceTypeIdentifier,
    scratch: &mut CandidateScratch,
    fixed: &FixedFingerprint,
    what: &str,
) {
    let interpreted = identifier.classify_candidates_interpreted(fixed);
    let routed = identifier.classify_candidates(fixed);
    assert_eq!(
        routed, interpreted,
        "auto-routed scan diverged from the interpreter on {what}"
    );
    identifier.classify_candidates_into(fixed, scratch);
    assert_eq!(
        scratch.candidates(),
        interpreted.as_slice(),
        "caller-scratch scan diverged on {what}"
    );
    // The hot path only consults the prefilter / cluster index past
    // their size thresholds; force each route at bank level so banks
    // of *every* size exercise the skip-to-cached-verdict and the
    // one-walk-per-group scans.
    let ids: Vec<_> = identifier.known_type_ids().collect();
    let bank = identifier.compiled_bank();
    let mut full = Vec::new();
    bank.for_each_accepting_full(fixed.as_slice(), |i| full.push(ids[i]));
    assert_eq!(
        full, interpreted,
        "full scan diverged from the interpreter on {what}"
    );
    let mut forced = Vec::new();
    bank.for_each_accepting_indexed(fixed.as_slice(), |i| forced.push(ids[i]));
    assert_eq!(
        forced, interpreted,
        "forced prefilter scan diverged from the interpreter on {what}"
    );
    let mut clustered = Vec::new();
    bank.for_each_accepting_clustered(fixed.as_slice(), |i| clustered.push(ids[i]));
    assert_eq!(
        clustered, interpreted,
        "clustered scan diverged from the interpreter on {what}"
    );
}

fn assert_indexed_parity(
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

/// Fixed-width probes packed with the IEEE-754 edge cases a compiled
/// comparison must not reorder: NaN, ±0.0,
/// denormals, infinities, and values exactly on / one ulp either side
/// of real split thresholds harvested from the compiled arena.
fn adversarial_fixed_probes(identifier: &DeviceTypeIdentifier) -> Vec<(FixedFingerprint, String)> {
    let dims = identifier.config().fixed_prefix_len * FEATURE_COUNT;
    let specials = [
        f32::NAN,
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 2.0, // denormal
        f32::from_bits(1),       // smallest positive denormal
        -f32::from_bits(1),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MAX,
    ];
    let mut probes = Vec::new();
    for (si, s) in specials.iter().enumerate() {
        let mut values = vec![0.0f32; dims];
        for v in values.iter_mut().skip(si % 3).step_by(si + 2) {
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
            // Paint the whole stripe so the probe hits every forest's
            // use of this feature column, not just one node.
            for v in values
                .iter_mut()
                .skip(feature % FEATURE_COUNT)
                .step_by(FEATURE_COUNT)
            {
                *v = value;
            }
            if feature < dims {
                values[feature] = value;
            }
            probes.push((
                FixedFingerprint::from_values(values),
                format!("node {ni} {which} threshold {}", node.threshold),
            ));
        }
    }
    probes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random banks × random fingerprints: the indexed and clustered
    /// candidate sets are bit-identical to the interpreter, for
    /// in-distribution and alien probes alike.
    #[test]
    fn indexed_scan_matches_interpreter(
        class_seeds in proptest::collection::vec(0u32..10_000, 2..6),
        samples_per_class in 4usize..8,
        probe_tags in proptest::collection::vec(0u32..12_000, 1..16),
    ) {
        let ds = class_dataset(&class_seeds, samples_per_class);
        let identifier = Trainer::new(quick_config()).train(&ds, 5).unwrap();
        let stats = identifier.bank_stats();
        prop_assert!(stats.indexed, "trained banks must carry a usable index");
        prop_assert_eq!(stats.stripes, 23);
        prop_assert_eq!(stats.forests, identifier.type_count());
        let mut scratch = CandidateScratch::new();
        for tag in probe_tags {
            assert_indexed_parity(&identifier, &mut scratch, &fp(&[tag, tag + 17, tag + 31]));
        }
        // The all-default fingerprint exercises the pure
        // cached-verdict route (its nonzero bitmap is empty).
        assert_indexed_parity(&identifier, &mut scratch, &Fingerprint::from_columns(Vec::new()));
        // NaN / ±0.0 / denormal / threshold-edge probes: no route may
        // reorder a single comparison.
        for (fixed, what) in adversarial_fixed_probes(&identifier) {
            assert_fixed_parity(&identifier, &mut scratch, &fixed, &what);
        }
    }

    /// Parity survives incremental learning: `add_device_type` appends
    /// the new forest's node region and index row in place (no
    /// recompilation of existing regions) and candidate sets stay
    /// bit-identical for old and new probes alike — across several
    /// consecutive appends.
    #[test]
    fn parity_survives_incremental_appends(
        class_seeds in proptest::collection::vec(0u32..8_000, 2..4),
        new_seeds in proptest::collection::vec(20_000u32..30_000, 1..4),
        probe_tags in proptest::collection::vec(0u32..32_000, 1..10),
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
            prop_assert_eq!(identifier.bank_stats().forests, identifier.type_count());
            prop_assert!(identifier.bank_stats().indexed);
            assert_indexed_parity(&identifier, &mut scratch, &new_fps[0]);
        }
        for tag in &probe_tags {
            assert_indexed_parity(&identifier, &mut scratch, &fp(&[*tag, tag + 17, tag + 31]));
        }
        for (fixed, what) in adversarial_fixed_probes(&identifier) {
            assert_fixed_parity(&identifier, &mut scratch, &fixed, &what);
        }
    }

    /// Parity survives persistence and `ServiceCell` hot-reload
    /// epochs: the reloaded identifier recompiles (and re-indexes) its
    /// bank, an incremental append extends it, the published epoch
    /// serves it — and every scan route still matches the interpreter.
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

        let mut buf = Vec::new();
        persist::write_identifier(&mut buf, cell.load().identifier()).unwrap();
        let mut reloaded = persist::read_identifier(buf.as_slice()).unwrap();
        prop_assert!(reloaded.bank_stats().indexed, "reload must re-index the bank");
        let new_fps: Vec<Fingerprint> = (0..5u32)
            .map(|i| fp(&[new_seed + i, new_seed + 17, new_seed + 31]))
            .collect();
        reloaded.add_device_type("Hotswap", &new_fps, 13).unwrap();
        prop_assert_eq!(cell.replace_identifier(reloaded).unwrap(), 2);

        let pinned = cell.load();
        let identifier = pinned.identifier();
        prop_assert_eq!(identifier.bank_stats().forests, identifier.type_count());
        prop_assert!(identifier.bank_stats().indexed);
        let mut scratch = CandidateScratch::new();
        assert_indexed_parity(identifier, &mut scratch, &new_fps[0]);
        for tag in probe_tags {
            assert_indexed_parity(identifier, &mut scratch, &fp(&[tag, tag + 17, tag + 31]));
        }
        for (fixed, what) in adversarial_fixed_probes(identifier) {
            assert_fixed_parity(identifier, &mut scratch, &fixed, &what);
        }
    }
}

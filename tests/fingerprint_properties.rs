//! Property-based tests on the fingerprint pipeline and the
//! discrimination metric, using randomly generated packet sequences.

use proptest::prelude::*;

use iot_sentinel::editdist::{fingerprint_distance, DistanceVariant};
use iot_sentinel::fingerprint::{
    Fingerprint, FingerprintExtractor, PacketFeatures, FEATURE_COUNT, FIXED_DIMS,
};
use iot_sentinel::net::{MacAddr, Packet, Port};

/// A strategy producing random (but valid) device packets.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u8..5,  // shape selector
        0u16..4, // dst ip selector
        40usize..600,
        0u16..60000,
    )
        .prop_map(|(shape, ip_sel, size, port)| {
            let src = MacAddr::new([2, 0, 0, 0, 0, 1]);
            let dst_ip = std::net::Ipv4Addr::new(10, 0, ip_sel as u8, 1);
            let builder = Packet::builder(src).wire_len(size);
            match shape {
                0 => builder.arp().build(),
                1 => builder
                    .ipv4(dst_ip)
                    .udp(Port::new(port.max(1)), Port::DNS)
                    .dns()
                    .build(),
                2 => builder
                    .ipv4(dst_ip)
                    .tcp(Port::new(port.max(1)), Port::HTTPS)
                    .tls()
                    .build(),
                3 => builder.eapol().build(),
                _ => builder
                    .ipv4(dst_ip)
                    .udp(Port::new(port.max(1)), Port::new(20560))
                    .opaque()
                    .build(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The extractor never produces consecutive duplicate columns, and
    /// F′ always has exactly 276 dimensions.
    #[test]
    fn extractor_invariants(packets in proptest::collection::vec(arb_packet(), 0..60)) {
        let fp = FingerprintExtractor::extract_from(&packets);
        prop_assert!(fp.len() <= packets.len());
        for pair in fp.columns().windows(2) {
            prop_assert_ne!(pair[0], pair[1], "consecutive duplicates must be discarded");
        }
        let fixed = fp.to_fixed();
        prop_assert_eq!(fixed.dims(), FIXED_DIMS);
        prop_assert!(fixed.filled_slots() <= 12);
    }

    /// Extraction is deterministic and insensitive to being split into
    /// two passes (online == batch).
    #[test]
    fn extraction_deterministic(packets in proptest::collection::vec(arb_packet(), 0..40)) {
        let a = FingerprintExtractor::extract_from(&packets);
        let mut ex = FingerprintExtractor::new();
        for p in &packets {
            ex.observe(p);
        }
        let b = ex.finish();
        prop_assert_eq!(a, b);
    }

    /// The destination-IP counter feature is always dense: observed
    /// counter values form a prefix 1..=k of the naturals (0 reserved
    /// for portless/non-IP packets).
    #[test]
    fn dst_counter_values_are_dense(packets in proptest::collection::vec(arb_packet(), 0..60)) {
        let fp = FingerprintExtractor::extract_from(&packets);
        let mut counters: Vec<u32> = fp
            .columns()
            .iter()
            .map(|c| c.values()[20])
            .filter(|v| *v > 0)
            .collect();
        counters.sort_unstable();
        counters.dedup();
        for (i, c) in counters.iter().enumerate() {
            prop_assert_eq!(*c, i as u32 + 1, "counters must be 1..=k without gaps");
        }
    }

    /// Normalised fingerprint distance is a bounded semimetric on the
    /// fingerprints the pipeline produces.
    #[test]
    fn distance_properties(
        pa in proptest::collection::vec(arb_packet(), 1..40),
        pb in proptest::collection::vec(arb_packet(), 1..40),
    ) {
        let a = FingerprintExtractor::extract_from(&pa);
        let b = FingerprintExtractor::extract_from(&pb);
        for variant in [DistanceVariant::Osa, DistanceVariant::FullDamerau, DistanceVariant::Levenshtein] {
            let dab = fingerprint_distance(&a, &b, variant);
            let dba = fingerprint_distance(&b, &a, variant);
            prop_assert!((0.0..=1.0).contains(&dab));
            prop_assert!((dab - dba).abs() < 1e-12, "symmetry");
            prop_assert_eq!(fingerprint_distance(&a, &a, variant), 0.0, "identity");
        }
    }

    /// Raw feature vectors survive the fixed-fingerprint flattening:
    /// slot i of F′ equals unique column i of F.
    #[test]
    fn fixed_flattening_preserves_columns(packets in proptest::collection::vec(arb_packet(), 1..30)) {
        let fp = FingerprintExtractor::extract_from(&packets);
        let fixed = fp.to_fixed();
        let unique = fp.unique_prefix(12);
        for (slot, col) in unique.iter().enumerate() {
            let expected = col.to_f32();
            let actual = &fixed.as_slice()[slot * FEATURE_COUNT..(slot + 1) * FEATURE_COUNT];
            prop_assert_eq!(actual, &expected[..]);
        }
    }
}

/// Deterministic spot checks complementing the property tests.
#[test]
fn empty_sequence_yields_empty_fingerprint() {
    let fp = FingerprintExtractor::extract_from(&[]);
    assert!(fp.is_empty());
    assert_eq!(fp.to_fixed().filled_slots(), 0);
    assert_eq!(
        fingerprint_distance(&fp, &Fingerprint::default(), DistanceVariant::Osa),
        0.0
    );
}

#[test]
fn single_packet_fingerprint() {
    let src = MacAddr::new([2, 0, 0, 0, 0, 1]);
    let pkt = Packet::builder(src)
        .udp(Port::new(50000), Port::DNS)
        .dns()
        .build();
    let fp = FingerprintExtractor::extract_from(&[pkt]);
    assert_eq!(fp.len(), 1);
    let col: &PacketFeatures = &fp.columns()[0];
    // The builder's `.udp()` defaults an IPv4 header (broadcast dst),
    // so this packet carries the first observed destination.
    assert_eq!(
        col.values()[20],
        1,
        "first destination IP maps to counter 1"
    );
}

//! Property tests for the wire codec: encode/decode round-trips over
//! randomised messages, and "no panic, no false accept" over hostile
//! byte soup and truncations.

use proptest::prelude::*;

use sentinel_core::{IsolationClass, ServiceResponse, TypeId};
use sentinel_fingerprint::{Fingerprint, PacketFeatures, FEATURE_COUNT};
use sentinel_serve::wire::{
    self, decode_frame, encode_frame, Message, QueryRequest, QueryResponse, ResponseItem,
    DEFAULT_MAX_FRAME_BYTES,
};

fn fingerprint_from_tags(tags: Vec<u32>) -> Fingerprint {
    Fingerprint::from_columns(
        tags.into_iter()
            .map(|t| {
                let mut v = [0u32; FEATURE_COUNT];
                v[18] = t;
                v[0] = t % 2;
                v[6] = (t >> 1) % 2;
                PacketFeatures::from_raw(v)
            })
            .collect(),
    )
}

fn item_from_draw(
    known: bool,
    id: u32,
    isolation: u8,
    discriminated: bool,
    name: Option<String>,
) -> ResponseItem {
    ResponseItem {
        response: ServiceResponse {
            device_type: known.then(|| TypeId::from_index(id as usize)),
            isolation: match isolation % 3 {
                0 => IsolationClass::Strict,
                1 => IsolationClass::Restricted,
                _ => IsolationClass::Trusted,
            },
            needed_discrimination: discriminated,
        },
        name,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_roundtrips(
        resolve in any::<bool>(),
        tag_lists in proptest::collection::vec(
            proptest::collection::vec(0u32..5_000, 0..30), 0..12,
        ),
    ) {
        let request = Message::QueryRequest(QueryRequest {
            resolve_names: resolve,
            fingerprints: tag_lists.into_iter().map(fingerprint_from_tags).collect(),
        });
        let mut buf = Vec::new();
        encode_frame(&request, &mut buf).expect("encode");
        let (decoded, consumed) = decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES).expect("decode");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, request);
    }

    #[test]
    fn response_roundtrips(
        epoch_draw in (any::<bool>(), 1u64..=u64::MAX),
        draws in proptest::collection::vec(
            (any::<bool>(), 0u32..100_000, 0u8..3, any::<bool>(), any::<bool>(), "[a-zA-Z0-9-]{0,24}"),
            0..40,
        ),
    ) {
        let response = Message::QueryResponse(QueryResponse {
            epoch: epoch_draw.0.then_some(epoch_draw.1),
            items: draws
                .into_iter()
                .map(|(known, id, iso, disc, named, name)| {
                    item_from_draw(known, id, iso, disc, named.then_some(name))
                })
                .collect(),
        });
        let mut buf = Vec::new();
        encode_frame(&response, &mut buf).expect("encode");
        let (decoded, consumed) = decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES).expect("decode");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, response);
    }

    #[test]
    fn hostile_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        // Any outcome is fine except a panic.
        let _ = decode_frame(&bytes, DEFAULT_MAX_FRAME_BYTES);
        for kind in 0u8..=255 {
            let _ = wire::decode_payload_at(wire::VERSION, kind, &bytes);
        }
    }

    #[test]
    fn truncations_never_decode(
        tag_lists in proptest::collection::vec(
            proptest::collection::vec(0u32..500, 1..10), 1..6,
        ),
        cut_seed in any::<u64>(),
    ) {
        let request = Message::QueryRequest(QueryRequest {
            resolve_names: true,
            fingerprints: tag_lists.into_iter().map(fingerprint_from_tags).collect(),
        });
        let mut buf = Vec::new();
        encode_frame(&request, &mut buf).expect("encode");
        let cut = (cut_seed % buf.len() as u64) as usize;
        prop_assert!(
            decode_frame(&buf[..cut], DEFAULT_MAX_FRAME_BYTES).is_err(),
            "a strict prefix (cut at {}/{}) must not decode",
            cut,
            buf.len(),
        );
    }

    #[test]
    fn corrupted_header_bytes_never_decode_as_the_original(
        tags in proptest::collection::vec(0u32..500, 1..8),
        flip_byte in 0usize..10,
        flip_bits in 1u8..=255,
    ) {
        let request = Message::QueryRequest(QueryRequest {
            resolve_names: false,
            fingerprints: vec![fingerprint_from_tags(tags)],
        });
        let mut buf = Vec::new();
        encode_frame(&request, &mut buf).expect("encode");
        buf[flip_byte] ^= flip_bits;
        // Corrupting the header either fails or (for a length-prefix
        // corruption that still parses) must not silently yield the
        // original message with the original byte count.
        if let Ok((decoded, consumed)) = decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES) {
            prop_assert!(
                !(decoded == request && consumed == buf.len()),
                "flipping header byte {} must be detected",
                flip_byte,
            );
        }
    }
}

//! Adversarial-input properties of the wire codec: a passive monitor
//! parses whatever appears on the air, so `decode_frame` must be
//! total — it may reject, but it must never panic — and composed
//! frames must round-trip for arbitrary field values.

use proptest::prelude::*;

use sentinel_net::wire::{compose, decode_frame};
use sentinel_net::{AppProtocol, MacAddr, Port, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn decode_frame_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = decode_frame(&bytes, SimTime::ZERO);
    }

    /// Mutating any single byte of a valid frame never panics the
    /// decoder (truncation/corruption tolerance).
    #[test]
    fn corrupted_valid_frames_never_panic(
        instance in 0u32..50,
        position in 0usize..400,
        value in any::<u8>(),
        truncate_at in 0usize..400,
    ) {
        let mac = MacAddr::from_oui([0x02, 0x42, 0x42], instance);
        let mut frame = compose::dhcp_discover(mac, instance, "fuzz-device");
        let pos = position % frame.len();
        frame[pos] = value;
        let _ = decode_frame(&frame, SimTime::ZERO);
        frame.truncate(truncate_at % (frame.len() + 1));
        let _ = decode_frame(&frame, SimTime::ZERO);
    }

    /// DNS queries round-trip for arbitrary label content and ids.
    #[test]
    fn dns_query_roundtrip(
        id in any::<u16>(),
        label_a in "[a-z0-9-]{1,20}",
        label_b in "[a-z]{1,10}",
        sport in 1024u16..65535,
    ) {
        let dev = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let gw = MacAddr::new([2, 0, 0, 0, 0, 0]);
        let host = format!("{label_a}.{label_b}.example");
        let frame = compose::dns_query(
            dev,
            gw,
            "192.168.1.50".parse().unwrap(),
            "192.168.1.1".parse().unwrap(),
            id,
            &host,
            Port::new(sport),
        );
        let pkt = decode_frame(&frame, SimTime::ZERO).expect("valid frame decodes");
        prop_assert_eq!(pkt.app_protocol(), Some(AppProtocol::Dns));
        prop_assert_eq!(pkt.src_port(), Some(Port::new(sport)));
        prop_assert_eq!(pkt.wire_len(), frame.len());
    }

    /// TCP data frames round-trip for arbitrary payloads, and payload
    /// classification never panics.
    #[test]
    fn tcp_data_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        sport in 1u16..65535,
        dport in 1u16..65535,
        seq in any::<u32>(),
    ) {
        let dev = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let gw = MacAddr::new([2, 0, 0, 0, 0, 0]);
        let frame = compose::tcp_data(
            dev,
            gw,
            "192.168.1.50".parse().unwrap(),
            "52.1.2.3".parse().unwrap(),
            Port::new(sport),
            Port::new(dport),
            seq,
            1,
            payload.clone(),
        );
        let pkt = decode_frame(&frame, SimTime::ZERO).expect("valid frame decodes");
        prop_assert!(pkt.is_tcp());
        prop_assert_eq!(pkt.dst_port(), Some(Port::new(dport)));
        // Any payload is raw data (HTTP, TLS or unrecognised bytes); an
        // empty segment carries none.
        prop_assert_eq!(pkt.has_raw_data(), !payload.is_empty());
        if payload.is_empty() {
            prop_assert_eq!(
                pkt.app_protocol(),
                AppProtocol::from_ports(Some(Port::new(sport)), Some(Port::new(dport)))
            );
        }
    }

    /// UDP opaque broadcast frames are raw data exactly when they carry
    /// a payload, however the frame is padded.
    #[test]
    fn udp_opaque_length_preserved(len in 0usize..200, fill in any::<u8>()) {
        let dev = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let frame = compose::udp_opaque(
            dev,
            MacAddr::BROADCAST,
            "192.168.1.50".parse().unwrap(),
            "192.168.1.255".parse().unwrap(),
            Port::new(50000),
            Port::new(9999),
            len,
            fill,
        );
        let pkt = decode_frame(&frame, SimTime::ZERO).expect("valid frame decodes");
        // Ethernet padding never counts as payload: only a non-empty
        // datagram carries raw data, and neither port names a protocol.
        prop_assert_eq!(pkt.has_raw_data(), len > 0);
        prop_assert_eq!(pkt.app_protocol(), None);
        prop_assert!(pkt.wire_len() >= 60, "ethernet minimum");
    }

    /// ARP frames round-trip for arbitrary addresses.
    #[test]
    fn arp_roundtrip(sender in any::<u32>(), target in any::<u32>(), suffix in any::<u32>()) {
        let mac = MacAddr::from_oui([0x02, 0x11, 0x22], suffix);
        let sender_ip = std::net::Ipv4Addr::from(sender);
        let target_ip = std::net::Ipv4Addr::from(target);
        let frame = compose::arp_request(mac, sender_ip, target_ip);
        let pkt = decode_frame(&frame, SimTime::ZERO).expect("valid frame decodes");
        prop_assert!(pkt.is_arp());
        prop_assert_eq!(pkt.src_mac(), mac);
    }

    /// The pcap reader is total over arbitrary bytes.
    #[test]
    fn pcap_reader_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = sentinel_net::pcap::read(&bytes[..]);
    }
}

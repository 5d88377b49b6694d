//! The 23 packet features of Table I.

use std::fmt;

use sentinel_net::{Packet, PortClass};

/// Number of features per packet.
pub const FEATURE_COUNT: usize = 23;

/// Identifies one of the 23 features, in the exact order of Table I.
///
/// The `as usize` value of each variant is its row index in the
/// fingerprint matrix F.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum FeatureId {
    /// Link layer: ARP.
    Arp = 0,
    /// Link layer: LLC.
    Llc = 1,
    /// Network layer: IP (v4 or v6).
    Ip = 2,
    /// Network layer: ICMP.
    Icmp = 3,
    /// Network layer: ICMPv6.
    Icmpv6 = 4,
    /// Network layer: EAPoL.
    Eapol = 5,
    /// Transport layer: TCP.
    Tcp = 6,
    /// Transport layer: UDP.
    Udp = 7,
    /// Application layer: HTTP.
    Http = 8,
    /// Application layer: HTTPS.
    Https = 9,
    /// Application layer: DHCP.
    Dhcp = 10,
    /// Application layer: BOOTP.
    Bootp = 11,
    /// Application layer: SSDP.
    Ssdp = 12,
    /// Application layer: DNS.
    Dns = 13,
    /// Application layer: MDNS.
    Mdns = 14,
    /// Application layer: NTP.
    Ntp = 15,
    /// IP options: padding present.
    Padding = 16,
    /// IP options: router alert present.
    RouterAlert = 17,
    /// Packet content: size in bytes (integer).
    Size = 18,
    /// Packet content: raw data present.
    RawData = 19,
    /// Destination IP counter (integer).
    DstIpCounter = 20,
    /// Source port class (integer 0–3).
    SrcPortClass = 21,
    /// Destination port class (integer 0–3).
    DstPortClass = 22,
}

impl FeatureId {
    /// All features in Table I order.
    pub const ALL: [FeatureId; FEATURE_COUNT] = [
        FeatureId::Arp,
        FeatureId::Llc,
        FeatureId::Ip,
        FeatureId::Icmp,
        FeatureId::Icmpv6,
        FeatureId::Eapol,
        FeatureId::Tcp,
        FeatureId::Udp,
        FeatureId::Http,
        FeatureId::Https,
        FeatureId::Dhcp,
        FeatureId::Bootp,
        FeatureId::Ssdp,
        FeatureId::Dns,
        FeatureId::Mdns,
        FeatureId::Ntp,
        FeatureId::Padding,
        FeatureId::RouterAlert,
        FeatureId::Size,
        FeatureId::RawData,
        FeatureId::DstIpCounter,
        FeatureId::SrcPortClass,
        FeatureId::DstPortClass,
    ];

    /// Whether the feature is binary (all are, except those the paper
    /// marks "(int)": size, destination-IP counter and the two port
    /// classes).
    pub fn is_binary(self) -> bool {
        !matches!(
            self,
            FeatureId::Size
                | FeatureId::DstIpCounter
                | FeatureId::SrcPortClass
                | FeatureId::DstPortClass
        )
    }

    /// The short name used in reports and the dataset codec.
    pub fn name(self) -> &'static str {
        match self {
            FeatureId::Arp => "ARP",
            FeatureId::Llc => "LLC",
            FeatureId::Ip => "IP",
            FeatureId::Icmp => "ICMP",
            FeatureId::Icmpv6 => "ICMPv6",
            FeatureId::Eapol => "EAPoL",
            FeatureId::Tcp => "TCP",
            FeatureId::Udp => "UDP",
            FeatureId::Http => "HTTP",
            FeatureId::Https => "HTTPS",
            FeatureId::Dhcp => "DHCP",
            FeatureId::Bootp => "BOOTP",
            FeatureId::Ssdp => "SSDP",
            FeatureId::Dns => "DNS",
            FeatureId::Mdns => "MDNS",
            FeatureId::Ntp => "NTP",
            FeatureId::Padding => "Padding",
            FeatureId::RouterAlert => "RouterAlert",
            FeatureId::Size => "Size",
            FeatureId::RawData => "RawData",
            FeatureId::DstIpCounter => "DstIpCounter",
            FeatureId::SrcPortClass => "SrcPortClass",
            FeatureId::DstPortClass => "DstPortClass",
        }
    }
}

impl fmt::Display for FeatureId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The 23-feature vector representation of one packet — one column of
/// the fingerprint matrix F.
///
/// Two vectors are equal iff **all 23 features** are equal; this is the
/// character-equality relation used both for consecutive-duplicate
/// discarding and for edit-distance comparison (paper §IV-B-2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PacketFeatures([u32; FEATURE_COUNT]);

impl PacketFeatures {
    /// Builds the feature vector for `packet`.
    ///
    /// `dst_ip_counter` is the value of feature 21 for this packet: the
    /// stateful extractor assigns 1, 2, 3, … in order of first
    /// appearance of each distinct destination IP, and 0 for packets
    /// without one (see [`crate::FingerprintExtractor`]).
    pub fn extract(packet: &Packet, dst_ip_counter: u32) -> Self {
        use sentinel_net::AppProtocol as AP;
        let mut f = [0u32; FEATURE_COUNT];
        let b = |v: bool| u32::from(v);
        f[FeatureId::Arp as usize] = b(packet.is_arp());
        f[FeatureId::Llc as usize] = b(packet.is_llc());
        f[FeatureId::Ip as usize] = b(packet.is_ip());
        f[FeatureId::Icmp as usize] = b(packet.is_icmp());
        f[FeatureId::Icmpv6 as usize] = b(packet.is_icmpv6());
        f[FeatureId::Eapol as usize] = b(packet.is_eapol());
        f[FeatureId::Tcp as usize] = b(packet.is_tcp());
        f[FeatureId::Udp as usize] = b(packet.is_udp());
        let app = packet.app_protocol();
        f[FeatureId::Http as usize] = b(app == Some(AP::Http));
        f[FeatureId::Https as usize] = b(app == Some(AP::Https));
        // DHCP is BOOTP framing + option 53, so the BOOTP bit is set for
        // both DHCP and plain BOOTP packets.
        f[FeatureId::Dhcp as usize] = b(app == Some(AP::Dhcp));
        f[FeatureId::Bootp as usize] = b(matches!(app, Some(AP::Dhcp) | Some(AP::Bootp)));
        f[FeatureId::Ssdp as usize] = b(app == Some(AP::Ssdp));
        f[FeatureId::Dns as usize] = b(app == Some(AP::Dns));
        f[FeatureId::Mdns as usize] = b(app == Some(AP::Mdns));
        f[FeatureId::Ntp as usize] = b(app == Some(AP::Ntp));
        f[FeatureId::Padding as usize] = b(packet.has_ip_padding());
        f[FeatureId::RouterAlert as usize] = b(packet.has_router_alert());
        f[FeatureId::Size as usize] = packet.wire_len() as u32;
        f[FeatureId::RawData as usize] = b(packet.has_raw_data());
        f[FeatureId::DstIpCounter as usize] = dst_ip_counter;
        f[FeatureId::SrcPortClass as usize] = PortClass::of(packet.src_port()).feature_value();
        f[FeatureId::DstPortClass as usize] = PortClass::of(packet.dst_port()).feature_value();
        PacketFeatures(f)
    }

    /// Creates a vector directly from raw values (codec / tests).
    pub fn from_raw(values: [u32; FEATURE_COUNT]) -> Self {
        PacketFeatures(values)
    }

    /// The value of one feature.
    pub fn get(&self, id: FeatureId) -> u32 {
        self.0[id as usize]
    }

    /// The raw feature values in Table I order.
    pub fn values(&self) -> &[u32; FEATURE_COUNT] {
        &self.0
    }

    /// The features as `f32`s, for classifier input.
    pub fn to_f32(self) -> [f32; FEATURE_COUNT] {
        let mut out = [0f32; FEATURE_COUNT];
        for (o, v) in out.iter_mut().zip(self.0.iter()) {
            *o = *v as f32;
        }
        out
    }
}

impl fmt::Display for PacketFeatures {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_net::{MacAddr, Packet, Port};

    fn mac() -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, 1])
    }

    #[test]
    fn feature_order_matches_table_i() {
        assert_eq!(FeatureId::ALL.len(), FEATURE_COUNT);
        for (i, id) in FeatureId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
        assert_eq!(FeatureId::Arp as usize, 0);
        assert_eq!(FeatureId::Ntp as usize, 15);
        assert_eq!(FeatureId::Size as usize, 18);
        assert_eq!(FeatureId::DstPortClass as usize, 22);
    }

    #[test]
    fn binary_flags_match_paper() {
        let ints = [
            FeatureId::Size,
            FeatureId::DstIpCounter,
            FeatureId::SrcPortClass,
            FeatureId::DstPortClass,
        ];
        for id in FeatureId::ALL {
            assert_eq!(id.is_binary(), !ints.contains(&id), "{id}");
        }
    }

    #[test]
    fn dhcp_packet_sets_dhcp_and_bootp() {
        let pkt = Packet::builder(mac())
            .udp(Port::DHCP_CLIENT, Port::DHCP_SERVER)
            .dhcp()
            .wire_len(342)
            .build();
        let f = PacketFeatures::extract(&pkt, 0);
        assert_eq!(f.get(FeatureId::Dhcp), 1);
        assert_eq!(f.get(FeatureId::Bootp), 1);
        assert_eq!(f.get(FeatureId::Udp), 1);
        assert_eq!(f.get(FeatureId::Ip), 1);
        assert_eq!(f.get(FeatureId::Tcp), 0);
        assert_eq!(f.get(FeatureId::Size), 342);
        assert_eq!(f.get(FeatureId::SrcPortClass), 1);
        assert_eq!(f.get(FeatureId::DstPortClass), 1);
    }

    #[test]
    fn bootp_only_sets_bootp_not_dhcp() {
        let pkt = Packet::builder(mac())
            .udp(Port::DHCP_CLIENT, Port::DHCP_SERVER)
            .bootp()
            .build();
        let f = PacketFeatures::extract(&pkt, 0);
        assert_eq!(f.get(FeatureId::Dhcp), 0);
        assert_eq!(f.get(FeatureId::Bootp), 1);
    }

    #[test]
    fn arp_packet_features() {
        let pkt = Packet::builder(mac()).arp().wire_len(60).build();
        let f = PacketFeatures::extract(&pkt, 0);
        assert_eq!(f.get(FeatureId::Arp), 1);
        assert_eq!(f.get(FeatureId::Ip), 0);
        assert_eq!(f.get(FeatureId::SrcPortClass), 0);
        assert_eq!(f.get(FeatureId::DstPortClass), 0);
        assert_eq!(f.get(FeatureId::DstIpCounter), 0);
    }

    #[test]
    fn https_sets_raw_data() {
        let pkt = Packet::builder(mac())
            .tcp(Port::new(51000), Port::HTTPS)
            .tls()
            .build();
        let f = PacketFeatures::extract(&pkt, 3);
        assert_eq!(f.get(FeatureId::Https), 1);
        assert_eq!(f.get(FeatureId::RawData), 1);
        assert_eq!(f.get(FeatureId::DstIpCounter), 3);
        assert_eq!(f.get(FeatureId::SrcPortClass), 3);
        assert_eq!(f.get(FeatureId::DstPortClass), 1);
    }

    #[test]
    fn equality_requires_all_features() {
        let a = Packet::builder(mac())
            .udp(Port::new(50000), Port::DNS)
            .dns()
            .wire_len(80)
            .build();
        let b = Packet::builder(mac())
            .udp(Port::new(50000), Port::DNS)
            .dns()
            .wire_len(81)
            .build();
        let fa = PacketFeatures::extract(&a, 1);
        let fb = PacketFeatures::extract(&b, 1);
        assert_ne!(fa, fb, "size difference must break equality");
        let fa2 = PacketFeatures::extract(&a, 1);
        assert_eq!(fa, fa2);
        let fa3 = PacketFeatures::extract(&a, 2);
        assert_ne!(fa, fa3, "dst counter difference must break equality");
    }

    #[test]
    fn to_f32_preserves_values() {
        let f = PacketFeatures::from_raw([7; FEATURE_COUNT]);
        assert!(f.to_f32().iter().all(|v| *v == 7.0));
    }

    #[test]
    fn display_shows_all_23() {
        let f = PacketFeatures::default();
        let s = f.to_string();
        assert_eq!(s.split_whitespace().count(), FEATURE_COUNT);
    }
}

//! Protocol identifiers across the link, network, transport and
//! application layers.
//!
//! These enums name the 16 protocols the IoT Sentinel fingerprint flags
//! (Table I): ARP and LLC at the link layer; IP, ICMP, ICMPv6 and EAPoL at
//! the network layer; TCP and UDP at the transport layer; HTTP, HTTPS,
//! DHCP, BOOTP, SSDP, DNS, MDNS and NTP at the application layer.

use std::fmt;

use crate::port::Port;

/// EtherType values relevant to the IoT Sentinel capture plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// 0x0800 — IPv4.
    Ipv4,
    /// 0x86dd — IPv6.
    Ipv6,
    /// 0x0806 — Address Resolution Protocol.
    Arp,
    /// 0x888e — EAP over LAN (802.1X), used by the WPA2 handshake.
    Eapol,
    /// Any other EtherType, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// Decodes a raw EtherType value.
    pub fn from_u16(raw: u16) -> EtherType {
        match raw {
            0x0800 => EtherType::Ipv4,
            0x86dd => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            0x888e => EtherType::Eapol,
            other => EtherType::Other(other),
        }
    }

    /// The wire value of this EtherType.
    pub fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Arp => 0x0806,
            EtherType::Eapol => 0x888e,
            EtherType::Other(v) => v,
        }
    }
}

/// IP protocol numbers relevant to the capture plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// 1 — ICMP.
    Icmp,
    /// 6 — TCP.
    Tcp,
    /// 17 — UDP.
    Udp,
    /// 58 — ICMPv6.
    Icmpv6,
    /// 2 — IGMP (seen during multicast joins; carried but not a
    /// fingerprint feature of its own).
    Igmp,
    /// Any other protocol number, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// Decodes a raw protocol number.
    pub fn from_u8(raw: u8) -> IpProtocol {
        match raw {
            1 => IpProtocol::Icmp,
            2 => IpProtocol::Igmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            58 => IpProtocol::Icmpv6,
            other => IpProtocol::Other(other),
        }
    }

    /// The wire value of this protocol.
    pub fn as_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Igmp => 2,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Icmpv6 => 58,
            IpProtocol::Other(v) => v,
        }
    }
}

/// The eight application-layer protocols the fingerprint flags.
///
/// Classification is primarily payload-driven when a codec recognised the
/// payload, with port-based fallback via [`AppProtocol::from_ports`] —
/// the same information a passive monitor has for encrypted traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppProtocol {
    /// Plain HTTP.
    Http,
    /// TLS on port 443.
    Https,
    /// DHCP (a BOOTP message carrying option 53).
    Dhcp,
    /// BOOTP framing (always set when DHCP is set; may appear alone for
    /// plain BOOTP).
    Bootp,
    /// Simple Service Discovery Protocol (UPnP) on 1900/udp.
    Ssdp,
    /// Unicast DNS on 53/udp (or tcp).
    Dns,
    /// Multicast DNS on 5353/udp.
    Mdns,
    /// Network Time Protocol on 123/udp.
    Ntp,
}

impl AppProtocol {
    /// All application protocols in fingerprint feature order.
    pub const ALL: [AppProtocol; 8] = [
        AppProtocol::Http,
        AppProtocol::Https,
        AppProtocol::Dhcp,
        AppProtocol::Bootp,
        AppProtocol::Ssdp,
        AppProtocol::Dns,
        AppProtocol::Mdns,
        AppProtocol::Ntp,
    ];

    /// Port-based classification fallback used when the payload itself
    /// was not decodable (e.g. encrypted or unparsed traffic). Returns
    /// `None` when neither port names a known service.
    ///
    /// # Examples
    ///
    /// ```
    /// use sentinel_net::{AppProtocol, Port};
    ///
    /// let proto = AppProtocol::from_ports(Some(Port::new(51234)), Some(Port::HTTPS));
    /// assert_eq!(proto, Some(AppProtocol::Https));
    /// ```
    pub fn from_ports(src: Option<Port>, dst: Option<Port>) -> Option<AppProtocol> {
        let hit = |p: Option<Port>| -> Option<AppProtocol> {
            match p?.as_u16() {
                80 | 8080 => Some(AppProtocol::Http),
                443 | 8443 => Some(AppProtocol::Https),
                53 => Some(AppProtocol::Dns),
                67 | 68 => Some(AppProtocol::Dhcp),
                123 => Some(AppProtocol::Ntp),
                1900 => Some(AppProtocol::Ssdp),
                5353 => Some(AppProtocol::Mdns),
                _ => None,
            }
        };
        // Destination port is the stronger signal for client traffic.
        hit(dst).or_else(|| hit(src))
    }
}

impl fmt::Display for AppProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AppProtocol::Http => "HTTP",
            AppProtocol::Https => "HTTPS",
            AppProtocol::Dhcp => "DHCP",
            AppProtocol::Bootp => "BOOTP",
            AppProtocol::Ssdp => "SSDP",
            AppProtocol::Dns => "DNS",
            AppProtocol::Mdns => "MDNS",
            AppProtocol::Ntp => "NTP",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethertype_round_trip() {
        for raw in [0x0800u16, 0x86dd, 0x0806, 0x888e, 0x1234] {
            assert_eq!(EtherType::from_u16(raw).as_u16(), raw);
        }
    }

    #[test]
    fn ip_protocol_round_trip() {
        for raw in [1u8, 2, 6, 17, 58, 200] {
            assert_eq!(IpProtocol::from_u8(raw).as_u8(), raw);
        }
    }

    #[test]
    fn port_classification_prefers_destination() {
        // src 53 (DNS), dst 80 (HTTP): a response from a DNS server to an
        // ephemeral port never looks like this, but the tie-break is
        // deterministic and destination wins.
        let p = AppProtocol::from_ports(Some(Port::DNS), Some(Port::HTTP));
        assert_eq!(p, Some(AppProtocol::Http));
    }

    #[test]
    fn port_classification_falls_back_to_source() {
        let p = AppProtocol::from_ports(Some(Port::NTP), Some(Port::new(50000)));
        assert_eq!(p, Some(AppProtocol::Ntp));
    }

    #[test]
    fn unknown_ports_classify_as_none() {
        assert_eq!(
            AppProtocol::from_ports(Some(Port::new(50000)), Some(Port::new(40000))),
            None
        );
        assert_eq!(AppProtocol::from_ports(None, None), None);
    }

    #[test]
    fn all_lists_eight_protocols_in_feature_order() {
        assert_eq!(AppProtocol::ALL.len(), 8);
        assert_eq!(AppProtocol::ALL[0], AppProtocol::Http);
        assert_eq!(AppProtocol::ALL[7], AppProtocol::Ntp);
    }
}

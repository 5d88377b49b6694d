//! ICMP, ICMPv6 and IGMP message encoding.
//!
//! ICMPv6 covers the neighbour/router discovery and MLD messages IoT
//! devices emit while joining a network; IGMP covers IPv4 multicast
//! joins (which carry the Router Alert IP option the fingerprint
//! observes).

use bytes::BufMut;

use crate::wire::ipv4::internet_checksum;

/// ICMP echo request type.
pub const ICMP_ECHO_REQUEST: u8 = 8;
/// ICMP echo reply type.
pub const ICMP_ECHO_REPLY: u8 = 0;
/// ICMPv6 router solicitation type.
pub const ICMPV6_ROUTER_SOLICIT: u8 = 133;
/// ICMPv6 neighbour solicitation type.
pub const ICMPV6_NEIGHBOR_SOLICIT: u8 = 135;
/// ICMPv6 MLDv2 listener report type.
pub const ICMPV6_MLDV2_REPORT: u8 = 143;
/// IGMPv2 membership report type.
pub const IGMP_V2_REPORT: u8 = 0x16;
/// IGMPv3 membership report type.
pub const IGMP_V3_REPORT: u8 = 0x22;

/// A generic ICMP (v4 or v6) message: type, code and opaque body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpMessage {
    /// Message type.
    pub icmp_type: u8,
    /// Message code.
    pub code: u8,
    /// Message body after the 4-byte type/code/checksum prefix.
    pub body: Vec<u8>,
}

impl IcmpMessage {
    /// An ICMPv4 echo request with identifier/sequence and a 32-byte
    /// payload (the classic `ping` shape).
    pub fn echo_request(identifier: u16, sequence: u16) -> Self {
        let mut body = Vec::with_capacity(36);
        body.put_u16(identifier);
        body.put_u16(sequence);
        body.extend((0u8..32).map(|i| 0x61 + (i % 23)));
        IcmpMessage {
            icmp_type: ICMP_ECHO_REQUEST,
            code: 0,
            body,
        }
    }

    /// An ICMPv6 router solicitation (devices probe for routers when
    /// bringing up an interface).
    pub fn router_solicitation() -> Self {
        IcmpMessage {
            icmp_type: ICMPV6_ROUTER_SOLICIT,
            code: 0,
            body: vec![0, 0, 0, 0],
        }
    }

    /// An ICMPv6 neighbour solicitation for duplicate address
    /// detection of `target` (16 address bytes).
    pub fn neighbor_solicitation(target: [u8; 16]) -> Self {
        let mut body = vec![0, 0, 0, 0];
        body.extend_from_slice(&target);
        IcmpMessage {
            icmp_type: ICMPV6_NEIGHBOR_SOLICIT,
            code: 0,
            body,
        }
    }

    /// An MLDv2 multicast listener report with `records` group records
    /// (each 20 bytes: header + one IPv6 group address).
    pub fn mldv2_report(groups: &[[u8; 16]]) -> Self {
        let mut body = Vec::new();
        body.put_u16(0); // reserved
        body.put_u16(groups.len() as u16);
        for g in groups {
            body.put_u8(4); // change-to-exclude
            body.put_u8(0); // aux data len
            body.put_u16(0); // number of sources
            body.extend_from_slice(g);
        }
        IcmpMessage {
            icmp_type: ICMPV6_MLDV2_REPORT,
            code: 0,
            body,
        }
    }

    /// Encodes the message with a valid internet checksum over
    /// type/code/body (the ICMPv6 pseudo-header is omitted; monitor-side
    /// decoding does not verify it).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.put_u8(self.icmp_type);
        out.put_u8(self.code);
        out.put_u16(0);
        out.put_slice(&self.body);
        let sum = internet_checksum(&out[start..]);
        out[start + 2] = (sum >> 8) as u8;
        out[start + 3] = (sum & 0xff) as u8;
    }
}

/// An IGMP message (v2 report/leave or v3 report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IgmpMessage {
    /// Message type.
    pub msg_type: u8,
    /// Body after the 4-byte type/mrt/checksum prefix.
    pub body: Vec<u8>,
}

impl IgmpMessage {
    /// An IGMPv3 membership report joining `group` (exclude-mode, no
    /// sources), as sent when a device subscribes to the SSDP or mDNS
    /// multicast group.
    pub fn v3_join(group: std::net::Ipv4Addr) -> Self {
        let mut body = Vec::new();
        body.put_u16(0); // reserved
        body.put_u16(1); // one group record
        body.put_u8(4); // change-to-exclude
        body.put_u8(0);
        body.put_u16(0);
        body.extend_from_slice(&group.octets());
        IgmpMessage {
            msg_type: IGMP_V3_REPORT,
            body,
        }
    }

    /// An IGMPv2 membership report for `group`.
    pub fn v2_report(group: std::net::Ipv4Addr) -> Self {
        IgmpMessage {
            msg_type: IGMP_V2_REPORT,
            body: group.octets().to_vec(),
        }
    }

    /// Encodes the message with a valid checksum.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.put_u8(self.msg_type);
        out.put_u8(0); // max response time / reserved
        out.put_u16(0);
        out.put_slice(&self.body);
        let sum = internet_checksum(&out[start..]);
        out[start + 2] = (sum >> 8) as u8;
        out[start + 3] = (sum & 0xff) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn echo_request_checksum_validates() {
        let msg = IcmpMessage::echo_request(0x1234, 1);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(internet_checksum(&buf), 0, "checksum must validate");
        assert_eq!(buf[0], ICMP_ECHO_REQUEST);
        assert_eq!(buf[4..], msg.body[..]);
    }

    #[test]
    fn mldv2_report_shape() {
        let g1 = [0xffu8; 16];
        let msg = IcmpMessage::mldv2_report(&[g1]);
        assert_eq!(msg.icmp_type, ICMPV6_MLDV2_REPORT);
        // 4 bytes header + 20 bytes group record.
        assert_eq!(msg.body.len(), 24);
    }

    #[test]
    fn igmp_v3_join_checksum_validates() {
        let msg = IgmpMessage::v3_join(Ipv4Addr::new(239, 255, 255, 250));
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(internet_checksum(&buf), 0);
        assert_eq!(buf[0], IGMP_V3_REPORT);
        assert_eq!(buf[4..], msg.body[..]);
    }

    #[test]
    fn igmp_v2_report_carries_group() {
        let msg = IgmpMessage::v2_report(Ipv4Addr::new(224, 0, 0, 251));
        assert_eq!(msg.body, vec![224, 0, 0, 251]);
    }
}

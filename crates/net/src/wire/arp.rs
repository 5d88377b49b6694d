//! ARP (RFC 826) for IPv4 over Ethernet.

use std::net::Ipv4Addr;

use bytes::BufMut;

use crate::mac::MacAddr;

/// ARP operation: request.
pub const OP_REQUEST: u16 = 1;
/// ARP operation: reply.
pub const OP_REPLY: u16 = 2;

/// An ARP packet for IPv4-over-Ethernet (htype 1, ptype 0x0800).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation (1 = request, 2 = reply).
    pub operation: u16,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address. `0.0.0.0` in ARP probes (RFC 5227).
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// An ARP probe (RFC 5227): sender IP `0.0.0.0`, asking for
    /// `target_ip` — devices send these to check for address conflicts
    /// right after DHCP.
    pub fn probe(sender_mac: MacAddr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            operation: OP_REQUEST,
            sender_mac,
            sender_ip: Ipv4Addr::UNSPECIFIED,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// A gratuitous ARP announcement: sender and target IP equal.
    pub fn announce(sender_mac: MacAddr, ip: Ipv4Addr) -> Self {
        ArpPacket {
            operation: OP_REQUEST,
            sender_mac,
            sender_ip: ip,
            target_mac: MacAddr::ZERO,
            target_ip: ip,
        }
    }

    /// A normal ARP request resolving `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            operation: OP_REQUEST,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// An ARP reply.
    pub fn reply(
        sender_mac: MacAddr,
        sender_ip: Ipv4Addr,
        target_mac: MacAddr,
        target_ip: Ipv4Addr,
    ) -> Self {
        ArpPacket {
            operation: OP_REPLY,
            sender_mac,
            sender_ip,
            target_mac,
            target_ip,
        }
    }

    /// Encodes the packet into `out` (28 bytes).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u16(1); // htype: Ethernet
        out.put_u16(0x0800); // ptype: IPv4
        out.put_u8(6); // hlen
        out.put_u8(4); // plen
        out.put_u16(self.operation);
        out.put_slice(&self.sender_mac.octets());
        out.put_slice(&self.sender_ip.octets());
        out.put_slice(&self.target_mac.octets());
        out.put_slice(&self.target_ip.octets());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, last])
    }

    #[test]
    fn request_layout() {
        let arp = ArpPacket::request(
            mac(1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let mut buf = Vec::new();
        arp.encode(&mut buf);
        assert_eq!(buf.len(), 28);
        assert_eq!(buf[..8], [0, 1, 0x08, 0x00, 6, 4, 0, 1]);
        assert_eq!(buf[8..14], mac(1).octets());
        assert_eq!(buf[24..], [10, 0, 0, 1]);
    }

    #[test]
    fn probe_has_zero_sender_ip() {
        let arp = ArpPacket::probe(mac(1), Ipv4Addr::new(192, 168, 1, 50));
        assert_eq!(arp.sender_ip, Ipv4Addr::UNSPECIFIED);
        assert_eq!(arp.operation, OP_REQUEST);
    }

    #[test]
    fn announce_targets_own_ip() {
        let ip = Ipv4Addr::new(192, 168, 1, 50);
        let arp = ArpPacket::announce(mac(1), ip);
        assert_eq!(arp.sender_ip, ip);
        assert_eq!(arp.target_ip, ip);
    }

    #[test]
    fn reply_carries_operation_two() {
        let arp = ArpPacket::reply(
            mac(9),
            Ipv4Addr::new(10, 0, 0, 1),
            mac(1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let mut buf = Vec::new();
        arp.encode(&mut buf);
        assert_eq!(buf[6..8], OP_REPLY.to_be_bytes());
        assert_eq!(buf[18..24], mac(1).octets());
    }
}

//! IPv6 header encoding, including the hop-by-hop Router
//! Alert option carried by MLD multicast listener reports.

use std::net::Ipv6Addr;

use bytes::BufMut;

/// Next-header value for the hop-by-hop options extension header.
pub const NEXT_HEADER_HOP_BY_HOP: u8 = 0;

/// An IPv6 header to encode (fixed part plus an optional hop-by-hop
/// extension carrying Router Alert).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv6Header {
    /// Traffic class.
    pub traffic_class: u8,
    /// Flow label (20 bits).
    pub flow_label: u32,
    /// Hop limit.
    pub hop_limit: u8,
    /// The payload protocol (after any hop-by-hop header).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Whether a hop-by-hop Router Alert option is present.
    pub router_alert: bool,
}

impl Ipv6Header {
    /// Creates a plain header with hop limit 255 (link-local control
    /// traffic default).
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, protocol: u8) -> Self {
        Ipv6Header {
            traffic_class: 0,
            flow_label: 0,
            hop_limit: 255,
            protocol,
            src,
            dst,
            router_alert: false,
        }
    }

    /// Adds a hop-by-hop Router Alert option (as MLD reports carry).
    pub fn with_router_alert(mut self) -> Self {
        self.router_alert = true;
        self
    }

    /// Encoded header length: 40 bytes fixed, +8 for hop-by-hop.
    pub fn header_len(&self) -> usize {
        if self.router_alert {
            48
        } else {
            40
        }
    }

    /// Encodes the header for a payload of `payload_len` bytes.
    pub fn encode(&self, out: &mut Vec<u8>, payload_len: usize) {
        let hbh_len = if self.router_alert { 8 } else { 0 };
        let wire_payload_len = (payload_len + hbh_len) as u16;
        let first = 0x6000_0000u32
            | (u32::from(self.traffic_class) << 20)
            | (self.flow_label & 0x000f_ffff);
        out.put_u32(first);
        out.put_u16(wire_payload_len);
        out.put_u8(if self.router_alert {
            NEXT_HEADER_HOP_BY_HOP
        } else {
            self.protocol
        });
        out.put_u8(self.hop_limit);
        out.put_slice(&self.src.octets());
        out.put_slice(&self.dst.octets());
        if self.router_alert {
            // Hop-by-hop: next header, length 0 (8 bytes), RA option
            // (type 5, len 2, value 0 = MLD), PadN(0).
            out.put_u8(self.protocol);
            out.put_u8(0);
            out.put_slice(&[0x05, 0x02, 0x00, 0x00, 0x01, 0x00]);
        }
    }
}

/// The link-local address a device derives from its MAC via EUI-64.
pub fn link_local_from_mac(mac: crate::MacAddr) -> Ipv6Addr {
    let m = mac.octets();
    Ipv6Addr::new(
        0xfe80,
        0,
        0,
        0,
        u16::from_be_bytes([m[0] ^ 0x02, m[1]]),
        u16::from_be_bytes([m[2], 0xff]),
        u16::from_be_bytes([0xfe, m[3]]),
        u16::from_be_bytes([m[4], m[5]]),
    )
}

/// The IPv6 all-MLDv2-routers multicast address `ff02::16`.
pub fn all_mld_routers() -> Ipv6Addr {
    Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 0x16)
}

/// The IPv6 all-routers multicast address `ff02::2`.
pub fn all_routers() -> Ipv6Addr {
    Ipv6Addr::new(0xff02, 0, 0, 0, 0, 0, 0, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MacAddr;

    #[test]
    fn plain_header_layout() {
        let hdr = Ipv6Header::new(
            link_local_from_mac(MacAddr::new([2, 0, 0, 0, 0, 7])),
            all_routers(),
            58,
        );
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 24);
        assert_eq!(buf.len(), 40);
        assert_eq!(buf[0] >> 4, 6);
        assert_eq!(buf[4..8], [0, 24, 58, 255]);
        assert_eq!(buf[24..40], all_routers().octets());
    }

    #[test]
    fn router_alert_adds_hop_by_hop_header() {
        let hdr = Ipv6Header::new(
            link_local_from_mac(MacAddr::new([2, 0, 0, 0, 0, 7])),
            all_mld_routers(),
            58,
        )
        .with_router_alert();
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 28);
        assert_eq!(buf.len(), 48);
        assert_eq!(buf[4..7], [0, 36, NEXT_HEADER_HOP_BY_HOP]); // 28 + 8 hop-by-hop
        assert_eq!(buf[40..44], [58, 0, 5, 2]);
    }

    #[test]
    fn eui64_link_local() {
        let ll = link_local_from_mac(MacAddr::new([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]));
        let segs = ll.segments();
        assert_eq!(segs[0], 0xfe80);
        assert_eq!(segs[4], 0x0211); // universal/local bit flipped
        assert_eq!(segs[5], 0x22ff);
        assert_eq!(segs[6], 0xfe33);
        assert_eq!(segs[7], 0x4455);
    }
}

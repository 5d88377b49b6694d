//! IPv4 header encoding, including the two header options
//! the IoT Sentinel fingerprint observes: padding (NOP/EOL) and Router
//! Alert (RFC 2113, carried by IGMP membership messages).

use std::net::Ipv4Addr;

use bytes::BufMut;

/// An IPv4 header option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ipv4Option {
    /// End of options list (type 0), a padding byte.
    EndOfOptions,
    /// No-operation (type 1), a padding byte.
    Nop,
    /// Router Alert (type 148) with its 16-bit value (0 = examine
    /// packet).
    RouterAlert(u16),
}

impl Ipv4Option {
    /// Encoded length of this option in bytes.
    pub fn wire_len(self) -> usize {
        match self {
            Ipv4Option::EndOfOptions | Ipv4Option::Nop => 1,
            Ipv4Option::RouterAlert(_) => 4,
        }
    }
}

/// An IPv4 header to encode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services code point (6 bits) + ECN (2 bits).
    pub dscp_ecn: u8,
    /// Identification field.
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol number.
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Header options, in wire order.
    pub options: Vec<Ipv4Option>,
}

impl Ipv4Header {
    /// Creates a plain header with no options, TTL 64 and DF set.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            identification: 0,
            dont_fragment: true,
            ttl: 64,
            protocol,
            src,
            dst,
            options: Vec::new(),
        }
    }

    /// Adds a Router Alert option followed by padding to a 4-byte
    /// boundary is unnecessary (RA is exactly 4 bytes); provided for
    /// IGMP-style headers.
    pub fn with_router_alert(mut self) -> Self {
        self.options.push(Ipv4Option::RouterAlert(0));
        self
    }

    /// Adds NOP+EOL padding options (2 NOPs + 2 EOLs = one 4-byte word).
    pub fn with_padding(mut self) -> Self {
        self.options.push(Ipv4Option::Nop);
        self.options.push(Ipv4Option::Nop);
        self.options.push(Ipv4Option::EndOfOptions);
        self.options.push(Ipv4Option::EndOfOptions);
        self
    }

    /// Header length in bytes including options (always a multiple of
    /// 4; options are implicitly padded with EOL on encode).
    pub fn header_len(&self) -> usize {
        let opt_bytes: usize = self.options.iter().map(|o| o.wire_len()).sum();
        20 + opt_bytes.div_ceil(4) * 4
    }

    /// Encodes the header (computing total length and checksum) for a
    /// payload of `payload_len` bytes.
    pub fn encode(&self, out: &mut Vec<u8>, payload_len: usize) {
        let header_len = self.header_len();
        let ihl = (header_len / 4) as u8;
        let total_len = (header_len + payload_len) as u16;
        let start = out.len();
        out.put_u8(0x40 | ihl);
        out.put_u8(self.dscp_ecn);
        out.put_u16(total_len);
        out.put_u16(self.identification);
        out.put_u16(if self.dont_fragment { 0x4000 } else { 0 });
        out.put_u8(self.ttl);
        out.put_u8(self.protocol);
        out.put_u16(0); // checksum placeholder
        out.put_slice(&self.src.octets());
        out.put_slice(&self.dst.octets());
        let mut opt_bytes = 0usize;
        for opt in &self.options {
            match opt {
                Ipv4Option::EndOfOptions => out.put_u8(0),
                Ipv4Option::Nop => out.put_u8(1),
                Ipv4Option::RouterAlert(v) => {
                    out.put_u8(148);
                    out.put_u8(4);
                    out.put_u16(*v);
                }
            }
            opt_bytes += opt.wire_len();
        }
        while !opt_bytes.is_multiple_of(4) {
            out.put_u8(0);
            opt_bytes += 1;
        }
        let checksum = internet_checksum(&out[start..start + header_len]);
        out[start + 10] = (checksum >> 8) as u8;
        out[start + 11] = (checksum & 0xff) as u8;
    }
}

/// RFC 1071 internet checksum.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_header_layout() {
        let hdr = Ipv4Header::new(
            Ipv4Addr::new(192, 168, 1, 50),
            Ipv4Addr::new(192, 168, 1, 1),
            17,
        );
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 100);
        assert_eq!(buf.len(), 20);
        assert_eq!(buf[0], 0x45);
        assert_eq!(buf[2..4], 120u16.to_be_bytes());
        assert_eq!(buf[9], 17);
        assert_eq!(buf[16..20], [192, 168, 1, 1]);
    }

    #[test]
    fn router_alert_option_layout() {
        let hdr = Ipv4Header::new(Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(224, 0, 0, 22), 2)
            .with_router_alert();
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 8);
        assert_eq!(buf.len(), 24);
        assert_eq!(buf[0], 0x46);
        assert_eq!(buf[20..], [148, 4, 0, 0]);
    }

    #[test]
    fn padding_option_layout() {
        let hdr = Ipv4Header::new(Ipv4Addr::LOCALHOST, Ipv4Addr::LOCALHOST, 6).with_padding();
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 0);
        assert_eq!(buf.len(), 24);
        assert_eq!(buf[20..], [1, 1, 0, 0]);
    }

    #[test]
    fn checksum_is_valid() {
        let hdr = Ipv4Header::new(Ipv4Addr::new(172, 16, 0, 7), Ipv4Addr::new(8, 8, 8, 8), 17);
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 32);
        // Re-checksumming a valid header yields zero.
        assert_eq!(internet_checksum(&buf), 0);
    }

    #[test]
    fn checksum_known_vector() {
        // Example from RFC 1071 discussions.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_checksum() {
        let data = [0xffu8, 0x00, 0xff];
        // 0xff00 + 0xff00 = 0x1fe00 -> 0xfe01 -> !0xfe01 = 0x01fe
        assert_eq!(internet_checksum(&data), 0x01fe);
    }
}

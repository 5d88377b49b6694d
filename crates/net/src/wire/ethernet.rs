//! Ethernet II and IEEE 802.3/802.2 LLC framing.

use bytes::BufMut;

use crate::mac::MacAddr;

/// Minimum Ethernet frame length on the wire (without FCS).
pub const MIN_FRAME_LEN: usize = 60;

/// An Ethernet frame header: destination, source, and either an
/// EtherType (Ethernet II) or a length + LLC header (802.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EthernetHeader {
    /// Ethernet II framing.
    TypeII {
        /// Destination MAC.
        dst: MacAddr,
        /// Source MAC.
        src: MacAddr,
        /// EtherType (> 1535).
        ethertype: u16,
    },
    /// IEEE 802.3 framing with an 802.2 LLC header.
    Llc {
        /// Destination MAC.
        dst: MacAddr,
        /// Source MAC.
        src: MacAddr,
        /// Payload length (≤ 1500).
        length: u16,
        /// Destination service access point.
        dsap: u8,
        /// Source service access point.
        ssap: u8,
        /// LLC control field.
        control: u8,
    },
}

impl EthernetHeader {
    /// Encodes the header into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            EthernetHeader::TypeII {
                dst,
                src,
                ethertype,
            } => {
                out.put_slice(&dst.octets());
                out.put_slice(&src.octets());
                out.put_u16(*ethertype);
            }
            EthernetHeader::Llc {
                dst,
                src,
                length,
                dsap,
                ssap,
                control,
            } => {
                out.put_slice(&dst.octets());
                out.put_slice(&src.octets());
                out.put_u16(*length);
                out.put_u8(*dsap);
                out.put_u8(*ssap);
                out.put_u8(*control);
            }
        }
    }
}

/// Pads `frame` with zero bytes up to the Ethernet minimum of 60 bytes
/// (64 with FCS, which captures do not include).
pub fn pad_to_minimum(frame: &mut Vec<u8>) {
    while frame.len() < MIN_FRAME_LEN {
        frame.push(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, last])
    }

    #[test]
    fn type_ii_layout() {
        let mut buf = Vec::new();
        EthernetHeader::TypeII {
            dst: mac(1),
            src: mac(2),
            ethertype: 0x0800,
        }
        .encode(&mut buf);
        assert_eq!(buf.len(), 14);
        assert_eq!(buf[..6], mac(1).octets());
        assert_eq!(buf[6..12], mac(2).octets());
        assert_eq!(buf[12..], [0x08, 0x00]);
    }

    #[test]
    fn llc_layout() {
        let mut buf = Vec::new();
        EthernetHeader::Llc {
            dst: mac(1),
            src: mac(2),
            length: 38,
            dsap: 0x42,
            ssap: 0x42,
            control: 0x03,
        }
        .encode(&mut buf);
        assert_eq!(buf[12..], [0, 38, 0x42, 0x42, 0x03]);
    }

    #[test]
    fn padding_reaches_minimum() {
        let mut frame = vec![0u8; 20];
        pad_to_minimum(&mut frame);
        assert_eq!(frame.len(), MIN_FRAME_LEN);
        let mut long = vec![0u8; 100];
        pad_to_minimum(&mut long);
        assert_eq!(long.len(), 100);
    }
}

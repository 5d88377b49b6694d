//! TCP segment encoding (header + opaque payload).

use bytes::BufMut;

use crate::port::Port;

/// TCP header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    /// SYN flag.
    pub syn: bool,
    /// ACK flag.
    pub ack: bool,
    /// FIN flag.
    pub fin: bool,
    /// RST flag.
    pub rst: bool,
    /// PSH flag.
    pub psh: bool,
}

impl TcpFlags {
    /// Flags for an initial SYN segment.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
        psh: false,
    };

    /// Encodes the flags into the low byte of the TCP flags field.
    pub fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }
}

/// A TCP segment: header fields plus payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: Port,
    /// Destination port.
    pub dst_port: Port,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when ACK set).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Maximum segment size option for SYN segments, if any.
    pub mss: Option<u16>,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl TcpSegment {
    /// A SYN segment opening a connection, advertising MSS 1460.
    pub fn syn(src_port: Port, dst_port: Port, seq: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 29200,
            mss: Some(1460),
            payload: Vec::new(),
        }
    }

    /// A bare ACK segment.
    pub fn ack_only(src_port: Port, dst_port: Port, seq: u32, ack: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
            window: 29200,
            mss: None,
            payload: Vec::new(),
        }
    }

    /// A PSH+ACK segment carrying `payload`.
    pub fn push(src_port: Port, dst_port: Port, seq: u32, ack: u32, payload: Vec<u8>) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..TcpFlags::default()
            },
            window: 29200,
            mss: None,
            payload,
        }
    }

    /// A FIN+ACK segment closing a connection.
    pub fn fin(src_port: Port, dst_port: Port, seq: u32, ack: u32) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags {
                ack: true,
                fin: true,
                ..TcpFlags::default()
            },
            window: 29200,
            mss: None,
            payload: Vec::new(),
        }
    }

    /// Header length in bytes (20 + options).
    pub fn header_len(&self) -> usize {
        if self.mss.is_some() {
            24
        } else {
            20
        }
    }

    /// Encodes the segment (checksum left zero; link simulations do not
    /// verify TCP checksums).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let data_offset = (self.header_len() / 4) as u8;
        out.put_u16(self.src_port.as_u16());
        out.put_u16(self.dst_port.as_u16());
        out.put_u32(self.seq);
        out.put_u32(self.ack);
        out.put_u8(data_offset << 4);
        out.put_u8(self.flags.to_byte());
        out.put_u16(self.window);
        out.put_u16(0); // checksum (not computed)
        out.put_u16(0); // urgent pointer
        if let Some(mss) = self.mss {
            out.put_u8(2); // kind: MSS
            out.put_u8(4); // length
            out.put_u16(mss);
        }
        out.put_slice(&self.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syn_layout_carries_mss_option() {
        let seg = TcpSegment::syn(Port::new(51000), Port::HTTPS, 1000);
        let mut buf = Vec::new();
        seg.encode(&mut buf);
        assert_eq!(buf.len(), 24);
        assert_eq!(buf[12] >> 4, 6, "data offset in words");
        assert_eq!(buf[13], 0x02, "SYN");
        assert_eq!(buf[20..], [2, 4, 0x05, 0xb4]);
    }

    #[test]
    fn push_carries_payload_after_header() {
        let payload = b"GET / HTTP/1.1\r\n\r\n".to_vec();
        let seg = TcpSegment::push(Port::new(51000), Port::HTTP, 2000, 555, payload.clone());
        let mut buf = Vec::new();
        seg.encode(&mut buf);
        assert_eq!(buf[12] >> 4, 5);
        assert_eq!(buf[13], 0x18, "PSH+ACK");
        assert_eq!(buf[20..], payload[..]);
    }

    #[test]
    fn fin_and_ack_flags() {
        let seg = TcpSegment::fin(Port::new(51000), Port::HTTP, 1, 2);
        assert!(seg.flags.fin && seg.flags.ack && !seg.flags.syn);
        assert_eq!(seg.flags.to_byte(), 0x11);
        let ack = TcpSegment::ack_only(Port::new(51000), Port::HTTP, 1, 2);
        assert!(ack.flags.ack && !ack.flags.fin);
        assert!(ack.payload.is_empty());
    }
}

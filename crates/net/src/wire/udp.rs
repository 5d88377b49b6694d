//! UDP datagram encoding.

use bytes::BufMut;

use crate::port::Port;

/// A UDP datagram: ports plus payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: Port,
    /// Destination port.
    pub dst_port: Port,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Creates a datagram.
    pub fn new(src_port: Port, dst_port: Port, payload: Vec<u8>) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Encodes the datagram (checksum left zero, which is legal for
    /// IPv4 UDP).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u16(self.src_port.as_u16());
        out.put_u16(self.dst_port.as_u16());
        out.put_u16((8 + self.payload.len()) as u16);
        out.put_u16(0); // checksum
        out.put_slice(&self.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_counts_header_in_length() {
        let dg = UdpDatagram::new(Port::new(50000), Port::DNS, vec![1, 2, 3, 4]);
        let mut buf = Vec::new();
        dg.encode(&mut buf);
        assert_eq!(buf, [0xc3, 0x50, 0, 53, 0, 12, 0, 0, 1, 2, 3, 4]);
    }
}

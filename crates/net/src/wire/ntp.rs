//! NTP (RFC 5905) packet encoding and recognition — the 48-byte fixed
//! header, which is all IoT clients exchange during time sync.

use bytes::BufMut;

/// NTP mode: client request.
pub const MODE_CLIENT: u8 = 3;
/// NTP mode: server response.
pub const MODE_SERVER: u8 = 4;

/// A 48-byte NTP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NtpPacket {
    /// Leap indicator (2 bits).
    pub leap: u8,
    /// Protocol version (3 bits), typically 4.
    pub version: u8,
    /// Association mode (3 bits): 3 = client, 4 = server.
    pub mode: u8,
    /// Stratum of the clock (0 for client requests).
    pub stratum: u8,
    /// Poll interval (log2 seconds).
    pub poll: i8,
    /// Clock precision (log2 seconds).
    pub precision: i8,
    /// Transmit timestamp in NTP 64-bit format.
    pub transmit_timestamp: u64,
}

impl NtpPacket {
    /// A version-4 client request with the given transmit timestamp.
    pub fn client(transmit_timestamp: u64) -> Self {
        NtpPacket {
            leap: 0,
            version: 4,
            mode: MODE_CLIENT,
            stratum: 0,
            poll: 6,
            precision: -20,
            transmit_timestamp,
        }
    }

    /// A stratum-2 server response.
    pub fn server(transmit_timestamp: u64) -> Self {
        NtpPacket {
            leap: 0,
            version: 4,
            mode: MODE_SERVER,
            stratum: 2,
            poll: 6,
            precision: -20,
            transmit_timestamp,
        }
    }

    /// Encodes the packet (48 bytes).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u8((self.leap << 6) | (self.version << 3) | self.mode);
        out.put_u8(self.stratum);
        out.put_i8(self.poll);
        out.put_i8(self.precision);
        out.put_u32(0); // root delay
        out.put_u32(0); // root dispersion
        out.put_u32(0); // reference id
        out.put_u64(0); // reference timestamp
        out.put_u64(0); // origin timestamp
        out.put_u64(0); // receive timestamp
        out.put_u64(self.transmit_timestamp);
    }
}

/// Whether a UDP payload is an NTP packet: the 48-byte fixed header
/// with a non-zero association mode.
pub(crate) fn is_packet(payload: &[u8]) -> bool {
    payload.len() >= 48 && payload[0] & 0x07 != 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_layout() {
        let mut buf = Vec::new();
        NtpPacket::client(0xdead_beef_0000_0001).encode(&mut buf);
        assert_eq!(buf.len(), 48);
        assert_eq!(buf[0], 0x23, "version 4, client mode");
        assert_eq!(buf[40..], 0xdead_beef_0000_0001u64.to_be_bytes());
        assert!(is_packet(&buf));
    }

    #[test]
    fn server_mode() {
        let mut buf = Vec::new();
        NtpPacket::server(7).encode(&mut buf);
        assert_eq!(buf[0] & 0x07, MODE_SERVER);
        assert_eq!(buf[1], 2, "stratum");
    }

    #[test]
    fn rejects_mode_zero_and_short_packets() {
        let mut buf = Vec::new();
        NtpPacket::client(0).encode(&mut buf);
        assert!(!is_packet(&buf[..47]));
        buf[0] &= !0x07;
        assert!(!is_packet(&buf));
    }
}

//! EAPoL (802.1X) frames — the WPA2 four-way handshake every WiFi
//! device performs when associating with the gateway.

use bytes::BufMut;

/// EAPoL packet type: EAPOL-Start.
pub const TYPE_START: u8 = 1;
/// EAPoL packet type: EAPOL-Key (the 4-way handshake).
pub const TYPE_KEY: u8 = 3;

/// An EAPoL frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EapolFrame {
    /// Protocol version (2 for 802.1X-2004).
    pub version: u8,
    /// Packet type.
    pub packet_type: u8,
    /// Body bytes (key descriptor for EAPOL-Key frames).
    pub body: Vec<u8>,
}

impl EapolFrame {
    /// An EAPOL-Start frame.
    pub fn start() -> Self {
        EapolFrame {
            version: 2,
            packet_type: TYPE_START,
            body: Vec::new(),
        }
    }

    /// One message of the WPA2 four-way handshake (`msg` in 1..=4).
    /// The body is a fixed-size RSN key descriptor (95 bytes) with the
    /// key-info field distinguishing the message number.
    ///
    /// # Panics
    ///
    /// Panics if `msg` is not in `1..=4`.
    pub fn key_handshake(msg: u8) -> Self {
        assert!((1..=4).contains(&msg), "handshake message must be 1-4");
        let key_info: u16 = match msg {
            1 => 0x008a, // pairwise, ack
            2 => 0x010a, // pairwise, mic
            3 => 0x13ca, // pairwise, install, ack, mic, secure
            _ => 0x030a, // pairwise, mic, secure
        };
        let mut body = vec![2u8]; // descriptor type: RSN
        body.extend_from_slice(&key_info.to_be_bytes());
        body.extend_from_slice(&16u16.to_be_bytes()); // key length
        body.extend_from_slice(&u64::from(msg).to_be_bytes()); // replay counter
        body.extend_from_slice(&[msg; 32]); // nonce (deterministic filler)
        body.extend_from_slice(&[0; 16]); // key iv
        body.extend_from_slice(&[0; 8]); // key rsc
        body.extend_from_slice(&[0; 8]); // key id
        body.extend_from_slice(&[0; 16]); // mic
        body.extend_from_slice(&0u16.to_be_bytes()); // key data length
        EapolFrame {
            version: 2,
            packet_type: TYPE_KEY,
            body,
        }
    }

    /// Encodes the frame.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u8(self.version);
        out.put_u8(self.packet_type);
        out.put_u16(self.body.len() as u16);
        out.put_slice(&self.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_layout() {
        let mut buf = Vec::new();
        EapolFrame::start().encode(&mut buf);
        assert_eq!(buf, [2, TYPE_START, 0, 0]);
    }

    #[test]
    fn key_messages_have_distinct_key_info() {
        let mut infos = Vec::new();
        for msg in 1..=4 {
            let f = EapolFrame::key_handshake(msg);
            assert_eq!(f.packet_type, TYPE_KEY);
            assert_eq!(f.body.len(), 95);
            infos.push([f.body[1], f.body[2]]);
        }
        infos.dedup();
        assert_eq!(infos.len(), 4, "key-info must differ across messages");
    }

    #[test]
    #[should_panic(expected = "handshake message must be 1-4")]
    fn key_handshake_rejects_bad_msg() {
        let _ = EapolFrame::key_handshake(5);
    }

    #[test]
    fn key_length_field_counts_the_body() {
        let mut buf = Vec::new();
        EapolFrame::key_handshake(3).encode(&mut buf);
        assert_eq!(buf[2..4], 95u16.to_be_bytes());
        assert_eq!(buf.len(), 4 + 95);
    }
}

//! DNS / mDNS message encoding (RFC 1035 subset) and recognition.
//!
//! Encodes questions and a minimal answer section — enough for the
//! queries and announcements IoT devices emit during setup (A lookups
//! of vendor cloud hosts, mDNS PTR/TXT service announcements).

use bytes::BufMut;

/// DNS record type A (IPv4 host address).
pub const TYPE_A: u16 = 1;
/// DNS record type PTR.
pub const TYPE_PTR: u16 = 12;
/// DNS record type TXT.
pub const TYPE_TXT: u16 = 16;
/// DNS class IN.
pub const CLASS_IN: u16 = 1;

/// A DNS question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuestion {
    /// Queried name, dot-separated.
    pub name: String,
    /// Query type (A, AAAA, PTR, …).
    pub qtype: u16,
    /// Query class (`CLASS_IN`, possibly with the mDNS unicast-response
    /// bit 0x8000).
    pub qclass: u16,
}

/// A DNS resource record (answer/authority/additional).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsRecord {
    /// Record name, dot-separated.
    pub name: String,
    /// Record type.
    pub rtype: u16,
    /// Record class.
    pub rclass: u16,
    /// Time to live.
    pub ttl: u32,
    /// Raw RDATA bytes.
    pub rdata: Vec<u8>,
}

/// A DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction identifier (0 for mDNS).
    pub id: u16,
    /// Whether this is a response (QR bit).
    pub response: bool,
    /// Whether recursion is desired.
    pub recursion_desired: bool,
    /// Question entries.
    pub questions: Vec<DnsQuestion>,
    /// Answer records.
    pub answers: Vec<DnsRecord>,
}

impl DnsMessage {
    /// A standard recursive A query for `name`.
    pub fn query_a(id: u16, name: &str) -> Self {
        DnsMessage {
            id,
            response: false,
            recursion_desired: true,
            questions: vec![DnsQuestion {
                name: name.to_string(),
                qtype: TYPE_A,
                qclass: CLASS_IN,
            }],
            answers: Vec::new(),
        }
    }

    /// An mDNS PTR query for a service name such as
    /// `_hap._tcp.local` (id 0, no recursion).
    pub fn mdns_query_ptr(service: &str) -> Self {
        DnsMessage {
            id: 0,
            response: false,
            recursion_desired: false,
            questions: vec![DnsQuestion {
                name: service.to_string(),
                qtype: TYPE_PTR,
                qclass: CLASS_IN,
            }],
            answers: Vec::new(),
        }
    }

    /// An mDNS announcement (response) advertising `instance` under
    /// `service` with a TXT record.
    pub fn mdns_announce(service: &str, instance: &str) -> Self {
        let full = format!("{instance}.{service}");
        DnsMessage {
            id: 0,
            response: true,
            recursion_desired: false,
            questions: Vec::new(),
            answers: vec![
                DnsRecord {
                    name: service.to_string(),
                    rtype: TYPE_PTR,
                    rclass: CLASS_IN | 0x8000, // cache-flush
                    ttl: 4500,
                    rdata: encode_name_bytes(&full),
                },
                DnsRecord {
                    name: full,
                    rtype: TYPE_TXT,
                    rclass: CLASS_IN | 0x8000,
                    ttl: 4500,
                    rdata: b"\x09md=device".to_vec(),
                },
            ],
        }
    }

    /// A response answering `question_name` with an A record.
    pub fn response_a(id: u16, question_name: &str, addr: std::net::Ipv4Addr) -> Self {
        DnsMessage {
            id,
            response: true,
            recursion_desired: true,
            questions: vec![DnsQuestion {
                name: question_name.to_string(),
                qtype: TYPE_A,
                qclass: CLASS_IN,
            }],
            answers: vec![DnsRecord {
                name: question_name.to_string(),
                rtype: TYPE_A,
                rclass: CLASS_IN,
                ttl: 300,
                rdata: addr.octets().to_vec(),
            }],
        }
    }

    /// Encodes the message.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u16(self.id);
        let mut flags = 0u16;
        if self.response {
            flags |= 0x8000;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        out.put_u16(flags);
        out.put_u16(self.questions.len() as u16);
        out.put_u16(self.answers.len() as u16);
        out.put_u16(0); // authority
        out.put_u16(0); // additional
        for q in &self.questions {
            encode_name(&q.name, out);
            out.put_u16(q.qtype);
            out.put_u16(q.qclass);
        }
        for a in &self.answers {
            encode_name(&a.name, out);
            out.put_u16(a.rtype);
            out.put_u16(a.rclass);
            out.put_u32(a.ttl);
            out.put_u16(a.rdata.len() as u16);
            out.put_slice(&a.rdata);
        }
    }
}

/// Encodes a dot-separated name in DNS label format into `out`.
fn encode_name(name: &str, out: &mut Vec<u8>) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        out.put_u8(label.len() as u8);
        out.put_slice(label.as_bytes());
    }
    out.put_u8(0);
}

/// Encodes a name into a standalone byte vector (used for PTR rdata).
pub fn encode_name_bytes(name: &str) -> Vec<u8> {
    let mut out = Vec::new();
    encode_name(name, &mut out);
    out
}

/// Whether a UDP payload is a DNS message: the 12-byte header, then as
/// many well-formed questions and answer records as it counts. Names
/// may end in one compression pointer, whose target must be a name
/// without further pointers.
pub(crate) fn is_message(msg: &[u8]) -> bool {
    message_end(msg).is_some()
}

fn message_end(msg: &[u8]) -> Option<usize> {
    let be16 = |at: usize| Some(u16::from_be_bytes([*msg.get(at)?, *msg.get(at + 1)?]));
    let (questions, answers) = (be16(4)?, be16(6)?);
    // Every read is bounds-checked; an offset that overshoots fails the
    // next read or the final length check.
    let mut at = 12;
    for _ in 0..questions {
        at = name_end(msg, at)? + 4; // type, class
    }
    for _ in 0..answers {
        at = name_end(msg, at)? + 10; // type, class, ttl, rdata length
        at += usize::from(be16(at - 2)?); // rdata
    }
    (msg.len() >= at).then_some(at)
}

/// The offset just past the name starting at `at`.
fn name_end(msg: &[u8], mut at: usize) -> Option<usize> {
    loop {
        let len = *msg.get(at)?;
        at += 1;
        match len {
            0 => return Some(at),
            len if len & 0xc0 == 0xc0 => {
                let offset = usize::from(len & 0x3f) << 8 | usize::from(*msg.get(at)?);
                let mut i = offset;
                loop {
                    match *msg.get(i)? {
                        0 => return Some(at + 1),
                        l if l & 0xc0 == 0xc0 => return None,
                        l => i += 1 + usize::from(l),
                    }
                    if i > msg.len() {
                        return None;
                    }
                }
            }
            len => {
                at += usize::from(len);
                if at > msg.len() {
                    return None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn encoded(msg: &DnsMessage) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf
    }

    #[test]
    fn query_layout() {
        let buf = encoded(&DnsMessage::query_a(0x1234, "api.example.com"));
        assert_eq!(buf[..12], [0x12, 0x34, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(buf[12..16], [3, b'a', b'p', b'i']);
        assert_eq!(message_end(&buf), Some(buf.len()));
    }

    #[test]
    fn mdns_messages_are_recognised() {
        let query = encoded(&DnsMessage::mdns_query_ptr("_hue._tcp.local"));
        assert_eq!(query[..4], [0, 0, 0, 0], "id 0, no recursion");
        assert!(is_message(&query));
        let announce = encoded(&DnsMessage::mdns_announce(
            "_ssdp._udp.local",
            "bridge-0042",
        ));
        assert_eq!(announce[6..8], [0, 2], "two answers");
        assert_eq!(message_end(&announce), Some(announce.len()));
    }

    #[test]
    fn response_a_is_recognised() {
        let buf = encoded(&DnsMessage::response_a(
            9,
            "time.example.org",
            Ipv4Addr::new(10, 1, 2, 3),
        ));
        assert!(buf.ends_with(&[0, 4, 10, 1, 2, 3]));
        assert!(is_message(&buf));
    }

    /// Hand-built: header, question "a.b", answer whose name points at
    /// offset 12 (the question name).
    fn compressed() -> Vec<u8> {
        let mut buf = vec![0, 1, 0x80, 0, 0, 1, 0, 1, 0, 0, 0, 0];
        buf.extend_from_slice(&[1, b'a', 1, b'b', 0]);
        buf.extend_from_slice(&[0, 1, 0, 1]);
        buf.extend_from_slice(&[0xc0, 12]);
        buf.extend_from_slice(&[0, 1, 0, 1, 0, 0, 1, 44, 0, 4, 1, 2, 3, 4]);
        buf
    }

    #[test]
    fn one_compression_pointer_is_followed() {
        let buf = compressed();
        assert_eq!(message_end(&buf), Some(buf.len()));
        let mut nested = buf.clone();
        nested[22] = 21; // the pointed-to name is a pointer itself
        assert!(!is_message(&nested));
        let mut outside = buf;
        outside[22] = 0xc0 | 0x3f; // pointer past the message
        assert!(!is_message(&outside));
    }

    #[test]
    fn truncated_messages_are_not_dns() {
        let buf = encoded(&DnsMessage::query_a(1, "example.com"));
        for cut in [6, 12, 20, buf.len() - 1] {
            assert!(!is_message(&buf[..cut]), "cut at {cut}");
        }
        let buf = compressed();
        assert!(!is_message(&buf[..buf.len() - 1]), "rdata cut short");
    }
}

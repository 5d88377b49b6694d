//! SSDP (Simple Service Discovery Protocol) — HTTP-like text messages
//! over UDP 1900, used by UPnP devices during setup to discover or
//! announce services.

use std::fmt::Write as _;

/// SSDP multicast group address 239.255.255.250.
pub const SSDP_GROUP: std::net::Ipv4Addr = std::net::Ipv4Addr::new(239, 255, 255, 250);

/// SSDP method kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SsdpMethod {
    /// `M-SEARCH * HTTP/1.1` — active discovery.
    MSearch,
    /// `NOTIFY * HTTP/1.1` — presence announcement.
    Notify,
}

impl SsdpMethod {
    /// The request/status line for this method.
    pub fn start_line(self) -> &'static str {
        match self {
            SsdpMethod::MSearch => "M-SEARCH * HTTP/1.1",
            SsdpMethod::Notify => "NOTIFY * HTTP/1.1",
        }
    }
}

/// An SSDP message: method plus ordered headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsdpMessage {
    /// The method.
    pub method: SsdpMethod,
    /// Header name/value pairs in wire order.
    pub headers: Vec<(String, String)>,
}

impl SsdpMessage {
    /// A multicast M-SEARCH for the given search target.
    pub fn msearch(search_target: &str) -> Self {
        SsdpMessage {
            method: SsdpMethod::MSearch,
            headers: vec![
                ("HOST".into(), "239.255.255.250:1900".into()),
                ("MAN".into(), "\"ssdp:discover\"".into()),
                ("MX".into(), "3".into()),
                ("ST".into(), search_target.into()),
            ],
        }
    }

    /// A NOTIFY ssdp:alive announcement for `nt` served at `location`.
    pub fn notify_alive(nt: &str, location: &str, server: &str) -> Self {
        SsdpMessage {
            method: SsdpMethod::Notify,
            headers: vec![
                ("HOST".into(), "239.255.255.250:1900".into()),
                ("CACHE-CONTROL".into(), "max-age=1800".into()),
                ("LOCATION".into(), location.into()),
                ("NT".into(), nt.into()),
                ("NTS".into(), "ssdp:alive".into()),
                ("SERVER".into(), server.into()),
            ],
        }
    }

    /// Encodes the message as CRLF-delimited text.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut text = String::new();
        let _ = write!(text, "{}\r\n", self.method.start_line());
        for (k, v) in &self.headers {
            let _ = write!(text, "{k}: {v}\r\n");
        }
        text.push_str("\r\n");
        out.extend_from_slice(text.as_bytes());
    }
}

/// Whether a UDP payload is an SSDP message: UTF-8 text opening with
/// an M-SEARCH, NOTIFY or `HTTP/1.1 200` start line.
pub(crate) fn is_message(payload: &[u8]) -> bool {
    std::str::from_utf8(payload).is_ok()
        && [&b"M-SEARCH"[..], b"NOTIFY", b"HTTP/1.1 200"]
            .iter()
            .any(|start| payload.starts_with(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msearch_encodes_as_crlf_text() {
        let msg = SsdpMessage::msearch("urn:dial-multiscreen-org:service:dial:1");
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\n"));
        assert!(text.ends_with("ST: urn:dial-multiscreen-org:service:dial:1\r\n\r\n"));
        assert!(is_message(&buf));
    }

    #[test]
    fn notify_is_recognised() {
        let msg = SsdpMessage::notify_alive(
            "upnp:rootdevice",
            "http://192.168.1.50:49152/desc.xml",
            "Linux UPnP/1.0 device/1.0",
        );
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert!(buf.starts_with(b"NOTIFY * HTTP/1.1\r\n"));
        assert!(is_message(&buf));
    }

    #[test]
    fn rejects_binary_and_non_ssdp_text() {
        assert!(!is_message(&[0xff, 0xfe, 0x00]));
        assert!(!is_message(b"NOTIFY \xff"));
        assert!(!is_message(b"GET / HTTP/1.1\r\n\r\n"));
    }

    #[test]
    fn response_start_line() {
        assert!(is_message(
            b"HTTP/1.1 200 OK\r\nST: upnp:rootdevice\r\n\r\n"
        ));
    }
}

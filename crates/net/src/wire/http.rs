//! HTTP/1.x message text and a minimal TLS record codec.
//!
//! The monitor never needs full HTTP semantics — only to recognise
//! HTTP request/response text (port-80 cleartext setup APIs) and TLS
//! records (port-443 cloud connections) well enough to classify the
//! packet and size it realistically.

use bytes::BufMut;

use crate::protocol::AppProtocol;

/// Recognised HTTP request methods.
const METHODS: [&str; 7] = ["GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS", "PATCH"];

/// An HTTP/1.1 request (start line + headers + optional body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Header name/value pairs.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A GET request with standard IoT-client headers.
    pub fn get(host: &str, path: &str, user_agent: &str) -> Self {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            headers: vec![
                ("Host".into(), host.into()),
                ("User-Agent".into(), user_agent.into()),
                ("Accept".into(), "*/*".into()),
                ("Connection".into(), "close".into()),
            ],
            body: Vec::new(),
        }
    }

    /// A POST request carrying `body`.
    pub fn post(host: &str, path: &str, user_agent: &str, body: Vec<u8>) -> Self {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            headers: vec![
                ("Host".into(), host.into()),
                ("User-Agent".into(), user_agent.into()),
                ("Content-Type".into(), "application/json".into()),
                ("Content-Length".into(), body.len().to_string()),
            ],
            body,
        }
    }

    /// Encodes the request as wire text.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_slice(self.method.as_bytes());
        out.put_u8(b' ');
        out.put_slice(self.path.as_bytes());
        out.put_slice(b" HTTP/1.1\r\n");
        for (k, v) in &self.headers {
            out.put_slice(k.as_bytes());
            out.put_slice(b": ");
            out.put_slice(v.as_bytes());
            out.put_slice(b"\r\n");
        }
        out.put_slice(b"\r\n");
        out.put_slice(&self.body);
    }
}

/// Recognises a TCP payload as a TLS record (HTTPS) or HTTP request or
/// response text — the same level of insight a passive monitor has.
/// `None` for anything else.
pub(crate) fn recognise(payload: &[u8]) -> Option<AppProtocol> {
    // TLS record header: content type 20-23, version major 3.
    if payload.len() >= 3 && (20..=23).contains(&payload[0]) && payload[1] == 3 {
        return Some(AppProtocol::Https);
    }
    let head = &payload[..payload.len().min(96)];
    let http = std::str::from_utf8(head).is_ok()
        && (head.starts_with(b"HTTP/1.")
            || METHODS
                .iter()
                .any(|m| head.starts_with(m.as_bytes()) && head.get(m.len()) == Some(&b' ')));
    http.then_some(AppProtocol::Http)
}

/// A minimal TLS ClientHello record carrying an SNI host name — enough
/// to give HTTPS flows realistic first-packet sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TlsClientHello {
    /// The server name indication.
    pub sni: String,
}

impl TlsClientHello {
    /// Creates a hello for `sni`.
    pub fn new(sni: &str) -> Self {
        TlsClientHello { sni: sni.into() }
    }

    /// Encodes a TLS 1.2 record containing a ClientHello handshake with
    /// an SNI extension. Cryptographic fields are deterministic filler.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let sni = self.sni.as_bytes();
        // SNI extension: type 0, list with one host_name entry.
        let sni_entry_len = 3 + sni.len();
        let sni_ext_len = 2 + sni_entry_len;
        let extensions_len = 4 + sni_ext_len;
        // ClientHello body: version(2) random(32) session-id(1)
        // ciphers(2+8) compression(2) extensions(2+len).
        let hello_len = 2 + 32 + 1 + 10 + 2 + 2 + extensions_len;
        let handshake_len = 4 + hello_len;
        out.put_u8(22); // content type: handshake
        out.put_u8(3);
        out.put_u8(3); // TLS 1.2
        out.put_u16(handshake_len as u16);
        out.put_u8(1); // handshake type: client hello
        out.put_u8(0);
        out.put_u16(hello_len as u16);
        out.put_u8(3);
        out.put_u8(3);
        out.put_slice(&[0xab; 32]); // random
        out.put_u8(0); // session id length
        out.put_u16(8); // cipher suites length
        out.put_slice(&[0x13, 0x01, 0x13, 0x02, 0x13, 0x03, 0xc0, 0x2f]);
        out.put_u8(1); // compression methods length
        out.put_u8(0);
        out.put_u16(extensions_len as u16);
        out.put_u16(0); // extension type: server_name
        out.put_u16(sni_ext_len as u16);
        out.put_u16(sni_entry_len as u16);
        out.put_u8(0); // name type: host_name
        out.put_u16(sni.len() as u16);
        out.put_slice(sni);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_get_encodes_as_text() {
        let req = HttpRequest::get("api.example.com", "/v1/register", "edimax-plug/1.0");
        let mut buf = Vec::new();
        req.encode(&mut buf);
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("GET /v1/register HTTP/1.1\r\n"));
        assert!(text.contains("Host: api.example.com\r\n"));
        assert_eq!(recognise(&buf), Some(AppProtocol::Http));
    }

    #[test]
    fn http_post_carries_body() {
        let req = HttpRequest::post("h", "/p", "ua", b"{\"k\":1}".to_vec());
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert!(buf.ends_with(b"{\"k\":1}"));
        assert_eq!(recognise(&buf), Some(AppProtocol::Http));
    }

    #[test]
    fn http_response_is_http() {
        assert_eq!(
            recognise(b"HTTP/1.1 200 OK\r\n\r\n"),
            Some(AppProtocol::Http)
        );
    }

    #[test]
    fn tls_records_are_https() {
        let mut hello = Vec::new();
        TlsClientHello::new("cloud.vendor.example").encode(&mut hello);
        assert_eq!(recognise(&hello), Some(AppProtocol::Https));
        assert!(hello.ends_with(b"cloud.vendor.example"));
        assert_eq!(recognise(&[23, 3, 3, 0, 16, 1]), Some(AppProtocol::Https));
    }

    #[test]
    fn other_payloads_are_not_recognised() {
        assert_eq!(recognise(b""), None);
        assert_eq!(recognise(&[0x00, 0x01, 0x02]), None);
        assert_eq!(recognise(b"GETX/"), None);
        assert_eq!(recognise(b"GET \xff"), None, "not text");
    }
}

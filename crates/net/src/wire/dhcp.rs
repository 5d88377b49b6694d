//! DHCP / BOOTP message encoding (RFC 2131) and recognition.
//!
//! The fingerprint distinguishes DHCP (a BOOTP message carrying the
//! message-type option 53) from plain BOOTP, and the decoder recognises
//! both cases.

use std::net::Ipv4Addr;

use bytes::BufMut;

use crate::mac::MacAddr;
use crate::protocol::AppProtocol;

/// DHCP magic cookie following the BOOTP fixed header.
pub const MAGIC_COOKIE: [u8; 4] = [0x63, 0x82, 0x53, 0x63];

/// DHCP message types (option 53 values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DhcpMessageType {
    /// Client broadcast to locate servers.
    Discover = 1,
    /// Server offer of parameters.
    Offer = 2,
    /// Client request of offered parameters.
    Request = 3,
    /// Client-to-server address decline.
    Decline = 4,
    /// Server acknowledgment.
    Ack = 5,
    /// Server negative acknowledgment.
    Nak = 6,
    /// Client release of its lease.
    Release = 7,
    /// Client asking for local configuration only.
    Inform = 8,
}

/// A DHCP option (subset used by IoT device setup flows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DhcpOption {
    /// Option 53: message type.
    MessageType(DhcpMessageType),
    /// Option 50: requested IP address.
    RequestedIp(Ipv4Addr),
    /// Option 54: server identifier.
    ServerId(Ipv4Addr),
    /// Option 12: host name.
    HostName(String),
    /// Option 55: parameter request list.
    ParameterRequestList(Vec<u8>),
    /// Option 51: lease time in seconds.
    LeaseTime(u32),
}

/// A BOOTP/DHCP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhcpMessage {
    /// 1 = BOOTREQUEST, 2 = BOOTREPLY.
    pub op: u8,
    /// Transaction id.
    pub xid: u32,
    /// Seconds elapsed since the client began acquisition.
    pub secs: u16,
    /// Broadcast flag.
    pub broadcast: bool,
    /// Client address (when renewing).
    pub ciaddr: Ipv4Addr,
    /// "Your" address (server-assigned).
    pub yiaddr: Ipv4Addr,
    /// Server address.
    pub siaddr: Ipv4Addr,
    /// Client hardware address.
    pub chaddr: MacAddr,
    /// Options, in wire order. Empty for plain BOOTP.
    pub options: Vec<DhcpOption>,
}

impl DhcpMessage {
    /// A client DHCPDISCOVER broadcast.
    pub fn discover(chaddr: MacAddr, xid: u32, hostname: &str) -> Self {
        DhcpMessage {
            op: 1,
            xid,
            secs: 0,
            broadcast: false,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            siaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            options: vec![
                DhcpOption::MessageType(DhcpMessageType::Discover),
                DhcpOption::HostName(hostname.to_string()),
                DhcpOption::ParameterRequestList(vec![1, 3, 6, 15, 28]),
            ],
        }
    }

    /// A client DHCPREQUEST for `requested` from `server`.
    pub fn request(
        chaddr: MacAddr,
        xid: u32,
        requested: Ipv4Addr,
        server: Ipv4Addr,
        hostname: &str,
    ) -> Self {
        DhcpMessage {
            op: 1,
            xid,
            secs: 0,
            broadcast: false,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            siaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            options: vec![
                DhcpOption::MessageType(DhcpMessageType::Request),
                DhcpOption::RequestedIp(requested),
                DhcpOption::ServerId(server),
                DhcpOption::HostName(hostname.to_string()),
                DhcpOption::ParameterRequestList(vec![1, 3, 6, 15, 28]),
            ],
        }
    }

    /// A server DHCPOFFER or DHCPACK for `yiaddr`.
    pub fn server_reply(
        msg_type: DhcpMessageType,
        chaddr: MacAddr,
        xid: u32,
        yiaddr: Ipv4Addr,
        server: Ipv4Addr,
    ) -> Self {
        DhcpMessage {
            op: 2,
            xid,
            secs: 0,
            broadcast: false,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr,
            siaddr: server,
            chaddr,
            options: vec![
                DhcpOption::MessageType(msg_type),
                DhcpOption::ServerId(server),
                DhcpOption::LeaseTime(86400),
            ],
        }
    }

    /// A plain BOOTP request (no DHCP options at all).
    pub fn bootp_request(chaddr: MacAddr, xid: u32) -> Self {
        DhcpMessage {
            op: 1,
            xid,
            secs: 0,
            broadcast: false,
            ciaddr: Ipv4Addr::UNSPECIFIED,
            yiaddr: Ipv4Addr::UNSPECIFIED,
            siaddr: Ipv4Addr::UNSPECIFIED,
            chaddr,
            options: Vec::new(),
        }
    }

    /// Encodes the message.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.put_u8(self.op);
        out.put_u8(1); // htype: ethernet
        out.put_u8(6); // hlen
        out.put_u8(0); // hops
        out.put_u32(self.xid);
        out.put_u16(self.secs);
        out.put_u16(if self.broadcast { 0x8000 } else { 0 });
        out.put_slice(&self.ciaddr.octets());
        out.put_slice(&self.yiaddr.octets());
        out.put_slice(&self.siaddr.octets());
        out.put_slice(&Ipv4Addr::UNSPECIFIED.octets()); // giaddr
        out.put_slice(&self.chaddr.octets());
        out.put_slice(&[0u8; 10]); // chaddr padding
        out.put_slice(&[0u8; 64]); // sname
        out.put_slice(&[0u8; 128]); // file
        if !self.options.is_empty() {
            out.put_slice(&MAGIC_COOKIE);
            for opt in &self.options {
                match opt {
                    DhcpOption::MessageType(t) => {
                        out.put_slice(&[53, 1, *t as u8]);
                    }
                    DhcpOption::RequestedIp(ip) => {
                        out.put_slice(&[50, 4]);
                        out.put_slice(&ip.octets());
                    }
                    DhcpOption::ServerId(ip) => {
                        out.put_slice(&[54, 4]);
                        out.put_slice(&ip.octets());
                    }
                    DhcpOption::HostName(name) => {
                        out.put_u8(12);
                        out.put_u8(name.len() as u8);
                        out.put_slice(name.as_bytes());
                    }
                    DhcpOption::ParameterRequestList(params) => {
                        out.put_u8(55);
                        out.put_u8(params.len() as u8);
                        out.put_slice(params);
                    }
                    DhcpOption::LeaseTime(t) => {
                        out.put_slice(&[51, 4]);
                        out.put_u32(*t);
                    }
                }
            }
            out.put_u8(255); // end option
        }
    }
}

/// Recognises a UDP payload as DHCP or plain BOOTP: a BOOTREQUEST or
/// BOOTREPLY with the full 236-byte fixed header and, after the magic
/// cookie, a well-formed option list. DHCP is a message-type option
/// (53) with a valid type. `None` if the payload is neither.
pub(crate) fn recognise(msg: &[u8]) -> Option<AppProtocol> {
    if msg.len() < 236 || !matches!(msg[0], 1 | 2) {
        return None;
    }
    let mut dhcp = false;
    if msg.get(236..240) == Some(&MAGIC_COOKIE[..]) {
        let mut at = 240;
        while let Some(&code) = msg.get(at) {
            at += 1;
            match code {
                0 => {}       // pad
                255 => break, // end
                _ => {
                    let len = usize::from(*msg.get(at)?);
                    let data = msg.get(at + 1..at + 1 + len)?;
                    dhcp |= code == 53 && len == 1 && (1..=8).contains(&data[0]);
                    at += 1 + len;
                }
            }
        }
    }
    Some(if dhcp {
        AppProtocol::Dhcp
    } else {
        AppProtocol::Bootp
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, 7])
    }

    fn encoded(msg: &DhcpMessage) -> Vec<u8> {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf
    }

    #[test]
    fn discover_layout() {
        let buf = encoded(&DhcpMessage::discover(mac(), 0xdeadbeef, "smart-plug"));
        assert_eq!(buf[0], 1, "BOOTREQUEST");
        assert_eq!(buf[4..8], 0xdeadbeef_u32.to_be_bytes());
        assert_eq!(buf[28..34], mac().octets());
        assert_eq!(buf[236..243], [0x63, 0x82, 0x53, 0x63, 53, 1, 1]);
        assert_eq!(buf.last(), Some(&255));
        assert_eq!(recognise(&buf), Some(AppProtocol::Dhcp));
    }

    #[test]
    fn server_ack_is_dhcp() {
        let msg = DhcpMessage::server_reply(
            DhcpMessageType::Ack,
            mac(),
            7,
            Ipv4Addr::new(192, 168, 1, 50),
            Ipv4Addr::new(192, 168, 1, 1),
        );
        let buf = encoded(&msg);
        assert_eq!(buf[0], 2, "BOOTREPLY");
        assert_eq!(buf[16..20], [192, 168, 1, 50]);
        assert_eq!(recognise(&buf), Some(AppProtocol::Dhcp));
    }

    #[test]
    fn plain_bootp_has_no_message_type() {
        let buf = encoded(&DhcpMessage::bootp_request(mac(), 42));
        assert_eq!(buf.len(), 236, "fixed header only");
        assert_eq!(recognise(&buf), Some(AppProtocol::Bootp));
    }

    #[test]
    fn invalid_message_types_and_bad_ops_are_not_dhcp() {
        let mut buf = encoded(&DhcpMessage::discover(mac(), 1, "plug"));
        buf[242] = 9; // option 53 value out of range
        assert_eq!(recognise(&buf), Some(AppProtocol::Bootp));
        buf[0] = 9;
        assert_eq!(recognise(&buf), None);
    }

    #[test]
    fn truncated_options_are_not_bootp() {
        let buf = encoded(&DhcpMessage::discover(mac(), 1, "plug"));
        // Cut inside the host-name option: the option list is malformed.
        assert_eq!(recognise(&buf[..246]), None);
        assert_eq!(recognise(&buf[..235]), None);
    }
}

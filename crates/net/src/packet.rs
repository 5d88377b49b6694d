//! The decoded packet record: what Table I reads from one frame.
//!
//! A [`Packet`] is what the Security Gateway's monitoring plane keeps of
//! a captured frame: the source MAC and capture time the capture monitor
//! routes on, and exactly the header-level facts the 23 fingerprint
//! features are computed from (protocol flags, IP options, size, raw
//! data, destination IP and ports). It is a flat `Copy` value and keeps
//! no payload contents — the paper's features "do not rely on packet
//! payload, ensuring that fingerprints can be extracted from encrypted
//! traffic" (§IV-A).
//!
//! Packets are normally produced by [`crate::wire::decode_frame`], which
//! reads each header from the frame bytes where it lies; the
//! [`PacketBuilder`] exists for tests and synthetic scenarios that do
//! not need byte-level realism.

use std::net::{IpAddr, Ipv4Addr};

use crate::mac::MacAddr;
use crate::port::Port;
use crate::protocol::AppProtocol;
use crate::time::SimTime;

/// One bit per Table I flag a frame can carry.
pub(crate) mod flag {
    pub const ARP: u16 = 1 << 0;
    pub const LLC: u16 = 1 << 1;
    pub const IP: u16 = 1 << 2;
    pub const ICMP: u16 = 1 << 3;
    pub const ICMPV6: u16 = 1 << 4;
    pub const EAPOL: u16 = 1 << 5;
    pub const TCP: u16 = 1 << 6;
    pub const UDP: u16 = 1 << 7;
    /// IPv4 header options contained padding (NOP/EOL) bytes.
    pub const PADDING: u16 = 1 << 8;
    /// IPv4 options or an IPv6 hop-by-hop header carried Router Alert.
    pub const ROUTER_ALERT: u16 = 1 << 9;
    /// A payload a scapy-style parser would leave in a `Raw` layer:
    /// HTTP, SSDP, TLS or unrecognised bytes (not DHCP, BOOTP, DNS or
    /// NTP, which parse into structured layers).
    pub const RAW_DATA: u16 = 1 << 10;
}

/// The header-level record of one captured frame.
///
/// # Examples
///
/// ```
/// use sentinel_net::{AppProtocol, MacAddr, Packet, Port};
///
/// let pkt = Packet::builder(MacAddr::new([2, 0, 0, 0, 0, 1]))
///     .udp(Port::DHCP_CLIENT, Port::DHCP_SERVER)
///     .dhcp()
///     .wire_len(342)
///     .build();
/// assert!(pkt.is_udp());
/// assert_eq!(pkt.dst_port(), Some(Port::DHCP_SERVER));
/// assert_eq!(pkt.app_protocol(), Some(AppProtocol::Dhcp));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    pub(crate) time: SimTime,
    pub(crate) src_mac: MacAddr,
    pub(crate) wire_len: usize,
    pub(crate) dst_ip: Option<IpAddr>,
    pub(crate) src_port: Option<Port>,
    pub(crate) dst_port: Option<Port>,
    pub(crate) app: Option<AppProtocol>,
    pub(crate) flags: u16,
}

impl Packet {
    /// A record of a `wire_len`-byte frame from `src_mac` with no
    /// protocol recognised yet.
    pub(crate) fn new(time: SimTime, src_mac: MacAddr, wire_len: usize) -> Self {
        Packet {
            time,
            src_mac,
            wire_len,
            dst_ip: None,
            src_port: None,
            dst_port: None,
            app: None,
            flags: 0,
        }
    }

    /// Starts building a packet sent by `src_mac`. With no further
    /// setter it is a 64-byte frame that carries no recognised protocol.
    pub fn builder(src_mac: MacAddr) -> PacketBuilder {
        PacketBuilder {
            packet: Packet::new(SimTime::ZERO, src_mac, 64),
            recognised: None,
        }
    }

    fn has(&self, bit: u16) -> bool {
        self.flags & bit != 0
    }

    /// Capture timestamp.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// Source MAC address (the device under observation, for setup
    /// traffic).
    pub fn src_mac(&self) -> MacAddr {
        self.src_mac
    }

    /// Total frame length in bytes (fingerprint feature 19, "size").
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// Whether the packet is ARP (fingerprint feature 1).
    pub fn is_arp(&self) -> bool {
        self.has(flag::ARP)
    }

    /// Whether the frame used 802.2 LLC framing (fingerprint feature 2).
    pub fn is_llc(&self) -> bool {
        self.has(flag::LLC)
    }

    /// Whether the packet is IPv4 or IPv6 (fingerprint feature 3).
    pub fn is_ip(&self) -> bool {
        self.has(flag::IP)
    }

    /// Whether the packet is ICMP (fingerprint feature 4).
    pub fn is_icmp(&self) -> bool {
        self.has(flag::ICMP)
    }

    /// Whether the packet is ICMPv6 (fingerprint feature 5).
    pub fn is_icmpv6(&self) -> bool {
        self.has(flag::ICMPV6)
    }

    /// Whether the packet is EAPoL (fingerprint feature 6).
    pub fn is_eapol(&self) -> bool {
        self.has(flag::EAPOL)
    }

    /// Whether the packet is TCP (fingerprint feature 7).
    pub fn is_tcp(&self) -> bool {
        self.has(flag::TCP)
    }

    /// Whether the packet is UDP (fingerprint feature 8).
    pub fn is_udp(&self) -> bool {
        self.has(flag::UDP)
    }

    /// Source transport port, if the packet is TCP or UDP.
    pub fn src_port(&self) -> Option<Port> {
        self.src_port
    }

    /// Destination transport port, if the packet is TCP or UDP.
    pub fn dst_port(&self) -> Option<Port> {
        self.dst_port
    }

    /// Destination IP address, if the packet is IP (fingerprint feature
    /// 21 counts distinct values of this).
    pub fn dst_ip(&self) -> Option<IpAddr> {
        self.dst_ip
    }

    /// Whether IPv4 header options carried padding (fingerprint feature
    /// 17).
    pub fn has_ip_padding(&self) -> bool {
        self.has(flag::PADDING)
    }

    /// Whether IP header options carried Router Alert (fingerprint
    /// feature 18).
    pub fn has_router_alert(&self) -> bool {
        self.has(flag::ROUTER_ALERT)
    }

    /// Whether the packet carries "raw data" (fingerprint feature 20):
    /// an HTTP, SSDP, TLS or unrecognised payload. Fully structured
    /// binary control protocols (DHCP, BOOTP, DNS, NTP) do not count.
    pub fn has_raw_data(&self) -> bool {
        self.has(flag::RAW_DATA)
    }

    /// Application-layer protocol (fingerprint features 9–16).
    /// Payload-driven where the decoder recognised the content, with a
    /// port-based fallback otherwise; mDNS and DNS are told apart by
    /// port, and TLS classifies as HTTPS.
    pub fn app_protocol(&self) -> Option<AppProtocol> {
        self.app
    }
}

/// DNS on port 5353 at either end is mDNS.
pub(crate) fn dns_or_mdns(src: Option<Port>, dst: Option<Port>) -> AppProtocol {
    if src == Some(Port::MDNS) || dst == Some(Port::MDNS) {
        AppProtocol::Mdns
    } else {
        AppProtocol::Dns
    }
}

/// Incremental builder for [`Packet`], for tests and synthetic scenarios.
///
/// Wire-accurate traffic should instead be produced with
/// [`crate::wire::compose`] and decoded via [`crate::wire::decode_frame`].
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    packet: Packet,
    /// The protocol a payload setter named; resolved against the ports
    /// by [`PacketBuilder::build`] the way the decoder resolves it.
    recognised: Option<AppProtocol>,
}

impl PacketBuilder {
    /// Sets the total frame length in bytes.
    pub fn wire_len(mut self, len: usize) -> Self {
        self.packet.wire_len = len;
        self
    }

    /// Makes this an ARP packet.
    pub fn arp(mut self) -> Self {
        self.packet.flags |= flag::ARP;
        self
    }

    /// Makes this an EAPoL packet.
    pub fn eapol(mut self) -> Self {
        self.packet.flags |= flag::EAPOL;
        self
    }

    /// Adds an IPv4 header addressed to `dst`.
    pub fn ipv4(mut self, dst: Ipv4Addr) -> Self {
        self.packet.flags |= flag::IP;
        self.packet.dst_ip = Some(IpAddr::V4(dst));
        self
    }

    /// Adds a TCP header (defaulting the IP layer to IPv4 broadcast).
    pub fn tcp(self, src_port: Port, dst_port: Port) -> Self {
        self.transport(flag::TCP, src_port, dst_port)
    }

    /// Adds a UDP header (defaulting the IP layer to IPv4 broadcast).
    pub fn udp(self, src_port: Port, dst_port: Port) -> Self {
        self.transport(flag::UDP, src_port, dst_port)
    }

    fn transport(mut self, transport: u16, src_port: Port, dst_port: Port) -> Self {
        if self.packet.dst_ip.is_none() {
            self = self.ipv4(Ipv4Addr::BROADCAST);
        }
        self.packet.flags |= transport;
        self.packet.src_port = Some(src_port);
        self.packet.dst_port = Some(dst_port);
        self
    }

    fn payload(mut self, recognised: Option<AppProtocol>, raw: bool) -> Self {
        self.recognised = recognised;
        if raw {
            self.packet.flags |= flag::RAW_DATA;
        }
        self
    }

    /// Carries a DHCP message (BOOTP with option 53).
    pub fn dhcp(self) -> Self {
        self.payload(Some(AppProtocol::Dhcp), false)
    }

    /// Carries a plain BOOTP message.
    pub fn bootp(self) -> Self {
        self.payload(Some(AppProtocol::Bootp), false)
    }

    /// Carries a DNS message (mDNS when either port is 5353).
    pub fn dns(self) -> Self {
        self.payload(Some(AppProtocol::Dns), false)
    }

    /// Carries a TLS record (HTTPS).
    pub fn tls(self) -> Self {
        self.payload(Some(AppProtocol::Https), true)
    }

    /// Carries payload bytes no codec recognises.
    pub fn opaque(self) -> Self {
        self.payload(None, true)
    }

    /// Finishes building the packet.
    pub fn build(self) -> Packet {
        let mut packet = self.packet;
        let (src, dst) = (packet.src_port, packet.dst_port);
        packet.app = match self.recognised {
            Some(AppProtocol::Dns) => Some(dns_or_mdns(src, dst)),
            Some(app) => Some(app),
            None => AppProtocol::from_ports(src, dst),
        };
        packet
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac() -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, 1])
    }

    #[test]
    fn builder_defaults() {
        let p = Packet::builder(mac()).build();
        assert_eq!(p.src_mac(), mac());
        assert!(!p.is_arp());
        assert!(!p.is_ip());
        assert_eq!(p.dst_ip(), None);
        assert_eq!(p.app_protocol(), None);
    }

    #[test]
    fn dhcp_is_structured_not_raw() {
        let p = Packet::builder(mac())
            .udp(Port::DHCP_CLIENT, Port::DHCP_SERVER)
            .dhcp()
            .build();
        assert_eq!(p.app_protocol(), Some(AppProtocol::Dhcp));
        assert!(p.is_udp() && p.is_ip());
        assert_eq!(p.dst_ip(), Some(IpAddr::V4(Ipv4Addr::BROADCAST)));
        assert!(!p.has_raw_data());
    }

    #[test]
    fn mdns_vs_dns_by_port() {
        let dns = Packet::builder(mac())
            .udp(Port::new(50000), Port::DNS)
            .dns()
            .build();
        assert_eq!(dns.app_protocol(), Some(AppProtocol::Dns));
        let mdns = Packet::builder(mac())
            .udp(Port::MDNS, Port::MDNS)
            .dns()
            .build();
        assert_eq!(mdns.app_protocol(), Some(AppProtocol::Mdns));
    }

    #[test]
    fn tls_is_https_and_raw() {
        let p = Packet::builder(mac())
            .tcp(Port::new(50001), Port::new(9999))
            .tls()
            .build();
        assert_eq!(p.app_protocol(), Some(AppProtocol::Https));
        assert!(p.has_raw_data());
    }

    #[test]
    fn unrecognised_payloads_fall_back_to_ports() {
        let p = Packet::builder(mac())
            .tcp(Port::new(50001), Port::new(9999))
            .build();
        assert_eq!(p.app_protocol(), None);
        let p = Packet::builder(mac())
            .tcp(Port::new(50001), Port::HTTP)
            .opaque()
            .build();
        assert_eq!(p.app_protocol(), Some(AppProtocol::Http));
        assert!(p.has_raw_data());
    }

    #[test]
    fn link_layer_flags() {
        let p = Packet::builder(mac()).arp().build();
        assert!(p.is_arp() && !p.is_ip());
        let p = Packet::builder(mac()).eapol().build();
        assert!(p.is_eapol() && !p.is_ip());
    }

    #[test]
    fn packet_is_a_small_copy_record() {
        assert!(std::mem::size_of::<Packet>() <= 64);
    }
}

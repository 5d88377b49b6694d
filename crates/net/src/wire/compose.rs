//! High-level frame composition.
//!
//! Each function assembles a complete, decodable Ethernet frame for one
//! protocol event of an IoT device's setup conversation. The device
//! simulator (`sentinel-devices`) sequences these into full setup
//! traces; [`super::decode_frame`] parses them back.

#![allow(clippy::too_many_arguments)] // frame composers mirror header fields 1:1

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::mac::MacAddr;
use crate::port::Port;
use crate::protocol::{EtherType, IpProtocol};

use super::arp::ArpPacket;
use super::dhcp::{DhcpMessage, DhcpMessageType};
use super::dns::DnsMessage;
use super::eapol::EapolFrame;
use super::ethernet::{pad_to_minimum, EthernetHeader};
use super::http::{HttpRequest, TlsClientHello};
use super::icmp::{IcmpMessage, IgmpMessage};
use super::ipv4::Ipv4Header;
use super::ipv6::{all_mld_routers, link_local_from_mac, Ipv6Header};
use super::ntp::NtpPacket;
use super::ssdp::{SsdpMessage, SSDP_GROUP};
use super::tcp::TcpSegment;
use super::udp::UdpDatagram;

/// The mDNS multicast group 224.0.0.251.
pub const MDNS_GROUP: Ipv4Addr = Ipv4Addr::new(224, 0, 0, 251);

/// Wraps `payload` in an Ethernet II frame and pads to the minimum
/// frame size.
fn ethernet_frame(src: MacAddr, dst: MacAddr, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(14 + payload.len().max(46));
    EthernetHeader::TypeII {
        dst,
        src,
        ethertype: ethertype.as_u16(),
    }
    .encode(&mut out);
    out.extend_from_slice(payload);
    pad_to_minimum(&mut out);
    out
}

/// Wraps a transport payload in IPv4 + Ethernet.
fn ipv4_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    header: &Ipv4Header,
    transport: &[u8],
) -> Vec<u8> {
    let mut ip = Vec::with_capacity(header.header_len() + transport.len());
    header.encode(&mut ip, transport.len());
    ip.extend_from_slice(transport);
    ethernet_frame(src_mac, dst_mac, EtherType::Ipv4, &ip)
}

/// Wraps a transport payload in IPv6 + Ethernet.
fn ipv6_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    header: &Ipv6Header,
    transport: &[u8],
) -> Vec<u8> {
    let mut ip = Vec::with_capacity(header.header_len() + transport.len());
    header.encode(&mut ip, transport.len());
    ip.extend_from_slice(transport);
    ethernet_frame(src_mac, dst_mac, EtherType::Ipv6, &ip)
}

/// Builds a UDP/IPv4 frame.
pub fn udp_ipv4(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: Port,
    dst_port: Port,
    payload: Vec<u8>,
) -> Vec<u8> {
    let dg = UdpDatagram::new(src_port, dst_port, payload);
    let mut transport = Vec::new();
    dg.encode(&mut transport);
    let header = Ipv4Header::new(src_ip, dst_ip, IpProtocol::Udp.as_u8());
    ipv4_frame(src_mac, dst_mac, &header, &transport)
}

// ---------------------------------------------------------------------
// 802.1X / WiFi association
// ---------------------------------------------------------------------

/// EAPOL-Start from a device to the gateway.
pub fn eapol_start(src: MacAddr, gateway: MacAddr) -> Vec<u8> {
    let mut body = Vec::new();
    EapolFrame::start().encode(&mut body);
    ethernet_frame(src, gateway, EtherType::Eapol, &body)
}

/// One message of the WPA2 four-way handshake. Messages 1 and 3 travel
/// gateway→device; 2 and 4 device→gateway — the caller picks src/dst.
///
/// # Panics
///
/// Panics if `msg` is not in `1..=4`.
pub fn eapol_key(src: MacAddr, dst: MacAddr, msg: u8) -> Vec<u8> {
    let mut body = Vec::new();
    EapolFrame::key_handshake(msg).encode(&mut body);
    ethernet_frame(src, dst, EtherType::Eapol, &body)
}

// ---------------------------------------------------------------------
// ARP
// ---------------------------------------------------------------------

/// ARP probe (RFC 5227 duplicate address detection) broadcast.
pub fn arp_probe(src: MacAddr, target_ip: Ipv4Addr) -> Vec<u8> {
    let mut body = Vec::new();
    ArpPacket::probe(src, target_ip).encode(&mut body);
    ethernet_frame(src, MacAddr::BROADCAST, EtherType::Arp, &body)
}

/// Gratuitous ARP announcement broadcast.
pub fn arp_announce(src: MacAddr, ip: Ipv4Addr) -> Vec<u8> {
    let mut body = Vec::new();
    ArpPacket::announce(src, ip).encode(&mut body);
    ethernet_frame(src, MacAddr::BROADCAST, EtherType::Arp, &body)
}

/// ARP request resolving `target_ip` (typically the gateway).
pub fn arp_request(src: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Vec<u8> {
    let mut body = Vec::new();
    ArpPacket::request(src, sender_ip, target_ip).encode(&mut body);
    ethernet_frame(src, MacAddr::BROADCAST, EtherType::Arp, &body)
}

/// Unicast ARP reply.
pub fn arp_reply(src: MacAddr, dst: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Vec<u8> {
    let mut body = Vec::new();
    ArpPacket::reply(src, sender_ip, dst, target_ip).encode(&mut body);
    ethernet_frame(src, dst, EtherType::Arp, &body)
}

// ---------------------------------------------------------------------
// DHCP / BOOTP
// ---------------------------------------------------------------------

fn dhcp_broadcast(src: MacAddr, msg: &DhcpMessage) -> Vec<u8> {
    let mut payload = Vec::new();
    msg.encode(&mut payload);
    udp_ipv4(
        src,
        MacAddr::BROADCAST,
        Ipv4Addr::UNSPECIFIED,
        Ipv4Addr::BROADCAST,
        Port::DHCP_CLIENT,
        Port::DHCP_SERVER,
        payload,
    )
}

/// DHCPDISCOVER broadcast from a device.
pub fn dhcp_discover(src: MacAddr, xid: u32, hostname: &str) -> Vec<u8> {
    dhcp_broadcast(src, &DhcpMessage::discover(src, xid, hostname))
}

/// DHCPREQUEST broadcast from a device.
pub fn dhcp_request(
    src: MacAddr,
    xid: u32,
    requested: Ipv4Addr,
    server: Ipv4Addr,
    hostname: &str,
) -> Vec<u8> {
    dhcp_broadcast(
        src,
        &DhcpMessage::request(src, xid, requested, server, hostname),
    )
}

/// Plain BOOTP request broadcast (legacy devices).
pub fn bootp_request(src: MacAddr, xid: u32) -> Vec<u8> {
    dhcp_broadcast(src, &DhcpMessage::bootp_request(src, xid))
}

/// DHCPOFFER or DHCPACK from the gateway to a device.
pub fn dhcp_server_reply(
    gateway_mac: MacAddr,
    device_mac: MacAddr,
    msg_type: DhcpMessageType,
    xid: u32,
    yiaddr: Ipv4Addr,
    server: Ipv4Addr,
) -> Vec<u8> {
    let msg = DhcpMessage::server_reply(msg_type, device_mac, xid, yiaddr, server);
    let mut payload = Vec::new();
    msg.encode(&mut payload);
    udp_ipv4(
        gateway_mac,
        device_mac,
        server,
        yiaddr,
        Port::DHCP_SERVER,
        Port::DHCP_CLIENT,
        payload,
    )
}

// ---------------------------------------------------------------------
// DNS / mDNS
// ---------------------------------------------------------------------

/// Unicast DNS A query from a device to its resolver.
pub fn dns_query(
    src: MacAddr,
    gateway_mac: MacAddr,
    src_ip: Ipv4Addr,
    resolver: Ipv4Addr,
    id: u16,
    name: &str,
    src_port: Port,
) -> Vec<u8> {
    let mut payload = Vec::new();
    DnsMessage::query_a(id, name).encode(&mut payload);
    udp_ipv4(
        src,
        gateway_mac,
        src_ip,
        resolver,
        src_port,
        Port::DNS,
        payload,
    )
}

/// DNS A response from the resolver back to a device.
pub fn dns_response(
    gateway_mac: MacAddr,
    device_mac: MacAddr,
    resolver: Ipv4Addr,
    device_ip: Ipv4Addr,
    id: u16,
    name: &str,
    answer: Ipv4Addr,
    dst_port: Port,
) -> Vec<u8> {
    let mut payload = Vec::new();
    DnsMessage::response_a(id, name, answer).encode(&mut payload);
    udp_ipv4(
        gateway_mac,
        device_mac,
        resolver,
        device_ip,
        Port::DNS,
        dst_port,
        payload,
    )
}

/// Multicast mDNS PTR query (e.g. service discovery on `.local`).
pub fn mdns_query(src: MacAddr, src_ip: Ipv4Addr, service: &str) -> Vec<u8> {
    let mut payload = Vec::new();
    DnsMessage::mdns_query_ptr(service).encode(&mut payload);
    udp_ipv4(
        src,
        MacAddr::ipv4_multicast(0xfb),
        src_ip,
        MDNS_GROUP,
        Port::MDNS,
        Port::MDNS,
        payload,
    )
}

/// Multicast mDNS announcement of `instance` under `service`.
pub fn mdns_announce(src: MacAddr, src_ip: Ipv4Addr, service: &str, instance: &str) -> Vec<u8> {
    let mut payload = Vec::new();
    DnsMessage::mdns_announce(service, instance).encode(&mut payload);
    udp_ipv4(
        src,
        MacAddr::ipv4_multicast(0xfb),
        src_ip,
        MDNS_GROUP,
        Port::MDNS,
        Port::MDNS,
        payload,
    )
}

// ---------------------------------------------------------------------
// SSDP / IGMP
// ---------------------------------------------------------------------

/// Multicast SSDP M-SEARCH for `search_target`.
pub fn ssdp_msearch(
    src: MacAddr,
    src_ip: Ipv4Addr,
    search_target: &str,
    src_port: Port,
) -> Vec<u8> {
    let mut payload = Vec::new();
    SsdpMessage::msearch(search_target).encode(&mut payload);
    udp_ipv4(
        src,
        MacAddr::ipv4_multicast(0x007f_fffa),
        src_ip,
        SSDP_GROUP,
        src_port,
        Port::SSDP,
        payload,
    )
}

/// Multicast SSDP NOTIFY ssdp:alive announcement.
pub fn ssdp_notify(
    src: MacAddr,
    src_ip: Ipv4Addr,
    nt: &str,
    location: &str,
    server: &str,
) -> Vec<u8> {
    let mut payload = Vec::new();
    SsdpMessage::notify_alive(nt, location, server).encode(&mut payload);
    udp_ipv4(
        src,
        MacAddr::ipv4_multicast(0x007f_fffa),
        src_ip,
        SSDP_GROUP,
        Port::new(1900),
        Port::SSDP,
        payload,
    )
}

/// IGMPv3 membership report joining `group`, carrying the Router Alert
/// IP option (all IGMP does) — the source of fingerprint feature 18.
pub fn igmp_join(src: MacAddr, src_ip: Ipv4Addr, group: Ipv4Addr) -> Vec<u8> {
    let mut transport = Vec::new();
    IgmpMessage::v3_join(group).encode(&mut transport);
    let header = Ipv4Header::new(
        src_ip,
        Ipv4Addr::new(224, 0, 0, 22),
        IpProtocol::Igmp.as_u8(),
    )
    .with_router_alert();
    ipv4_frame(src, MacAddr::ipv4_multicast(0x16), &header, &transport)
}

/// IGMPv2 membership report variant whose IP header carries Router
/// Alert *and* option padding — some embedded stacks pad the options
/// word, which is exactly fingerprint feature 17.
pub fn igmp_join_padded(src: MacAddr, src_ip: Ipv4Addr, group: Ipv4Addr) -> Vec<u8> {
    let mut transport = Vec::new();
    IgmpMessage::v2_report(group).encode(&mut transport);
    let header = Ipv4Header::new(src_ip, group, IpProtocol::Igmp.as_u8())
        .with_router_alert()
        .with_padding();
    let group_low23 = u32::from(group) & 0x007f_ffff;
    ipv4_frame(
        src,
        MacAddr::ipv4_multicast(group_low23),
        &header,
        &transport,
    )
}

// ---------------------------------------------------------------------
// NTP / ICMP
// ---------------------------------------------------------------------

/// NTP client request to `server_ip` (routed through the gateway).
pub fn ntp_request(
    src: MacAddr,
    gateway_mac: MacAddr,
    src_ip: Ipv4Addr,
    server_ip: Ipv4Addr,
    src_port: Port,
    timestamp: u64,
) -> Vec<u8> {
    let mut payload = Vec::new();
    NtpPacket::client(timestamp).encode(&mut payload);
    udp_ipv4(
        src,
        gateway_mac,
        src_ip,
        server_ip,
        src_port,
        Port::NTP,
        payload,
    )
}

/// ICMP echo request (connectivity check to the gateway or a cloud
/// host).
pub fn icmp_echo(
    src: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    identifier: u16,
    sequence: u16,
) -> Vec<u8> {
    let mut transport = Vec::new();
    IcmpMessage::echo_request(identifier, sequence).encode(&mut transport);
    let header = Ipv4Header::new(src_ip, dst_ip, IpProtocol::Icmp.as_u8());
    ipv4_frame(src, dst_mac, &header, &transport)
}

/// ICMPv6 router solicitation from the device's link-local address.
pub fn icmpv6_router_solicit(src: MacAddr) -> Vec<u8> {
    let mut transport = Vec::new();
    IcmpMessage::router_solicitation().encode(&mut transport);
    let header = Ipv6Header::new(
        link_local_from_mac(src),
        super::ipv6::all_routers(),
        IpProtocol::Icmpv6.as_u8(),
    );
    ipv6_frame(
        src,
        MacAddr::new([0x33, 0x33, 0, 0, 0, 2]),
        &header,
        &transport,
    )
}

/// ICMPv6 neighbour solicitation (IPv6 duplicate address detection).
pub fn icmpv6_neighbor_solicit(src: MacAddr) -> Vec<u8> {
    let target = link_local_from_mac(src);
    let mut transport = Vec::new();
    IcmpMessage::neighbor_solicitation(target.octets()).encode(&mut transport);
    let header = Ipv6Header::new(
        Ipv6Addr::UNSPECIFIED,
        solicited_node_multicast(target),
        IpProtocol::Icmpv6.as_u8(),
    );
    ipv6_frame(
        src,
        MacAddr::new([0x33, 0x33, 0xff, 0, 0, 1]),
        &header,
        &transport,
    )
}

/// MLDv2 listener report (IPv6 multicast join) with the hop-by-hop
/// Router Alert option.
pub fn mldv2_report(src: MacAddr) -> Vec<u8> {
    let groups = [solicited_node_multicast(link_local_from_mac(src)).octets()];
    let mut transport = Vec::new();
    IcmpMessage::mldv2_report(&groups).encode(&mut transport);
    let header = Ipv6Header::new(
        link_local_from_mac(src),
        all_mld_routers(),
        IpProtocol::Icmpv6.as_u8(),
    )
    .with_router_alert();
    ipv6_frame(
        src,
        MacAddr::new([0x33, 0x33, 0, 0, 0, 0x16]),
        &header,
        &transport,
    )
}

fn solicited_node_multicast(addr: Ipv6Addr) -> Ipv6Addr {
    let o = addr.octets();
    Ipv6Addr::new(
        0xff02,
        0,
        0,
        0,
        0,
        1,
        0xff00 | u16::from(o[13]),
        u16::from_be_bytes([o[14], o[15]]),
    )
}

// ---------------------------------------------------------------------
// TCP / HTTP / TLS
// ---------------------------------------------------------------------

/// TCP SYN opening a connection.
pub fn tcp_syn(
    src: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: Port,
    dst_port: Port,
    seq: u32,
) -> Vec<u8> {
    let mut transport = Vec::new();
    TcpSegment::syn(src_port, dst_port, seq).encode(&mut transport);
    let header = Ipv4Header::new(src_ip, dst_ip, IpProtocol::Tcp.as_u8());
    ipv4_frame(src, dst_mac, &header, &transport)
}

/// Bare TCP ACK.
pub fn tcp_ack(
    src: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: Port,
    dst_port: Port,
    seq: u32,
    ack: u32,
) -> Vec<u8> {
    let mut transport = Vec::new();
    TcpSegment::ack_only(src_port, dst_port, seq, ack).encode(&mut transport);
    let header = Ipv4Header::new(src_ip, dst_ip, IpProtocol::Tcp.as_u8());
    ipv4_frame(src, dst_mac, &header, &transport)
}

/// TCP FIN+ACK closing a connection.
pub fn tcp_fin(
    src: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: Port,
    dst_port: Port,
    seq: u32,
    ack: u32,
) -> Vec<u8> {
    let mut transport = Vec::new();
    TcpSegment::fin(src_port, dst_port, seq, ack).encode(&mut transport);
    let header = Ipv4Header::new(src_ip, dst_ip, IpProtocol::Tcp.as_u8());
    ipv4_frame(src, dst_mac, &header, &transport)
}

/// TCP PSH+ACK segment carrying arbitrary payload bytes.
pub fn tcp_data(
    src: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: Port,
    dst_port: Port,
    seq: u32,
    ack: u32,
    payload: Vec<u8>,
) -> Vec<u8> {
    let mut transport = Vec::new();
    TcpSegment::push(src_port, dst_port, seq, ack, payload).encode(&mut transport);
    let header = Ipv4Header::new(src_ip, dst_ip, IpProtocol::Tcp.as_u8());
    ipv4_frame(src, dst_mac, &header, &transport)
}

/// HTTP GET request in a TCP segment.
#[allow(clippy::too_many_arguments)]
pub fn http_get(
    src: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: Port,
    dst_port: Port,
    seq: u32,
    host: &str,
    path: &str,
    user_agent: &str,
) -> Vec<u8> {
    let mut payload = Vec::new();
    HttpRequest::get(host, path, user_agent).encode(&mut payload);
    tcp_data(
        src, dst_mac, src_ip, dst_ip, src_port, dst_port, seq, 1, payload,
    )
}

/// HTTP POST request in a TCP segment.
#[allow(clippy::too_many_arguments)]
pub fn http_post(
    src: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: Port,
    dst_port: Port,
    seq: u32,
    host: &str,
    path: &str,
    user_agent: &str,
    body: Vec<u8>,
) -> Vec<u8> {
    let mut payload = Vec::new();
    HttpRequest::post(host, path, user_agent, body).encode(&mut payload);
    tcp_data(
        src, dst_mac, src_ip, dst_ip, src_port, dst_port, seq, 1, payload,
    )
}

/// TLS ClientHello (with SNI) in a TCP segment — the first packet of
/// every HTTPS cloud connection.
#[allow(clippy::too_many_arguments)]
pub fn tls_client_hello(
    src: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: Port,
    dst_port: Port,
    seq: u32,
    sni: &str,
) -> Vec<u8> {
    let mut payload = Vec::new();
    TlsClientHello::new(sni).encode(&mut payload);
    tcp_data(
        src, dst_mac, src_ip, dst_ip, src_port, dst_port, seq, 1, payload,
    )
}

/// UDP datagram with `len` opaque payload bytes (proprietary binary
/// discovery protocols several vendors use).
#[allow(clippy::too_many_arguments)]
pub fn udp_opaque(
    src: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: Port,
    dst_port: Port,
    len: usize,
    fill: u8,
) -> Vec<u8> {
    udp_ipv4(
        src,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        vec![fill; len],
    )
}

/// An 802.3/LLC frame with `len` payload bytes (non-IP hub chatter,
/// e.g. proprietary ZigBee-bridge keep-alives).
pub fn llc_frame(src: MacAddr, dst: MacAddr, dsap: u8, ssap: u8, len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    EthernetHeader::Llc {
        dst,
        src,
        length: (len + 3) as u16,
        dsap,
        ssap,
        control: 0x03,
    }
    .encode(&mut out);
    out.extend(std::iter::repeat_n(0x5a, len));
    pad_to_minimum(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::AppProtocol;
    use crate::time::SimTime;
    use crate::wire::decode_frame;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, last])
    }

    const GW: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 1);
    const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 50);

    #[test]
    fn every_composer_output_decodes() {
        let frames: Vec<(&str, Vec<u8>)> = vec![
            ("eapol_start", eapol_start(mac(1), mac(0))),
            ("eapol_key", eapol_key(mac(1), mac(0), 2)),
            ("arp_probe", arp_probe(mac(1), DEV)),
            ("arp_announce", arp_announce(mac(1), DEV)),
            ("arp_request", arp_request(mac(1), DEV, GW)),
            ("arp_reply", arp_reply(mac(1), mac(0), DEV, GW)),
            ("dhcp_discover", dhcp_discover(mac(1), 1, "dev")),
            ("dhcp_request", dhcp_request(mac(1), 1, DEV, GW, "dev")),
            ("bootp_request", bootp_request(mac(1), 1)),
            (
                "dhcp_ack",
                dhcp_server_reply(mac(0), mac(1), DhcpMessageType::Ack, 1, DEV, GW),
            ),
            (
                "dns_query",
                dns_query(
                    mac(1),
                    mac(0),
                    DEV,
                    GW,
                    7,
                    "cloud.example.com",
                    Port::new(50000),
                ),
            ),
            (
                "dns_response",
                dns_response(
                    mac(0),
                    mac(1),
                    GW,
                    DEV,
                    7,
                    "cloud.example.com",
                    Ipv4Addr::new(52, 1, 2, 3),
                    Port::new(50000),
                ),
            ),
            ("mdns_query", mdns_query(mac(1), DEV, "_hap._tcp.local")),
            (
                "mdns_announce",
                mdns_announce(mac(1), DEV, "_hap._tcp.local", "bulb-1"),
            ),
            (
                "ssdp_msearch",
                ssdp_msearch(mac(1), DEV, "upnp:rootdevice", Port::new(50001)),
            ),
            (
                "ssdp_notify",
                ssdp_notify(
                    mac(1),
                    DEV,
                    "upnp:rootdevice",
                    "http://192.168.1.50/d.xml",
                    "dev/1.0",
                ),
            ),
            ("igmp_join", igmp_join(mac(1), DEV, SSDP_GROUP)),
            (
                "igmp_join_padded",
                igmp_join_padded(mac(1), DEV, MDNS_GROUP),
            ),
            (
                "ntp_request",
                ntp_request(
                    mac(1),
                    mac(0),
                    DEV,
                    Ipv4Addr::new(17, 253, 1, 1),
                    Port::new(50002),
                    9,
                ),
            ),
            ("icmp_echo", icmp_echo(mac(1), mac(0), DEV, GW, 1, 1)),
            ("icmpv6_rs", icmpv6_router_solicit(mac(1))),
            ("icmpv6_ns", icmpv6_neighbor_solicit(mac(1))),
            ("mldv2_report", mldv2_report(mac(1))),
            (
                "tcp_syn",
                tcp_syn(
                    mac(1),
                    mac(0),
                    DEV,
                    Ipv4Addr::new(52, 1, 2, 3),
                    Port::new(50003),
                    Port::HTTPS,
                    100,
                ),
            ),
            (
                "tcp_ack",
                tcp_ack(
                    mac(1),
                    mac(0),
                    DEV,
                    Ipv4Addr::new(52, 1, 2, 3),
                    Port::new(50003),
                    Port::HTTPS,
                    101,
                    1,
                ),
            ),
            (
                "tcp_fin",
                tcp_fin(
                    mac(1),
                    mac(0),
                    DEV,
                    Ipv4Addr::new(52, 1, 2, 3),
                    Port::new(50003),
                    Port::HTTPS,
                    102,
                    2,
                ),
            ),
            (
                "http_get",
                http_get(
                    mac(1),
                    mac(0),
                    DEV,
                    Ipv4Addr::new(52, 1, 2, 3),
                    Port::new(50003),
                    Port::HTTP,
                    1,
                    "h",
                    "/",
                    "ua",
                ),
            ),
            (
                "http_post",
                http_post(
                    mac(1),
                    mac(0),
                    DEV,
                    Ipv4Addr::new(52, 1, 2, 3),
                    Port::new(50003),
                    Port::HTTP,
                    1,
                    "h",
                    "/",
                    "ua",
                    b"{}".to_vec(),
                ),
            ),
            (
                "tls_client_hello",
                tls_client_hello(
                    mac(1),
                    mac(0),
                    DEV,
                    Ipv4Addr::new(52, 1, 2, 3),
                    Port::new(50003),
                    Port::HTTPS,
                    1,
                    "cloud.example.com",
                ),
            ),
            (
                "udp_opaque",
                udp_opaque(
                    mac(1),
                    mac(0),
                    DEV,
                    Ipv4Addr::new(255, 255, 255, 255),
                    Port::new(50004),
                    Port::new(20560),
                    32,
                    0xaa,
                ),
            ),
            (
                "llc_frame",
                llc_frame(mac(1), MacAddr::BROADCAST, 0x42, 0x42, 16),
            ),
        ];
        for (name, frame) in frames {
            assert!(
                frame.len() >= 60,
                "{name}: frame below ethernet minimum ({} bytes)",
                frame.len()
            );
            let pkt = decode_frame(&frame, SimTime::ZERO)
                .unwrap_or_else(|e| panic!("{name}: decode failed: {e}"));
            assert_eq!(pkt.wire_len(), frame.len(), "{name}: wire length mismatch");
        }
    }

    #[test]
    fn app_protocol_classification_after_round_trip() {
        let cases: Vec<(Vec<u8>, AppProtocol)> = vec![
            (dhcp_discover(mac(1), 1, "d"), AppProtocol::Dhcp),
            (bootp_request(mac(1), 1), AppProtocol::Bootp),
            (
                dns_query(mac(1), mac(0), DEV, GW, 7, "x.example", Port::new(50000)),
                AppProtocol::Dns,
            ),
            (mdns_query(mac(1), DEV, "_x._tcp.local"), AppProtocol::Mdns),
            (
                ssdp_msearch(mac(1), DEV, "ssdp:all", Port::new(50001)),
                AppProtocol::Ssdp,
            ),
            (
                ntp_request(mac(1), mac(0), DEV, GW, Port::new(50002), 9),
                AppProtocol::Ntp,
            ),
            (
                http_get(
                    mac(1),
                    mac(0),
                    DEV,
                    GW,
                    Port::new(50003),
                    Port::HTTP,
                    1,
                    "h",
                    "/",
                    "ua",
                ),
                AppProtocol::Http,
            ),
            (
                tls_client_hello(
                    mac(1),
                    mac(0),
                    DEV,
                    GW,
                    Port::new(50003),
                    Port::HTTPS,
                    1,
                    "s",
                ),
                AppProtocol::Https,
            ),
        ];
        for (frame, expected) in cases {
            let pkt = decode_frame(&frame, SimTime::ZERO).unwrap();
            assert_eq!(pkt.app_protocol(), Some(expected), "for {expected}");
        }
    }

    #[test]
    fn igmp_join_has_router_alert() {
        let pkt = decode_frame(&igmp_join(mac(1), DEV, SSDP_GROUP), SimTime::ZERO).unwrap();
        assert!(pkt.has_router_alert());
        assert!(!pkt.has_ip_padding());
    }

    #[test]
    fn igmp_join_padded_has_both_options() {
        let pkt = decode_frame(&igmp_join_padded(mac(1), DEV, MDNS_GROUP), SimTime::ZERO).unwrap();
        assert!(pkt.has_router_alert());
        assert!(pkt.has_ip_padding());
    }

    #[test]
    fn mldv2_has_router_alert_and_icmpv6() {
        let pkt = decode_frame(&mldv2_report(mac(1)), SimTime::ZERO).unwrap();
        assert!(pkt.has_router_alert());
        assert!(pkt.is_icmpv6());
    }

    #[test]
    fn udp_opaque_classifies_as_raw_data() {
        let frame = udp_opaque(
            mac(1),
            MacAddr::BROADCAST,
            DEV,
            Ipv4Addr::BROADCAST,
            Port::new(50004),
            Port::new(20560),
            32,
            0xaa,
        );
        let pkt = decode_frame(&frame, SimTime::ZERO).unwrap();
        assert!(pkt.has_raw_data());
        assert_eq!(pkt.app_protocol(), None);
    }

    #[test]
    fn dhcp_discover_realistic_size() {
        // BOOTP fixed header (236) + cookie + options + UDP/IP/Ethernet
        // headers: should land near the ~300-byte sizes real captures
        // show.
        let frame = dhcp_discover(mac(1), 1, "smart-device");
        assert!((290..=360).contains(&frame.len()), "got {}", frame.len());
    }
}

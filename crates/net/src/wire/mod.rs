//! Wire-format encoding and decoding.
//!
//! Every protocol the IoT Sentinel fingerprint observes has a real byte
//! encoder here, and [`compose`] builds the frames the device simulator
//! emits from them. [`decode_frame`] is the other direction, the path a
//! tcpdump-based Security Gateway deployment would run: it reads each
//! header of a raw Ethernet frame from the bytes where it lies, straight
//! into the [`Packet`] record, and allocates nothing.

pub mod arp;
pub mod compose;
pub mod dhcp;
pub mod dns;
pub mod eapol;
pub mod ethernet;
pub mod http;
pub mod icmp;
pub mod ipv4;
pub mod ipv6;
pub mod ntp;
pub mod ssdp;
pub mod tcp;
pub mod udp;

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::error::WireError;
use crate::mac::MacAddr;
use crate::packet::{dns_or_mdns, flag, Packet};
use crate::port::Port;
use crate::protocol::{AppProtocol, EtherType, IpProtocol};
use crate::time::SimTime;

/// Fails with [`WireError::Truncated`] unless `buf` holds `n` bytes.
fn need(buf: &[u8], n: usize, context: &'static str) -> Result<(), WireError> {
    if buf.len() < n {
        return Err(WireError::truncated(context, n, buf.len()));
    }
    Ok(())
}

/// The big-endian u16 at `at`; the caller has checked the bounds.
fn be16(buf: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([buf[at], buf[at + 1]])
}

/// The `N` bytes at `at`; the caller has checked the bounds.
fn array<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&buf[at..at + N]);
    out
}

/// Decodes a raw Ethernet frame into the [`Packet`] record, reading each
/// header from the frame where it lies. It allocates nothing, whatever
/// the input.
///
/// Unknown EtherTypes and transport protocols decode into packets with
/// the corresponding flags clear rather than failing, matching what a
/// passive monitor does with traffic it cannot parse.
///
/// # Errors
///
/// Returns [`WireError`] if the frame is too short for its own framing
/// (truncated Ethernet, ARP, IP or transport headers) or a header field
/// is invalid.
///
/// # Examples
///
/// ```
/// use sentinel_net::wire::{compose, decode_frame};
/// use sentinel_net::{AppProtocol, MacAddr, SimTime};
///
/// let mac = MacAddr::new([2, 0, 0, 0, 0, 9]);
/// let frame = compose::dhcp_discover(mac, 42, "plug");
/// let pkt = decode_frame(&frame, SimTime::from_millis(5))?;
/// assert_eq!(pkt.app_protocol(), Some(AppProtocol::Dhcp));
/// # Ok::<(), sentinel_net::WireError>(())
/// ```
pub fn decode_frame(frame: &[u8], time: SimTime) -> Result<Packet, WireError> {
    need(frame, 14, "ethernet header")?;
    let mut p = Packet::new(time, MacAddr::new(array(frame, 6)), frame.len());
    let type_or_len = be16(frame, 12);
    let body = &frame[14..];
    if type_or_len <= 1500 {
        // IEEE 802.3 length field: an 802.2 LLC header follows.
        need(body, 3, "llc header")?;
        p.flags |= flag::LLC;
        return Ok(p);
    }
    match EtherType::from_u16(type_or_len) {
        EtherType::Arp => {
            need(body, 28, "arp packet")?;
            // Ethernet hardware (1), IPv4 protocol (0x0800), 6/4-byte
            // addresses: the only ARP the gateway monitors.
            if body[..6] != [0, 1, 0x08, 0x00, 6, 4] {
                return Err(WireError::invalid_field("arp header", be16(body, 0)));
            }
            p.flags |= flag::ARP;
        }
        EtherType::Eapol => {
            need(body, 4, "eapol header")?;
            p.flags |= flag::EAPOL;
        }
        EtherType::Ipv4 => decode_ipv4(&mut p, body)?,
        EtherType::Ipv6 => decode_ipv6(&mut p, body)?,
        EtherType::Other(_) => {}
    }
    Ok(p)
}

/// IPv4 and its two options the fingerprint reads: padding (NOP/EOL)
/// and Router Alert (RFC 2113).
fn decode_ipv4(p: &mut Packet, ip: &[u8]) -> Result<(), WireError> {
    need(ip, 1, "ipv4 version/ihl")?;
    if ip[0] >> 4 != 4 {
        return Err(WireError::invalid_field("ipv4 version", ip[0] >> 4));
    }
    let ihl = usize::from(ip[0] & 0x0f);
    if ihl < 5 {
        return Err(WireError::invalid_field("ipv4 ihl", ip[0] & 0x0f));
    }
    need(ip, 20, "ipv4 header")?;
    p.flags |= flag::IP;
    p.dst_ip = Some(IpAddr::V4(Ipv4Addr::from(array::<4>(ip, 16))));
    let (mut at, mut left) = (20, ihl * 4 - 20);
    let (mut padding, mut router_alert) = (0usize, 0usize);
    while left > 0 {
        need(ip, at + 1, "ipv4 option type")?;
        let kind = ip[at];
        at += 1;
        left -= 1;
        match kind {
            0 | 1 => padding += 1,
            148 => {
                need(ip, at + 3, "ipv4 router alert")?;
                if ip[at] != 4 {
                    return Err(WireError::invalid_field("ipv4 router alert length", ip[at]));
                }
                router_alert += 1;
                at += 3;
                left = left.saturating_sub(3);
            }
            _ => {
                need(ip, at + 1, "ipv4 option length")?;
                let len = usize::from(ip[at]);
                if len < 2 {
                    return Err(WireError::invalid_field("ipv4 option length", kind));
                }
                need(ip, at + len - 1, "ipv4 option data")?;
                at += len - 1;
                left = left.saturating_sub(len - 1);
            }
        }
    }
    if padding > 0 {
        p.flags |= flag::PADDING;
    }
    if router_alert > 0 {
        p.flags |= flag::ROUTER_ALERT;
    }
    // The total-length field bounds the payload, so Ethernet padding is
    // not mistaken for payload. It is measured from the header length
    // the recognised options account for, rounded to whole words.
    let header_len = 20 + (padding + 4 * router_alert).div_ceil(4) * 4;
    let payload_len = usize::from(be16(ip, 2))
        .saturating_sub(header_len)
        .min(ip.len() - at);
    decode_transport(p, ip[9], false, &ip[at..at + payload_len])
}

/// IPv6, following one hop-by-hop extension header (where MLD reports
/// carry Router Alert).
fn decode_ipv6(p: &mut Packet, ip: &[u8]) -> Result<(), WireError> {
    need(ip, 4, "ipv6 version/class/flow")?;
    if ip[0] >> 4 != 6 {
        return Err(WireError::invalid_field("ipv6 version", ip[0] >> 4));
    }
    need(ip, 40, "ipv6 header")?;
    p.flags |= flag::IP;
    p.dst_ip = Some(IpAddr::V6(Ipv6Addr::from(array::<16>(ip, 24))));
    let mut protocol = ip[6];
    let mut at = 40;
    if protocol == ipv6::NEXT_HEADER_HOP_BY_HOP {
        need(ip, 42, "hop-by-hop header")?;
        protocol = ip[40];
        let end = 48 + usize::from(ip[41]) * 8;
        need(ip, end, "hop-by-hop options")?;
        let options = &ip[42..end];
        let mut i = 0;
        while i < options.len() {
            match options[i] {
                0 => i += 1, // Pad1
                kind => {
                    if kind == 5 {
                        p.flags |= flag::ROUTER_ALERT;
                    }
                    i += 2 + usize::from(options.get(i + 1).copied().unwrap_or(0));
                }
            }
        }
        at = end;
    }
    // The payload-length field (extension headers included) bounds the
    // transport payload, as IPv4's total length does.
    let payload_len = usize::from(be16(ip, 4))
        .saturating_sub(at - 40)
        .min(ip.len() - at);
    decode_transport(p, protocol, true, &ip[at..at + payload_len])
}

fn decode_transport(
    p: &mut Packet,
    protocol: u8,
    ipv6: bool,
    payload: &[u8],
) -> Result<(), WireError> {
    match (IpProtocol::from_u8(protocol), ipv6) {
        (IpProtocol::Tcp, _) => decode_tcp(p, payload),
        (IpProtocol::Udp, _) => decode_udp(p, payload),
        (IpProtocol::Icmp, false) => {
            need(payload, 4, "icmp header")?;
            p.flags |= flag::ICMP;
            Ok(())
        }
        (IpProtocol::Igmp, false) => need(payload, 4, "igmp header"),
        (IpProtocol::Icmpv6, true) => {
            need(payload, 4, "icmpv6 header")?;
            p.flags |= flag::ICMPV6;
            Ok(())
        }
        _ => Ok(()),
    }
}

fn set_ports(p: &mut Packet, segment: &[u8]) -> (Port, Port) {
    let (src, dst) = (Port::new(be16(segment, 0)), Port::new(be16(segment, 2)));
    p.src_port = Some(src);
    p.dst_port = Some(dst);
    (src, dst)
}

/// Sets the application protocol and the raw-data flag from what a
/// payload was recognised as.
fn set_app(p: &mut Packet, recognised: Option<AppProtocol>, raw: bool) {
    p.app = recognised.or_else(|| AppProtocol::from_ports(p.src_port, p.dst_port));
    if raw {
        p.flags |= flag::RAW_DATA;
    }
}

fn decode_tcp(p: &mut Packet, segment: &[u8]) -> Result<(), WireError> {
    need(segment, 20, "tcp header")?;
    let data_offset = segment[12] >> 4;
    if data_offset < 5 {
        return Err(WireError::invalid_field("tcp data offset", data_offset));
    }
    p.flags |= flag::TCP;
    set_ports(p, segment);
    let header_len = usize::from(data_offset) * 4;
    let (mut at, mut left) = (20, header_len - 20);
    while left > 0 {
        need(segment, at + 1, "tcp option kind")?;
        let kind = segment[at];
        at += 1;
        left -= 1;
        match kind {
            0 => break, // end of option list: the rest is padding
            1 => {}
            2 => {
                need(segment, at + 3, "tcp mss option")?;
                if segment[at] != 4 {
                    return Err(WireError::invalid_field("tcp mss length", segment[at]));
                }
                at += 3;
                left = left.saturating_sub(3);
            }
            _ => {
                need(segment, at + 1, "tcp option length")?;
                let len = usize::from(segment[at]);
                if len < 2 {
                    return Err(WireError::invalid_field("tcp option length", segment[at]));
                }
                need(segment, at + len - 1, "tcp option data")?;
                at += len - 1;
                left = left.saturating_sub(len - 1);
            }
        }
    }
    // The payload starts where the data offset says, after any padding
    // behind an end-of-list option (and after an option that overran
    // the header).
    let payload = segment.get(at.max(header_len)..).unwrap_or_default();
    set_app(p, http::recognise(payload), !payload.is_empty());
    Ok(())
}

fn decode_udp(p: &mut Packet, datagram: &[u8]) -> Result<(), WireError> {
    need(datagram, 8, "udp header")?;
    let len = be16(datagram, 4);
    if len < 8 {
        return Err(WireError::invalid_field("udp length", len));
    }
    p.flags |= flag::UDP;
    let (src, dst) = set_ports(p, datagram);
    let body_len = usize::from(len - 8).min(datagram.len() - 8);
    let payload = &datagram[8..8 + body_len];
    if payload.is_empty() {
        set_app(p, None, false);
        return Ok(());
    }
    let on = |port: u16| src.as_u16() == port || dst.as_u16() == port;
    let app = if on(67) || on(68) {
        dhcp::recognise(payload)
    } else {
        None
    }
    .or_else(|| {
        ((on(53) || on(5353)) && dns::is_message(payload))
            .then(|| dns_or_mdns(Some(src), Some(dst)))
    })
    .or_else(|| (on(1900) && ssdp::is_message(payload)).then_some(AppProtocol::Ssdp))
    .or_else(|| (on(123) && ntp::is_packet(payload)).then_some(AppProtocol::Ntp));
    // DHCP, BOOTP, DNS and NTP parse into structured layers; SSDP text
    // and unrecognised bytes stay raw data.
    let raw = matches!(app, None | Some(AppProtocol::Ssdp));
    set_app(p, app, raw);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, last])
    }

    const DEV: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 7);
    const CLOUD: Ipv4Addr = Ipv4Addr::new(52, 1, 2, 3);

    #[test]
    fn decode_dhcp_discover_frame() {
        let frame = compose::dhcp_discover(mac(9), 0x42, "test-device");
        let pkt = decode_frame(&frame, SimTime::from_millis(3)).unwrap();
        assert_eq!(pkt.src_mac(), mac(9));
        assert_eq!(pkt.time(), SimTime::from_millis(3));
        assert_eq!(pkt.app_protocol(), Some(AppProtocol::Dhcp));
        assert!(pkt.is_udp() && !pkt.has_raw_data());
        assert_eq!(pkt.dst_ip(), Some(IpAddr::V4(Ipv4Addr::BROADCAST)));
        assert_eq!(pkt.wire_len(), frame.len());
    }

    #[test]
    fn decode_arp_probe_frame() {
        let frame = compose::arp_probe(mac(9), Ipv4Addr::new(192, 168, 1, 50));
        let pkt = decode_frame(&frame, SimTime::ZERO).unwrap();
        assert!(pkt.is_arp());
        assert!(!pkt.is_ip());
        assert_eq!(pkt.dst_ip(), None);
    }

    #[test]
    fn arp_other_than_ethernet_ipv4_is_rejected() {
        let mut frame = compose::arp_probe(mac(9), DEV);
        frame[15] = 6; // hardware type IEEE 802
        assert!(matches!(
            decode_frame(&frame, SimTime::ZERO),
            Err(WireError::InvalidField { .. })
        ));
        frame.truncate(14 + 20);
        assert!(decode_frame(&frame, SimTime::ZERO).is_err());
    }

    #[test]
    fn link_and_control_protocol_flags() {
        let decode = |frame: Vec<u8>| decode_frame(&frame, SimTime::ZERO).unwrap();
        let llc = decode(compose::llc_frame(
            mac(1),
            MacAddr::BROADCAST,
            0x42,
            0x42,
            16,
        ));
        assert!(llc.is_llc() && !llc.is_ip());
        // A type/length field of 1500 is still an 802.3 length.
        let mut frame = vec![0u8; 60];
        frame[12..14].copy_from_slice(&1500u16.to_be_bytes());
        assert!(decode(frame.clone()).is_llc());
        frame[12..14].copy_from_slice(&1501u16.to_be_bytes());
        assert!(!decode(frame).is_llc());
        let eapol = decode(compose::eapol_key(mac(1), mac(0), 2));
        assert!(eapol.is_eapol() && !eapol.is_ip());
        let echo = decode(compose::icmp_echo(mac(1), mac(0), DEV, CLOUD, 1, 1));
        assert!(echo.is_icmp() && !echo.is_icmpv6() && echo.src_port().is_none());
        let solicit = decode(compose::icmpv6_router_solicit(mac(1)));
        assert!(solicit.is_icmpv6() && solicit.is_ip() && !solicit.has_router_alert());
        let igmp = decode(compose::igmp_join(
            mac(1),
            DEV,
            Ipv4Addr::new(239, 255, 255, 250),
        ));
        assert!(igmp.is_ip() && !igmp.is_icmp() && igmp.has_router_alert());
    }

    #[test]
    fn decode_unknown_ethertype_keeps_link_only() {
        let mut frame = Vec::new();
        ethernet::EthernetHeader::TypeII {
            dst: mac(1),
            src: mac(2),
            ethertype: 0x9999,
        }
        .encode(&mut frame);
        frame.extend_from_slice(&[0u8; 46]);
        let pkt = decode_frame(&frame, SimTime::ZERO).unwrap();
        assert!(!pkt.is_ip());
        assert!(!pkt.is_arp());
        assert_eq!(pkt.app_protocol(), None);
    }

    #[test]
    fn truncated_and_invalid_headers_are_errors() {
        let frame = compose::tcp_syn(mac(3), mac(1), DEV, CLOUD, Port::new(5), Port::HTTPS, 1);
        assert!(matches!(
            decode_frame(&frame[..10], SimTime::ZERO),
            Err(WireError::Truncated { .. })
        ));
        // IPv4 header cut short, then TCP header cut short.
        assert!(decode_frame(&frame[..14 + 19], SimTime::ZERO).is_err());
        assert!(decode_frame(&frame[..14 + 20 + 19], SimTime::ZERO).is_err());
        let mut bad = frame.clone();
        bad[14] = 0x65; // IP version 6 under the IPv4 EtherType
        assert!(decode_frame(&bad, SimTime::ZERO).is_err());
        let mut bad = frame;
        bad[14 + 20 + 12] = 0x20; // TCP data offset 2
        assert!(matches!(
            decode_frame(&bad, SimTime::ZERO),
            Err(WireError::InvalidField { .. })
        ));
    }

    #[test]
    fn ethernet_padding_not_counted_as_payload() {
        // A tiny UDP payload on a frame padded to 60 bytes must not
        // classify the padding as opaque data.
        let frame = compose::ntp_request(mac(3), mac(1), DEV, CLOUD, Port::new(50123), 7);
        let pkt = decode_frame(&frame, SimTime::ZERO).unwrap();
        assert_eq!(pkt.app_protocol(), Some(AppProtocol::Ntp));
        let frame = compose::tcp_ack(mac(3), mac(1), DEV, CLOUD, Port::new(5), Port::new(9), 1, 1);
        assert!(frame.len() > 14 + 40, "the ack is padded");
        assert!(!decode_frame(&frame, SimTime::ZERO).unwrap().has_raw_data());
    }

    /// A SYN whose options are one end-of-list byte and three bytes of
    /// padding (data offset 6) carries no payload.
    #[test]
    fn tcp_options_ending_in_end_of_list_are_not_payload() {
        let mut segment = Vec::new();
        tcp::TcpSegment::syn(Port::new(50000), Port::new(9999), 1).encode(&mut segment);
        segment[20..24].copy_from_slice(&[0, 0, 0, 0]);
        let mut ip = Vec::new();
        ipv4::Ipv4Header::new(DEV, CLOUD, 6).encode(&mut ip, segment.len());
        ip.extend_from_slice(&segment);
        let mut frame = Vec::new();
        ethernet::EthernetHeader::TypeII {
            dst: mac(1),
            src: mac(3),
            ethertype: 0x0800,
        }
        .encode(&mut frame);
        frame.extend_from_slice(&ip);
        ethernet::pad_to_minimum(&mut frame);
        let pkt = decode_frame(&frame, SimTime::ZERO).unwrap();
        assert!(pkt.is_tcp());
        assert!(!pkt.has_raw_data());
        assert_eq!(pkt.app_protocol(), None);
    }

    /// Bytes after the IPv6 payload length are not transport payload.
    #[test]
    fn ipv6_payload_is_bounded_by_its_length_field() {
        let src = ipv6::link_local_from_mac(mac(3));
        let mut segment = Vec::new();
        tcp::TcpSegment::ack_only(Port::new(50000), Port::new(9999), 1, 1).encode(&mut segment);
        let mut frame = Vec::new();
        ethernet::EthernetHeader::TypeII {
            dst: mac(1),
            src: mac(3),
            ethertype: 0x86dd,
        }
        .encode(&mut frame);
        ipv6::Ipv6Header::new(src, ipv6::all_routers(), 6).encode(&mut frame, segment.len());
        frame.extend_from_slice(&segment);
        frame.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let pkt = decode_frame(&frame, SimTime::ZERO).unwrap();
        assert!(pkt.is_tcp() && pkt.is_ip());
        assert!(!pkt.has_raw_data());
        assert_eq!(pkt.dst_ip(), Some(IpAddr::V6(ipv6::all_routers())));
    }
}

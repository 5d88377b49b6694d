//! Network packet substrate for the IoT Sentinel reproduction.
//!
//! This crate stands in for the capture plane of the paper's lab setup
//! (tcpdump on the Security Gateway's WiFi and Ethernet interfaces). It
//! provides:
//!
//! * a **packet record** ([`Packet`]) carrying exactly what the IoT
//!   Sentinel fingerprint reads from a frame (Table I: protocol flags,
//!   IP options, size, raw data, destination IP and ports — never
//!   payload semantics), plus the source MAC and capture time,
//! * a **wire codec** ([`wire`]) that encodes real byte frames for
//!   Ethernet, ARP, IPv4/IPv6, TCP/UDP, ICMP/ICMPv6, DHCP/BOOTP,
//!   DNS/mDNS, SSDP, NTP, EAPoL, HTTP and TLS client hellos, and decodes
//!   a frame into a [`Packet`] in place, without allocating,
//! * **pcap I/O** ([`pcap`]) in the classic libpcap format so captures can
//!   be persisted and exchanged, and
//! * a **capture monitor** ([`capture`]) that watches a frame stream for
//!   previously unseen MAC addresses and collects each new device's setup
//!   traffic until the packet rate decays, mirroring §IV-A of the paper
//!   ("the end of the setup phase can be automatically identified by a
//!   decrease in the rate of packets sent").
//!
//! Device behaviour simulation lives in `sentinel-devices`; feature
//! extraction lives in `sentinel-fingerprint`. Both operate on the types
//! defined here.
//!
//! # Example
//!
//! ```
//! use sentinel_net::wire;
//! use sentinel_net::{AppProtocol, MacAddr, SimTime};
//!
//! // Compose a DHCP Discover as raw bytes, then decode it back.
//! let device = MacAddr::new([0x13, 0x73, 0x74, 0x7e, 0xa9, 0xc2]);
//! let frame = wire::compose::dhcp_discover(device, 0x1234, "sensor");
//! let packet = wire::decode_frame(&frame, SimTime::ZERO)?;
//! assert_eq!(packet.src_mac(), device);
//! assert_eq!(packet.app_protocol(), Some(AppProtocol::Dhcp));
//! # Ok::<(), sentinel_net::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod error;
pub mod mac;
pub mod packet;
pub mod pcap;
pub mod port;
pub mod protocol;
pub mod time;
pub mod wire;

pub use capture::{
    CaptureMonitor, CapturedFrame, DeviceCapture, SetupDetectorConfig, TraceCapture,
};
pub use error::WireError;
pub use mac::MacAddr;
pub use packet::{Packet, PacketBuilder};
pub use port::{Port, PortClass};
pub use protocol::{AppProtocol, EtherType, IpProtocol};
pub use time::{SimDuration, SimTime};

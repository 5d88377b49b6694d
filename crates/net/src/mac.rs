//! MAC (EUI-48) addresses.
//!
//! IoT Sentinel keys every per-device data structure — captures,
//! fingerprints, enforcement rules — on the device's MAC address
//! (§V: "We identify traffic to/from any device using device MAC
//! addresses, assuming that IoT devices use static MAC addresses").

use std::fmt;
use std::str::FromStr;

use crate::error::WireError;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use sentinel_net::MacAddr;
///
/// let mac: MacAddr = "13-73-74-7E-A9-C2".parse()?;
/// assert_eq!(mac.to_string(), "13:73:74:7e:a9:c2");
/// assert!(!mac.is_broadcast());
/// # Ok::<(), sentinel_net::WireError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as a placeholder (e.g. ARP target
    /// hardware address in requests).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// The six octets of the address.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Whether the group bit (least-significant bit of the first octet)
    /// is set; broadcast and multicast addresses are both "group"
    /// addresses.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// The 24-bit Organizationally Unique Identifier (vendor prefix).
    pub fn oui(self) -> [u8; 3] {
        [self.0[0], self.0[1], self.0[2]]
    }

    /// Builds a unicast address from a vendor OUI and a 24-bit device
    /// suffix. The group bit of the OUI is cleared so the result is
    /// always unicast.
    ///
    /// # Examples
    ///
    /// ```
    /// use sentinel_net::MacAddr;
    ///
    /// let mac = MacAddr::from_oui([0xb0, 0xc5, 0x54], 7);
    /// assert_eq!(mac.oui(), [0xb0, 0xc5, 0x54]);
    /// assert!(!mac.is_multicast());
    /// ```
    pub fn from_oui(oui: [u8; 3], suffix: u32) -> Self {
        let s = suffix.to_be_bytes();
        MacAddr([oui[0] & !0x01, oui[1], oui[2], s[1], s[2], s[3]])
    }

    /// The IPv4 multicast MAC for a given group address suffix, as used
    /// by SSDP (239.255.255.250 → `01:00:5e:7f:ff:fa`) and mDNS
    /// (224.0.0.251 → `01:00:5e:00:00:fb`).
    pub fn ipv4_multicast(group_low23: u32) -> Self {
        let b = group_low23.to_be_bytes();
        MacAddr([0x01, 0x00, 0x5e, b[1] & 0x7f, b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl FromStr for MacAddr {
    type Err = WireError;

    /// Parses `aa:bb:cc:dd:ee:ff` or `AA-BB-CC-DD-EE-FF`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let sep = if s.contains(':') { ':' } else { '-' };
        let count = s.split(sep).count();
        if count != 6 {
            let count = u32::try_from(count).unwrap_or(u32::MAX);
            return Err(WireError::invalid_field("mac address octet count", count));
        }
        let mut octets = [0u8; 6];
        for (i, (octet, part)) in octets.iter_mut().zip(s.split(sep)).enumerate() {
            *octet = u8::from_str_radix(part, 16)
                .map_err(|_| WireError::invalid_field("mac address octet", i as u32 + 1))?;
        }
        Ok(MacAddr(octets))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl AsRef<[u8]> for MacAddr {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_colon_and_dash_formats() {
        let a: MacAddr = "13:73:74:7e:a9:c2".parse().unwrap();
        let b: MacAddr = "13-73-74-7E-A9-C2".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.octets(), [0x13, 0x73, 0x74, 0x7e, 0xa9, 0xc2]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("12:34:56".parse::<MacAddr>().is_err());
        assert!("zz:zz:zz:zz:zz:zz".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_flags() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        let unicast = MacAddr::new([0x00, 0x11, 0x22, 0x33, 0x44, 0x55]);
        assert!(!unicast.is_broadcast());
        assert!(!unicast.is_multicast());
        let mcast = MacAddr::ipv4_multicast(0x7ffffa);
        assert!(mcast.is_multicast());
        assert!(!mcast.is_broadcast());
    }

    #[test]
    fn from_oui_is_unicast_and_keeps_prefix() {
        let mac = MacAddr::from_oui([0xff, 0xaa, 0xbb], 0x123456);
        assert!(!mac.is_multicast());
        assert_eq!(mac.octets()[1..3], [0xaa, 0xbb]);
        assert_eq!(mac.octets()[3..6], [0x12, 0x34, 0x56]);
    }

    #[test]
    fn ssdp_and_mdns_multicast_macs() {
        // 239.255.255.250 low 23 bits -> 7f:ff:fa
        assert_eq!(
            MacAddr::ipv4_multicast(0x007f_fffa).to_string(),
            "01:00:5e:7f:ff:fa"
        );
        // 224.0.0.251 low 23 bits -> 00:00:fb
        assert_eq!(
            MacAddr::ipv4_multicast(0xfb).to_string(),
            "01:00:5e:00:00:fb"
        );
    }

    #[test]
    fn display_round_trips() {
        let mac = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        assert_eq!(mac, parsed);
    }
}

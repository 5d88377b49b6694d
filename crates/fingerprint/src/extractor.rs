//! Stateful fingerprint extraction from a packet stream.

use std::collections::HashMap;
use std::net::IpAddr;

use sentinel_net::Packet;

use crate::features::PacketFeatures;
use crate::fingerprint::Fingerprint;

/// Builds a device fingerprint from the packets the device sends, in
/// order.
///
/// The extractor owns the two pieces of state the feature set needs:
///
/// * the **destination-IP counter** (Table I, feature 21): "the
///   destination IP address, if any, is mapped to a counter starting
///   from 1 and incremented each time a new destination IP address is
///   observed", and
/// * the **consecutive-duplicate filter**: identical adjacent feature
///   vectors are discarded from F.
///
/// # Examples
///
/// ```
/// use sentinel_fingerprint::FingerprintExtractor;
/// use sentinel_net::{MacAddr, Packet, Port};
///
/// let src = MacAddr::new([2, 0, 0, 0, 0, 1]);
/// let dst = MacAddr::new([2, 0, 0, 0, 0, 2]);
/// let mut ex = FingerprintExtractor::new();
/// // Two identical DNS queries in a row collapse into one column.
/// for _ in 0..2 {
///     ex.observe(
///         &Packet::builder(src)
///             .ipv4("10.0.0.1".parse()?)
///             .udp(Port::new(50000), Port::DNS)
///             .dns()
///             .build(),
///     );
/// }
/// assert_eq!(ex.finish().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct FingerprintExtractor {
    dst_counters: HashMap<IpAddr, u32>,
    next_counter: u32,
    columns: Vec<PacketFeatures>,
}

impl FingerprintExtractor {
    /// Creates an extractor with an empty destination-IP table.
    pub fn new() -> Self {
        FingerprintExtractor {
            dst_counters: HashMap::new(),
            next_counter: 1,
            columns: Vec::new(),
        }
    }

    /// Observes the next packet sent by the device.
    pub fn observe(&mut self, packet: &Packet) {
        let counter = match packet.dst_ip() {
            Some(ip) => {
                let next = &mut self.next_counter;
                *self.dst_counters.entry(ip).or_insert_with(|| {
                    let c = *next;
                    *next += 1;
                    c
                })
            }
            None => 0,
        };
        let features = PacketFeatures::extract(packet, counter);
        if self.columns.last() != Some(&features) {
            self.columns.push(features);
        }
    }

    /// Number of columns collected so far.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Number of distinct destination IPs seen so far.
    pub fn distinct_destinations(&self) -> usize {
        self.dst_counters.len()
    }

    /// Finishes extraction, producing the fingerprint F.
    pub fn finish(self) -> Fingerprint {
        Fingerprint::from_deduped(self.columns)
    }

    /// Convenience: extracts a fingerprint from a complete packet
    /// sequence.
    pub fn extract_from(packets: &[Packet]) -> Fingerprint {
        let mut ex = FingerprintExtractor::new();
        for p in packets {
            ex.observe(p);
        }
        ex.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureId;
    use sentinel_net::{MacAddr, Port};
    use std::net::Ipv4Addr;

    fn mac() -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, 1])
    }

    fn dns_to(dst: Ipv4Addr, size: usize) -> Packet {
        Packet::builder(mac())
            .ipv4(dst)
            .udp(Port::new(50000), Port::DNS)
            .dns()
            .wire_len(size)
            .build()
    }

    #[test]
    fn dst_counter_increments_per_new_ip() {
        let mut ex = FingerprintExtractor::new();
        ex.observe(&dns_to(Ipv4Addr::new(1, 1, 1, 1), 80));
        ex.observe(&dns_to(Ipv4Addr::new(2, 2, 2, 2), 81));
        ex.observe(&dns_to(Ipv4Addr::new(1, 1, 1, 1), 82));
        ex.observe(&dns_to(Ipv4Addr::new(3, 3, 3, 3), 83));
        assert_eq!(ex.distinct_destinations(), 3);
        let fp = ex.finish();
        let counters: Vec<u32> = fp.iter().map(|c| c.get(FeatureId::DstIpCounter)).collect();
        assert_eq!(counters, vec![1, 2, 1, 3]);
    }

    #[test]
    fn non_ip_packets_get_counter_zero() {
        let mut ex = FingerprintExtractor::new();
        ex.observe(&Packet::builder(mac()).arp().build());
        let fp = ex.finish();
        assert_eq!(fp.columns()[0].get(FeatureId::DstIpCounter), 0);
    }

    #[test]
    fn consecutive_duplicates_collapse_online() {
        let mut ex = FingerprintExtractor::new();
        for _ in 0..5 {
            ex.observe(&dns_to(Ipv4Addr::new(1, 1, 1, 1), 80));
        }
        ex.observe(&dns_to(Ipv4Addr::new(1, 1, 1, 1), 99));
        assert_eq!(ex.len(), 2);
    }

    #[test]
    fn counter_state_distinguishes_retransmissions_to_new_ips() {
        // Same packet shape to two different IPs: the counter feature
        // differs, so both columns are kept.
        let mut ex = FingerprintExtractor::new();
        ex.observe(&dns_to(Ipv4Addr::new(1, 1, 1, 1), 80));
        ex.observe(&dns_to(Ipv4Addr::new(2, 2, 2, 2), 80));
        assert_eq!(ex.len(), 2);
    }

    #[test]
    fn extract_from_matches_incremental() {
        let packets: Vec<Packet> = vec![
            dns_to(Ipv4Addr::new(1, 1, 1, 1), 80),
            dns_to(Ipv4Addr::new(1, 1, 1, 1), 80),
            dns_to(Ipv4Addr::new(2, 2, 2, 2), 90),
        ];
        let fp = FingerprintExtractor::extract_from(&packets);
        let mut ex = FingerprintExtractor::new();
        for p in &packets {
            ex.observe(p);
        }
        assert_eq!(fp, ex.finish());
        assert_eq!(fp.len(), 2);
    }
}

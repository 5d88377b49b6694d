//! The Open vSwitch-like forwarding element.
//!
//! First packet of a flow misses the flow table and escalates to the
//! controller (packet-in); the decision is then cached so subsequent
//! packets hit the fast path, until the controller's rules change
//! ([`SdnController::generation`]) and every cached decision is
//! dropped. With filtering disabled the switch behaves as a plain
//! learning switch (the paper's "No Filtering" baseline).

use sentinel_net::SimTime;

use crate::controller::SdnController;
use crate::flow::{FlowDecision, FlowKey, FlowTable};

/// Forwarding statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets processed.
    pub packets: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped by enforcement.
    pub dropped: u64,
    /// Flow-table misses (controller escalations).
    pub table_misses: u64,
}

/// The data-plane switch.
#[derive(Debug, Default)]
pub struct OvsSwitch {
    flows: FlowTable,
    stats: SwitchStats,
    filtering: bool,
    /// The controller generation the cached decisions were made at.
    synced: u64,
}

impl OvsSwitch {
    /// Creates a switch with filtering enabled.
    pub fn new() -> Self {
        OvsSwitch {
            flows: FlowTable::new(),
            stats: SwitchStats::default(),
            filtering: true,
            synced: 0,
        }
    }

    /// Enables or disables enforcement filtering (the Table V/VI
    /// baseline toggle).
    pub fn set_filtering(&mut self, on: bool) {
        self.filtering = on;
    }

    /// Whether enforcement filtering is active.
    pub fn filtering(&self) -> bool {
        self.filtering
    }

    /// Statistics so far.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// The active-flow table.
    pub fn flow_table(&self) -> &FlowTable {
        &self.flows
    }

    /// Processes one packet belonging to `key`: consults the flow
    /// table, escalating to `controller` on a miss. A rule change since
    /// the table's decisions were made empties it first.
    pub fn process_packet(
        &mut self,
        key: FlowKey,
        dst_is_local_device: bool,
        now: SimTime,
        controller: &mut SdnController,
    ) -> FlowDecision {
        self.stats.packets += 1;
        if !self.filtering {
            self.stats.forwarded += 1;
            return FlowDecision::Allow;
        }
        if self.synced != controller.generation() {
            self.flows = FlowTable::new();
            self.synced = controller.generation();
        }
        let mut missed = false;
        let decision = self.flows.record(key, || {
            missed = true;
            controller.decide_flow(&key, dst_is_local_device, now)
        });
        if missed {
            self.stats.table_misses += 1;
        }
        if decision.is_allowed() {
            self.stats.forwarded += 1;
        } else {
            self.stats.dropped += 1;
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::DenyReason;
    use crate::rule::FlowFilter;
    use sentinel_core::{IoTSecurityService, IsolationLevel, Trainer, VulnerabilityDatabase};
    use sentinel_fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
    use sentinel_net::{MacAddr, Port};
    use std::net::{IpAddr, Ipv4Addr};

    fn fp_bits(bits: u32, tags: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(
            tags.iter()
                .map(|t| {
                    let mut v = [0u32; 23];
                    for (b, slot) in v.iter_mut().enumerate().take(12) {
                        *slot = (bits >> b) & 1;
                    }
                    v[18] = *t;
                    PacketFeatures::from_raw(v)
                })
                .collect(),
        )
    }

    fn service() -> IoTSecurityService {
        let mut ds = Dataset::new();
        for i in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                "TypeA",
                fp_bits(0b001, &[100 + i, 110, 120]),
            ));
            ds.push(LabeledFingerprint::new(
                "TypeB",
                fp_bits(0b010, &[100 + i, 110, 120]),
            ));
        }
        let identifier = Trainer::default().train(&ds, 4).unwrap();
        IoTSecurityService::new(identifier, VulnerabilityDatabase::new())
    }

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, last])
    }

    fn key(src: MacAddr) -> FlowKey {
        FlowKey {
            src_mac: src,
            dst_mac: mac(0),
            src_ip: IpAddr::V4(Ipv4Addr::new(192, 168, 1, 50)),
            dst_ip: IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)),
            protocol: 6,
            src_port: Port::new(50000),
            dst_port: Port::new(443),
        }
    }

    #[test]
    fn first_packet_misses_rest_hit() {
        let mut ctl = SdnController::new();
        let service = service();
        let dev = mac(1);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        let response = service.handle(&fp_bits(0b001, &[104, 110, 120]));
        let level = response.isolation_level(service.vulnerabilities());
        ctl.on_setup_complete(dev, response.device_type, level, &|_| None)
            .unwrap();
        let mut sw = OvsSwitch::new();
        for _ in 0..10 {
            let d = sw.process_packet(key(dev), false, SimTime::ZERO, &mut ctl);
            assert!(d.is_allowed());
        }
        let stats = sw.stats();
        assert_eq!(stats.packets, 10);
        assert_eq!(stats.table_misses, 1, "only the first packet escalates");
        assert_eq!(stats.forwarded, 10);
        assert_eq!(ctl.packet_in_count(), 1);
    }

    #[test]
    fn filtering_disabled_allows_everything() {
        let mut ctl = SdnController::new();
        let mut sw = OvsSwitch::new();
        sw.set_filtering(false);
        assert!(!sw.filtering());
        // Unregistered device, would be denied with filtering on.
        let d = sw.process_packet(key(mac(9)), false, SimTime::ZERO, &mut ctl);
        assert!(d.is_allowed());
        assert_eq!(sw.stats().table_misses, 0);
        assert_eq!(ctl.packet_in_count(), 0);
    }

    #[test]
    fn denied_flows_count_drops() {
        let mut ctl = SdnController::new();
        let mut sw = OvsSwitch::new();
        // Device appeared but not identified: strict rule blocks
        // Internet.
        ctl.on_device_appeared(mac(1), SimTime::ZERO).unwrap();
        for _ in 0..4 {
            let d = sw.process_packet(key(mac(1)), false, SimTime::ZERO, &mut ctl);
            assert!(!d.is_allowed());
        }
        assert_eq!(sw.stats().dropped, 4);
        assert_eq!(sw.stats().table_misses, 1, "deny decision is cached too");
    }

    /// Installs a trusted rule for `dev`, as for a clean device's
    /// identification.
    fn trust(ctl: &mut SdnController, dev: MacAddr) {
        ctl.on_setup_complete(dev, None, IsolationLevel::Trusted, &|_| None)
            .unwrap();
    }

    #[test]
    fn identification_reaches_a_flow_denied_before_it() {
        let mut ctl = SdnController::new();
        let mut sw = OvsSwitch::new();
        let dev = mac(1);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        assert_eq!(
            sw.process_packet(key(dev), false, SimTime::ZERO, &mut ctl),
            FlowDecision::Deny(DenyReason::InternetBlocked)
        );
        trust(&mut ctl, dev);
        assert_eq!(
            sw.process_packet(key(dev), false, SimTime::ZERO, &mut ctl),
            FlowDecision::Allow
        );
    }

    #[test]
    fn flow_filters_reach_an_open_flow() {
        let mut ctl = SdnController::new();
        let mut sw = OvsSwitch::new();
        let dev = mac(1);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        trust(&mut ctl, dev);
        let telnet = FlowKey {
            dst_port: Port::new(23),
            ..key(dev)
        };
        assert!(sw
            .process_packet(telnet, false, SimTime::ZERO, &mut ctl)
            .is_allowed());
        ctl.set_flow_filters(dev, vec![FlowFilter::deny(None, None, Some(Port::new(23)))])
            .unwrap();
        assert_eq!(
            sw.process_packet(telnet, false, SimTime::ZERO, &mut ctl),
            FlowDecision::Deny(DenyReason::FlowFiltered)
        );
    }

    #[test]
    fn departure_reaches_cached_flows() {
        let mut ctl = SdnController::new();
        let mut sw = OvsSwitch::new();
        let dev = mac(1);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        trust(&mut ctl, dev);
        assert!(sw
            .process_packet(key(dev), false, SimTime::ZERO, &mut ctl)
            .is_allowed());
        ctl.on_device_left(dev).unwrap();
        assert!(ctl.rule_cache().is_empty());
        assert_eq!(
            sw.process_packet(key(dev), false, SimTime::ZERO, &mut ctl),
            FlowDecision::Deny(DenyReason::NoRule)
        );
    }
}

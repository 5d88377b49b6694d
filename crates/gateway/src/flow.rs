//! Flow identification and the active-flow table.

use std::collections::HashMap;
use std::fmt;
use std::net::IpAddr;

use sentinel_net::{MacAddr, Port};

/// The 7-tuple-ish key identifying one flow through the gateway.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// Source device MAC.
    pub src_mac: MacAddr,
    /// Destination MAC (gateway MAC for routed traffic).
    pub dst_mac: MacAddr,
    /// Source IP.
    pub src_ip: IpAddr,
    /// Destination IP.
    pub dst_ip: IpAddr,
    /// IP protocol number.
    pub protocol: u8,
    /// Source port (0 when portless).
    pub src_port: Port,
    /// Destination port (0 when portless).
    pub dst_port: Port,
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

/// The gateway's verdict on a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowDecision {
    /// Forward the flow.
    Allow,
    /// Drop the flow, with the reason used for reporting.
    Deny(DenyReason),
}

impl FlowDecision {
    /// Whether the flow is forwarded.
    pub fn is_allowed(&self) -> bool {
        matches!(self, FlowDecision::Allow)
    }
}

/// Why a flow was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// Source device has no enforcement rule yet (pre-identification
    /// traffic is held to the untrusted overlay).
    NoRule,
    /// Cross-overlay device-to-device traffic.
    OverlayViolation,
    /// Internet destination not permitted at the device's isolation
    /// level.
    InternetBlocked,
    /// A flow-level filter on the device's rule matched with a deny
    /// action (§V flow-granular isolation).
    FlowFiltered,
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DenyReason::NoRule => "no enforcement rule",
            DenyReason::OverlayViolation => "overlay isolation",
            DenyReason::InternetBlocked => "internet blocked at isolation level",
            DenyReason::FlowFiltered => "flow-level filter",
        };
        f.write_str(s)
    }
}

/// One tracked flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// The flow key.
    pub key: FlowKey,
    /// Packets forwarded on this flow.
    pub packets: u64,
    /// The cached decision.
    pub decision: FlowDecision,
}

/// The active-flow table of the switch; its size is the "number of
/// concurrent flows" axis of Fig. 6a/6b.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    flows: HashMap<FlowKey, Flow>,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Records a packet on `key`, creating the flow with `decision` if
    /// absent; returns the (possibly cached) decision.
    pub fn record(
        &mut self,
        key: FlowKey,
        decision: impl FnOnce() -> FlowDecision,
    ) -> FlowDecision {
        let flow = self.flows.entry(key).or_insert_with(|| Flow {
            key,
            packets: 0,
            decision: decision(),
        });
        flow.packets += 1;
        flow.decision.clone()
    }

    /// The cached flow entry for `key`.
    pub fn get(&self, key: &FlowKey) -> Option<&Flow> {
        self.flows.get(key)
    }

    /// Number of concurrently tracked flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether no flow is tracked.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(last: u8, dport: u16) -> FlowKey {
        FlowKey {
            src_mac: MacAddr::new([2, 0, 0, 0, 0, last]),
            dst_mac: MacAddr::new([2, 0, 0, 0, 0, 0]),
            src_ip: IpAddr::V4(Ipv4Addr::new(192, 168, 1, 50)),
            dst_ip: IpAddr::V4(Ipv4Addr::new(52, 1, 2, 3)),
            protocol: 6,
            src_port: Port::new(50000),
            dst_port: Port::new(dport),
        }
    }

    #[test]
    fn record_caches_decision() {
        let mut table = FlowTable::new();
        let mut calls = 0;
        for _ in 0..5 {
            let d = table.record(key(1, 443), || {
                calls += 1;
                FlowDecision::Allow
            });
            assert!(d.is_allowed());
        }
        assert_eq!(calls, 1, "decision computed once per flow");
        assert_eq!(table.len(), 1);
        assert_eq!(table.get(&key(1, 443)).unwrap().packets, 5);
    }

    #[test]
    fn distinct_keys_distinct_flows() {
        let mut table = FlowTable::new();
        table.record(key(1, 443), || FlowDecision::Allow);
        table.record(key(1, 80), || {
            FlowDecision::Deny(DenyReason::InternetBlocked)
        });
        assert_eq!(table.len(), 2);
        assert!(!table.get(&key(1, 80)).unwrap().decision.is_allowed());
    }

    #[test]
    fn deny_reason_display() {
        assert_eq!(DenyReason::NoRule.to_string(), "no enforcement rule");
        assert_eq!(
            DenyReason::OverlayViolation.to_string(),
            "overlay isolation"
        );
    }
}

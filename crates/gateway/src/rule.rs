//! Per-device enforcement rules (paper Fig. 2) and their flow-level
//! refinements (§V).
//!
//! "Rules are specified for single devices using their MAC addresses.
//! If the device isolation level is Restricted, a list of permitted IP
//! addresses is given through which the device can communicate with
//! its cloud service. The hash value is used for enforcement rule
//! storage in cache."
//!
//! §V further notes: "Our implementation allows us to extend the
//! traffic filtering mechanism in Security Gateway to make network
//! isolation even more specific, up to the level of individual
//! flows." [`FlowFilter`] implements that extension: an ordered list
//! of protocol/port/address predicates attached to a device's rule,
//! consulted before the coarse isolation-level logic (first match
//! wins). A restricted camera can thus be limited not just to its
//! cloud *addresses* but to, say, TCP 443 towards them, and a trusted
//! device can still have individual risky flows (telnet, for
//! instance) cut off.

use std::fmt;
use std::net::IpAddr;

use sentinel_core::{Endpoint, IsolationLevel};
use sentinel_net::{MacAddr, Port};

use crate::flow::FlowKey;

/// Verdict of a matching [`FlowFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// Forward matching flows regardless of the coarse level.
    Allow,
    /// Drop matching flows regardless of the coarse level.
    Deny,
}

/// One flow-level predicate attached to a device's enforcement rule.
///
/// Every populated field must match the flow; `None` fields match
/// anything. Filters are evaluated in order; the first match decides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowFilter {
    /// IP protocol number (6 = TCP, 17 = UDP); `None` matches any.
    pub protocol: Option<u8>,
    /// Remote/destination address; `None` matches any.
    pub dst_ip: Option<IpAddr>,
    /// Destination port; `None` matches any.
    pub dst_port: Option<Port>,
    /// What to do with matching flows.
    pub action: FilterAction,
}

impl FlowFilter {
    /// A filter allowing flows to `dst_port`/`protocol` towards
    /// `dst_ip` (the "cloud service on 443/TCP only" shape).
    pub fn allow(protocol: Option<u8>, dst_ip: Option<IpAddr>, dst_port: Option<Port>) -> Self {
        FlowFilter {
            protocol,
            dst_ip,
            dst_port,
            action: FilterAction::Allow,
        }
    }

    /// A filter denying matching flows (the "no telnet anywhere"
    /// shape).
    pub fn deny(protocol: Option<u8>, dst_ip: Option<IpAddr>, dst_port: Option<Port>) -> Self {
        FlowFilter {
            protocol,
            dst_ip,
            dst_port,
            action: FilterAction::Deny,
        }
    }

    /// Whether this filter matches `key`.
    pub fn matches(&self, key: &FlowKey) -> bool {
        self.protocol.is_none_or(|p| p == key.protocol)
            && self.dst_ip.is_none_or(|ip| ip == key.dst_ip)
            && self.dst_port.is_none_or(|port| port == key.dst_port)
    }
}

/// An enforcement rule for one device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnforcementRule {
    mac: MacAddr,
    isolation: IsolationLevel,
    /// Permitted remote IPs, resolved from the isolation level's
    /// endpoint list (DNS names are pinned at install time).
    permitted_ips: Vec<IpAddr>,
    /// Ordered flow-level refinements (§V), consulted before the
    /// coarse isolation logic.
    flow_filters: Vec<FlowFilter>,
}

impl EnforcementRule {
    /// Builds a rule for `mac` at `isolation`, with no resolved
    /// endpoint pins.
    pub fn new(mac: MacAddr, isolation: IsolationLevel) -> Self {
        EnforcementRule {
            mac,
            isolation,
            permitted_ips: Vec::new(),
            flow_filters: Vec::new(),
        }
    }

    /// Builds a rule whose restricted endpoints are pinned to the
    /// given resolved addresses.
    pub fn with_permitted_ips(mut self, ips: Vec<IpAddr>) -> Self {
        self.permitted_ips = ips;
        self
    }

    /// Attaches ordered flow-level filters (first match wins).
    pub fn with_flow_filters(mut self, filters: Vec<FlowFilter>) -> Self {
        self.flow_filters = filters;
        self
    }

    /// The attached flow-level filters.
    pub fn flow_filters(&self) -> &[FlowFilter] {
        &self.flow_filters
    }

    /// Evaluates the flow-level filters against `key`: the first
    /// matching filter's action, or `None` when no filter matches
    /// (fall through to the coarse isolation logic).
    pub fn match_filter(&self, key: &FlowKey) -> Option<FilterAction> {
        self.flow_filters
            .iter()
            .find(|f| f.matches(key))
            .map(|f| f.action)
    }

    /// The device this rule applies to.
    pub fn mac(&self) -> MacAddr {
        self.mac
    }

    /// The isolation level enforced.
    pub fn isolation(&self) -> &IsolationLevel {
        &self.isolation
    }

    /// The pinned remote addresses (meaningful for restricted rules).
    pub fn permitted_ips(&self) -> &[IpAddr] {
        &self.permitted_ips
    }

    /// Whether this rule lets the device talk to remote `ip` on the
    /// Internet.
    pub fn permits_remote(&self, ip: IpAddr) -> bool {
        match &self.isolation {
            IsolationLevel::Trusted => true,
            IsolationLevel::Strict => false,
            IsolationLevel::Restricted { allowed_endpoints } => {
                self.permitted_ips.contains(&ip) || allowed_endpoints.contains(&Endpoint::Ip(ip))
            }
        }
    }

    /// The Fig. 2 hash value of the rule's MAC, shown in the rule's
    /// display form. [`RuleCache`](crate::RuleCache) keys on the MAC
    /// itself, not on this hash.
    pub fn hash_value(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.mac.octets() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl fmt::Display for EnforcementRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule[{} -> {} ({} pinned ips, hash {:016x})]",
            self.mac,
            self.isolation.name(),
            self.permitted_ips.len(),
            self.hash_value()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn mac() -> MacAddr {
        "13-73-74-7E-A9-C2".parse().unwrap()
    }

    #[test]
    fn trusted_rule_permits_all_remotes() {
        let rule = EnforcementRule::new(mac(), IsolationLevel::Trusted);
        assert!(rule.permits_remote(IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8))));
    }

    #[test]
    fn strict_rule_permits_no_remotes() {
        let rule = EnforcementRule::new(mac(), IsolationLevel::Strict);
        assert!(!rule.permits_remote(IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8))));
    }

    #[test]
    fn restricted_rule_permits_only_pins_and_endpoints() {
        let cloud = IpAddr::V4(Ipv4Addr::new(52, 1, 2, 3));
        let listed = IpAddr::V4(Ipv4Addr::new(52, 9, 9, 9));
        let rule = EnforcementRule::new(
            mac(),
            IsolationLevel::Restricted {
                allowed_endpoints: vec![Endpoint::Ip(listed)],
            },
        )
        .with_permitted_ips(vec![cloud]);
        assert!(rule.permits_remote(cloud));
        assert!(rule.permits_remote(listed));
        assert!(!rule.permits_remote(IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8))));
    }

    #[test]
    fn hash_value_is_stable_per_mac() {
        let a = EnforcementRule::new(mac(), IsolationLevel::Strict);
        let b = EnforcementRule::new(mac(), IsolationLevel::Trusted);
        assert_eq!(a.hash_value(), b.hash_value(), "hash keys on MAC");
        let other = EnforcementRule::new(MacAddr::new([2, 0, 0, 0, 0, 9]), IsolationLevel::Strict);
        assert_ne!(a.hash_value(), other.hash_value());
    }

    #[test]
    fn display_mentions_level() {
        let rule = EnforcementRule::new(mac(), IsolationLevel::Strict);
        assert!(rule.to_string().contains("strict"));
    }

    fn key_to(dst_ip: IpAddr, protocol: u8, dst_port: u16) -> FlowKey {
        FlowKey {
            src_mac: mac(),
            dst_mac: MacAddr::new([2, 0, 0, 0, 0, 9]),
            src_ip: IpAddr::V4(Ipv4Addr::new(192, 168, 1, 50)),
            dst_ip,
            protocol,
            src_port: sentinel_net::Port::new(50000),
            dst_port: sentinel_net::Port::new(dst_port),
        }
    }

    #[test]
    fn flow_filter_first_match_wins() {
        let cloud = IpAddr::V4(Ipv4Addr::new(52, 1, 2, 3));
        // Allow TCP 443 to the cloud, then deny everything to it.
        let rule = EnforcementRule::new(mac(), IsolationLevel::Strict).with_flow_filters(vec![
            FlowFilter::allow(Some(6), Some(cloud), Some(Port::new(443))),
            FlowFilter::deny(None, Some(cloud), None),
        ]);
        assert_eq!(
            rule.match_filter(&key_to(cloud, 6, 443)),
            Some(FilterAction::Allow)
        );
        assert_eq!(
            rule.match_filter(&key_to(cloud, 17, 443)),
            Some(FilterAction::Deny),
            "UDP to the cloud falls through to the deny filter"
        );
        assert_eq!(
            rule.match_filter(&key_to(cloud, 6, 80)),
            Some(FilterAction::Deny),
            "wrong port falls through to the deny filter"
        );
    }

    #[test]
    fn no_matching_filter_falls_through() {
        let cloud = IpAddr::V4(Ipv4Addr::new(52, 1, 2, 3));
        let elsewhere = IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8));
        let rule = EnforcementRule::new(mac(), IsolationLevel::Trusted)
            .with_flow_filters(vec![FlowFilter::deny(None, Some(cloud), None)]);
        assert_eq!(rule.match_filter(&key_to(elsewhere, 6, 443)), None);
        // The coarse level still applies on fall-through.
        assert!(rule.permits_remote(elsewhere));
    }

    #[test]
    fn wildcard_filter_matches_everything() {
        let rule = EnforcementRule::new(mac(), IsolationLevel::Trusted)
            .with_flow_filters(vec![FlowFilter::deny(None, None, Some(Port::new(23)))]);
        let telnet = key_to(IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)), 6, 23);
        assert_eq!(rule.match_filter(&telnet), Some(FilterAction::Deny));
        let https = key_to(IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)), 6, 443);
        assert_eq!(rule.match_filter(&https), None);
    }
}

//! The Floodlight-like SDN controller module (paper §V).
//!
//! "We wrote a custom module for Floodlight SDN controller to perform
//! network monitoring tasks, fingerprint generation and to manage
//! communications with IoT Security Service. This module is also
//! responsible for generation and enforcement of restricted network
//! access for connected devices."

use std::collections::HashMap;
use std::net::IpAddr;

use sentinel_core::incidents::{GatewayId, IncidentKind, IncidentReport};
use sentinel_core::{Endpoint, IsolationLevel, TypeId};
use sentinel_net::{MacAddr, SimTime};

use crate::cache::RuleCache;
use crate::device::DeviceRecord;
use crate::error::GatewayError;
use crate::flow::{DenyReason, FlowDecision, FlowKey};
use crate::overlay::{Overlay, OverlayMap};
use crate::rule::{EnforcementRule, FilterAction, FlowFilter};

/// Resolves the DNS names in restricted allow-lists to pinned
/// addresses at rule-install time.
pub type EndpointResolver<'a> = &'a dyn Fn(&str) -> Option<IpAddr>;

/// The gateway's control plane: device registry, overlay map and rule
/// cache, fed by the IoT Security Service's identifications. It owns
/// no service: its caller queries one and installs the answer.
#[derive(Debug, Default)]
pub struct SdnController {
    cache: RuleCache,
    overlays: OverlayMap,
    devices: HashMap<MacAddr, DeviceRecord>,
    packet_ins: u64,
    generation: u64,
    gateway_id: Option<GatewayId>,
    pending_incidents: Vec<IncidentReport>,
}

impl SdnController {
    /// Creates a controller with no devices and no rules.
    pub fn new() -> Self {
        SdnController::default()
    }

    /// Enables §III-B incident reporting under the pseudonymous `id`:
    /// policy-violating flows from *identified* devices accumulate as
    /// [`IncidentReport`]s for the operator to [`drain_incidents`] and
    /// forward to the IoT Security Service's correlator.
    ///
    /// [`drain_incidents`]: SdnController::drain_incidents
    pub fn enable_incident_reporting(&mut self, id: GatewayId) {
        self.gateway_id = Some(id);
    }

    /// Takes the incident reports accumulated since the last drain.
    pub fn drain_incidents(&mut self) -> Vec<IncidentReport> {
        std::mem::take(&mut self.pending_incidents)
    }

    /// The enforcement rule cache.
    pub fn rule_cache(&self) -> &RuleCache {
        &self.cache
    }

    /// Counts rule changes: every rule install, eviction and flow-filter
    /// change (and with them every overlay move) bumps it. A switch that
    /// caches this controller's flow decisions drops them when it moves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Overlay membership.
    pub fn overlays(&self) -> &OverlayMap {
        &self.overlays
    }

    /// The registry of known devices.
    pub fn devices(&self) -> impl Iterator<Item = &DeviceRecord> {
        self.devices.values()
    }

    /// The record of one device.
    pub fn device(&self, mac: MacAddr) -> Option<&DeviceRecord> {
        self.devices.get(&mac)
    }

    /// Number of packet-in events handled (flows escalated to the
    /// controller).
    pub fn packet_in_count(&self) -> u64 {
        self.packet_ins
    }

    /// Registers a newly appeared device: strict isolation in the
    /// untrusted overlay until identification completes.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::DuplicateDevice`] if already registered.
    pub fn on_device_appeared(&mut self, mac: MacAddr, now: SimTime) -> Result<(), GatewayError> {
        if self.devices.contains_key(&mac) {
            return Err(GatewayError::DuplicateDevice(mac));
        }
        self.devices.insert(mac, DeviceRecord::new(mac, now));
        self.overlays.assign(mac, Overlay::Untrusted);
        self.install(EnforcementRule::new(mac, IsolationLevel::Strict));
        Ok(())
    }

    /// Completes a device's setup with the IoT Security Service's
    /// answer for it: adopts the identified type and isolation level,
    /// pins any restricted endpoints via `resolver` and installs the
    /// final enforcement rule.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::UnknownDevice`] if the device never
    /// appeared.
    pub fn on_setup_complete(
        &mut self,
        mac: MacAddr,
        device_type: Option<TypeId>,
        level: IsolationLevel,
        resolver: EndpointResolver<'_>,
    ) -> Result<(), GatewayError> {
        let record = self
            .devices
            .get_mut(&mac)
            .ok_or(GatewayError::UnknownDevice(mac))?;
        record.apply_identification(device_type, level.clone());
        self.overlays.assign(mac, record.overlay);
        let pins: Vec<IpAddr> = match &level {
            IsolationLevel::Restricted { allowed_endpoints } => allowed_endpoints
                .iter()
                .filter_map(|e| match e {
                    Endpoint::Ip(ip) => Some(*ip),
                    Endpoint::Host(h) => resolver(h),
                })
                .collect(),
            _ => Vec::new(),
        };
        self.install(EnforcementRule::new(mac, level).with_permitted_ips(pins));
        Ok(())
    }

    /// Removes a disconnected device: rule, overlay entry and record.
    pub fn on_device_left(&mut self, mac: MacAddr) -> Result<(), GatewayError> {
        self.devices
            .remove(&mac)
            .ok_or(GatewayError::UnknownDevice(mac))?;
        self.overlays.remove(mac);
        self.cache.evict(mac);
        self.generation += 1;
        Ok(())
    }

    /// Installs (or replaces) a device's rule as a new generation.
    fn install(&mut self, rule: EnforcementRule) {
        self.cache.install(rule);
        self.generation += 1;
    }

    /// Packet-in: decides a flow that missed the switch's flow table.
    ///
    /// Local (device-to-device) traffic requires shared overlay
    /// membership; Internet-bound traffic is checked against the
    /// device's enforcement rule. With incident reporting enabled,
    /// denials from identified devices are recorded for the §III-B
    /// crowd-correlation pipeline (overlay violations as policy
    /// violations, blocked Internet flows as exfiltration attempts).
    pub fn decide_flow(
        &mut self,
        key: &FlowKey,
        dst_is_local_device: bool,
        now: SimTime,
    ) -> FlowDecision {
        self.packet_ins += 1;
        let Some(rule) = self.cache.lookup(key.src_mac) else {
            return FlowDecision::Deny(DenyReason::NoRule);
        };
        // §V flow-granular refinements take precedence over the coarse
        // isolation level; the first matching filter decides.
        let decision = match rule.match_filter(key) {
            Some(FilterAction::Allow) => FlowDecision::Allow,
            Some(FilterAction::Deny) => FlowDecision::Deny(DenyReason::FlowFiltered),
            None => {
                if dst_is_local_device {
                    if self.overlays.permits_peer_traffic(key.src_mac, key.dst_mac) {
                        FlowDecision::Allow
                    } else {
                        FlowDecision::Deny(DenyReason::OverlayViolation)
                    }
                } else if rule.permits_remote(key.dst_ip) {
                    FlowDecision::Allow
                } else {
                    FlowDecision::Deny(DenyReason::InternetBlocked)
                }
            }
        };
        if let FlowDecision::Deny(reason) = &decision {
            self.record_incident(key.src_mac, *reason, now);
        }
        decision
    }

    /// Attaches flow-level filters to `mac`'s installed enforcement
    /// rule (§V: isolation "up to the level of individual flows"),
    /// replacing any filters previously attached.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::UnknownDevice`] if no rule is installed
    /// for `mac`.
    pub fn set_flow_filters(
        &mut self,
        mac: MacAddr,
        filters: Vec<FlowFilter>,
    ) -> Result<(), GatewayError> {
        let rule = self
            .cache
            .peek(mac)
            .cloned()
            .ok_or(GatewayError::UnknownDevice(mac))?;
        self.install(rule.with_flow_filters(filters));
        Ok(())
    }

    /// Queues an incident report for a denied flow, if reporting is
    /// enabled and the offending device has an identified type to
    /// attribute the incident to.
    fn record_incident(&mut self, src: MacAddr, reason: DenyReason, now: SimTime) {
        let Some(gateway_id) = self.gateway_id else {
            return;
        };
        let kind = match reason {
            DenyReason::OverlayViolation | DenyReason::FlowFiltered => {
                IncidentKind::PolicyViolation
            }
            DenyReason::InternetBlocked => IncidentKind::ExfiltrationAttempt,
            // No rule means the device is still unidentified; there is
            // no type to attribute an incident to.
            DenyReason::NoRule => return,
        };
        let Some(device_type) = self.devices.get(&src).and_then(|record| record.device_type) else {
            return;
        };
        self.pending_incidents
            .push(IncidentReport::new(gateway_id, device_type, kind, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_core::{IoTSecurityService, ServiceResponse, Trainer, VulnerabilityDatabase};
    use sentinel_fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
    use sentinel_net::Port;
    use std::net::Ipv4Addr;

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

    fn controller() -> (SdnController, IoTSecurityService) {
        let mut ds = Dataset::new();
        for i in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                "CleanType",
                fp_bits(0b001, &[100 + i, 110, 120]),
            ));
            ds.push(LabeledFingerprint::new(
                "VulnType",
                fp_bits(0b010, &[100 + i, 110, 120]),
            ));
            ds.push(LabeledFingerprint::new(
                "OtherType",
                fp_bits(0b100, &[100 + i, 110, 120]),
            ));
        }
        let identifier = Trainer::default().train(&ds, 4).unwrap();
        let mut db = VulnerabilityDatabase::new();
        let vuln = identifier.registry().get("VulnType").unwrap();
        db.add_record(
            vuln,
            sentinel_core::VulnerabilityRecord::new("CVE-X", "demo", sentinel_core::Severity::High),
        );
        db.add_vendor_endpoint(vuln, Endpoint::Host("cloud.vuln.example".into()));
        (
            SdnController::new(),
            IoTSecurityService::new(identifier, db),
        )
    }

    /// What a gateway does at setup completion: query the service,
    /// then install its answer.
    fn setup(
        ctl: &mut SdnController,
        service: &IoTSecurityService,
        mac: MacAddr,
        fingerprint: &Fingerprint,
        resolver: EndpointResolver<'_>,
    ) -> Result<ServiceResponse, GatewayError> {
        let response = service.handle(fingerprint);
        let level = response.isolation_level(service.vulnerabilities());
        ctl.on_setup_complete(mac, response.device_type, level, resolver)?;
        Ok(response)
    }

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, last])
    }

    fn flow_key(src: MacAddr, dst: MacAddr, dst_ip: Ipv4Addr) -> FlowKey {
        FlowKey {
            src_mac: src,
            dst_mac: dst,
            src_ip: IpAddr::V4(Ipv4Addr::new(192, 168, 1, 50)),
            dst_ip: IpAddr::V4(dst_ip),
            protocol: 6,
            src_port: Port::new(50000),
            dst_port: Port::new(443),
        }
    }

    #[test]
    fn lifecycle_clean_device() {
        let (mut ctl, service) = controller();
        let dev = mac(1);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        assert!(ctl.on_device_appeared(dev, SimTime::ZERO).is_err());
        // Pre-identification: Internet blocked.
        let d = ctl.decide_flow(
            &flow_key(dev, mac(0), Ipv4Addr::new(8, 8, 8, 8)),
            false,
            SimTime::ZERO,
        );
        assert_eq!(d, FlowDecision::Deny(DenyReason::InternetBlocked));
        // Identify as clean → trusted → Internet allowed.
        let resp = setup(
            &mut ctl,
            &service,
            dev,
            &fp_bits(0b001, &[104, 110, 120]),
            &|_| None,
        )
        .unwrap();
        assert_eq!(resp.device_type_name(service.registry()), Some("CleanType"));
        let d = ctl.decide_flow(
            &flow_key(dev, mac(0), Ipv4Addr::new(8, 8, 8, 8)),
            false,
            SimTime::ZERO,
        );
        assert_eq!(d, FlowDecision::Allow);
        assert_eq!(ctl.device(dev).unwrap().overlay, Overlay::Trusted);
    }

    #[test]
    fn vulnerable_device_restricted_to_pinned_cloud() {
        let (mut ctl, service) = controller();
        let dev = mac(2);
        let cloud = Ipv4Addr::new(52, 10, 20, 30);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        let resolver =
            move |host: &str| (host == "cloud.vuln.example").then_some(IpAddr::V4(cloud));
        let resp = setup(
            &mut ctl,
            &service,
            dev,
            &fp_bits(0b010, &[105, 110, 120]),
            &resolver,
        )
        .unwrap();
        assert_eq!(resp.isolation, sentinel_core::IsolationClass::Restricted);
        // Cloud reachable, everything else blocked.
        assert_eq!(
            ctl.decide_flow(&flow_key(dev, mac(0), cloud), false, SimTime::ZERO),
            FlowDecision::Allow
        );
        assert_eq!(
            ctl.decide_flow(
                &flow_key(dev, mac(0), Ipv4Addr::new(8, 8, 8, 8)),
                false,
                SimTime::ZERO
            ),
            FlowDecision::Deny(DenyReason::InternetBlocked)
        );
    }

    #[test]
    fn overlay_isolation_between_devices() {
        let (mut ctl, service) = controller();
        let clean = mac(1);
        let vuln = mac(2);
        ctl.on_device_appeared(clean, SimTime::ZERO).unwrap();
        ctl.on_device_appeared(vuln, SimTime::ZERO).unwrap();
        setup(
            &mut ctl,
            &service,
            clean,
            &fp_bits(0b001, &[104, 110, 120]),
            &|_| None,
        )
        .unwrap();
        setup(
            &mut ctl,
            &service,
            vuln,
            &fp_bits(0b010, &[105, 110, 120]),
            &|_| None,
        )
        .unwrap();
        // Trusted -> untrusted peer traffic blocked.
        let d = ctl.decide_flow(
            &flow_key(clean, vuln, Ipv4Addr::new(192, 168, 1, 51)),
            true,
            SimTime::ZERO,
        );
        assert_eq!(d, FlowDecision::Deny(DenyReason::OverlayViolation));
        // Two untrusted devices may communicate.
        let vuln2 = mac(3);
        ctl.on_device_appeared(vuln2, SimTime::ZERO).unwrap();
        setup(
            &mut ctl,
            &service,
            vuln2,
            &fp_bits(0b010, &[106, 110, 120]),
            &|_| None,
        )
        .unwrap();
        let d = ctl.decide_flow(
            &flow_key(vuln, vuln2, Ipv4Addr::new(192, 168, 1, 52)),
            true,
            SimTime::ZERO,
        );
        assert_eq!(d, FlowDecision::Allow);
    }

    #[test]
    fn unknown_device_gets_strict_rule() {
        let (mut ctl, service) = controller();
        let dev = mac(4);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        let resp = setup(
            &mut ctl,
            &service,
            dev,
            &fp_bits(0b1000, &[104, 110, 120]),
            &|_| None,
        )
        .unwrap();
        assert_eq!(resp.device_type, None);
        assert_eq!(resp.isolation, sentinel_core::IsolationClass::Strict);
        assert_eq!(
            ctl.decide_flow(
                &flow_key(dev, mac(0), Ipv4Addr::new(8, 8, 8, 8)),
                false,
                SimTime::ZERO
            ),
            FlowDecision::Deny(DenyReason::InternetBlocked)
        );
    }

    #[test]
    fn device_departure_cleans_up() {
        let mut ctl = SdnController::new();
        let dev = mac(5);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        assert_eq!(ctl.rule_cache().len(), 1);
        ctl.on_device_left(dev).unwrap();
        assert_eq!(ctl.rule_cache().len(), 0);
        assert!(ctl.device(dev).is_none());
        assert!(ctl.on_device_left(dev).is_err());
        // Flows from an unregistered device are denied for lack of a
        // rule.
        assert_eq!(
            ctl.decide_flow(
                &flow_key(dev, mac(0), Ipv4Addr::new(8, 8, 8, 8)),
                false,
                SimTime::ZERO
            ),
            FlowDecision::Deny(DenyReason::NoRule)
        );
    }

    #[test]
    fn denied_flows_become_incident_reports() {
        let (mut ctl, service) = controller();
        ctl.enable_incident_reporting(GatewayId(0xfeed));
        let vuln = mac(6);
        ctl.on_device_appeared(vuln, SimTime::ZERO).unwrap();
        // Pre-identification denial: no type to attribute, no report.
        ctl.decide_flow(
            &flow_key(vuln, mac(0), Ipv4Addr::new(8, 8, 8, 8)),
            false,
            SimTime::ZERO,
        );
        assert!(ctl.drain_incidents().is_empty());

        // Identified restricted device probing a forbidden Internet
        // destination -> exfiltration-attempt report.
        setup(
            &mut ctl,
            &service,
            vuln,
            &fp_bits(0b010, &[104, 110, 120]),
            &|_| None,
        )
        .unwrap();
        let at = SimTime::from_secs(30);
        ctl.decide_flow(
            &flow_key(vuln, mac(0), Ipv4Addr::new(8, 8, 8, 8)),
            false,
            at,
        );
        let reports = ctl.drain_incidents();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].gateway, GatewayId(0xfeed));
        assert_eq!(service.registry().name(reports[0].device_type), "VulnType");
        assert_eq!(reports[0].kind, IncidentKind::ExfiltrationAttempt);
        assert_eq!(reports[0].observed_at, at);
        // Draining empties the queue.
        assert!(ctl.drain_incidents().is_empty());

        // Cross-overlay probe of a trusted device -> policy violation.
        let clean = mac(7);
        ctl.on_device_appeared(clean, SimTime::ZERO).unwrap();
        setup(
            &mut ctl,
            &service,
            clean,
            &fp_bits(0b001, &[104, 110, 120]),
            &|_| None,
        )
        .unwrap();
        ctl.decide_flow(
            &flow_key(vuln, clean, Ipv4Addr::new(192, 168, 1, 51)),
            true,
            SimTime::from_secs(60),
        );
        let reports = ctl.drain_incidents();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, IncidentKind::PolicyViolation);
    }

    #[test]
    fn reporting_disabled_records_nothing() {
        let (mut ctl, service) = controller();
        let dev = mac(8);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        setup(
            &mut ctl,
            &service,
            dev,
            &fp_bits(0b010, &[104, 110, 120]),
            &|_| None,
        )
        .unwrap();
        ctl.decide_flow(
            &flow_key(dev, mac(0), Ipv4Addr::new(8, 8, 8, 8)),
            false,
            SimTime::ZERO,
        );
        assert!(ctl.drain_incidents().is_empty());
    }

    #[test]
    fn flow_filters_refine_the_coarse_level() {
        let (mut ctl, service) = controller();
        let dev = mac(9);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        // Identified as trusted: everything is allowed by the level.
        setup(
            &mut ctl,
            &service,
            dev,
            &fp_bits(0b001, &[104, 110, 120]),
            &|_| None,
        )
        .unwrap();
        let telnet = FlowKey {
            dst_port: Port::new(23),
            ..flow_key(dev, mac(0), Ipv4Addr::new(8, 8, 8, 8))
        };
        assert_eq!(
            ctl.decide_flow(&telnet, false, SimTime::ZERO),
            FlowDecision::Allow
        );

        // Cut off telnet specifically (§V flow-granular isolation).
        ctl.set_flow_filters(dev, vec![FlowFilter::deny(None, None, Some(Port::new(23)))])
            .unwrap();
        assert_eq!(
            ctl.decide_flow(&telnet, false, SimTime::ZERO),
            FlowDecision::Deny(DenyReason::FlowFiltered)
        );
        // Other flows keep the trusted level's verdict.
        assert_eq!(
            ctl.decide_flow(
                &flow_key(dev, mac(0), Ipv4Addr::new(8, 8, 8, 8)),
                false,
                SimTime::ZERO
            ),
            FlowDecision::Allow
        );

        // Filters for unknown devices are rejected.
        assert!(ctl.set_flow_filters(mac(99), Vec::new()).is_err());
    }

    #[test]
    fn flow_filter_allow_overrides_restricted_level() {
        let (mut ctl, service) = controller();
        let dev = mac(10);
        ctl.on_device_appeared(dev, SimTime::ZERO).unwrap();
        // Restricted device: arbitrary Internet destinations blocked.
        setup(
            &mut ctl,
            &service,
            dev,
            &fp_bits(0b010, &[104, 110, 120]),
            &|_| None,
        )
        .unwrap();
        let ntp = FlowKey {
            protocol: 17,
            dst_port: Port::new(123),
            ..flow_key(dev, mac(0), Ipv4Addr::new(129, 6, 15, 28))
        };
        assert_eq!(
            ctl.decide_flow(&ntp, false, SimTime::ZERO),
            FlowDecision::Deny(DenyReason::InternetBlocked)
        );
        // Permit NTP as an individual flow class.
        ctl.set_flow_filters(
            dev,
            vec![FlowFilter::allow(Some(17), None, Some(Port::new(123)))],
        )
        .unwrap();
        assert_eq!(
            ctl.decide_flow(&ntp, false, SimTime::ZERO),
            FlowDecision::Allow
        );
    }
}

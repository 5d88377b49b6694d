//! The full enforcement pipeline: raw frames → capture monitor →
//! fingerprint → IoT Security Service → SDN controller → switch
//! decisions, assembled through the `SentinelBuilder` facade.

use std::net::{IpAddr, Ipv4Addr};

use iot_sentinel::core::{
    Endpoint, IdentifierConfig, IsolationClass, Severity, VulnerabilityRecord,
};
use iot_sentinel::devices::{catalog, generate_dataset, NetworkEnvironment, SetupSimulator};
use iot_sentinel::fingerprint::FingerprintExtractor;
use iot_sentinel::gateway::{FlowDecision, FlowKey, OvsSwitch};
use iot_sentinel::ml::{ForestConfig, TreeConfig};
use iot_sentinel::net::{CaptureMonitor, MacAddr, Port, SetupDetectorConfig, SimTime};
use iot_sentinel::SentinelBuilder;

fn fast_config() -> IdentifierConfig {
    IdentifierConfig {
        forest: ForestConfig {
            n_trees: 15,
            tree: TreeConfig::default(),
            bootstrap: true,
            threads: 1,
        },
        ..IdentifierConfig::default()
    }
}

fn flow(src: MacAddr, dst: MacAddr, dst_ip: Ipv4Addr) -> FlowKey {
    FlowKey {
        src_mac: src,
        dst_mac: dst,
        src_ip: IpAddr::V4(Ipv4Addr::new(192, 168, 1, 50)),
        dst_ip: IpAddr::V4(dst_ip),
        protocol: 6,
        src_port: Port::new(51000),
        dst_port: Port::new(443),
    }
}

#[test]
fn frames_to_flow_decisions() {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();
    let used = [
        "HueBridge",
        "EdnetCam",
        "Aria",
        "MAXGateway",
        "Withings",
        "WeMoLink",
    ];
    let selected: Vec<_> = profiles
        .iter()
        .filter(|p| used.contains(&p.type_name.as_str()))
        .cloned()
        .collect();

    // Build the whole stack through the facade; EdnetCam is
    // known-vulnerable.
    let dataset = generate_dataset(&selected, &env, 8, 4);
    let mut sentinel = SentinelBuilder::new()
        .dataset(dataset)
        .identifier_config(fast_config())
        .training_seed(21)
        .vulnerability(
            "EdnetCam",
            VulnerabilityRecord::new("CVE-DEMO-1", "open stream", Severity::Critical),
        )
        .vendor_endpoint("EdnetCam", Endpoint::Host("ipcam.ednet.example".into()))
        .build()
        .unwrap();
    let mut switch = OvsSwitch::new();
    let resolver_env = env.clone();
    let resolver = move |host: &str| Some(IpAddr::V4(resolver_env.resolve_host(host)));

    // Two devices join: a clean bridge and the vulnerable camera.
    let mut sim = SetupSimulator::new(env.clone(), 0xAA);
    let mut monitor = CaptureMonitor::new(SetupDetectorConfig::default());
    monitor.ignore_mac(env.gateway_mac);
    let mut macs = std::collections::HashMap::new();
    for name in ["HueBridge", "EdnetCam"] {
        let profile = profiles.iter().find(|p| p.type_name == name).unwrap();
        let trace = sim.simulate(profile, 50);
        for frame in trace.iter() {
            monitor.observe_frame(frame).unwrap();
        }
        for capture in monitor.finish_all() {
            sentinel
                .device_appeared(capture.mac(), capture.first_seen())
                .unwrap();
            let fp = FingerprintExtractor::extract_from(capture.packets());
            let response = sentinel
                .complete_setup(capture.mac(), &fp, &resolver)
                .unwrap();
            assert_eq!(
                sentinel.service().type_name(response.device_type),
                Some(name),
                "device must be identified correctly for this test to be meaningful"
            );
            macs.insert(name, capture.mac());
        }
    }
    let hue = macs["HueBridge"];
    let cam = macs["EdnetCam"];

    // Isolation levels took effect.
    assert_eq!(
        sentinel.device(hue).unwrap().isolation.class(),
        IsolationClass::Trusted
    );
    assert_eq!(
        sentinel.device(cam).unwrap().isolation.class(),
        IsolationClass::Restricted
    );

    // Trusted bridge: full Internet.
    let d = switch.process_packet(
        flow(hue, env.gateway_mac, Ipv4Addr::new(8, 8, 8, 8)),
        false,
        SimTime::ZERO,
        sentinel.controller_mut(),
    );
    assert_eq!(d, FlowDecision::Allow);

    // Restricted camera: vendor cloud allowed, rest blocked.
    let cloud = env.resolve_host("ipcam.ednet.example");
    let d = switch.process_packet(
        flow(cam, env.gateway_mac, cloud),
        false,
        SimTime::ZERO,
        sentinel.controller_mut(),
    );
    assert_eq!(d, FlowDecision::Allow, "vendor cloud must stay reachable");
    let d = switch.process_packet(
        flow(cam, env.gateway_mac, Ipv4Addr::new(8, 8, 8, 8)),
        false,
        SimTime::ZERO,
        sentinel.controller_mut(),
    );
    assert!(!d.is_allowed(), "non-vendor Internet must be blocked");

    // Cross-overlay device-to-device blocked both ways.
    let d = switch.process_packet(
        flow(cam, hue, Ipv4Addr::new(192, 168, 1, 20)),
        true,
        SimTime::ZERO,
        sentinel.controller_mut(),
    );
    assert!(!d.is_allowed());
    let d = switch.process_packet(
        flow(hue, cam, Ipv4Addr::new(192, 168, 1, 21)),
        true,
        SimTime::ZERO,
        sentinel.controller_mut(),
    );
    assert!(!d.is_allowed());

    // Flow-table caching: replaying a flow does not re-consult the
    // controller.
    let before = sentinel.controller().packet_in_count();
    for _ in 0..5 {
        switch.process_packet(
            flow(hue, env.gateway_mac, Ipv4Addr::new(8, 8, 8, 8)),
            false,
            SimTime::ZERO,
            sentinel.controller_mut(),
        );
    }
    assert_eq!(
        sentinel.controller().packet_in_count(),
        before,
        "cached flows skip packet-in"
    );
}

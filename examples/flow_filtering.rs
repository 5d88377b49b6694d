//! Flow-granular isolation (§V): "Our implementation allows us to
//! extend the traffic filtering mechanism in Security Gateway to make
//! network isolation even more specific, up to the level of individual
//! flows."
//!
//! A restricted camera is narrowed from "may talk to its cloud
//! addresses" down to "may talk to its cloud on TCP 443 only", and a
//! trusted plug gets a single risky flow class (telnet) cut off while
//! everything else stays open. Denied flows feed the §III-B incident
//! pipeline.
//!
//! Run with: `cargo run --release --example flow_filtering`

use std::net::{IpAddr, Ipv4Addr};

use iot_sentinel::core::incidents::GatewayId;
use iot_sentinel::devices::{capture_setups, catalog, generate_dataset, NetworkEnvironment};
use iot_sentinel::fingerprint::FingerprintExtractor;
use iot_sentinel::gateway::{FlowDecision, FlowFilter, FlowKey, OvsSwitch};
use iot_sentinel::net::{Port, SimTime};
use iot_sentinel::{SentinelBuilder, SentinelEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();

    // Train on a small neighbourhood and stand up the gateway stack.
    let selected: Vec<_> = profiles
        .iter()
        .filter(|p| ["EdnetCam", "TP-LinkPlugHS110", "HueBridge"].contains(&p.type_name.as_str()))
        .cloned()
        .collect();
    let mut sentinel = SentinelBuilder::new()
        .dataset(generate_dataset(&selected, &env, 10, 77))
        .training_seed(77)
        .demo_vulnerabilities()
        .gateway_id(GatewayId(0x51de))
        .build()?;
    let mut switch = OvsSwitch::new();

    // Onboard the (vulnerable, restricted) camera.
    let cam_profile = selected.iter().find(|p| p.type_name == "EdnetCam").unwrap();
    let cam = cam_profile.instance_mac(0);
    let cloud = IpAddr::V4(Ipv4Addr::new(52, 10, 20, 30));
    sentinel.device_appeared(cam, SimTime::ZERO)?;
    let capture = capture_setups(cam_profile, &env, 1, 0xCA).remove(0);
    let fingerprint = FingerprintExtractor::extract_from(capture.packets());
    let response = sentinel.complete_setup(cam, &fingerprint, &|_| Some(cloud))?;
    println!(
        "camera identified as {:?} -> isolation {}",
        sentinel.service().type_name(response.device_type),
        response.isolation
    );

    let flow = |dst_ip: IpAddr, protocol: u8, port: u16| FlowKey {
        src_mac: cam,
        dst_mac: env.gateway_mac,
        src_ip: IpAddr::V4(env.device_ip(0)),
        dst_ip,
        protocol,
        src_port: Port::new(49200),
        dst_port: Port::new(port),
    };
    let show = |what: &str, decision: &FlowDecision| {
        println!(
            "  {what:<44} {}",
            match decision {
                FlowDecision::Allow => "ALLOW".to_string(),
                FlowDecision::Deny(reason) => format!("DENY ({reason})"),
            }
        );
    };

    println!("\nrestricted level alone (address allow-list):");
    let d = switch.process_packet(
        flow(cloud, 17, 9999),
        false,
        SimTime::ZERO,
        sentinel.controller_mut(),
    );
    show("UDP 9999 to the camera cloud", &d);

    // Narrow the camera to TCP 443 towards its cloud, nothing else. The
    // rule change voids the switch's cached decisions, so the already
    // open UDP 9999 flow is decided again.
    sentinel.controller_mut().set_flow_filters(
        cam,
        vec![
            FlowFilter::allow(Some(6), Some(cloud), Some(Port::new(443))),
            FlowFilter::deny(None, None, None),
        ],
    )?;
    println!("\nafter flow-granular narrowing (TCP 443 to cloud only):");
    let t = SimTime::from_secs(1);
    for (what, key) in [
        ("TCP 443 to the camera cloud", flow(cloud, 6, 443)),
        (
            "UDP 9999 to the camera cloud (open flow)",
            flow(cloud, 17, 9999),
        ),
        (
            "TCP 443 elsewhere",
            flow(IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)), 6, 443),
        ),
    ] {
        let d = switch.process_packet(key, false, t, sentinel.controller_mut());
        show(what, &d);
    }

    // The denials surfaced as typed §III-B incident events.
    let incidents: Vec<_> = sentinel
        .events()
        .filter_map(|event| match event {
            SentinelEvent::IncidentRaised(report) => Some(report),
            _ => None,
        })
        .collect();
    println!(
        "\nincident reports generated by the denials: {}",
        incidents.len()
    );
    for report in &incidents {
        println!(
            "  {} attributed to {} ({})",
            report.kind,
            sentinel.service().registry().name(report.device_type),
            report.gateway
        );
    }
    Ok(())
}

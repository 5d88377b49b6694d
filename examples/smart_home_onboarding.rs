//! Smart-home onboarding: the full IoT Sentinel pipeline.
//!
//! Several devices join a home network one after another. The Security
//! Gateway's capture monitor collects each device's setup traffic from
//! raw frames, fingerprints it, asks the IoT Security Service for an
//! isolation level, installs enforcement rules, and the switch then
//! polices device-to-device and Internet flows.
//!
//! Run with: `cargo run --release --example smart_home_onboarding`

use std::net::IpAddr;

use iot_sentinel::devices::{catalog, generate_dataset, NetworkEnvironment, SetupSimulator};
use iot_sentinel::fingerprint::FingerprintExtractor;
use iot_sentinel::gateway::{FlowKey, OvsSwitch};
use iot_sentinel::net::{CaptureMonitor, Port, SetupDetectorConfig, SimTime};
use iot_sentinel::{SentinelBuilder, SentinelEvent};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();

    println!("== training the IoT Security Service ==");
    let mut sentinel = SentinelBuilder::new()
        .dataset(generate_dataset(&profiles, &env, 10, 7))
        .training_seed(99)
        .demo_vulnerabilities()
        .build()?;
    let mut switch = OvsSwitch::new();

    // The resolver pins restricted DNS endpoints at install time.
    let resolver_env = env.clone();
    let resolver = move |host: &str| Some(IpAddr::V4(resolver_env.resolve_host(host)));

    println!("\n== devices joining the network ==");
    let joining = ["HueBridge", "EdnetCam", "TP-LinkPlugHS110", "SmarterCoffee"];
    let mut sim = SetupSimulator::new(env.clone(), 0xBEEF);
    let mut monitor = CaptureMonitor::new(SetupDetectorConfig::default());
    monitor.ignore_mac(env.gateway_mac);

    let mut device_macs = Vec::new();
    for name in joining {
        let profile = profiles.iter().find(|p| p.type_name == name).unwrap();
        let trace = sim.simulate(profile, 33);
        for frame in trace.iter() {
            monitor.observe_frame(frame)?;
        }
        for capture in monitor.finish_all() {
            sentinel.device_appeared(capture.mac(), capture.first_seen())?;
            let fingerprint = FingerprintExtractor::extract_from(capture.packets());
            let response = sentinel.complete_setup(capture.mac(), &fingerprint, &resolver)?;
            println!(
                "{} ({} packets) -> identified {:?}, isolation {}",
                capture.mac(),
                capture.packets().len(),
                sentinel
                    .service()
                    .type_name(response.device_type)
                    .unwrap_or("<unknown>"),
                response.isolation
            );
            device_macs.push((name, capture.mac()));
        }
    }

    println!("\n== typed event stream ==");
    let events: Vec<SentinelEvent> = sentinel.events().collect();
    for event in &events {
        if let SentinelEvent::IsolationChanged { mac, from, to } = event {
            println!("{mac}  isolation {from} -> {to}");
        }
    }

    println!("\n== overlay membership ==");
    for record in sentinel.devices() {
        println!(
            "{}  {:16}  overlay {}",
            record.mac,
            sentinel
                .service()
                .registry()
                .resolve(record.device_type)
                .unwrap_or("<unknown>"),
            record.overlay
        );
    }

    println!("\n== flow decisions ==");
    let ip = |a, b, c, d| IpAddr::V4(std::net::Ipv4Addr::new(a, b, c, d));
    let (_, hue_mac) = device_macs[0];
    let (_, cam_mac) = device_macs[1];
    let scenarios = [
        (
            "HueBridge -> internet (8.8.8.8)",
            hue_mac,
            hue_mac,
            ip(8, 8, 8, 8),
            false,
        ),
        (
            "EdnetCam -> its vendor cloud",
            cam_mac,
            cam_mac,
            ip(52, 1, 2, 3),
            false,
        ),
        (
            "EdnetCam -> HueBridge (cross-overlay)",
            cam_mac,
            hue_mac,
            ip(192, 168, 1, 20),
            true,
        ),
    ];
    // Pin the cam's real permitted endpoint for a meaningful check.
    let cam_cloud = env.resolve_host("ipcam.ednet.example");
    let scenarios = {
        let mut s = scenarios.to_vec();
        s[1].3 = IpAddr::V4(cam_cloud);
        s
    };
    for (label, src, dst, dst_ip, local) in scenarios {
        let key = FlowKey {
            src_mac: src,
            dst_mac: dst,
            src_ip: ip(192, 168, 1, 50),
            dst_ip,
            protocol: 6,
            src_port: Port::new(50000),
            dst_port: Port::new(443),
        };
        let decision = switch.process_packet(key, local, SimTime::ZERO, sentinel.controller_mut());
        println!("{label:45} -> {decision:?}");
    }

    println!("\nswitch stats: {:?}", switch.stats());
    Ok(())
}

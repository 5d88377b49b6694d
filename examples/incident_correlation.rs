//! Crowdsourced vulnerability discovery (§III-B): no CVE exists for a
//! device type, but Security Gateways across many households observe
//! the same type scanning their networks. The IoTSSP cross-correlates
//! the reports, flags the type, and the *next* household that installs
//! one gets it confined automatically.
//!
//! Run with: `cargo run --release --example incident_correlation`

use iot_sentinel::core::incidents::{CorrelatorConfig, GatewayId, IncidentCorrelator};
use iot_sentinel::core::{IncidentKind, IncidentReport, RegistryMismatch};
use iot_sentinel::devices::{capture_setups, catalog, generate_dataset, NetworkEnvironment};
use iot_sentinel::fingerprint::FingerprintExtractor;
use iot_sentinel::net::{SimDuration, SimTime};
use iot_sentinel::SentinelBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();

    // The IoTSSP: identification models + a vulnerability DB that has
    // NO entry for the Ednet camera yet.
    println!("training identification models (subset of 8 types)...");
    let subset: Vec<_> = profiles.iter().take(8).cloned().collect();
    let sentinel = SentinelBuilder::new()
        .dataset(generate_dataset(&subset, &env, 10, 21))
        .training_seed(21)
        .build()?;
    let cam_id = sentinel
        .service()
        .registry()
        .get("EdnetCam")
        .expect("EdnetCam is in the training subset");
    assert!(!sentinel.service().vulnerabilities().is_vulnerable(cam_id));

    // Day 0: a fresh EdnetCam fingerprint is assessed as clean.
    let cam = profiles.iter().find(|p| p.type_name == "EdnetCam").unwrap();
    let fp = |seed: u64| {
        let capture = capture_setups(cam, &env, 1, seed).remove(0);
        FingerprintExtractor::extract_from(capture.packets())
    };
    let before = sentinel.handle(&fp(0x10));
    println!(
        "day 0: EdnetCam identified as {:?}, isolation {}",
        sentinel.service().type_name(before.device_type),
        before.isolation
    );

    // Days 1-2: a worm spreads among EdnetCams; affected households'
    // gateways report scanning behaviour (pseudonymously), tagged with
    // the interned TypeId the IoTSSP handed them at identification.
    let mut correlator = IncidentCorrelator::new(CorrelatorConfig {
        window: SimDuration::from_secs(48 * 3600),
        min_gateways: 3,
        min_reports: 5,
        ..CorrelatorConfig::default()
    });
    println!("\nincident reports arriving at the IoTSSP:");
    for (gw, hour) in [(101u64, 2u64), (245, 7), (245, 9), (399, 20), (512, 26)] {
        let report = IncidentReport::new(
            GatewayId(gw),
            cam_id,
            IncidentKind::ScanningBehaviour,
            SimTime::from_secs(hour * 3600),
        );
        println!("  {} reports {} at t+{hour}h", report.gateway, report.kind);
        correlator.submit(report);
    }

    // The correlation job runs; the type crosses the threshold, and its
    // verdict is published to every query path as one epoch.
    let now = SimTime::from_secs(30 * 3600);
    let flagged = sentinel.service_cell().update(|service| {
        let (identifier, vulnerabilities) = service.parts_mut();
        Ok::<_, RegistryMismatch>(correlator.apply_to(vulnerabilities, identifier.registry(), now))
    })?;
    println!("\ncorrelation at t+30h: {flagged} device type(s) flagged");
    for record in sentinel.service().vulnerabilities().records_for(cam_id) {
        println!(
            "  derived advisory {}: {} [{}]",
            record.id, record.description, record.severity
        );
    }

    // Day 3: another household installs the same camera model — it is
    // now confined on arrival, before any CVE was ever filed.
    let after = sentinel.handle(&fp(0x20));
    println!(
        "\nday 3: EdnetCam identified as {:?}, isolation {}",
        sentinel.service().type_name(after.device_type),
        after.isolation
    );
    assert!(!after.isolation.in_trusted_overlay());
    println!("-> the fleet is protected by the households already hit.");
    Ok(())
}

//! §III-C-3 end to end: a vulnerable device with an uncontrollable
//! side channel cannot be confined by isolation or filtering, so the
//! pipeline escalates to a user removal advisory — and verifies the
//! removal actually happened.

use iot_sentinel::core::{
    IdentifierConfig, IsolationClass, Severity, TypeRegistry, VulnerabilityDatabase,
    VulnerabilityRecord,
};
use iot_sentinel::devices::{capture_setups, catalog, generate_dataset, NetworkEnvironment};
use iot_sentinel::fingerprint::FingerprintExtractor;
use iot_sentinel::gateway::{NotificationCenter, NotificationState, SideChannel};
use iot_sentinel::ml::{ForestConfig, TreeConfig};
use iot_sentinel::net::{SimDuration, SimTime};
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

#[test]
fn uncontrollable_vulnerable_device_triggers_removal_advisory() {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();

    // Train on a small neighbourhood including the HomeMatic plug —
    // the one catalogue type whose only radio is proprietary RF.
    let selected: Vec<_> = profiles
        .iter()
        .filter(|p| {
            [
                "HomeMaticPlug",
                "HueBridge",
                "Aria",
                "EdimaxCam",
                "WeMoSwitch",
            ]
            .contains(&p.type_name.as_str())
        })
        .cloned()
        .collect();

    // The IoTSSP knows a CVE for the HomeMatic plug.
    let sentinel = SentinelBuilder::new()
        .dataset(generate_dataset(&selected, &env, 8, 3))
        .identifier_config(fast_config())
        .training_seed(11)
        .demo_vulnerabilities()
        .vulnerability(
            "HomeMaticPlug",
            VulnerabilityRecord::new(
                "CVE-DEMO-2016-0009",
                "unauthenticated RF pairing",
                Severity::High,
            ),
        )
        .build()
        .unwrap();

    // The device joins; the gateway identifies it.
    let homematic = selected
        .iter()
        .find(|p| p.type_name == "HomeMaticPlug")
        .unwrap();
    let t0 = SimTime::from_secs(0);
    let capture = capture_setups(homematic, &env, 1, 0x77).remove(0);
    let fingerprint = FingerprintExtractor::extract_from(capture.packets());
    let response = sentinel.handle(&fingerprint);
    assert_eq!(
        sentinel.service().type_name(response.device_type),
        Some("HomeMaticPlug")
    );

    // Vulnerable + uncontrollable channel → isolation is insufficient,
    // escalate to a removal advisory.
    let device_type = response.device_type.unwrap();
    assert!(sentinel
        .service()
        .vulnerabilities()
        .is_vulnerable(device_type));
    assert!(homematic.connectivity.has_uncontrollable_channel());

    let mut center = NotificationCenter::new(SimDuration::from_secs(300));
    let mac = homematic.instance_mac(0);
    let id = center.advise_removal(
        mac,
        sentinel.service().type_name(response.device_type),
        SideChannel::ProprietaryRf,
        t0,
    );
    let advisory = center.get(id).unwrap();
    assert_eq!(advisory.state(), NotificationState::Pending);
    assert!(advisory.message().contains("HomeMaticPlug"));

    // The user acknowledges; the device keeps talking for a while.
    center.acknowledge(id).unwrap();
    center.observe_traffic(mac, t0 + SimDuration::from_secs(100));
    assert!(
        center
            .verify_removals(t0 + SimDuration::from_secs(200))
            .is_empty(),
        "device still present: removal must not verify"
    );

    // The user unplugs it; after the quiet period removal is verified.
    let verified = center.verify_removals(t0 + SimDuration::from_secs(401));
    assert_eq!(verified, vec![id]);
    assert!(center.open().is_empty());
}

#[test]
fn controllable_vulnerable_device_is_confined_not_removed() {
    // A WiFi-only vulnerable device (EdnetCam in the demo DB) is fully
    // controllable by the gateway: restricted isolation applies and no
    // advisory is needed.
    let profiles = catalog::standard_catalog();
    let cam = profiles.iter().find(|p| p.type_name == "EdnetCam").unwrap();
    assert!(!cam.connectivity.has_uncontrollable_channel());

    let mut registry = TypeRegistry::new();
    let vulnerabilities = VulnerabilityDatabase::demo(&mut registry);
    let cam_id = registry.get("EdnetCam").unwrap();
    assert!(vulnerabilities.is_vulnerable(cam_id));
    assert_eq!(
        vulnerabilities.assess(Some(cam_id)),
        IsolationClass::Restricted
    );
}

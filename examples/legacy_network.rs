//! Legacy installation support (§VIII-A): a gateway router receives
//! the Security Gateway firmware update *after* the household's IoT
//! devices were installed. There are no setup conversations to
//! observe, so devices are profiled from **standby traffic**, using
//! models trained on standby observation windows; clean WPS-capable
//! devices are then re-keyed into the trusted overlay with
//! device-specific PSKs, while vulnerable ones are confined.
//!
//! Run with: `cargo run --release --example legacy_network`

use iot_sentinel::devices::{capture_setups, standby, NetworkEnvironment};
use iot_sentinel::fingerprint::FingerprintExtractor;
use iot_sentinel::gateway::{Overlay, OverlayMap, WpsRegistrar};
use iot_sentinel::SentinelBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = NetworkEnvironment::default();

    // The IoTSSP ships models trained on standby observation windows
    // (the §VIII-A profiling mode), not on setup conversations.
    println!("training standby models for 27 device types...");
    let standby_ds = standby::generate_standby_dataset(&env, 12, 404);
    let sentinel = SentinelBuilder::new()
        .dataset(standby_ds)
        .training_seed(404)
        .demo_vulnerabilities()
        .build()?;

    // The legacy household: five devices installed long before the
    // firmware update, some WPS-capable, one with known CVEs.
    let installed: [(&str, bool); 5] = [
        ("HueBridge", true),
        ("WeMoSwitch", true),
        ("EdnetCam", true),         // CVE-DEMO-2016-0002, WPS-capable
        ("EdimaxPlug1101W", false), // CVE-DEMO-2016-0001, no WPS re-keying
        ("Aria", false),
    ];

    let mut wps = WpsRegistrar::new();
    let mut overlays = OverlayMap::new();
    let profiles = standby::standby_catalog();

    println!("\nprofiling legacy devices from standby windows:");
    let mut clean_wps = Vec::new();
    for (idx, (type_name, supports_wps)) in installed.iter().enumerate() {
        let profile = profiles
            .iter()
            .find(|p| p.type_name == *type_name)
            .expect("installed type is in the catalogue");
        let mac = profile.instance_mac(idx as u32);
        wps.register_legacy(mac, *supports_wps);
        // All legacy devices start in the untrusted overlay: the shared
        // network PSK may have leaked through any vulnerable device.
        overlays.assign(mac, Overlay::Untrusted);

        // One standby observation window, anchored at a DHCP renewal.
        let capture = capture_setups(profile, &env, 1, 0xBEEF + idx as u64).remove(0);
        let fp = FingerprintExtractor::extract_from(capture.packets());
        let response = sentinel.handle(&fp);
        println!(
            "  {mac}  {:>16} -> identified {:>16}  isolation {}",
            type_name,
            sentinel
                .service()
                .type_name(response.device_type)
                .unwrap_or("<unknown>"),
            response.isolation
        );
        if response.isolation.in_trusted_overlay() {
            clean_wps.push((mac, *supports_wps, *type_name));
        }
    }

    // Deprecate the (possibly leaked) network PSK: WPS-capable clean
    // devices re-key to device-specific PSKs and move to the trusted
    // overlay; the rest are reported for manual re-introduction.
    println!("\ndeprecating the legacy network PSK...");
    let report = wps.deprecate_network_psk();
    for (mac, supports_wps, type_name) in &clean_wps {
        if *supports_wps {
            let cred = wps.rekey(*mac)?;
            assert!(cred.device_specific);
            overlays.assign(*mac, Overlay::Trusted);
            println!(
                "  {type_name}: re-keyed to device-specific PSK (credential #{}), now TRUSTED",
                cred.id
            );
        } else {
            println!(
                "  {type_name}: no WPS support — stays untrusted until manually re-introduced"
            );
        }
    }
    println!(
        "\noverlay census: {} trusted, {} untrusted",
        overlays.count(Overlay::Trusted),
        overlays.count(Overlay::Untrusted)
    );
    println!(
        "devices needing manual re-introduction: {}",
        report.needs_manual_reintroduction.len()
    );
    println!("\nvulnerable devices remain confined: no path from the untrusted");
    println!("overlay to the re-keyed trusted network, even with the old PSK.");
    Ok(())
}

//! Pcap workflow: capture a device setup to a classic pcap file (the
//! format the paper's dataset was distributed in), read it back, and
//! identify the device from the file alone.
//!
//! Run with: `cargo run --release --example pcap_workflow`

use iot_sentinel::devices::{catalog, NetworkEnvironment, SetupSimulator};
use iot_sentinel::fingerprint::FingerprintExtractor;
use iot_sentinel::net::{CaptureMonitor, SetupDetectorConfig, TraceCapture};
use iot_sentinel::SentinelBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();

    // Record a WeMo switch setup and persist it as pcap bytes (a real
    // deployment would write a .pcap file; we keep it in memory).
    let wemo = profiles
        .iter()
        .find(|p| p.type_name == "WeMoSwitch")
        .unwrap();
    let trace = SetupSimulator::new(env.clone(), 0x9c4).simulate(wemo, 3);
    let mut pcap_bytes = Vec::new();
    trace.to_pcap(&mut pcap_bytes)?;
    println!(
        "captured {} frames -> {} pcap bytes (libpcap classic format)",
        trace.len(),
        pcap_bytes.len()
    );

    // Read the capture back and run the monitoring path on it.
    let replayed = TraceCapture::from_pcap(&pcap_bytes[..])?;
    println!("replayed {} frames from pcap", replayed.len());
    let mut monitor = CaptureMonitor::new(SetupDetectorConfig::default());
    monitor.ignore_mac(env.gateway_mac);
    for frame in replayed.iter() {
        monitor.observe_frame(frame)?;
    }
    let capture = monitor.finish_all().remove(0);
    let fingerprint = FingerprintExtractor::extract_from(capture.packets());
    println!(
        "device {} -> fingerprint with {} packet columns",
        capture.mac(),
        fingerprint.len()
    );

    // Identify against a trained model.
    let sentinel = SentinelBuilder::new()
        .catalog(profiles.clone())
        .environment(env.clone())
        .setups_per_type(10)
        .dataset_seed(2)
        .training_seed(5)
        .build()?;
    let response = sentinel.handle(&fingerprint);
    println!(
        "identified from pcap as: {}",
        sentinel
            .service()
            .type_name(response.device_type)
            .unwrap_or("<unknown>")
    );
    Ok(())
}

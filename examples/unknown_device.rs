//! Unknown-device discovery: a device type absent from the training
//! data is rejected by every classifier and lands in strict isolation;
//! its fingerprints are then used to add the new type incrementally —
//! without retraining any existing classifier (§IV-B-1).
//!
//! Run with: `cargo run --release --example unknown_device`

use iot_sentinel::core::{IdentifierConfig, IsolationClass};
use iot_sentinel::devices::{capture_setups, catalog, generate_dataset, NetworkEnvironment};
use iot_sentinel::fingerprint::FingerprintExtractor;
use iot_sentinel::SentinelBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();

    // Train WITHOUT the HomeMatic plug.
    let known: Vec<_> = profiles
        .iter()
        .filter(|p| p.type_name != "HomeMaticPlug")
        .cloned()
        .collect();
    println!(
        "training on {} of {} types (HomeMaticPlug withheld)",
        known.len(),
        profiles.len()
    );
    // For unknown-device discovery a majority-vote threshold (0.5)
    // works better than the sibling-recall default (0.35): fewer
    // marginal accepts means genuinely novel devices are rejected by
    // every classifier. See the `ablations` bench for the trade-off.
    let config = IdentifierConfig {
        accept_threshold: 0.5,
        ..IdentifierConfig::default()
    };
    let sentinel = SentinelBuilder::new()
        .dataset(generate_dataset(&known, &env, 10, 5))
        .identifier_config(config)
        .training_seed(17)
        .build()?;

    // The withheld device joins the network.
    let homematic = profiles
        .iter()
        .find(|p| p.type_name == "HomeMaticPlug")
        .unwrap();
    let captures = capture_setups(homematic, &env, 6, 0xAB);
    let fingerprints: Vec<_> = captures
        .iter()
        .map(|c| FingerprintExtractor::extract_from(c.packets()))
        .collect();

    // One batch query covers all captured setups.
    let unknown = sentinel
        .handle_batch(&fingerprints)
        .iter()
        .filter(|resp| resp.device_type.is_none())
        .count();
    println!(
        "{unknown}/{} setups of the unseen device were rejected by all {} classifiers",
        fingerprints.len(),
        sentinel.service().identifier().type_count()
    );
    println!("-> the device is assigned isolation level STRICT (no Internet)");
    assert_eq!(
        sentinel.handle(&fingerprints[0]).isolation,
        IsolationClass::Strict
    );

    // The IoTSSP operator labels the new type and adds it
    // incrementally.
    println!("\nadding device type HomeMaticPlug from its captured fingerprints...");
    let new_id = sentinel.add_device_type("HomeMaticPlug", &fingerprints, 23)?;
    println!(
        "identifier now knows {} types ({} interned as {new_id})",
        sentinel.service().identifier().type_count(),
        sentinel.service().registry().name(new_id),
    );

    // A fresh setup of the same device is now recognised.
    let probe = capture_setups(homematic, &env, 1, 0xCD).remove(0);
    let probe_fp = FingerprintExtractor::extract_from(probe.packets());
    let response = sentinel.handle(&probe_fp);
    println!(
        "fresh capture identified as: {}",
        sentinel
            .service()
            .type_name(response.device_type)
            .unwrap_or("<unknown>")
    );
    Ok(())
}

//! Quickstart: build a `Sentinel` on the 27-type catalogue and
//! identify a freshly captured device setup.
//!
//! Run with: `cargo run --release --example quickstart`

use iot_sentinel::devices::{capture_setups, catalog, NetworkEnvironment};
use iot_sentinel::fingerprint::FingerprintExtractor;
use iot_sentinel::SentinelBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();

    // One builder call wires the whole pipeline: simulate 10 setups per
    // type, train one Random Forest per type, load the demo CVE
    // database — all keyed through one shared TypeRegistry.
    println!(
        "building Sentinel: {} types x 10 setups, demo vulnerability DB...",
        profiles.len()
    );
    let sentinel = SentinelBuilder::new()
        .catalog(profiles.clone())
        .environment(env.clone())
        .setups_per_type(10)
        .dataset_seed(1)
        .training_seed(42)
        .demo_vulnerabilities()
        .build()?;
    println!(
        "identifier knows {} device types",
        sentinel.service().identifier().type_count()
    );

    // A new HueBridge is set up (a capture run the trainer never saw).
    let hue = profiles
        .iter()
        .find(|p| p.type_name == "HueBridge")
        .expect("catalogue has a HueBridge");
    let capture = capture_setups(hue, &env, 1, 0xFEED).remove(0);
    println!(
        "\nnew device {} sent {} packets during setup",
        capture.mac(),
        capture.packets().len()
    );

    let fingerprint = FingerprintExtractor::extract_from(capture.packets());
    println!(
        "fingerprint: {} packet columns, F' = 276 features",
        fingerprint.len()
    );

    // One query: interned TypeId + isolation class out, no per-query
    // string allocation; the name is borrowed from the registry.
    let response = sentinel.handle(&fingerprint);
    match sentinel.service().type_name(response.device_type) {
        Some(name) => println!("identified as: {name} (isolation {})", response.isolation),
        None => println!("unknown device type (isolation {})", response.isolation),
    }
    if response.needed_discrimination {
        println!("(edit-distance discrimination was needed)");
    }

    // The same service handles whole batches — one call per gateway
    // sync instead of one per device.
    let batch: Vec<_> = capture_setups(hue, &env, 4, 0xBEAD)
        .iter()
        .map(|c| FingerprintExtractor::extract_from(c.packets()))
        .collect();
    let responses = sentinel.handle_batch(&batch);
    println!(
        "\nbatch of {}: {} identified as HueBridge",
        responses.len(),
        responses
            .iter()
            .filter(|r| sentinel.service().type_name(r.device_type) == Some("HueBridge"))
            .count()
    );
    Ok(())
}

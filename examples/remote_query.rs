//! Remote identification over the sentinel-serve wire protocol.
//!
//! The paper's deployment (§IV) separates Security Gateways from a
//! central IoT Security Service. This example runs both halves in one
//! process, connected by a real TCP socket on loopback: a `Sentinel`
//! serves its trained models, and a `SentinelClient` plays the gateway
//! querying setup fingerprints over the network.
//!
//! Run with: `cargo run --example remote_query`

use iot_sentinel::devices::{catalog, generate_dataset, NetworkEnvironment};
use iot_sentinel::fingerprint::Fingerprint;
use iot_sentinel::serve::{ClientConfig, SentinelClient, ServerConfig};
use iot_sentinel::SentinelBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- the IoT Security Service side -----------------------------
    let profiles: Vec<_> = catalog::standard_catalog().into_iter().take(6).collect();
    println!("training on {} device types...", profiles.len());
    let sentinel = SentinelBuilder::new()
        .catalog(profiles.clone())
        .setups_per_type(10)
        .demo_vulnerabilities()
        .build()?;

    // Port 0: the OS picks a free ephemeral port.
    let handle = sentinel.serve("127.0.0.1:0", ServerConfig::default())?;
    println!("IoT Security Service listening on {}", handle.local_addr());

    // ---- the Security Gateway side ---------------------------------
    // Fresh setup captures the service has never seen (different seed).
    let env = NetworkEnvironment::default();
    let eval = generate_dataset(&profiles, &env, 1, 777);
    let probes: Vec<(String, Fingerprint)> = eval
        .iter()
        .map(|sample| (sample.label().to_string(), sample.fingerprint().clone()))
        .collect();

    let mut client = SentinelClient::connect(
        handle.local_addr(),
        ClientConfig {
            resolve_names: true,
            ..ClientConfig::default()
        },
    )?;
    client.ping()?;
    println!("gateway connected from {}", client.peer_addr());

    let batch: Vec<Fingerprint> = probes.iter().map(|(_, fp)| fp.clone()).collect();
    let results = client.query_batch(&batch)?;
    println!("\n{:<22} {:<22} isolation", "actual type", "identified as");
    let mut correct = 0usize;
    for ((actual, _), result) in probes.iter().zip(&results) {
        let identified = result.name.as_deref().unwrap_or("<unknown>");
        if identified == actual {
            correct += 1;
        }
        println!(
            "{actual:<22} {identified:<22} {}",
            result.response.isolation
        );
    }
    println!(
        "\n{correct}/{} identified correctly over the wire",
        probes.len()
    );

    let stats = handle.shutdown();
    println!(
        "server served {} frames / {} queries over {} connection(s)",
        stats.frames_served, stats.queries_answered, stats.connections_accepted
    );
    Ok(())
}

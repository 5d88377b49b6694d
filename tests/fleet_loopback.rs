//! End-to-end acceptance for the fleet simulator: the simulation half
//! must be a pure function of (seed, config) — bit-identical traces on
//! replay — and the drive half must push a ~200-device fleet (churn,
//! standby, one hot reload under fire) through a live loopback server
//! with zero protocol errors and zero failed queries.

use std::time::Duration;

use iot_sentinel::fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
use iot_sentinel::fleet::{
    simulate, DriveConfig, FingerprintPool, FleetConfig, FleetReport, LinkConfig, Pacing,
    ReloadHook,
};
use iot_sentinel::serve::{ClientConfig, ServerConfig};
use iot_sentinel::{Sentinel, SentinelBuilder};

fn fp_bits(bits: u32, tags: &[u32]) -> Fingerprint {
    Fingerprint::from_columns(
        tags.iter()
            .map(|t| {
                let mut v = [0u32; 23];
                for (b, slot) in v.iter_mut().enumerate().take(12) {
                    *slot = (bits >> b) & 1;
                }
                v[18] = *t;
                PacketFeatures::from_raw(v)
            })
            .collect(),
    )
}

/// A tiny 3-type corpus: fast to train, enough label diversity that
/// the fleet's catalog mix exercises distinct classifier paths.
fn tiny_dataset() -> Dataset {
    let mut ds = Dataset::new();
    for i in 0..12u32 {
        ds.push(LabeledFingerprint::new(
            "AlphaCam",
            fp_bits(0b001, &[100 + i, 110, 120]),
        ));
        ds.push(LabeledFingerprint::new(
            "BetaPlug",
            fp_bits(0b010, &[100 + i, 110, 120]),
        ));
        ds.push(LabeledFingerprint::new(
            "GammaHub",
            fp_bits(0b100, &[100 + i, 110, 120]),
        ));
    }
    ds
}

fn tiny_sentinel() -> Sentinel {
    SentinelBuilder::new()
        .dataset(tiny_dataset())
        .training_seed(4)
        .build()
        .unwrap()
}

/// A fleet config sized for CI: ~200 devices over a short virtual
/// horizon with every lifecycle phase reachable — setup bursts,
/// steady re-fingerprints, standby naps, churn with replacement.
fn smoke_config(seed: u64) -> FleetConfig {
    FleetConfig {
        devices: 200,
        seed,
        duration: Duration::from_secs(8),
        ramp: Duration::from_secs(1),
        setup_queries_min: 2,
        setup_queries_max: 5,
        setup_gap_min: Duration::from_millis(50),
        setup_gap_max: Duration::from_millis(300),
        steady_min: Duration::from_millis(800),
        steady_max: Duration::from_secs(2),
        standby_probability: 0.2,
        standby_duration: Duration::from_secs(1),
        churn_lifetime: Some(Duration::from_secs(4)),
        replacement_delay: Duration::from_millis(400),
        reload_at: Some(Duration::from_secs(3)),
        link: LinkConfig {
            min_gap: Duration::from_millis(5),
            ..LinkConfig::default()
        },
    }
}

#[test]
fn same_seed_yields_a_bit_identical_trace() {
    let pool = FingerprintPool::from_dataset(&tiny_dataset());
    let config = smoke_config(42);

    let first = simulate(&config, pool.types());
    let second = simulate(&config, pool.types());
    assert_eq!(first.events, second.events, "event traces diverged");
    assert_eq!(first.summary, second.summary, "summaries diverged");
    assert_eq!(first.digest(), second.digest(), "digests diverged");

    // And the digest is actually sensitive to the seed.
    let other = simulate(&smoke_config(43), pool.types());
    assert_ne!(first.digest(), other.digest(), "seed had no effect");
}

#[test]
fn loopback_fleet_survives_churn_and_a_reload_with_zero_errors() {
    let pool = FingerprintPool::from_dataset(&tiny_dataset());
    let config = smoke_config(42);
    let trace = simulate(&config, pool.types());
    // The scenario must actually contain the phases it claims to test.
    assert!(trace.summary.churned > 0, "no churn in {:?}", trace.summary);
    assert!(
        trace.summary.replacements > 0,
        "no replacements in {:?}",
        trace.summary
    );
    assert!(
        trace.summary.queries > 200,
        "thin trace: {:?}",
        trace.summary
    );

    let s = tiny_sentinel();
    let handle = s
        .serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
    let addr = handle.local_addr().to_string();

    // The reload hook republishes the current model in-process — a
    // registry-compatible swap that bumps the serving epoch to 2.
    let hook: ReloadHook<'_> = Box::new(|| {
        let current = s.service().identifier().clone();
        s.service_cell()
            .replace_identifier(current)
            .map_err(|e| e.to_string())
    });

    let drive_config = DriveConfig {
        connections: 3,
        pacing: Pacing::Uncapped,
        client: ClientConfig {
            retry_jitter_seed: config.seed,
            ..ClientConfig::default()
        },
    };
    let outcome = iot_sentinel::fleet::drive(&trace, &pool, &addr, &drive_config, Some(hook))
        .expect("drive fleet");

    assert_eq!(outcome.errors, 0, "fleet saw query errors");
    assert_eq!(outcome.responses_ok, outcome.queries_sent, "lost responses");
    assert_eq!(
        outcome.queries_sent, trace.summary.queries,
        "driver dropped planned queries"
    );
    assert!(outcome.latency.count() > 0, "no latencies recorded");

    let reload = outcome.reload.as_ref().expect("reload outcome missing");
    assert_eq!(reload.epoch, 2, "unexpected post-reload epoch");
    assert_eq!(reload.stale_responses, 0, "stale epochs after reload ack");
    assert!(
        reload.connections_observed > 0,
        "no connection observed the new epoch"
    );

    let report = FleetReport::compose(&config, &trace, &outcome);
    assert_eq!(report.trace_digest, trace.digest());
    assert_eq!(report.errors, 0);
    assert_eq!(report.reload_epoch, Some(2));
    assert_eq!(report.sim, trace.summary);

    let stats = handle.shutdown();
    assert_eq!(stats.protocol_errors, 0, "stats: {stats:?}");
    assert_eq!(stats.worker_panics, 0, "stats: {stats:?}");
    assert_eq!(stats.reloads, 1, "stats: {stats:?}");
    assert_eq!(
        stats.queries_answered, outcome.responses_ok,
        "server and driver disagree on answered queries"
    );
}

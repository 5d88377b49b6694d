//! Chaos acceptance over loopback: a seeded fault plan must be
//! bit-reproducible (pinned digest), and a full soak — attacker
//! connections injecting stalls/truncations/hangups concurrently with
//! a fleet replay, scheduled compute-pool panics, and a hot reload
//! under fire — must leave a live server whose books reconcile
//! exactly: every request answered or typed-shed, faults counted to
//! the unit, zero epoch regressions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use iot_sentinel::chaos::{self, ChaosConfig, FaultPlan, RegistrySlot};
use iot_sentinel::fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
use iot_sentinel::fleet::{
    simulate, DriveConfig, FingerprintPool, FleetConfig, LinkConfig, Pacing, ReloadHook,
};
use iot_sentinel::obs::Counter;
use iot_sentinel::serve::{ClientConfig, SentinelClient, ServerConfig};
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

/// The exact plan shape `sentinel fleet --chaos` runs, so the pinned
/// digest below also pins the CLI soak's schedule.
fn cli_chaos_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        connections: 6,
        panic_every: 20,
        panics: 3,
        ..ChaosConfig::default()
    }
}

#[test]
fn same_seed_reproduces_the_same_fault_plan_bit_for_bit() {
    let first = FaultPlan::generate(&cli_chaos_config(99));
    let second = FaultPlan::generate(&cli_chaos_config(99));
    assert_eq!(first, second, "plans diverged under one seed");
    assert_eq!(first.digest(), second.digest());

    let other = FaultPlan::generate(&cli_chaos_config(100));
    assert_ne!(first.digest(), other.digest(), "seed had no effect");

    // Pinned: the schedule is part of the compatibility surface — a
    // failing soak is replayed by seed, so generation must never
    // silently change shape. Regenerate deliberately if the plan
    // format changes, and say so in the changelog.
    assert_eq!(
        first.digest(),
        0x747b_5c84_49df_67a6,
        "seed-99 CLI plan digest drifted"
    );
    assert_eq!(first.panic_queries, vec![20, 40, 60]);
}

#[test]
fn chaos_soak_contains_every_fault_and_reconciles_exactly() {
    // A fleet trace big enough that all three scheduled panics (query
    // batches 20/40/60) fire well inside the run.
    let pool = FingerprintPool::from_dataset(&tiny_dataset());
    let fleet_config = FleetConfig {
        devices: 150,
        seed: 21,
        duration: Duration::from_secs(6),
        ramp: Duration::from_secs(1),
        setup_queries_min: 2,
        setup_queries_max: 5,
        setup_gap_min: Duration::from_millis(50),
        setup_gap_max: Duration::from_millis(300),
        steady_min: Duration::from_millis(800),
        steady_max: Duration::from_secs(2),
        standby_probability: 0.2,
        standby_duration: Duration::from_secs(1),
        churn_lifetime: Some(Duration::from_secs(3)),
        replacement_delay: Duration::from_millis(400),
        reload_at: Some(Duration::from_secs(2)),
        link: LinkConfig {
            min_gap: Duration::from_millis(5),
            ..LinkConfig::default()
        },
    };
    let trace = simulate(&fleet_config, pool.types());
    assert!(
        trace.summary.queries > 200,
        "thin trace: {:?}",
        trace.summary
    );

    let plan = FaultPlan::generate(&cli_chaos_config(99));
    let scheduled_panics = plan.panic_queries.len() as u64;
    let slot = RegistrySlot::new();
    let s = tiny_sentinel();
    let handle = s
        .serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 6,
                io_timeout: Duration::from_secs(5),
                max_inflight: 2,
                queue_deadline: Duration::from_millis(25),
                fault_injection: Some(chaos::query_panic_hook(&plan, slot.clone())),
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
    let addr = handle.local_addr().to_string();
    let registry = Arc::clone(handle.metrics());
    slot.bind(Arc::clone(&registry));

    // Attacker connections run *concurrently* with the fleet replay
    // and the mid-run reload: stalls, truncated frames and hangups
    // land while real work is in flight.
    let injector = {
        let plan = plan.clone();
        let addr = addr.clone();
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || chaos::inject(addr.as_str(), &plan, Some(&registry)))
    };

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
            retry_jitter_seed: fleet_config.seed,
            ..ClientConfig::default()
        },
    };
    let outcome = iot_sentinel::fleet::drive(&trace, &pool, &addr, &drive_config, Some(hook))
        .expect("drive fleet under chaos");
    let injected = injector
        .join()
        .expect("injector thread")
        .expect("injector I/O");

    // The injector executed its whole plan (loopback never broke a
    // connection early), so the planned and applied fault counts agree.
    assert_eq!(injected.faults(), plan.frame_faults());
    assert_eq!(injected.connections, plan.connections.len() as u64);

    // Drain: client teardown races server bookkeeping by milliseconds.
    let deadline = Instant::now() + Duration::from_secs(10);
    while registry.get(Counter::ConnectionsActive) != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        registry.get(Counter::ConnectionsActive),
        0,
        "connections leaked"
    );

    let worker_panics = registry.get(Counter::WorkerPanics);
    assert_eq!(
        worker_panics, scheduled_panics,
        "every scheduled panic fires exactly once, and nothing else panics"
    );

    // Accounting closes to the unit. Driver side: every planned query
    // was sent, and every sent query was either answered or is
    // explained by a typed shed or a scheduled-panic casualty.
    assert_eq!(outcome.queries_sent, trace.summary.queries);
    assert_eq!(
        outcome.errors,
        outcome.shed + worker_panics,
        "an error that is neither a typed shed nor a scheduled panic"
    );
    assert_eq!(outcome.responses_ok + outcome.errors, outcome.queries_sent);

    // Server side: fault books reconcile against the injector's own
    // report, and abuse cost exactly what the fault model promises —
    // one protocol error per truncated frame, zero for stalls and
    // clean hangups.
    assert_eq!(
        registry.get(Counter::FaultsInjected),
        injected.faults() + worker_panics
    );
    assert_eq!(registry.get(Counter::ProtocolErrors), injected.truncates);
    assert_eq!(registry.get(Counter::QueriesAnswered), outcome.responses_ok);
    assert_eq!(
        registry.get(Counter::QueriesShed),
        outcome.shed + outcome.overload_retries,
        "every shed frame was a 1-fingerprint batch: retried sheds plus surfaced sheds"
    );

    // Reload under fire still advanced the epoch cleanly.
    let reload = outcome.reload.as_ref().expect("reload outcome missing");
    assert_eq!(reload.epoch, 2, "reload under chaos must advance the epoch");
    assert_eq!(reload.stale_responses, 0, "epoch regressions");

    // And the server is still alive for the next client.
    let mut probe_client =
        SentinelClient::connect(addr.as_str(), ClientConfig::default()).expect("post-soak connect");
    probe_client.ping().expect("post-soak ping");
    let probe = fp_bits(0b001, &[101, 110, 120]);
    let answers = probe_client
        .query_batch(std::slice::from_ref(&probe))
        .expect("post-soak query");
    assert_eq!(answers.len(), 1);
    drop(probe_client);

    let stats = handle.shutdown();
    assert_eq!(stats.worker_panics, worker_panics, "stats: {stats:?}");
}

#[test]
fn rerunning_the_same_soak_seed_injects_the_same_faults() {
    // The injector's applied-fault counts are a pure function of the
    // plan: two servers, one seed, identical reports.
    let plan = FaultPlan::generate(&cli_chaos_config(5));
    let mut reports = Vec::new();
    for _ in 0..2 {
        let s = tiny_sentinel();
        let handle = s
            .serve(
                "127.0.0.1:0",
                ServerConfig {
                    workers: 2,
                    ..ServerConfig::default()
                },
            )
            .expect("bind loopback server");
        let addr = handle.local_addr().to_string();
        let report = chaos::inject(addr.as_str(), &plan, Some(handle.metrics()))
            .expect("inject against live server");
        assert_eq!(
            handle.metrics().get(Counter::FaultsInjected),
            report.faults()
        );
        assert_eq!(
            handle.metrics().get(Counter::ProtocolErrors),
            report.truncates,
            "truncates cost exactly one protocol error each"
        );
        handle.shutdown();
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "same seed, same injected faults");
    assert_eq!(reports[0].faults(), plan.frame_faults());
}

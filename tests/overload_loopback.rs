//! Overload acceptance over loopback: when offered load exceeds the
//! server's in-flight work budget, accepted queries stay correct,
//! shed queries get the typed retryable `Overloaded` answer on a
//! connection that stays usable, the shed/overload counters reconcile
//! exactly, and the client's seeded backoff turns a shed answer into
//! an eventual success. The reload-hardening half lives here too: the
//! admin token bucket refuses with `Overloaded`, and a reload task
//! that panics mid-validation rolls back to the previous epoch with a
//! typed `ReloadRejected` answer instead of a dead connection.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use iot_sentinel::core::persist;
use iot_sentinel::fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
use iot_sentinel::obs::Counter;
use iot_sentinel::serve::{
    ClientConfig, ClientError, ErrorCode, ReloadRate, SentinelClient, ServerConfig,
};
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

/// Waits until `ready()` holds or panics after a CI-sized grace.
fn settle(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A server whose compute path can be wedged on demand: query requests
/// with `resolve_names` set spin inside their pool task while `block`
/// stays raised, holding their in-flight permit — which is exactly the
/// saturated-pool shape admission control exists for.
fn blockable_config(block: &Arc<AtomicBool>, entered: &Arc<AtomicU64>) -> ServerConfig {
    let block = Arc::clone(block);
    let entered = Arc::clone(entered);
    ServerConfig {
        workers: 4,
        io_timeout: Duration::from_secs(5),
        max_inflight: 1,
        queue_deadline: Duration::ZERO,
        fault_injection: Some(Arc::new(move |request| {
            if request.resolve_names {
                entered.fetch_add(1, Ordering::SeqCst);
                while block.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        })),
        ..ServerConfig::default()
    }
}

fn victim_config(overload_retries: u32) -> ClientConfig {
    ClientConfig {
        overload_retries,
        retry_delay: Duration::from_millis(10),
        max_retry_delay: Duration::from_millis(40),
        retry_jitter_seed: 7,
        ..ClientConfig::default()
    }
}

#[test]
fn full_budget_sheds_with_typed_retryable_error_and_exact_counters() {
    let block = Arc::new(AtomicBool::new(true));
    let entered = Arc::new(AtomicU64::new(0));
    let s = tiny_sentinel();
    let handle = s
        .serve("127.0.0.1:0", blockable_config(&block, &entered))
        .expect("bind loopback server");
    let addr = handle.local_addr().to_string();
    let registry = Arc::clone(handle.metrics());

    // The blocker takes the single permit and wedges inside its pool
    // task until released.
    let blocker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = SentinelClient::connect(
                addr.as_str(),
                ClientConfig {
                    resolve_names: true,
                    ..victim_config(0)
                },
            )
            .expect("blocker connect");
            let probe = fp_bits(0b001, &[101, 110, 120]);
            client.query_batch(std::slice::from_ref(&probe))
        })
    };
    settle("blocker to wedge in its pool task", || {
        entered.load(Ordering::SeqCst) >= 1
    });

    // With the budget full and a zero queue deadline, the victim's
    // queries shed immediately with the retryable typed error — and
    // the connection survives to be used again.
    let mut victim =
        SentinelClient::connect(addr.as_str(), victim_config(0)).expect("victim connect");
    let single = fp_bits(0b010, &[102, 110, 120]);
    let error = victim
        .query_batch(std::slice::from_ref(&single))
        .expect_err("budget is full: the single query must shed");
    match &error {
        ClientError::Server { code, message } => {
            assert_eq!(*code, ErrorCode::Overloaded, "unexpected code: {message}");
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    assert!(error.is_retryable(), "Overloaded must classify retryable");

    // A shed batch of 3 counts 3 fingerprints and 1 rejection: the
    // counters distinguish refused work items from refused frames.
    let batch = vec![
        fp_bits(0b001, &[103, 110, 120]),
        fp_bits(0b010, &[104, 110, 120]),
        fp_bits(0b100, &[105, 110, 120]),
    ];
    let error = victim
        .query_batch(&batch)
        .expect_err("budget is full: the batch must shed");
    assert!(error.is_retryable(), "batch shed must be retryable too");
    assert_eq!(registry.get(Counter::QueriesShed), 4, "1 + 3 fingerprints");
    assert_eq!(registry.get(Counter::OverloadRejections), 2, "two frames");

    // Shed answers leave the connection healthy: same socket, no
    // reconnect, and once capacity frees the same query succeeds and
    // is answered correctly.
    victim.ping().expect("shed connection must stay usable");
    block.store(false, Ordering::SeqCst);
    blocker
        .join()
        .expect("blocker thread")
        .expect("blocker query succeeds once released");
    settle("the blocker's permit to free", || {
        registry.get(Counter::QueriesShed) == 4
    });
    let answers = victim
        .query_batch(std::slice::from_ref(&single))
        .expect("query succeeds once capacity freed");
    assert_eq!(answers.len(), 1);

    let stats = handle.shutdown();
    assert_eq!(stats.worker_panics, 0, "stats: {stats:?}");
    assert_eq!(
        stats.protocol_errors, 0,
        "shed frames are not protocol errors"
    );
    // Every fingerprint was either answered or shed — none vanished.
    assert_eq!(
        stats.queries_answered, 2,
        "blocker's 1 + victim's retried 1"
    );
}

#[test]
fn client_backoff_turns_shed_into_success() {
    let block = Arc::new(AtomicBool::new(true));
    let entered = Arc::new(AtomicU64::new(0));
    let s = tiny_sentinel();
    let handle = s
        .serve("127.0.0.1:0", blockable_config(&block, &entered))
        .expect("bind loopback server");
    let addr = handle.local_addr().to_string();
    let registry = Arc::clone(handle.metrics());

    let blocker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = SentinelClient::connect(
                addr.as_str(),
                ClientConfig {
                    resolve_names: true,
                    ..victim_config(0)
                },
            )
            .expect("blocker connect");
            let probe = fp_bits(0b001, &[101, 110, 120]);
            client.query_batch(std::slice::from_ref(&probe))
        })
    };
    settle("blocker to wedge in its pool task", || {
        entered.load(Ordering::SeqCst) >= 1
    });

    // The victim retries its seeded backoff schedule; we free the
    // budget once the server has demonstrably shed at least one of its
    // attempts, so success must arrive *through* the retry loop.
    let victim = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client =
                SentinelClient::connect(addr.as_str(), victim_config(8)).expect("victim connect");
            let probe = fp_bits(0b010, &[102, 110, 120]);
            let answers = client
                .query_batch(std::slice::from_ref(&probe))
                .expect("retries must eventually land the query");
            (answers.len(), client.stats().overload_retries)
        })
    };
    settle("at least one shed attempt", || {
        registry.get(Counter::OverloadRejections) >= 1
    });
    block.store(false, Ordering::SeqCst);
    blocker
        .join()
        .expect("blocker thread")
        .expect("blocker query succeeds once released");

    let (answered, retries) = victim.join().expect("victim thread");
    assert_eq!(answered, 1);
    assert!(retries >= 1, "success must have come via the retry loop");
    let shed = registry.get(Counter::QueriesShed);
    assert!(shed >= 1, "server must have shed at least one attempt");
    // Reconciliation: every shed attempt was a whole 1-fingerprint
    // frame, so the two counters move in lockstep.
    assert_eq!(shed, registry.get(Counter::OverloadRejections));
    handle.shutdown();
}

#[test]
fn reload_rate_limit_refuses_with_retryable_overloaded() {
    let s = tiny_sentinel();
    let mut model = Vec::new();
    persist::write_identifier(&mut model, s.service().identifier()).expect("persist model");
    let handle = s
        .serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                admin: true,
                reload_rate: Some(ReloadRate {
                    burst: 1,
                    refill_per_sec: 0.0,
                }),
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
    let registry = Arc::clone(handle.metrics());

    let mut client = SentinelClient::connect(handle.local_addr(), ClientConfig::default())
        .expect("admin connect");
    let ack = client
        .reload(model.clone())
        .expect("first reload fits the burst");
    assert_eq!(ack.epoch, 2);

    // The bucket never refills: the second reload must be refused with
    // the retryable code, audited, and must NOT advance the epoch or
    // burn the connection.
    let error = client
        .reload(model.clone())
        .expect_err("second reload must trip the rate limit");
    match &error {
        ClientError::Server { code, message } => {
            assert_eq!(*code, ErrorCode::Overloaded, "unexpected code: {message}");
            assert!(message.contains("rate limit"), "message: {message}");
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    assert!(error.is_retryable());
    assert_eq!(registry.get(Counter::ReloadsRateLimited), 1);
    assert_eq!(registry.get(Counter::OverloadRejections), 1);
    let snapshot = handle.metrics_snapshot();
    assert_eq!(
        snapshot.counter(Counter::Reloads),
        1,
        "only the first landed"
    );
    assert_eq!(snapshot.epoch, 2, "epoch must not move");

    client.ping().expect("rate-limited connection stays usable");
    let probe = fp_bits(0b001, &[101, 110, 120]);
    let answers = client
        .query_batch(std::slice::from_ref(&probe))
        .expect("queries unaffected by the reload refusal");
    assert_eq!(answers.len(), 1);
    handle.shutdown();
}

#[test]
fn reload_panic_rolls_back_and_answers_typed_rejection() {
    let fail_once = Arc::new(AtomicBool::new(true));
    let s = tiny_sentinel();
    let mut model = Vec::new();
    persist::write_identifier(&mut model, s.service().identifier()).expect("persist model");
    let hook_flag = Arc::clone(&fail_once);
    let handle = s
        .serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                admin: true,
                reload_fault_injection: Some(Arc::new(move |_payload| {
                    if hook_flag.swap(false, Ordering::SeqCst) {
                        panic!("injected reload fault");
                    }
                })),
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback server");
    let registry = Arc::clone(handle.metrics());

    let mut client = SentinelClient::connect(handle.local_addr(), ClientConfig::default())
        .expect("admin connect");

    // The panicking reload must cost nothing but a typed answer: the
    // previous epoch keeps serving (rollback), the connection thread
    // survives, and the audit counter records exactly one rollback.
    let error = client
        .reload(model.clone())
        .expect_err("hooked reload must fail");
    match &error {
        ClientError::Server { code, message } => {
            assert_eq!(*code, ErrorCode::ReloadRejected, "message: {message}");
            assert!(message.contains("panicked"), "message: {message}");
            assert!(
                message.contains("previous epoch kept"),
                "message: {message}"
            );
        }
        other => panic!("expected a typed server error, got {other:?}"),
    }
    let snapshot = handle.metrics_snapshot();
    assert_eq!(snapshot.epoch, 1, "epoch must not move");
    assert_eq!(registry.get(Counter::ReloadRollbacks), 1);
    assert_eq!(snapshot.counter(Counter::Reloads), 0);

    // Same connection, second attempt (hook now disarmed): the swap
    // completes — containment cost one answer, not the service.
    let ack = client.reload(model).expect("clean reload succeeds");
    assert_eq!(ack.epoch, 2);
    assert_eq!(handle.metrics_snapshot().counter(Counter::Reloads), 1);
    let probe = fp_bits(0b001, &[101, 110, 120]);
    let answers = client
        .query_batch(std::slice::from_ref(&probe))
        .expect("post-rollback queries work");
    assert_eq!(answers.len(), 1);

    let stats = handle.shutdown();
    assert_eq!(stats.worker_panics, 0, "rollback is not a worker panic");
}

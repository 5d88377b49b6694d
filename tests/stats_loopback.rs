//! End-to-end acceptance for the observability layer: a live server
//! polled with `Stats` frames while query traffic and a hot reload are
//! in flight must answer every poll (never an error), every snapshot
//! must be internally consistent, and per-metric counts must be
//! monotone from poll to poll. Once traffic drains, the final snapshot
//! must reconcile exactly with what the clients sent: stage histogram
//! counts equal to query frames served, one reload, epoch two.
//!
//! Consistency here is deliberately *per metric*: the registry uses
//! relaxed atomics, so cross-metric equalities (e.g. decode count ==
//! frame count) only hold at quiescence — mid-flight polls assert
//! monotonicity and summary sanity instead.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use iot_sentinel::fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
use iot_sentinel::obs::{Counter, HistogramSummary, MetricsSnapshot, Stage};
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

fn sentinel() -> Sentinel {
    let mut ds = Dataset::new();
    for i in 0..12u32 {
        ds.push(LabeledFingerprint::new(
            "TypeA",
            fp_bits(0b001, &[100 + i, 110, 120]),
        ));
        ds.push(LabeledFingerprint::new(
            "TypeB",
            fp_bits(0b010, &[100 + i, 110, 120]),
        ));
    }
    SentinelBuilder::new()
        .dataset(ds)
        .training_seed(4)
        .build()
        .expect("train")
}

/// Counters that must never decrease between successive snapshots:
/// everything except the active-connections gauge and the per-model
/// scan counters, which reset when a reload installs a fresh bank.
fn monotone_counters() -> impl Iterator<Item = Counter> {
    Counter::ALL.into_iter().filter(|c| c.is_monotone())
}

/// Per-snapshot invariants that hold even mid-flight.
fn assert_snapshot_sane(snapshot: &MetricsSnapshot) {
    for stage in Stage::ALL {
        let Some(summary) = snapshot.stage(stage) else {
            continue;
        };
        if summary.count == 0 {
            assert_eq!(
                *summary,
                HistogramSummary::default(),
                "an empty {} summary must be all zeros",
                stage.name()
            );
            continue;
        }
        // Quantiles of one histogram are ordered by construction; the
        // relaxed min/max cells are excluded mid-flight (they can lag
        // the bucket counts by an update).
        assert!(
            summary.p50_ns <= summary.p90_ns
                && summary.p90_ns <= summary.p99_ns
                && summary.p99_ns <= summary.p999_ns,
            "stage {} quantiles out of order: {summary:?}",
            stage.name()
        );
    }
    // The epoch only ever moves 1 -> 2 in this test.
    assert!(
        snapshot.epoch == 1 || snapshot.epoch == 2,
        "unexpected epoch {}",
        snapshot.epoch
    );
    assert!(snapshot.counter(Counter::Reloads) <= 1);
    assert_eq!(snapshot.counter(Counter::WorkerPanics), 0);
    assert_eq!(snapshot.counter(Counter::ProtocolErrors), 0);
}

/// Every monotone counter and every stage count moved forward (or held).
fn assert_monotone(prev: &MetricsSnapshot, next: &MetricsSnapshot) {
    assert!(
        prev.epoch <= next.epoch,
        "epoch regressed: {} -> {}",
        prev.epoch,
        next.epoch
    );
    for counter in monotone_counters() {
        assert!(
            prev.counter(counter) <= next.counter(counter),
            "counter {} regressed: {} -> {}",
            counter.name(),
            prev.counter(counter),
            next.counter(counter)
        );
    }
    for stage in Stage::ALL {
        let before = prev.stage(stage).map_or(0, |s| s.count);
        let after = next.stage(stage).map_or(0, |s| s.count);
        assert!(
            before <= after,
            "stage {} count regressed: {before} -> {after}",
            stage.name()
        );
    }
}

#[test]
fn stats_polls_stay_consistent_under_fire_and_reload() {
    let s = sentinel();
    let handle = s
        .serve(
            "127.0.0.1:0",
            ServerConfig {
                workers: 6,
                ..ServerConfig::default()
            },
        )
        .expect("bind");
    let addr = handle.local_addr();
    let stop = AtomicBool::new(false);
    let batch: Vec<Fingerprint> = vec![
        fp_bits(0b001, &[104, 110, 120]),
        fp_bits(0b010, &[105, 110, 120]),
        fp_bits(0b1000, &[903, 910, 920]),
    ];

    let (query_frames_sent, polls) = std::thread::scope(|scope| {
        // Three query clients hammer batches until told to stop.
        let workers: Vec<_> = (0..3usize)
            .map(|id| {
                let batch = &batch;
                let stop = &stop;
                scope.spawn(move || {
                    let mut client = SentinelClient::connect(addr, ClientConfig::default())
                        .unwrap_or_else(|e| panic!("query client {id}: {e}"));
                    let mut frames = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        client
                            .query_batch(batch)
                            .unwrap_or_else(|e| panic!("query client {id} errored: {e}"));
                        frames += 1;
                    }
                    frames
                })
            })
            .collect();

        // One poller reads Stats frames the whole time. Every poll must
        // succeed, parse, and extend the previous snapshot.
        let poller = scope.spawn(|| {
            let mut client =
                SentinelClient::connect(addr, ClientConfig::default()).expect("stats client");
            let mut prev: Option<MetricsSnapshot> = None;
            let mut polls = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snapshot = client.server_stats().expect("stats poll mid-fire");
                assert_snapshot_sane(&snapshot);
                if let Some(prev) = &prev {
                    assert_monotone(prev, &snapshot);
                }
                prev = Some(snapshot);
                polls += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            polls
        });

        // Let traffic and polling overlap, then reload under fire.
        std::thread::sleep(Duration::from_millis(80));
        let new_fps: Vec<Fingerprint> = (0..10)
            .map(|i| fp_bits(0b1000, &[900 + i, 910, 920]))
            .collect();
        s.add_device_type("HotType", &new_fps, 9)
            .expect("incremental training");
        assert_eq!(s.service().epoch(), 2, "the edit is the reload under fire");
        std::thread::sleep(Duration::from_millis(80));

        stop.store(true, Ordering::Release);
        let sent: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        (sent, poller.join().expect("poller"))
    });
    assert!(query_frames_sent > 0, "no query traffic was generated");
    assert!(polls > 0, "no stats polls completed");

    // Quiescence: all clients joined, so every sent frame is answered
    // and counted. The counting happens just *after* the response is
    // written, so give the workers a beat to land the last increments
    // before asserting exact equalities.
    let expected_queries = query_frames_sent * batch.len() as u64;
    for _ in 0..1_000 {
        if handle.metrics().get(Counter::QueriesAnswered) == expected_queries {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let last = {
        let mut client = SentinelClient::connect(addr, ClientConfig::default()).expect("connect");
        client.server_stats().expect("final stats poll")
    };
    assert_eq!(last.epoch, 2);
    assert_eq!(last.counter(Counter::Reloads), 1);
    assert_eq!(last.counter(Counter::QueryFrames), query_frames_sent);
    assert_eq!(
        last.counter(Counter::QueriesAnswered),
        query_frames_sent * batch.len() as u64
    );
    for stage in Stage::ALL {
        let summary = last.stage(stage).expect("stage present after traffic");
        assert_eq!(
            summary.count,
            query_frames_sent,
            "stage {} must have recorded exactly once per query frame",
            stage.name()
        );
        assert!(summary.min_ns <= summary.max_ns);
        assert!(summary.p999_ns <= summary.max_ns);
        assert!(summary.sum_ns >= summary.count * summary.min_ns);
    }
    // The scan counters rode along: one scan query per fingerprint —
    // but only since the reload, because they live in the compiled
    // bank the reload replaced.
    let scans = last.counter(Counter::ScanQueries);
    assert!(
        scans > 0 && scans <= expected_queries,
        "post-reload scan count {scans} outside (0, {expected_queries}]"
    );

    // The in-process snapshot agrees with the wire snapshot at
    // quiescence (modulo the stats/connection traffic of the final
    // poll itself, which touches neither stages nor query counters).
    let local = handle.metrics_snapshot();
    assert_eq!(local.counter(Counter::QueryFrames), query_frames_sent);
    for stage in Stage::ALL {
        assert_eq!(
            local.stage(stage).map(|s| s.count),
            last.stage(stage).map(|s| s.count)
        );
    }

    let stats = handle.shutdown();
    assert_eq!(
        stats.queries_answered,
        query_frames_sent * batch.len() as u64
    );
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.worker_panics, 0);
}

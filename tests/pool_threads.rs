//! Thread accounting for the compute pool.
//!
//! The pool owns no threads: only a batch of more than one chunk starts
//! helpers, `min(threads, chunks) - 1` of them, and joins them before it
//! returns. These tests pin that with process-level evidence from
//! `/proc/self/status` and the workspace spawn ledger:
//!
//! * building a pool, a cell or a `Sentinel` adds no live thread;
//! * each multi-chunk batch spawns exactly `min(threads, chunks) - 1`
//!   helpers, and the live thread count is back at its baseline once
//!   the batch returns;
//! * hot-reload epoch swaps keep the same pool instance.
//!
//! Thread counts are process-global state, so every test here holds
//! one serialising lock for its whole body, and the suite lives in its
//! own integration binary (its own process) so sibling test binaries
//! cannot pollute the counts.

use std::sync::{Arc, Mutex};

use iot_sentinel::core::ServiceCell;
use iot_sentinel::fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
use iot_sentinel::pool::{thread_spawns, ComputePool};
use iot_sentinel::SentinelBuilder;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Live threads in this process per `/proc/self/status`; 0 where
/// procfs is unavailable, which degrades the assertions below to
/// spawn-ledger accounting only.
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Threads:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Asserts the live thread count is back at or below `baseline`. A
/// joined thread can stay visible for a few microseconds of kernel
/// teardown, so this polls briefly before failing.
fn assert_back_at(baseline: usize, what: &str) {
    if baseline == 0 {
        return;
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    let mut now = live_threads();
    while now > baseline && std::time::Instant::now() < deadline {
        std::thread::yield_now();
        now = live_threads();
    }
    assert!(
        now <= baseline,
        "{what}: {now} live threads, baseline {baseline}"
    );
}

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

fn dataset() -> Dataset {
    let mut ds = Dataset::new();
    for (label, bits) in [
        ("TypeA", 0b00001u32),
        ("TypeB", 0b00010),
        ("TypeC", 0b00100),
        ("TypeD", 0b10000),
        ("TypeE", 0b100000),
    ] {
        for i in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                label,
                fp_bits(bits, &[100 + i, 110, 120]),
            ));
        }
    }
    ds
}

fn probes(count: usize) -> Vec<Fingerprint> {
    (0..count)
        .map(|i| match i % 3 {
            0 => fp_bits(0b00001, &[103 + (i as u32 % 5), 110, 120]),
            1 => fp_bits(0b00010, &[104 + (i as u32 % 5), 110, 120]),
            // Bit 11 stays clear of both the trained types (bits 0–5)
            // and the hot-reload swap types (bits 6–8): this probe is
            // an unknown device in every epoch.
            _ => fp_bits(0b1000_0000_0000, &[105, 110, 120]),
        })
        .collect()
}

#[test]
fn batch_load_never_exceeds_the_configured_pool_size() {
    let _serial = serial();
    let build = || {
        SentinelBuilder::new()
            .dataset(dataset())
            .training_seed(4)
            .build()
            .unwrap()
    };
    // The test harness starts the next test's thread as the previous
    // test ends; a first build outlasts that churn, so the baseline
    // below sees only this test's threads.
    drop(build());
    let baseline = live_threads();
    let spawns_before = thread_spawns();
    let sentinel = build();
    let pool = Arc::new(ComputePool::new(3));
    let cell = ServiceCell::with_pool(sentinel.service().service().clone(), Arc::clone(&pool));
    assert_back_at(baseline, "building a Sentinel, a pool and a cell");
    assert_eq!(thread_spawns(), spawns_before, "construction spawned");

    // Four chunks on a three-thread pool: the caller plus two helpers.
    let batch = probes(iot_sentinel::core::BATCH_CHUNK * 3 + 7);
    let service = cell.load();
    let sequential: Vec<_> = batch.iter().map(|fp| service.handle(fp)).collect();
    for round in 0..10 {
        let spawns_before = thread_spawns();
        let pooled = service.handle_batch_on(cell.pool(), &batch);
        assert_eq!(pooled, sequential, "round {round} diverged");
        assert_eq!(
            thread_spawns() - spawns_before,
            2,
            "round {round}: min(threads, chunks) - 1 helpers"
        );
        assert_back_at(baseline, &format!("round {round}"));
    }
    let counters = pool.counters();
    assert_eq!(counters.submitted, 10 * 4, "one task per chunk");
    assert_eq!(
        counters.submitted, counters.executed,
        "every task handed to the pool must have run"
    );
}

#[test]
fn facade_batches_fan_out_on_the_cells_pool() {
    let _serial = serial();
    let sentinel = SentinelBuilder::new()
        .dataset(dataset())
        .training_seed(4)
        .build()
        .unwrap();
    let pool = sentinel.service_cell().pool();
    assert!(
        Arc::ptr_eq(pool, iot_sentinel::pool::global()),
        "facade cells share the global pool"
    );
    let before = pool.counters().submitted;
    let spawns_before = thread_spawns();
    let batch = probes(iot_sentinel::core::BATCH_CHUNK * 3 + 7);
    let expected: Vec<_> = batch.iter().map(|fp| sentinel.handle(fp)).collect();
    assert_eq!(sentinel.handle_batch(&batch), expected);
    assert_eq!(
        pool.counters().submitted - before,
        4,
        "a four-chunk facade batch runs its chunks on the cell's pool"
    );
    assert_eq!(
        thread_spawns() - spawns_before,
        pool.threads().min(4) as u64 - 1
    );
}

#[test]
fn epoch_swaps_keep_the_pool_and_start_no_threads() {
    let _serial = serial();
    let sentinel = SentinelBuilder::new()
        .dataset(dataset())
        .training_seed(4)
        .build()
        .unwrap();
    let service = sentinel.service().service().clone();
    let baseline = live_threads();
    let spawns_before = thread_spawns();
    let pool = Arc::new(ComputePool::new(2));
    let cell = ServiceCell::with_pool(service, Arc::clone(&pool));
    // One chunk: computed on this thread, whatever the pool's width.
    let batch = probes(40);
    let expected: Vec<_> = {
        let service = cell.load();
        batch.iter().map(|fp| service.handle(fp)).collect()
    };
    for round in 0..3 {
        let fps: Vec<Fingerprint> = (0..12)
            .map(|i| fp_bits(0b1 << (6 + round), &[3000 + 100 * round as u32 + i, 7, 8]))
            .collect();
        sentinel
            .add_device_type(&format!("Swap{round}"), &fps, 9)
            .unwrap();
        let refreshed = sentinel.service().service().clone();
        cell.replace(refreshed).unwrap();
        assert_eq!(
            Arc::as_ptr(cell.pool()),
            Arc::as_ptr(&pool),
            "round {round}: epoch swap replaced the pool"
        );
        assert_eq!(cell.load().handle_batch_on(cell.pool(), &batch), expected);
    }
    assert_eq!(
        thread_spawns(),
        spawns_before,
        "a pool, a cell, epoch swaps and one-chunk batches start no thread"
    );
    assert_back_at(baseline, "after the swaps");
}

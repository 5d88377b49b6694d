//! Thread accounting for the compute pool.
//!
//! The pool redesign's structural claim: all parallel execution (batch
//! fan-out) runs on **one persistent set of pinned workers** sized when
//! the [`ServiceCell`] is built, and on nothing else. These tests pin that
//! with process-level evidence from `/proc/self/status`:
//!
//! * driving batches over a pool-equipped cell never raises the live
//!   thread count above the baseline measured right after the pool
//!   came up (no per-batch or per-chunk spawning), and
//! * hot-reload epoch swaps neither kill nor re-create workers — the
//!   same pool instance (and the same thread count) survives every
//!   swap, and dropping the last handle to a private pool joins all
//!   of its workers.
//!
//! Thread counts are process-global state, so every test here holds
//! one serialising lock for its whole body, and the suite lives in its
//! own integration binary (its own process) so sibling test binaries
//! cannot pollute the counts.

use std::sync::{Arc, Mutex};

use iot_sentinel::core::ServiceCell;
use iot_sentinel::fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
use iot_sentinel::pool::ComputePool;
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
    let sentinel = SentinelBuilder::new()
        .dataset(dataset())
        .training_seed(4)
        .compute_threads(3)
        .build()
        .unwrap();
    let cell = Arc::clone(sentinel.service_cell());
    assert_eq!(cell.pool().threads(), 3, "--compute-threads sizing");

    // Baseline *after* the pool exists: its 3 pinned workers are the
    // only compute threads this process is ever allowed to hold.
    let baseline = live_threads();
    let spawns_before = iot_sentinel::pool::thread_spawns();
    let batch = probes(iot_sentinel::core::BATCH_CHUNK * 3 + 7);
    let service = cell.load();
    let sequential: Vec<_> = batch.iter().map(|fp| service.handle(fp)).collect();
    for round in 0..10 {
        let pooled = service.handle_batch_on(cell.pool(), &batch);
        assert_eq!(pooled, sequential, "round {round} diverged");
        let now = live_threads();
        if baseline > 0 {
            assert!(
                now <= baseline,
                "round {round}: {now} live threads exceed the post-pool \
                 baseline of {baseline} — something spawned per batch"
            );
        }
    }
    assert_eq!(
        iot_sentinel::pool::thread_spawns(),
        spawns_before,
        "driving warm batches must not spawn a single thread"
    );
    let counters = cell.pool().counters();
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
        .compute_threads(3)
        .build()
        .unwrap();
    let pool = sentinel.service_cell().pool();
    let before = pool.counters().submitted;
    let batch = probes(iot_sentinel::core::BATCH_CHUNK * 3 + 7);
    let expected: Vec<_> = batch.iter().map(|fp| sentinel.handle(fp)).collect();
    assert_eq!(sentinel.handle_batch(&batch), expected);
    assert!(
        pool.counters().submitted > before,
        "a multi-chunk facade batch must run on the cell's pool"
    );
}

#[test]
fn epoch_swaps_keep_the_pool_and_drop_joins_its_workers() {
    let _serial = serial();
    let sentinel = SentinelBuilder::new()
        .dataset(dataset())
        .training_seed(4)
        .build()
        .unwrap();
    let service = sentinel.service().service().clone();
    let before_pool = live_threads();
    {
        let pool = Arc::new(ComputePool::new(2));
        let cell = ServiceCell::with_pool(service, Arc::clone(&pool));
        let after_pool = live_threads();
        if before_pool > 0 {
            assert_eq!(after_pool, before_pool + 2, "pool spun up its workers");
        }
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
            // The swap re-publishes the model; it must neither touch
            // the pool instance nor its threads.
            assert_eq!(
                Arc::as_ptr(cell.pool()),
                Arc::as_ptr(&pool),
                "round {round}: epoch swap replaced the pool"
            );
            if before_pool > 0 {
                assert_eq!(
                    live_threads(),
                    after_pool,
                    "round {round}: epoch swap changed the worker set"
                );
            }
            assert_eq!(cell.load().handle_batch_on(cell.pool(), &batch), expected);
        }
        drop(cell);
        drop(pool);
    }
    if before_pool > 0 {
        assert_eq!(
            live_threads(),
            before_pool,
            "dropping the cell and pool must join every worker"
        );
    }
}

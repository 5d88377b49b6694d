//! Fork-join fan-out for the IoT SENTINEL service.
//!
//! A [`ComputePool`] owns no threads: it is a fan-out width plus two
//! counters. Work runs on the thread that asks for it, and only a
//! fan-out wide enough to use more than one thread starts helpers,
//! for exactly as long as that one call:
//!
//! * [`ComputePool::run`] runs a closure on the calling thread under
//!   `catch_unwind` and returns its result, or the panic as a typed
//!   [`TaskPanic`]. The server uses it to contain a panicking reload.
//! * [`ComputePool::for_each`] runs `f(0) … f(n - 1)`. When
//!   `min(threads, n) == 1` it is a plain loop on the caller. Otherwise
//!   it starts `min(threads, n) - 1` scoped helpers, and the helpers and
//!   the caller claim task indices from one shared cursor. The call
//!   joins every helper before it returns, so `f` may borrow anything
//!   from the caller's stack. A slow thread simply claims fewer indices.
//! * **Panic containment.** Each task runs under `catch_unwind`. The
//!   first panic's message comes back as a typed [`TaskPanic`], the
//!   remaining tasks still run, and `executed == submitted` reconciles
//!   on the failure path too.
//! * **Spawn accounting.** Every helper bumps [`thread_spawns`], so
//!   tests can pin how many threads a region started: zero for a
//!   one-thread pool or a single-chunk batch, `min(threads, n) - 1` for
//!   each wider fan-out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Environment variable overriding the global pool's fan-out width.
pub const POOL_THREADS_ENV: &str = "SENTINEL_POOL_THREADS";

// ---------------------------------------------------------------------------
// Spawn accounting
// ---------------------------------------------------------------------------

static THREAD_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Records one OS thread creation. Called by the pool for each helper
/// and by the `crossbeam` compat shim for every scoped spawn, so
/// allocation-style tests can assert warm paths spawn nothing.
pub fn note_thread_spawn() {
    THREAD_SPAWNS.fetch_add(1, Ordering::Relaxed);
}

/// Total OS threads spawned through instrumented paths since process
/// start. Monotone; diff across a region to count spawns inside it.
pub fn thread_spawns() -> u64 {
    THREAD_SPAWNS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A task run through the pool panicked.
///
/// The panic was contained on the thread that ran the task: sibling
/// tasks in the same call still executed, the pool remains fully
/// usable, and the first panic's message is carried here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    message: String,
}

impl TaskPanic {
    fn new(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        };
        Self { message }
    }

    /// The first panicking task's payload, rendered as text.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

/// Monotone event counters for one pool, snapshot via
/// [`ComputePool::counters`]. Mirrored into the observability registry
/// by the serve layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Tasks handed to the pool (`for_each` task indices plus `run` calls).
    pub submitted: u64,
    /// Tasks that finished executing (panicked tasks included).
    pub executed: u64,
}

/// A fan-out width plus task counters. See the crate docs.
#[derive(Debug)]
pub struct ComputePool {
    threads: usize,
    submitted: AtomicU64,
    executed: AtomicU64,
}

impl ComputePool {
    /// A pool that fans work out over at most `threads` threads, the
    /// caller included (clamped to at least 1). Starts no thread.
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
        }
    }

    /// The fan-out width fixed at construction.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the pool's monotone event counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            submitted: self.submitted.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
        }
    }

    /// Runs `f(0), f(1), …, f(tasks - 1)` and returns once all of them
    /// finished, on the caller plus `min(threads, tasks) - 1` scoped
    /// helpers that are joined before the return. If a helper cannot
    /// be started, the threads already running drain the rest.
    ///
    /// Any task panic is contained and reported as [`TaskPanic`];
    /// sibling tasks still run.
    pub fn for_each<F>(&self, tasks: usize, f: F) -> Result<(), TaskPanic>
    where
        F: Fn(usize) + Sync,
    {
        self.submitted.fetch_add(tasks as u64, Ordering::Relaxed);
        let cursor = AtomicUsize::new(0);
        let first_panic = OnceLock::new();
        let drain = || loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            if index >= tasks {
                break;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| f(index)));
            self.executed.fetch_add(1, Ordering::Relaxed);
            if let Err(payload) = outcome {
                let _ = first_panic.set(TaskPanic::new(payload));
            }
        };
        let helpers = self.threads.min(tasks).saturating_sub(1);
        if helpers == 0 {
            drain();
        } else {
            std::thread::scope(|scope| {
                let started: Vec<_> = (0..helpers)
                    .map_while(|_| std::thread::Builder::new().spawn_scoped(scope, drain).ok())
                    .inspect(|_| note_thread_spawn())
                    .collect();
                drain();
                // Joined explicitly rather than at the end of the scope,
                // so each helper's OS thread has exited when this returns.
                for helper in started {
                    helper.join().expect("tasks run under catch_unwind");
                }
            });
        }
        first_panic.into_inner().map_or(Ok(()), Err)
    }

    /// Runs `f` on the calling thread and returns its result, or its
    /// panic as a [`TaskPanic`]: the caller survives a panicking task.
    pub fn run<R, F>(&self, f: F) -> Result<R, TaskPanic>
    where
        F: FnOnce() -> R + Send,
        R: Send,
    {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(f));
        self.executed.fetch_add(1, Ordering::Relaxed);
        outcome.map_err(TaskPanic::new)
    }
}

// ---------------------------------------------------------------------------
// Global pool
// ---------------------------------------------------------------------------

/// Fan-out width for the global pool: `SENTINEL_POOL_THREADS` when set
/// to a positive integer, otherwise the machine's available
/// parallelism.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var(POOL_THREADS_ENV) {
        if let Ok(parsed) = raw.trim().parse::<usize>() {
            if parsed > 0 {
                return parsed;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

static GLOBAL: OnceLock<Arc<ComputePool>> = OnceLock::new();

/// The process-wide pool, created on first use and sized by
/// [`default_threads`]. Service cells default to sharing it, so one
/// width and one set of counters cover every cell in a process.
pub fn global() -> &'static Arc<ComputePool> {
    GLOBAL.get_or_init(|| Arc::new(ComputePool::new(default_threads())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex, MutexGuard};

    /// The spawn ledger is process-global and helpers are real threads,
    /// so every test here holds this lock for its whole body.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn for_each_runs_every_task_exactly_once() {
        let _serial = serial();
        let pool = ComputePool::new(4);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool.for_each(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        pool.for_each(0, |_| panic!("must not run")).unwrap();
    }

    #[test]
    fn new_starts_no_thread() {
        let _serial = serial();
        let before = thread_spawns();
        let pool = ComputePool::new(4);
        assert_eq!(thread_spawns(), before, "a pool owns no threads");
        assert_eq!(pool.threads(), 4);
    }

    #[test]
    fn single_task_runs_inline_on_the_caller() {
        let _serial = serial();
        let pool = ComputePool::new(4);
        let before = thread_spawns();
        let caller = std::thread::current().id();
        let ran_on = Mutex::new(None);
        pool.for_each(1, |_| {
            *ran_on.lock().unwrap() = Some(std::thread::current().id());
        })
        .unwrap();
        assert_eq!(ran_on.into_inner().unwrap(), Some(caller));
        assert_eq!(thread_spawns(), before, "one task needs no helper");
    }

    #[test]
    fn wide_fan_out_spawns_threads_minus_one_helpers_and_joins_them() {
        let _serial = serial();
        let pool = ComputePool::new(3);
        let before = thread_spawns();
        // The first three tasks meet at a barrier, so they run on three
        // distinct threads: the caller and both helpers.
        let barrier = Barrier::new(3);
        let ran_on = Mutex::new(Vec::new());
        pool.for_each(200, |i| {
            if i < 3 {
                barrier.wait();
                let tid = std::fs::read_link("/proc/thread-self").ok();
                ran_on
                    .lock()
                    .unwrap()
                    .push((std::thread::current().id(), tid));
            }
        })
        .unwrap();
        assert_eq!(thread_spawns() - before, 2, "caller plus two helpers");
        let caller = std::thread::current().id();
        let helpers: Vec<_> = ran_on
            .into_inner()
            .unwrap()
            .into_iter()
            .filter(|(id, _)| *id != caller)
            .collect();
        assert_eq!(helpers.len(), 2);
        // `/proc/thread-self` is `<pid>/task/<tid>`: a joined helper's
        // entry is gone (a few µs of kernel teardown aside).
        for (_, tid) in helpers {
            let Some(tid) = tid else { continue };
            let task = std::path::Path::new("/proc").join(tid);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
            while task.exists() && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert!(!task.exists(), "{} outlived for_each", task.display());
        }
    }

    #[test]
    fn size_one_pool_matches_sequential_results_bit_identically() {
        let _serial = serial();
        let pool = ComputePool::new(1);
        let pooled: Vec<Mutex<u64>> = (0..64).map(|_| Mutex::new(0)).collect();
        pool.for_each(64, |i| {
            *pooled[i].lock().unwrap() = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
        })
        .unwrap();
        let sequential: Vec<u64> = (0..64u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let pooled: Vec<u64> = pooled
            .into_iter()
            .map(|c| c.into_inner().unwrap())
            .collect();
        assert_eq!(pooled, sequential);
    }

    #[test]
    fn borrowed_caller_data_is_visible_to_tasks() {
        let _serial = serial();
        let pool = ComputePool::new(3);
        let inputs: Vec<u64> = (0..100).collect();
        let total = AtomicU64::new(0);
        pool.for_each(inputs.len(), |i| {
            total.fetch_add(inputs[i], Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 99 * 100 / 2);
    }

    #[test]
    fn panic_is_contained_typed_and_does_not_poison_the_pool() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        let survivors = AtomicUsize::new(0);
        let err = pool
            .for_each(8, |i| {
                if i == 3 {
                    panic!("task {i} exploded");
                }
                survivors.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap_err();
        assert_eq!(err.message(), "task 3 exploded");
        // Sibling tasks still ran: containment, not abortion.
        assert_eq!(survivors.load(Ordering::SeqCst), 7);
        // The pool is fully usable afterwards.
        let after = AtomicUsize::new(0);
        pool.for_each(16, |_| {
            after.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(after.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn run_executes_on_the_calling_thread() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        let before = thread_spawns();
        let caller = std::thread::current().id();
        let (value, ran_on) = pool.run(|| (21 * 2, std::thread::current().id())).unwrap();
        assert_eq!(value, 42);
        assert_eq!(ran_on, caller, "run computes where it is called");
        assert_eq!(thread_spawns(), before);
    }

    #[test]
    fn run_panic_is_typed() {
        let _serial = serial();
        let pool = ComputePool::new(1);
        let err = pool.run(|| -> u32 { panic!("boom in run") }).unwrap_err();
        assert_eq!(err.message(), "boom in run");
        assert_eq!(pool.run(|| 7).unwrap(), 7);
    }

    #[test]
    fn nested_for_each_makes_progress() {
        let _serial = serial();
        let pool = ComputePool::new(3);
        let total = AtomicU64::new(0);
        pool.for_each(6, |outer| {
            pool.for_each(5, |inner| {
                total.fetch_add((outer * 10 + inner) as u64, Ordering::SeqCst);
            })
            .unwrap();
        })
        .unwrap();
        let expected: u64 = (0..6u64)
            .flat_map(|o| (0..5u64).map(move |i| o * 10 + i))
            .sum();
        assert_eq!(total.load(Ordering::SeqCst), expected);
    }

    #[test]
    fn deeply_nested_size_one_pool_makes_progress() {
        let _serial = serial();
        // One thread, three levels of nesting: everything runs inline.
        let pool = ComputePool::new(1);
        let total = AtomicUsize::new(0);
        pool.for_each(3, |_| {
            pool.for_each(3, |_| {
                pool.for_each(3, |_| {
                    total.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
            })
            .unwrap();
        })
        .unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 27);
    }

    #[test]
    fn run_then_nested_for_each_on_pools_of_one_and_two() {
        let _serial = serial();
        for threads in [1, 2] {
            let pool = ComputePool::new(threads);
            let hits: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
            pool.run(|| {
                pool.for_each(hits.len(), |i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                })
            })
            .unwrap()
            .unwrap();
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
            let counters = pool.counters();
            assert_eq!(counters.submitted, 201, "one run plus 200 tasks");
            assert_eq!(counters.executed, counters.submitted);
        }
    }

    #[test]
    fn executed_reconciles_with_submitted_even_after_panics() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        let _ = pool.for_each(10, |i| {
            if i % 2 == 0 {
                panic!("even task");
            }
        });
        pool.for_each(5, |_| {}).unwrap();
        let _ = pool.run(|| ());
        let counters = pool.counters();
        assert_eq!(counters.submitted, 16);
        assert_eq!(counters.executed, 16);
    }

    #[test]
    fn global_pool_is_shared_and_env_sized() {
        let _serial = serial();
        let a = Arc::as_ptr(global());
        let b = Arc::as_ptr(global());
        assert_eq!(a, b);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn parallelism_is_bounded_by_pool_size() {
        let _serial = serial();
        let pool = ComputePool::new(2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.for_each(32, |_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        })
        .unwrap();
        // The caller counts as one of the pool's threads.
        assert!(peak.load(Ordering::SeqCst) <= pool.threads());
    }
}

//! The lock-free metrics registry: a fixed catalog of atomic counters
//! and gauges plus per-worker-shard stage-latency histograms, merged
//! into a [`MetricsSnapshot`] on demand.
//!
//! Design constraints, in order:
//!
//! 1. **Warm-path cost**: recording a counter or a stage latency from
//!    a server worker is a handful of relaxed atomic RMWs — no locks,
//!    no allocation, no shared cache line beyond the counter itself
//!    (stage histograms are sharded per worker precisely so two
//!    workers never contend on one bucket).
//! 2. **Fixed identity**: every metric has a stable small integer id
//!    ([`Counter`] as `u16`, [`Stage`] as `u8`) and a stable snake_case
//!    name. The wire protocol ships ids, the text exposition ships
//!    names, and both sides tolerate ids they do not know — a newer
//!    server can grow the catalog without breaking older pollers.
//! 3. **Monotone snapshots**: counters and per-stage sample counts are
//!    single atomics (or sums of single atomics), so a poller taking
//!    repeated snapshots never sees a value decrease. Cross-metric
//!    relationships (decode count vs scan count) are exact only at
//!    quiescence — recording is relaxed, deliberately.

use crate::histogram::{AtomicHistogram, LogHistogram};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The counter/gauge catalog. Variants are wire ids — append-only;
/// never renumber.
///
/// Most entries are counters (monotone). [`Counter::ConnectionsActive`]
/// is the one gauge (it also decrements). The `Client*` entries are
/// recorded by [`ClientStats`-shaped] gateway-side code, not the
/// server; they share the catalog so fleet reports encode client- and
/// server-side counters in one format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Counter {
    /// Connections accepted by the listener.
    ConnectionsAccepted = 0,
    /// Connections refused because the worker pool's queue was full.
    ConnectionsRefused = 1,
    /// Connections currently open (gauge).
    ConnectionsActive = 2,
    /// Frames answered, of any kind (queries, pings, reloads, stats).
    FramesServed = 3,
    /// Query frames answered.
    QueryFrames = 4,
    /// Fingerprints answered across all query frames (a batch of 8
    /// counts 8 here and 1 in [`Counter::QueryFrames`]).
    QueriesAnswered = 5,
    /// Malformed frames and I/O errors observed on connections.
    ProtocolErrors = 6,
    /// Connection handlers torn down by a panic (service code, or a
    /// compute-pool task panic re-raised on the connection thread). The
    /// connection dies; the I/O worker and the server keep serving.
    WorkerPanics = 7,
    /// Successful hot reloads (epoch advances).
    Reloads = 8,
    /// Reload frames that failed validation (model not an extension,
    /// parse error) and were answered with an error frame.
    ReloadsRejected = 9,
    /// Admin frames refused because the server runs without `--admin`.
    AdminRejected = 10,
    /// Stats frames answered.
    StatsServed = 11,
    /// Classifier-bank scans (one per fingerprint identified). Lives
    /// in the compiled bank itself, so a model hot-reload installs a
    /// fresh bank and **resets** this to zero — unlike the registry
    /// counters, it is monotone only between reloads.
    ScanQueries = 12,
    /// Retired, always 0 (the scan has no prefilter); the id stays so
    /// the dense wire catalog is not renumbered.
    ScanPrefiltered = 13,
    /// Retired, always 0 (the scan skips no forest); the id stays so
    /// the dense wire catalog is not renumbered.
    ScanForestsSkipped = 14,
    /// Client-side: reconnect attempts beyond the first.
    ClientConnectRetries = 15,
    /// Client-side: request frames sent.
    ClientRequestsSent = 16,
    /// Client-side: response frames received.
    ClientResponsesReceived = 17,
    /// Compute-pool tasks submitted (`for_each` indices plus `run`
    /// hand-offs). Lives in the pool, overlaid into snapshots by the
    /// server; the pool outlives reloads, so this never resets.
    PoolTasksSubmitted = 18,
    /// Compute-pool tasks that finished executing (panicked tasks
    /// included, so this reconciles exactly with
    /// [`Counter::PoolTasksSubmitted`] when the pool is quiescent).
    PoolTasksExecuted = 19,
    /// Retired, always 0 — the pool has one queue; the id stays so
    /// the dense wire catalog is not renumbered.
    PoolSteals = 20,
    /// Tickets pushed onto the pool's queue.
    PoolInjectorPushes = 21,
    /// Times a pool worker parked with no work queued.
    PoolParks = 22,
    /// Times a parked pool worker was woken.
    PoolUnparks = 23,
    /// Fingerprints shed by admission control instead of computed (a
    /// shed batch of 8 counts 8 here and 1 in
    /// [`Counter::OverloadRejections`]). Monotone.
    QueriesShed = 24,
    /// Frames answered with the retryable `Overloaded` error: query
    /// frames refused by the in-flight budget plus admin reload frames
    /// refused by the reload rate limit. Monotone.
    OverloadRejections = 25,
    /// Admin reload frames refused by the token-bucket rate limit
    /// (a subset of [`Counter::OverloadRejections`]). Monotone.
    ReloadsRateLimited = 26,
    /// Reload tasks that panicked mid-validation and were rolled back:
    /// the previous epoch kept serving and the peer got a typed
    /// `ReloadRejected` answer. Monotone.
    ReloadRollbacks = 27,
    /// Faults deliberately injected by a chaos harness (stalls,
    /// truncated frames, hangups, scheduled task panics). Zero outside
    /// chaos runs. Monotone.
    FaultsInjected = 28,
}

impl Counter {
    /// Every catalog entry, in id order.
    pub const ALL: [Counter; 29] = [
        Counter::ConnectionsAccepted,
        Counter::ConnectionsRefused,
        Counter::ConnectionsActive,
        Counter::FramesServed,
        Counter::QueryFrames,
        Counter::QueriesAnswered,
        Counter::ProtocolErrors,
        Counter::WorkerPanics,
        Counter::Reloads,
        Counter::ReloadsRejected,
        Counter::AdminRejected,
        Counter::StatsServed,
        Counter::ScanQueries,
        Counter::ScanPrefiltered,
        Counter::ScanForestsSkipped,
        Counter::ClientConnectRetries,
        Counter::ClientRequestsSent,
        Counter::ClientResponsesReceived,
        Counter::PoolTasksSubmitted,
        Counter::PoolTasksExecuted,
        Counter::PoolSteals,
        Counter::PoolInjectorPushes,
        Counter::PoolParks,
        Counter::PoolUnparks,
        Counter::QueriesShed,
        Counter::OverloadRejections,
        Counter::ReloadsRateLimited,
        Counter::ReloadRollbacks,
        Counter::FaultsInjected,
    ];

    /// Number of catalog entries.
    pub const COUNT: usize = Counter::ALL.len();

    /// The counter's wire id.
    pub fn id(self) -> u16 {
        self as u16
    }

    /// The catalog entry with wire id `id`, if known.
    pub fn from_id(id: u16) -> Option<Counter> {
        Counter::ALL.get(id as usize).copied()
    }

    /// Stable snake_case name (text exposition, bench JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Counter::ConnectionsAccepted => "connections_accepted",
            Counter::ConnectionsRefused => "connections_refused",
            Counter::ConnectionsActive => "connections_active",
            Counter::FramesServed => "frames_served",
            Counter::QueryFrames => "query_frames",
            Counter::QueriesAnswered => "queries_answered",
            Counter::ProtocolErrors => "protocol_errors",
            Counter::WorkerPanics => "worker_panics",
            Counter::Reloads => "reloads",
            Counter::ReloadsRejected => "reloads_rejected",
            Counter::AdminRejected => "admin_rejected",
            Counter::StatsServed => "stats_served",
            Counter::ScanQueries => "scan_queries",
            Counter::ScanPrefiltered => "scan_prefiltered",
            Counter::ScanForestsSkipped => "scan_forests_skipped",
            Counter::ClientConnectRetries => "client_connect_retries",
            Counter::ClientRequestsSent => "client_requests_sent",
            Counter::ClientResponsesReceived => "client_responses_received",
            Counter::PoolTasksSubmitted => "pool_tasks_submitted",
            Counter::PoolTasksExecuted => "pool_tasks_executed",
            Counter::PoolSteals => "pool_steals",
            Counter::PoolInjectorPushes => "pool_injector_pushes",
            Counter::PoolParks => "pool_parks",
            Counter::PoolUnparks => "pool_unparks",
            Counter::QueriesShed => "queries_shed",
            Counter::OverloadRejections => "overload_rejections",
            Counter::ReloadsRateLimited => "reloads_rate_limited",
            Counter::ReloadRollbacks => "reload_rollbacks",
            Counter::FaultsInjected => "faults_injected",
        }
    }

    /// Whether the entry is a gauge (may decrease between snapshots).
    pub fn is_gauge(self) -> bool {
        matches!(self, Counter::ConnectionsActive)
    }

    /// Whether the entry is monotone for the whole life of a server.
    /// False for the gauge and for the per-model scan counters, which
    /// reset when a hot reload installs a fresh compiled bank.
    pub fn is_monotone(self) -> bool {
        !matches!(
            self,
            Counter::ConnectionsActive
                | Counter::ScanQueries
                | Counter::ScanPrefiltered
                | Counter::ScanForestsSkipped
        )
    }
}

/// The serve pipeline's instrumented stages, in execution order.
/// Variants are wire ids — append-only; never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Query-frame payload decode (wire bytes → fingerprints).
    Decode = 0,
    /// Identification: arena scan/vote, discrimination + response
    /// assembly (`handle_batch_on`), the paper's classification step.
    Scan = 1,
    /// Response-frame encode (responses → wire bytes) and send.
    Encode = 2,
    /// Whole query frame, decode through send — the server-side view
    /// of what a client measures as request latency, minus the wire.
    Frame = 3,
}

impl Stage {
    /// Every stage, in id (= execution) order.
    pub const ALL: [Stage; 4] = [Stage::Decode, Stage::Scan, Stage::Encode, Stage::Frame];

    /// Number of stages.
    pub const COUNT: usize = Stage::ALL.len();

    /// The stage's wire id.
    pub fn id(self) -> u8 {
        self as u8
    }

    /// The stage with wire id `id`, if known.
    pub fn from_id(id: u8) -> Option<Stage> {
        Stage::ALL.get(id as usize).copied()
    }

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Scan => "scan",
            Stage::Encode => "encode",
            Stage::Frame => "frame",
        }
    }
}

/// One worker's stage histograms: a private cache-line neighborhood
/// per worker, so concurrent workers never contend on bucket atomics.
#[derive(Debug)]
struct StageShard {
    stages: [AtomicHistogram; Stage::COUNT],
}

impl StageShard {
    fn new() -> Self {
        StageShard {
            stages: [
                AtomicHistogram::new(),
                AtomicHistogram::new(),
                AtomicHistogram::new(),
                AtomicHistogram::new(),
            ],
        }
    }
}

/// The process-wide metrics registry: one atomic slot per [`Counter`]
/// plus one [`StageShard`] per worker thread.
///
/// Everything on the record side is `&self`, lock-free, and
/// allocation-free; snapshotting allocates (it builds a
/// [`MetricsSnapshot`]) and is meant for pollers, not the query path.
#[derive(Debug)]
pub struct MetricsRegistry {
    counters: [AtomicU64; Counter::COUNT],
    shards: Box<[StageShard]>,
}

impl MetricsRegistry {
    /// A registry with `shards` stage-histogram shards (clamped to at
    /// least 1). Use one shard per worker thread; extra recorders fold
    /// onto shard `index % shards`.
    pub fn new(shards: usize) -> Self {
        MetricsRegistry {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            shards: (0..shards.max(1)).map(|_| StageShard::new()).collect(),
        }
    }

    /// Number of stage shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Adds `n` to `counter`.
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Relaxed);
    }

    /// Adds 1 to `counter`.
    pub fn incr(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Subtracts 1 from `counter` — gauges only (a counter driven
    /// negative wraps; the registry does not police it).
    pub fn decr(&self, counter: Counter) {
        self.counters[counter as usize].fetch_sub(1, Relaxed);
    }

    /// Current value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Relaxed)
    }

    /// Records one `ns` latency sample for `stage` on shard `shard`
    /// (folded modulo the shard count, so any index is safe).
    pub fn record(&self, shard: usize, stage: Stage, ns: u64) {
        self.shards[shard % self.shards.len()].stages[stage as usize].record(ns);
    }

    /// All shards of `stage` merged into one histogram.
    pub fn stage_histogram(&self, stage: Stage) -> LogHistogram {
        let mut out = LogHistogram::new();
        for shard in self.shards.iter() {
            shard.stages[stage as usize].merge_into(&mut out);
        }
        out
    }

    /// A point-in-time snapshot of every counter and every stage
    /// histogram. `epoch` is left 0 — callers owning a service cell
    /// overlay the serving epoch (and cell-tracked counters like
    /// [`Counter::Reloads`]) before shipping it.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.id(), self.get(c)))
            .collect();
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                (
                    s.id(),
                    HistogramSummary::from_histogram(&self.stage_histogram(s)),
                )
            })
            .collect();
        MetricsSnapshot {
            epoch: 0,
            counters,
            stages,
        }
    }
}

/// The fixed-width digest of one latency histogram that snapshots and
/// the Stats wire frame carry: count, sum, extrema, and four canonical
/// quantiles. All durations in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples, saturating at `u64::MAX`.
    pub sum_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
}

impl HistogramSummary {
    /// Digests `h` into the fixed-width summary.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        // A snapshot folded from an `AtomicHistogram` can carry the
        // `sum`/`max` of a sample whose bucket bump it missed.
        if h.count() == 0 {
            return HistogramSummary::default();
        }
        HistogramSummary {
            count: h.count(),
            sum_ns: u64::try_from(h.sum()).unwrap_or(u64::MAX),
            min_ns: h.min(),
            max_ns: h.max(),
            p50_ns: h.quantile(0.50),
            p90_ns: h.quantile(0.90),
            p99_ns: h.quantile(0.99),
            p999_ns: h.quantile(0.999),
        }
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// A point-in-time view of the registry: the payload of the Stats wire
/// frame, the source of the text exposition, and the "server" section
/// of fleet bench reports.
///
/// Counters and stages are `(id, value)` pairs rather than fixed
/// arrays so a decoder keeps entries whose ids it does not recognise
/// (forward compatibility) and an encoder can ship a subset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// The model epoch serving when the snapshot was taken (1 = the
    /// initially loaded model; each successful reload advances it).
    pub epoch: u64,
    /// `(Counter id, value)` pairs, id order.
    pub counters: Vec<(u16, u64)>,
    /// `(Stage id, summary)` pairs, id order.
    pub stages: Vec<(u8, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Value of `counter`, 0 when absent.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(id, _)| *id == counter.id())
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sets `counter` to `value`, inserting it if absent.
    pub fn set_counter(&mut self, counter: Counter, value: u64) {
        match self.counters.iter_mut().find(|(id, _)| *id == counter.id()) {
            Some(slot) => slot.1 = value,
            None => self.counters.push((counter.id(), value)),
        }
    }

    /// Summary for `stage`, if present.
    pub fn stage(&self, stage: Stage) -> Option<&HistogramSummary> {
        self.stages
            .iter()
            .find(|(id, _)| *id == stage.id())
            .map(|(_, s)| s)
    }

    /// Renders the snapshot in Prometheus text exposition format:
    /// counters as `sentinel_<name>`, the epoch as `sentinel_epoch`,
    /// and each stage histogram as a summary family
    /// `sentinel_stage_seconds{stage="..."}` with quantile, `_sum`,
    /// and `_count` series (durations converted to seconds, per the
    /// format's base-unit convention).
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE sentinel_epoch gauge");
        let _ = writeln!(out, "sentinel_epoch {}", self.epoch);
        for &(id, value) in &self.counters {
            let Some(counter) = Counter::from_id(id) else {
                continue;
            };
            let kind = if counter.is_gauge() {
                "gauge"
            } else {
                "counter"
            };
            let _ = writeln!(out, "# TYPE sentinel_{} {kind}", counter.name());
            let _ = writeln!(out, "sentinel_{} {value}", counter.name());
        }
        let _ = writeln!(out, "# TYPE sentinel_stage_seconds summary");
        for &(id, summary) in &self.stages {
            let Some(stage) = Stage::from_id(id) else {
                continue;
            };
            let name = stage.name();
            for (q, v) in [
                ("0.5", summary.p50_ns),
                ("0.9", summary.p90_ns),
                ("0.99", summary.p99_ns),
                ("0.999", summary.p999_ns),
            ] {
                let _ = writeln!(
                    out,
                    "sentinel_stage_seconds{{stage=\"{name}\",quantile=\"{q}\"}} {}",
                    seconds(v)
                );
            }
            let _ = writeln!(
                out,
                "sentinel_stage_seconds_sum{{stage=\"{name}\"}} {}",
                seconds(summary.sum_ns)
            );
            let _ = writeln!(
                out,
                "sentinel_stage_seconds_count{{stage=\"{name}\"}} {}",
                summary.count
            );
        }
        out
    }
}

/// Nanoseconds → seconds, formatted with enough digits to round-trip
/// nanosecond resolution without scientific notation.
fn seconds(ns: u64) -> String {
    format!("{:.9}", ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ids_round_trip() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.id() as usize, i, "{c:?} id out of order");
            assert_eq!(Counter::from_id(c.id()), Some(*c));
        }
        assert_eq!(Counter::from_id(Counter::COUNT as u16), None);
        // Names are unique.
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT);
    }

    #[test]
    fn stage_ids_round_trip() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.id() as usize, i);
            assert_eq!(Stage::from_id(s.id()), Some(*s));
        }
        assert_eq!(Stage::from_id(Stage::COUNT as u8), None);
    }

    #[test]
    fn registry_counts_and_records() {
        let reg = MetricsRegistry::new(2);
        reg.incr(Counter::QueryFrames);
        reg.add(Counter::QueriesAnswered, 8);
        reg.incr(Counter::ConnectionsActive);
        reg.decr(Counter::ConnectionsActive);
        assert_eq!(reg.get(Counter::QueryFrames), 1);
        assert_eq!(reg.get(Counter::QueriesAnswered), 8);
        assert_eq!(reg.get(Counter::ConnectionsActive), 0);

        reg.record(0, Stage::Scan, 1_000);
        reg.record(1, Stage::Scan, 3_000);
        reg.record(5, Stage::Scan, 5_000); // folds onto shard 1
        let h = reg.stage_histogram(Stage::Scan);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 1_000);
        assert!(h.max() >= 5_000);
    }

    #[test]
    fn snapshot_carries_all_ids_and_overlays() {
        let reg = MetricsRegistry::new(1);
        reg.incr(Counter::FramesServed);
        reg.record(0, Stage::Frame, 42);
        let mut snap = reg.snapshot();
        assert_eq!(snap.counters.len(), Counter::COUNT);
        assert_eq!(snap.stages.len(), Stage::COUNT);
        assert_eq!(snap.counter(Counter::FramesServed), 1);
        assert_eq!(snap.counter(Counter::Reloads), 0);
        assert_eq!(snap.stage(Stage::Frame).unwrap().count, 1);
        assert_eq!(snap.stage(Stage::Scan).unwrap().count, 0);

        snap.epoch = 3;
        snap.set_counter(Counter::Reloads, 2);
        assert_eq!(snap.counter(Counter::Reloads), 2);
    }

    #[test]
    fn summary_digests_histogram() {
        let mut h = LogHistogram::new();
        for v in 1..=1_000u64 {
            h.record(v * 1_000);
        }
        let s = HistogramSummary::from_histogram(&h);
        assert_eq!(s.count, 1_000);
        assert_eq!(s.min_ns, 1_000);
        assert_eq!(s.max_ns, 1_000_000);
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns && s.p99_ns <= s.p999_ns);
        assert!(s.p999_ns <= s.max_ns);
        assert!((s.mean_ns() - h.mean()).abs() < 1.0);
    }

    #[test]
    fn text_exposition_shape() {
        let reg = MetricsRegistry::new(1);
        reg.incr(Counter::QueryFrames);
        reg.record(0, Stage::Scan, 1_500_000);
        let mut snap = reg.snapshot();
        snap.epoch = 2;
        let text = snap.to_text();
        assert!(text.contains("sentinel_epoch 2\n"));
        assert!(text.contains("sentinel_query_frames 1\n"));
        assert!(text.contains("# TYPE sentinel_query_frames counter\n"));
        assert!(text.contains("# TYPE sentinel_connections_active gauge\n"));
        assert!(text.contains("sentinel_stage_seconds_count{stage=\"scan\"} 1\n"));
        assert!(text.contains("sentinel_stage_seconds{stage=\"scan\",quantile=\"0.99\"}"));
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "bad exposition line: {line}"
            );
        }
    }

    #[test]
    fn unknown_ids_survive_but_do_not_render() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push((9_999, 7));
        snap.stages.push((200, HistogramSummary::default()));
        let text = snap.to_text();
        assert!(!text.contains("9999"));
        assert_eq!(snap.counters[0], (9_999, 7));
    }
}

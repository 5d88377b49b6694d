//! The fleet report: one struct tying the deterministic simulation
//! summary to the wall-clock measurement, rendered as the summary
//! lines the CLI prints.

use sentinel_obs::{Counter, MetricsSnapshot, Stage};

use crate::config::FleetConfig;
use crate::driver::DriveOutcome;
use crate::sim::{FleetTrace, SimSummary};

/// Everything one fleet run produced, ready to print.
///
/// Fields split into the **deterministic** half (scenario + simulation
/// summary + trace digest — identical across runs with one seed) and
/// the **measured** half (wall-clock latency/throughput — never
/// identical across runs, excluded from determinism assertions).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Configured population size.
    pub devices: u32,
    /// Master seed.
    pub seed: u64,
    /// Virtual horizon in seconds.
    pub virtual_secs: f64,
    /// FNV digest of the event trace ([`FleetTrace::digest`]).
    pub trace_digest: u64,
    /// Deterministic simulation counts.
    pub sim: SimSummary,
    /// Wall-clock span of the replay in seconds.
    pub wall_secs: f64,
    /// Sustained successful queries per second.
    pub qps: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: f64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Worst latency, microseconds.
    pub max_us: f64,
    /// Queries sent over the wire.
    pub queries_sent: u64,
    /// Successful responses.
    pub responses_ok: u64,
    /// Errors (transport, protocol, server).
    pub errors: u64,
    /// The subset of `errors` the server shed with a retryable
    /// `Overloaded` answer after client-side retries ran out.
    pub shed: u64,
    /// Client-side overload retries (shed answers that were resent).
    pub overload_retries: u64,
    /// Connect retries across all (re)connections.
    pub connect_retries: u64,
    /// Reload-under-fire: worst per-connection epoch-propagation lag
    /// in milliseconds, when the scenario reloaded.
    pub reload_lag_ms: Option<f64>,
    /// The epoch the mid-run reload installed.
    pub reload_epoch: Option<u64>,
    /// Epoch regressions: old-epoch responses on a connection that had
    /// already seen the new epoch (must be zero on a healthy server).
    pub stale_after_reload: Option<u64>,
    /// The server's own metrics snapshot for the run, fetched over a
    /// `Stats` frame after the replay drained (`None` when that fetch
    /// failed).
    pub server: Option<MetricsSnapshot>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

impl FleetReport {
    /// Combines scenario, trace and measurement into the report.
    pub fn compose(config: &FleetConfig, trace: &FleetTrace, outcome: &DriveOutcome) -> Self {
        let latency = &outcome.latency;
        FleetReport {
            devices: config.devices,
            seed: config.seed,
            virtual_secs: config.duration.as_secs_f64(),
            trace_digest: trace.digest(),
            sim: trace.summary,
            wall_secs: outcome.wall_elapsed.as_secs_f64(),
            qps: outcome.qps(),
            p50_us: us(latency.quantile(0.50)),
            p99_us: us(latency.quantile(0.99)),
            p999_us: us(latency.quantile(0.999)),
            mean_us: latency.mean() / 1_000.0,
            max_us: us(latency.max()),
            queries_sent: outcome.queries_sent,
            responses_ok: outcome.responses_ok,
            errors: outcome.errors,
            shed: outcome.shed,
            overload_retries: outcome.overload_retries,
            connect_retries: outcome.connect_retries,
            reload_lag_ms: outcome
                .reload
                .as_ref()
                .map(|r| r.propagation_lag.as_secs_f64() * 1_000.0),
            reload_epoch: outcome.reload.as_ref().map(|r| r.epoch),
            stale_after_reload: outcome.reload.as_ref().map(|r| r.stale_responses),
            server: outcome.server.clone(),
        }
    }

    /// Human-readable summary lines for the CLI.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![
            format!(
                "fleet: {} devices over {:.0} virtual s (seed {}, trace digest {:016x})",
                self.devices, self.virtual_secs, self.seed, self.trace_digest
            ),
            format!(
                "sim:   {} queries ({} setup / {} steady), {} standbys, {} churned, {} replaced, {} retransmits",
                self.sim.queries,
                self.sim.setup_queries,
                self.sim.steady_queries,
                self.sim.standbys,
                self.sim.churned,
                self.sim.replacements,
                self.sim.retransmits
            ),
            format!(
                "live:  {} ok / {} sent in {:.2} wall s -> {:.0} qps, {} errors ({} shed), {} connect retries",
                self.responses_ok,
                self.queries_sent,
                self.wall_secs,
                self.qps,
                self.errors,
                self.shed,
                self.connect_retries
            ),
            format!(
                "lat:   p50 {:.0} us, p99 {:.0} us, p99.9 {:.0} us, mean {:.0} us, max {:.0} us",
                self.p50_us, self.p99_us, self.p999_us, self.mean_us, self.max_us
            ),
        ];
        if let (Some(lag), Some(epoch)) = (self.reload_lag_ms, self.reload_epoch) {
            out.push(format!(
                "reload: epoch {} propagated in {:.1} ms worst-case, {} epoch regressions",
                epoch,
                lag,
                self.stale_after_reload.unwrap_or(0)
            ));
        }
        if let Some(snapshot) = &self.server {
            out.push(format!(
                "server: epoch {}, {} query frames / {} queries answered, {} errors, {} reloads",
                snapshot.epoch,
                snapshot.counter(Counter::QueryFrames),
                snapshot.counter(Counter::QueriesAnswered),
                snapshot.counter(Counter::ProtocolErrors),
                snapshot.counter(Counter::Reloads),
            ));
            out.push(format!(
                "server: {} shed, {} overload rejections, {} reloads rate-limited, {} reload rollbacks, {} faults injected",
                snapshot.counter(Counter::QueriesShed),
                snapshot.counter(Counter::OverloadRejections),
                snapshot.counter(Counter::ReloadsRateLimited),
                snapshot.counter(Counter::ReloadRollbacks),
                snapshot.counter(Counter::FaultsInjected),
            ));
            if let Some(frame) = snapshot.stage(Stage::Frame) {
                out.push(format!(
                    "server: frame stage p50 {:.0} us, p99 {:.0} us, max {:.0} us over {} frames",
                    us(frame.p50_ns),
                    us(frame.p99_ns),
                    us(frame.max_ns),
                    frame.count,
                ));
            }
        }
        out
    }
}

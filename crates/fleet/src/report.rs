//! The fleet report: one struct tying the deterministic simulation
//! summary to the wall-clock measurement, with a `BENCH_fleet.json`
//! writer (a tiny hand-rolled JSON emitter — the workspace has no
//! serde).

use std::io::Write;
use std::path::{Path, PathBuf};

use sentinel_obs::{Counter, MetricsSnapshot, Stage};

use crate::config::FleetConfig;
use crate::driver::DriveOutcome;
use crate::sim::{FleetTrace, SimSummary};

/// Everything one fleet run produced, ready to print or persist.
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
    /// `Stats` frame after the replay drained (`None` against pre-v3
    /// servers).
    pub server: Option<MetricsSnapshot>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Renders an f64 for JSON (finite guard; JSON has no NaN/inf).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".to_string()
    }
}

/// The directory the report lands in: `$SENTINEL_BENCH_OUT` if set,
/// else the workspace root when run under cargo (the nearest ancestor
/// of the running package carrying a `Cargo.lock`), else the current
/// directory.
fn report_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("SENTINEL_BENCH_OUT") {
        return PathBuf::from(dir);
    }
    std::env::var_os("CARGO_MANIFEST_DIR")
        .and_then(|manifest_dir| {
            Path::new(&manifest_dir)
                .ancestors()
                .find(|dir| dir.join("Cargo.lock").is_file())
                .map(Path::to_path_buf)
        })
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Writes `BENCH_fleet.json` into [`report_dir`] with one flat
/// `name: number` object per named section. Returns the path written.
fn write_sections(sections: &[(&str, &[(&str, f64)])]) -> std::io::Result<PathBuf> {
    let path = report_dir().join("BENCH_fleet.json");
    let mut out = Vec::new();
    writeln!(out, "{{")?;
    writeln!(out, "  \"bench\": \"fleet\",")?;
    writeln!(out, "  \"unit\": \"us\",")?;
    for (s, (section, entries)) in sections.iter().enumerate() {
        writeln!(out, "  \"{section}\": {{")?;
        for (i, (name, value)) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            writeln!(out, "    \"{name}\": {}{comma}", json_number(*value))?;
        }
        let comma = if s + 1 == sections.len() { "" } else { "," };
        writeln!(out, "  }}{comma}")?;
    }
    writeln!(out, "}}")?;
    std::fs::write(&path, out)?;
    Ok(path)
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

    /// Writes `BENCH_fleet.json` (into `$SENTINEL_BENCH_OUT` or the
    /// workspace root) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the file.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let mut results: Vec<(&str, f64)> = vec![
            ("qps", self.qps),
            ("p50_us", self.p50_us),
            ("p99_us", self.p99_us),
            ("p999_us", self.p999_us),
            ("mean_us", self.mean_us),
            ("max_us", self.max_us),
            ("errors", self.errors as f64),
        ];
        if let Some(lag) = self.reload_lag_ms {
            results.push(("reload_lag_ms", lag));
        }
        let mut derived: Vec<(&str, f64)> = vec![
            ("wall_secs", self.wall_secs),
            ("queries_sent", self.queries_sent as f64),
            ("responses_ok", self.responses_ok as f64),
            ("shed", self.shed as f64),
            ("overload_retries", self.overload_retries as f64),
            ("connect_retries", self.connect_retries as f64),
        ];
        if let Some(epoch) = self.reload_epoch {
            derived.push(("reload_epoch", epoch as f64));
        }
        if let Some(stale) = self.stale_after_reload {
            derived.push(("stale_after_reload", stale as f64));
        }
        let sim: Vec<(&str, f64)> = vec![
            ("devices", f64::from(self.devices)),
            ("virtual_secs", self.virtual_secs),
            ("enrolled", self.sim.enrolled as f64),
            ("queries", self.sim.queries as f64),
            ("setup_queries", self.sim.setup_queries as f64),
            ("steady_queries", self.sim.steady_queries as f64),
            ("standbys", self.sim.standbys as f64),
            ("wakes", self.sim.wakes as f64),
            ("churned", self.sim.churned as f64),
            ("replacements", self.sim.replacements as f64),
            ("retransmits", self.sim.retransmits as f64),
            // The digest's low 32 bits: exactly representable in the
            // JSON writer's f64 numbers, still a strong change signal.
            ("trace_digest_lo", f64::from(self.trace_digest as u32)),
        ];
        // Satellite view of the same run: the client side's counters
        // under the obs catalog names, so dashboards join the two
        // sections on one vocabulary.
        let client: Vec<(&str, f64)> = vec![
            (
                Counter::ClientConnectRetries.name(),
                self.connect_retries as f64,
            ),
            (Counter::ClientRequestsSent.name(), self.queries_sent as f64),
            (
                Counter::ClientResponsesReceived.name(),
                self.responses_ok as f64,
            ),
        ];
        // The server's own view, when it answered a Stats frame: every
        // known counter, plus a per-stage latency summary. Owned keys
        // (stage names are composed) bridged into the &str slices the
        // writer takes.
        let server_owned: Vec<(String, f64)> = match &self.server {
            Some(snapshot) => {
                let mut entries = vec![("epoch".to_string(), snapshot.epoch as f64)];
                for counter in Counter::ALL {
                    entries.push((counter.name().to_string(), snapshot.counter(counter) as f64));
                }
                for stage in Stage::ALL {
                    let Some(summary) = snapshot.stage(stage) else {
                        continue;
                    };
                    let stage = stage.name();
                    entries.push((format!("stage_{stage}_count"), summary.count as f64));
                    entries.push((format!("stage_{stage}_p50_us"), us(summary.p50_ns)));
                    entries.push((format!("stage_{stage}_p99_us"), us(summary.p99_ns)));
                    entries.push((format!("stage_{stage}_max_us"), us(summary.max_ns)));
                    entries.push((
                        format!("stage_{stage}_mean_us"),
                        summary.mean_ns() / 1_000.0,
                    ));
                }
                entries
            }
            None => Vec::new(),
        };
        let server: Vec<(&str, f64)> = server_owned
            .iter()
            .map(|(name, value)| (name.as_str(), *value))
            .collect();
        let mut sections: Vec<(&str, &[(&str, f64)])> = vec![
            ("results", &results),
            ("derived", &derived),
            ("sim", &sim),
            ("client", &client),
        ];
        if !server.is_empty() {
            sections.push(("server", &server));
        }
        write_sections(&sections)
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

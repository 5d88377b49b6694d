//! The wall-clock driver: replays a simulated [`FleetTrace`] against a
//! **live** `sentinel serve` instance over real TCP, measuring what the
//! simulation cannot — actual service latency, throughput and
//! reload-propagation lag.
//!
//! The split matters: the simulation is pure and deterministic (same
//! seed ⇒ same trace), while this replay is measurement and inherently
//! wall-clock noisy. Reports keep the two apart.
//!
//! Latency is measured **open-loop**: in paced mode each query has a
//! scheduled wall-clock target derived from its virtual timestamp, and
//! latency counts from that target — so when the server falls behind,
//! queueing delay shows up in the numbers instead of silently slowing
//! the offered load (the coordinated-omission trap).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sentinel_serve::{ClientConfig, ClientError, ErrorCode, SentinelClient};

use crate::config::Pacing;
use crate::pool::FingerprintPool;
use crate::sim::{FleetAction, FleetTrace};
use sentinel_obs::{LogHistogram, MetricsSnapshot};

/// Driver tunables, independent of the simulated scenario.
#[derive(Debug, Clone)]
pub struct DriveConfig {
    /// TCP connections (and driver threads) to spread devices over.
    pub connections: usize,
    /// Virtual→wall-clock mapping.
    pub pacing: Pacing,
    /// Per-connection client configuration; the jitter seed is further
    /// diversified per connection.
    pub client: ClientConfig,
}

impl Default for DriveConfig {
    fn default() -> Self {
        DriveConfig {
            connections: 4,
            pacing: Pacing::Uncapped,
            client: ClientConfig::default(),
        }
    }
}

/// Triggers the mid-run hot reload and returns the new service epoch.
///
/// The driver stays transport-agnostic: the CLI wires this to a wire
/// admin reload against the live server, in-process tests wire it to
/// [`sentinel_core::ServiceCell::replace`].
pub type ReloadHook<'a> = Box<dyn FnMut() -> Result<u64, String> + Send + 'a>;

/// What the reload-under-fire scenario measured.
#[derive(Debug, Clone, Copy)]
pub struct ReloadOutcome {
    /// The epoch the reload installed.
    pub epoch: u64,
    /// Wall nanoseconds (since drive start) when the reload was
    /// acknowledged.
    pub ack_wall_ns: u64,
    /// Worst-case over connections: time from reload acknowledgement
    /// until that connection first saw a response stamped with the new
    /// epoch.
    pub propagation_lag: Duration,
    /// Connections that observed the new epoch before finishing.
    pub connections_observed: usize,
    /// Epoch regressions: responses stamped with a pre-reload epoch
    /// received on a connection that had *already* seen the new epoch.
    /// (Old-epoch responses merely in flight at the reload instant are
    /// expected and not counted.)
    pub stale_responses: u64,
}

/// The merged measurement of one replay.
#[derive(Debug)]
pub struct DriveOutcome {
    /// Per-query latency in nanoseconds (see the module docs for what
    /// "latency" means per pacing mode).
    pub latency: LogHistogram,
    /// Wall-clock span of the whole replay.
    pub wall_elapsed: Duration,
    /// Queries sent.
    pub queries_sent: u64,
    /// Well-formed responses received.
    pub responses_ok: u64,
    /// Transport/protocol/server errors encountered.
    pub errors: u64,
    /// The subset of `errors` that were queries the server shed with a
    /// retryable `Overloaded` answer (after the client's own overload
    /// retries ran out). Shed queries were refused, not corrupted —
    /// under deliberate overload they are the system working as
    /// designed.
    pub shed: u64,
    /// Query batches resent inside the client after a retryable
    /// `Overloaded` answer, summed over connections.
    pub overload_retries: u64,
    /// Connect retries summed over every (re)connection.
    pub connect_retries: u64,
    /// Reload measurement, when the trace carried a reload marker and
    /// a hook was supplied.
    pub reload: Option<ReloadOutcome>,
    /// The server's own metrics snapshot (counters plus per-stage
    /// latency histograms), fetched over a `Stats` frame once the
    /// replay drained. `None` when the extra connection or the Stats
    /// fetch failed — the replay's client-side numbers stand alone
    /// either way.
    pub server: Option<MetricsSnapshot>,
}

impl DriveOutcome {
    /// Sustained queries per second over the replay.
    pub fn qps(&self) -> f64 {
        let secs = self.wall_elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.responses_ok as f64 / secs
    }
}

/// One query to send: virtual send instant plus pool coordinates.
#[derive(Debug, Clone, Copy)]
struct PlannedQuery {
    at_ns: u64,
    type_index: u16,
    variant: u32,
}

/// What one connection thread brings home.
struct WorkerReport {
    latency: LogHistogram,
    sent: u64,
    ok: u64,
    errors: u64,
    shed: u64,
    overload_retries: u64,
    connect_retries: u64,
    first_new_epoch_wall: Option<u64>,
    stale: u64,
}

/// One connection's replay loop: pace, send, record, watch epochs.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    plan: &[PlannedQuery],
    pool: &FingerprintPool,
    addr: &str,
    client_config: ClientConfig,
    pacing: Pacing,
    t0: Instant,
    sent_total: &AtomicU64,
    ack_epoch: &AtomicU64,
) -> WorkerReport {
    let mut report = WorkerReport {
        latency: LogHistogram::new(),
        sent: 0,
        ok: 0,
        errors: 0,
        shed: 0,
        overload_retries: 0,
        connect_retries: 0,
        first_new_epoch_wall: None,
        stale: 0,
    };
    if plan.is_empty() {
        return report;
    }
    let mut client = match SentinelClient::connect(addr, client_config.clone()) {
        Ok(client) => client,
        Err(_) => {
            report.errors += plan.len() as u64;
            return report;
        }
    };
    report.connect_retries += client.stats().connect_retries;
    for query in plan {
        let target = wall_target(pacing, query.at_ns);
        if let Some(target_ns) = target {
            let elapsed = t0.elapsed().as_nanos() as u64;
            if target_ns > elapsed {
                std::thread::sleep(Duration::from_nanos(target_ns - elapsed));
            }
        }
        let reference_ns = match target {
            Some(target_ns) => target_ns,
            None => t0.elapsed().as_nanos() as u64,
        };
        let fingerprint = pool.get(usize::from(query.type_index), query.variant);
        report.sent += 1;
        sent_total.fetch_add(1, Ordering::Relaxed);
        match client.query_batch_stamped(std::slice::from_ref(fingerprint)) {
            Ok(batch) => {
                let now_ns = t0.elapsed().as_nanos() as u64;
                report.latency.record(now_ns.saturating_sub(reference_ns));
                report.ok += 1;
                let ack = ack_epoch.load(Ordering::Acquire);
                if ack != 0 {
                    match batch.epoch {
                        Some(epoch) if epoch >= ack => {
                            report.first_new_epoch_wall.get_or_insert(now_ns);
                        }
                        // A pre-reload stamp is only a regression once
                        // this connection has seen the new epoch;
                        // before that it is just an in-flight batch
                        // pinned to the old model.
                        Some(_) if report.first_new_epoch_wall.is_some() => {
                            report.stale += 1;
                        }
                        _ => {}
                    }
                }
            }
            // A shed query is a typed refusal on a healthy connection
            // (the client's own overload retries already ran out):
            // count it and keep the connection — reconnecting would
            // only add to the stampede the server is shedding against.
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }) => {
                report.errors += 1;
                report.shed += 1;
            }
            Err(_) => {
                report.errors += 1;
                // One reconnect attempt keeps a single dropped
                // connection from voiding the rest of this worker's
                // plan.
                match SentinelClient::connect(addr, client_config.clone()) {
                    Ok(fresh) => {
                        report.overload_retries += client.stats().overload_retries;
                        report.connect_retries += fresh.stats().connect_retries;
                        client = fresh;
                    }
                    Err(_) => {
                        report.errors += plan.len() as u64 - report.sent;
                        break;
                    }
                }
            }
        }
    }
    report.overload_retries += client.stats().overload_retries;
    report
}

fn wall_target(pacing: Pacing, at_ns: u64) -> Option<u64> {
    match pacing {
        Pacing::Uncapped => None,
        Pacing::Scaled(speed) => {
            assert!(speed > 0.0, "pacing speedup must be positive");
            Some((at_ns as f64 / speed) as u64)
        }
    }
}

/// Replays `trace` against the server at `addr`.
///
/// Devices are partitioned over [`DriveConfig::connections`] by id, so
/// each device's queries stay ordered on one connection. When the
/// trace carries a reload marker and `reload_hook` is given, a
/// dedicated thread fires the hook at the marker's pace-mapped wall
/// instant (or once half the queries are out, under uncapped pacing)
/// and every connection watches response epoch stamps to time the
/// propagation.
///
/// # Errors
///
/// Returns a description when no connection could be established or
/// the replay got zero successful responses for a non-empty plan.
pub fn drive(
    trace: &FleetTrace,
    pool: &FingerprintPool,
    addr: &str,
    config: &DriveConfig,
    mut reload_hook: Option<ReloadHook<'_>>,
) -> Result<DriveOutcome, String> {
    let connections = config.connections.max(1);
    let mut plans: Vec<Vec<PlannedQuery>> = vec![Vec::new(); connections];
    let mut reload_at_ns = None;
    for event in &trace.events {
        match event.action {
            FleetAction::Query {
                type_index,
                variant,
                ..
            } => {
                plans[event.device as usize % connections].push(PlannedQuery {
                    at_ns: event.at_ns,
                    type_index,
                    variant,
                });
            }
            FleetAction::Reload => reload_at_ns = Some(event.at_ns),
            _ => {}
        }
    }
    let total: u64 = plans.iter().map(|p| p.len() as u64).sum();

    let t0 = Instant::now();
    let sent_total = AtomicU64::new(0);
    let finished_workers = AtomicU64::new(0);
    // ack_epoch doubles as the "reload happened" flag (epochs are >= 1);
    // ack_wall is stored before it so readers that see the epoch also
    // see a valid timestamp.
    let ack_epoch = AtomicU64::new(0);
    let ack_wall = AtomicU64::new(0);
    let reload_result: std::sync::Mutex<Option<Result<u64, String>>> = std::sync::Mutex::new(None);
    let want_reload = reload_at_ns.is_some() && reload_hook.is_some();

    let reports = std::thread::scope(|scope| {
        if want_reload {
            let reload_at = reload_at_ns.expect("checked above");
            let hook = reload_hook.as_mut().expect("checked above");
            let sent_total = &sent_total;
            let finished_workers = &finished_workers;
            let ack_epoch = &ack_epoch;
            let ack_wall = &ack_wall;
            let reload_result = &reload_result;
            let pacing = config.pacing;
            scope.spawn(move || {
                match wall_target(pacing, reload_at) {
                    Some(target_ns) => {
                        let elapsed = t0.elapsed().as_nanos() as u64;
                        if target_ns > elapsed {
                            std::thread::sleep(Duration::from_nanos(target_ns - elapsed));
                        }
                    }
                    None => {
                        // Uncapped runs have no wall mapping: fire once
                        // half the offered load is out, mid-burst (or
                        // when the workers finish early — e.g. all
                        // erroring out — so this thread cannot hang).
                        while sent_total.load(Ordering::Relaxed) < total / 2
                            && (finished_workers.load(Ordering::Relaxed) as usize) < connections
                        {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                }
                let outcome = hook();
                if let Ok(epoch) = outcome {
                    ack_wall.store(t0.elapsed().as_nanos() as u64, Ordering::Release);
                    ack_epoch.store(epoch, Ordering::Release);
                }
                *reload_result.lock().expect("reload result lock") = Some(outcome);
            });
        }

        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(worker, plan)| {
                let client_config = ClientConfig {
                    retry_jitter_seed: config.client.retry_jitter_seed ^ (worker as u64 + 1),
                    ..config.client.clone()
                };
                let pacing = config.pacing;
                let sent_total = &sent_total;
                let finished_workers = &finished_workers;
                let ack_epoch = &ack_epoch;
                scope.spawn(move || {
                    let report = run_worker(
                        plan,
                        pool,
                        addr,
                        client_config,
                        pacing,
                        t0,
                        sent_total,
                        ack_epoch,
                    );
                    finished_workers.fetch_add(1, Ordering::Relaxed);
                    report
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect::<Vec<_>>()
    });

    let wall_elapsed = t0.elapsed();
    let mut latency = LogHistogram::new();
    let mut queries_sent = 0;
    let mut responses_ok = 0;
    let mut errors = 0;
    let mut shed = 0;
    let mut overload_retries = 0;
    let mut connect_retries = 0;
    let mut stale = 0;
    let mut worst_lag_ns: u64 = 0;
    let mut observed = 0;
    let ack_at = ack_wall.load(Ordering::Acquire);
    for report in reports {
        latency.merge(&report.latency);
        queries_sent += report.sent;
        responses_ok += report.ok;
        errors += report.errors;
        shed += report.shed;
        overload_retries += report.overload_retries;
        connect_retries += report.connect_retries;
        stale += report.stale;
        if let Some(first) = report.first_new_epoch_wall {
            observed += 1;
            worst_lag_ns = worst_lag_ns.max(first.saturating_sub(ack_at));
        }
    }
    if total > 0 && responses_ok == 0 {
        return Err(format!(
            "no successful responses from {addr} ({errors} errors over {total} planned queries)"
        ));
    }
    let reload = if want_reload {
        match reload_result.lock().expect("reload result lock").take() {
            Some(Ok(epoch)) => Some(ReloadOutcome {
                epoch,
                ack_wall_ns: ack_at,
                propagation_lag: Duration::from_nanos(worst_lag_ns),
                connections_observed: observed,
                stale_responses: stale,
            }),
            Some(Err(error)) => return Err(format!("reload hook failed: {error}")),
            None => return Err("reload thread never ran its hook".to_string()),
        }
    } else {
        None
    };
    // One extra connection after the replay drained: the server-side
    // view of the run just measured. Best-effort — a refused
    // connection or a failed Stats fetch only costs this section, not
    // the replay.
    let server = SentinelClient::connect(addr, config.client.clone())
        .ok()
        .and_then(|mut client| client.server_stats().ok());
    Ok(DriveOutcome {
        latency,
        wall_elapsed,
        queries_sent,
        responses_ok,
        errors,
        shed,
        overload_retries,
        connect_retries,
        reload,
        server,
    })
}

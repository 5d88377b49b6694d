//! `sentinel-fleet`: a discrete-event fleet simulator that drives a
//! **live** `sentinel serve` instance like a large ISP device
//! population.
//!
//! The paper evaluates identification one device at a time; the north
//! star here is serving millions of enrolled devices. This crate turns
//! that slogan into a measured regime in two cleanly separated phases:
//!
//! 1. **Simulate** ([`simulate`]): a seeded discrete-event simulation
//!    (binary-heap event queue over virtual nanoseconds) of a
//!    heterogeneous device population — enrollment ramp, setup-phase
//!    query bursts, steady re-fingerprinting, standby/wake cycles,
//!    churn with replacement — filtered through a per-link network
//!    model (RTT, loss-driven retransmission delays, a rate cap).
//!    The output [`FleetTrace`] is a *pure function of the config*:
//!    same seed, same trace, bit for bit.
//! 2. **Drive** ([`drive`]): replay the trace's queries over real TCP
//!    against a live server through a pool of [`SentinelClient`]
//!    connections — either paced (virtual time mapped onto the wall
//!    clock, latency measured open-loop against each query's schedule
//!    so queueing delay is visible) or uncapped (throughput ceiling).
//!    A mid-run hot reload is fired under load and its epoch
//!    propagation timed via the wire v3 response stamps.
//!
//! [`FleetReport::compose`] merges both halves;
//! [`FleetReport::lines`] is the summary the CLI prints.
//!
//! In-process miniature fleets for tests need no binary: build a
//! service, [`sentinel_serve::serve`] it on a loopback ephemeral port,
//! then `simulate` + `drive` against it (see the crate tests and
//! `tests/fleet_loopback.rs` at the workspace root).
//!
//! [`SentinelClient`]: sentinel_serve::SentinelClient

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod pool;
pub mod report;
pub mod sim;

pub use config::{FleetConfig, LinkConfig, Pacing, MAX_RETRANSMITS};
pub use driver::{drive, DriveConfig, DriveOutcome, ReloadHook, ReloadOutcome};
pub use pool::FingerprintPool;
pub use report::FleetReport;
/// The latency histogram fleet reports are built on — promoted into
/// `sentinel-obs` as the workspace's single implementation; re-exported
/// here so existing fleet callers keep compiling unchanged.
pub use sentinel_obs::LogHistogram;
pub use sim::{simulate, FleetAction, FleetTrace, SimSummary, TraceEvent, DEVICE_NONE};

/// End-to-end convenience: simulate `config` over `pool`'s types,
/// drive the live server at `addr`, and compose the report.
///
/// # Errors
///
/// Propagates [`drive`]'s error string.
pub fn run(
    config: &FleetConfig,
    pool: &FingerprintPool,
    addr: &str,
    drive_config: &DriveConfig,
    reload_hook: Option<ReloadHook<'_>>,
) -> Result<(FleetTrace, FleetReport), String> {
    let trace = simulate(config, pool.types());
    let outcome = drive(&trace, pool, addr, drive_config, reload_hook)?;
    let report = FleetReport::compose(config, &trace, &outcome);
    Ok((trace, report))
}

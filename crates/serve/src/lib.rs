//! `sentinel-serve`: the IoT Security Service over a socket.
//!
//! The paper's deployment model (§IV) runs identification as a central
//! *IoT Security Service* answering fingerprint queries for fleets of
//! Security Gateways. This crate turns the in-process
//! [`sentinel_core::IoTSecurityService`] into exactly that: a
//! [`wire`] protocol (versioned, length-prefixed binary frames), a
//! multi-threaded TCP [`server`], and a blocking [`client`] —
//! everything a gateway needs to query a remote service instead of a
//! linked library.
//!
//! ```no_run
//! use sentinel_serve::{serve, ClientConfig, SentinelClient, ServerConfig};
//! # fn service() -> sentinel_core::IoTSecurityService { unimplemented!() }
//! # fn fingerprint() -> sentinel_fingerprint::Fingerprint { unimplemented!() }
//!
//! let handle = serve(service(), "127.0.0.1:0", ServerConfig::default())?;
//! let mut client = SentinelClient::connect(handle.local_addr(), ClientConfig::default())?;
//! let result = client.query(&fingerprint())?;
//! println!("isolation: {}", result.response.isolation);
//! handle.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Responses carry the same `Copy` [`sentinel_core::ServiceResponse`]
//! the in-process call returns — a batch queried over loopback is
//! bit-identical to `handle_batch` on the same service.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{
    ClientConfig, ClientError, ClientStats, QueryResult, SentinelClient, StampedBatch,
};
pub use sentinel_obs::{Counter, HistogramSummary, MetricsRegistry, MetricsSnapshot, Stage};
pub use server::{serve, serve_cell, ReloadRate, ServerConfig, ServerHandle, ServerStats};
pub use wire::{
    ErrorCode, Message, QueryRequest, QueryResponse, ReloadAck, ReloadRequest, WireError, VERSION,
};

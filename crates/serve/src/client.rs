//! The blocking query client: connect (with retries), send batches of
//! fingerprints, read ordered responses.

use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use sentinel_core::ServiceResponse;
use sentinel_fingerprint::Fingerprint;

use crate::wire::{
    self, ErrorCode, Message, ReloadAck, ReloadRequest, ResponseItem, WireError, HEADER_LEN,
};

/// Tunables for [`SentinelClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total connection attempts before giving up. Default 5.
    pub connect_attempts: u32,
    /// Base pause before the first retry; each further retry doubles
    /// it (see [`ClientConfig::max_retry_delay`]). Default 100 ms.
    pub retry_delay: Duration,
    /// Ceiling on the exponential backoff between connection attempts.
    /// Default 2 s.
    pub max_retry_delay: Duration,
    /// Seed for the jitter added to each backoff pause. Two clients
    /// with the same seed sleep identical schedules, so tests stay
    /// deterministic; give fleet members distinct seeds to spread
    /// their reconnect stampede. Default 0.
    pub retry_jitter_seed: u64,
    /// Per-read/-write timeout once connected. Default 10 s.
    pub io_timeout: Duration,
    /// Maximum accepted payload length per response frame. Default
    /// 1 MiB.
    pub max_frame_bytes: u32,
    /// Whether queries ask the server to resolve type names.
    /// Default `false` (ids only — the allocation-light mode).
    pub resolve_names: bool,
    /// How many times a query batch answered with the retryable
    /// [`ErrorCode::Overloaded`] error is resent, sleeping the same
    /// seeded exponential backoff schedule as connects between
    /// attempts. A shed request was never executed, so resending is
    /// always safe. `0` surfaces the error immediately. Default 4.
    pub overload_retries: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_attempts: 5,
            retry_delay: Duration::from_millis(100),
            max_retry_delay: Duration::from_secs(2),
            retry_jitter_seed: 0,
            io_timeout: Duration::from_secs(10),
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            resolve_names: false,
            overload_retries: 4,
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport failed (connect, read or write).
    Io(std::io::Error),
    /// The server's bytes violated the wire format.
    Wire(WireError),
    /// The server answered with an error frame.
    Server {
        /// The reported error code.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server sent a well-formed but out-of-protocol message
    /// (e.g. a request, or a response of the wrong length).
    Protocol(String),
}

impl ClientError {
    /// Whether resending the same request after a backoff is safe and
    /// plausibly useful. `true` exactly for server-shed requests
    /// ([`ErrorCode::Overloaded`]): the server refused before
    /// executing anything, and the condition is transient by
    /// definition. Everything else is either fatal (protocol, wire) or
    /// of unknown progress (transport death mid-request).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Overloaded,
                ..
            }
        )
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::Protocol(message) => write!(f, "protocol violation: {message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// The deterministic backoff schedule: attempt `retry` (1-based)
/// sleeps `min(retry_delay << (retry - 1), max_retry_delay)` plus a
/// seeded jitter of up to half that, so a herd of clients with
/// distinct seeds de-synchronises while any single schedule replays
/// bit-identically from its seed.
fn backoff_delay(config: &ClientConfig, retry: u32) -> Duration {
    let base = config
        .retry_delay
        .checked_mul(
            1u32.checked_shl(retry.saturating_sub(1))
                .unwrap_or(u32::MAX),
        )
        .unwrap_or(config.max_retry_delay)
        .min(config.max_retry_delay);
    let jitter_span = base.as_nanos() as u64 / 2;
    if jitter_span == 0 {
        return base;
    }
    // One stream per (seed, retry) pair: the schedule is a pure
    // function of the config, independent of call interleaving.
    let mut rng = SmallRng::seed_from_u64(config.retry_jitter_seed ^ u64::from(retry));
    base + Duration::from_nanos(rng.gen_range(0..jitter_span))
}

/// Counters a [`SentinelClient`] keeps about its own traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Failed connection attempts survived during [`SentinelClient::connect`].
    pub connect_retries: u64,
    /// Query frames written (single queries count as 1-batches).
    pub requests_sent: u64,
    /// Well-formed query responses received.
    pub responses_received: u64,
    /// Query batches resent after a retryable [`ErrorCode::Overloaded`]
    /// answer (each resend counts once, whatever its outcome).
    pub overload_retries: u64,
}

/// One identification returned over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The verdict, bit-identical to what the in-process service
    /// returns for the same fingerprint.
    pub response: ServiceResponse,
    /// The resolved type name, when [`ClientConfig::resolve_names`]
    /// was set and the device was identified.
    pub name: Option<String>,
}

/// A batch of results together with the service epoch that answered
/// it — the payload of [`SentinelClient::query_batch_stamped`].
#[derive(Debug, Clone, PartialEq)]
pub struct StampedBatch {
    /// One result per queried fingerprint, in request order.
    pub results: Vec<QueryResult>,
    /// The serving [`sentinel_core::ServiceCell`] epoch; `None` only
    /// when the response was left unstamped (0 on the wire).
    pub epoch: Option<u64>,
}

/// A blocking connection to a `sentinel-serve` server.
#[derive(Debug)]
pub struct SentinelClient {
    stream: TcpStream,
    peer: SocketAddr,
    config: ClientConfig,
    buf: Vec<u8>,
    /// Response payloads land here, resized in place — steady-state
    /// receives allocate nothing for the frame itself.
    read_buf: Vec<u8>,
    stats: ClientStats,
    last_epoch: Option<u64>,
}

impl SentinelClient {
    /// Connects, retrying up to [`ClientConfig::connect_attempts`]
    /// times under bounded exponential backoff with seeded jitter —
    /// enough for "start server, start client" races on loopback and
    /// for transient listener backlogs, without the thundering herd a
    /// fixed pause invites.
    pub fn connect(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )));
        }
        let attempts = config.connect_attempts.max(1);
        let mut last_error: Option<std::io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(&config, attempt));
            }
            for addr in &addrs {
                match TcpStream::connect(addr) {
                    Ok(stream) => {
                        stream.set_read_timeout(Some(config.io_timeout))?;
                        stream.set_write_timeout(Some(config.io_timeout))?;
                        let _ = stream.set_nodelay(true);
                        return Ok(SentinelClient {
                            peer: *addr,
                            stream,
                            config,
                            buf: Vec::new(),
                            read_buf: Vec::new(),
                            stats: ClientStats {
                                connect_retries: u64::from(attempt),
                                ..ClientStats::default()
                            },
                            last_epoch: None,
                        });
                    }
                    Err(e) => last_error = Some(e),
                }
            }
        }
        Err(ClientError::Io(last_error.expect("at least one attempt")))
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// This connection's traffic counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The service epoch stamped on the most recent query response.
    /// `None` before the first response.
    pub fn last_epoch(&self) -> Option<u64> {
        self.last_epoch
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.send(&Message::Ping)?;
        match self.receive()? {
            Message::Pong => Ok(()),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected pong, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Identifies one fingerprint.
    pub fn query(&mut self, fingerprint: &Fingerprint) -> Result<QueryResult, ClientError> {
        let mut results = self.query_batch(std::slice::from_ref(fingerprint))?;
        results.pop().ok_or_else(|| {
            ClientError::Protocol("server answered a 1-query batch with 0 items".to_string())
        })
    }

    /// Identifies a batch of fingerprints, returning one result per
    /// fingerprint in request order — the remote equivalent of
    /// [`sentinel_core::IoTSecurityService::handle_batch`].
    pub fn query_batch(
        &mut self,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<QueryResult>, ClientError> {
        Ok(self.query_batch_stamped(fingerprints)?.results)
    }

    /// Like [`SentinelClient::query_batch`], but also surfaces the
    /// service epoch the server answered under — the signal fleet
    /// harnesses use to watch a hot reload propagate request by
    /// request.
    ///
    /// A server answering [`ErrorCode::Overloaded`] shed the batch
    /// without executing it; the client resends up to
    /// [`ClientConfig::overload_retries`] times, sleeping the seeded
    /// backoff schedule between attempts, before surfacing the error.
    pub fn query_batch_stamped(
        &mut self,
        fingerprints: &[Fingerprint],
    ) -> Result<StampedBatch, ClientError> {
        let mut attempt = 0u32;
        loop {
            match self.query_batch_stamped_once(fingerprints) {
                Err(error) if error.is_retryable() && attempt < self.config.overload_retries => {
                    attempt += 1;
                    self.stats.overload_retries += 1;
                    std::thread::sleep(backoff_delay(&self.config, attempt));
                }
                outcome => return outcome,
            }
        }
    }

    /// One send/receive round of [`SentinelClient::query_batch_stamped`],
    /// with no overload retry.
    fn query_batch_stamped_once(
        &mut self,
        fingerprints: &[Fingerprint],
    ) -> Result<StampedBatch, ClientError> {
        // Encode straight from the borrowed slice — building an owned
        // QueryRequest would deep-copy every fingerprint column.
        self.buf.clear();
        wire::encode_query_request_frame(self.config.resolve_names, fingerprints, &mut self.buf)?;
        self.stream.write_all(&self.buf)?;
        self.stream.flush()?;
        self.stats.requests_sent += 1;
        match self.receive()? {
            Message::QueryResponse(response) => {
                if response.items.len() != fingerprints.len() {
                    return Err(ClientError::Protocol(format!(
                        "queried {} fingerprints, server answered {}",
                        fingerprints.len(),
                        response.items.len()
                    )));
                }
                self.stats.responses_received += 1;
                if response.epoch.is_some() {
                    self.last_epoch = response.epoch;
                }
                Ok(StampedBatch {
                    results: response
                        .items
                        .into_iter()
                        .map(|ResponseItem { response, name }| QueryResult { response, name })
                        .collect(),
                    epoch: response.epoch,
                })
            }
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected a query response, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Fetches the server's live metrics snapshot: the lock-free
    /// registry's counters and per-stage latency histograms, overlaid
    /// with the service epoch, reload count and compiled-bank scan
    /// counters. Stats is read-only introspection and works against
    /// servers whose admin channel is disabled.
    pub fn server_stats(&mut self) -> Result<sentinel_obs::MetricsSnapshot, ClientError> {
        self.send(&Message::Stats)?;
        match self.receive()? {
            Message::StatsResponse(snapshot) => Ok(snapshot),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected a stats response, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Pushes a model document to the server's admin channel: the
    /// server loads it into a fresh service and hot-swaps it as the
    /// next epoch, without dropping any connection. Requires the
    /// server to run with its admin flag set.
    ///
    /// `model` is the raw text of a model document (as written by
    /// `sentinel_core::persist::write_identifier`); its type registry
    /// must extend the served one (existing ids stable, new types
    /// appended) or the server answers
    /// [`ErrorCode::ReloadRejected`].
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::AdminDisabled`] or
    /// [`ErrorCode::ReloadRejected`] for refused reloads, plus the
    /// usual transport/wire failures.
    pub fn reload(&mut self, model: Vec<u8>) -> Result<ReloadAck, ClientError> {
        let sent = self.send(&Message::Reload(ReloadRequest { model }));
        // The encode buffer just held a whole model document; don't
        // pin that capacity on a long-lived client whose queries need
        // a fraction of it.
        self.buf = Vec::new();
        sent?;
        match self.receive()? {
            Message::ReloadAck(ack) => Ok(ack),
            Message::Error(e) => Err(ClientError::Server {
                code: e.code,
                message: e.message,
            }),
            other => Err(ClientError::Protocol(format!(
                "expected a reload ack, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    fn send(&mut self, message: &Message) -> Result<(), ClientError> {
        self.buf.clear();
        wire::encode_frame(message, &mut self.buf)?;
        self.stream.write_all(&self.buf)?;
        self.stream.flush()?;
        Ok(())
    }

    fn receive(&mut self) -> Result<Message, ClientError> {
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header)?;
        let header = wire::decode_header(&header)?;
        if header.len > self.config.max_frame_bytes {
            return Err(ClientError::Wire(WireError::FrameTooLarge {
                len: header.len,
                max: self.config.max_frame_bytes,
            }));
        }
        // Reuse one receive buffer: resize in place instead of a fresh
        // allocation per frame.
        self.read_buf.resize(header.len as usize, 0);
        self.stream.read_exact(&mut self.read_buf)?;
        Ok(wire::decode_payload_at(
            header.version,
            header.kind,
            &self.read_buf,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let config = ClientConfig {
            retry_delay: Duration::from_millis(100),
            max_retry_delay: Duration::from_millis(450),
            ..ClientConfig::default()
        };
        for (retry, base_ms) in [(1u32, 100u64), (2, 200), (3, 400), (4, 450), (40, 450)] {
            let delay = backoff_delay(&config, retry);
            let base = Duration::from_millis(base_ms);
            assert!(
                delay >= base && delay < base + base / 2 + Duration::from_nanos(1),
                "retry {retry}: {delay:?} outside [{base:?}, {base:?} + 50%)",
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let config = ClientConfig::default();
        for retry in 1..=6 {
            assert_eq!(backoff_delay(&config, retry), backoff_delay(&config, retry));
        }
        let reseeded = ClientConfig {
            retry_jitter_seed: 99,
            ..ClientConfig::default()
        };
        assert!(
            (1..=6).any(|r| backoff_delay(&config, r) != backoff_delay(&reseeded, r)),
            "different seeds should produce a different schedule",
        );
    }

    #[test]
    fn backoff_survives_extreme_retry_counts() {
        let config = ClientConfig::default();
        assert_eq!(backoff_delay(&config, u32::MAX), {
            // Shift saturates, so the cap applies (plus jitter).
            let d = backoff_delay(&config, u32::MAX);
            assert!(d >= config.max_retry_delay);
            assert!(d < config.max_retry_delay * 3 / 2 + Duration::from_nanos(1));
            d
        });
        // A zero base delay must not panic on the jitter draw.
        let zero = ClientConfig {
            retry_delay: Duration::ZERO,
            ..ClientConfig::default()
        };
        assert_eq!(backoff_delay(&zero, 1), Duration::ZERO);
    }
}

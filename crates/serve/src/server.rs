//! The threaded TCP query server: an [`IoTSecurityService`] behind a
//! listening socket, hot-swappable under live traffic.
//!
//! Architecture: one accept thread owns the [`TcpListener`], blocks in
//! `accept` (a connection is handed off the moment it arrives) and
//! feeds accepted connections into a **bounded** channel drained by a
//! fixed set of worker threads (scoped with [`std::thread::scope`], so
//! the workers borrow the shared [`ServiceCell`] instead of cloning
//! it); connection bursts beyond workers + backlog are refused at
//! accept time rather than parked on an unbounded queue. Each worker
//! serves one connection at a time and computes every frame it reads
//! on its own thread: decode, identify, encode, send. A query costs no
//! thread hand-off, and the warm path never spawns a thread; only a
//! batch of more than [`sentinel_core::BATCH_CHUNK`] fingerprints fans
//! its chunks out over the cell's [`sentinel_pool::ComputePool`].
//! [`ServerConfig::max_inflight`] caps how many connections compute at
//! once. Shutdown is graceful — a flag and one throw-away connection
//! wake `accept`, workers finish their in-flight frame and notice the
//! flag at their next idle check, and [`ServerHandle::shutdown`] joins
//! everything before returning the final stats.
//!
//! # Epochs and hot reload
//!
//! The served model lives in a [`ServiceCell`]: workers pin the
//! current epoch **once per frame** — never mid-batch, so a batch
//! response is always computed against exactly one model — and
//! re-pin at the next frame boundary with a wait-free epoch check.
//! Writers (a knowledge edit or identifier swap through the cell in the
//! owning process, or an admin client sending a `Reload` frame when
//! [`ServerConfig::admin`] is set) publish a fully-built replacement
//! service atomically; no connection is dropped, no in-flight query
//! torn.
//!
//! # Robustness guards, per connection
//!
//! * the announced payload length is checked against
//!   [`ServerConfig::max_frame_bytes`] (or, for admin reload frames,
//!   [`ServerConfig::max_reload_bytes`]) **before** any buffer is
//!   sized,
//! * payloads land in one per-connection read buffer that is resized
//!   in place — steady-state frames allocate nothing on the read side,
//! * a started frame must complete within [`ServerConfig::io_timeout`]
//!   — one whole-frame deadline across all reads, so drip-feeding
//!   bytes cannot stretch it (slow-loris),
//! * a connection idle longer than [`ServerConfig::idle_timeout`] is
//!   closed, so silent connections cannot pin workers forever,
//! * malformed frames are answered with a typed error frame and the
//!   connection is closed; the server itself keeps serving,
//! * query batches over [`ServerConfig::max_batch`] are refused
//!   without being identified,
//! * a panic while serving a connection (e.g. from service code on a
//!   pathological fingerprint) is caught per connection: the
//!   connection dies, [`ServerStats::worker_panics`] increments, and
//!   the worker moves on to the next connection.
//!
//! # Observability
//!
//! Every lifecycle event and every answered frame is recorded **live**
//! into a lock-free [`MetricsRegistry`] (one atomic counter per event,
//! one stage-histogram shard per worker) rather than folded in at
//! connection close, so a poller always sees current totals even under
//! long-lived connections. Query frames additionally record four stage
//! latencies — payload decode, identification scan, response encode,
//! and the whole frame — into the recording worker's own histogram
//! shard: the warm query path pays a handful of relaxed atomic RMWs
//! and two clock reads per stage, no locks and no allocation. The
//! registry is readable three ways: in-process via
//! [`ServerHandle::metrics`] / [`ServerHandle::metrics_snapshot`], as
//! a [`ServerStats`] compatibility snapshot, and over the wire via the
//! `Stats` frame (answered to any peer — it is read-only
//! introspection and deliberately not admin-gated, so dashboards can
//! watch servers whose admin channel is off).

use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sentinel_core::{persist, IoTSecurityService, ServiceCell, ServiceEpoch};
use sentinel_obs::{Counter, MetricsRegistry, MetricsSnapshot, Stage};

use crate::wire::{
    self, ErrorCode, ErrorFrame, FrameHeader, Message, QueryRequest, QueryResponse, ReloadAck,
    ResponseItem, WireError, HEADER_LEN,
};

/// Test-only fault injection: called with every admitted query request
/// on the connection thread, just before the batch is computed, so
/// tests and the chaos harness can make a handler panic (or stall)
/// deterministically. See [`ServerConfig::fault_injection`].
pub type FaultInjection = Arc<dyn Fn(&QueryRequest) + Send + Sync>;

/// Test-only reload fault injection: called with every admitted admin
/// reload payload inside the panic-contained call that validates it,
/// so tests can panic mid-reload and exercise the rollback path. See
/// [`ServerConfig::reload_fault_injection`].
pub type ReloadFaultInjection = Arc<dyn Fn(&[u8]) + Send + Sync>;

/// Token-bucket rate limit for admin reload frames: at most `burst`
/// reloads back-to-back, refilling at `refill_per_sec` tokens per
/// second. Reloads recompile the whole classifier bank — the heaviest
/// request the server takes — so an admin peer stuck in a retry loop
/// (or a hostile one) must not be able to keep the server rebuilding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReloadRate {
    /// Maximum reload frames admitted back-to-back from a full bucket.
    pub burst: u32,
    /// Tokens refilled per second (fractional rates allowed; `0.0`
    /// means the bucket never refills — useful in tests).
    pub refill_per_sec: f64,
}

/// How often an idle connection re-checks the shutdown flag: a read
/// returns the moment a byte arrives, so this bounds shutdown latency only.
const SHUTDOWN_CHECK: Duration = Duration::from_millis(100);

/// Pause after a failed `accept` or wake connect, so a persistent
/// error (`EMFILE`) cannot spin a loop that otherwise never sleeps.
const ERROR_PAUSE: Duration = Duration::from_millis(100);

/// Tunables for [`serve`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Connection threads (= concurrently served connections), with a
    /// hand-off backlog of `workers * 4` accepted connections behind
    /// them; a burst beyond both is closed at accept time and counted
    /// in [`ServerStats::connections_refused`]. Each thread also
    /// computes the frames its connection sends, so this bounds
    /// concurrent compute too. Default 4.
    pub workers: usize,
    /// Maximum accepted payload length per frame. Frames announcing
    /// more are refused before any allocation. Default 1 MiB.
    pub max_frame_bytes: u32,
    /// Maximum fingerprints per query batch. Default 4096.
    pub max_batch: usize,
    /// Whole-frame read deadline: once a frame's first byte arrives,
    /// the rest of the frame must arrive within this budget or the
    /// connection is dropped (slow-loris guard — the deadline spans
    /// all reads of the frame, not each read separately). Default 10 s.
    pub io_timeout: Duration,
    /// How long a connection may sit idle between frames before the
    /// server closes it, freeing its worker for queued connections.
    /// Default 60 s.
    pub idle_timeout: Duration,
    /// Whether the admin channel is enabled: when `true`, `Reload`
    /// frames hot-swap the served model; when `false` (the default)
    /// they are answered with an [`ErrorCode::AdminDisabled`] error
    /// frame and the connection is closed.
    pub admin: bool,
    /// Payload cap for admin reload frames — model documents are far
    /// larger than query batches, so they get their own limit (applied
    /// only when [`ServerConfig::admin`] is set; unauthorized peers
    /// stay bounded by [`ServerConfig::max_frame_bytes`]). Default
    /// 64 MiB.
    pub max_reload_bytes: u32,
    /// Server-wide in-flight work budget: at most this many decoded
    /// query batches are computed at once, across all connection
    /// threads. A batch that cannot take a permit within
    /// [`ServerConfig::queue_deadline`] is shed with a retryable
    /// [`ErrorCode::Overloaded`] answer instead of waiting behind a
    /// saturated server. `0` (the default) disables admission control.
    pub max_inflight: usize,
    /// How long a decoded batch may wait for an in-flight permit
    /// before it is shed. By the time the budget has been full this
    /// long the answer would be stale anyway — shedding early keeps
    /// the queue short and tells the client to back off. Only
    /// meaningful with [`ServerConfig::max_inflight`] > 0; `ZERO`
    /// means shed immediately when the budget is full. Default 1 s.
    pub queue_deadline: Duration,
    /// Token-bucket rate limit on admin reload frames. `None` (the
    /// default) disables the limit; rate-limited reloads are answered
    /// with a retryable [`ErrorCode::Overloaded`] error and counted in
    /// [`Counter::ReloadsRateLimited`].
    pub reload_rate: Option<ReloadRate>,
    /// Test-only hook: invoked with every admitted query request on
    /// the connection thread before it is handled. Lets tests inject a
    /// panic into the serving path; leave `None` (the default) in
    /// production.
    #[doc(hidden)]
    pub fault_injection: Option<FaultInjection>,
    /// Test-only hook: invoked with every admitted reload payload
    /// inside the panic-contained call, before validation. Lets tests
    /// panic mid-reload to exercise rollback; leave `None` (the
    /// default) in production.
    #[doc(hidden)]
    pub reload_fault_injection: Option<ReloadFaultInjection>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("max_frame_bytes", &self.max_frame_bytes)
            .field("max_batch", &self.max_batch)
            .field("io_timeout", &self.io_timeout)
            .field("idle_timeout", &self.idle_timeout)
            .field("admin", &self.admin)
            .field("max_reload_bytes", &self.max_reload_bytes)
            .field("max_inflight", &self.max_inflight)
            .field("queue_deadline", &self.queue_deadline)
            .field("reload_rate", &self.reload_rate)
            .field(
                "fault_injection",
                &self.fault_injection.as_ref().map(|_| "<hook>"),
            )
            .field(
                "reload_fault_injection",
                &self.reload_fault_injection.as_ref().map(|_| "<hook>"),
            )
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            max_batch: 4096,
            io_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            admin: false,
            max_reload_bytes: 64 << 20,
            max_inflight: 0,
            queue_deadline: Duration::from_secs(1),
            reload_rate: None,
            fault_injection: None,
            reload_fault_injection: None,
        }
    }
}

/// Admission control over decoded batches: a fixed budget of in-flight
/// permits guarding the compute each connection thread starts.
/// Waiters block on a condvar until a permit frees or their queue
/// deadline passes — work that would go stale in the queue is shed at
/// the gate (with a retryable [`ErrorCode::Overloaded`] answer)
/// instead of computed late.
///
/// A budget of `0` disables the gate: `acquire` returns a no-op permit
/// without touching the lock, so servers that do not opt in pay one
/// branch on the warm path.
struct InflightGate {
    budget: usize,
    inflight: Mutex<usize>,
    freed: Condvar,
}

impl InflightGate {
    fn new(budget: usize) -> Self {
        InflightGate {
            budget,
            inflight: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Takes a permit, waiting until `deadline` for one to free.
    /// Returns `None` when the budget stayed full the whole time —
    /// the caller must shed the work.
    fn acquire(&self, deadline: Instant) -> Option<InflightPermit<'_>> {
        if self.budget == 0 {
            return Some(InflightPermit { gate: None });
        }
        let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *inflight < self.budget {
                *inflight += 1;
                return Some(InflightPermit { gate: Some(self) });
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = self
                .freed
                .wait_timeout(inflight, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            inflight = guard;
        }
    }
}

/// RAII in-flight permit: releases its budget slot (and wakes one
/// waiter) on drop, including a panic unwinding out of the compute —
/// a panicking batch must not leak capacity.
struct InflightPermit<'a> {
    gate: Option<&'a InflightGate>,
}

impl Drop for InflightPermit<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            let mut inflight = gate.inflight.lock().unwrap_or_else(|e| e.into_inner());
            *inflight = inflight.saturating_sub(1);
            drop(inflight);
            gate.freed.notify_one();
        }
    }
}

/// The live token-bucket state behind [`ReloadRate`].
struct ReloadBucket {
    rate: ReloadRate,
    /// `(tokens, last_refill)` — reload frames are rare and already
    /// serialized through the cell's writer lock, so one mutex is fine.
    state: Mutex<(f64, Instant)>,
}

impl ReloadBucket {
    fn new(rate: ReloadRate) -> Self {
        let burst = f64::from(rate.burst);
        ReloadBucket {
            rate,
            state: Mutex::new((burst, Instant::now())),
        }
    }

    /// Takes one token if available, refilling lazily from elapsed
    /// wall time. `false` means the reload must be refused.
    fn try_take(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let elapsed = now.saturating_duration_since(state.1).as_secs_f64();
        state.0 = (state.0 + elapsed * self.rate.refill_per_sec).min(f64::from(self.rate.burst));
        state.1 = now;
        if state.0 >= 1.0 {
            state.0 -= 1.0;
            true
        } else {
            false
        }
    }
}

/// A point-in-time snapshot of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections refused because the connection workers and their bounded
    /// hand-off backlog were both saturated.
    pub connections_refused: u64,
    /// Connections currently being served.
    pub connections_active: u64,
    /// Frames successfully decoded and answered.
    pub frames_served: u64,
    /// Individual fingerprint queries answered (a batch of N counts N).
    pub queries_answered: u64,
    /// Frames rejected as malformed, oversized, or otherwise invalid.
    pub protocol_errors: u64,
    /// Connections torn down by a panic inside their handler. The
    /// server survives each one; a non-zero value still means a bug
    /// worth chasing.
    pub worker_panics: u64,
    /// The epoch of the model currently being served (starts at 1).
    pub epoch: u64,
    /// Successful model reloads since the cell was created.
    pub reloads: u64,
}

impl ServerStats {
    /// Builds the compatibility snapshot from the live registry (epoch
    /// and reloads are the cell's business; the caller overlays them).
    fn from_registry(registry: &MetricsRegistry) -> ServerStats {
        ServerStats {
            connections_accepted: registry.get(Counter::ConnectionsAccepted),
            connections_refused: registry.get(Counter::ConnectionsRefused),
            connections_active: registry.get(Counter::ConnectionsActive),
            frames_served: registry.get(Counter::FramesServed),
            queries_answered: registry.get(Counter::QueriesAnswered),
            protocol_errors: registry.get(Counter::ProtocolErrors),
            worker_panics: registry.get(Counter::WorkerPanics),
            epoch: 0,
            reloads: 0,
        }
    }
}

/// Decrements the connections-active gauge when dropped — keeps
/// [`ServerStats::connections_active`] exact on every exit path,
/// including a panic unwinding out of the connection handler.
struct GaugeGuard<'a>(&'a MetricsRegistry);

impl<'a> GaugeGuard<'a> {
    fn increment(registry: &'a MetricsRegistry) -> Self {
        registry.incr(Counter::ConnectionsActive);
        GaugeGuard(registry)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.decr(Counter::ConnectionsActive);
    }
}

/// Handle to a running server: address, live stats, graceful shutdown.
///
/// Dropping the handle also shuts the server down (and joins it);
/// prefer calling [`ServerHandle::shutdown`] to observe the final
/// stats.
#[derive(Debug)]
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    registry: Arc<MetricsRegistry>,
    cell: Arc<ServiceCell>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is actually listening on (resolves port
    /// 0 binds to the ephemeral port picked by the OS).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the server's counters, including the served
    /// model's current epoch and reload count.
    pub fn stats(&self) -> ServerStats {
        let mut stats = ServerStats::from_registry(&self.registry);
        stats.epoch = self.cell.epoch();
        stats.reloads = self.cell.reloads();
        stats
    }

    /// The live metrics registry this server records into. Useful for
    /// embedding servers that want to read (or extend) the counters
    /// without a snapshot.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The full metrics snapshot, exactly as a `Stats` wire frame
    /// would report it: every registry counter, the per-stage latency
    /// summaries, the serving epoch, the cell's reload count, and the
    /// served bank's scan counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        stats_snapshot(
            &self.registry,
            self.cell.epoch(),
            self.cell.reloads(),
            {
                let service = self.cell.load();
                service.bank_stats().scan
            },
            self.cell.pool().counters(),
        )
    }

    /// The epoch-swapped cell this server answers from. Publishing a
    /// replacement service through it hot-reloads the server (and any
    /// other server sharing the cell) at the next frame boundary.
    pub fn cell(&self) -> &Arc<ServiceCell> {
        &self.cell
    }

    /// Stops accepting, lets in-flight frames finish, joins all
    /// threads and returns the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.signal_and_join();
        self.stats()
    }

    fn signal_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let Some(handle) = self.accept.take() else {
            return;
        };
        // The accept thread is blocked in `accept`: one connection made
        // after the flag is set wakes it (a wildcard bind is reached
        // through the loopback of its family). `ConnectionRefused`
        // means the listener is already gone; any other failure is
        // retried until the thread exits, so it cannot hang the join.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        while !handle.is_finished()
            && TcpStream::connect(wake)
                .is_err_and(|e| e.kind() != std::io::ErrorKind::ConnectionRefused)
        {
            std::thread::sleep(ERROR_PAUSE);
        }
        let _ = handle.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.signal_and_join();
    }
}

/// Binds `addr` and serves `service` over the wire protocol until the
/// returned handle is shut down (or dropped).
///
/// The service is wrapped in a fresh [`ServiceCell`]; use
/// [`serve_cell`] to share a cell across servers or keep a reload
/// handle outside the server.
///
/// # Errors
///
/// Propagates the bind failure; everything after the bind runs on the
/// server's own threads.
pub fn serve(
    service: IoTSecurityService,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    serve_cell(Arc::new(ServiceCell::new(service)), addr, config)
}

/// Binds `addr` and serves whatever `cell` currently publishes,
/// re-pinning the epoch at every frame boundary — the hot-reloadable
/// entry point behind [`serve`] and `Sentinel::serve`.
///
/// # Errors
///
/// Propagates the bind failure; everything after the bind runs on the
/// server's own threads.
pub fn serve_cell(
    cell: Arc<ServiceCell>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    // One stage-histogram shard per worker: a worker only ever records
    // into its own shard, so stage timers never contend.
    let registry = Arc::new(MetricsRegistry::new(config.workers.max(1)));
    let accept = {
        let shutdown = Arc::clone(&shutdown);
        let registry = Arc::clone(&registry);
        let cell = Arc::clone(&cell);
        std::thread::Builder::new()
            .name("sentinel-serve".to_string())
            .spawn(move || run(listener, cell, config, shutdown, registry))?
    };
    Ok(ServerHandle {
        local_addr,
        shutdown,
        registry,
        cell,
        accept: Some(accept),
    })
}

fn run(
    listener: TcpListener,
    cell: Arc<ServiceCell>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    registry: Arc<MetricsRegistry>,
) {
    let workers = config.workers.max(1);
    // Bounded hand-off: a connection burst beyond what the workers can
    // absorb is refused at accept time (the socket is closed) instead
    // of parking unbounded fds in a queue nobody may ever drain.
    let (sender, receiver): (SyncSender<TcpStream>, Receiver<TcpStream>) =
        mpsc::sync_channel(workers * 4);
    let receiver = Mutex::new(receiver);
    // Server-wide admission control and the reload rate limit: shared
    // by every connection worker, created once per server.
    let gate = InflightGate::new(config.max_inflight);
    let reload_bucket = config.reload_rate.map(ReloadBucket::new);
    // Scoped threads: workers borrow the cell, the flag and the
    // stats for the lifetime of the scope, which ends only after the
    // accept loop broke and every worker drained out.
    std::thread::scope(|scope| {
        for shard in 0..workers {
            let receiver = &receiver;
            let cell = &cell;
            let config = &config;
            let shutdown = &shutdown;
            let registry = &registry;
            let gate = &gate;
            let reload_bucket = &reload_bucket;
            scope.spawn(move || loop {
                // Take the next connection; holding the lock only for
                // the recv keeps hand-off cheap.
                let next = {
                    let Ok(guard) = receiver.lock() else { break };
                    guard.recv()
                };
                match next {
                    Ok(stream) => handle_connection(
                        stream,
                        cell,
                        config,
                        shutdown,
                        registry,
                        shard,
                        gate,
                        reload_bucket.as_ref(),
                    ),
                    Err(_) => break, // channel closed: shutting down
                }
            });
        }
        // Blocking accept: shutdown sets the flag, then wakes this call
        // with a throw-away connection. The flag is checked before the
        // hand-off so that connection is never counted or served.
        loop {
            let accepted = listener.accept();
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => match sender.try_send(stream) {
                    Ok(()) => {
                        registry.incr(Counter::ConnectionsAccepted);
                    }
                    Err(mpsc::TrySendError::Full(stream)) => {
                        // Workers busy and backlog full: refuse
                        // by closing instead of parking the fd.
                        registry.incr(Counter::ConnectionsRefused);
                        drop(stream);
                    }
                    Err(mpsc::TrySendError::Disconnected(_)) => break,
                },
                // Transient accept failure (EMFILE, aborted
                // handshake); keep listening.
                Err(_) => std::thread::sleep(ERROR_PAUSE),
            }
        }
        // Closed before the workers drain: late connects are refused at
        // once instead of parking in a backlog nobody will accept from.
        drop(listener);
        drop(sender);
    });
}

#[allow(clippy::too_many_arguments)]
fn handle_connection(
    stream: TcpStream,
    cell: &ServiceCell,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    registry: &MetricsRegistry,
    shard: usize,
    gate: &InflightGate,
    reload_bucket: Option<&ReloadBucket>,
) {
    // RAII, not paired incr/decr: the gauge must return to zero even
    // when the handler below panics out.
    let _active = GaugeGuard::increment(registry);
    // A panic inside service code must cost one connection, not the
    // whole server: without this catch it would unwind through the
    // thread scope and tear down every worker. Frame and error
    // counters are recorded live inside serve_connection, so whatever
    // the connection did before the panic is already counted.
    if std::panic::catch_unwind(AssertUnwindSafe(|| {
        serve_connection(
            stream,
            cell,
            config,
            shutdown,
            registry,
            shard,
            gate,
            reload_bucket,
        )
    }))
    .is_err()
    {
        registry.incr(Counter::WorkerPanics);
    }
}

/// Why a frame could not be read off the socket.
enum FrameError {
    /// The transport died or the whole-frame deadline passed — nothing
    /// sensible can be sent back.
    Io,
    /// The header was readable but invalid or refused; report the
    /// reason to the peer before closing.
    Wire(WireError),
}

/// Reads one full frame: completes the header around the already-read
/// `first` byte, validates it, then lands the payload in `read_buf` —
/// resized in place, so the per-connection buffer is reused frame
/// after frame and steady-state reads allocate nothing.
fn read_frame<'a>(
    stream: &mut TcpStream,
    first: u8,
    config: &ServerConfig,
    read_buf: &'a mut Vec<u8>,
) -> Result<(FrameHeader, &'a [u8]), FrameError> {
    // A frame started: header and payload together must arrive within
    // one whole-frame deadline — dripping one byte per read cannot
    // stretch it (slow-loris guard).
    let deadline = Instant::now() + config.io_timeout;
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    read_exact_deadline(stream, &mut header[1..], deadline).map_err(|_| FrameError::Io)?;
    let header = wire::decode_header(&header).map_err(FrameError::Wire)?;
    // Admin reload frames carry whole model documents; everything else
    // stays under the tight query-path cap. Without the admin flag the
    // generous cap never applies — unauthorized peers cannot make the
    // server size a large buffer.
    let cap = if header.kind == wire::kind::RELOAD && config.admin {
        config.max_reload_bytes.max(config.max_frame_bytes)
    } else {
        config.max_frame_bytes
    };
    if header.len > cap {
        return Err(FrameError::Wire(WireError::FrameTooLarge {
            len: header.len,
            max: cap,
        }));
    }
    read_buf.resize(header.len as usize, 0);
    read_exact_deadline(stream, read_buf, deadline).map_err(|_| FrameError::Io)?;
    Ok((header, read_buf.as_slice()))
}

#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut stream: TcpStream,
    cell: &ServiceCell,
    config: &ServerConfig,
    shutdown: &AtomicBool,
    registry: &MetricsRegistry,
    shard: usize,
    gate: &InflightGate,
    reload_bucket: Option<&ReloadBucket>,
) {
    let _ = stream.set_nodelay(true);
    let mut write_buf = Vec::new();
    let mut read_buf = Vec::new();
    // Pin the current model epoch; re-pinned at every frame boundary
    // below (wait-free unless a reload landed), never mid-frame — a
    // batch response is always computed against exactly one epoch.
    let mut pinned: ServiceEpoch = cell.load();
    // Idle phase between frames: poll for the first header byte so the
    // worker can notice shutdown; `Ok(None)` is clean EOF or shutdown,
    // `Err` a dead socket — both end the connection.
    while let Ok(Some(first)) = poll_first_byte(&mut stream, config, shutdown) {
        // Stage timers measure server-side processing from the moment
        // the frame's bytes are fully in hand — socket read time is the
        // client's latency problem, not a pipeline stage.
        let frame_start;
        let decode_done;
        let decoded = match read_frame(&mut stream, first, config, &mut read_buf) {
            Ok((header, payload)) => {
                if header.kind == wire::kind::RELOAD {
                    // Admin frames are handled straight from the
                    // borrowed payload: a model document is large, and
                    // decoding it into an owned message first would
                    // hold it in memory twice.
                    if !config.admin {
                        registry.incr(Counter::AdminRejected);
                        registry.incr(Counter::ProtocolErrors);
                        let _ = send_message(
                            &mut stream,
                            &mut write_buf,
                            &Message::Error(ErrorFrame {
                                code: ErrorCode::AdminDisabled,
                                message: "this server's admin channel is disabled".to_string(),
                            }),
                        );
                        break;
                    }
                    // Rate limit admitted admin frames: a reload
                    // recompiles the whole bank, so a peer stuck in a
                    // retry loop must not keep the server rebuilding.
                    // Refused frames get the retryable Overloaded code
                    // — the connection stays usable.
                    if let Some(bucket) = reload_bucket {
                        if !bucket.try_take() {
                            registry.incr(Counter::ReloadsRateLimited);
                            registry.incr(Counter::OverloadRejections);
                            if send_message(
                                &mut stream,
                                &mut write_buf,
                                &Message::Error(ErrorFrame {
                                    code: ErrorCode::Overloaded,
                                    message: "admin reload rate limit exceeded; retry after \
                                              backoff"
                                        .to_string(),
                                }),
                            )
                            .is_err()
                            {
                                break;
                            }
                            read_buf.clear();
                            read_buf.shrink_to(config.max_frame_bytes as usize);
                            continue;
                        }
                    }
                    // `run` contains a panic on this thread, so a
                    // failed rebuild costs an answer, not the connection.
                    let reload_outcome = cell
                        .pool()
                        .run(|| {
                            if let Some(hook) = &config.reload_fault_injection {
                                hook(payload);
                            }
                            handle_reload(cell, payload)
                        })
                        .unwrap_or_else(|contained| {
                            // A panic mid-reload never reaches the
                            // epoch swap — `ServiceCell` publishes only
                            // after validation succeeds, with three
                            // atomic stores that cannot panic — so the
                            // previous model keeps serving: containment
                            // *is* rollback. Answer a typed rejection
                            // instead of burning the connection.
                            registry.incr(Counter::ReloadRollbacks);
                            Err(format!(
                                "reload task panicked (previous epoch kept): {}",
                                contained.message()
                            ))
                        });
                    match reload_outcome {
                        Ok(ack) => {
                            // Serve the model we just published from
                            // this connection's next answer on.
                            cell.refresh(&mut pinned);
                            if send_message(&mut stream, &mut write_buf, &Message::ReloadAck(ack))
                                .is_err()
                            {
                                break;
                            }
                            registry.incr(Counter::FramesServed);
                        }
                        Err(message) => {
                            // A refused reload is not a framing error:
                            // the connection stays usable.
                            registry.incr(Counter::ReloadsRejected);
                            registry.incr(Counter::ProtocolErrors);
                            if send_message(
                                &mut stream,
                                &mut write_buf,
                                &Message::Error(ErrorFrame {
                                    code: ErrorCode::ReloadRejected,
                                    message,
                                }),
                            )
                            .is_err()
                            {
                                break;
                            }
                        }
                    }
                    // Model documents dwarf query frames; return the
                    // borrowed capacity instead of pinning it for the
                    // connection's lifetime. (`shrink_to` never drops
                    // below the current length, so empty the buffer
                    // first.)
                    read_buf.clear();
                    read_buf.shrink_to(config.max_frame_bytes as usize);
                    continue;
                }
                frame_start = Instant::now();
                let decoded = wire::decode_payload_at(header.version, header.kind, payload);
                decode_done = Instant::now();
                decoded
            }
            Err(FrameError::Io) => {
                registry.incr(Counter::ProtocolErrors);
                break;
            }
            Err(FrameError::Wire(error)) => {
                // Framing is broken (or refused): report and close —
                // the byte stream cannot be resynchronised.
                registry.incr(Counter::ProtocolErrors);
                let _ = send_error(&mut stream, &mut write_buf, &error);
                break;
            }
        };
        cell.refresh(&mut pinned);
        match decoded {
            Ok(Message::Ping) => {
                if send_message(&mut stream, &mut write_buf, &Message::Pong).is_err() {
                    break;
                }
                registry.incr(Counter::FramesServed);
            }
            Ok(Message::QueryRequest(request)) => {
                if request.fingerprints.len() > config.max_batch {
                    registry.incr(Counter::ProtocolErrors);
                    let _ = send_message(
                        &mut stream,
                        &mut write_buf,
                        &Message::Error(ErrorFrame {
                            code: ErrorCode::BatchTooLarge,
                            message: format!(
                                "batch of {} exceeds the server cap of {}",
                                request.fingerprints.len(),
                                config.max_batch
                            ),
                        }),
                    );
                    break;
                }
                // Admission control: the decoded batch must take an
                // in-flight permit before it is computed. When the
                // budget stays full past the queue deadline the batch
                // is shed with a retryable typed error — computing it
                // late would waste CPU on an answer the client has
                // already given up on.
                let deadline = Instant::now() + config.queue_deadline;
                let Some(permit) = gate.acquire(deadline) else {
                    registry.incr(Counter::OverloadRejections);
                    registry.add(Counter::QueriesShed, request.fingerprints.len() as u64);
                    if send_message(
                        &mut stream,
                        &mut write_buf,
                        &Message::Error(ErrorFrame {
                            code: ErrorCode::Overloaded,
                            message: format!(
                                "server over capacity ({} batches in flight); \
                                 retry after backoff",
                                config.max_inflight
                            ),
                        }),
                    )
                    .is_err()
                    {
                        break;
                    }
                    continue;
                };
                // Compute on this thread, against the one pinned
                // epoch — identification and name resolution alike. A
                // panic here (the fault hook's included) unwinds to
                // `handle_connection` and counts as one worker panic;
                // the permit is released by RAII on the way out.
                let service = pinned.service();
                let scan_start = Instant::now();
                if let Some(hook) = &config.fault_injection {
                    hook(&request);
                }
                let responses = service.handle_batch_on(cell.pool(), &request.fingerprints);
                let scan_done = Instant::now();
                drop(permit);
                let queries = responses.len() as u64;
                let items: Vec<ResponseItem> = responses
                    .into_iter()
                    .map(|response| ResponseItem {
                        name: request
                            .resolve_names
                            .then(|| response.device_type_name(service.registry()))
                            .flatten()
                            .map(str::to_string),
                        response,
                    })
                    .collect();
                if send_message(
                    &mut stream,
                    &mut write_buf,
                    &Message::QueryResponse(QueryResponse {
                        epoch: Some(pinned.epoch()),
                        items,
                    }),
                )
                .is_err()
                {
                    break;
                }
                // One record per stage per query frame, in pipeline
                // order; `Frame` is the end-to-end figure the others
                // decompose.
                let frame_done = Instant::now();
                registry.record(shard, Stage::Decode, elapsed_ns(frame_start, decode_done));
                registry.record(shard, Stage::Scan, elapsed_ns(scan_start, scan_done));
                registry.record(shard, Stage::Encode, elapsed_ns(scan_done, frame_done));
                registry.record(shard, Stage::Frame, elapsed_ns(frame_start, frame_done));
                registry.incr(Counter::FramesServed);
                registry.incr(Counter::QueryFrames);
                registry.add(Counter::QueriesAnswered, queries);
            }
            Ok(Message::Stats) => {
                let snapshot = stats_snapshot(
                    registry,
                    pinned.epoch(),
                    cell.reloads(),
                    pinned.service().bank_stats().scan,
                    cell.pool().counters(),
                );
                if send_message(
                    &mut stream,
                    &mut write_buf,
                    &Message::StatsResponse(snapshot),
                )
                .is_err()
                {
                    break;
                }
                registry.incr(Counter::FramesServed);
                registry.incr(Counter::StatsServed);
            }
            // Reload frames never reach here: they are handled above,
            // straight from the borrowed payload.
            Ok(other) => {
                // Server-to-client messages arriving at the server.
                registry.incr(Counter::ProtocolErrors);
                let _ = send_error(
                    &mut stream,
                    &mut write_buf,
                    &WireError::UnsupportedKind(other.kind()),
                );
                break;
            }
            Err(error) => {
                registry.incr(Counter::ProtocolErrors);
                let _ = send_error(&mut stream, &mut write_buf, &error);
                break;
            }
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Nanoseconds between two instants, saturated into `u64`.
fn elapsed_ns(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}

/// Builds the full [`MetricsSnapshot`] served on a Stats frame: the
/// registry's counters and stage histograms, overlaid with the state
/// that lives outside the registry — the service epoch, the reload
/// count from the [`ServiceCell`], the compiled bank's scan counter,
/// and the cell's compute-pool counters.
fn stats_snapshot(
    registry: &MetricsRegistry,
    epoch: u64,
    reloads: u64,
    scan: sentinel_core::ScanSnapshot,
    pool: sentinel_pool::PoolCounters,
) -> MetricsSnapshot {
    let mut snapshot = registry.snapshot();
    snapshot.epoch = epoch;
    snapshot.set_counter(Counter::Reloads, reloads);
    snapshot.set_counter(Counter::ScanQueries, scan.queries);
    snapshot.set_counter(Counter::PoolTasksSubmitted, pool.submitted);
    snapshot.set_counter(Counter::PoolTasksExecuted, pool.executed);
    snapshot
}

/// Parses a model document and publishes it through the cell,
/// returning the ack to send or the rejection message.
fn handle_reload(cell: &ServiceCell, model_doc: &[u8]) -> Result<ReloadAck, String> {
    let identifier =
        persist::read_identifier(model_doc).map_err(|e| format!("model document: {e}"))?;
    let types = identifier.registry().len() as u32;
    let epoch = cell
        .replace_identifier(identifier)
        .map_err(|e| e.to_string())?;
    Ok(ReloadAck { epoch, types })
}

/// Waits for the first byte of the next frame, returning `None` on
/// clean EOF, shutdown, or after [`ServerConfig::idle_timeout`] of
/// silence (so an idle connection cannot pin its worker forever). A
/// read that times out before then only re-checks the shutdown flag.
fn poll_first_byte(
    stream: &mut TcpStream,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<Option<u8>> {
    let idle_deadline = Instant::now() + config.idle_timeout;
    let mut byte = [0u8; 1];
    loop {
        let idle_left = idle_deadline.saturating_duration_since(Instant::now());
        if shutdown.load(Ordering::SeqCst) || idle_left.is_zero() {
            return Ok(None);
        }
        // Wake at the idle deadline, not up to one check past it
        // (set_read_timeout rejects a zero Duration; clamp up).
        let wait = idle_left.clamp(Duration::from_millis(1), SHUTDOWN_CHECK);
        stream.set_read_timeout(Some(wait))?;
        match stream.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => return Ok(Some(byte[0])),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

/// `read_exact` against an absolute deadline: the per-read timeout is
/// re-derived from the time remaining, so the deadline bounds the
/// whole read no matter how slowly bytes trickle in.
fn read_exact_deadline(
    stream: &mut TcpStream,
    mut buf: &mut [u8],
    deadline: Instant,
) -> std::io::Result<()> {
    while !buf.is_empty() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "frame read deadline exceeded",
            ));
        }
        // set_read_timeout rejects a zero Duration; clamp up.
        stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        match stream.read(buf) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => buf = &mut buf[n..],
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn send_message(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    message: &Message,
) -> std::io::Result<()> {
    buf.clear();
    wire::encode_frame(message, buf)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    stream.write_all(buf)?;
    stream.flush()
}

/// Maps a decode failure to the error frame the client sees.
fn send_error(stream: &mut TcpStream, buf: &mut Vec<u8>, error: &WireError) -> std::io::Result<()> {
    let code = match error {
        WireError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
        WireError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
        WireError::UnsupportedKind(_) => ErrorCode::UnsupportedKind,
        _ => ErrorCode::Malformed,
    };
    send_message(
        stream,
        buf,
        &Message::Error(ErrorFrame {
            code,
            message: error.to_string(),
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Completes `read_frame` against a peer that writes `frames` and
    /// returns the read buffer used, for capacity/reuse inspection.
    fn drive_read_frames(frames: Vec<Vec<u8>>) -> (Vec<(u8, usize)>, Vec<u8>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for frame in frames {
                stream.write_all(&frame).expect("write frame");
            }
            stream.flush().unwrap();
            // Keep the socket open until the reader is done.
            let mut sink = [0u8; 1];
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = stream.read(&mut sink);
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let config = ServerConfig {
            io_timeout: Duration::from_secs(5),
            ..ServerConfig::default()
        };
        let shutdown = AtomicBool::new(false);
        let mut read_buf = Vec::new();
        let mut seen = Vec::new();
        while let Ok(Some(first)) = poll_first_byte(&mut stream, &config, &shutdown) {
            match read_frame(&mut stream, first, &config, &mut read_buf) {
                Ok((header, payload)) => seen.push((header.kind, payload.len())),
                Err(_) => break,
            }
            if seen.len() == 4 {
                break;
            }
        }
        drop(stream);
        writer.join().unwrap();
        (seen, read_buf)
    }

    #[test]
    fn read_buffer_is_reused_across_frames() {
        let mut small = Vec::new();
        wire::encode_frame(
            &Message::Error(ErrorFrame {
                code: ErrorCode::Internal,
                message: "x".repeat(100),
            }),
            &mut small,
        )
        .unwrap();
        let mut big = Vec::new();
        wire::encode_frame(
            &Message::Error(ErrorFrame {
                code: ErrorCode::Internal,
                message: "y".repeat(400),
            }),
            &mut big,
        )
        .unwrap();
        let mut ping = Vec::new();
        wire::encode_frame(&Message::Ping, &mut ping).unwrap();

        let (seen, read_buf) = drive_read_frames(vec![small, big.clone(), ping, big]);
        assert_eq!(
            seen.iter().map(|(_, len)| *len).collect::<Vec<_>>(),
            vec![103, 403, 0, 403]
        );
        // One buffer served all four frames: capacity grew to cover
        // the largest payload and stayed put through the empty and
        // repeated frames — no per-frame allocation.
        assert!(read_buf.capacity() >= 403, "buffer kept its capacity");
    }

    #[test]
    fn oversized_frames_are_refused_before_the_buffer_grows() {
        let mut frame = Vec::new();
        wire::encode_frame(&Message::Ping, &mut frame).unwrap();
        frame[6..10].copy_from_slice(&(wire::DEFAULT_MAX_FRAME_BYTES + 1).to_be_bytes());
        let (seen, read_buf) = drive_read_frames(vec![frame]);
        assert!(seen.is_empty());
        assert_eq!(
            read_buf.capacity(),
            0,
            "refused frame must not size the buffer"
        );
    }
}

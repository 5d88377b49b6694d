//! `sentinel-chaos`: deterministic fault injection for the serve path.
//!
//! A robustness claim is only worth what the harness that tried to
//! break it was worth. This crate generates a **seeded, bit-reproducible
//! [`FaultPlan`]** — which attacker connection misbehaves how, at which
//! frame, and which scheduled query batch must panic —
//! and executes it against a *live* `sentinel-serve` instance:
//!
//! * [`FaultStream`] wraps any `Read + Write` transport and applies one
//!   [`Fault`] per outgoing frame: a mid-frame **stall** (the header is
//!   split around a pause, exercising the server's whole-frame
//!   deadline), a **truncated frame** (some header bytes then a clean
//!   shutdown — the server must count exactly one protocol error), or
//!   a **hangup** before the first byte (a clean EOF the server must
//!   *not* count as an error).
//! * [`inject`] replays a whole plan's attacker connections against an
//!   address, counting every fault into
//!   [`sentinel_obs::Counter::FaultsInjected`]
//!   when given the server's registry.
//! * [`query_panic_hook`] turns the plan's scheduled panic points into
//!   a [`ServerConfig::fault_injection`] hook: the Nth query batch the
//!   server computes panics, deterministically, and the server must
//!   contain it (one dead connection, one `worker_panics`, gauge back
//!   to zero).
//!
//! [`ServerConfig::fault_injection`]: sentinel_serve::ServerConfig
//!
//! Everything derives from one `u64` seed through splitmix64-split
//! per-connection streams (the same idiom as the fleet simulator), so
//! the same seed reproduces the same fault sequence bit-for-bit — a
//! failing soak is a replayable soak. [`FaultPlan::digest`] fingerprints
//! a plan in one `u64` for pinning in tests and CI logs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use sentinel_obs::{Counter, MetricsRegistry};
use sentinel_serve::server::FaultInjection;
use sentinel_serve::wire::{self, Message, HEADER_LEN};

/// Tunables for [`FaultPlan::generate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Master seed: every random choice below derives from it.
    pub seed: u64,
    /// Attacker connections to plan.
    pub connections: u32,
    /// Fewest well-formed frames a connection sends before its
    /// terminal fault.
    pub min_ops: u32,
    /// Most frames a connection sends before its terminal fault
    /// (inclusive).
    pub max_ops: u32,
    /// Probability that any single frame is sent with a mid-frame
    /// stall instead of cleanly.
    pub stall_probability: f64,
    /// How long a stalled frame pauses between its header halves. Keep
    /// this under the server's `io_timeout` to exercise the deadline
    /// without tripping it (or over it, to force the trip).
    pub stall: Duration,
    /// Schedule a query-batch panic every this-many executed query
    /// batches (`0` disables scheduled panics).
    pub panic_every: u64,
    /// How many panics to schedule in total.
    pub panics: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0,
            connections: 8,
            min_ops: 1,
            max_ops: 6,
            stall_probability: 0.25,
            stall: Duration::from_millis(20),
            panic_every: 0,
            panics: 0,
        }
    }
}

/// One frame-level fault an attacker connection applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Send the frame whole and read the response — a well-behaved op
    /// interleaved between faults, so the server's happy path runs on
    /// the *same* connections that misbehave.
    Clean,
    /// Split the frame mid-header around a pause, then finish it. The
    /// server's whole-frame deadline must tolerate (or evict) it; the
    /// frame itself is valid once complete.
    Stall,
    /// Send only `keep` bytes of the frame (always fewer than a
    /// header), then shut the write side down. The server sees a
    /// started-then-dead frame: exactly one protocol error. Terminal —
    /// the connection is done.
    Truncate {
        /// Bytes actually sent before the cut, `1..HEADER_LEN`.
        keep: u32,
    },
    /// Close the connection before the next frame's first byte: a
    /// clean EOF the server must treat as a normal goodbye, not an
    /// error. Terminal.
    Hangup,
}

/// The faults one attacker connection applies, in order. At most the
/// last entry is terminal ([`Fault::Truncate`] / [`Fault::Hangup`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionPlan {
    /// Per-frame faults; the final entry always terminates the
    /// connection.
    pub faults: Vec<Fault>,
}

/// A complete seeded fault schedule: per-connection frame faults plus
/// the global query-batch sequence numbers that must panic.
///
/// Plans are plain data — comparing two for equality (or their
/// [`digest`](FaultPlan::digest)s) is how tests pin that the same seed
/// reproduces the same fault sequence bit-for-bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was generated from.
    pub seed: u64,
    /// One schedule per attacker connection.
    pub connections: Vec<ConnectionPlan>,
    /// 1-based query-batch sequence numbers (in server execution order)
    /// that panic. Sorted ascending.
    pub panic_queries: Vec<u64>,
}

/// splitmix64 — the same stream-splitting mixer the fleet simulator
/// uses, so `seed ^ mix(i)` gives every connection an independent,
/// reproducible stream regardless of how many draws its neighbours
/// make.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Expands `config` into the full deterministic schedule. Calling
    /// twice with equal configs yields equal plans (pinned by tests).
    pub fn generate(config: &ChaosConfig) -> FaultPlan {
        let mut connections = Vec::with_capacity(config.connections as usize);
        for i in 0..u64::from(config.connections) {
            // One independent stream per connection: reordering or
            // resizing one connection's draws cannot shift another's.
            let mut rng = SmallRng::seed_from_u64(config.seed ^ mix(i + 1));
            let min = config.min_ops.min(config.max_ops);
            let ops = rng.gen_range(min..=config.max_ops);
            let mut faults = Vec::with_capacity(ops as usize + 1);
            for _ in 0..ops {
                faults.push(if rng.gen_bool(config.stall_probability) {
                    Fault::Stall
                } else {
                    Fault::Clean
                });
            }
            faults.push(if rng.gen_bool(0.5) {
                Fault::Truncate {
                    keep: rng.gen_range(1..HEADER_LEN as u32),
                }
            } else {
                Fault::Hangup
            });
            connections.push(ConnectionPlan { faults });
        }
        let panic_queries = if config.panic_every == 0 {
            Vec::new()
        } else {
            (1..=u64::from(config.panics))
                .map(|n| n * config.panic_every)
                .collect()
        };
        FaultPlan {
            seed: config.seed,
            connections,
            panic_queries,
        }
    }

    /// FNV-1a fingerprint of the whole schedule: two plans digest
    /// equal iff they would inject the identical fault sequence.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.seed);
        for plan in &self.connections {
            eat(plan.faults.len() as u64);
            for fault in &plan.faults {
                let (tag, arg) = match *fault {
                    Fault::Clean => (0u64, 0u64),
                    Fault::Stall => (1, 0),
                    Fault::Truncate { keep } => (2, u64::from(keep)),
                    Fault::Hangup => (3, 0),
                };
                eat(tag);
                eat(arg);
            }
        }
        for &q in &self.panic_queries {
            eat(q);
        }
        hash
    }

    /// Whether the `seq`-th executed query batch (1-based) is
    /// scheduled to panic.
    pub fn should_panic(&self, seq: u64) -> bool {
        self.panic_queries.binary_search(&seq).is_ok()
    }

    /// Total frame-level faults the injector will apply (stalls +
    /// truncates + hangups), for reconciling against
    /// [`Counter::FaultsInjected`].
    pub fn frame_faults(&self) -> u64 {
        self.connections
            .iter()
            .flat_map(|c| &c.faults)
            .filter(|f| !matches!(f, Fault::Clean))
            .count() as u64
    }
}

/// A transport wrapper that applies one [`Fault`] per outgoing frame.
///
/// The wrapper is deliberately dumb about protocol: it takes fully
/// encoded frames and decides only *how* the bytes leave (whole, split
/// around a stall, cut short, or not at all), so it composes with any
/// frame the wire module can encode.
#[derive(Debug)]
pub struct FaultStream<S> {
    inner: S,
    stall: Duration,
    injected: u64,
}

impl<S: Read + Write> FaultStream<S> {
    /// Wraps `inner`; stalled frames pause `stall` mid-header.
    pub fn new(inner: S, stall: Duration) -> Self {
        FaultStream {
            inner,
            stall,
            injected: 0,
        }
    }

    /// Faults applied so far (clean sends don't count).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped transport.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Sends `frame` under `fault`. Returns `Ok(true)` when the frame
    /// went out whole (a response should follow), `Ok(false)` when the
    /// fault cut the connection short (terminal — drop it).
    pub fn send_frame(&mut self, frame: &[u8], fault: Fault) -> std::io::Result<bool> {
        match fault {
            Fault::Clean => {
                self.inner.write_all(frame)?;
                self.inner.flush()?;
                Ok(true)
            }
            Fault::Stall => {
                self.injected += 1;
                // Split inside the header: the server has committed to
                // reading a frame but cannot finish until the pause
                // ends — exactly the shape a slow or sick peer
                // produces.
                let split = (HEADER_LEN / 2).min(frame.len());
                self.inner.write_all(&frame[..split])?;
                self.inner.flush()?;
                std::thread::sleep(self.stall);
                self.inner.write_all(&frame[split..])?;
                self.inner.flush()?;
                Ok(true)
            }
            Fault::Truncate { keep } => {
                self.injected += 1;
                let keep = (keep as usize).clamp(1, frame.len());
                self.inner.write_all(&frame[..keep])?;
                self.inner.flush()?;
                Ok(false)
            }
            Fault::Hangup => {
                self.injected += 1;
                Ok(false)
            }
        }
    }
}

/// What [`inject`] did, for reconciling against server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectorReport {
    /// Attacker connections opened (or attempted).
    pub connections: u64,
    /// Whole frames that went out (clean + stalled).
    pub frames_sent: u64,
    /// Pong responses read back for those frames.
    pub pongs: u64,
    /// Frames sent split around a stall.
    pub stalls: u64,
    /// Connections ended by a truncated frame. Each must cost the
    /// server **exactly one** protocol error.
    pub truncates: u64,
    /// Connections ended by a clean pre-frame hangup. Each must cost
    /// the server **zero** protocol errors.
    pub hangups: u64,
}

impl InjectorReport {
    /// Total faults applied — reconciles with the injector's share of
    /// [`Counter::FaultsInjected`].
    pub fn faults(&self) -> u64 {
        self.stalls + self.truncates + self.hangups
    }
}

/// Replays every attacker connection in `plan` against `addr`,
/// sequentially and in plan order (determinism beats speed here — the
/// point is a reproducible abuse pattern, not throughput). Each fault
/// is recorded into `registry`'s
/// [`Counter::FaultsInjected`] when one is supplied — pass the served
/// registry so chaos shows up in the server's own books.
///
/// Frames are valid `Ping`s, so every *surviving* exchange also checks
/// the server still answers.
///
/// # Errors
///
/// Only connect failures abort the run; per-connection I/O errors are
/// expected casualties of the faults themselves and end that
/// connection only.
pub fn inject(
    addr: impl ToSocketAddrs + Copy,
    plan: &FaultPlan,
    registry: Option<&MetricsRegistry>,
) -> std::io::Result<InjectorReport> {
    let mut ping = Vec::new();
    wire::encode_frame(&Message::Ping, &mut ping)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut report = InjectorReport::default();
    for connection in &plan.connections {
        report.connections += 1;
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        let mut faulted = FaultStream::new(stream, plan_stall(plan));
        for &fault in &connection.faults {
            count_fault(fault, registry, &mut report);
            let whole = match faulted.send_frame(&ping, fault) {
                Ok(whole) => whole,
                // The server may already have dropped us (e.g. a stall
                // that outlived its frame deadline): that connection's
                // story is over, move to the next one.
                Err(_) => break,
            };
            if !whole {
                break; // terminal fault: truncate or hangup
            }
            report.frames_sent += 1;
            if read_pong(faulted.inner_mut()).is_ok() {
                report.pongs += 1;
            } else {
                break;
            }
        }
        let _ = faulted.inner_mut().shutdown(Shutdown::Both);
    }
    Ok(report)
}

/// The stall length a plan's connections use. Plans don't carry the
/// duration (it is an execution knob, not part of the schedule), so
/// the injector derives a short deterministic pause from the seed —
/// long enough to split a frame observably, short enough to stay well
/// inside any sane `io_timeout`.
fn plan_stall(plan: &FaultPlan) -> Duration {
    Duration::from_millis(5 + plan.seed % 16)
}

fn count_fault(fault: Fault, registry: Option<&MetricsRegistry>, report: &mut InjectorReport) {
    let slot = match fault {
        Fault::Clean => return,
        Fault::Stall => &mut report.stalls,
        Fault::Truncate { .. } => &mut report.truncates,
        Fault::Hangup => &mut report.hangups,
    };
    *slot += 1;
    if let Some(registry) = registry {
        registry.incr(Counter::FaultsInjected);
    }
}

/// Reads one whole frame and asserts it decodes to `Pong`.
fn read_pong(stream: &mut TcpStream) -> std::io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    let decoded = wire::decode_header(&header)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut payload = vec![0u8; decoded.len as usize];
    stream.read_exact(&mut payload)?;
    match wire::decode_payload_at(decoded.version, decoded.kind, &payload) {
        Ok(Message::Pong) => Ok(()),
        Ok(other) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected pong, got kind {:#04x}", other.kind()),
        )),
        Err(e) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            e.to_string(),
        )),
    }
}

/// Late-binding handle to the server's metrics registry.
///
/// The fault hook must sit in `ServerConfig` *before* `serve` runs,
/// but the server only creates its registry *during* `serve`. A
/// `RegistrySlot` breaks the cycle: hand a clone to
/// [`query_panic_hook`] up front, then [`bind`](RegistrySlot::bind)
/// the served registry (from `ServerHandle::metrics`) before traffic
/// starts. An unbound slot drops increments — the scheduled panics
/// still fire, but the books only reconcile if binding happens before
/// the first query.
#[derive(Clone, Debug, Default)]
pub struct RegistrySlot {
    slot: Arc<OnceLock<Arc<MetricsRegistry>>>,
}

impl RegistrySlot {
    /// An empty slot; [`bind`](RegistrySlot::bind) it once the server
    /// handle exists.
    pub fn new() -> Self {
        RegistrySlot::default()
    }

    /// Binds the served registry. First bind wins; later calls are
    /// ignored.
    pub fn bind(&self, registry: Arc<MetricsRegistry>) {
        let _ = self.slot.set(registry);
    }

    fn incr(&self, counter: Counter) {
        if let Some(registry) = self.slot.get() {
            registry.incr(counter);
        }
    }
}

/// Builds a [`ServerConfig::fault_injection`] hook from the plan's
/// scheduled panic points: the hook counts executed query batches and
/// panics on exactly the scheduled sequence numbers, incrementing
/// [`Counter::FaultsInjected`] first so the books reconcile
/// (`faults_injected == injector faults + worker panics` at
/// quiescence).
///
/// [`ServerConfig::fault_injection`]: sentinel_serve::ServerConfig
pub fn query_panic_hook(plan: &FaultPlan, registry: RegistrySlot) -> FaultInjection {
    let schedule = plan.panic_queries.clone();
    let seq = AtomicU64::new(0);
    Arc::new(move |_request| {
        let n = seq.fetch_add(1, Ordering::SeqCst) + 1;
        if schedule.binary_search(&n).is_ok() {
            registry.incr(Counter::FaultsInjected);
            panic!("chaos: scheduled query-batch fault at query batch {n}");
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            connections: 6,
            min_ops: 1,
            max_ops: 5,
            stall_probability: 0.3,
            panic_every: 10,
            panics: 3,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::generate(&config(42));
        let b = FaultPlan::generate(&config(42));
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(&config(42));
        let b = FaultPlan::generate(&config(43));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn every_connection_ends_terminally() {
        let plan = FaultPlan::generate(&config(7));
        assert_eq!(plan.connections.len(), 6);
        for connection in &plan.connections {
            let last = connection.faults.last().expect("non-empty plan");
            assert!(
                matches!(last, Fault::Truncate { .. } | Fault::Hangup),
                "connections must end in a terminal fault, got {last:?}"
            );
            // Terminal faults appear only at the end.
            for fault in &connection.faults[..connection.faults.len() - 1] {
                assert!(matches!(fault, Fault::Clean | Fault::Stall));
            }
            // Truncations always send at least one byte but never a
            // whole header — the server must see a *started* frame.
            for fault in &connection.faults {
                if let Fault::Truncate { keep } = fault {
                    assert!((1..HEADER_LEN as u32).contains(keep));
                }
            }
        }
    }

    #[test]
    fn panic_schedule_is_every_nth() {
        let plan = FaultPlan::generate(&config(1));
        assert_eq!(plan.panic_queries, vec![10, 20, 30]);
        assert!(plan.should_panic(10));
        assert!(plan.should_panic(30));
        assert!(!plan.should_panic(11));
        assert!(!plan.should_panic(0));
        let quiet = FaultPlan::generate(&ChaosConfig {
            panic_every: 0,
            panics: 9,
            ..config(1)
        });
        assert!(quiet.panic_queries.is_empty());
    }

    #[test]
    fn frame_faults_counts_non_clean_entries() {
        let plan = FaultPlan::generate(&config(5));
        let manual: u64 = plan
            .connections
            .iter()
            .flat_map(|c| &c.faults)
            .filter(|f| !matches!(f, Fault::Clean))
            .count() as u64;
        assert_eq!(plan.frame_faults(), manual);
        // Terminal faults alone guarantee at least one per connection.
        assert!(plan.frame_faults() >= plan.connections.len() as u64);
    }

    #[test]
    fn panic_hook_fires_on_schedule_only() {
        let plan = FaultPlan {
            seed: 0,
            connections: Vec::new(),
            panic_queries: vec![2],
        };
        let registry = Arc::new(MetricsRegistry::new(1));
        let slot = RegistrySlot::new();
        slot.bind(Arc::clone(&registry));
        let hook = query_panic_hook(&plan, slot);
        let request = wire::QueryRequest::default();
        hook(&request); // 1: clean
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(&request)));
        assert!(outcome.is_err(), "query 2 must panic");
        hook(&request); // 3: clean again
        assert_eq!(registry.get(Counter::FaultsInjected), 1);
    }

    #[test]
    fn unbound_slot_still_panics_on_schedule() {
        let plan = FaultPlan {
            seed: 0,
            connections: Vec::new(),
            panic_queries: vec![1],
        };
        let hook = query_panic_hook(&plan, RegistrySlot::new());
        let request = wire::QueryRequest::default();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hook(&request)));
        assert!(outcome.is_err(), "panic fires even without a registry");
    }
}

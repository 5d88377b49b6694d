//! The traced run: every layer of a query's life timed from outside,
//! by calling the public functions each layer exposes, with one span
//! per layer boundary. Produces the per-layer metrics; end-to-end
//! metrics never come from here.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sentinel_core::{CandidateScratch, IsolationLevel, ServiceResponse, TypeId};
use sentinel_devices::{capture_setups, DeviceProfile, NetworkEnvironment, SetupSimulator};
use sentinel_editdist::dissimilarity_over;
use sentinel_fingerprint::{Fingerprint, FingerprintExtractor, FixedScratch};
use sentinel_gateway::{EnforcementRule, RuleCache};
use sentinel_net::MacAddr;
use sentinel_obs::{Counter, MetricsRegistry, MetricsSnapshot, Stage};
use sentinel_serve::wire::{self, Message, QueryResponse, ResponseItem, HEADER_LEN};

use crate::catalog::mix;
use crate::setup::{Served, Traffic};
use crate::span::Tracer;
use crate::spec::Workload;
use crate::stats::{mean, median};

/// Queries replayed layer by layer at most; the 27-type workloads reach
/// it within the time budget, `catalog1k` replays what fits.
const MAX_TRACED_QUERIES: usize = 20_000;

/// What the traced run found.
pub struct LayerReport {
    /// `(metric name, value)` for every per-layer metric.
    pub metrics: Vec<(String, f64)>,
    /// Operations checked against the oracle.
    pub attempted: u64,
    /// Of those, how many differed or errored.
    pub failed: u64,
    /// Every span recorded.
    pub tracer: Tracer,
}

impl LayerReport {
    fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Records a timing as its mean (`<name>`) and median (`<name>.p50`).
    fn timing(&mut self, name: &str, samples: &[f64]) {
        self.put(name, mean(samples));
        self.put(&format!("{name}.p50"), median(samples));
    }
}

/// Runs the traced measurement of `workload` for about `seconds`.
pub fn run(
    workload: &Workload,
    profiles: &[DeviceProfile],
    served: &mut Served,
    traffic: &Traffic,
    seed: u64,
    seconds: f64,
) -> LayerReport {
    let mut report = LayerReport {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        // A query is about a dozen spans.
        tracer: Tracer::with_capacity(MAX_TRACED_QUERIES * 16),
    };
    let (fingerprints, expected) = traffic.shuffled(mix(seed, 6));

    gateway_side(&mut report, profiles, seed);
    let frame_compute_p50_ns = in_process(
        &mut report,
        workload,
        served,
        &fingerprints,
        &expected,
        Duration::from_secs_f64(seconds / 2.0),
    );
    over_the_socket(
        &mut report,
        workload,
        served,
        &fingerprints,
        &expected,
        Duration::from_secs_f64(seconds / 2.0),
        frame_compute_p50_ns,
    );
    micro(&mut report);

    report.put("core.train_s", served.times.train_s);
    report.put("core.load_model_ms", served.times.load_model_ms);
    report.put("core.model_doc_bytes", served.doc.len() as f64);
    let bank = served.oracle.bank_stats();
    report.put("ml.arena_bytes", bank.arena_bytes as f64);
    report.put("ml.nodes", bank.nodes as f64);
    report.put("trace.spans", report.tracer.spans().len() as f64);
    report
}

/// Gateway-side cost, tracked only: decoding captured frames and
/// extracting a fingerprint from one setup's packets.
fn gateway_side(report: &mut LayerReport, profiles: &[DeviceProfile], seed: u64) {
    let env = NetworkEnvironment::default();
    let mut decode_ns = Vec::new();
    let mut extract_us = Vec::new();
    let stride = (profiles.len() / 27).max(1);
    for profile in profiles.iter().step_by(stride) {
        let mut simulator = SetupSimulator::new(env.clone(), mix(seed, 7));
        for instance in 0..3 {
            let capture = simulator.simulate(profile, instance);
            let start = Instant::now();
            let packets = capture.decode_all().expect("simulator frames decode");
            decode_ns.push(start.elapsed().as_nanos() as f64 / packets.len() as f64);
        }
        for capture in capture_setups(profile, &env, 3, mix(seed, 7)) {
            let start = Instant::now();
            let fingerprint = FingerprintExtractor::extract_from(capture.packets());
            extract_us.push(start.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(fingerprint);
        }
    }
    report.timing("net.decode_ns_per_packet", &decode_ns);
    report.timing("fingerprint.extract_us", &extract_us);
}

/// Replays queries in process, one span per layer, and checks that the
/// layers put together give the service's own answer. Returns the
/// median in-process cost of one frame's worth of queries.
fn in_process(
    report: &mut LayerReport,
    workload: &Workload,
    served: &Served,
    fingerprints: &[Fingerprint],
    expected: &[ServiceResponse],
    budget: Duration,
) -> f64 {
    let service = &served.oracle;
    let identifier = service.identifier();
    let config = *identifier.config();
    let pool = served.server.cell().pool();
    let forests = identifier.type_count() as f64;
    let mut fixed = FixedScratch::new();
    let mut scratch = CandidateScratch::new();
    let mut identify_scratch = CandidateScratch::new();

    let (mut fill, mut stage_one, mut stage_two, mut advise) = (vec![], vec![], vec![], vec![]);
    let (mut identify, mut handle, mut batch64, mut distance) = (vec![], vec![], vec![], vec![]);
    let (mut candidates_total, mut k_ge2, mut distances) = (0u64, 0u64, 0u64);
    let scan_before = service.bank_stats().scan;
    let start = Instant::now();
    let mut queries = 0usize;
    let mut at = 0;
    // Chunk by chunk, four passes over the same 64 queries: the batch
    // entry point, the layers one by one, `identify_with`, `handle`.
    // Every pass meets a query 64 queries after the pass before did, so
    // all of them see the same cache state and their times compare.
    while queries < MAX_TRACED_QUERIES && start.elapsed() < budget {
        let to = (at + 64).min(fingerprints.len());
        let chunk = &fingerprints[at..to];
        let first_id = queries as u32;
        let tracer = &mut report.tracer;

        let (answers, ns) = tracer.time(first_id, "core.handle_batch64", None, || {
            service.handle_batch_on(pool, chunk)
        });
        batch64.push(ns as f64 / chunk.len() as f64);
        report.attempted += 1;
        report.failed += u64::from(answers != expected[at..to]);

        for (offset, fingerprint) in chunk.iter().enumerate() {
            let id = first_id + offset as u32;
            let root = tracer.begin(id, "query", None);
            let (fx, ns) = tracer.time(id, "fingerprint.fill", Some(root), || {
                fixed.fill(fingerprint, config.fixed_prefix_len)
            });
            fill.push(ns as f64);
            let (_, ns) = tracer.time(id, "ml.stage_one", Some(root), || {
                identifier.classify_candidates_into(fx, &mut scratch)
            });
            stage_one.push(ns as f64);
            let candidates = scratch.candidates();
            candidates_total += candidates.len() as u64;
            let two = tracer.begin(id, "editdist.stage_two", Some(root));
            let mut winner: Option<(TypeId, f64)> = candidates.first().map(|c| (*c, 0.0));
            if candidates.len() > 1 {
                k_ge2 += 1;
                winner = None;
                for candidate in candidates {
                    let references = identifier
                        .references(*candidate)
                        .expect("every candidate has references");
                    let (score, ns) = tracer.time(id, "editdist.dissimilarity", Some(two), || {
                        dissimilarity_over(fingerprint, references, config.distance)
                    });
                    distances += references.len() as u64;
                    distance.push(ns as f64 / references.len() as f64);
                    // Ties go to the earlier candidate, as the
                    // identifier's stable sort sends them.
                    if winner.is_none_or(|(_, best)| score < best) {
                        winner = Some((*candidate, score));
                    }
                }
            }
            stage_two.push(tracer.end(two) as f64);
            let device_type = winner.map(|(id, _)| id);
            let (isolation, ns) = tracer.time(id, "core.advise", Some(root), || {
                service.vulnerabilities().assess(device_type)
            });
            advise.push(ns as f64);
            tracer.end(root);
            let assembled = ServiceResponse {
                device_type,
                isolation,
                needed_discrimination: candidates.len() > 1,
            };
            report.attempted += 1;
            report.failed += u64::from(assembled != expected[at + offset]);
        }
        for (offset, fingerprint) in chunk.iter().enumerate() {
            let (_, ns) = tracer.time(first_id + offset as u32, "core.identify", None, || {
                identifier.identify_with(fingerprint, &mut identify_scratch)
            });
            identify.push(ns as f64);
        }
        for (offset, fingerprint) in chunk.iter().enumerate() {
            let (handled, ns) = tracer.time(first_id + offset as u32, "core.handle", None, || {
                service.handle(fingerprint)
            });
            handle.push(ns as f64);
            report.attempted += 1;
            report.failed += u64::from(handled != expected[at + offset]);
        }
        queries += chunk.len();
        at = to % fingerprints.len();
    }
    let scan = service.bank_stats().scan;
    let scanned = (scan.queries - scan_before.queries) as f64 * forests;
    report.put(
        "ml.forests_skipped_share",
        (scan.forests_skipped - scan_before.forests_skipped) as f64 / scanned,
    );

    report.timing("fingerprint.fill_ns", &fill);
    report.timing("ml.stage_one_ns", &stage_one);
    report.timing("editdist.stage_two_ns", &stage_two);
    if distance.is_empty() {
        // Stage two never ran (the workload bypasses it by design).
        distance.push(0.0);
    }
    report.timing("editdist.distance_ns", &distance);
    report.put(
        "editdist.distances_per_query",
        distances as f64 / queries as f64,
    );
    report.put(
        "core.candidates_mean",
        candidates_total as f64 / queries as f64,
    );
    report.put("core.k_ge2_share", k_ge2 as f64 / queries as f64);
    report.timing("core.identify_ns", &identify);
    report.timing("core.advise_ns", &advise);
    report.timing("core.handle_ns", &handle);
    report.timing("core.handle_batch64_ns_per_query", &batch64);
    let parts = mean(&fill) + mean(&stage_one) + mean(&stage_two) + mean(&advise);
    report.put("core.budget_coverage", parts / mean(&handle));
    if workload.batch == 1 {
        median(&handle)
    } else {
        median(&batch64) * workload.batch as f64
    }
}

/// One raw connection speaking the wire protocol through the `wire`
/// free functions, so each step of the client's side is its own span.
struct RawConnection {
    stream: TcpStream,
    request: Vec<u8>,
    payload: Vec<u8>,
}

/// Client-side timings of a socket replay, nanoseconds per frame.
#[derive(Default)]
struct SocketTimes {
    frame: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    request_bytes: Vec<f64>,
    queries: u64,
}

impl RawConnection {
    /// Sends frames of `batch` fingerprints for `duration`. Every other
    /// frame is traced (a root span and three children), so the traced
    /// and the untraced frames meet the same machine and differ only
    /// by the tracing.
    fn replay(
        &mut self,
        report: &mut LayerReport,
        batch: usize,
        fingerprints: &[Fingerprint],
        expected: &[ServiceResponse],
        duration: Duration,
    ) -> (SocketTimes, SocketTimes) {
        let (mut plain, mut traced) = (SocketTimes::default(), SocketTimes::default());
        let start = Instant::now();
        let mut at = 0;
        let mut frame = 0u32;
        while start.elapsed() < duration {
            let to = (at + batch).min(fingerprints.len());
            let frame_start = Instant::now();
            let (matches, times) = if frame % 2 == 1 {
                let id = MAX_TRACED_QUERIES as u32 + frame;
                let tracer = &mut report.tracer;
                let root = tracer.begin(id, "frame", None);
                let (_, encode_ns) = tracer.time(id, "client.encode", Some(root), || {
                    self.encode(&fingerprints[at..to])
                });
                let (header, _) =
                    tracer.time(id, "socket.roundtrip", Some(root), || self.roundtrip());
                let (matches, decode_ns) = tracer.time(id, "client.decode", Some(root), || {
                    self.decode(header, &expected[at..to])
                });
                tracer.end(root);
                traced.encode.push(encode_ns as f64);
                traced.decode.push(decode_ns as f64);
                (matches, &mut traced)
            } else {
                self.encode(&fingerprints[at..to]);
                let header = self.roundtrip();
                (self.decode(header, &expected[at..to]), &mut plain)
            };
            times.frame.push(frame_start.elapsed().as_nanos() as f64);
            times.request_bytes.push(self.request.len() as f64);
            times.queries += (to - at) as u64;
            report.attempted += 1;
            report.failed += u64::from(!matches);
            at = to % fingerprints.len();
            frame += 1;
        }
        (plain, traced)
    }

    fn encode(&mut self, fingerprints: &[Fingerprint]) {
        self.request.clear();
        wire::encode_query_request_frame(false, fingerprints, &mut self.request)
            .expect("the frame encodes");
    }

    fn roundtrip(&mut self) -> wire::FrameHeader {
        self.stream.write_all(&self.request).expect("socket write");
        let mut header = [0u8; HEADER_LEN];
        self.stream.read_exact(&mut header).expect("socket read");
        let header = wire::decode_header(&header).expect("a valid response header");
        self.payload.resize(header.len as usize, 0);
        self.stream
            .read_exact(&mut self.payload)
            .expect("socket read");
        header
    }

    fn decode(&mut self, header: wire::FrameHeader, expected: &[ServiceResponse]) -> bool {
        match wire::decode_payload_at(header.version, header.kind, &self.payload) {
            Ok(Message::QueryResponse(response)) => {
                response.items.len() == expected.len()
                    && response
                        .items
                        .iter()
                        .zip(expected)
                        .all(|(got, want)| got.response == *want)
            }
            _ => false,
        }
    }
}

fn stage_p50_us(snapshot: &MetricsSnapshot, stage: Stage) -> f64 {
    snapshot.stage(stage).map_or(0.0, |s| s.p50_ns as f64 / 1e3)
}

/// Replays frames over one raw loopback connection and reads the
/// server's own stage timers afterwards.
fn over_the_socket(
    report: &mut LayerReport,
    workload: &Workload,
    served: &mut Served,
    fingerprints: &[Fingerprint],
    expected: &[ServiceResponse],
    budget: Duration,
    frame_compute_p50_ns: f64,
) {
    let admin = &mut served.clients[0];
    let mut ping_us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let start = Instant::now();
        let pong = admin.ping();
        ping_us.push(start.elapsed().as_nanos() as f64 / 1e3);
        report.attempted += 1;
        report.failed += u64::from(pong.is_err());
    }
    report.timing("serve.ping_rtt_us", &ping_us);

    let pool = served.server.cell().pool();
    let mut handoff_us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let start = Instant::now();
        pool.run(|| ()).expect("an empty task cannot panic");
        handoff_us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    report.timing("pool.handoff_us", &handoff_us);

    let stream = TcpStream::connect(served.server.local_addr()).expect("loopback connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut raw = RawConnection {
        stream,
        request: Vec::new(),
        payload: Vec::new(),
    };
    let before = admin.server_stats().expect("server stats");
    let batch = workload.batch;
    let (plain, traced) = raw.replay(report, batch, fingerprints, expected, budget);
    let after = admin.server_stats().expect("server stats");

    let kqueries = (plain.queries + traced.queries) as f64 / 1e3;
    let delta = |counter| (after.counter(counter) - before.counter(counter)) as f64;
    report.put(
        "pool.parks_per_kquery",
        delta(Counter::PoolParks) / kqueries,
    );
    report.put("pool.steals", delta(Counter::PoolSteals));

    report.timing("wire.encode_request_ns", &traced.encode);
    report.timing("wire.decode_response_ns", &traced.decode);
    report.put("wire.request_bytes", mean(&traced.request_bytes));
    server_side_wire(report, batch, fingerprints, expected);

    let client_p50_us = median(&plain.frame) / 1e3;
    let frame_p50_us = stage_p50_us(&after, Stage::Frame);
    report.put(
        "serve.stage_decode_p50_us",
        stage_p50_us(&after, Stage::Decode),
    );
    report.put("serve.stage_scan_p50_us", stage_p50_us(&after, Stage::Scan));
    report.put(
        "serve.stage_encode_p50_us",
        stage_p50_us(&after, Stage::Encode),
    );
    report.put("serve.stage_frame_p50_us", frame_p50_us);
    report.put("serve.unattributed_us", client_p50_us - frame_p50_us);
    report.put(
        "serve.rtt_coverage",
        (median(&ping_us) + median(&handoff_us) + frame_compute_p50_ns / 1e3) / client_p50_us,
    );
    report.put(
        "trace.overhead_share",
        (median(&traced.frame) / 1e3 - client_p50_us) / client_p50_us,
    );
}

/// The server's half of the wire codec, on the workload's own frames.
fn server_side_wire(
    report: &mut LayerReport,
    batch: usize,
    fingerprints: &[Fingerprint],
    expected: &[ServiceResponse],
) {
    let (mut decode_request, mut encode_response) = (Vec::new(), Vec::new());
    let mut request = Vec::new();
    let mut response = Vec::new();
    let chunks = fingerprints.chunks(batch).zip(expected.chunks(batch));
    for (fingerprints, answers) in chunks.take(2000) {
        request.clear();
        wire::encode_query_request_frame(false, fingerprints, &mut request)
            .expect("the frame encodes");
        let start = Instant::now();
        let decoded = wire::decode_frame(&request, wire::DEFAULT_MAX_FRAME_BYTES);
        decode_request.push(start.elapsed().as_nanos() as f64);
        std::hint::black_box(decoded.expect("the frame decodes"));

        let message = Message::QueryResponse(QueryResponse {
            epoch: Some(1),
            items: answers
                .iter()
                .map(|response| ResponseItem {
                    response: *response,
                    name: None,
                })
                .collect(),
        });
        response.clear();
        let start = Instant::now();
        wire::encode_frame(&message, &mut response).expect("the response encodes");
        encode_response.push(start.elapsed().as_nanos() as f64);
        std::hint::black_box(&response);
    }
    report.timing("wire.decode_request_ns", &decode_request);
    report.timing("wire.encode_response_ns", &encode_response);
}

/// Nanoseconds per call of `f`, one sample per block of a thousand
/// calls: a single call is shorter than reading the clock.
fn per_call_ns(mut f: impl FnMut(usize)) -> Vec<f64> {
    (0..200)
        .map(|block| {
            let start = Instant::now();
            for i in 0..1000 {
                f(block * 1000 + i);
            }
            start.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect()
}

/// The two tracked-only micro costs: a metrics record (the budget a
/// tracing change spends, four per frame today) and a gateway rule
/// lookup at 10⁴ rules (the shape of the paper's Table VI).
fn micro(report: &mut LayerReport) {
    let registry = MetricsRegistry::new(1);
    let record = per_call_ns(|i| registry.record(0, Stage::Scan, 1000 + i as u64));
    report.timing("obs.record_ns", &record);

    let mac = |i: usize| MacAddr::new([2, 0xcc, (i >> 16) as u8, (i >> 8) as u8, i as u8, 1]);
    let mut cache = RuleCache::new();
    for i in 0..10_000 {
        cache.install(EnforcementRule::new(mac(i), IsolationLevel::Strict));
    }
    let lookup = per_call_ns(|i| {
        std::hint::black_box(cache.lookup(mac(i.wrapping_mul(7919) % 10_000)));
    });
    report.timing("gateway.rule_lookup_ns", &lookup);
}

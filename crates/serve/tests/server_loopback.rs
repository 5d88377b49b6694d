//! Server/client integration over loopback: correctness of remote
//! answers, protocol-error handling, frame-size guards, panic
//! containment, admin hot-reload, stats, and graceful shutdown.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sentinel_core::VulnerabilityRecord;
use sentinel_core::{
    persist, IoTSecurityService, IsolationClass, Severity, Trainer, VulnerabilityDatabase,
};
use sentinel_fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
use sentinel_serve::wire::{self, Message, HEADER_LEN, MAGIC, VERSION};
use sentinel_serve::{serve, ClientConfig, ClientError, ErrorCode, SentinelClient, ServerConfig};

fn fp_bits(bits: u32, tags: &[u32]) -> Fingerprint {
    Fingerprint::from_columns(
        tags.iter()
            .map(|t| {
                let mut v = [0u32; 23];
                for (b, slot) in v.iter_mut().enumerate().take(12) {
                    *slot = (bits >> b) & 1;
                }
                v[18] = *t;
                PacketFeatures::from_raw(v)
            })
            .collect(),
    )
}

fn service() -> IoTSecurityService {
    let mut ds = Dataset::new();
    for i in 0..12u32 {
        ds.push(LabeledFingerprint::new(
            "CleanType",
            fp_bits(0b001, &[100 + i, 110, 120]),
        ));
        ds.push(LabeledFingerprint::new(
            "VulnType",
            fp_bits(0b010, &[100 + i, 110, 120]),
        ));
        ds.push(LabeledFingerprint::new(
            "OtherType",
            fp_bits(0b100, &[100 + i, 110, 120]),
        ));
    }
    let mut identifier = Trainer::default().train(&ds, 4).unwrap();
    let mut db = VulnerabilityDatabase::new();
    let vuln = identifier.registry_mut().intern("VulnType");
    db.add_record(
        vuln,
        VulnerabilityRecord::new("CVE-S-1", "demo", Severity::High),
    );
    IoTSecurityService::new(identifier, db)
}

fn test_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        io_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

#[test]
fn remote_answers_match_in_process_answers() {
    let svc = service();
    let probes: Vec<Fingerprint> = (0..20)
        .map(|i| fp_bits(1 << (i % 4), &[100 + i as u32 % 8, 110, 120]))
        .collect();
    let local = svc.handle_batch(&probes);

    let handle = serve(svc, "127.0.0.1:0", test_config()).expect("bind");
    let mut client = SentinelClient::connect(
        handle.local_addr(),
        ClientConfig {
            resolve_names: true,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    client.ping().expect("ping");
    let remote = client.query_batch(&probes).expect("query");
    assert_eq!(remote.len(), local.len());
    for (local_resp, remote_item) in local.iter().zip(&remote) {
        assert_eq!(*local_resp, remote_item.response);
    }
    // Resolved names: known types carry their label, unknowns none.
    for item in &remote {
        match item.response.device_type {
            Some(_) => assert!(item.name.is_some()),
            None => assert!(item.name.is_none()),
        }
    }
    assert!(remote
        .iter()
        .any(|item| item.name.as_deref() == Some("VulnType")
            && item.response.isolation == IsolationClass::Restricted));

    let stats = handle.shutdown();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.frames_served, 2); // ping + one batch
    assert_eq!(stats.queries_answered, probes.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn malformed_frames_do_not_kill_the_server() {
    let handle = serve(service(), "127.0.0.1:0", test_config()).expect("bind");
    let addr = handle.local_addr();

    // 1. Garbage bytes: the server answers with an error frame (or
    //    just closes) and keeps serving.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    let mut sink = Vec::new();
    let _ = raw.read_to_end(&mut sink); // server closes on us
    drop(raw);

    // 2. Any version byte but ours — the retired v1 and v2 included —
    //    gets a typed unsupported-version error frame and a close.
    for version in [1, 2, VERSION + 9] {
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut frame = Vec::new();
        wire::encode_frame(&Message::Ping, &mut frame).unwrap();
        frame[4] = version;
        raw.write_all(&frame).expect("write bad version");
        let mut response = Vec::new();
        raw.read_to_end(&mut response).expect("read error frame");
        assert!(response.len() >= HEADER_LEN, "expected an error frame back");
        let (message, _) = wire::decode_frame(&response, wire::DEFAULT_MAX_FRAME_BYTES)
            .expect("decode error frame");
        match message {
            Message::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedVersion),
            other => panic!("expected error frame, got {other:?}"),
        }
    }

    // 3. Oversized length prefix: refused before allocation.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&MAGIC.to_be_bytes());
    frame.push(VERSION);
    frame.push(0x01);
    frame.extend_from_slice(&u32::MAX.to_be_bytes());
    raw.write_all(&frame).expect("write oversized");
    let mut response = Vec::new();
    raw.read_to_end(&mut response).expect("read error frame");
    let (message, _) =
        wire::decode_frame(&response, wire::DEFAULT_MAX_FRAME_BYTES).expect("decode error frame");
    match message {
        Message::Error(e) => assert_eq!(e.code, ErrorCode::FrameTooLarge),
        other => panic!("expected error frame, got {other:?}"),
    }
    drop(raw);

    // After all that abuse a well-behaved client still gets answers.
    let mut client = SentinelClient::connect(addr, ClientConfig::default()).expect("connect");
    let result = client
        .query(&fp_bits(0b001, &[104, 110, 120]))
        .expect("server must still serve");
    assert_eq!(result.response.isolation, IsolationClass::Trusted);

    let stats = handle.shutdown();
    assert!(stats.protocol_errors >= 5, "stats: {stats:?}");
    assert_eq!(stats.queries_answered, 1);
}

#[test]
fn oversized_batch_is_refused_with_a_typed_error() {
    let config = ServerConfig {
        max_batch: 4,
        ..test_config()
    };
    let handle = serve(service(), "127.0.0.1:0", config).expect("bind");
    let mut client =
        SentinelClient::connect(handle.local_addr(), ClientConfig::default()).expect("connect");
    let probes = vec![fp_bits(0b001, &[104, 110, 120]); 5];
    match client.query_batch(&probes) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::BatchTooLarge);
        }
        other => panic!("expected a batch-too-large server error, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn client_retries_cover_slow_server_start() {
    // Nothing listens yet: exhausting retries yields an Io error
    // rather than hanging.
    let config = ClientConfig {
        connect_attempts: 2,
        retry_delay: Duration::from_millis(10),
        ..ClientConfig::default()
    };
    // Port 1 on loopback is essentially guaranteed closed.
    match SentinelClient::connect("127.0.0.1:1", config) {
        Err(ClientError::Io(_)) => {}
        other => panic!("expected an Io error, got {other:?}"),
    }
}

#[test]
fn idle_connections_are_closed_and_slow_frames_time_out() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(100),
        io_timeout: Duration::from_millis(200),
        ..test_config()
    };
    let handle = serve(service(), "127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr();

    // A silent connection is evicted after the idle timeout instead of
    // pinning its worker forever.
    let mut idle = TcpStream::connect(addr).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut sink = Vec::new();
    let n = idle
        .read_to_end(&mut sink)
        .expect("server closes idle conn");
    assert_eq!(n, 0, "idle close sends nothing");

    // A drip-fed frame trips the whole-frame deadline even though each
    // individual byte arrives well within the per-read window.
    let mut frame = Vec::new();
    wire::encode_frame(&Message::Ping, &mut frame).unwrap();
    let mut slow = TcpStream::connect(addr).expect("connect slow");
    slow.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut closed_early = false;
    for byte in &frame {
        if slow.write_all(std::slice::from_ref(byte)).is_err() {
            closed_early = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(60));
    }
    let mut sink = Vec::new();
    let got_pong = !closed_early
        && matches!(
            slow.read_to_end(&mut sink),
            Ok(n) if n >= HEADER_LEN
                && wire::decode_frame(&sink, wire::DEFAULT_MAX_FRAME_BYTES)
                    .is_ok_and(|(m, _)| m == Message::Pong)
        );
    assert!(
        !got_pong,
        "a 10-byte frame dripped over ~600ms must miss the 200ms frame deadline"
    );

    // The server is still healthy for fast clients.
    let mut client = SentinelClient::connect(addr, ClientConfig::default()).expect("connect");
    client.ping().expect("ping still works");
    handle.shutdown();
}

#[test]
fn panicking_handler_kills_one_connection_not_the_server() {
    // The hook panics on the first query it sees; everything after
    // that serves normally.
    let hits = Arc::new(AtomicU64::new(0));
    let config = ServerConfig {
        fault_injection: Some(Arc::new({
            let hits = Arc::clone(&hits);
            move |_request: &wire::QueryRequest| {
                if hits.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("injected handler fault");
                }
            }
        })),
        ..test_config()
    };
    let svc = service();
    let probe = fp_bits(0b001, &[104, 110, 120]);
    let expected = svc.handle(&probe);
    let handle = serve(svc, "127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr();

    // The faulted connection dies without an answer…
    let mut victim = SentinelClient::connect(addr, ClientConfig::default()).expect("connect");
    assert!(
        victim.query(&probe).is_err(),
        "the panicking handler cannot have produced an answer"
    );

    // …but the server survives: the same (still-connected? no — the
    // stream died) client reconnects and fresh connections answer.
    let mut fresh = SentinelClient::connect(addr, ClientConfig::default()).expect("reconnect");
    let result = fresh
        .query(&probe)
        .expect("the server must keep serving after a worker panic");
    assert_eq!(result.response, expected);

    // The panic is counted (the count lands asynchronously, after the
    // victim saw its connection die).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.stats().worker_panics < 1 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = handle.shutdown();
    assert_eq!(stats.worker_panics, 1, "stats: {stats:?}");
    assert_eq!(
        stats.connections_active, 0,
        "the active gauge must return to zero even across a panic: {stats:?}"
    );
    assert_eq!(stats.queries_answered, 1);
}

#[test]
fn active_gauge_returns_to_zero_after_abusive_clients() {
    // A mix of abuse: a panicking handler, raw garbage, and a client
    // that disappears mid-frame — the gauge must still drain to zero.
    let config = ServerConfig {
        fault_injection: Some(Arc::new(|_request: &wire::QueryRequest| {
            panic!("every query panics")
        })),
        ..test_config()
    };
    let handle = serve(service(), "127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr();

    let probe = fp_bits(0b001, &[104, 110, 120]);
    for _ in 0..3 {
        let mut client = SentinelClient::connect(addr, ClientConfig::default()).expect("connect");
        assert!(client.query(&probe).is_err());
    }
    let mut garbage = TcpStream::connect(addr).expect("connect garbage");
    let _ = garbage.write_all(&[0xAB; 32]);
    drop(garbage);
    // A frame announcing a payload that never arrives.
    let mut half = TcpStream::connect(addr).expect("connect half-frame");
    let mut frame = Vec::new();
    wire::encode_frame(&Message::Ping, &mut frame).unwrap();
    frame[6..10].copy_from_slice(&64u32.to_be_bytes());
    let _ = half.write_all(&frame);
    drop(half);

    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = handle.stats();
        if stats.worker_panics >= 3 && stats.connections_active == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "gauge never drained: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = handle.shutdown();
    assert_eq!(stats.worker_panics, 3, "stats: {stats:?}");
    assert_eq!(stats.connections_active, 0, "stats: {stats:?}");
}

/// The served model with one extra incrementally learned type, as a
/// persisted document.
fn extended_model_doc(svc: &IoTSecurityService) -> (Vec<u8>, Fingerprint) {
    let mut identifier = svc.identifier().clone();
    let new_fps: Vec<Fingerprint> = (0..10)
        .map(|i| fp_bits(0b1000, &[900 + i, 910, 920]))
        .collect();
    identifier
        .add_device_type("HotType", &new_fps, 9)
        .expect("incremental training");
    let mut doc = Vec::new();
    persist::write_identifier(&mut doc, &identifier).expect("persist");
    (doc, fp_bits(0b1000, &[903, 910, 920]))
}

#[test]
fn admin_reload_hot_swaps_the_model_on_a_live_connection() {
    let svc = service();
    let (doc, new_type_probe) = extended_model_doc(&svc);
    let config = ServerConfig {
        admin: true,
        ..test_config()
    };
    let handle = serve(svc, "127.0.0.1:0", config).expect("bind");
    let mut client =
        SentinelClient::connect(handle.local_addr(), ClientConfig::default()).expect("connect");

    // Before the reload the probe is unknown.
    let before = client.query(&new_type_probe).expect("query before");
    assert_eq!(before.response.device_type, None);
    assert_eq!(handle.stats().epoch, 1);

    let ack = client.reload(doc).expect("reload");
    assert_eq!(ack.epoch, 2);
    assert_eq!(ack.types, 4);

    // The *same* connection serves the new model from its next frame:
    // no reconnect needed, nothing dropped.
    let after = client.query(&new_type_probe).expect("query after");
    assert!(
        after.response.device_type.is_some(),
        "the reloaded model must identify the new type"
    );
    // The advisory database carried over across the swap.
    let vuln = client
        .query(&fp_bits(0b010, &[104, 110, 120]))
        .expect("vuln query");
    assert_eq!(vuln.response.isolation, IsolationClass::Restricted);

    let stats = handle.shutdown();
    assert_eq!(stats.epoch, 2);
    assert_eq!(stats.reloads, 1);
    assert_eq!(stats.worker_panics, 0);
}

#[test]
fn reload_is_refused_without_the_admin_flag() {
    let svc = service();
    let (doc, _) = extended_model_doc(&svc);
    let handle = serve(svc, "127.0.0.1:0", test_config()).expect("bind");
    let mut client =
        SentinelClient::connect(handle.local_addr(), ClientConfig::default()).expect("connect");
    match client.reload(doc) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::AdminDisabled),
        other => panic!("expected an admin-disabled error, got {other:?}"),
    }
    // Nothing was swapped, and the server still answers.
    let mut fresh =
        SentinelClient::connect(handle.local_addr(), ClientConfig::default()).expect("connect");
    fresh.ping().expect("ping");
    let stats = handle.shutdown();
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.reloads, 0);
}

#[test]
fn reload_with_a_mismatched_registry_is_rejected() {
    // A model trained on a different label universe: its registry
    // renames every issued id, so swapping it in would corrupt the
    // meaning of in-flight and stored TypeIds.
    let mut foreign_ds = Dataset::new();
    for i in 0..12u32 {
        foreign_ds.push(LabeledFingerprint::new(
            "Alpha",
            fp_bits(0b001, &[100 + i, 110, 120]),
        ));
        foreign_ds.push(LabeledFingerprint::new(
            "Beta",
            fp_bits(0b010, &[100 + i, 110, 120]),
        ));
        foreign_ds.push(LabeledFingerprint::new(
            "Gamma",
            fp_bits(0b100, &[100 + i, 110, 120]),
        ));
    }
    let foreign = Trainer::default().train(&foreign_ds, 4).unwrap();
    let mut foreign_doc = Vec::new();
    persist::write_identifier(&mut foreign_doc, &foreign).unwrap();

    let config = ServerConfig {
        admin: true,
        ..test_config()
    };
    let handle = serve(service(), "127.0.0.1:0", config).expect("bind");
    let mut client =
        SentinelClient::connect(handle.local_addr(), ClientConfig::default()).expect("connect");
    match client.reload(foreign_doc) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::ReloadRejected);
            assert!(message.contains("renames"), "message: {message}");
        }
        other => panic!("expected a reload-rejected error, got {other:?}"),
    }
    // A garbage document and a retired v1 document (v1 header, no
    // registry section) are rejected the same way, and the connection
    // stays usable through every refusal.
    let mut own_doc = Vec::new();
    persist::write_identifier(&mut own_doc, service().identifier()).unwrap();
    let own_doc = String::from_utf8(own_doc).unwrap();
    let v1_doc = format!(
        "iot-sentinel-model v1\n{}{}",
        &own_doc[own_doc.find("config ").unwrap()..own_doc.find("registry ").unwrap()],
        &own_doc[own_doc.find("types ").unwrap()..],
    );
    for doc in [b"not a model".to_vec(), v1_doc.into_bytes()] {
        match client.reload(doc) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::ReloadRejected);
                assert!(message.contains("line 1"), "message: {message}");
            }
            other => panic!("expected a reload-rejected error, got {other:?}"),
        }
    }
    client.ping().expect("connection survives refused reloads");
    let stats = handle.shutdown();
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.reloads, 0);
}

#[test]
fn shutdown_is_graceful_while_clients_are_connected() {
    let handle = serve(service(), "127.0.0.1:0", test_config()).expect("bind");
    let addr = handle.local_addr();
    // An idle client holds its connection open across shutdown.
    let idle = TcpStream::connect(addr).expect("connect idle");
    std::thread::sleep(Duration::from_millis(50));
    let stats = handle.shutdown(); // must not hang on the idle client
    assert!(stats.connections_accepted >= 1);
    assert_eq!(stats.connections_active, 0, "workers drained: {stats:?}");
    drop(idle);
}

#[test]
fn fresh_connections_are_served_without_waiting_for_a_poll() {
    let svc = service();
    let probe = fp_bits(0b001, &[104, 110, 120]);
    let expected = svc.handle(&probe);
    let handle = serve(svc, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.local_addr();

    // Connect + first answer, after idle gaps spread over 2..=97 ms so
    // no phase of a hypothetical accept sleep can hide: the accept
    // thread is blocked in `accept`, so each connection is handed to a
    // worker the moment it arrives.
    let rounds = 20u32;
    let mut total = Duration::ZERO;
    for round in 0..rounds {
        std::thread::sleep(Duration::from_millis(2 + 5 * u64::from(round)));
        let start = std::time::Instant::now();
        let mut client = SentinelClient::connect(addr, ClientConfig::default()).expect("connect");
        let result = client.query(&probe).expect("query");
        total += start.elapsed();
        assert_eq!(result.response, expected);
    }
    let mean = total / rounds;
    assert!(
        mean < Duration::from_millis(5),
        "connect + first answer took a mean of {mean:?}: something on the accept path sleeps"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.connections_accepted, u64::from(rounds));
}

/// Runs `f` on its own thread and fails the test — instead of hanging
/// it — when `f` has not returned within two seconds.
fn within_two_seconds<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(f()));
    result
        .recv_timeout(Duration::from_secs(2))
        .unwrap_or_else(|_| panic!("{what} did not return within 2 s"))
}

#[test]
fn shutdown_wakes_a_blocked_accept_on_every_kind_of_bind() {
    // No client ever connects: the accept thread sits in a blocking
    // `accept` until shutdown wakes it. The wildcard binds cannot be
    // connected to as-is; the wake goes through the loopback of the
    // same family.
    for addr in ["127.0.0.1:0", "0.0.0.0:0", "[::1]:0", "[::]:0"] {
        for drop_it in [false, true] {
            let handle = match serve(service(), addr, test_config()) {
                Ok(handle) => handle,
                // Hosts without IPv6 cannot bind the last two.
                Err(_) if addr.starts_with('[') => continue,
                Err(e) => panic!("bind {addr}: {e}"),
            };
            if drop_it {
                within_two_seconds(&format!("dropping the handle on {addr}"), move || {
                    drop(handle)
                });
            } else {
                let stats =
                    within_two_seconds(&format!("shutdown on {addr}"), move || handle.shutdown());
                // The wake connection is nobody's client.
                assert_eq!(stats.connections_accepted, 0, "{addr}: {stats:?}");
                assert_eq!(stats.connections_refused, 0, "{addr}: {stats:?}");
                assert_eq!(stats.connections_active, 0, "{addr}: {stats:?}");
            }
        }
    }
}

#[test]
fn bursts_beyond_workers_and_backlog_are_refused_and_counted() {
    let config = ServerConfig {
        workers: 1,
        ..test_config()
    };
    let handle = serve(service(), "127.0.0.1:0", config).expect("bind");
    let addr = handle.local_addr();

    // An answered ping proves the only worker has taken this connection
    // off the hand-off channel and is now pinned to it…
    let mut holder = SentinelClient::connect(addr, ClientConfig::default()).expect("connect");
    holder.ping().expect("ping");
    // …so four more connections fill the `workers * 4` backlog…
    let mut queued: Vec<TcpStream> = (0..4)
        .map(|_| TcpStream::connect(addr).expect("connect queued"))
        .collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.stats().connections_accepted < 5 {
        let stats = handle.stats();
        assert!(
            std::time::Instant::now() < deadline,
            "backlog never filled: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // …and the sixth completes its TCP handshake, then is closed at
    // accept time instead of parked: EOF (or a reset), never an answer.
    let mut refused = TcpStream::connect(addr).expect("connect refused");
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = Vec::new();
    match refused.read_to_end(&mut sink) {
        Ok(n) => assert_eq!(n, 0, "a refused connection is sent nothing"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    // The refusal was counted before the close the client just saw.
    assert_eq!(handle.stats().connections_refused, 1);
    assert_eq!(handle.stats().connections_accepted, 5);

    // Freeing the worker lets the oldest queued connection be served.
    drop(holder);
    let mut ping = Vec::new();
    wire::encode_frame(&Message::Ping, &mut ping).unwrap();
    let next = &mut queued[0];
    next.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    next.write_all(&ping).expect("write ping");
    let mut pong = [0u8; HEADER_LEN];
    next.read_exact(&mut pong).expect("read pong");
    let (message, _) = wire::decode_frame(&pong, wire::DEFAULT_MAX_FRAME_BYTES).expect("decode");
    assert_eq!(message, Message::Pong);

    let stats = handle.shutdown();
    assert_eq!(stats.connections_accepted, 5);
    assert_eq!(stats.connections_refused, 1);
    assert_eq!(stats.connections_active, 0, "workers drained: {stats:?}");
}

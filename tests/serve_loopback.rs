//! End-to-end acceptance for the network front-end: a
//! [`iot_sentinel::serve`] server started from the `Sentinel` facade
//! must answer batch queries **byte-identically** to the in-process
//! `handle_batch`, under concurrent client connections, survive
//! malformed frames, and hot-swap model epochs under live traffic
//! without a single dropped connection or torn batch.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use iot_sentinel::core::{persist, IsolationClass, ServiceResponse};
use iot_sentinel::core::{Severity, VulnerabilityRecord};
use iot_sentinel::fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};
use iot_sentinel::serve::{ClientConfig, SentinelClient, ServerConfig};
use iot_sentinel::{Sentinel, SentinelBuilder};

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

fn sentinel() -> Sentinel {
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
    SentinelBuilder::new()
        .dataset(ds)
        .training_seed(4)
        .vulnerability(
            "VulnType",
            VulnerabilityRecord::new("CVE-L-1", "demo", Severity::High),
        )
        .build()
        .unwrap()
}

fn probes(n: usize) -> Vec<Fingerprint> {
    (0..n)
        .map(|i| fp_bits(1 << (i % 4), &[100 + i as u32 % 9, 110, 120]))
        .collect()
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 6,
        ..ServerConfig::default()
    }
}

#[test]
fn loopback_batch_is_byte_identical_to_in_process() {
    let s = sentinel();
    let batch = probes(150); // spans multiple BATCH_CHUNKs server-side
    let local = s.handle_batch(&batch);

    let handle = s.serve("127.0.0.1:0", server_config()).expect("bind");
    let mut client =
        SentinelClient::connect(handle.local_addr(), ClientConfig::default()).expect("connect");
    let remote = client.query_batch(&batch).expect("remote batch");
    let remote_responses: Vec<_> = remote.iter().map(|r| r.response).collect();
    assert_eq!(remote_responses, local);
    // The Sentinel stays fully usable while serving.
    assert_eq!(s.handle(&batch[0]), local[0]);
    handle.shutdown();
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let s = sentinel();
    let handle = s.serve("127.0.0.1:0", server_config()).expect("bind");
    let addr = handle.local_addr();

    // Four client threads, each with its own probe mix, each checked
    // against the in-process truth.
    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let s = &s;
            scope.spawn(move || {
                let batch: Vec<Fingerprint> = (0..40)
                    .map(|i| {
                        fp_bits(
                            1 << ((i + worker) % 4),
                            &[100 + ((i + worker) as u32 % 9), 110, 120],
                        )
                    })
                    .collect();
                let expected = s.handle_batch(&batch);
                let mut client =
                    SentinelClient::connect(addr, ClientConfig::default()).expect("connect");
                for round in 0..3 {
                    let remote = client.query_batch(&batch).expect("remote batch");
                    let got: Vec<_> = remote.iter().map(|r| r.response).collect();
                    assert_eq!(got, expected, "client {worker} round {round}");
                }
            });
        }
    });

    let stats = handle.shutdown();
    assert_eq!(stats.connections_accepted, 4);
    assert_eq!(stats.queries_answered, 4 * 3 * 40);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn malformed_frames_leave_healthy_clients_unaffected() {
    let s = sentinel();
    let handle = s.serve("127.0.0.1:0", server_config()).expect("bind");
    let addr = handle.local_addr();

    let mut healthy =
        SentinelClient::connect(addr, ClientConfig::default()).expect("connect healthy");
    healthy.ping().expect("ping before abuse");

    // A hostile peer sprays garbage and disappears.
    for _ in 0..3 {
        let mut hostile = TcpStream::connect(addr).expect("connect hostile");
        let _ = hostile.write_all(&[0xFF; 64]);
        drop(hostile);
    }

    // The healthy client's established connection still answers.
    let batch = probes(10);
    let expected = s.handle_batch(&batch);
    let remote = healthy.query_batch(&batch).expect("query after abuse");
    let got: Vec<_> = remote.iter().map(|r| r.response).collect();
    assert_eq!(got, expected);
    // And so do fresh connections.
    let mut fresh = SentinelClient::connect(addr, ClientConfig::default()).expect("connect fresh");
    fresh.ping().expect("ping after abuse");

    // The hostile connections are handled asynchronously; wait for
    // their protocol errors to land in the stats before shutting down
    // (shutdown closes still-queued connections without reading them).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.stats().protocol_errors < 3 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = handle.shutdown();
    assert!(stats.protocol_errors >= 3, "stats: {stats:?}");
}

/// The acceptance pin for hot reload: 4 client threads hammer
/// `query_batch` while the main thread publishes two new epochs — one
/// adding a device type, one flipping an advisory's isolation class.
/// No client may see an error, every batch response must match *one*
/// published epoch exactly (a mixed-epoch answer means a model swap
/// tore a batch), and post-reload queries must identify the new type.
#[test]
fn reload_under_load_swaps_epochs_without_tearing_or_dropping() {
    let s = sentinel();
    // One probe per trained type, plus one matching the type published
    // in the first reload (unknown until then).
    let batch: Vec<Fingerprint> = vec![
        fp_bits(0b001, &[104, 110, 120]),
        fp_bits(0b010, &[105, 110, 120]),
        fp_bits(0b100, &[106, 110, 120]),
        fp_bits(0b1000, &[903, 910, 920]),
    ];
    // Every expected answer vector is registered before a client can
    // read back the epoch that produces it, so whatever a client reads
    // is already in the list when it checks.
    let published: Mutex<Vec<Vec<ServiceResponse>>> = Mutex::new(vec![s.handle_batch(&batch)]);
    let handle = s.serve("127.0.0.1:0", server_config()).expect("bind");
    let addr = handle.local_addr();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for client_id in 0..4usize {
            let batch = &batch;
            let published = &published;
            let stop = &stop;
            scope.spawn(move || {
                let mut client = SentinelClient::connect(addr, ClientConfig::default())
                    .expect("client connects");
                let mut rounds = 0u64;
                let mut epochs_seen = std::collections::HashSet::new();
                while !stop.load(Ordering::Acquire) {
                    // Zero tolerated errors: a dropped connection or
                    // errored query during a reload fails the test.
                    let remote = client
                        .query_batch(batch)
                        .unwrap_or_else(|e| panic!("client {client_id} errored: {e}"));
                    let got: Vec<ServiceResponse> = remote.iter().map(|r| r.response).collect();
                    let known = published.lock().unwrap();
                    let epoch = known.iter().position(|expected| *expected == got);
                    assert!(
                        epoch.is_some(),
                        "client {client_id} round {rounds}: response matches no \
                         published epoch (torn batch?): {got:?} vs {known:?}"
                    );
                    epochs_seen.insert(epoch.unwrap());
                    rounds += 1;
                }
                assert!(rounds > 0, "client {client_id} never completed a round");
                epochs_seen
            });
        }

        // Let the clients hit epoch 1, then roll out two epochs under
        // their feet.
        std::thread::sleep(Duration::from_millis(60));

        // Reload 1: a new device type appears.
        let new_fps: Vec<Fingerprint> = (0..10)
            .map(|i| fp_bits(0b1000, &[900 + i, 910, 920]))
            .collect();
        {
            // Held across the edit, which publishes: no client can read
            // the new epoch back before its answers are registered.
            let mut published = published.lock().unwrap();
            s.add_device_type("HotType", &new_fps, 9)
                .expect("incremental training");
            assert_eq!(s.service().epoch(), 2);
            published.push(s.handle_batch(&batch));
        }

        std::thread::sleep(Duration::from_millis(60));

        // Reload 2: an advisory flips CleanType's isolation class.
        {
            let mut published = published.lock().unwrap();
            s.add_vulnerability(
                "CleanType",
                VulnerabilityRecord::new("CVE-HOT-1", "published mid-flight", Severity::Critical),
            );
            assert_eq!(s.service().epoch(), 3);
            published.push(s.handle_batch(&batch));
        }

        std::thread::sleep(Duration::from_millis(60));
        stop.store(true, Ordering::Release);
    });

    // Post-reload: a fresh query identifies the hot-added type and
    // sees the new advisory's verdict.
    let final_responses = {
        let mut client = SentinelClient::connect(addr, ClientConfig::default()).expect("connect");
        client.query_batch(&batch).expect("post-reload batch")
    };
    let hot_id = s.service().registry().get("HotType").expect("interned");
    assert_eq!(final_responses[3].response.device_type, Some(hot_id));
    assert_eq!(
        final_responses[0].response.isolation,
        IsolationClass::Restricted
    );
    assert_eq!(
        final_responses,
        {
            let published = published.lock().unwrap();
            published
                .last()
                .unwrap()
                .iter()
                .map(|r| iot_sentinel::serve::QueryResult {
                    response: *r,
                    name: None,
                })
                .collect::<Vec<_>>()
        },
        "a fresh connection must serve the final epoch"
    );

    let stats = handle.shutdown();
    assert_eq!(stats.reloads, 2, "stats: {stats:?}");
    assert_eq!(stats.epoch, 3, "stats: {stats:?}");
    assert_eq!(stats.protocol_errors, 0, "stats: {stats:?}");
    assert_eq!(stats.worker_panics, 0, "stats: {stats:?}");
    assert_eq!(stats.connections_active, 0, "stats: {stats:?}");
}

/// One copy of the service: a model an admin client loads over the
/// wire is what the in-process facade answers from next, and a later
/// in-process edit builds on that model instead of replacing it.
#[test]
fn wire_reload_reaches_the_facade_and_a_later_edit_keeps_it() {
    let s = sentinel();
    let handle = s
        .serve(
            "127.0.0.1:0",
            ServerConfig {
                admin: true,
                ..server_config()
            },
        )
        .expect("bind");
    let mut extended = s.service().identifier().clone();
    let hot_fps: Vec<Fingerprint> = (0..10)
        .map(|i| fp_bits(0b1000, &[900 + i, 910, 920]))
        .collect();
    extended
        .add_device_type("HotType", &hot_fps, 9)
        .expect("incremental training");
    let mut model = Vec::new();
    persist::write_identifier(&mut model, &extended).expect("persist model");

    let mut client =
        SentinelClient::connect(handle.local_addr(), ClientConfig::default()).expect("connect");
    let ack = client.reload(model).expect("admin reload");
    assert_eq!((ack.epoch, ack.types), (2, 4));

    let probe = fp_bits(0b1000, &[903, 910, 920]);
    assert_eq!(s.service().registry().len(), 4);
    let hot = s.service().registry().get("HotType");
    assert!(hot.is_some(), "the facade must see the wire-loaded type");
    assert_eq!(s.handle(&probe).device_type, hot);

    s.add_vulnerability(
        "HotType",
        VulnerabilityRecord::new("CVE-HOT-2", "after the wire reload", Severity::High),
    );
    let local = s.handle(&probe);
    assert_eq!(
        (local.device_type, local.isolation),
        (hot, IsolationClass::Restricted)
    );
    let remote = client
        .query_batch(std::slice::from_ref(&probe))
        .expect("query after the edit");
    assert_eq!(
        remote[0].response, local,
        "the server answers what the facade answers"
    );
    handle.shutdown();
}

#[test]
fn resolved_names_match_the_registry() {
    let s = sentinel();
    let handle = s.serve("127.0.0.1:0", server_config()).expect("bind");
    let mut client = SentinelClient::connect(
        handle.local_addr(),
        ClientConfig {
            resolve_names: true,
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let batch = probes(12);
    let remote = client.query_batch(&batch).expect("remote batch");
    for (probe, item) in batch.iter().zip(&remote) {
        let expected = s.handle(probe);
        assert_eq!(item.response, expected);
        assert_eq!(
            item.name.as_deref(),
            s.service().type_name(expected.device_type),
            "remote name must be the registry's name"
        );
    }
    handle.shutdown();
}

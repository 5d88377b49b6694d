//! # IoT Sentinel
//!
//! A from-scratch Rust reproduction of *IoT Sentinel: Automated
//! Device-Type Identification for Security Enforcement in IoT*
//! (Miettinen et al., ICDCS 2017).
//!
//! IoT Sentinel watches the traffic a new device produces while being
//! set up in a home network, condenses it into a payload-free
//! fingerprint, identifies the device's *type* (make + model +
//! software version) with one Random Forest classifier per known type
//! plus edit-distance tie-breaking, looks the type up in a
//! vulnerability database, and has an SDN gateway confine vulnerable
//! or unknown devices to an untrusted network overlay.
//!
//! # Quickstart
//!
//! The whole pipeline assembles behind one facade: a
//! [`SentinelBuilder`] takes the training source (device catalogue,
//! labelled dataset, or pre-trained identifier) plus vulnerability
//! knowledge, and yields a [`Sentinel`] that answers queries and runs
//! the gateway lifecycle. Its service lives in one epoch-swapped
//! [`core::ServiceCell`], shared with every server it starts, so an
//! in-process edit and a model reloaded over the wire land in the same
//! place.
//!
//! ```no_run
//! use iot_sentinel::devices::catalog;
//! use iot_sentinel::{Sentinel, SentinelBuilder, SentinelEvent};
//!
//! // 1. Build: train on 27 device types, load the demo CVE database.
//! let mut sentinel = SentinelBuilder::new()
//!     .catalog(catalog::standard_catalog())
//!     .setups_per_type(20)
//!     .demo_vulnerabilities()
//!     .build()?;
//!
//! // 2. Query: fingerprints in, interned type + isolation class out.
//! //    Responses are Copy — the hot path allocates no strings; names
//! //    resolve by borrowing from the registry of a pinned epoch.
//! # let fingerprint = iot_sentinel::fingerprint::Fingerprint::default();
//! let response = sentinel.handle(&fingerprint);
//! println!(
//!     "identified {:?} -> {}",
//!     sentinel.service().type_name(response.device_type),
//!     response.isolation,
//! );
//!
//! // 3. Batch: one call per gateway sync instead of one per device.
//! # let fingerprints = vec![fingerprint.clone()];
//! for resp in sentinel.handle_batch(&fingerprints) {
//!     assert_eq!(resp, sentinel.handle(&fingerprint));
//! }
//!
//! // 4. Stream: lifecycle calls emit typed events.
//! # let mac = "02-00-00-00-00-01".parse()?;
//! sentinel.device_appeared(mac, iot_sentinel::net::SimTime::ZERO)?;
//! sentinel.complete_setup_unresolved(mac, &fingerprint)?;
//! for event in sentinel.events() {
//!     if let SentinelEvent::Identified { device_type, isolation, .. } = event {
//!         println!("device identified: {device_type:?} -> {isolation}");
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Crate map
//!
//! This meta-crate hosts the [`Sentinel`] facade and re-exports the
//! workspace's crates:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`net`] | `sentinel-net` | packet model, wire codec, pcap, capture monitor |
//! | [`devices`] | `sentinel-devices` | the 27 Table-II device behaviour profiles + simulator |
//! | [`fingerprint`] | `sentinel-fingerprint` | 23 features, F, F′, datasets, k-fold |
//! | [`ml`] | `sentinel-ml` | Random Forest, metrics |
//! | [`pool`] | `sentinel-pool` | fork-join fan-out of batches over one chunk; panic containment |
//! | [`editdist`] | `sentinel-editdist` | Damerau-Levenshtein over packet words |
//! | [`core`] | `sentinel-core` | two-stage identifier, IoTSSP, TypeRegistry, vulnerability DB |
//! | [`gateway`] | `sentinel-gateway` | SDN switch/controller, rules, overlays, WPS |
//! | [`serve`] | `sentinel-serve` | wire protocol, threaded TCP query server, blocking client |
//! | [`obs`] | `sentinel-obs` | lock-free metrics registry, stage histograms, snapshots |
//! | [`fleet`] | `sentinel-fleet` | discrete-event fleet simulator + live-server load driver |
//! | [`chaos`] | `sentinel-chaos` | seeded fault plans + live-server fault injection (chaos soaks) |
//!
//! The component types ([`core::Trainer`], [`core::IoTSecurityService`],
//! [`gateway::SdnController`], …) remain public for evaluation
//! harnesses and fine-grained control, but [`SentinelBuilder`] is the
//! supported way to assemble a working system.
//!
//! See `examples/` for end-to-end scenarios (gateway onboarding,
//! vulnerability response, unknown devices, firmware updates, pcap
//! workflows).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sentinel;

pub use sentinel::{BuildError, Sentinel, SentinelBuilder, SentinelEvent};

pub use sentinel_chaos as chaos;
pub use sentinel_core as core;
pub use sentinel_devices as devices;
pub use sentinel_editdist as editdist;
pub use sentinel_fingerprint as fingerprint;
pub use sentinel_fleet as fleet;
pub use sentinel_gateway as gateway;
pub use sentinel_ml as ml;
pub use sentinel_net as net;
pub use sentinel_obs as obs;
pub use sentinel_pool as pool;
pub use sentinel_serve as serve;

//! The unified `Sentinel` facade: one front door for the whole
//! pipeline.
//!
//! The underlying crates expose the paper's components separately —
//! [`Trainer`], [`DeviceTypeIdentifier`], [`IoTSecurityService`],
//! [`VulnerabilityDatabase`], [`SdnController`] — and wiring them by
//! hand takes half a page of boilerplate that is easy to get subtly
//! wrong (the vulnerability database must be keyed through the
//! identifier's [`TypeRegistry`], the controller must install what the
//! service answered, incident reporting must be switched on before
//! flows are decided…).
//!
//! [`SentinelBuilder`] owns that wiring: training data in (a device
//! catalogue, a labelled dataset, or a pre-trained identifier),
//! vulnerability knowledge layered on top, one `build()` out. The
//! service lives in exactly one place, the [`ServiceCell`] every server
//! started from the `Sentinel` shares: in-process queries, knowledge
//! edits and wire-admin reloads all read or publish its epochs, so an
//! edit made here and a model loaded over the wire can never diverge.
//! The resulting [`Sentinel`] serves
//!
//! * **stateless queries** — [`Sentinel::handle`] /
//!   [`Sentinel::handle_batch`], the IoTSSP fingerprint→isolation
//!   mapping, allocation-free per query,
//! * **gateway lifecycle** — [`Sentinel::device_appeared`],
//!   [`Sentinel::complete_setup`], [`Sentinel::decide_flow`],
//!   [`Sentinel::device_left`],
//! * **a typed event stream** — [`Sentinel::events`] drains
//!   [`SentinelEvent`]s (device appeared, identified, isolation
//!   changed, incident raised) instead of callers polling controller
//!   internals.

use std::collections::VecDeque;
use std::net::IpAddr;
use std::sync::Arc;

use sentinel_core::incidents::GatewayId;
use sentinel_core::{
    CoreError, DeviceTypeIdentifier, Identification, IdentifierConfig, IoTSecurityService,
    IsolationClass, RegistryMismatch, ServiceCell, ServiceEpoch, ServiceResponse, Trainer, TypeId,
    TypeRegistry, VulnerabilityDatabase, VulnerabilityRecord,
};
use sentinel_core::{Endpoint, IncidentReport};
use sentinel_devices::{generate_dataset, DeviceProfile, NetworkEnvironment};
use sentinel_fingerprint::{Dataset, Fingerprint};
use sentinel_gateway::{DeviceRecord, FlowDecision, FlowKey, GatewayError, SdnController};
use sentinel_net::{MacAddr, SimTime};

/// What happened inside a [`Sentinel`], as a typed stream.
///
/// Replaces the previous pattern of callers polling
/// [`SdnController::drain_incidents`] and diffing device records by
/// hand. Events accumulate in order and are consumed by
/// [`Sentinel::events`].
#[derive(Debug, Clone, PartialEq)]
pub enum SentinelEvent {
    /// A new device joined the network and was quarantined (strict
    /// isolation, untrusted overlay) pending identification.
    DeviceAppeared {
        /// The device's MAC address.
        mac: MacAddr,
        /// When it appeared.
        at: SimTime,
    },
    /// A device's setup completed and the IoTSSP identified it.
    Identified {
        /// The device's MAC address.
        mac: MacAddr,
        /// The identified type, or `None` for an unknown device.
        device_type: Option<TypeId>,
        /// The isolation class assigned.
        isolation: IsolationClass,
        /// Whether edit-distance discrimination was needed.
        needed_discrimination: bool,
    },
    /// A device's enforced isolation class changed (identification,
    /// re-assessment after a new advisory, …).
    IsolationChanged {
        /// The device's MAC address.
        mac: MacAddr,
        /// The class enforced before the change.
        from: IsolationClass,
        /// The class enforced now.
        to: IsolationClass,
    },
    /// A denied flow from an identified device was recorded for the
    /// §III-B crowd-correlation pipeline.
    IncidentRaised(IncidentReport),
}

/// Why [`SentinelBuilder::build`] refused to construct a [`Sentinel`].
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildError {
    /// No training source was supplied: the builder needs a catalogue,
    /// a dataset, or a pre-trained identifier.
    MissingTrainingData,
    /// The supplied dataset (or generated catalogue dataset) was
    /// empty.
    EmptyDataset,
    /// Training the identifier failed.
    Train(CoreError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingTrainingData => f.write_str(
                "SentinelBuilder needs a training source: \
                 catalog(…), dataset(…) or trained(…)",
            ),
            BuildError::EmptyDataset => f.write_str("training dataset is empty"),
            BuildError::Train(e) => write!(f, "training failed: {e}"),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Train(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for BuildError {
    fn from(e: CoreError) -> Self {
        BuildError::Train(e)
    }
}

enum TrainingSource {
    None,
    Catalog(Vec<DeviceProfile>),
    Dataset(Dataset),
    Trained(Box<DeviceTypeIdentifier>),
}

/// Step-by-step construction of a [`Sentinel`]:
/// catalogue/dataset → trainer configuration → vulnerability
/// knowledge → gateway policy.
///
/// # Example
///
/// ```no_run
/// use iot_sentinel::{Sentinel, SentinelBuilder};
/// use iot_sentinel::devices::catalog;
///
/// let mut sentinel = SentinelBuilder::new()
///     .catalog(catalog::standard_catalog())
///     .setups_per_type(10)
///     .demo_vulnerabilities()
///     .build()?;
/// # Ok::<(), iot_sentinel::BuildError>(())
/// ```
pub struct SentinelBuilder {
    source: TrainingSource,
    environment: NetworkEnvironment,
    setups_per_type: u32,
    dataset_seed: u64,
    config: IdentifierConfig,
    training_seed: u64,
    demo_vulnerabilities: bool,
    records: Vec<(String, VulnerabilityRecord)>,
    endpoints: Vec<(String, Endpoint)>,
    gateway_id: Option<GatewayId>,
}

impl Default for SentinelBuilder {
    fn default() -> Self {
        SentinelBuilder::new()
    }
}

impl SentinelBuilder {
    /// An empty builder. A training source (catalogue, dataset or
    /// pre-trained identifier) must be supplied before `build()`.
    pub fn new() -> Self {
        SentinelBuilder {
            source: TrainingSource::None,
            environment: NetworkEnvironment::default(),
            setups_per_type: 20,
            dataset_seed: 1,
            config: IdentifierConfig::default(),
            training_seed: 42,
            demo_vulnerabilities: false,
            records: Vec::new(),
            endpoints: Vec::new(),
            gateway_id: None,
        }
    }

    /// Trains from simulated setups of these device profiles
    /// (replaces any previously set training source).
    pub fn catalog(mut self, profiles: Vec<DeviceProfile>) -> Self {
        self.source = TrainingSource::Catalog(profiles);
        self
    }

    /// Trains from an already-collected labelled dataset (replaces any
    /// previously set training source).
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.source = TrainingSource::Dataset(dataset);
        self
    }

    /// Uses a pre-trained identifier — e.g. one reloaded via
    /// [`sentinel_core::persist::read_identifier`] — skipping training
    /// entirely (replaces any previously set training source).
    pub fn trained(mut self, identifier: DeviceTypeIdentifier) -> Self {
        self.source = TrainingSource::Trained(Box::new(identifier));
        self
    }

    /// The simulated network environment used when training from a
    /// catalogue.
    pub fn environment(mut self, environment: NetworkEnvironment) -> Self {
        self.environment = environment;
        self
    }

    /// Setup captures simulated per catalogue type (default 20, the
    /// paper's count).
    pub fn setups_per_type(mut self, setups: u32) -> Self {
        self.setups_per_type = setups;
        self
    }

    /// Seed for catalogue dataset generation (default 1).
    pub fn dataset_seed(mut self, seed: u64) -> Self {
        self.dataset_seed = seed;
        self
    }

    /// Identification-pipeline hyperparameters (default
    /// [`IdentifierConfig::default`]).
    pub fn identifier_config(mut self, config: IdentifierConfig) -> Self {
        self.config = config;
        self
    }

    /// Seed for classifier training (default 42).
    pub fn training_seed(mut self, seed: u64) -> Self {
        self.training_seed = seed;
        self
    }

    /// Loads the built-in demo CVE database (the paper's evaluation
    /// advisories) before any custom records.
    pub fn demo_vulnerabilities(mut self) -> Self {
        self.demo_vulnerabilities = true;
        self
    }

    /// Registers a vulnerability advisory for a device type by name;
    /// the name is interned into the shared registry at build time.
    pub fn vulnerability(mut self, device_type: &str, record: VulnerabilityRecord) -> Self {
        self.records.push((device_type.to_string(), record));
        self
    }

    /// Registers a vendor endpoint a restricted device type may keep
    /// reaching.
    pub fn vendor_endpoint(mut self, device_type: &str, endpoint: Endpoint) -> Self {
        self.endpoints.push((device_type.to_string(), endpoint));
        self
    }

    /// Enables §III-B incident reporting under the pseudonymous `id`:
    /// policy-violating flows from identified devices surface as
    /// [`SentinelEvent::IncidentRaised`].
    pub fn gateway_id(mut self, id: GatewayId) -> Self {
        self.gateway_id = Some(id);
        self
    }

    /// Wires everything together.
    ///
    /// # Errors
    ///
    /// [`BuildError::MissingTrainingData`] without a training source,
    /// [`BuildError::EmptyDataset`] for an empty catalogue/dataset,
    /// and [`BuildError::Train`] if classifier training fails.
    pub fn build(self) -> Result<Sentinel, BuildError> {
        let mut identifier = match self.source {
            TrainingSource::None => return Err(BuildError::MissingTrainingData),
            TrainingSource::Trained(identifier) => *identifier,
            TrainingSource::Catalog(profiles) => {
                if profiles.is_empty() {
                    return Err(BuildError::EmptyDataset);
                }
                let dataset = generate_dataset(
                    &profiles,
                    &self.environment,
                    self.setups_per_type,
                    self.dataset_seed,
                );
                Trainer::new(self.config).train(&dataset, self.training_seed)?
            }
            TrainingSource::Dataset(dataset) => {
                if dataset.is_empty() {
                    return Err(BuildError::EmptyDataset);
                }
                Trainer::new(self.config).train(&dataset, self.training_seed)?
            }
        };
        // All vulnerability knowledge interns through the identifier's
        // registry, so service-wide there is exactly one id space.
        let mut vulnerabilities = if self.demo_vulnerabilities {
            VulnerabilityDatabase::demo(identifier.registry_mut())
        } else {
            VulnerabilityDatabase::new()
        };
        for (name, record) in self.records {
            vulnerabilities.add_record_named(identifier.registry_mut(), &name, record);
        }
        for (name, endpoint) in self.endpoints {
            vulnerabilities.add_vendor_endpoint_named(identifier.registry_mut(), &name, endpoint);
        }
        let service = IoTSecurityService::new(identifier, vulnerabilities);
        let cell = ServiceCell::new(service);
        let mut controller = SdnController::new();
        if let Some(id) = self.gateway_id {
            controller.enable_incident_reporting(id);
        }
        Ok(Sentinel {
            controller,
            events: VecDeque::new(),
            cell: Arc::new(cell),
        })
    }
}

/// The assembled system: IoT Security Service + Security Gateway
/// control plane behind one handle.
///
/// Construct via [`SentinelBuilder`]. See the crate-level Quickstart
/// for an end-to-end tour.
#[derive(Debug)]
pub struct Sentinel {
    controller: SdnController,
    events: VecDeque<SentinelEvent>,
    /// The only copy of the service, shared with every server started
    /// from this Sentinel.
    cell: Arc<ServiceCell>,
}

impl Sentinel {
    // ----- stateless IoTSSP queries ---------------------------------

    /// Answers one fingerprint query from the current epoch:
    /// identified type + isolation class. Stateless; stage one runs
    /// against the compiled flat-arena classifier bank through a
    /// per-thread scratch, so a warm single-candidate (or
    /// unknown-device) query performs zero heap allocations end to
    /// end.
    pub fn handle(&self, fingerprint: &Fingerprint) -> ServiceResponse {
        self.cell.load().handle(fingerprint)
    }

    /// Answers a batch of fingerprint queries from one epoch, one
    /// response per fingerprint in order — semantically `N ×`
    /// [`Sentinel::handle`]; batches larger than one chunk fan out on
    /// the cell's compute pool.
    pub fn handle_batch(&self, fingerprints: &[Fingerprint]) -> Vec<ServiceResponse> {
        self.cell
            .load()
            .handle_batch_on(self.cell.pool(), fingerprints)
    }

    /// Answers one query and also returns the raw identification
    /// (accepted-candidate count and discrimination scores).
    pub fn handle_detailed(&self, fingerprint: &Fingerprint) -> (ServiceResponse, Identification) {
        self.cell.load().handle_detailed(fingerprint)
    }

    // ----- gateway lifecycle ----------------------------------------

    /// Registers a newly appeared device: strict isolation in the
    /// untrusted overlay until identification completes. Emits
    /// [`SentinelEvent::DeviceAppeared`].
    ///
    /// # Errors
    ///
    /// [`GatewayError::DuplicateDevice`] if already registered.
    pub fn device_appeared(&mut self, mac: MacAddr, now: SimTime) -> Result<(), GatewayError> {
        self.controller.on_device_appeared(mac, now)?;
        self.events
            .push_back(SentinelEvent::DeviceAppeared { mac, at: now });
        Ok(())
    }

    /// Completes a device's setup: identifies the fingerprint, adopts
    /// the returned isolation, pins restricted endpoints via
    /// `resolver` and installs the enforcement rule. Response and
    /// allow-list come from one pinned epoch. Emits
    /// [`SentinelEvent::Identified`] and, when the enforced class
    /// changed, [`SentinelEvent::IsolationChanged`].
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownDevice`] if the device never appeared.
    pub fn complete_setup(
        &mut self,
        mac: MacAddr,
        fingerprint: &Fingerprint,
        resolver: &dyn Fn(&str) -> Option<IpAddr>,
    ) -> Result<ServiceResponse, GatewayError> {
        let before = self
            .controller
            .device(mac)
            .map(|record| record.isolation.class());
        let service = self.cell.load();
        let response = service.handle(fingerprint);
        // The response itself is a Copy value (TypeId + isolation
        // class); the owned allow-list is materialised only here, where
        // the enforcement rule is actually installed.
        let level = response.isolation_level(service.vulnerabilities());
        self.controller
            .on_setup_complete(mac, response.device_type, level, resolver)?;
        self.events.push_back(SentinelEvent::Identified {
            mac,
            device_type: response.device_type,
            isolation: response.isolation,
            needed_discrimination: response.needed_discrimination,
        });
        if let Some(from) = before {
            if from != response.isolation {
                self.events.push_back(SentinelEvent::IsolationChanged {
                    mac,
                    from,
                    to: response.isolation,
                });
            }
        }
        Ok(response)
    }

    /// Like [`Sentinel::complete_setup`] with no DNS resolution —
    /// restricted allow-lists pin only literal IP endpoints.
    pub fn complete_setup_unresolved(
        &mut self,
        mac: MacAddr,
        fingerprint: &Fingerprint,
    ) -> Result<ServiceResponse, GatewayError> {
        self.complete_setup(mac, fingerprint, &|_| None)
    }

    /// Removes a disconnected device: rule, overlay entry and record.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownDevice`] if the device never appeared.
    pub fn device_left(&mut self, mac: MacAddr) -> Result<(), GatewayError> {
        self.controller.on_device_left(mac)
    }

    /// Packet-in: decides a flow that missed the switch's flow table.
    /// Denials from identified devices surface as
    /// [`SentinelEvent::IncidentRaised`] when a gateway id was
    /// configured.
    pub fn decide_flow(
        &mut self,
        key: &FlowKey,
        dst_is_local_device: bool,
        now: SimTime,
    ) -> FlowDecision {
        let decision = self.controller.decide_flow(key, dst_is_local_device, now);
        self.collect_incidents();
        decision
    }

    // ----- event stream ---------------------------------------------

    /// Drains the events accumulated since the last call, oldest
    /// first.
    ///
    /// Incidents queued by *direct* controller use — e.g. a switch
    /// driving [`SdnController::decide_flow`] through
    /// [`Sentinel::controller_mut`] — are collected here too, so no
    /// configured incident report is ever stranded in the controller.
    pub fn events(&mut self) -> impl Iterator<Item = SentinelEvent> + '_ {
        self.collect_incidents();
        self.events.drain(..)
    }

    /// Events waiting to be drained (including incidents still queued
    /// in the controller).
    pub fn pending_events(&mut self) -> usize {
        self.collect_incidents();
        self.events.len()
    }

    /// Moves incidents queued in the controller into the event stream.
    fn collect_incidents(&mut self) {
        for incident in self.controller.drain_incidents() {
            self.events
                .push_back(SentinelEvent::IncidentRaised(incident));
        }
    }

    // ----- knowledge updates ----------------------------------------
    //
    // Each edit publishes one epoch through `ServiceCell::update`, so it
    // reaches this Sentinel's queries and every running server at once.
    // Edits that must land in one epoch go through
    // `service_cell().update(..)` directly.

    /// Registers a newly discovered device type from captured
    /// fingerprints and trains only its classifier (§IV-B-1
    /// incremental learning). Returns the interned id.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadDataset`] if `fingerprints` is empty; nothing is
    /// published then.
    pub fn add_device_type(
        &self,
        label: &str,
        fingerprints: &[Fingerprint],
        seed: u64,
    ) -> Result<TypeId, CoreError> {
        self.cell.update(|service| {
            service
                .identifier_mut()
                .add_device_type(label, fingerprints, seed)
        })
    }

    /// Registers a new vulnerability advisory; subsequent queries for
    /// this type assess as restricted.
    pub fn add_vulnerability(&self, device_type: &str, record: VulnerabilityRecord) -> TypeId {
        self.edit_advisories(|registry, db| db.add_record_named(registry, device_type, record))
    }

    /// Registers a vendor endpoint for a (typically restricted) type.
    pub fn add_vendor_endpoint(&self, device_type: &str, endpoint: Endpoint) -> TypeId {
        self.edit_advisories(|registry, db| {
            db.add_vendor_endpoint_named(registry, device_type, endpoint)
        })
    }

    /// Publishes one advisory edit keyed by a type name it interns.
    fn edit_advisories(
        &self,
        edit: impl FnOnce(&mut TypeRegistry, &mut VulnerabilityDatabase) -> TypeId,
    ) -> TypeId {
        self.cell
            .update(|service| {
                let (identifier, vulnerabilities) = service.parts_mut();
                Ok::<_, RegistryMismatch>(edit(identifier.registry_mut(), vulnerabilities))
            })
            .expect("interning a name only appends to the registry")
    }

    // ----- network front-end ----------------------------------------

    /// Serves this Sentinel's IoT Security Service over TCP: binds
    /// `addr` and answers wire-protocol fingerprint queries (see
    /// [`sentinel_serve::wire`]) until the returned handle is shut
    /// down.
    ///
    /// The server answers from this Sentinel's [`ServiceCell`], like
    /// every other server started from it and like
    /// [`Sentinel::handle`]. Knowledge edits made afterwards reach it at
    /// its next frame boundary, and a wire-admin reload it accepts is
    /// what this Sentinel answers from next. Connections stay up across
    /// the swap, and in-flight batches are never answered from a mix of
    /// models.
    ///
    /// # Errors
    ///
    /// Propagates the socket bind failure.
    pub fn serve(
        &self,
        addr: impl std::net::ToSocketAddrs,
        config: sentinel_serve::ServerConfig,
    ) -> std::io::Result<sentinel_serve::ServerHandle> {
        sentinel_serve::serve_cell(Arc::clone(&self.cell), addr, config)
    }

    /// The epoch-swapped cell that holds this Sentinel's service. Hand
    /// a clone to [`sentinel_serve::serve_cell`] to run extra servers
    /// off the same model, or publish through it: a new identifier via
    /// [`ServiceCell::replace_identifier`], several edits in one epoch
    /// via [`ServiceCell::update`]. The cell shares the process-wide
    /// compute pool ([`sentinel_pool::global`]) that batches over one
    /// chunk fan out on.
    pub fn service_cell(&self) -> &Arc<ServiceCell> {
        &self.cell
    }

    // ----- component access -----------------------------------------

    /// The registry of connected devices.
    pub fn devices(&self) -> impl Iterator<Item = &DeviceRecord> {
        self.controller.devices()
    }

    /// The record of one device.
    pub fn device(&self, mac: MacAddr) -> Option<&DeviceRecord> {
        self.controller.device(mac)
    }

    /// The current epoch of the IoT Security Service (identifier +
    /// vulnerability DB), pinned: it keeps answering from that epoch
    /// however many are published after it.
    pub fn service(&self) -> ServiceEpoch {
        self.cell.load()
    }

    /// The SDN controller, for flows the facade does not cover
    /// (flow-level filters, driving an [`OvsSwitch`]).
    ///
    /// [`OvsSwitch`]: sentinel_gateway::OvsSwitch
    pub fn controller(&self) -> &SdnController {
        &self.controller
    }

    /// Mutable controller access (escape hatch; events raised through
    /// direct controller calls are not captured in the event stream).
    pub fn controller_mut(&mut self) -> &mut SdnController {
        &mut self.controller
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_core::Severity;
    use sentinel_fingerprint::{LabeledFingerprint, PacketFeatures};

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

    fn tiny_dataset() -> Dataset {
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
        ds
    }

    fn sentinel() -> Sentinel {
        SentinelBuilder::new()
            .dataset(tiny_dataset())
            .training_seed(4)
            .vulnerability(
                "VulnType",
                VulnerabilityRecord::new("CVE-X", "demo", Severity::High),
            )
            .vendor_endpoint("VulnType", Endpoint::Host("cloud.vuln.example".into()))
            .gateway_id(GatewayId(7))
            .build()
            .expect("tiny dataset trains")
    }

    #[test]
    fn builder_without_source_errors() {
        match SentinelBuilder::new().build() {
            Err(BuildError::MissingTrainingData) => {}
            other => panic!("expected MissingTrainingData, got {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_empty_dataset_and_catalog() {
        match SentinelBuilder::new().dataset(Dataset::new()).build() {
            Err(BuildError::EmptyDataset) => {}
            other => panic!("expected EmptyDataset, got {other:?}"),
        }
        match SentinelBuilder::new().catalog(Vec::new()).build() {
            Err(BuildError::EmptyDataset) => {}
            other => panic!("expected EmptyDataset, got {other:?}"),
        }
    }

    #[test]
    fn facade_answers_queries_and_resolves_names() {
        let s = sentinel();
        let resp = s.handle(&fp_bits(0b001, &[104, 110, 120]));
        assert_eq!(s.service().type_name(resp.device_type), Some("CleanType"));
        assert_eq!(resp.isolation, IsolationClass::Trusted);
        let vuln = s.handle(&fp_bits(0b010, &[104, 110, 120]));
        assert_eq!(vuln.isolation, IsolationClass::Restricted);
    }

    #[test]
    fn lifecycle_emits_typed_events() {
        let mut s = sentinel();
        let mac = MacAddr::new([2, 0, 0, 0, 0, 1]);
        s.device_appeared(mac, SimTime::ZERO).unwrap();
        let resp = s
            .complete_setup_unresolved(mac, &fp_bits(0b001, &[104, 110, 120]))
            .unwrap();
        assert_eq!(resp.isolation, IsolationClass::Trusted);
        let events: Vec<SentinelEvent> = s.events().collect();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0],
            SentinelEvent::DeviceAppeared {
                mac,
                at: SimTime::ZERO
            }
        );
        match &events[1] {
            SentinelEvent::Identified {
                mac: emac,
                device_type,
                isolation,
                ..
            } => {
                assert_eq!(*emac, mac);
                assert_eq!(s.service().type_name(*device_type), Some("CleanType"));
                assert_eq!(*isolation, IsolationClass::Trusted);
            }
            other => panic!("expected Identified, got {other:?}"),
        }
        assert_eq!(
            events[2],
            SentinelEvent::IsolationChanged {
                mac,
                from: IsolationClass::Strict,
                to: IsolationClass::Trusted,
            }
        );
        // Drained: nothing pending.
        assert_eq!(s.pending_events(), 0);
    }

    #[test]
    fn denied_flows_surface_as_incident_events() {
        use sentinel_net::Port;
        use std::net::Ipv4Addr;

        let mut s = sentinel();
        let mac = MacAddr::new([2, 0, 0, 0, 0, 2]);
        s.device_appeared(mac, SimTime::ZERO).unwrap();
        s.complete_setup_unresolved(mac, &fp_bits(0b010, &[104, 110, 120]))
            .unwrap();
        let _ = s.events().count();
        let key = FlowKey {
            src_mac: mac,
            dst_mac: MacAddr::new([2, 0, 0, 0, 0, 0]),
            src_ip: IpAddr::V4(Ipv4Addr::new(192, 168, 1, 50)),
            dst_ip: IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)),
            protocol: 6,
            src_port: Port::new(50000),
            dst_port: Port::new(443),
        };
        let decision = s.decide_flow(&key, false, SimTime::from_secs(30));
        assert_ne!(decision, FlowDecision::Allow);
        let events: Vec<SentinelEvent> = s.events().collect();
        assert_eq!(events.len(), 1);
        match &events[0] {
            SentinelEvent::IncidentRaised(report) => {
                assert_eq!(report.gateway, GatewayId(7));
                assert_eq!(s.service().registry().name(report.device_type), "VulnType");
            }
            other => panic!("expected IncidentRaised, got {other:?}"),
        }
    }

    #[test]
    fn incidents_from_direct_controller_use_still_reach_events() {
        use sentinel_net::Port;
        use std::net::Ipv4Addr;

        let mut s = sentinel();
        let mac = MacAddr::new([2, 0, 0, 0, 0, 3]);
        s.device_appeared(mac, SimTime::ZERO).unwrap();
        s.complete_setup_unresolved(mac, &fp_bits(0b010, &[104, 110, 120]))
            .unwrap();
        let _ = s.events().count();
        let key = FlowKey {
            src_mac: mac,
            dst_mac: MacAddr::new([2, 0, 0, 0, 0, 0]),
            src_ip: IpAddr::V4(Ipv4Addr::new(192, 168, 1, 50)),
            dst_ip: IpAddr::V4(Ipv4Addr::new(8, 8, 8, 8)),
            protocol: 6,
            src_port: Port::new(50001),
            dst_port: Port::new(443),
        };
        // Bypass the facade (the path OvsSwitch::process_packet takes):
        // the incident queues inside the controller…
        let decision = s
            .controller_mut()
            .decide_flow(&key, false, SimTime::from_secs(5));
        assert_ne!(decision, FlowDecision::Allow);
        // …and must still surface through the typed event stream.
        assert_eq!(s.pending_events(), 1);
        let events: Vec<SentinelEvent> = s.events().collect();
        assert!(matches!(events[0], SentinelEvent::IncidentRaised(_)));
    }

    #[test]
    fn knowledge_updates_flow_through_the_facade() {
        let s = sentinel();
        // CleanType is trusted until an advisory lands.
        assert_eq!(
            s.handle(&fp_bits(0b001, &[104, 110, 120])).isolation,
            IsolationClass::Trusted
        );
        s.add_vulnerability(
            "CleanType",
            VulnerabilityRecord::new("CVE-NEW", "fresh finding", Severity::Critical),
        );
        assert_eq!(
            s.handle(&fp_bits(0b001, &[104, 110, 120])).isolation,
            IsolationClass::Restricted
        );
        // Incremental type addition through the facade.
        let fps: Vec<Fingerprint> = (0..10)
            .map(|i| fp_bits(0b1000, &[900 + i, 910, 920]))
            .collect();
        let id = s.add_device_type("NovelType", &fps, 9).unwrap();
        assert_eq!(s.service().registry().name(id), "NovelType");
        let resp = s.handle(&fp_bits(0b1000, &[903, 910, 920]));
        assert_eq!(resp.device_type, Some(id));
    }

    #[test]
    fn an_edit_publishes_and_an_old_pin_keeps_its_epoch() {
        let s = sentinel();
        let cell = Arc::clone(s.service_cell());
        assert_eq!(s.service().epoch(), 1);
        let old_pin = cell.load();

        s.add_vulnerability(
            "CleanType",
            VulnerabilityRecord::new("CVE-R-1", "fresh", Severity::Critical),
        );
        // The edit is published as the next epoch at once…
        assert_eq!(s.service().epoch(), 2);
        assert_eq!(
            cell.load()
                .handle(&fp_bits(0b001, &[104, 110, 120]))
                .isolation,
            IsolationClass::Restricted
        );
        assert_eq!(
            s.handle(&fp_bits(0b001, &[104, 110, 120])).isolation,
            IsolationClass::Restricted
        );
        // …while the old pin keeps its epoch until refreshed.
        assert_eq!(
            old_pin.handle(&fp_bits(0b001, &[104, 110, 120])).isolation,
            IsolationClass::Trusted
        );
    }

    #[test]
    fn reload_model_swaps_extended_identifiers_and_rejects_foreign_ones() {
        let s = sentinel();
        // An extension of the current identifier: same registry prefix
        // plus one incrementally learned type.
        let mut extended = s.service().identifier().clone();
        let fps: Vec<Fingerprint> = (0..10)
            .map(|i| fp_bits(0b1000, &[900 + i, 910, 920]))
            .collect();
        let new_id = extended.add_device_type("NovelType", &fps, 9).unwrap();
        assert_eq!(s.service_cell().replace_identifier(extended).unwrap(), 2);
        let resp = s.handle(&fp_bits(0b1000, &[903, 910, 920]));
        assert_eq!(resp.device_type, Some(new_id));
        // The advisory registered at build time survives the swap.
        assert_eq!(
            s.handle(&fp_bits(0b010, &[104, 110, 120])).isolation,
            IsolationClass::Restricted
        );

        // A foreign identifier (different label universe) is refused
        // and changes nothing.
        let mut foreign_ds = Dataset::new();
        for i in 0..12u32 {
            foreign_ds.push(LabeledFingerprint::new(
                "Zeta",
                fp_bits(0b001, &[100 + i, 110, 120]),
            ));
            foreign_ds.push(LabeledFingerprint::new(
                "Eta",
                fp_bits(0b010, &[100 + i, 110, 120]),
            ));
        }
        let foreign = Trainer::default().train(&foreign_ds, 4).unwrap();
        assert!(s.service_cell().replace_identifier(foreign).is_err());
        assert_eq!(
            s.service().epoch(),
            2,
            "a refused reload must not advance the epoch"
        );
        assert_eq!(
            s.handle(&fp_bits(0b1000, &[903, 910, 920])).device_type,
            Some(new_id)
        );
    }

    #[test]
    fn batch_matches_singles_through_the_facade() {
        let s = sentinel();
        let probes: Vec<Fingerprint> = (0..10)
            .map(|i| fp_bits(1 << (i % 3), &[100 + i as u32, 110, 120]))
            .collect();
        let batched = s.handle_batch(&probes);
        for (probe, got) in probes.iter().zip(&batched) {
            assert_eq!(*got, s.handle(probe));
        }
    }
}

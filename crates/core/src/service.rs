//! The IoT Security Service (IoTSSP, paper §III-B): fingerprint in,
//! device type + isolation level out.
//!
//! "IoT Security Service does not store any information about its
//! Security Gateway clients, it just receives fingerprints and returns
//! an isolation level accordingly." — the service is accordingly a
//! pure function of its models: no per-client state exists.
//!
//! The query path is allocation-free on the response side: a
//! [`ServiceResponse`] is a `Copy` value carrying an interned
//! [`TypeId`] and a payload-free [`IsolationClass`]; names and
//! restricted allow-lists are resolved by borrowing from the service
//! ([`IoTSecurityService::registry`],
//! [`crate::VulnerabilityDatabase::vendor_endpoints`]) only where they
//! are actually needed.

use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard};

use sentinel_fingerprint::Fingerprint;
use sentinel_pool::ComputePool;

use crate::identifier::{DeviceTypeIdentifier, Identification};
use crate::isolation::{IsolationClass, IsolationLevel};
use crate::registry::{TypeId, TypeRegistry};
use crate::vulnerability::VulnerabilityDatabase;

/// Fingerprints per chunk in [`IoTSecurityService::handle_batch`].
/// Chunking keeps batches cache-friendly and marks the natural grain
/// for spreading a batch across worker threads later.
pub const BATCH_CHUNK: usize = 64;

/// The IoTSSP's answer to one fingerprint query. `Copy` — returning it
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceResponse {
    /// The identified device type, or `None` for an unknown device.
    pub device_type: Option<TypeId>,
    /// The isolation class the Security Gateway must enforce.
    /// Materialise the full [`IsolationLevel`] (with the restricted
    /// allow-list) via [`ServiceResponse::isolation_level`] at
    /// rule-install time.
    pub isolation: IsolationClass,
    /// Whether edit-distance discrimination was needed.
    pub needed_discrimination: bool,
}

impl ServiceResponse {
    /// Resolves the identified type to its name by borrowing from
    /// `registry` — no clone, no allocation.
    pub fn device_type_name<'a>(&self, registry: &'a TypeRegistry) -> Option<&'a str> {
        registry.resolve(self.device_type)
    }

    /// Materialises the full isolation level, attaching the vendor
    /// allow-list for restricted types (clones the endpoint list; call
    /// where a rule is installed, not per query).
    pub fn isolation_level(&self, vulnerabilities: &VulnerabilityDatabase) -> IsolationLevel {
        let endpoints = self
            .device_type
            .filter(|_| self.isolation == IsolationClass::Restricted)
            .map(|t| vulnerabilities.vendor_endpoints(t))
            .unwrap_or(&[]);
        self.isolation.with_endpoints(endpoints)
    }
}

/// The IoT Security Service: identification models plus the
/// vulnerability database.
#[derive(Debug, Clone)]
pub struct IoTSecurityService {
    identifier: DeviceTypeIdentifier,
    vulnerabilities: VulnerabilityDatabase,
}

impl IoTSecurityService {
    /// Assembles the service from a trained identifier and a
    /// vulnerability database.
    ///
    /// The database must have been keyed through **the identifier's
    /// registry** — interning advisory names through any other
    /// [`TypeRegistry`] silently aliases unrelated types. The
    /// `SentinelBuilder` facade in the `iot-sentinel` crate guarantees
    /// this; hand-wired callers should intern via
    /// [`DeviceTypeIdentifier::registry_mut`]. Debug builds assert
    /// that every database id at least resolves in the identifier's
    /// registry (out-of-range ids are always a mis-binding).
    pub fn new(identifier: DeviceTypeIdentifier, vulnerabilities: VulnerabilityDatabase) -> Self {
        debug_assert!(
            vulnerabilities
                .known_ids()
                .all(|id| identifier.registry().try_name(id).is_some()),
            "vulnerability database keyed by TypeIds unknown to the identifier's registry; \
             intern advisory names through the identifier's TypeRegistry \
             (SentinelBuilder does this automatically)"
        );
        IoTSecurityService {
            identifier,
            vulnerabilities,
        }
    }

    /// The underlying identifier.
    pub fn identifier(&self) -> &DeviceTypeIdentifier {
        &self.identifier
    }

    /// Mutable access to the identifier (for incremental type
    /// additions).
    pub fn identifier_mut(&mut self) -> &mut DeviceTypeIdentifier {
        &mut self.identifier
    }

    /// Shape statistics of the compiled classifier bank this service
    /// answers stage one from — what an operator checks after a
    /// [`crate::ServiceCell`] republish to confirm the freshly
    /// published epoch serves the expected number of forests.
    pub fn bank_stats(&self) -> crate::identifier::BankStats {
        self.identifier.bank_stats()
    }

    /// The vulnerability database.
    pub fn vulnerabilities(&self) -> &VulnerabilityDatabase {
        &self.vulnerabilities
    }

    /// Mutable access to the vulnerability database (new advisories).
    pub fn vulnerabilities_mut(&mut self) -> &mut VulnerabilityDatabase {
        &mut self.vulnerabilities
    }

    /// Borrows the identifier and the vulnerability database mutably at
    /// once (registration flows intern names through the identifier's
    /// registry while inserting advisories).
    pub fn parts_mut(&mut self) -> (&mut DeviceTypeIdentifier, &mut VulnerabilityDatabase) {
        (&mut self.identifier, &mut self.vulnerabilities)
    }

    /// The type-name interner shared by identifier and database.
    pub fn registry(&self) -> &TypeRegistry {
        self.identifier.registry()
    }

    /// Resolves an optional type id to its name.
    pub fn type_name(&self, id: Option<TypeId>) -> Option<&str> {
        self.registry().resolve(id)
    }

    /// The single response-assembly path shared by [`Self::handle`]
    /// and [`Self::handle_detailed`]: identification outcome →
    /// assessment → response. Allocation-free.
    fn respond(&self, device_type: Option<TypeId>, accepted: usize) -> ServiceResponse {
        ServiceResponse {
            device_type,
            isolation: self.vulnerabilities.assess(device_type),
            needed_discrimination: accepted > 1,
        }
    }

    /// Handles one fingerprint query from a Security Gateway:
    /// identify, assess, map to an isolation class. Winner and
    /// accepted count come straight from the per-thread scratch, so a
    /// warm call performs no heap allocation whether or not
    /// discrimination ran.
    pub fn handle(&self, fingerprint: &Fingerprint) -> ServiceResponse {
        let (device_type, accepted) = self.identifier.resolve(fingerprint);
        self.respond(device_type, accepted)
    }

    /// Handles a query and also returns the raw identification (for
    /// evaluation harnesses that need candidate sets and scores).
    pub fn handle_detailed(&self, fingerprint: &Fingerprint) -> (ServiceResponse, Identification) {
        let identification = self.identifier.identify(fingerprint);
        let response = self.respond(
            identification.device_type(),
            identification.accepted_candidates(),
        );
        (response, identification)
    }

    /// Handles a batch of fingerprint queries, producing one response
    /// per fingerprint in order.
    ///
    /// Semantically identical to calling [`Self::handle`] N times.
    /// Batches larger than one [`BATCH_CHUNK`] are fanned out as chunk
    /// tasks on the global compute pool; small batches stay on the
    /// calling thread. No call here ever spawns a thread. Use
    /// [`Self::handle_batch_on`] to pick the pool.
    pub fn handle_batch(&self, fingerprints: &[Fingerprint]) -> Vec<ServiceResponse> {
        self.handle_batch_on(sentinel_pool::global(), fingerprints)
    }

    /// Handles a batch on an explicit compute pool: the batch is split
    /// into [`BATCH_CHUNK`]-sized chunk tasks, each chunk's responses
    /// land in its own lane, and lanes are merged in chunk order — the
    /// result is bit-identical to the sequential order regardless of
    /// scheduling. Called from a task already running on `pool`, the
    /// chunks are shared with that pool's idle workers while the
    /// caller drains them too; nothing here ever spawns a thread.
    pub fn handle_batch_on(
        &self,
        pool: &ComputePool,
        fingerprints: &[Fingerprint],
    ) -> Vec<ServiceResponse> {
        let mut responses = Vec::with_capacity(fingerprints.len());
        self.handle_batch_into(pool, fingerprints, &mut responses);
        responses
    }

    /// [`Self::handle_batch_on`] against a caller-owned output buffer:
    /// `out` is cleared and refilled, so a warm caller that reuses its
    /// buffer performs zero heap allocations for the whole batch (the
    /// per-chunk lanes live in per-thread scratch and reuse their
    /// capacity too).
    pub fn handle_batch_into(
        &self,
        pool: &ComputePool,
        fingerprints: &[Fingerprint],
        out: &mut Vec<ServiceResponse>,
    ) {
        out.clear();
        if fingerprints.len() <= BATCH_CHUNK {
            out.extend(fingerprints.iter().map(|fp| self.handle(fp)));
            return;
        }
        let chunks = fingerprints.len().div_ceil(BATCH_CHUNK);
        BATCH_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            if scratch.lanes.len() < chunks {
                scratch.lanes.resize_with(chunks, Default::default);
            }
            let lanes = &scratch.lanes[..chunks];
            let outcome = pool.for_each(chunks, |chunk| {
                let start = chunk * BATCH_CHUNK;
                let end = (start + BATCH_CHUNK).min(fingerprints.len());
                let mut lane = lane_guard(&lanes[chunk]);
                lane.clear();
                lane.extend(fingerprints[start..end].iter().map(|fp| self.handle(fp)));
            });
            if let Err(contained) = outcome {
                panic!("batch worker panicked: {}", contained.message());
            }
            for lane in lanes {
                out.extend(lane_guard(lane).iter().copied());
            }
        });
    }
}

/// Locks a batch lane, recovering the guard if a panicking chunk task
/// poisoned it (lanes are cleared before reuse, so no stale state can
/// leak into the next batch).
fn lane_guard(lane: &Mutex<Vec<ServiceResponse>>) -> MutexGuard<'_, Vec<ServiceResponse>> {
    lane.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Reusable per-chunk response lanes for the pooled batch path. One
/// lane per chunk, each behind its own (always uncontended) `Mutex` so
/// pool tasks — which share the job closure by reference — get
/// exclusive lane access; lanes are merged in chunk order. Thread-local
/// per *calling* thread: pool workers running a batch hand-off and
/// serve connection threads each warm their own copy once and reuse it.
#[derive(Debug, Default)]
struct BatchScratch {
    lanes: Vec<Mutex<Vec<ServiceResponse>>>,
}

thread_local! {
    static BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use crate::vulnerability::{Severity, VulnerabilityRecord};
    use sentinel_fingerprint::{Dataset, Fingerprint, LabeledFingerprint, PacketFeatures};

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
        // Shared size range: separation rests on the protocol bits.
        for i in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                "CleanType",
                fp_bits(0b0000_0011, &[100 + i, 110, 120]),
            ));
            ds.push(LabeledFingerprint::new(
                "VulnType",
                fp_bits(0b0000_1100, &[100 + i, 110, 120]),
            ));
            // A third type so that "not X" is not equivalent to "Y":
            // with only two classes a one-vs-rest classifier accepts
            // everything its negatives do not look like.
            ds.push(LabeledFingerprint::new(
                "OtherType",
                fp_bits(0b0011_0000, &[100 + i, 110, 120]),
            ));
        }
        let identifier = Trainer::default().train(&ds, 4).unwrap();
        let mut db = VulnerabilityDatabase::new();
        let vuln = identifier.registry().get("VulnType").unwrap();
        db.add_record(
            vuln,
            VulnerabilityRecord::new("CVE-T-1", "demo", Severity::High),
        );
        db.add_vendor_endpoint(
            vuln,
            crate::isolation::Endpoint::Host("cloud.vuln.example".into()),
        );
        IoTSecurityService::new(identifier, db)
    }

    #[test]
    fn clean_device_gets_trusted() {
        let svc = service();
        let resp = svc.handle(&fp_bits(0b0000_0011, &[103, 110, 120]));
        assert_eq!(resp.device_type_name(svc.registry()), Some("CleanType"));
        assert_eq!(resp.isolation, IsolationClass::Trusted);
    }

    #[test]
    fn vulnerable_device_gets_restricted() {
        let svc = service();
        let resp = svc.handle(&fp_bits(0b0000_1100, &[107, 110, 120]));
        assert_eq!(resp.device_type_name(svc.registry()), Some("VulnType"));
        assert_eq!(resp.isolation, IsolationClass::Restricted);
        match resp.isolation_level(svc.vulnerabilities()) {
            IsolationLevel::Restricted { allowed_endpoints } => {
                assert_eq!(allowed_endpoints.len(), 1);
            }
            other => panic!("expected restricted level, got {other}"),
        }
    }

    #[test]
    fn unknown_device_gets_strict() {
        let svc = service();
        // An unseen protocol-bit pattern: rejected by all classifiers.
        let resp = svc.handle(&fp_bits(0b1100_0000, &[107, 110, 120]));
        assert_eq!(resp.device_type, None);
        assert_eq!(resp.isolation, IsolationClass::Strict);
        assert_eq!(
            resp.isolation_level(svc.vulnerabilities()),
            IsolationLevel::Strict
        );
    }

    #[test]
    fn new_advisory_flips_type_to_restricted() {
        let mut svc = service();
        assert_eq!(
            svc.handle(&fp_bits(0b0000_0011, &[103, 110, 120]))
                .isolation,
            IsolationClass::Trusted
        );
        let clean = svc.registry().get("CleanType").unwrap();
        svc.vulnerabilities_mut().add_record(
            clean,
            VulnerabilityRecord::new("CVE-T-2", "new finding", Severity::Critical),
        );
        assert_eq!(
            svc.handle(&fp_bits(0b0000_0011, &[103, 110, 120]))
                .isolation,
            IsolationClass::Restricted
        );
    }

    #[test]
    fn detailed_response_includes_identification() {
        let svc = service();
        let (resp, ident) = svc.handle_detailed(&fp_bits(0b0000_0011, &[103, 110, 120]));
        assert_eq!(resp.device_type, ident.device_type());
        assert_eq!(resp.needed_discrimination, ident.needed_discrimination());
    }

    #[test]
    fn batch_equals_repeated_single_queries() {
        let svc = service();
        // More than one chunk's worth of queries, mixing all outcomes.
        let probes: Vec<Fingerprint> = (0..super::BATCH_CHUNK + 9)
            .map(|i| match i % 3 {
                0 => fp_bits(0b0000_0011, &[103 + (i as u32 % 5), 110, 120]),
                1 => fp_bits(0b0000_1100, &[104 + (i as u32 % 5), 110, 120]),
                _ => fp_bits(0b1100_0000, &[105, 110, 120]),
            })
            .collect();
        let batched = svc.handle_batch(&probes);
        assert_eq!(batched.len(), probes.len());
        for (probe, batch_resp) in probes.iter().zip(&batched) {
            assert_eq!(*batch_resp, svc.handle(probe));
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let svc = service();
        assert!(svc.handle_batch(&[]).is_empty());
    }

    #[test]
    fn pooled_batch_matches_sequential_on_any_pool_size() {
        let svc = service();
        let probes: Vec<Fingerprint> = (0..super::BATCH_CHUNK * 3 + 17)
            .map(|i| match i % 3 {
                0 => fp_bits(0b0000_0011, &[103 + (i as u32 % 5), 110, 120]),
                1 => fp_bits(0b0000_1100, &[104 + (i as u32 % 5), 110, 120]),
                _ => fp_bits(0b1100_0000, &[105, 110, 120]),
            })
            .collect();
        let sequential: Vec<ServiceResponse> = probes.iter().map(|fp| svc.handle(fp)).collect();
        for threads in [1usize, 2, 5] {
            let pool = ComputePool::new(threads);
            assert_eq!(
                svc.handle_batch_on(&pool, &probes),
                sequential,
                "pool size {threads} must not change responses"
            );
        }
        // The buffer-reusing variant agrees and refills in place.
        let pool = ComputePool::new(2);
        let mut out = vec![sequential[0]; 3];
        svc.handle_batch_into(&pool, &probes, &mut out);
        assert_eq!(out, sequential);
    }

    #[test]
    fn responses_are_copy() {
        fn assert_copy<T: Copy>() {}
        // A Copy response cannot own a String: the compile-time bound
        // is the proof that the per-query label clone is gone.
        assert_copy::<ServiceResponse>();
    }
}

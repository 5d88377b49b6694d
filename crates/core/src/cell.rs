//! Epoch-swapped sharing of a live [`IoTSecurityService`].
//!
//! The paper's IoT Security Service continuously absorbs new device
//! fingerprints and vulnerability reports (§IV-B), while its Security
//! Gateway clients expect the query endpoint to stay up indefinitely.
//! Those two requirements meet in [`ServiceCell`]: an atomically
//! swappable `Arc<IoTSecurityService>` that lets *writers* publish a
//! fully-built replacement service while *readers* keep answering
//! queries against the epoch they pinned — no reader ever observes a
//! half-updated model, and no reload ever blocks the query path for
//! longer than one `Arc` clone.
//!
//! # Epochs
//!
//! Every published service carries a monotonically increasing epoch
//! number, starting at 1 for the service the cell was created with.
//! Readers call [`ServiceCell::load`] to pin `(Arc, epoch)` as a
//! [`ServiceEpoch`], serve any number of queries against it, and call
//! [`ServiceCell::refresh`] at their next natural boundary (the server
//! does so once per wire frame — never mid-batch, so a batch response
//! is always computed against exactly one epoch). `refresh` is
//! wait-free while no reload happened: it compares one atomic epoch
//! counter and touches the lock only when the cell actually moved on.
//!
//! # Safety of a swap
//!
//! A replacement service may only *extend* the current one:
//! [`TypeRegistry::ensure_extends`] verifies that every already-issued
//! [`crate::TypeId`] keeps its meaning (same name, same index; new
//! types append). [`ServiceCell::replace`] and
//! [`ServiceCell::replace_identifier`] enforce this under the writer
//! lock, so concurrent reloads serialize and each validates against
//! the service it actually replaces.
//!
//! # Knowledge edits
//!
//! [`ServiceCell::update`] is the third writer: it runs an edit (a new
//! advisory, an incrementally learned device type) on a clone of the
//! current epoch and publishes the result as the next one. The edit
//! runs under the writer lock but outside the reader mutex, so queries
//! keep pinning the old epoch meanwhile, and no reload published
//! between the clone and the swap can be silently undone. A failed
//! edit publishes nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use sentinel_pool::ComputePool;

use crate::identifier::DeviceTypeIdentifier;
use crate::registry::{RegistryMismatch, TypeRegistry};
use crate::service::IoTSecurityService;

/// A shared, hot-swappable [`IoTSecurityService`]: wait-free reads of
/// the current epoch, serialized atomic publication of replacements.
#[derive(Debug)]
pub struct ServiceCell {
    /// The current service. The mutex guards the *swap*, not queries:
    /// readers hold it only long enough to clone the `Arc`.
    current: Mutex<Arc<IoTSecurityService>>,
    /// Serializes writers, so each validates against (and an edit
    /// starts from) the service it actually replaces.
    writer: Mutex<()>,
    /// Epoch of `current`, written inside the lock, readable without
    /// it (the wait-free fast path of [`ServiceCell::refresh`]).
    epoch: AtomicU64,
    /// Successful swaps since the cell was created.
    reloads: AtomicU64,
    /// The compute pool batch chunks fan out over. **Kept across epoch
    /// swaps**, so its width and its task counters never reset on a
    /// hot reload.
    pool: Arc<ComputePool>,
}

/// A pinned epoch: one immutable service plus the epoch number it was
/// published under. Cheap to clone (an `Arc` clone).
///
/// Dereferences to the [`IoTSecurityService`], so a pinned epoch is a
/// drop-in for `&IoTSecurityService` in query code.
#[derive(Debug, Clone)]
pub struct ServiceEpoch {
    service: Arc<IoTSecurityService>,
    epoch: u64,
}

impl ServiceEpoch {
    /// The pinned service.
    pub fn service(&self) -> &IoTSecurityService {
        &self.service
    }

    /// The epoch this service was published under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl std::ops::Deref for ServiceEpoch {
    type Target = IoTSecurityService;

    fn deref(&self) -> &IoTSecurityService {
        &self.service
    }
}

impl ServiceCell {
    /// Wraps `service` as epoch 1, computing on the process-wide
    /// global pool ([`sentinel_pool::global`]). Use
    /// [`ServiceCell::with_pool`] to give the cell a private pool
    /// (explicit sizing, isolation in tests).
    pub fn new(service: IoTSecurityService) -> Self {
        ServiceCell::with_pool(service, Arc::clone(sentinel_pool::global()))
    }

    /// Wraps `service` as epoch 1 on an explicit compute pool.
    pub fn with_pool(service: IoTSecurityService, pool: Arc<ComputePool>) -> Self {
        ServiceCell {
            current: Mutex::new(Arc::new(service)),
            writer: Mutex::new(()),
            epoch: AtomicU64::new(1),
            reloads: AtomicU64::new(0),
            pool,
        }
    }

    /// The compute pool this cell's service runs on. Shared by every
    /// epoch the cell ever publishes.
    pub fn pool(&self) -> &Arc<ComputePool> {
        &self.pool
    }

    /// The epoch of the currently published service.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Successful swaps so far, edits included (`epoch - 1`, kept
    /// separately for stats reporting).
    pub fn reloads(&self) -> u64 {
        self.reloads.load(Ordering::Acquire)
    }

    /// Pins the current epoch: one `Arc` clone under the lock.
    pub fn load(&self) -> ServiceEpoch {
        let guard = lock(&self.current);
        ServiceEpoch {
            service: Arc::clone(&guard),
            // Read inside the lock, so the pair is always consistent.
            epoch: self.epoch.load(Ordering::Acquire),
        }
    }

    /// Re-pins `pinned` if the cell has published a newer epoch,
    /// returning whether it moved. Wait-free when nothing changed:
    /// one atomic load, no lock.
    pub fn refresh(&self, pinned: &mut ServiceEpoch) -> bool {
        if self.epoch.load(Ordering::Acquire) == pinned.epoch {
            return false;
        }
        *pinned = self.load();
        true
    }

    /// Publishes `service` as the next epoch after verifying it
    /// extends the current one (see [`TypeRegistry::ensure_extends`]).
    /// Returns the new epoch. Readers that already pinned the old
    /// epoch keep it alive until their next refresh.
    ///
    /// # Errors
    ///
    /// [`RegistryMismatch`] when the replacement would invalidate an
    /// already-issued [`crate::TypeId`]; the cell is left untouched.
    pub fn replace(&self, service: IoTSecurityService) -> Result<u64, RegistryMismatch> {
        let _writer = lock(&self.writer);
        service.registry().ensure_extends(self.load().registry())?;
        Ok(self.publish(service))
    }

    /// Publishes a service built from a freshly loaded `identifier`
    /// (e.g. a v2 model document read via
    /// [`crate::persist::read_identifier`]) while carrying the current
    /// epoch's vulnerability database over. The identifier's registry
    /// must extend the current one; advisories keyed by existing ids
    /// therefore stay valid against the new model.
    ///
    /// # Errors
    ///
    /// As for [`ServiceCell::replace`].
    pub fn replace_identifier(
        &self,
        identifier: DeviceTypeIdentifier,
    ) -> Result<u64, RegistryMismatch> {
        let _writer = lock(&self.writer);
        let current = self.load();
        identifier.registry().ensure_extends(current.registry())?;
        let vulnerabilities = current.vulnerabilities().clone();
        Ok(self.publish(IoTSecurityService::new(identifier, vulnerabilities)))
    }

    /// Runs `edit` on a clone of the current service and publishes the
    /// result as the next epoch, returning what `edit` returned. One
    /// call is one epoch, so edits that must land together go in one
    /// call.
    ///
    /// # Errors
    ///
    /// The edit's own error, or a [`RegistryMismatch`] when the edited
    /// registry no longer extends the current one. Either way nothing
    /// is published.
    pub fn update<T, E: From<RegistryMismatch>>(
        &self,
        edit: impl FnOnce(&mut IoTSecurityService) -> Result<T, E>,
    ) -> Result<T, E> {
        let _writer = lock(&self.writer);
        let current = self.load();
        let mut next = current.service().clone();
        let out = edit(&mut next)?;
        next.registry().ensure_extends(current.registry())?;
        self.publish(next);
        Ok(out)
    }

    /// The registry of the currently published epoch, cloned (for
    /// validation and reporting outside the lock).
    pub fn registry(&self) -> TypeRegistry {
        lock(&self.current).registry().clone()
    }

    /// Swaps `service` in; the caller holds the writer lock.
    fn publish(&self, service: IoTSecurityService) -> u64 {
        let mut current = lock(&self.current);
        *current = Arc::new(service);
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        self.epoch.store(next, Ordering::Release);
        self.reloads.fetch_add(1, Ordering::Release);
        next
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // The reader critical sections only clone/replace an Arc, and an
    // edit that panics under the writer lock has touched only its own
    // clone — so recover from poisoning rather than cascading a panic
    // into every reader and later writer.
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use crate::vulnerability::{Severity, VulnerabilityDatabase, VulnerabilityRecord};
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

    fn dataset() -> Dataset {
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

    fn service() -> IoTSecurityService {
        let identifier = Trainer::default().train(&dataset(), 4).unwrap();
        IoTSecurityService::new(identifier, VulnerabilityDatabase::new())
    }

    #[test]
    fn fresh_cell_is_epoch_one_with_zero_reloads() {
        let cell = ServiceCell::new(service());
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.reloads(), 0);
        let pinned = cell.load();
        assert_eq!(pinned.epoch(), 1);
        assert_eq!(pinned.registry().len(), 3);
    }

    #[test]
    fn refresh_is_a_no_op_until_a_replace_lands() {
        let cell = ServiceCell::new(service());
        let mut pinned = cell.load();
        assert!(!cell.refresh(&mut pinned));

        let mut next = service();
        let vuln = next.registry().get("VulnType").unwrap();
        next.vulnerabilities_mut().add_record(
            vuln,
            VulnerabilityRecord::new("CVE-C-1", "demo", Severity::High),
        );
        assert_eq!(cell.replace(next).unwrap(), 2);
        assert_eq!(cell.reloads(), 1);

        // The old pin still answers from the old epoch...
        assert!(!pinned.vulnerabilities().is_vulnerable(vuln));
        // ...until refreshed.
        assert!(cell.refresh(&mut pinned));
        assert_eq!(pinned.epoch(), 2);
        assert!(pinned.vulnerabilities().is_vulnerable(vuln));
        assert!(!cell.refresh(&mut pinned));
    }

    /// A service trained on disjoint labels: it maps existing ids to
    /// different names, so swapping it in would corrupt every issued
    /// TypeId.
    fn foreign() -> IoTSecurityService {
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
        }
        let foreign = Trainer::default().train(&foreign_ds, 4).unwrap();
        IoTSecurityService::new(foreign, VulnerabilityDatabase::new())
    }

    #[test]
    fn replace_rejects_registry_regressions() {
        let cell = ServiceCell::new(service());
        assert!(cell.replace(foreign()).is_err());
        assert_eq!(
            cell.epoch(),
            1,
            "a rejected replace must not move the epoch"
        );
        assert_eq!(cell.reloads(), 0);
    }

    #[test]
    fn replace_identifier_keeps_the_current_advisories() {
        let mut seeded = service();
        let vuln = seeded.registry().get("VulnType").unwrap();
        seeded.vulnerabilities_mut().add_record(
            vuln,
            VulnerabilityRecord::new("CVE-C-2", "demo", Severity::High),
        );
        let cell = ServiceCell::new(seeded);

        // A retrained identifier with one appended type.
        let mut identifier = cell.load().identifier().clone();
        let new_fps: Vec<Fingerprint> = (0..10)
            .map(|i| fp_bits(0b1000, &[900 + i, 910, 920]))
            .collect();
        let new_id = identifier.add_device_type("NewType", &new_fps, 9).unwrap();

        assert_eq!(cell.replace_identifier(identifier).unwrap(), 2);
        let pinned = cell.load();
        assert_eq!(pinned.registry().name(new_id), "NewType");
        // The advisory keyed before the reload still bites after it.
        assert!(pinned.vulnerabilities().is_vulnerable(vuln));
        assert_eq!(
            pinned
                .handle(&fp_bits(0b1000, &[903, 910, 920]))
                .device_type,
            Some(new_id)
        );
        // Every published epoch serves the compiled flat-arena bank —
        // one forest per known type, including the appended one.
        assert_eq!(
            pinned.identifier().compiled_bank().forest_count(),
            pinned.identifier().type_count()
        );
    }

    #[test]
    fn concurrent_readers_always_observe_whole_epochs() {
        use std::sync::atomic::AtomicBool;

        // Epoch N's service has N appended marker types; a reader must
        // never observe a registry whose length disagrees with what
        // any single publish produced.
        let cell = ServiceCell::new(service());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut pinned = cell.load();
                    while !stop.load(Ordering::Acquire) {
                        cell.refresh(&mut pinned);
                        let len = pinned.registry().len();
                        assert_eq!(
                            len,
                            3 + (pinned.epoch() - 1) as usize,
                            "epoch and registry must move together"
                        );
                    }
                });
            }
            for round in 0..8u64 {
                let mut identifier = cell.load().identifier().clone();
                let fps: Vec<Fingerprint> = (0..8)
                    .map(|i| fp_bits(0b1 << (4 + round), &[2000 + 100 * round as u32 + i, 7, 8]))
                    .collect();
                identifier
                    .add_device_type(&format!("Marker{round}"), &fps, round)
                    .unwrap();
                assert_eq!(cell.replace_identifier(identifier).unwrap(), round + 2);
            }
            stop.store(true, Ordering::Release);
        });
        assert_eq!(cell.epoch(), 9);
        assert_eq!(cell.reloads(), 8);
    }

    #[test]
    fn updates_and_reloads_serialize_without_losing_an_edit() {
        let cell = ServiceCell::new(service());
        let clean = cell.registry().get("CleanType").unwrap();
        // Both writers start together, so their 40 publishes overlap.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                start.wait();
                for i in 0..20 {
                    cell.update(|service| {
                        service.vulnerabilities_mut().add_record(
                            clean,
                            VulnerabilityRecord::new(format!("CVE-U-{i}"), "edit", Severity::High),
                        );
                        Ok::<_, RegistryMismatch>(())
                    })
                    .unwrap();
                }
            });
            scope.spawn(|| {
                start.wait();
                for _ in 0..20 {
                    let identifier = cell.load().identifier().clone();
                    cell.replace_identifier(identifier).unwrap();
                }
            });
        });
        assert_eq!(cell.epoch(), 41);
        assert_eq!(cell.reloads(), 40);
        let records = cell.load().vulnerabilities().records_for(clean).len();
        assert_eq!(records, 20, "a reload published over an update");
    }

    #[test]
    fn failed_update_publishes_nothing() {
        let cell = ServiceCell::new(service());
        // The edit interns a name, then fails.
        let result = cell.update(|service| {
            let (identifier, vulnerabilities) = service.parts_mut();
            let record = VulnerabilityRecord::new("CVE-F-1", "demo", Severity::High);
            vulnerabilities.add_record_named(identifier.registry_mut(), "Half", record);
            identifier.add_device_type("Empty", &[], 1)
        });
        assert!(matches!(result, Err(crate::CoreError::BadDataset(_))));
        assert!(cell.registry().get("Half").is_none());
        // The edit succeeds, but its registry no longer extends.
        let result = cell.update(|service| {
            *service = foreign();
            Ok::<_, RegistryMismatch>(())
        });
        assert!(result.is_err());
        assert_eq!(cell.epoch(), 1);
        assert_eq!(cell.reloads(), 0);
    }

    #[test]
    fn pool_survives_epoch_swaps() {
        // Exact thread-count accounting lives in the serialized
        // `pool_threads` integration suite; here we pin the identity:
        // every epoch publishes against the same pool instance.
        let pool = Arc::new(ComputePool::new(2));
        let cell = ServiceCell::with_pool(service(), Arc::clone(&pool));
        let before_swaps = Arc::as_ptr(cell.pool());
        for round in 0..3u64 {
            let mut identifier = cell.load().identifier().clone();
            let fps: Vec<Fingerprint> = (0..8)
                .map(|i| fp_bits(0b1 << (4 + round), &[3000 + 100 * round as u32 + i, 7, 8]))
                .collect();
            identifier
                .add_device_type(&format!("Swap{round}"), &fps, round)
                .unwrap();
            cell.replace_identifier(identifier).unwrap();
            assert_eq!(Arc::as_ptr(cell.pool()), before_swaps);
        }
        // The swapped-in service still answers on the pinned pool.
        let pinned = cell.load();
        let probes: Vec<Fingerprint> = (0..crate::service::BATCH_CHUNK * 2 + 5)
            .map(|i| fp_bits(0b001, &[100 + (i as u32 % 5), 110, 120]))
            .collect();
        let pooled = pinned.handle_batch_on(cell.pool(), &probes);
        let sequential: Vec<_> = probes.iter().map(|fp| pinned.handle(fp)).collect();
        assert_eq!(pooled, sequential);
    }

    #[test]
    fn default_cell_shares_the_global_pool() {
        let cell = ServiceCell::new(service());
        assert_eq!(
            Arc::as_ptr(cell.pool()),
            Arc::as_ptr(sentinel_pool::global()),
            "plain cells must share one process-wide pool"
        );
    }
}

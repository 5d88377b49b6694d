//! Workload set-up: catalog → dataset → trained model → persisted
//! document → loaded service → live server with open connections, plus
//! the seeded query traffic and its in-process answer oracle.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sentinel_core::persist::{read_identifier, write_identifier};
use sentinel_core::{
    IoTSecurityService, ServiceCell, ServiceResponse, Severity, Trainer, TypeId,
    VulnerabilityDatabase, VulnerabilityRecord,
};
use sentinel_devices::{catalog, generate_dataset, DeviceProfile, NetworkEnvironment};
use sentinel_fingerprint::Fingerprint;
use sentinel_pool::ComputePool;
use sentinel_serve::{serve_cell, ClientConfig, SentinelClient, ServerConfig, ServerHandle};

use crate::catalog::{distinct_catalog, mix};
use crate::spec::{Workload, PAPER_TYPES};

/// Seed of everything that makes the *served model*: the generated
/// catalog, the training setups and the trainer. The model is part of
/// the workload's definition (what a deployment runs), so it is the
/// same on every run; `--seed` draws the query traffic sent at it.
pub const MODEL_SEED: u64 = 0x5e17_1e57;

/// Training setups simulated per device type (the paper used 20).
pub const TRAINING_SETUPS: u32 = 20;

/// The device profiles `workload` serves.
pub fn profiles(workload: &Workload) -> Vec<DeviceProfile> {
    if workload.types == PAPER_TYPES {
        catalog::standard_catalog()
    } else {
        distinct_catalog(workload.types, MODEL_SEED)
    }
}

/// Wall-clock cost of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Trainer::train`, seconds.
    pub train_s: f64,
    /// `read_identifier` of the persisted document, milliseconds.
    pub load_model_ms: f64,
    /// Everything: dataset generation → train → write → read →
    /// cell/pool/server up → connections open, seconds.
    pub total_s: f64,
}

/// A live system under test.
pub struct Served {
    /// The loopback server.
    pub server: ServerHandle,
    /// Open, idle connections to it.
    pub clients: Vec<SentinelClient>,
    /// An in-process copy of the served service: the answer oracle.
    pub oracle: IoTSecurityService,
    /// The persisted model document the server was loaded from.
    pub doc: Vec<u8>,
    /// What set-up cost.
    pub times: SetupTimes,
}

/// Client settings of every benchmark connection: a shed frame is a
/// failed frame, never silently retried.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        overload_retries: 0,
        ..ClientConfig::default()
    }
}

/// Worker threads of the served cell's compute pool: one per core, set
/// explicitly so `SENTINEL_POOL_THREADS` cannot change what is measured.
pub fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Connections (= generator threads) a workload opens. Never more than
/// cores, and never more than the default server's four I/O workers.
pub fn connections(workload: &Workload) -> usize {
    if workload.saturate {
        pool_threads().min(ServerConfig::default().workers)
    } else {
        1
    }
}

/// Sets the system up once, timing it.
pub fn set_up(workload: &Workload, profiles: &[DeviceProfile]) -> Served {
    let start = Instant::now();
    let dataset = generate_dataset(
        profiles,
        &NetworkEnvironment::default(),
        TRAINING_SETUPS,
        mix(MODEL_SEED, 1),
    );
    let train_start = Instant::now();
    let trained = Trainer::default()
        .train(&dataset, mix(MODEL_SEED, 2))
        .expect("the catalog trains");
    let train_s = train_start.elapsed().as_secs_f64();
    let mut doc = Vec::new();
    write_identifier(&mut doc, &trained).expect("the model persists");
    drop(trained);
    let load_start = Instant::now();
    let mut identifier = read_identifier(&doc[..]).expect("the persisted model loads");
    let load_model_ms = load_start.elapsed().as_secs_f64() * 1e3;
    // Every fourth type carries an advisory, so the advisory lookup
    // answers both ways. Names are already interned: the registry the
    // server holds stays equal to the document's, which a reload needs.
    let mut advisories = VulnerabilityDatabase::new();
    for profile in profiles.iter().step_by(4) {
        advisories.add_record_named(
            identifier.registry_mut(),
            &profile.type_name,
            VulnerabilityRecord::new("CVE-BENCH-0001", "benchmark advisory", Severity::High),
        );
    }
    let oracle = IoTSecurityService::new(identifier, advisories);
    let cell = Arc::new(ServiceCell::with_pool(
        oracle.clone(),
        Arc::new(ComputePool::new(pool_threads())),
    ));
    let config = ServerConfig {
        admin: true,
        ..ServerConfig::default()
    };
    let server = serve_cell(cell, "127.0.0.1:0", config).expect("loopback bind");
    let clients = (0..connections(workload))
        .map(|_| {
            let mut client = SentinelClient::connect(server.local_addr(), client_config())
                .expect("loopback connect");
            // The connection counts as open once a worker serves it.
            client.ping().expect("first ping");
            client
        })
        .collect();
    Served {
        server,
        clients,
        oracle,
        doc,
        times: SetupTimes {
            train_s,
            load_model_ms,
            total_s: start.elapsed().as_secs_f64(),
        },
    }
}

/// One query of the traffic, with everything needed to check its answer.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The fingerprint sent.
    pub fingerprint: Fingerprint,
    /// The type of the device that produced it.
    pub truth: TypeId,
    /// The answer the in-process service gives: what the wire must say.
    pub expected: ServiceResponse,
    /// Classifiers that accepted it in stage one (k).
    pub accepted: usize,
}

/// The query traffic of one run.
#[derive(Debug)]
pub struct Traffic {
    /// The probes, in generation order.
    pub probes: Vec<Probe>,
    /// Probes of distinct types dropped because they reached stage two
    /// anyway (`distinct_only` workloads).
    pub dropped: usize,
}

impl Traffic {
    /// Probes the oracle identifies as their true type.
    pub fn right(&self) -> usize {
        self.probes
            .iter()
            .filter(|p| p.expected.device_type == Some(p.truth))
            .count()
    }

    /// Share of probes the oracle identifies as their true type.
    pub fn oracle_accuracy(&self) -> f64 {
        self.right() as f64 / self.probes.len() as f64
    }

    /// Every probe's fingerprint and expected answer, in an order drawn
    /// from `seed`: contiguous, so frames are slices of it.
    pub fn shuffled(&self, seed: u64) -> (Vec<Fingerprint>, Vec<ServiceResponse>) {
        let mut order: Vec<&Probe> = self.probes.iter().collect();
        order.shuffle(&mut SmallRng::seed_from_u64(seed));
        order
            .into_iter()
            .map(|p| (p.fingerprint.clone(), p.expected))
            .unzip()
    }

    /// Mean number of accepting classifiers per probe.
    pub fn candidates_mean(&self) -> f64 {
        self.probes.iter().map(|p| p.accepted as f64).sum::<f64>() / self.probes.len() as f64
    }
}

/// Draws the traffic for `seed`: held-out setups of every served type,
/// answered once in process.
pub fn traffic(
    workload: &Workload,
    profiles: &[DeviceProfile],
    oracle: &IoTSecurityService,
    seed: u64,
) -> Traffic {
    let confused: Vec<&str> = catalog::confusion_groups().into_iter().flatten().collect();
    let kept: Vec<DeviceProfile> = profiles
        .iter()
        .filter(|p| !workload.distinct_only || !confused.contains(&p.type_name.as_str()))
        .cloned()
        .collect();
    let held_out = generate_dataset(
        &kept,
        &NetworkEnvironment::default(),
        workload.probes_per_type,
        mix(seed, 3),
    );
    let mut probes = Vec::with_capacity(held_out.len());
    let mut dropped = 0;
    for sample in held_out.iter() {
        let (expected, identification) = oracle.handle_detailed(sample.fingerprint());
        let accepted = identification.accepted_candidates();
        if workload.distinct_only && accepted > 1 {
            dropped += 1;
            continue;
        }
        probes.push(Probe {
            fingerprint: sample.fingerprint().clone(),
            truth: oracle
                .registry()
                .get(sample.label())
                .expect("every probe's type is served"),
            expected,
            accepted,
        });
    }
    Traffic { probes, dropped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn small(name: &str) -> Workload {
        Workload {
            probes_per_type: 2,
            ..workload(name).unwrap()
        }
    }

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let w = small("bulk_mixed");
        let profiles = profiles(&w);
        let served = set_up(&w, &profiles);
        let digest = |seed| {
            traffic(&w, &profiles, &served.oracle, seed)
                .probes
                .iter()
                .map(|p| format!("{:?}", p.fingerprint))
                .collect::<String>()
        };
        assert_eq!(digest(5), digest(5));
        assert_ne!(digest(5), digest(6));
    }

    #[test]
    fn distinct_only_traffic_never_reaches_stage_two() {
        let w = small("bulk_distinct");
        let profiles = profiles(&w);
        let served = set_up(&w, &profiles);
        let traffic = traffic(&w, &profiles, &served.oracle, 11);
        assert_eq!(traffic.probes.len() + traffic.dropped, 17 * 2);
        assert!(traffic.probes.iter().all(|p| p.accepted <= 1));
        assert!(traffic
            .probes
            .iter()
            .all(|p| !p.expected.needed_discrimination));
    }

    #[test]
    fn the_model_does_not_depend_on_the_run() {
        let w = small("single_rtt");
        let profiles = profiles(&w);
        assert_eq!(set_up(&w, &profiles).doc, set_up(&w, &profiles).doc);
    }
}

//! Criterion bench: the IoTSSP query hot path — single-fingerprint
//! `handle` vs the chunked `handle_batch`, plus the response-assembly
//! stage alone (which the TypeId redesign made allocation-free).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use sentinel_core::{IoTSecurityService, Trainer, VulnerabilityDatabase};
use sentinel_devices::{catalog, generate_dataset, NetworkEnvironment};
use sentinel_fingerprint::Fingerprint;

fn service_and_probes() -> (IoTSecurityService, Vec<Fingerprint>) {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();
    let dataset = generate_dataset(&profiles, &env, 10, 1);
    let mut identifier = Trainer::default().train(&dataset, 7).expect("training");
    let db = VulnerabilityDatabase::demo(identifier.registry_mut());
    let probes: Vec<Fingerprint> = (0..256)
        .map(|i| dataset.sample(i % dataset.len()).fingerprint().clone())
        .collect();
    (IoTSecurityService::new(identifier, db), probes)
}

fn bench_service_query(c: &mut Criterion) {
    let (service, probes) = service_and_probes();

    c.bench_function("service_handle_single", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let resp = service.handle(black_box(&probes[i % probes.len()]));
            i += 1;
            resp
        })
    });

    let mut group = c.benchmark_group("service_handle_batch");
    for batch in [16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            let slice = &probes[..batch];
            b.iter(|| service.handle_batch(black_box(slice)))
        });
    }
    group.finish();

    // Response assembly alone: identification already done, measure
    // assessment + response construction. This is the stage the
    // TypeId/IsolationClass redesign made allocation-free.
    c.bench_function("service_response_assembly", |b| {
        let (_, identification) = service.handle_detailed(&probes[0]);
        let device_type = identification.device_type();
        b.iter(|| {
            let isolation = service.vulnerabilities().assess(black_box(device_type));
            black_box((device_type, isolation))
        })
    });
}

criterion_group!(benches, bench_service_query);
criterion_main!(benches);

//! Criterion bench: edit-distance discrimination (the
//! "1 discrimination" and "7 discriminations" rows of Table IV).
//!
//! Three ways to score one probe against five references, slowest
//! first: the generic textbook DP over 23-feature packet words (the
//! oracle), the fingerprint-level entry point (encodes both sides on
//! every call), and the served path (references pre-encoded, the
//! query encoded and loaded once).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sentinel_devices::{capture_setups, catalog, NetworkEnvironment};
use sentinel_editdist::{
    dissimilarity_score, fingerprint_distance, osa_distance, DistanceVariant, OsaScratch,
    PacketAlphabet,
};
use sentinel_fingerprint::{Fingerprint, FingerprintExtractor};

fn fingerprints_of(name: &str, n: u32) -> Vec<Fingerprint> {
    let env = NetworkEnvironment::default();
    let profile = catalog::standard_catalog()
        .into_iter()
        .find(|p| p.type_name == name)
        .expect("profile exists");
    capture_setups(&profile, &env, n, 3)
        .iter()
        .map(|c| FingerprintExtractor::extract_from(c.packets()))
        .collect()
}

fn bench_edit_distance(c: &mut Criterion) {
    let dlink = fingerprints_of("D-LinkSensor", 6);
    let probe = &dlink[0];
    let reference = &dlink[1];

    c.bench_function("generic_osa_distance", |b| {
        b.iter(|| osa_distance(black_box(probe.columns()), black_box(reference.columns())))
    });
    c.bench_function("fingerprint_distance_osa", |b| {
        b.iter(|| {
            fingerprint_distance(black_box(probe), black_box(reference), DistanceVariant::Osa)
        })
    });
    c.bench_function("fingerprint_distance_full_dl", |b| {
        b.iter(|| {
            fingerprint_distance(
                black_box(probe),
                black_box(reference),
                DistanceVariant::FullDamerau,
            )
        })
    });

    // One discrimination round: 5 references (paper's shape).
    let refs: Vec<&Fingerprint> = dlink[1..6].iter().collect();
    c.bench_function("dissimilarity_score_5_refs", |b| {
        b.iter(|| dissimilarity_score(black_box(probe), black_box(&refs), DistanceVariant::Osa))
    });
    c.bench_function("generic_osa_5_refs", |b| {
        b.iter(|| {
            refs.iter()
                .map(|r| osa_distance(black_box(probe.columns()), r.columns()))
                .sum::<usize>()
        })
    });

    // The served path: what the identifier does per accepted candidate
    // (plus, once per query, the encode + load timed here every
    // iteration).
    let mut alphabet = PacketAlphabet::new();
    let encoded: Vec<Vec<u32>> = refs
        .iter()
        .map(|r| {
            let mut symbols = Vec::new();
            alphabet.intern_into(r, &mut symbols);
            symbols
        })
        .collect();
    let mut scratch = OsaScratch::new();
    let mut query = Vec::new();
    c.bench_function("served_osa_5_encoded_refs", |b| {
        b.iter(|| {
            query.clear();
            alphabet.encode_into(black_box(probe), &mut query);
            let mut loaded = scratch.pattern(&query, alphabet.len());
            encoded
                .iter()
                .map(|r| loaded.normalized(black_box(r)))
                .sum::<f64>()
        })
    });
}

criterion_group!(benches, bench_edit_distance);
criterion_main!(benches);

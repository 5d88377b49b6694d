//! Type-count scaling bench: the full arena scan vs the indexed scan
//! (feature-bitmap prefilter) vs the coarse-to-fine clustered scan vs
//! the auto-routed production entry point, at the real 27-type bank
//! and at replicated ~1k / ~10k / ~100k / ~1M type counts. The
//! replicated banks are exact tilings — the cluster index's best case,
//! not a stand-in for a catalog of distinct types (the repo benchmark's
//! `catalog1k` workload measures that).
//!
//! Two probe regimes are measured, because the prefilter's value is
//! workload-shaped:
//!
//! * **dense** setup fingerprints (the paper's workload): every active
//!   feature column is populated, which intersects every forest's
//!   tested set — the prefilter can skip nothing. This regime is where
//!   the full scan goes memory-bandwidth-bound (210 MiB streamed per
//!   probe at ~100k types); the clustered scan walks one
//!   representative per duplicate-content group — which on a
//!   replicated bank collapses the dense probe from O(types) to
//!   O(base types) + one memo read per member.
//! * **idle** (empty/all-default) fingerprints — devices that have
//!   sent nothing yet, which gateways still query in every periodic
//!   batch: the nonzero bitmap is empty, every forest is answered from
//!   its cached default verdict, and the scan never touches the node
//!   arena at all.
//!
//! Every variant is checked for candidate parity against the full scan
//! at every size before it is timed (a scan that loses a candidate
//! would be a correctness bug, not a speedup). Writes
//! `BENCH_scaling.json` (ns per query for each variant, size and
//! regime, plus derived speedups and skip fractions); CI gates the
//! dense ~100k-type production row at < 5 ms.

use sentinel_bench::bench_report::{measure_ns, write_bench_json};
use sentinel_core::{CandidateScratch, ReplicatedBank, Trainer};
use sentinel_devices::{catalog, generate_dataset, NetworkEnvironment};
use sentinel_fingerprint::FixedFingerprint;
use sentinel_ml::CompiledBank;

/// Replica multiples of the 27-type bank: ~1k, ~10k, ~100k, ~1M types.
const REPLICAS: [usize; 4] = [37, 370, 3700, 37000];

/// The idle-device probe: a fingerprint with no packets yet, whose F′
/// is all default values. Gateways query these on every periodic
/// batch; the prefilter answers them without touching the node arena.
fn iot_idle_probe() -> FixedFingerprint {
    sentinel_fingerprint::Fingerprint::default().to_fixed()
}

/// How many forests a query's prefilter bitmap lets the bank skip.
fn skip_fraction(bank: &CompiledBank, probe: &FixedFingerprint) -> f64 {
    let index = bank.index();
    let bitmap = index.sample_bitmap(probe.as_slice());
    let skipped = index
        .rows()
        .iter()
        .filter(|row| row.tested & bitmap == 0)
        .count();
    skipped as f64 / index.rows().len().max(1) as f64
}

/// ns-per-query for every scan tier over one probe set.
struct TierTimes {
    /// Full scan (the reference).
    full: f64,
    /// Forced feature-bitmap prefilter.
    indexed: f64,
    /// Coarse-to-fine clustered scan (one walk per content group).
    clustered: f64,
    /// The auto-routed production entry point.
    production: f64,
}

/// Asserts every scan tier reproduces the full scan's candidate set
/// exactly on `bank` — content *and* order — then times each tier over
/// `probes`.
fn measure_bank(bank: &CompiledBank, probes: &[FixedFingerprint]) -> TierTimes {
    for probe in probes {
        let sample = probe.as_slice();
        let mut full = Vec::new();
        bank.for_each_accepting_full(sample, |i| full.push(i));
        let mut indexed = Vec::new();
        bank.for_each_accepting_indexed(sample, |i| indexed.push(i));
        assert_eq!(indexed, full, "indexed scan lost or invented a candidate");
        let mut clustered = Vec::new();
        bank.for_each_accepting_clustered(sample, |i| clustered.push(i));
        assert_eq!(
            clustered, full,
            "clustered scan lost or invented a candidate"
        );
        let mut auto = Vec::new();
        bank.for_each_accepting(sample, |i| auto.push(i));
        assert_eq!(auto, full, "auto route lost or invented a candidate");
    }
    type EmitFn<'a> = &'a dyn Fn(&[f32], &mut dyn FnMut(usize));
    let per_query = |ns_per_pass: f64| ns_per_pass / probes.len() as f64;
    let count = |emit: EmitFn| {
        let mut accepted = 0usize;
        for probe in probes {
            emit(probe.as_slice(), &mut |_| accepted += 1);
        }
        std::hint::black_box(accepted);
    };
    let full = per_query(measure_ns(|| {
        count(&|s, f| bank.for_each_accepting_full(s, f))
    }));
    let indexed = per_query(measure_ns(|| {
        count(&|s, f| bank.for_each_accepting_indexed(s, f))
    }));
    let clustered = per_query(measure_ns(|| {
        count(&|s, f| bank.for_each_accepting_clustered(s, f))
    }));
    let production = per_query(measure_ns(|| count(&|s, f| bank.for_each_accepting(s, f))));
    TierTimes {
        full,
        indexed,
        clustered,
        production,
    }
}

fn main() {
    let env = NetworkEnvironment::default();
    let profiles = catalog::standard_catalog();
    let dataset = generate_dataset(&profiles, &env, 10, 1);
    let identifier = Trainer::default().train(&dataset, 7).expect("training");

    let probes: Vec<FixedFingerprint> = (0..4)
        .map(|i| dataset.sample(i * 10).fingerprint().to_fixed())
        .collect();
    let idle_probe = iot_idle_probe();

    let stats = identifier.bank_stats();
    assert!(stats.indexed, "trained banks must be indexed");
    let (cols_min, cols_max) = {
        let rows = identifier.compiled_bank().index().rows();
        let min = rows
            .iter()
            .map(|r| r.tested.count_ones())
            .min()
            .unwrap_or(0);
        let max = rows
            .iter()
            .map(|r| r.tested.count_ones())
            .max()
            .unwrap_or(0);
        (min, max)
    };
    println!(
        "bank: {} types, {} nodes ({} cluster groups), {} KiB arena, \
         prefilter on {} stripes (forests test {cols_min}–{cols_max} of 23 \
         F′ columns)",
        stats.forests,
        stats.nodes,
        stats.cluster_groups,
        stats.arena_bytes / 1024,
        stats.stripes
    );

    let mut results: Vec<(String, f64)> = Vec::new();
    let mut derived: Vec<(String, f64)> = Vec::new();

    // The real 27-type bank, through the identifier's own entry
    // points. The production path (`classify_candidates_into`) sits
    // below the prefilter's size threshold, so it must hold the PR-4
    // sub-1.8 µs line exactly; the forced-prefilter row records what
    // the adaptive threshold is protecting that line from.
    let bank_27 = identifier.compiled_bank();
    let full_27 = measure_ns(|| {
        for probe in &probes {
            let mut accepted = 0usize;
            bank_27.for_each_accepting_full(probe.as_slice(), |_| accepted += 1);
            std::hint::black_box(accepted);
        }
    }) / probes.len() as f64;
    let mut scratch = CandidateScratch::new();
    let indexed_27 = measure_ns(|| {
        for probe in &probes {
            identifier.classify_candidates_into(probe, &mut scratch);
            std::hint::black_box(scratch.candidates());
        }
    }) / probes.len() as f64;
    let forced_27 = measure_ns(|| {
        for probe in &probes {
            let mut accepted = 0usize;
            bank_27.for_each_accepting_indexed(probe.as_slice(), |_| accepted += 1);
            std::hint::black_box(accepted);
        }
    }) / probes.len() as f64;
    println!(
        "{:>8} types | full {:>10.3} µs | production {:>10.3} µs | forced \
         prefilter {:>10.3} µs",
        stats.forests,
        full_27 / 1e3,
        indexed_27 / 1e3,
        forced_27 / 1e3
    );
    results.push(("full_27_types".into(), full_27));
    results.push(("production_27_types".into(), indexed_27));
    results.push(("forced_prefilter_27_types".into(), forced_27));
    derived.push(("speedup_production_27_types".into(), full_27 / indexed_27));

    let mean_skip = probes
        .iter()
        .map(|p| skip_fraction(identifier.compiled_bank(), p))
        .sum::<f64>()
        / probes.len() as f64;
    derived.push(("prefilter_skip_fraction_dense".into(), mean_skip));
    derived.push((
        "prefilter_skip_fraction_idle".into(),
        skip_fraction(identifier.compiled_bank(), &idle_probe),
    ));
    println!(
        "prefilter skips {:.1}% of forests on dense setup probes, {:.1}% on the \
         idle probe",
        mean_skip * 100.0,
        skip_fraction(identifier.compiled_bank(), &idle_probe) * 100.0
    );

    for replicas in REPLICAS {
        let tiled: ReplicatedBank = identifier
            .replicated_bank(replicas)
            .expect("tiling stays inside the 31-bit reference space");
        let types = tiled.type_count();
        let dense = measure_bank(tiled.bank(), &probes);
        let idle_times = measure_bank(tiled.bank(), std::slice::from_ref(&idle_probe));
        println!(
            "{types:>8} types | dense: full {:>10.3} µs, indexed {:>10.3} µs, \
             clustered {:>8.3} µs, production {:>8.3} µs | idle: full {:>10.3} µs, \
             indexed {:>8.3} µs, production {:>8.3} µs | arena {} KiB",
            dense.full / 1e3,
            dense.indexed / 1e3,
            dense.clustered / 1e3,
            dense.production / 1e3,
            idle_times.full / 1e3,
            idle_times.indexed / 1e3,
            idle_times.production / 1e3,
            tiled.bank().arena_bytes() / 1024
        );
        let label = |kind: &str| format!("{kind}_{types}_types_replicated");
        results.push((label("full"), dense.full));
        results.push((label("indexed"), dense.indexed));
        results.push((label("clustered"), dense.clustered));
        results.push((label("production"), dense.production));
        results.push((label("full_idle"), idle_times.full));
        results.push((label("indexed_idle"), idle_times.indexed));
        results.push((label("clustered_idle"), idle_times.clustered));
        results.push((label("production_idle"), idle_times.production));
        derived.push((
            format!("speedup_indexed_{types}_types"),
            dense.full / dense.indexed,
        ));
        derived.push((
            format!("speedup_clustered_{types}_types"),
            dense.full / dense.clustered,
        ));
        derived.push((
            format!("speedup_production_{types}_types"),
            dense.full / dense.production,
        ));
        derived.push((
            format!("speedup_indexed_idle_{types}_types"),
            idle_times.full / idle_times.indexed,
        ));
        derived.push((
            format!("arena_bytes_{types}_types"),
            tiled.bank().arena_bytes() as f64,
        ));
    }

    let results_ref: Vec<(&str, f64)> = results.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let derived_ref: Vec<(&str, f64)> = derived.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let path = write_bench_json("scaling", "ns_per_query", &results_ref, &derived_ref)
        .expect("writing bench json");
    println!("wrote {}", path.display());
}

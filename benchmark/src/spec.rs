//! The benchmark's definition: workloads, metric names, units,
//! directions and bounds. `BENCHMARK.json` at the root of the repo is
//! rendered from here (`--print-spec`) and a test pins the two
//! together, so the contract file and the program cannot drift.

/// One workload: what it serves and how it is loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
    /// Device types served: the 27 paper types, or that many generated
    /// distinct types.
    pub types: usize,
    /// Held-out setups simulated per type as query traffic.
    pub probes_per_type: u32,
    /// Fingerprints per query frame.
    pub batch: usize,
    /// Whether every core gets a connection (otherwise one connection).
    pub saturate: bool,
    /// Whether probes that reach stage two are filtered out.
    pub distinct_only: bool,
    /// Times set-up is repeated per run; `setup_s` is their median.
    pub setup_reps: usize,
}

/// Types in the paper's catalog.
pub const PAPER_TYPES: usize = 27;

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "single_rtt",
        why: "One gateway, one fingerprint per frame: socket, framing and pool hand-off dominate, stage two owns only the p99.",
        types: PAPER_TYPES,
        probes_per_type: 128,
        batch: 1,
        saturate: false,
        distinct_only: false,
        setup_reps: 5,
    },
    Workload {
        name: "bulk_mixed",
        why: "Paper-realistic candidate mix at saturation, 64 per frame: stage two is about 90 % of per-query compute.",
        types: PAPER_TYPES,
        probes_per_type: 128,
        batch: 64,
        saturate: true,
        distinct_only: false,
        setup_reps: 5,
    },
    Workload {
        name: "bulk_distinct",
        why: "Same code with stage two bypassed (k <= 1 by construction): wire decode, fill, stage-one scan and encode share the work.",
        types: PAPER_TYPES,
        probes_per_type: 128,
        batch: 64,
        saturate: true,
        distinct_only: true,
        setup_reps: 5,
    },
    Workload {
        name: "catalog1k",
        why: "999 generated distinct types replace bank tiling: the only workload where stage-one layout, arena bytes and model-build time matter.",
        types: 999,
        probes_per_type: 2,
        batch: 16,
        saturate: true,
        distinct_only: false,
        setup_reps: 1,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening that counts as a regression (end-to-end
    /// metrics only; per-layer metrics carry 0 and are not gated).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The ten end-to-end metrics, reported by every untraced run. The
/// timing bounds are the contract's maximum: ten runs on ten seeds
/// spread by 3–15 % (interquartile) on the 2-vCPU sandbox and medians
/// of ten drift by as much again within the hour, so nothing tighter
/// could tell a regression from the host.
pub const END_TO_END: [Metric; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_qps", "1/s", Better::Higher, 0.25),
    e2e("latency_p50_us", "us", Better::Lower, 0.25),
    e2e("latency_p99_us", "us", Better::Lower, 0.25),
    e2e("cpu_us_per_query", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.05),
    e2e("reload_ms", "ms", Better::Lower, 0.25),
    e2e("connect_query_mean_ms", "ms", Better::Lower, 0.25),
    e2e("accuracy", "share", Better::Higher, 0.03),
    e2e("ok_share", "share", Better::Higher, 0.001),
];

use Better::{Higher, Lower};

/// The per-layer metrics, reported by every traced run. A timing
/// appears twice: `<name>` is the mean (what shares of throughput are
/// made of) and `<name>.p50` the median (what shares of
/// `latency_p50_us` are made of).
pub const PER_LAYER: [Metric; 57] = [
    layer("net.decode_ns_per_packet", "ns", Lower),
    layer("net.decode_ns_per_packet.p50", "ns", Lower),
    layer("fingerprint.extract_us", "us", Lower),
    layer("fingerprint.extract_us.p50", "us", Lower),
    layer("fingerprint.fill_ns", "ns", Lower),
    layer("fingerprint.fill_ns.p50", "ns", Lower),
    layer("ml.stage_one_ns", "ns", Lower),
    layer("ml.stage_one_ns.p50", "ns", Lower),
    layer("ml.forests_skipped_share", "share", Higher),
    layer("ml.arena_bytes", "bytes", Lower),
    layer("ml.nodes", "count", Lower),
    layer("editdist.stage_two_ns", "ns", Lower),
    layer("editdist.stage_two_ns.p50", "ns", Lower),
    layer("editdist.distance_ns", "ns", Lower),
    layer("editdist.distance_ns.p50", "ns", Lower),
    layer("editdist.distances_per_query", "count", Lower),
    layer("core.candidates_mean", "count", Lower),
    layer("core.k_ge2_share", "share", Lower),
    layer("core.identify_ns", "ns", Lower),
    layer("core.identify_ns.p50", "ns", Lower),
    layer("core.advise_ns", "ns", Lower),
    layer("core.advise_ns.p50", "ns", Lower),
    layer("core.handle_ns", "ns", Lower),
    layer("core.handle_ns.p50", "ns", Lower),
    layer("core.handle_batch64_ns_per_query", "ns", Lower),
    layer("core.handle_batch64_ns_per_query.p50", "ns", Lower),
    layer("core.budget_coverage", "share", Higher),
    layer("core.train_s", "s", Lower),
    layer("core.load_model_ms", "ms", Lower),
    layer("core.model_doc_bytes", "bytes", Lower),
    layer("pool.handoff_us", "us", Lower),
    layer("pool.handoff_us.p50", "us", Lower),
    layer("pool.parks_per_kquery", "count", Lower),
    layer("pool.steals", "count", Lower),
    layer("wire.encode_request_ns", "ns", Lower),
    layer("wire.encode_request_ns.p50", "ns", Lower),
    layer("wire.decode_request_ns", "ns", Lower),
    layer("wire.decode_request_ns.p50", "ns", Lower),
    layer("wire.encode_response_ns", "ns", Lower),
    layer("wire.encode_response_ns.p50", "ns", Lower),
    layer("wire.decode_response_ns", "ns", Lower),
    layer("wire.decode_response_ns.p50", "ns", Lower),
    layer("wire.request_bytes", "bytes", Lower),
    layer("serve.ping_rtt_us", "us", Lower),
    layer("serve.ping_rtt_us.p50", "us", Lower),
    layer("serve.stage_decode_p50_us", "us", Lower),
    layer("serve.stage_scan_p50_us", "us", Lower),
    layer("serve.stage_encode_p50_us", "us", Lower),
    layer("serve.stage_frame_p50_us", "us", Lower),
    layer("serve.unattributed_us", "us", Lower),
    layer("serve.rtt_coverage", "share", Higher),
    layer("obs.record_ns", "ns", Lower),
    layer("obs.record_ns.p50", "ns", Lower),
    layer("gateway.rule_lookup_ns", "ns", Lower),
    layer("gateway.rule_lookup_ns.p50", "ns", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.spans", "count", Lower),
];

/// Seconds one run measures under the driver (`run_seconds`): enough
/// for ten samples beyond every workload's p99, and short enough that
/// the driver's 92 runs, with their set-up, fit its cap with a third to
/// spare. Run-to-run drift of the host, not the length of a run, is
/// what limits resolution on the sandbox.
pub const RUN_SECONDS: u64 = 12;

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn benchmark_json_at_the_root_is_rendered_from_this_file() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --print-spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)));
            assert!((0.0..=0.25).contains(&m.bound));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}

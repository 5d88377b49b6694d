//! Stage timing measurements (Table IV).
//!
//! Times the individual pipeline stages with the process monotonic
//! clock: single Random Forest classification, single edit-distance
//! discrimination, fingerprint extraction, the full classifier bank,
//! and complete type identification.

use std::time::Instant;

use sentinel_fingerprint::{Fingerprint, FingerprintExtractor};
use sentinel_net::Packet;

use crate::identifier::{CandidateScratch, DeviceTypeIdentifier};

/// Mean and standard deviation of a timed stage, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingStats {
    /// Mean duration in milliseconds.
    pub mean_ms: f64,
    /// Sample standard deviation in milliseconds.
    pub std_ms: f64,
    /// Number of measurements.
    pub samples: usize,
}

impl TimingStats {
    /// Computes stats from raw millisecond samples. Returns zeros for
    /// empty input.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return TimingStats {
                mean_ms: 0.0,
                std_ms: 0.0,
                samples: 0,
            };
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = if samples.len() > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        TimingStats {
            mean_ms: mean,
            std_ms: var.sqrt(),
            samples: samples.len(),
        }
    }
}

impl std::fmt::Display for TimingStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} ms (±{:.3})", self.mean_ms, self.std_ms)
    }
}

/// The timing rows of Table IV.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// One binary Random Forest classification.
    pub single_classification: TimingStats,
    /// One edit-distance computation between two full fingerprints:
    /// the discrimination phase's time divided by the distances it
    /// computed.
    pub single_discrimination: TimingStats,
    /// Fingerprint extraction from a captured packet sequence.
    pub extraction: TimingStats,
    /// Evaluating the full classifier bank on one fingerprint.
    pub full_classification: TimingStats,
    /// The discrimination phase of identifications that needed it
    /// (all candidates × references), through the identifier's served
    /// stage two.
    pub discrimination_phase: TimingStats,
    /// Complete type identification (classification + discrimination).
    pub identification: TimingStats,
    /// Mean number of edit-distance computations per identification.
    pub avg_distance_computations: f64,
    /// Number of classifiers in the bank.
    pub classifier_count: usize,
}

/// Measures classification, discrimination and end-to-end
/// identification times of `identifier` over `test` fingerprints.
pub fn measure_identification(
    identifier: &DeviceTypeIdentifier,
    test: &[&Fingerprint],
) -> TimingReport {
    let mut single_cls = Vec::new();
    let mut single_disc = Vec::new();
    let mut full_cls = Vec::new();
    let mut disc_phase = Vec::new();
    let mut ident = Vec::new();
    let mut distance_ops = 0usize;
    let types = identifier.known_types();
    let refs_per_type = identifier.config().references_per_type;
    let mut scratch = CandidateScratch::new();
    for fp in test {
        let fixed = fp.to_fixed();
        // Full classifier bank.
        let t0 = Instant::now();
        identifier.classify_candidates_into(&fixed, &mut scratch);
        full_cls.push(ms_since(t0));
        // Per-classifier share (measured, not divided up front): a
        // second pass over the bank, split evenly.
        let t0 = Instant::now();
        let _ = identifier.classify_candidates(&fixed);
        let bank = ms_since(t0);
        single_cls.push(bank / types.len().max(1) as f64);
        // Discrimination phase alone: the served stage two over the
        // candidates stage one just left in the scratch.
        let candidates = scratch.candidates().len();
        if candidates > 1 {
            let t0 = Instant::now();
            let _ = identifier.discriminate(fp, &mut scratch);
            let phase = ms_since(t0);
            let distances = candidates * refs_per_type;
            disc_phase.push(phase);
            single_disc.push(phase / distances.max(1) as f64);
            distance_ops += distances;
        }
        // End to end.
        let t0 = Instant::now();
        let _ = identifier.identify(fp);
        ident.push(ms_since(t0));
    }
    TimingReport {
        single_classification: TimingStats::from_samples(&single_cls),
        single_discrimination: TimingStats::from_samples(&single_disc),
        extraction: TimingStats::from_samples(&[]),
        full_classification: TimingStats::from_samples(&full_cls),
        discrimination_phase: TimingStats::from_samples(&disc_phase),
        identification: TimingStats::from_samples(&ident),
        avg_distance_computations: if test.is_empty() {
            0.0
        } else {
            distance_ops as f64 / test.len() as f64
        },
        classifier_count: types.len(),
    }
}

/// Measures fingerprint extraction time over captured packet
/// sequences; returns stats in milliseconds.
pub fn measure_extraction(captures: &[Vec<Packet>]) -> TimingStats {
    let mut samples = Vec::with_capacity(captures.len());
    for packets in captures {
        let t0 = Instant::now();
        let _ = FingerprintExtractor::extract_from(packets);
        samples.push(ms_since(t0));
    }
    TimingStats::from_samples(&samples)
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use sentinel_fingerprint::{Dataset, LabeledFingerprint, PacketFeatures};

    fn fp(tags: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(
            tags.iter()
                .map(|t| {
                    let mut v = [0u32; 23];
                    v[18] = *t;
                    PacketFeatures::from_raw(v)
                })
                .collect(),
        )
    }

    #[test]
    fn stats_from_samples() {
        let s = TimingStats::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean_ms - 2.0).abs() < 1e-9);
        assert!((s.std_ms - 1.0).abs() < 1e-9);
        assert_eq!(s.samples, 3);
        let empty = TimingStats::from_samples(&[]);
        assert_eq!(empty.mean_ms, 0.0);
        assert_eq!(empty.samples, 0);
        let single = TimingStats::from_samples(&[5.0]);
        assert_eq!(single.std_ms, 0.0);
    }

    #[test]
    fn display_format() {
        let s = TimingStats::from_samples(&[1.5, 2.5]);
        assert_eq!(s.to_string(), "2.000 ms (±0.707)");
    }

    #[test]
    fn timing_report_has_sane_shape() {
        let mut ds = Dataset::new();
        for i in 0..10u32 {
            ds.push(LabeledFingerprint::new("A", fp(&[100 + i, 110, 120])));
            ds.push(LabeledFingerprint::new("B", fp(&[500 + i, 510, 520])));
        }
        let identifier = Trainer::default().train(&ds, 2).unwrap();
        let test_fps: Vec<&Fingerprint> = ds.iter().take(6).map(|s| s.fingerprint()).collect();
        let report = measure_identification(&identifier, &test_fps);
        assert_eq!(report.classifier_count, 2);
        assert_eq!(report.identification.samples, 6);
        assert!(report.identification.mean_ms >= 0.0);
        // Classification of the whole bank must cost at least as much
        // as the per-classifier share.
        assert!(report.full_classification.mean_ms >= report.single_classification.mean_ms);
    }

    #[test]
    fn extraction_timing_counts_captures() {
        use sentinel_net::{MacAddr, Packet, Port};
        let src = MacAddr::new([2, 0, 0, 0, 0, 1]);
        let dst = MacAddr::new([2, 0, 0, 0, 0, 2]);
        let packets: Vec<Packet> = (0..20)
            .map(|i| {
                Packet::builder(src, dst)
                    .udp(Port::new(50000 + i), Port::DNS)
                    .dns(false, 1)
                    .wire_len(80 + i as usize)
                    .build()
            })
            .collect();
        let stats = measure_extraction(&[packets.clone(), packets]);
        assert_eq!(stats.samples, 2);
    }
}

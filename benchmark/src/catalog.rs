//! The distinct-type catalog generator: N behaviourally distinct device
//! types built from the 27 paper profiles, so that scaling workloads
//! measure organically different forests instead of a tiled bank.
//!
//! Type `i` is `standard_catalog()[i % 27]` plus a seeded *signature* of
//! [`SIGNATURE_STEPS`] extra script steps inserted right after the
//! first step, where they land inside the 12-packet F′ window that
//! stage one sees. Uses only `sentinel_devices`' public API.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sentinel_devices::{catalog, DeviceProfile, ScriptStep, SetupAction, SetupScript};

/// Extra script steps per generated type. Two steps leave a third of
/// the queries with eleven or more co-accepting candidates (accuracy
/// 0.36 at N = 999); four separate the types well enough that the
/// catalog is one somebody would deploy.
pub const SIGNATURE_STEPS: usize = 4;

/// Generates `count` distinct device profiles for `seed`.
///
/// Names are `<base>.<variant>` (`Aria.000`, `Aria.001`, …): unique, a
/// single token, and sorted within one base type in variant order.
pub fn distinct_catalog(count: usize, seed: u64) -> Vec<DeviceProfile> {
    let base = catalog::standard_catalog();
    (0..count)
        .map(|i| {
            let mut profile = base[i % base.len()].clone();
            let variant = i / base.len();
            profile.type_name = format!("{}.{variant:03}", profile.type_name);
            let mut rng = SmallRng::seed_from_u64(mix(seed, i as u64));
            profile.script = with_signature(&profile.script, &mut rng);
            profile
        })
        .collect()
}

/// SplitMix64 finaliser over `seed` and a stream index: independent
/// per-type (and per-purpose) generators from one workload seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `script` with the signature steps occupying positions
/// `1..=SIGNATURE_STEPS`.
fn with_signature(script: &SetupScript, rng: &mut SmallRng) -> SetupScript {
    let mut out = SetupScript::new();
    for (position, step) in script.steps().iter().enumerate() {
        if position == 1 {
            for _ in 0..SIGNATURE_STEPS {
                out = out.step(signature_step(rng));
            }
        }
        out = out.step(step.clone());
    }
    out
}

/// One signature step: a proprietary exchange whose kind, port and
/// size are the type's own. Sizes sit on a 16-byte grid because the
/// simulator jitters payloads by up to 10 bytes per run.
fn signature_step(rng: &mut SmallRng) -> ScriptStep {
    let size = 16 * rng.gen_range(2usize..60);
    let host = format!("sig{}.vendor.example", rng.gen_range(0u32..8));
    let action = match rng.gen_range(0u32..5) {
        0 => SetupAction::UdpBroadcast {
            port: rng.gen_range(1024u16..60000),
            payload_len: size,
            count: 1,
        },
        1 => SetupAction::HttpPost {
            host,
            path: "/register".to_string(),
            body_len: size,
        },
        2 => SetupAction::TcpOpaque {
            host,
            port: rng.gen_range(1024u16..60000),
            payload_len: size,
        },
        3 => SetupAction::LlcChatter {
            payload_len: size,
            count: 1,
        },
        _ => SetupAction::Heartbeat {
            host,
            rounds: 1,
            size,
        },
    };
    ScriptStep::new(action, 200, 60)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_catalog_and_other_seed_differs() {
        let a = distinct_catalog(99, 7);
        let b = distinct_catalog(99, 7);
        let c = distinct_catalog(99, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn same_seed_same_simulated_traces() {
        use sentinel_devices::{generate_dataset, NetworkEnvironment};
        let digest = |seed| {
            let profiles = distinct_catalog(30, seed);
            let dataset = generate_dataset(&profiles[25..], &NetworkEnvironment::default(), 2, 9);
            format!("{:?}", dataset.samples())
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn names_are_unique_and_signatures_sit_at_positions_one_to_four() {
        let generated = distinct_catalog(99, 3);
        let names: HashSet<&str> = generated.iter().map(|p| p.type_name.as_str()).collect();
        assert_eq!(names.len(), 99);
        let base = catalog::standard_catalog();
        for (i, profile) in generated.iter().enumerate() {
            let original = &base[i % 27].script;
            assert_eq!(profile.script.len(), original.len() + SIGNATURE_STEPS);
            assert_eq!(profile.script.steps()[0], original.steps()[0]);
            assert_eq!(
                profile.script.steps()[1 + SIGNATURE_STEPS..],
                original.steps()[1..]
            );
        }
    }
}

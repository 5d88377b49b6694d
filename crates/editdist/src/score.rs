//! Dissimilarity scoring against candidate device types.
//!
//! "The distance is computed between the fingerprint to identify F and
//! a subset of five fingerprints from each device-type Dᵢ it got a
//! match for. Distances are summed up per device-type to get a global
//! dissimilarity score sᵢ ∈ \[0, 5\] … The lowest dissimilarity score
//! sᵢ gives the final predicted device-type for F." (§IV-B-2)

use sentinel_fingerprint::Fingerprint;

use crate::packet_word::{distance_sum, DistanceVariant};

/// Sums the normalised distances from `unknown` to each reference
/// fingerprint. With `k` references the score lies in `[0, k]` (the
/// paper uses `k = 5`).
///
/// # Examples
///
/// ```
/// use sentinel_editdist::{dissimilarity_score, DistanceVariant};
/// use sentinel_fingerprint::{Fingerprint, PacketFeatures};
///
/// let col = |tag: u32| {
///     let mut v = [0u32; 23];
///     v[18] = tag;
///     PacketFeatures::from_raw(v)
/// };
/// let unknown = Fingerprint::from_columns(vec![col(1), col(2)]);
/// let same = Fingerprint::from_columns(vec![col(1), col(2)]);
/// let refs = vec![&same, &same, &same, &same, &same];
/// assert_eq!(
///     dissimilarity_score(&unknown, &refs, DistanceVariant::Osa),
///     0.0
/// );
/// ```
pub fn dissimilarity_score(
    unknown: &Fingerprint,
    references: &[&Fingerprint],
    variant: DistanceVariant,
) -> f64 {
    distance_sum(unknown, references.iter().copied(), variant)
}

/// [`dissimilarity_score`] over a slice of owned reference
/// fingerprints — the shape model stores keep them in. Saves callers
/// on the identification hot path from materialising a `Vec<&…>` per
/// candidate just to call the borrowed-slice form.
pub fn dissimilarity_over(
    unknown: &Fingerprint,
    references: &[Fingerprint],
    variant: DistanceVariant,
) -> f64 {
    distance_sum(unknown, references.iter(), variant)
}

/// Scores `unknown` against every candidate's reference set and returns
/// the candidates ordered by ascending dissimilarity (best first), each
/// with its score.
///
/// Generic over the candidate label `L` so callers can rank by
/// borrowed names (`&str`) or by interned ids (e.g. `sentinel-core`'s
/// `TypeId`) without any string traffic on the identification path.
///
/// Ties break towards the earlier candidate in the input, making the
/// result deterministic for a fixed candidate order.
///
/// Returns an empty vector when `candidates` is empty.
pub fn rank_candidates<L: Copy>(
    unknown: &Fingerprint,
    candidates: &[(L, Vec<&Fingerprint>)],
    variant: DistanceVariant,
) -> Vec<(L, f64)> {
    let mut scored: Vec<(L, f64)> = candidates
        .iter()
        .map(|(label, refs)| (*label, dissimilarity_score(unknown, refs, variant)))
        .collect();
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_fingerprint::PacketFeatures;

    fn col(tag: u32) -> PacketFeatures {
        let mut v = [0u32; 23];
        v[18] = tag;
        PacketFeatures::from_raw(v)
    }

    fn fp(tags: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(tags.iter().map(|t| col(*t)).collect())
    }

    #[test]
    fn score_bounded_by_reference_count() {
        let unknown = fp(&[1, 2, 3]);
        let far = fp(&[9, 8, 7]);
        let refs: Vec<&Fingerprint> = vec![&far; 5];
        let score = dissimilarity_score(&unknown, &refs, DistanceVariant::Osa);
        assert!(score <= 5.0);
        assert!(score > 0.0);
    }

    #[test]
    fn owned_and_borrowed_scoring_agree() {
        let unknown = fp(&[1, 2, 3]);
        let near = fp(&[1, 2, 4]);
        let far = fp(&[9, 8, 7]);
        let owned = vec![near.clone(), far.clone()];
        let borrowed: Vec<&Fingerprint> = owned.iter().collect();
        assert_eq!(
            dissimilarity_over(&unknown, &owned, DistanceVariant::Osa),
            dissimilarity_score(&unknown, &borrowed, DistanceVariant::Osa),
        );
        assert_eq!(dissimilarity_over(&unknown, &[], DistanceVariant::Osa), 0.0);
    }

    #[test]
    fn osa_entry_points_equal_the_generic_oracle_bit_for_bit() {
        use crate::osa::normalized_osa;
        use crate::packet_word::fingerprint_distance;
        // Repeats, transpositions, words the unknown lacks, an empty
        // word and one past 64 columns (the DP fallback), scored back
        // to back through the same thread-local buffers.
        let long: Vec<u32> = (0..70).map(|i| i % 9).collect();
        let mut long_swapped = long.clone();
        long_swapped.swap(10, 11);
        long_swapped.truncate(66);
        let words: Vec<Fingerprint> = [
            &[1, 2, 3, 2, 1][..],
            &[2, 1, 3, 1, 2],
            &[7, 8, 9],
            &[],
            &[1, 1, 1, 1],
            &long,
            &long_swapped,
        ]
        .iter()
        .map(|tags| fp(tags))
        .collect();
        let generic = |a: &Fingerprint, b: &Fingerprint| normalized_osa(a.columns(), b.columns());
        for unknown in &words {
            for reference in &words {
                assert_eq!(
                    fingerprint_distance(unknown, reference, DistanceVariant::Osa).to_bits(),
                    generic(unknown, reference).to_bits(),
                );
            }
            let expected: f64 = words.iter().map(|r| generic(unknown, r)).sum();
            let borrowed: Vec<&Fingerprint> = words.iter().collect();
            for score in [
                dissimilarity_over(unknown, &words, DistanceVariant::Osa),
                dissimilarity_score(unknown, &borrowed, DistanceVariant::Osa),
            ] {
                assert_eq!(score.to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn closest_candidate_wins() {
        let unknown = fp(&[1, 2, 3, 4]);
        let near_a = fp(&[1, 2, 3, 4]);
        let near_b = fp(&[1, 2, 3, 5]);
        let far = fp(&[9, 9, 9, 9]);
        let candidates = vec![
            ("far-type", vec![&far, &far]),
            ("near-type", vec![&near_a, &near_b]),
        ];
        let ranked = rank_candidates(&unknown, &candidates, DistanceVariant::Osa);
        assert_eq!(ranked[0].0, "near-type");
        assert!(ranked[0].1 < ranked[1].1);
    }

    #[test]
    fn tie_breaks_to_first_candidate() {
        let unknown = fp(&[1, 2]);
        let same = fp(&[1, 2]);
        let candidates = vec![("alpha", vec![&same]), ("beta", vec![&same])];
        let ranked = rank_candidates(&unknown, &candidates, DistanceVariant::Osa);
        assert_eq!(ranked[0].0, "alpha");
        assert_eq!(ranked[0].1, ranked[1].1);
    }

    #[test]
    fn empty_candidates_empty_result() {
        let unknown = fp(&[1]);
        let empty: &[(&str, Vec<&Fingerprint>)] = &[];
        assert!(rank_candidates(&unknown, empty, DistanceVariant::Osa).is_empty());
    }

    #[test]
    fn score_zero_iff_all_references_identical() {
        let unknown = fp(&[4, 5, 6]);
        let same = fp(&[4, 5, 6]);
        let off = fp(&[4, 5, 7]);
        assert_eq!(
            dissimilarity_score(&unknown, &[&same, &same], DistanceVariant::Osa),
            0.0
        );
        assert!(dissimilarity_score(&unknown, &[&same, &off], DistanceVariant::Osa) > 0.0);
    }
}

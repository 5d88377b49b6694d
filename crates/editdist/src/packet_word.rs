//! Fingerprints as words of packet characters.
//!
//! "We consider the matrix F as a word with each character being a
//! column of the matrix, i.e. a packet pᵢ. Character equality for edit
//! distance computation is considered if all features f from a packet
//! pᵢ are equal to those of another packet pⱼ." (§IV-B-2)
//!
//! [`PacketFeatures`](sentinel_fingerprint::PacketFeatures) derives
//! `Eq` over all 23 features, so the generic distances apply directly
//! to fingerprint columns — the ablation variants do exactly that. The
//! paper's variant ([`DistanceVariant::Osa`]) runs the symbol kernel of
//! [`crate::symbol`] instead, over an alphabet thrown together from
//! the first argument's words.

use std::cell::RefCell;

use sentinel_fingerprint::Fingerprint;

use crate::damerau::damerau_levenshtein;
use crate::osa::levenshtein;
use crate::symbol::{OsaScratch, PacketAlphabet};

/// Which edit-distance variant to use on packet words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceVariant {
    /// Insertion, deletion, substitution, adjacent transposition — the
    /// paper's operation set (optimal string alignment).
    #[default]
    Osa,
    /// Unrestricted Damerau-Levenshtein.
    FullDamerau,
    /// Plain Levenshtein (no transpositions).
    Levenshtein,
}

/// Normalised edit distance between two fingerprints in `[0, 1]`:
/// the absolute packet-word distance divided by the length of the
/// longer fingerprint.
///
/// # Examples
///
/// ```
/// use sentinel_editdist::{fingerprint_distance, DistanceVariant};
/// use sentinel_fingerprint::{Fingerprint, PacketFeatures};
///
/// let col = |tag: u32| {
///     let mut v = [0u32; 23];
///     v[18] = tag;
///     PacketFeatures::from_raw(v)
/// };
/// let a = Fingerprint::from_columns(vec![col(1), col(2), col(3), col(4)]);
/// let b = Fingerprint::from_columns(vec![col(1), col(3), col(2), col(4)]);
/// // One adjacent transposition across 4 packets.
/// assert_eq!(fingerprint_distance(&a, &b, DistanceVariant::Osa), 0.25);
/// // Levenshtein pays 2 for the swap.
/// assert_eq!(fingerprint_distance(&a, &b, DistanceVariant::Levenshtein), 0.5);
/// ```
pub fn fingerprint_distance(a: &Fingerprint, b: &Fingerprint, variant: DistanceVariant) -> f64 {
    let d = match variant {
        // A one-term sum is that term: the sum starts from a zero and
        // no normalised distance is `-0.0`.
        DistanceVariant::Osa => return osa_sum(a, std::iter::once(b)),
        DistanceVariant::FullDamerau => damerau_levenshtein(a.columns(), b.columns()),
        DistanceVariant::Levenshtein => levenshtein(a.columns(), b.columns()),
    };
    let longest = a.len().max(b.len());
    if longest == 0 {
        return 0.0;
    }
    d as f64 / longest as f64
}

/// Sum of the normalised distances from `unknown` to each reference,
/// in reference order — the body of every `dissimilarity_*` entry
/// point.
pub(crate) fn distance_sum<'a>(
    unknown: &Fingerprint,
    references: impl Iterator<Item = &'a Fingerprint>,
    variant: DistanceVariant,
) -> f64 {
    match variant {
        DistanceVariant::Osa => osa_sum(unknown, references),
        _ => references
            .map(|r| fingerprint_distance(unknown, r, variant))
            .sum(),
    }
}

/// Buffers of the fingerprint-level OSA entry points, which get bare
/// fingerprints and so encode both sides on every call.
#[derive(Default)]
struct OnTheFly {
    alphabet: PacketAlphabet,
    osa: OsaScratch,
    pattern: Vec<u32>,
    text: Vec<u32>,
}

thread_local! {
    static ON_THE_FLY: RefCell<OnTheFly> = RefCell::new(OnTheFly::default());
}

/// [`distance_sum`] for the paper's variant, through the symbol kernel.
/// The alphabet is `unknown`'s own words: it is the pattern, loaded
/// once, and a reference word it lacks can match nothing in it.
fn osa_sum<'a>(unknown: &Fingerprint, references: impl Iterator<Item = &'a Fingerprint>) -> f64 {
    ON_THE_FLY.with(|buffers| {
        let OnTheFly {
            alphabet,
            osa,
            pattern,
            text,
        } = &mut *buffers.borrow_mut();
        alphabet.clear();
        pattern.clear();
        alphabet.intern_into(unknown, pattern);
        let mut loaded = osa.pattern(pattern, alphabet.len());
        references
            .map(|r| {
                text.clear();
                alphabet.encode_into(r, text);
                loaded.normalized(text)
            })
            .sum()
    })
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
    fn identical_fingerprints_have_zero_distance() {
        let a = fp(&[1, 2, 3]);
        for v in [
            DistanceVariant::Osa,
            DistanceVariant::FullDamerau,
            DistanceVariant::Levenshtein,
        ] {
            assert_eq!(fingerprint_distance(&a, &a, v), 0.0);
        }
    }

    #[test]
    fn empty_fingerprints() {
        let empty = Fingerprint::default();
        let a = fp(&[1, 2]);
        assert_eq!(
            fingerprint_distance(&empty, &empty, DistanceVariant::Osa),
            0.0
        );
        assert_eq!(fingerprint_distance(&a, &empty, DistanceVariant::Osa), 1.0);
    }

    #[test]
    fn normalization_uses_longer_word() {
        let a = fp(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = fp(&[1, 2, 3, 4]);
        // 4 deletions / length 8.
        assert_eq!(fingerprint_distance(&a, &b, DistanceVariant::Osa), 0.5);
    }

    #[test]
    fn character_equality_needs_all_features() {
        // Columns differing in a single feature are different
        // characters.
        let mut va = [0u32; 23];
        va[18] = 7;
        let mut vb = va;
        vb[20] = 1; // different dst-ip counter
        let a = Fingerprint::from_columns(vec![PacketFeatures::from_raw(va)]);
        let b = Fingerprint::from_columns(vec![PacketFeatures::from_raw(vb)]);
        assert_eq!(fingerprint_distance(&a, &b, DistanceVariant::Osa), 1.0);
    }

    #[test]
    fn variant_ordering_osa_between_dl_and_lev() {
        let a = fp(&[2, 1, 3, 4, 6, 5]);
        let b = fp(&[1, 2, 3, 4, 5, 6]);
        let dl = fingerprint_distance(&a, &b, DistanceVariant::FullDamerau);
        let osa = fingerprint_distance(&a, &b, DistanceVariant::Osa);
        let lev = fingerprint_distance(&a, &b, DistanceVariant::Levenshtein);
        assert!(dl <= osa);
        assert!(osa <= lev);
    }
}

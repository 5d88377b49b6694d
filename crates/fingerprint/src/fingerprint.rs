//! The variable-length fingerprint F and the fixed 276-dimensional F′.

use std::fmt;
use std::sync::Arc;

use crate::features::{PacketFeatures, FEATURE_COUNT};

/// Number of packets concatenated into F′.
pub const FIXED_PACKETS: usize = 12;

/// Dimensionality of F′ (12 packets × 23 features = 276).
pub const FIXED_DIMS: usize = FIXED_PACKETS * FEATURE_COUNT;

/// The variable-length fingerprint **F**: a 23×n matrix stored as its
/// n packet columns, in the temporal order the device sent them, with
/// consecutive duplicates already discarded (Eq. 1 of the paper).
///
/// Immutable once built, so clones share one column buffer: a copy
/// kept by a training pool, a query batch or a second service costs no
/// column memory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    columns: Arc<[PacketFeatures]>,
}

impl Fingerprint {
    /// Creates a fingerprint from columns, discarding consecutive
    /// duplicates (pᵢ = pᵢ₊₁ in the paper's notation).
    ///
    /// # Examples
    ///
    /// ```
    /// use sentinel_fingerprint::{Fingerprint, PacketFeatures};
    ///
    /// let a = PacketFeatures::from_raw([1; 23]);
    /// let b = PacketFeatures::from_raw([2; 23]);
    /// let fp = Fingerprint::from_columns(vec![a, a, b, b, a]);
    /// assert_eq!(fp.len(), 3); // a b a
    /// ```
    pub fn from_columns(mut columns: Vec<PacketFeatures>) -> Self {
        columns.dedup();
        Fingerprint {
            columns: columns.into(),
        }
    }

    /// Creates a fingerprint from columns already known to be free of
    /// consecutive duplicates (used by the extractor, which dedups
    /// on the fly).
    pub(crate) fn from_deduped(columns: Vec<PacketFeatures>) -> Self {
        debug_assert!(
            columns.windows(2).all(|w| w[0] != w[1]),
            "columns contain consecutive duplicates"
        );
        Fingerprint {
            columns: columns.into(),
        }
    }

    /// The number of packet columns, n.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the fingerprint has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The packet columns in temporal order.
    pub fn columns(&self) -> &[PacketFeatures] {
        &self.columns
    }

    /// Iterates over the columns.
    pub fn iter(&self) -> std::slice::Iter<'_, PacketFeatures> {
        self.columns.iter()
    }

    /// The first `limit` **unique** columns, in order of first
    /// appearance.
    pub fn unique_prefix(&self, limit: usize) -> Vec<PacketFeatures> {
        let mut unique: Vec<PacketFeatures> = Vec::new();
        self.unique_prefix_into(limit, &mut unique);
        unique
    }

    /// Writes the first `limit` unique columns into `out` (cleared
    /// first), in order of first appearance — the reusable-buffer core
    /// shared by [`Fingerprint::unique_prefix`] and [`FixedScratch`].
    pub fn unique_prefix_into(&self, limit: usize, out: &mut Vec<PacketFeatures>) {
        out.clear();
        for col in self.columns.iter() {
            if out.len() == limit {
                break;
            }
            if !out.contains(col) {
                out.push(*col);
            }
        }
    }

    /// Builds the fixed-size fingerprint F′ from the first
    /// [`FIXED_PACKETS`] unique columns, zero-padding if F does not
    /// contain enough unique packets (paper §IV-A).
    pub fn to_fixed(&self) -> FixedFingerprint {
        self.to_fixed_with(FIXED_PACKETS)
    }

    /// Builds a fixed fingerprint with a non-standard unique-packet
    /// prefix length (used by the prefix-length ablation). The result
    /// always has `prefix_len × 23` dimensions.
    pub fn to_fixed_with(&self, prefix_len: usize) -> FixedFingerprint {
        let mut scratch = FixedScratch::new();
        scratch.fill(self, prefix_len);
        scratch.fixed
    }
}

/// Reusable workspace for computing F′ vectors without per-call heap
/// allocation.
///
/// [`Fingerprint::to_fixed_with`] allocates two vectors per call (the
/// unique-prefix column list and the F′ value vector). On the query hot
/// path that cost is paid per fingerprint; a `FixedScratch` owns both
/// buffers so repeated conversions reuse the same capacity. After the
/// first call that established capacity, [`FixedScratch::fill`]
/// performs **zero** heap allocations.
#[derive(Debug, Clone, Default)]
pub struct FixedScratch {
    unique: Vec<PacketFeatures>,
    fixed: FixedFingerprint,
}

impl FixedScratch {
    /// An empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        FixedScratch::default()
    }

    /// Computes F′ of `fingerprint` with `prefix_len` unique-packet
    /// slots into the scratch-owned buffer and returns a borrow of it.
    /// Equivalent to [`Fingerprint::to_fixed_with`] but allocation-free
    /// once the buffers have grown to `prefix_len` capacity.
    pub fn fill(&mut self, fingerprint: &Fingerprint, prefix_len: usize) -> &FixedFingerprint {
        fingerprint.unique_prefix_into(prefix_len, &mut self.unique);
        let values = &mut self.fixed.values;
        values.clear();
        values.resize(prefix_len * FEATURE_COUNT, 0f32);
        for (i, col) in self.unique.iter().enumerate() {
            let f = col.to_f32();
            values[i * FEATURE_COUNT..(i + 1) * FEATURE_COUNT].copy_from_slice(&f);
        }
        &self.fixed
    }

    /// The most recently filled F′ vector.
    pub fn fixed(&self) -> &FixedFingerprint {
        &self.fixed
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F[23x{}]", self.len())
    }
}

impl<'a> IntoIterator for &'a Fingerprint {
    type Item = &'a PacketFeatures;
    type IntoIter = std::slice::Iter<'a, PacketFeatures>;

    fn into_iter(self) -> Self::IntoIter {
        self.columns.iter()
    }
}

/// The fixed-size fingerprint **F′**: the first 12 unique packet
/// vectors of F concatenated into a 276-dimensional feature vector
/// (zero-padded when F has fewer than 12 unique packets).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FixedFingerprint {
    values: Vec<f32>,
}

impl FixedFingerprint {
    /// The feature values (length 276 for the standard prefix).
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Dimensionality of this vector.
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Creates a fixed fingerprint directly from values (codec/tests).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is not a multiple of 23.
    pub fn from_values(values: Vec<f32>) -> Self {
        assert!(
            values.len().is_multiple_of(FEATURE_COUNT),
            "fixed fingerprint length {} not a multiple of {FEATURE_COUNT}",
            values.len()
        );
        FixedFingerprint { values }
    }

    /// How many non-padding packet slots are filled (a slot is padding
    /// if all its 23 values are zero).
    pub fn filled_slots(&self) -> usize {
        self.values
            .chunks(FEATURE_COUNT)
            .filter(|chunk| chunk.iter().any(|v| *v != 0.0))
            .count()
    }
}

impl fmt::Display for FixedFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F'[{}]", self.values.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(tag: u32) -> PacketFeatures {
        let mut v = [0u32; FEATURE_COUNT];
        v[18] = tag; // size feature
        PacketFeatures::from_raw(v)
    }

    #[test]
    fn consecutive_duplicates_discarded_only() {
        let fp = Fingerprint::from_columns(vec![col(1), col(1), col(2), col(1), col(1), col(1)]);
        // Non-consecutive repeats are kept: 1 2 1.
        assert_eq!(fp.len(), 3);
        assert_eq!(fp.columns()[0], col(1));
        assert_eq!(fp.columns()[1], col(2));
        assert_eq!(fp.columns()[2], col(1));
    }

    #[test]
    fn clones_share_their_columns() {
        let fp = Fingerprint::from_columns(vec![col(1), col(2), col(3)]);
        let copy = fp.clone();
        assert_eq!(copy, fp);
        assert!(std::ptr::eq(copy.columns(), fp.columns()));
    }

    #[test]
    fn unique_prefix_keeps_first_appearance_order() {
        let fp = Fingerprint::from_columns(vec![col(3), col(1), col(3), col(2), col(1)]);
        let unique = fp.unique_prefix(12);
        assert_eq!(unique, vec![col(3), col(1), col(2)]);
        assert_eq!(fp.unique_prefix(2), vec![col(3), col(1)]);
    }

    #[test]
    fn fixed_is_276_dims_with_padding() {
        let fp = Fingerprint::from_columns(vec![col(1), col(2)]);
        let fixed = fp.to_fixed();
        assert_eq!(fixed.dims(), FIXED_DIMS);
        assert_eq!(fixed.filled_slots(), 2);
        // First slot carries col(1)'s size at offset 18.
        assert_eq!(fixed.as_slice()[18], 1.0);
        assert_eq!(fixed.as_slice()[FEATURE_COUNT + 18], 2.0);
        // Padding slots are all zero.
        assert!(fixed.as_slice()[2 * FEATURE_COUNT..]
            .iter()
            .all(|v| *v == 0.0));
    }

    #[test]
    fn fixed_truncates_to_twelve_unique() {
        let cols: Vec<PacketFeatures> = (1..=20).map(col).collect();
        let fp = Fingerprint::from_columns(cols);
        assert_eq!(fp.len(), 20);
        let fixed = fp.to_fixed();
        assert_eq!(fixed.filled_slots(), FIXED_PACKETS);
        assert_eq!(fixed.as_slice()[11 * FEATURE_COUNT + 18], 12.0);
    }

    #[test]
    fn fixed_with_custom_prefix() {
        let cols: Vec<PacketFeatures> = (1..=20).map(col).collect();
        let fp = Fingerprint::from_columns(cols);
        let fixed = fp.to_fixed_with(4);
        assert_eq!(fixed.dims(), 4 * FEATURE_COUNT);
        assert_eq!(fixed.filled_slots(), 4);
    }

    #[test]
    fn empty_fingerprint_yields_zero_vector() {
        let fp = Fingerprint::default();
        assert!(fp.is_empty());
        let fixed = fp.to_fixed();
        assert_eq!(fixed.dims(), FIXED_DIMS);
        assert_eq!(fixed.filled_slots(), 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_values_rejects_bad_length() {
        let _ = FixedFingerprint::from_values(vec![0.0; 10]);
    }

    #[test]
    fn scratch_fill_matches_to_fixed_with() {
        let mut scratch = FixedScratch::new();
        for n in [0usize, 1, 3, 12, 20] {
            let cols: Vec<PacketFeatures> = (1..=n as u32).map(col).collect();
            let fp = Fingerprint::from_columns(cols);
            for prefix in [4usize, 12] {
                let direct = fp.to_fixed_with(prefix);
                let via_scratch = scratch.fill(&fp, prefix).clone();
                assert_eq!(direct, via_scratch, "n={n} prefix={prefix}");
                assert_eq!(scratch.fixed(), &direct);
            }
        }
    }

    #[test]
    fn scratch_reuse_across_prefix_lengths_resets_padding() {
        // A long fill followed by a short one must not leak stale
        // values into the padding slots.
        let long = Fingerprint::from_columns((1..=12u32).map(col).collect());
        let short = Fingerprint::from_columns(vec![col(42)]);
        let mut scratch = FixedScratch::new();
        scratch.fill(&long, 12);
        let fixed = scratch.fill(&short, 12);
        assert_eq!(fixed.filled_slots(), 1);
        assert!(fixed.as_slice()[FEATURE_COUNT..].iter().all(|v| *v == 0.0));
    }

    #[test]
    fn display_formats() {
        let fp = Fingerprint::from_columns(vec![col(1)]);
        assert_eq!(fp.to_string(), "F[23x1]");
        assert_eq!(fp.to_fixed().to_string(), "F'[276]");
    }
}

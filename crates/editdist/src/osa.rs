//! Optimal string alignment (restricted Damerau-Levenshtein) and plain
//! Levenshtein distances, generic over the symbol type.
//!
//! [`osa_distance`] is the textbook reference: the served kernel in
//! [`crate::symbol`] is proven equal to it, and nothing on the query
//! path calls it.

/// Edit distance with insertion, deletion, substitution and **adjacent
/// transposition** — the exact operation set of the paper — under the
/// OSA restriction that no substring is edited twice.
///
/// Runs in `O(|a|·|b|)` time and, with three rolling rows, `O(|b|)`
/// space.
///
/// # Examples
///
/// ```
/// use sentinel_editdist::osa_distance;
///
/// assert_eq!(osa_distance(b"kitten", b"sitting"), 3);
/// assert_eq!(osa_distance(b"ab", b"ba"), 1); // one transposition
/// // The canonical OSA/DL difference: OSA("ca","abc") = 3.
/// assert_eq!(osa_distance(b"ca", b"abc"), 3);
/// ```
pub fn osa_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let w = b.len() + 1;
    let mut prev2: Vec<usize> = vec![0; w];
    let mut prev: Vec<usize> = (0..w).collect();
    let mut cur: Vec<usize> = vec![0; w];
    for i in 1..=a.len() {
        cur[0] = i;
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1) // deletion
                .min(cur[j - 1] + 1) // insertion
                .min(prev[j - 1] + cost); // substitution / match
            if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                cur[j] = cur[j].min(prev2[j - 2] + 1); // transposition
            }
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Plain Levenshtein distance (insertion, deletion, substitution only),
/// for the distance-variant ablation.
///
/// # Examples
///
/// ```
/// use sentinel_editdist::levenshtein;
///
/// assert_eq!(levenshtein(b"ab", b"ba"), 2); // no transposition op
/// ```
pub fn levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let w = b.len() + 1;
    let mut prev: Vec<usize> = (0..w).collect();
    let mut cur: Vec<usize> = vec![0; w];
    for i in 1..=a.len() {
        cur[0] = i;
        for j in 1..=b.len() {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// OSA distance normalised by the longer word's length, bounded on
/// `[0, 1]` (paper: "the obtained absolute distance between two
/// fingerprints is divided by the length of the longest one").
///
/// Two empty words have distance 0.
///
/// # Examples
///
/// ```
/// use sentinel_editdist::normalized_osa;
///
/// assert_eq!(normalized_osa(b"abcd", b"abcd"), 0.0);
/// assert_eq!(normalized_osa(b"abcd", b""), 1.0);
/// ```
pub fn normalized_osa<T: PartialEq>(a: &[T], b: &[T]) -> f64 {
    let longest = a.len().max(b.len());
    if longest == 0 {
        return 0.0;
    }
    osa_distance(a, b) as f64 / longest as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_examples() {
        assert_eq!(osa_distance(b"kitten", b"sitting"), 3);
        assert_eq!(osa_distance(b"flaw", b"lawn"), 2);
        assert_eq!(osa_distance(b"", b""), 0);
        assert_eq!(osa_distance(b"abc", b""), 3);
        assert_eq!(osa_distance(b"", b"abc"), 3);
        assert_eq!(osa_distance(b"abc", b"abc"), 0);
    }

    #[test]
    fn transposition_counts_once() {
        assert_eq!(osa_distance(b"ab", b"ba"), 1);
        assert_eq!(osa_distance(b"abcd", b"abdc"), 1);
        assert_eq!(osa_distance(b"abcd", b"badc"), 2);
        // Levenshtein needs two edits for an adjacent swap.
        assert_eq!(levenshtein(b"ab", b"ba"), 2);
        assert_eq!(levenshtein(b"abcd", b"abdc"), 2);
    }

    #[test]
    fn osa_restriction_vs_full_dl() {
        // "ca" -> "abc": full DL gives 2 (transpose to "ac", insert b);
        // OSA cannot edit the transposed pair again, so 3.
        assert_eq!(osa_distance(b"ca", b"abc"), 3);
    }

    #[test]
    fn works_on_non_byte_symbols() {
        let a = [(1, 2), (3, 4), (5, 6)];
        let b = [(1, 2), (5, 6), (3, 4)];
        assert_eq!(osa_distance(&a, &b), 1);
    }

    #[test]
    fn normalized_bounds() {
        assert_eq!(normalized_osa::<u8>(&[], &[]), 0.0);
        assert_eq!(normalized_osa(b"xyz", b"xyz"), 0.0);
        assert_eq!(normalized_osa(b"abc", b"xyz"), 1.0);
        assert_eq!(normalized_osa(b"ab", b"abcd"), 0.5);
    }

    proptest! {
        #[test]
        fn identity(a in proptest::collection::vec(0u8..4, 0..40)) {
            prop_assert_eq!(osa_distance(&a, &a), 0);
            prop_assert_eq!(levenshtein(&a, &a), 0);
        }

        #[test]
        fn symmetry(
            a in proptest::collection::vec(0u8..4, 0..30),
            b in proptest::collection::vec(0u8..4, 0..30),
        ) {
            prop_assert_eq!(osa_distance(&a, &b), osa_distance(&b, &a));
            prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        }

        #[test]
        fn bounded_by_longest(
            a in proptest::collection::vec(0u8..4, 0..30),
            b in proptest::collection::vec(0u8..4, 0..30),
        ) {
            let d = osa_distance(&a, &b);
            prop_assert!(d <= a.len().max(b.len()));
            // Length difference is a lower bound.
            prop_assert!(d >= a.len().abs_diff(b.len()));
        }

        #[test]
        fn osa_never_exceeds_levenshtein(
            a in proptest::collection::vec(0u8..4, 0..30),
            b in proptest::collection::vec(0u8..4, 0..30),
        ) {
            prop_assert!(osa_distance(&a, &b) <= levenshtein(&a, &b));
        }

        #[test]
        fn normalized_in_unit_interval(
            a in proptest::collection::vec(0u8..4, 0..30),
            b in proptest::collection::vec(0u8..4, 0..30),
        ) {
            let n = normalized_osa(&a, &b);
            prop_assert!((0.0..=1.0).contains(&n));
        }

        #[test]
        fn single_edit_costs_one(
            a in proptest::collection::vec(0u8..4, 1..30),
            idx in 0usize..29,
        ) {
            let idx = idx % a.len();
            let mut b = a.clone();
            b[idx] = b[idx].wrapping_add(1) % 5 + 10; // guaranteed different symbol
            prop_assert_eq!(osa_distance(&a, &b), 1);
        }
    }
}

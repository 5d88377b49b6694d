//! The served OSA path: packet words interned to dense `u32` symbols
//! and one allocation-free kernel over them.
//!
//! [`PacketAlphabet`] numbers every distinct 23-feature packet word
//! `0, 1, 2, …` in order of first interning; a word the alphabet has
//! never seen encodes to the single sentinel [`NO_SYMBOL`]. OSA only
//! ever compares a word of one string to a word of the other, so as
//! long as **one** of the two strings lies wholly inside the alphabet
//! the sentinel is exact: an outside word can equal nothing on the
//! other side, whichever outside word it is. (`NO_SYMBOL` matches
//! nothing, not even itself.)
//!
//! [`OsaScratch::pattern`] loads one string — the *pattern*, in
//! practice the query — and scores any number of *texts* against it:
//! Hyyrö's bit-parallel OSA (Myers' bit-vector recurrence plus a
//! transposition term) in a single `u64` when the pattern has at most
//! 64 symbols, the three-row DP of [`crate::osa_distance`] over
//! scratch-owned rows otherwise. Both are proven equal to the generic
//! [`crate::osa_distance`] by the oracle suites at the bottom of this
//! file.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use sentinel_fingerprint::{Fingerprint, PacketFeatures};

/// The symbol of every packet word outside the alphabet. Matches
/// nothing, not even itself.
pub const NO_SYMBOL: u32 = u32::MAX;

/// Longest pattern the single-word bit-parallel kernel takes.
const WORD_BITS: usize = u64::BITS as usize;

/// Word-at-a-time multiplicative hasher for packet words: the derived
/// `Hash` of a `[u32; 23]` arrives as one 92-byte `write`, folded here
/// eight bytes per step (12 steps, not 92).
///
/// Not collision-resistant, deliberately: words are only ever
/// *inserted* from a model's reference fingerprints (operator input)
/// or the caller's own arguments; queries from the network only look
/// up, and a lookup's cost is set by the table, not by the key.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        if !rest.is_empty() {
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_ne_bytes(tail));
        }
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // The table takes its bucket from the low bits and its tag
        // from the high ones; a multiply leaves the low bits weakest.
        self.0 ^ (self.0 >> 32)
    }
}

/// A dense numbering of packet words: `PacketFeatures` → `u32`.
///
/// Append-only between [`PacketAlphabet::clear`]s — interning a new
/// word never renumbers an old one, so symbols encoded earlier stay
/// valid.
#[derive(Debug, Clone, Default)]
pub struct PacketAlphabet {
    symbols: HashMap<PacketFeatures, u32, BuildHasherDefault<WordHasher>>,
}

impl PacketAlphabet {
    /// An empty alphabet.
    pub fn new() -> Self {
        PacketAlphabet::default()
    }

    /// Number of distinct words interned (= one past the largest
    /// symbol handed out).
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Whether no word has been interned.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// Forgets every word, keeping the table's capacity.
    pub fn clear(&mut self) {
        self.symbols.clear();
    }

    /// The symbol of `word`, numbering it first if it is new.
    pub fn intern(&mut self, word: &PacketFeatures) -> u32 {
        let next = u32::try_from(self.symbols.len()).unwrap_or(NO_SYMBOL);
        assert!(next != NO_SYMBOL, "packet alphabet is full");
        *self.symbols.entry(*word).or_insert(next)
    }

    /// The symbol of `word`, or [`NO_SYMBOL`] if it was never interned.
    pub fn symbol(&self, word: &PacketFeatures) -> u32 {
        self.symbols.get(word).copied().unwrap_or(NO_SYMBOL)
    }

    /// Appends `fingerprint`'s packet word to `out` symbol by symbol,
    /// interning unseen words.
    pub fn intern_into(&mut self, fingerprint: &Fingerprint, out: &mut Vec<u32>) {
        out.extend(fingerprint.iter().map(|word| self.intern(word)));
    }

    /// Appends `fingerprint`'s packet word to `out` symbol by symbol;
    /// unseen words become [`NO_SYMBOL`].
    pub fn encode_into(&self, fingerprint: &Fingerprint, out: &mut Vec<u32>) {
        out.extend(fingerprint.iter().map(|word| self.symbol(word)));
    }
}

/// Reusable workspace of the symbol-level OSA kernel: the pattern's
/// match table and the fallback's DP rows.
///
/// Invariant: `peq` is all-zero whenever no [`OsaPattern`] is alive —
/// a pattern sets only its own symbols' entries and its drop un-sets
/// exactly those, so the table is never swept. It only ever grows (to
/// the largest alphabet seen), which is what lets one thread-local
/// scratch outlive a reload to a model with a smaller alphabet.
#[derive(Debug, Clone, Default)]
pub struct OsaScratch {
    /// `peq[s]` has bit `i` set iff the loaded pattern's symbol `i`
    /// is `s`.
    peq: Vec<u64>,
    prev2: Vec<u32>,
    prev: Vec<u32>,
    cur: Vec<u32>,
}

impl OsaScratch {
    /// An empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        OsaScratch::default()
    }

    /// Loads `pattern` (symbols below `alphabet_len`, or
    /// [`NO_SYMBOL`]) and returns the matcher that scores texts
    /// against it. Dropping the matcher restores the scratch.
    ///
    /// # Panics
    ///
    /// Panics if a pattern symbol other than [`NO_SYMBOL`] is not
    /// below `alphabet_len`.
    pub fn pattern<'a>(&'a mut self, pattern: &'a [u32], alphabet_len: usize) -> OsaPattern<'a> {
        // The guard exists before the first bit is set, so a panic on
        // a bad symbol unwinds through its drop and leaves the
        // (possibly thread-local) table clean.
        let loaded = OsaPattern {
            scratch: self,
            pattern,
        };
        if pattern.len() <= WORD_BITS {
            let peq = &mut loaded.scratch.peq;
            if peq.len() < alphabet_len {
                peq.resize(alphabet_len, 0);
            }
            let peq = &mut peq[..alphabet_len];
            for (i, symbol) in pattern.iter().enumerate() {
                if *symbol != NO_SYMBOL {
                    peq[*symbol as usize] |= 1 << i;
                }
            }
        }
        loaded
    }
}

/// One pattern loaded into an [`OsaScratch`]; see
/// [`OsaScratch::pattern`].
#[derive(Debug)]
pub struct OsaPattern<'a> {
    scratch: &'a mut OsaScratch,
    pattern: &'a [u32],
}

impl OsaPattern<'_> {
    /// OSA distance (insertion, deletion, substitution, adjacent
    /// transposition) between the loaded pattern and `text` — equal to
    /// [`crate::osa_distance`] over the words the symbols stand for.
    pub fn distance(&mut self, text: &[u32]) -> usize {
        if self.pattern.is_empty() {
            text.len()
        } else if self.pattern.len() <= WORD_BITS {
            self.bit_parallel(text)
        } else {
            self.three_rows(text)
        }
    }

    /// [`OsaPattern::distance`] divided by the longer string's length
    /// (0 for two empty strings) — the per-reference term of the
    /// paper's dissimilarity score.
    pub fn normalized(&mut self, text: &[u32]) -> f64 {
        let longest = self.pattern.len().max(text.len());
        if longest == 0 {
            return 0.0;
        }
        self.distance(text) as f64 / longest as f64
    }

    /// Hyyrö's bit-parallel OSA: column `j` of the DP matrix is held
    /// as vertical delta bit-vectors (`vp`/`vn`: the cell below is one
    /// more / one less), advanced one text symbol at a time; `tr` adds
    /// the diagonal-zero positions a transposition opens.
    fn bit_parallel(&self, text: &[u32]) -> usize {
        let m = self.pattern.len();
        let last = 1u64 << (m - 1);
        let (mut vp, mut vn, mut d0, mut pm_prev) = (!0u64, 0u64, 0u64, 0u64);
        let mut distance = m;
        for symbol in text {
            // Text symbols outside the table (NO_SYMBOL included)
            // match no pattern position.
            let pm = self
                .scratch
                .peq
                .get(*symbol as usize)
                .map_or(0, |bits| *bits);
            let tr = ((!d0 & pm) << 1) & pm_prev;
            d0 = ((((pm & vp).wrapping_add(vp)) ^ vp) | pm | vn) | tr;
            let hp = vn | !(d0 | vp);
            let hn = d0 & vp;
            distance += usize::from(hp & last != 0);
            distance -= usize::from(hn & last != 0);
            let hp = (hp << 1) | 1;
            let hn = hn << 1;
            vp = hn | !(d0 | hp);
            vn = hp & d0;
            pm_prev = pm;
        }
        distance
    }

    /// The textbook three-rolling-row DP of [`crate::osa_distance`],
    /// over symbols and scratch-owned rows, for patterns past one
    /// machine word.
    fn three_rows(&mut self, text: &[u32]) -> usize {
        let a = self.pattern;
        let b = text;
        if b.is_empty() {
            return a.len();
        }
        let same = |x: u32, y: u32| x == y && x != NO_SYMBOL;
        let OsaScratch {
            prev2, prev, cur, ..
        } = &mut *self.scratch;
        let w = b.len() + 1;
        prev2.clear();
        prev2.resize(w, 0);
        prev.clear();
        prev.extend(0..w as u32);
        cur.clear();
        cur.resize(w, 0);
        for i in 1..=a.len() {
            cur[0] = i as u32;
            for j in 1..=b.len() {
                let cost = u32::from(!same(a[i - 1], b[j - 1]));
                cur[j] = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
                if i > 1 && j > 1 && same(a[i - 1], b[j - 2]) && same(a[i - 2], b[j - 1]) {
                    cur[j] = cur[j].min(prev2[j - 2] + 1);
                }
            }
            std::mem::swap(prev2, prev);
            std::mem::swap(prev, cur);
        }
        prev[b.len()] as usize
    }
}

impl Drop for OsaPattern<'_> {
    fn drop(&mut self) {
        if self.pattern.len() <= WORD_BITS {
            for symbol in self.pattern {
                // `get_mut`, not indexing: this also runs when
                // `OsaScratch::pattern` unwinds on a bad symbol.
                if let Some(bits) = self.scratch.peq.get_mut(*symbol as usize) {
                    *bits = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osa::osa_distance;
    use proptest::prelude::*;

    /// A symbol under the generic oracle: `NO_SYMBOL` equals nothing.
    #[derive(Debug, Clone, Copy)]
    struct Sym(u32);

    impl PartialEq for Sym {
        fn eq(&self, other: &Sym) -> bool {
            self.0 == other.0 && self.0 != NO_SYMBOL
        }
    }

    fn oracle(pattern: &[u32], text: &[u32]) -> usize {
        let a: Vec<Sym> = pattern.iter().map(|s| Sym(*s)).collect();
        let b: Vec<Sym> = text.iter().map(|s| Sym(*s)).collect();
        osa_distance(&a, &b)
    }

    /// Scores `text` against `pattern` through `scratch` and checks
    /// the scratch came back clean.
    fn kernel(scratch: &mut OsaScratch, pattern: &[u32], text: &[u32], alphabet: usize) -> usize {
        let distance = scratch.pattern(pattern, alphabet).distance(text);
        assert!(
            scratch.peq.iter().all(|bits| *bits == 0),
            "peq not restored after {pattern:?} vs {text:?}"
        );
        distance
    }

    /// Every string of length `0..=max_len` over `symbols`.
    fn all_strings(symbols: &[u32], max_len: usize) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new()];
        let mut frontier = vec![Vec::new()];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for prefix in &frontier {
                for s in symbols {
                    let mut word: Vec<u32> = prefix.clone();
                    word.push(*s);
                    next.push(word);
                }
            }
            out.extend(next.iter().cloned());
            frontier = next;
        }
        out
    }

    #[test]
    fn exhaustive_short_strings_match_the_generic_oracle() {
        // 3 symbols + the sentinel, every pair of strings up to length
        // 5: 1 365² ≈ 1.9 M pairs, one scratch throughout.
        let strings = all_strings(&[0, 1, 2, NO_SYMBOL], 5);
        assert_eq!(strings.len(), 1365);
        let mut scratch = OsaScratch::new();
        for pattern in &strings {
            let mut matcher = scratch.pattern(pattern, 3);
            for text in &strings {
                assert_eq!(
                    matcher.distance(text),
                    oracle(pattern, text),
                    "{pattern:?} vs {text:?}"
                );
            }
            drop(matcher);
            assert!(scratch.peq.iter().all(|bits| *bits == 0));
        }
    }

    #[test]
    fn word_boundary_lengths_match_the_generic_oracle() {
        // 63 / 64 take the bit-vector, 65 the DP rows; transposition
        // pairs straddle the top bit.
        let mut scratch = OsaScratch::new();
        for m in [1usize, 2, 62, 63, 64, 65, 66, 130] {
            let pattern: Vec<u32> = (0..m as u32).map(|i| i % 3).collect();
            for n in [0usize, 1, 63, 64, 65, 70] {
                let mut text: Vec<u32> = (0..n as u32).map(|i| (i + i / 7) % 3).collect();
                assert_eq!(
                    kernel(&mut scratch, &pattern, &text, 3),
                    oracle(&pattern, &text)
                );
                if n >= 2 {
                    text.swap(n - 2, n - 1);
                    assert_eq!(
                        kernel(&mut scratch, &pattern, &text, 3),
                        oracle(&pattern, &text)
                    );
                }
            }
            let mut swapped = pattern.clone();
            if m >= 2 {
                swapped.swap(m - 2, m - 1);
            }
            assert_eq!(
                kernel(&mut scratch, &pattern, &swapped, 3),
                oracle(&pattern, &swapped)
            );
        }
    }

    #[test]
    fn scratch_survives_a_smaller_alphabet_after_a_larger_one() {
        let mut scratch = OsaScratch::new();
        let big: Vec<u32> = (0..40).collect();
        assert_eq!(kernel(&mut scratch, &big, &big, 40), 0);
        assert_eq!(scratch.peq.len(), 40);
        // Symbols 2.. of the old alphabet are outside the new one: as
        // text they match nothing, and the table keeps its length.
        assert_eq!(kernel(&mut scratch, &[0, 1], &[0, 1, 5, 39], 2), 2);
        assert_eq!(kernel(&mut scratch, &[0, 1], &[1, 0], 2), 1);
        assert_eq!(scratch.peq.len(), 40);
    }

    #[test]
    fn pattern_symbol_outside_the_alphabet_panics_and_leaves_the_table_clean() {
        let mut scratch = OsaScratch::new();
        let loaded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = scratch.pattern(&[0, 1, 7], 2);
        }));
        assert!(loaded.is_err());
        assert!(scratch.peq.iter().all(|bits| *bits == 0));
    }

    #[test]
    fn normalized_divides_by_the_longer_string() {
        let mut scratch = OsaScratch::new();
        assert_eq!(scratch.pattern(&[], 0).normalized(&[]), 0.0);
        assert_eq!(scratch.pattern(&[0, 1], 2).normalized(&[0, 1, 0, 1]), 0.5);
        assert_eq!(scratch.pattern(&[0, 1, 0, 1], 2).normalized(&[]), 1.0);
        assert_eq!(
            scratch.pattern(&[NO_SYMBOL], 0).normalized(&[NO_SYMBOL]),
            1.0
        );
    }

    fn col(tag: u32) -> PacketFeatures {
        let mut v = [0u32; 23];
        v[18] = tag;
        PacketFeatures::from_raw(v)
    }

    #[test]
    fn alphabet_numbers_words_densely_and_never_renumbers() {
        let mut alphabet = PacketAlphabet::new();
        assert!(alphabet.is_empty());
        assert_eq!(alphabet.symbol(&col(7)), NO_SYMBOL);
        assert_eq!(alphabet.intern(&col(7)), 0);
        assert_eq!(alphabet.intern(&col(9)), 1);
        assert_eq!(alphabet.intern(&col(7)), 0);
        assert_eq!(alphabet.len(), 2);
        let fp = Fingerprint::from_columns(vec![col(9), col(3), col(7), col(3)]);
        let mut encoded = vec![99];
        alphabet.encode_into(&fp, &mut encoded);
        assert_eq!(encoded, [99, 1, NO_SYMBOL, 0, NO_SYMBOL]);
        encoded.clear();
        alphabet.intern_into(&fp, &mut encoded);
        assert_eq!(encoded, [1, 2, 0, 2]);
        assert_eq!(alphabet.symbol(&col(7)), 0, "old symbols keep their number");
        // Words differing in any one feature are different symbols.
        let mut v = *col(7).values();
        v[0] = 1;
        assert_eq!(alphabet.symbol(&PacketFeatures::from_raw(v)), NO_SYMBOL);
        alphabet.clear();
        assert_eq!(alphabet.len(), 0);
        assert_eq!(alphabet.symbol(&col(7)), NO_SYMBOL);
    }

    /// Maps raw draws to a string over `shift..shift + alphabet`, one
    /// draw in ten becoming the sentinel.
    fn symbols(raw: &[u32], alphabet: u32, shift: u32) -> Vec<u32> {
        raw.iter()
            .map(|r| match r % 10 {
                9 => NO_SYMBOL,
                _ => shift + (r / 10) % alphabet,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 512 } else { 8192 }
        ))]

        #[test]
        fn kernel_equals_generic_osa(
            alphabet in 1u32..=4,
            shift in 0u32..3,
            pattern in proptest::collection::vec(0u32..1000, 0..71),
            text in proptest::collection::vec(0u32..1000, 0..71),
        ) {
            // One scratch across every case of this property: small
            // alphabets follow large ones, DP cases (> 64) follow
            // bit-vector ones; `shift` moves the live symbols around
            // the table.
            thread_local! {
                static SCRATCH: std::cell::RefCell<OsaScratch> =
                    std::cell::RefCell::new(OsaScratch::new());
            }
            let pattern = symbols(&pattern, alphabet, shift);
            let text = symbols(&text, alphabet, shift);
            let len = (alphabet + shift) as usize;
            let expected = oracle(&pattern, &text);
            SCRATCH.with(|scratch| {
                let scratch = &mut *scratch.borrow_mut();
                prop_assert_eq!(kernel(scratch, &pattern, &text, len), expected);
                // OSA is symmetric: the roles can swap.
                prop_assert_eq!(kernel(scratch, &text, &pattern, len), expected);
            });
        }
    }
}

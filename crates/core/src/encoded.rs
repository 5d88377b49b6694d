//! Stage two's derived state: the packet-word alphabet of a model's
//! reference fingerprints and those references pre-encoded over it.
//!
//! Built beside the compiled bank and indexed like it (type `t` here
//! is the bank's forest `t`); never persisted — a loaded model
//! re-derives it from its reference fingerprints.

use sentinel_editdist::{OsaPattern, OsaScratch, PacketAlphabet};
use sentinel_fingerprint::Fingerprint;

/// Every reference fingerprint of every compiled type as one flat run
/// of alphabet symbols, with end-offset tables instead of a `Vec` per
/// reference (a span starts where its predecessor ends).
#[derive(Debug, Clone, Default)]
pub(crate) struct EncodedReferences {
    alphabet: PacketAlphabet,
    symbols: Vec<u32>,
    /// `word_ends[r]`: where reference `r` ends in `symbols`.
    word_ends: Vec<u32>,
    /// `type_ends[t]`: where type `t`'s references end in `word_ends`.
    type_ends: Vec<u32>,
}

fn span(ends: &[u32], index: usize) -> std::ops::Range<usize> {
    let start = index.checked_sub(1).map_or(0, |before| ends[before]);
    start as usize..ends[index] as usize
}

fn end_offset(len: usize) -> u32 {
    u32::try_from(len).expect("encoded references outgrew u32 offsets")
}

impl EncodedReferences {
    /// Number of types pushed (must equal the bank's forest count).
    pub(crate) fn type_count(&self) -> usize {
        self.type_ends.len()
    }

    /// Distinct packet words across every pushed reference.
    #[cfg(test)]
    pub(crate) fn alphabet_len(&self) -> usize {
        self.alphabet.len()
    }

    /// Appends the next type's references, extending the alphabet with
    /// the words they introduce; symbols already handed out keep their
    /// numbers.
    pub(crate) fn push_type(&mut self, references: &[Fingerprint]) {
        for reference in references {
            self.alphabet.intern_into(reference, &mut self.symbols);
            self.word_ends.push(end_offset(self.symbols.len()));
        }
        self.type_ends.push(end_offset(self.word_ends.len()));
    }

    /// Encodes `query` once (into `symbols`, cleared first) and loads
    /// it as the OSA pattern every reference is then scored against.
    pub(crate) fn load<'a>(
        &'a self,
        query: &Fingerprint,
        symbols: &'a mut Vec<u32>,
        osa: &'a mut OsaScratch,
    ) -> LoadedQuery<'a> {
        symbols.clear();
        self.alphabet.encode_into(query, symbols);
        LoadedQuery {
            references: self,
            pattern: osa.pattern(symbols, self.alphabet.len()),
        }
    }
}

/// One query loaded against an [`EncodedReferences`].
pub(crate) struct LoadedQuery<'a> {
    references: &'a EncodedReferences,
    pattern: OsaPattern<'a>,
}

impl LoadedQuery<'_> {
    /// The query's dissimilarity score against type `t`: its
    /// normalised OSA distances to the type's references, summed in
    /// reference order — `sentinel_editdist::dissimilarity_over`, term
    /// for term.
    pub(crate) fn dissimilarity(&mut self, t: usize) -> f64 {
        let EncodedReferences {
            symbols,
            word_ends,
            type_ends,
            ..
        } = self.references;
        span(type_ends, t)
            .map(|r| self.pattern.normalized(&symbols[span(word_ends, r)]))
            .sum()
    }
}

//! Damerau-Levenshtein edit distance over packet words (paper §IV-B-2).
//!
//! When several per-type classifiers accept a fingerprint, IoT Sentinel
//! discriminates by "computing Damerau-Levenshtein edit distance
//! considering the insertion, deletion, substitution and immediate
//! transposition of characters", treating the fingerprint matrix F "as
//! a word with each character being a column of the matrix, i.e. a
//! packet pᵢ", with character equality requiring **all 23 features** to
//! match. The absolute distance is normalised by the longer word's
//! length to `[0, 1]`.
//!
//! The insert/delete/substitute/adjacent-transpose operation set is the
//! *optimal string alignment* (OSA) variant; the unrestricted
//! Damerau-Levenshtein variant ([`damerau`]) and plain Levenshtein are
//! provided for the distance-variant ablation.
//!
//! OSA exists twice, on purpose:
//!
//! * [`osa`] is the textbook three-row DP, generic over any
//!   `T: PartialEq` — the oracle. Nothing on the query path calls it.
//! * [`symbol`] is what is served: packet words interned to dense `u32`
//!   symbols ([`PacketAlphabet`]), the query loaded once as the pattern
//!   of a reusable [`OsaScratch`], and every reference scored by a
//!   single-`u64` bit-parallel kernel (Hyyrö's OSA extension of Myers'
//!   bit-vector algorithm; scratch-row DP past 64 symbols) — no
//!   allocation, ≈ 0.3 µs per distance where the generic DP takes
//!   ≈ 12 µs. `sentinel-core` keeps a model's references pre-encoded
//!   and drives this module directly; the fingerprint-level entry
//!   points ([`fingerprint_distance`], [`dissimilarity_over`],
//!   [`dissimilarity_score`]) run the same kernel by encoding their
//!   arguments on the fly.
//!
//! The kernel is proven equal to the oracle exhaustively on short
//! strings and by property test across the 64-symbol boundary
//! (`cargo test -p sentinel-editdist --release` runs the full case
//! count).
//!
//! # Example
//!
//! ```
//! use sentinel_editdist::{normalized_osa, osa_distance};
//!
//! let a = ["dhcp", "arp", "dns", "ntp"];
//! let b = ["dhcp", "dns", "arp", "ntp"]; // one adjacent transposition
//! assert_eq!(osa_distance(&a, &b), 1);
//! assert_eq!(normalized_osa(&a, &b), 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod damerau;
pub mod osa;
pub mod packet_word;
pub mod score;
pub mod symbol;

pub use damerau::damerau_levenshtein;
pub use osa::{levenshtein, normalized_osa, osa_distance};
pub use packet_word::{fingerprint_distance, DistanceVariant};
pub use score::{dissimilarity_over, dissimilarity_score, rank_candidates};
pub use symbol::{OsaPattern, OsaScratch, PacketAlphabet, NO_SYMBOL};

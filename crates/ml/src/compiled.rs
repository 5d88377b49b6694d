//! Compiled classifier banks: flat-arena forest evaluation with
//! early-exit voting.
//!
//! The interpreter in [`crate::forest`] walks one [`RandomForest`] at a
//! time through enum nodes whose leaves own `Vec<u32>` histograms —
//! flexible for training and inspection, but the identification hot
//! path evaluates *dozens to thousands* of binary forests per query,
//! and pays enum dispatch, pointer chasing and a per-forest vote `Vec`
//! for it. This module compiles an entire bank of binary forests into
//! one contiguous arena:
//!
//! * **Packed branch nodes** ([`PackedNode`]): `feature: u16`,
//!   `threshold: f32`, child references `u32` — 16 bytes, cache-dense,
//!   no discriminant to match on.
//! * **Implicit leaves**: every classifier in the bank is binary, so a
//!   leaf carries exactly one bit of information (does this tree vote
//!   for the positive class?). Leaves are folded into tagged child
//!   references ([`LEAF_BIT`] plus the vote in bit 0) and vanish from
//!   the arena entirely — no `Vec<u32>` histograms, no leaf nodes.
//! * **Early-exit voting**: a forest accepts once `accept_votes` trees
//!   voted positive and rejects as soon as the remaining trees cannot
//!   reach that count; either way the remaining trees are never
//!   walked. `accept_votes` is derived from the caller's fractional
//!   threshold by scanning the (tiny) vote domain, so the decision is
//!   **bit-identical** to comparing the interpreter's
//!   `positive_vote_fraction` against the same threshold.
//! * **Allocation-free, panic-free evaluation**: [`CompiledBank::accepts`]
//!   and [`CompiledBank::for_each_accepting`] touch no heap and use
//!   checked arena accesses with a step budget, so even a corrupt
//!   arena (out-of-range references, reference cycles) degrades to a
//!   negative vote instead of a panic or an endless loop.
//!
//! Banks are built through [`CompiledBankBuilder`], which validates
//! every forest (binary, features within `u16`, arena small enough for
//! tagged references) — arenas produced by the builder are structurally
//! sound by construction. [`CompiledBank::from_raw_parts`] exists for
//! robustness tests and external tooling that wants to feed the
//! evaluator hostile arenas.

use crate::error::MlError;
use crate::forest::RandomForest;
use crate::tree::Node;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Tag bit marking a child reference as a leaf; bit 0 then carries the
/// tree's positive-class vote. References without the tag are indices
/// into the bank's node arena.
pub const LEAF_BIT: u32 = 1 << 31;

/// One branch node of the compiled arena: 16 bytes, no enum
/// discriminant. `left`/`right` are tagged references (see
/// [`LEAF_BIT`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PackedNode {
    /// Feature index tested by this branch.
    pub feature: u16,
    /// Branch threshold: `sample[feature] <= threshold` goes left.
    pub threshold: f32,
    /// Tagged reference to the left child.
    pub left: u32,
    /// Tagged reference to the right child.
    pub right: u32,
}

/// Per-forest metadata: where its tree roots live in the root table
/// and how many positive votes it takes to accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestSpan {
    /// First entry of this forest in the bank's root table.
    pub roots_start: u32,
    /// Number of trees (= root-table entries).
    pub n_trees: u32,
    /// Positive votes required to accept; `n_trees + 1` means the
    /// forest can never accept (a threshold above 1.0).
    pub accept_votes: u32,
    /// Feature dimensionality; samples of any other length are
    /// rejected (mirroring the interpreter's dimension check).
    pub n_features: u32,
}

/// Cumulative scan-traffic counter a bank records as queries pass
/// through it: one relaxed atomic bumped once per query (never per
/// forest), so the counting cost is one uncontended cache-line RMW —
/// invisible next to the arena scan itself — and the scan stays
/// allocation-free and `&self`.
///
/// Read via [`CompiledBank::scan_counters`]; surfaced to operators
/// through the serve layer's Stats frame. Cloning a bank copies the
/// counter value at that instant (a clone is a faithful snapshot of
/// the bank, counter included).
#[derive(Debug, Default)]
pub struct ScanCounters {
    queries: AtomicU64,
}

impl Clone for ScanCounters {
    fn clone(&self) -> Self {
        ScanCounters {
            queries: AtomicU64::new(self.queries.load(Relaxed)),
        }
    }
}

impl ScanCounters {
    /// The counter's current value.
    pub fn snapshot(&self) -> ScanSnapshot {
        ScanSnapshot {
            queries: self.queries.load(Relaxed),
            forests_skipped: 0,
        }
    }
}

/// A point-in-time copy of a bank's [`ScanCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanSnapshot {
    /// Bank scans answered (one per fingerprint classified).
    pub queries: u64,
    /// Always 0: a scan walks every forest. Constant; read by
    /// `benchmark/`, remove with the next `benchmark` change.
    pub forests_skipped: u64,
}

/// A bank of binary forests compiled into one flat arena.
///
/// Construction goes through [`CompiledBankBuilder`]; evaluation is
/// allocation-free and panic-free. Forests keep the order they were
/// pushed in, so candidate sets produced by
/// [`CompiledBank::for_each_accepting`] are ordered exactly like a
/// sequential scan over the source forests.
#[derive(Debug, Clone, Default)]
pub struct CompiledBank {
    nodes: Vec<PackedNode>,
    roots: Vec<u32>,
    forests: Vec<ForestSpan>,
    counters: ScanCounters,
}

impl CompiledBank {
    /// Assembles a bank from raw arena parts **without validation**.
    ///
    /// Evaluation tolerates arbitrary garbage here (out-of-range
    /// references, cycles, spans past the tables) by voting negative,
    /// so this is safe to call — it just may not *mean* anything.
    /// Intended for robustness tests and external arena tooling;
    /// everything else should use [`CompiledBankBuilder`].
    pub fn from_raw_parts(
        nodes: Vec<PackedNode>,
        roots: Vec<u32>,
        forests: Vec<ForestSpan>,
    ) -> Self {
        CompiledBank {
            nodes,
            roots,
            forests,
            counters: ScanCounters::default(),
        }
    }

    /// Number of forests in the bank.
    pub fn forest_count(&self) -> usize {
        self.forests.len()
    }

    /// Whether the bank holds no forests.
    pub fn is_empty(&self) -> bool {
        self.forests.is_empty()
    }

    /// Total packed branch nodes across all forests.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The packed branch-node arena, in push order. Exposed so
    /// parity harnesses can harvest real split thresholds and probe
    /// one ulp either side of them.
    pub fn nodes(&self) -> &[PackedNode] {
        &self.nodes
    }

    /// Approximate arena footprint in bytes (nodes + roots + spans).
    pub fn arena_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<PackedNode>()
            + self.roots.len() * std::mem::size_of::<u32>()
            + self.forests.len() * std::mem::size_of::<ForestSpan>()
    }

    /// The per-forest metadata, in push order.
    pub fn spans(&self) -> &[ForestSpan] {
        &self.forests
    }

    /// Cumulative scan-traffic counters: how many queries this bank
    /// has answered. Lock-free to read; a scan bumps one relaxed atomic
    /// per query.
    pub fn scan_counters(&self) -> ScanSnapshot {
        self.counters.snapshot()
    }

    /// Does forest `index` accept `sample`?
    ///
    /// Early-exits once the accept count is reached or mathematically
    /// unreachable. Returns `false` for an out-of-range index, a
    /// wrong-length sample, or a corrupt arena — never panics.
    pub fn accepts(&self, index: usize, sample: &[f32]) -> bool {
        match self.forests.get(index) {
            Some(span) => self.span_accepts(span, sample),
            None => false,
        }
    }

    /// Calls `f(index)` for every forest accepting `sample`, in push
    /// order: one sequential pass over the spans, each forest decided
    /// by early-exit voting. Allocation-free.
    pub fn for_each_accepting(&self, sample: &[f32], mut f: impl FnMut(usize)) {
        self.counters.queries.fetch_add(1, Relaxed);
        for (index, span) in self.forests.iter().enumerate() {
            if self.span_accepts(span, sample) {
                f(index);
            }
        }
    }

    /// Full positive-vote count of forest `index` on `sample` (no
    /// early exit — evaluation and debugging aid). `None` for an
    /// out-of-range index or wrong-length sample.
    pub fn positive_votes(&self, index: usize, sample: &[f32]) -> Option<u32> {
        let span = self.forests.get(index)?;
        if sample.len() != span.n_features as usize {
            return None;
        }
        let roots = self.span_roots(span)?;
        Some(
            roots
                .iter()
                .map(|root| u32::from(self.walk(*root, sample)))
                .sum(),
        )
    }

    fn span_roots(&self, span: &ForestSpan) -> Option<&[u32]> {
        let start = span.roots_start as usize;
        let end = start.checked_add(span.n_trees as usize)?;
        self.roots.get(start..end)
    }

    fn span_accepts(&self, span: &ForestSpan, sample: &[f32]) -> bool {
        if sample.len() != span.n_features as usize {
            return false;
        }
        let needed = span.accept_votes;
        if needed == 0 {
            // A zero (or negative) threshold accepts with no votes —
            // exactly what fraction >= threshold yields.
            return true;
        }
        let Some(roots) = self.span_roots(span) else {
            return false;
        };
        if u64::from(needed) > roots.len() as u64 {
            return false;
        }
        let mut votes = 0u32;
        let mut remaining = roots.len() as u32;
        for root in roots {
            remaining -= 1;
            if self.walk(*root, sample) {
                votes += 1;
                if votes >= needed {
                    return true;
                }
            }
            if votes + remaining < needed {
                return false;
            }
        }
        false
    }

    /// Walks one tree from a tagged root reference to its leaf vote.
    /// The step budget bounds traversal on cyclic (corrupt) arenas;
    /// any out-of-range access votes negative.
    fn walk(&self, mut reference: u32, sample: &[f32]) -> bool {
        let mut steps = self.nodes.len() + 1;
        loop {
            if reference & LEAF_BIT != 0 {
                return reference & 1 == 1;
            }
            if steps == 0 {
                return false;
            }
            steps -= 1;
            let Some(node) = self.nodes.get(reference as usize) else {
                return false;
            };
            let value = match sample.get(node.feature as usize) {
                Some(v) => *v,
                None => return false,
            };
            reference = if value <= node.threshold {
                node.left
            } else {
                node.right
            };
        }
    }
}

/// Incrementally compiles binary forests into one [`CompiledBank`].
#[derive(Debug, Clone, Default)]
pub struct CompiledBankBuilder {
    bank: CompiledBank,
}

impl CompiledBankBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        CompiledBankBuilder::default()
    }

    /// Resumes building on top of an existing bank: pushed forests
    /// **append** their nodes, root entries and span — nothing already
    /// compiled is touched or recompiled. This is the
    /// incremental-compilation path behind `add_device_type`
    /// (re-running the whole builder would be O(bank) per added type).
    pub fn from_bank(bank: CompiledBank) -> Self {
        CompiledBankBuilder { bank }
    }

    /// Compiles `forest` into the arena with the given fractional
    /// accept threshold, returning the forest's bank index.
    ///
    /// The accept rule is bit-identical to
    /// `forest.positive_vote_fraction(sample)? >= accept_threshold`:
    /// the required vote count is the smallest `v` whose fraction
    /// `v / n_trees` (computed in `f32`, like the interpreter) clears
    /// the threshold.
    ///
    /// # Errors
    ///
    /// [`MlError::BadConfig`] if the forest is not binary, a feature
    /// index exceeds `u16`, or the arena would outgrow the tagged
    /// 31-bit reference space.
    pub fn push(&mut self, forest: &RandomForest, accept_threshold: f32) -> Result<usize, MlError> {
        if forest.n_classes() != 2 {
            return Err(MlError::BadConfig(format!(
                "compiled banks hold binary forests only (got {} classes)",
                forest.n_classes()
            )));
        }
        if forest.n_features() > usize::from(u16::MAX) + 1 {
            return Err(MlError::BadConfig(format!(
                "feature dimensionality {} exceeds the packed u16 index",
                forest.n_features()
            )));
        }
        // Pre-validate every split feature before mutating anything —
        // a mid-compile failure would leave the bank with orphaned
        // nodes and roots.
        let mut branch_nodes = 0usize;
        for tree in forest.trees() {
            branch_nodes += tree.node_count() - tree.leaf_count();
            for node in tree.nodes() {
                if let Node::Split { feature, .. } = node {
                    if *feature > usize::from(u16::MAX) {
                        return Err(MlError::BadConfig(format!(
                            "split feature index {feature} exceeds the packed u16 range"
                        )));
                    }
                }
            }
        }
        let nodes_end = self.bank.nodes.len() + branch_nodes;
        if nodes_end >= LEAF_BIT as usize {
            return Err(MlError::BadConfig(
                "compiled arena exceeds the 31-bit reference space".into(),
            ));
        }
        // All table offsets as *checked* conversions, computed before
        // any mutation (the arena-truncation bugfix: a bare `as u32`
        // here silently wraps once a table passes 2³² entries).
        let roots_start =
            u32::try_from(self.bank.roots.len()).map_err(|_| arena_overflow("root table"))?;
        let n_trees = u32::try_from(forest.n_trees()).map_err(|_| arena_overflow("tree count"))?;
        let total_roots = roots_start
            .checked_add(n_trees)
            .ok_or_else(|| arena_overflow("root table"))?;
        let n_features =
            u32::try_from(forest.n_features()).map_err(|_| arena_overflow("feature count"))?;
        for tree in forest.trees() {
            let root = self.compile_tree(tree.nodes());
            self.bank.roots.push(root);
        }
        debug_assert_eq!(self.bank.nodes.len(), nodes_end);
        debug_assert_eq!(self.bank.roots.len(), total_roots as usize);
        self.bank.forests.push(ForestSpan {
            roots_start,
            n_trees,
            accept_votes: votes_needed(accept_threshold, forest.n_trees()),
            n_features,
        });
        Ok(self.bank.forests.len() - 1)
    }

    /// Finishes the bank.
    pub fn finish(self) -> CompiledBank {
        self.bank
    }

    /// Compiles one tree's node list, returning the tagged root
    /// reference. Tree invariants (children strictly forward, binary
    /// leaf histograms) are guaranteed by `DecisionTree`'s own
    /// validation; feature and arena ranges were pre-validated by
    /// `push` before any mutation.
    fn compile_tree(&mut self, tree_nodes: &[Node]) -> u32 {
        // First pass: assign every tree node its arena reference —
        // splits get the next arena slots in order, leaves fold into
        // tagged references.
        let base = u32::try_from(self.bank.nodes.len())
            .expect("arena size pre-checked against LEAF_BIT in push");
        let mut references = Vec::with_capacity(tree_nodes.len());
        let mut splits = 0u32;
        for node in tree_nodes {
            references.push(match node {
                Node::Leaf { counts } => {
                    // Binary argmax with the interpreter's tie rule
                    // (`max_by_key` keeps the *last* maximum, so a tie
                    // votes positive).
                    let negative = counts.first().copied().unwrap_or(0);
                    let positive = counts.get(1).copied().unwrap_or(0) >= negative;
                    LEAF_BIT | u32::from(positive)
                }
                Node::Split { .. } => {
                    splits += 1;
                    base + splits - 1
                }
            });
        }
        // Second pass: emit packed nodes with resolved child refs.
        for node in tree_nodes {
            if let Node::Split {
                feature,
                threshold,
                left,
                right,
            } = node
            {
                self.bank.nodes.push(PackedNode {
                    feature: u16::try_from(*feature).expect("feature range pre-validated in push"),
                    threshold: *threshold,
                    left: references[*left],
                    right: references[*right],
                });
            }
        }
        references[0]
    }
}

/// The typed error for arena-path size overflows (the checked-cast
/// bugfix sweep).
fn arena_overflow(what: &str) -> MlError {
    MlError::BadConfig(format!("compiled bank {what} overflows u32"))
}

/// The smallest vote count whose `f32` fraction of `n_trees` clears
/// `threshold`, or `n_trees + 1` when no count does (threshold above
/// 1.0, or NaN — which the interpreter likewise never accepts).
///
/// Computed directly (O(1)) instead of the former O(n_trees) linear
/// scan, but defined by the *same* predicate the scan tested —
/// `v as f32 / n_trees as f32 >= threshold` — so the result is
/// bit-identical for every input (an exhaustive unit test pins all
/// `n_trees ≤ 4096` against the scanned version). Because `f32`
/// division by a fixed positive divisor is monotone in the numerator,
/// the predicate is monotone in `v`, and a ceil-based guess plus a
/// bounded local fix-up lands exactly on the scan's answer even where
/// float rounding makes `ceil(threshold * total)` miss by one.
fn votes_needed(threshold: f32, n_trees: usize) -> u32 {
    let total = n_trees as f32;
    let accepted = |v: usize| (v as f32) / total >= threshold;
    // The scan's boundary contracts, preserved verbatim: v = 0 first
    // (0/0 is NaN, so n_trees == 0 with threshold <= 0.0 still needs
    // comparing), and "nothing clears" maps to n_trees + 1 (NaN or
    // threshold > 1.0).
    if accepted(0) {
        return 0;
    }
    if !accepted(n_trees) {
        return n_trees as u32 + 1;
    }
    // Monotone region: guess by ceil, then walk to the exact boundary.
    let mut v = if threshold.is_finite() && threshold > 0.0 {
        ((threshold * total).ceil() as usize).clamp(1, n_trees)
    } else {
        1
    };
    while v > 0 && accepted(v - 1) {
        v -= 1;
    }
    while !accepted(v) {
        v += 1;
    }
    v as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn training_data(seed: u64, n: usize, d: usize) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut samples = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f32> = (0..d).map(|_| rng.gen::<f32>()).collect();
            let label = usize::from(row[0] + row[d - 1] > 1.0);
            samples.push(row);
            labels.push(label);
        }
        (samples, labels)
    }

    fn forest(seed: u64, d: usize) -> RandomForest {
        let (samples, labels) = training_data(seed, 120, d);
        RandomForest::fit(&samples, &labels, 2, &ForestConfig::default(), seed).unwrap()
    }

    #[test]
    fn bank_matches_interpreter_on_every_threshold() {
        let forests: Vec<RandomForest> = (0..4).map(|i| forest(40 + i, 3)).collect();
        for threshold in [0.0f32, 0.2, 0.35, 0.5, 0.9, 1.0, 1.5, -0.5] {
            let mut builder = CompiledBankBuilder::new();
            for f in &forests {
                builder.push(f, threshold).unwrap();
            }
            let bank = builder.finish();
            let mut rng = SmallRng::seed_from_u64(7);
            for _ in 0..200 {
                let sample: Vec<f32> = (0..3).map(|_| rng.gen::<f32>() * 1.5).collect();
                for (i, f) in forests.iter().enumerate() {
                    let interpreted = f.positive_vote_fraction(&sample).unwrap() >= threshold;
                    assert_eq!(
                        bank.accepts(i, &sample),
                        interpreted,
                        "forest {i} at threshold {threshold} on {sample:?}"
                    );
                }
            }
        }
    }

    /// Every forest of `bank` against the interpreter's verdict on its
    /// source forest, through both `for_each_accepting` and `accepts`.
    fn assert_scan_matches_interpreter(
        bank: &CompiledBank,
        sources: &[&RandomForest],
        threshold: f32,
        sample: &[f32],
    ) {
        let mut scanned = Vec::new();
        bank.for_each_accepting(sample, |i| scanned.push(i));
        let interpreted: Vec<usize> = sources
            .iter()
            .enumerate()
            .filter(|(_, f)| f.positive_vote_fraction(sample).unwrap() >= threshold)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(scanned, interpreted, "scan diverged on {sample:?}");
        for i in 0..sources.len() {
            assert_eq!(bank.accepts(i, sample), interpreted.contains(&i));
        }
    }

    #[test]
    fn scan_counters_track_queries() {
        let forests: Vec<RandomForest> = (0..4).map(|i| forest(90 + i, 3)).collect();
        let mut builder = CompiledBankBuilder::new();
        for f in &forests {
            builder.push(f, 0.5).unwrap();
        }
        let bank = builder.finish();
        assert_eq!(bank.scan_counters(), ScanSnapshot::default());

        bank.for_each_accepting(&[0.4, 0.6, 0.2], |_| {});
        bank.for_each_accepting(&[0.0, 0.0, 0.0], |_| {});
        // Single-forest probes are not scans.
        bank.accepts(0, &[0.4, 0.6, 0.2]);
        assert_eq!(bank.scan_counters().queries, 2);
        assert_eq!(bank.scan_counters().forests_skipped, 0);

        // Clones carry the value.
        assert_eq!(bank.clone().scan_counters(), bank.scan_counters());
    }

    #[test]
    fn scan_preserves_push_order() {
        let forests: Vec<RandomForest> = (0..5).map(|i| forest(60 + i, 2)).collect();
        let sources: Vec<&RandomForest> = forests.iter().collect();
        let mut builder = CompiledBankBuilder::new();
        for f in &forests {
            builder.push(f, 0.5).unwrap();
        }
        let bank = builder.finish();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..50 {
            let sample: Vec<f32> = (0..2).map(|_| rng.gen::<f32>() * 1.5).collect();
            assert_scan_matches_interpreter(&bank, &sources, 0.5, &sample);
        }
    }

    /// The scan has no tier that depends on bank size or content:
    /// banks either side of 64 and 256 forests, built by pushing a
    /// handful of forests *repeatedly* (so they are full of exact
    /// duplicates), answer forest by forest like the interpreter on
    /// the source, in push order, and each call is one counted scan.
    #[test]
    fn banks_of_every_shape_scan_like_the_interpreter() {
        let distinct: Vec<RandomForest> = (0..5).map(|i| forest(400 + i, 3)).collect();
        let threshold = 0.35;
        let mut probes: Vec<Vec<f32>> = vec![vec![0.0; 3], vec![0.4, 0.6, 0.2]];
        let mut rng = SmallRng::seed_from_u64(97);
        for case in 0..30 {
            probes.push(
                (0..3)
                    .map(|_| {
                        if case % 3 == 0 && rng.gen::<f32>() < 0.6 {
                            0.0
                        } else {
                            rng.gen::<f32>() * 1.5
                        }
                    })
                    .collect(),
            );
        }
        for size in [63usize, 64, 65, 255, 256, 257] {
            let sources: Vec<&RandomForest> = distinct.iter().cycle().take(size).collect();
            let mut builder = CompiledBankBuilder::new();
            for f in &sources {
                builder.push(f, threshold).unwrap();
            }
            let bank = builder.finish();
            assert_eq!(bank.forest_count(), size);
            for (n, probe) in probes.iter().enumerate() {
                assert_scan_matches_interpreter(&bank, &sources, threshold, probe);
                assert_eq!(bank.scan_counters().queries, n as u64 + 1);
            }
        }
    }

    #[test]
    fn votes_needed_maps_thresholds_exactly() {
        assert_eq!(votes_needed(0.0, 33), 0);
        assert_eq!(votes_needed(-1.0, 33), 0);
        assert_eq!(votes_needed(0.5, 33), 17);
        assert_eq!(votes_needed(0.35, 33), 12);
        assert_eq!(votes_needed(1.0, 33), 33);
        assert_eq!(votes_needed(1.01, 33), 34);
        assert_eq!(votes_needed(f32::NAN, 33), 34);
        // Exactness at representable fractions: 16/32 == 0.5.
        assert_eq!(votes_needed(0.5, 32), 16);
    }

    #[test]
    fn single_leaf_trees_compile() {
        // max_depth 0 forests are all leaves — no packed nodes at all.
        let (samples, labels) = training_data(5, 40, 2);
        let config = ForestConfig {
            tree: crate::tree::TreeConfig {
                max_depth: 0,
                ..crate::tree::TreeConfig::default()
            },
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&samples, &labels, 2, &config, 5).unwrap();
        let mut builder = CompiledBankBuilder::new();
        builder.push(&f, 0.5).unwrap();
        let bank = builder.finish();
        assert_eq!(bank.node_count(), 0);
        let sample = [0.3f32, 0.9];
        assert_eq!(
            bank.accepts(0, &sample),
            f.positive_vote_fraction(&sample).unwrap() >= 0.5
        );
    }

    #[test]
    fn wrong_dimension_and_bad_index_vote_negative() {
        let f = forest(9, 3);
        let mut builder = CompiledBankBuilder::new();
        builder.push(&f, 0.0).unwrap();
        let bank = builder.finish();
        // Threshold 0 accepts everything of the right shape...
        assert!(bank.accepts(0, &[0.1, 0.2, 0.3]));
        // ...but never a wrong-length sample or unknown forest.
        assert!(!bank.accepts(0, &[0.1, 0.2]));
        assert!(!bank.accepts(1, &[0.1, 0.2, 0.3]));
        assert_eq!(bank.positive_votes(0, &[0.1, 0.2]), None);
        assert_eq!(bank.positive_votes(1, &[0.1, 0.2, 0.3]), None);
    }

    #[test]
    fn rejects_non_binary_forests() {
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            for i in 0..20 {
                samples.push(vec![c as f32 * 5.0 + (i % 3) as f32 * 0.1]);
                labels.push(c);
            }
        }
        let f = RandomForest::fit(&samples, &labels, 3, &ForestConfig::default(), 1).unwrap();
        let err = CompiledBankBuilder::new().push(&f, 0.5).unwrap_err();
        assert!(matches!(err, MlError::BadConfig(_)));
    }

    #[test]
    fn corrupt_arenas_never_panic() {
        let sample = [0.5f32, 0.5];
        let span = ForestSpan {
            roots_start: 0,
            n_trees: 1,
            accept_votes: 1,
            n_features: 2,
        };
        // Root reference past the arena.
        let bank = CompiledBank::from_raw_parts(vec![], vec![42], vec![span]);
        assert!(!bank.accepts(0, &sample));
        // Node whose children form a cycle.
        let cyclic = PackedNode {
            feature: 0,
            threshold: 0.5,
            left: 0,
            right: 0,
        };
        let bank = CompiledBank::from_raw_parts(vec![cyclic], vec![0], vec![span]);
        assert!(!bank.accepts(0, &sample));
        assert_eq!(bank.positive_votes(0, &sample), Some(0));
        // Feature index past the sample (span lies about dimensions).
        let oob_feature = PackedNode {
            feature: 7,
            threshold: 0.5,
            left: LEAF_BIT | 1,
            right: LEAF_BIT | 1,
        };
        let bank = CompiledBank::from_raw_parts(vec![oob_feature], vec![0], vec![span]);
        assert!(!bank.accepts(0, &sample));
        // Span whose root range overflows the root table.
        let wild = ForestSpan {
            roots_start: u32::MAX,
            n_trees: u32::MAX,
            accept_votes: 1,
            n_features: 2,
        };
        let bank = CompiledBank::from_raw_parts(vec![], vec![], vec![wild]);
        assert!(!bank.accepts(0, &sample));
        // accept_votes beyond the tree count can never accept.
        let greedy = ForestSpan {
            accept_votes: 5,
            ..span
        };
        let bank = CompiledBank::from_raw_parts(vec![], vec![LEAF_BIT | 1], vec![greedy]);
        assert!(!bank.accepts(0, &sample));
        // Garbage everywhere at once, through the scan: it terminates
        // under the step budget and agrees with the per-forest answer.
        let spans = vec![
            span,
            wild,
            ForestSpan {
                accept_votes: 0,
                ..span
            },
        ];
        let bank = CompiledBank::from_raw_parts(vec![cyclic], vec![0], spans);
        for sample in [[0.5f32, 0.5], [0.0, 0.0], [f32::NAN, 1.0]] {
            let mut scanned = Vec::new();
            bank.for_each_accepting(&sample, |i| scanned.push(i));
            assert_eq!(scanned, vec![2]);
            assert!(!bank.accepts(0, &sample) && !bank.accepts(1, &sample));
        }
    }

    #[test]
    fn from_bank_appends_identically_to_one_shot_compilation() {
        let forests: Vec<RandomForest> = (0..5).map(|i| forest(130 + i, 3)).collect();
        let mut oneshot = CompiledBankBuilder::new();
        for f in &forests {
            oneshot.push(f, 0.5).unwrap();
        }
        let oneshot = oneshot.finish();

        let mut first = CompiledBankBuilder::new();
        for f in &forests[..3] {
            first.push(f, 0.5).unwrap();
        }
        let mut resumed = CompiledBankBuilder::from_bank(first.finish());
        for f in &forests[3..] {
            resumed.push(f, 0.5).unwrap();
        }
        let resumed = resumed.finish();

        // The append path reproduces the one-shot arena exactly.
        assert_eq!(resumed.nodes, oneshot.nodes);
        assert_eq!(resumed.roots, oneshot.roots);
        assert_eq!(resumed.spans(), oneshot.spans());

        // Appending onto a raw-parts bank works the same way: the raw
        // forest keeps its slot, the pushed one lands behind it.
        let always = ForestSpan {
            roots_start: 0,
            n_trees: 1,
            accept_votes: 1,
            n_features: 3,
        };
        let raw = CompiledBank::from_raw_parts(vec![], vec![LEAF_BIT | 1], vec![always]);
        let mut builder = CompiledBankBuilder::from_bank(raw);
        assert_eq!(builder.push(&forests[0], 0.5).unwrap(), 1);
        let bank = builder.finish();
        let sample = [0.4f32, 0.6, 0.1];
        assert!(bank.accepts(0, &sample));
        assert_eq!(bank.accepts(1, &sample), oneshot.accepts(0, &sample));
    }

    #[test]
    fn arena_accounting() {
        let f = forest(2, 3);
        let mut builder = CompiledBankBuilder::new();
        builder.push(&f, 0.5).unwrap();
        let bank = builder.finish();
        assert_eq!(bank.forest_count(), 1);
        assert!(!bank.is_empty());
        let branch_nodes: usize = f
            .trees()
            .iter()
            .map(|t| t.node_count() - t.leaf_count())
            .sum();
        assert_eq!(bank.node_count(), branch_nodes);
        assert_eq!(
            bank.arena_bytes(),
            branch_nodes * std::mem::size_of::<PackedNode>()
                + f.n_trees() * std::mem::size_of::<u32>()
                + std::mem::size_of::<ForestSpan>()
        );
        assert_eq!(bank.spans().len(), 1);
        assert!(CompiledBank::default().is_empty());
    }

    /// The former O(n_trees) implementation, kept verbatim as the
    /// oracle for the direct computation.
    fn votes_needed_scanned(threshold: f32, n_trees: usize) -> u32 {
        let total = n_trees as f32;
        (0..=n_trees)
            .find(|v| *v as f32 / total >= threshold)
            .map(|v| v as u32)
            .unwrap_or(n_trees as u32 + 1)
    }

    #[test]
    fn votes_needed_is_bit_identical_to_the_linear_scan() {
        let thresholds = [
            0.0f32,
            -0.0,
            -1.0,
            f32::MIN_POSITIVE,
            f32::MIN_POSITIVE / 4.0,
            0.25,
            1.0 / 3.0,
            0.5,
            0.65,
            0.999_999,
            1.0,
            1.0 + f32::EPSILON,
            1.5,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        // Exhaustive over every bank-relevant ensemble size.
        for n_trees in 0..=4096usize {
            for t in thresholds {
                assert_eq!(
                    votes_needed(t, n_trees),
                    votes_needed_scanned(t, n_trees),
                    "n_trees={n_trees} threshold={t}"
                );
            }
        }
        // Plus thresholds sitting exactly on (and one ulp around)
        // every representable vote fraction of a few tree counts —
        // where ceil-based rounding could plausibly miss by one.
        for n_trees in [1usize, 2, 3, 7, 32, 33, 100, 333] {
            for v in 0..=n_trees {
                let exact = v as f32 / n_trees as f32;
                for t in [
                    exact,
                    f32::from_bits(exact.to_bits().wrapping_sub(1)),
                    f32::from_bits(exact.to_bits().wrapping_add(1)),
                ] {
                    assert_eq!(
                        votes_needed(t, n_trees),
                        votes_needed_scanned(t, n_trees),
                        "n_trees={n_trees} threshold={t}"
                    );
                }
            }
        }
    }
    #[test]
    fn scan_is_bit_identical_on_adversarial_probes() {
        let forests: Vec<RandomForest> = (0..5).map(|i| forest(300 + i, 3)).collect();
        let sources: Vec<&RandomForest> = forests.iter().collect();
        let mut builder = CompiledBankBuilder::new();
        for f in &forests {
            builder.push(f, 0.35).unwrap();
        }
        let bank = builder.finish();
        let specials = [
            f32::NAN,
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut rng = SmallRng::seed_from_u64(61);
        for case in 0..300 {
            let sample: Vec<f32> = (0..3)
                .map(|d| {
                    if case % 2 == 0 && rng.gen::<f32>() < 0.4 {
                        specials[(case + d) % specials.len()]
                    } else {
                        rng.gen::<f32>() * 1.5 - 0.2
                    }
                })
                .collect();
            assert_scan_matches_interpreter(&bank, &sources, 0.35, &sample);
        }
        // Probes sitting exactly on stored thresholds, and one ulp to
        // either side.
        let edges: Vec<f32> = bank.nodes.iter().take(24).map(|n| n.threshold).collect();
        for t in edges {
            for probe in [
                t,
                f32::from_bits(t.to_bits().wrapping_sub(1)),
                f32::from_bits(t.to_bits().wrapping_add(1)),
            ] {
                assert_scan_matches_interpreter(&bank, &sources, 0.35, &[probe, probe, probe]);
            }
        }
    }

    #[test]
    fn forests_testing_high_dimensions_stay_identical() {
        // One informative feature at the far end of a wide sample —
        // every split lands there, so the packed u16 feature index is
        // exercised off the low end.
        let d = (1usize << 14) + 1;
        let mut rng = SmallRng::seed_from_u64(71);
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..40 {
            let mut row = vec![0f32; d];
            let x = rng.gen::<f32>();
            row[d - 1] = x;
            samples.push(row);
            labels.push(usize::from(x > 0.5));
        }
        let config = ForestConfig {
            n_trees: 3,
            tree: crate::tree::TreeConfig {
                feature_subsample: crate::tree::FeatureSubsample::All,
                ..crate::tree::TreeConfig::default()
            },
            ..ForestConfig::default()
        };
        let f = RandomForest::fit(&samples, &labels, 2, &config, 71).unwrap();
        let mut builder = CompiledBankBuilder::new();
        builder.push(&f, 0.5).unwrap();
        let bank = builder.finish();
        assert!(bank.node_count() > 0, "the forest must actually split");
        let mut probe = vec![0f32; d];
        for x in [0.2f32, 0.5, 0.7, f32::NAN] {
            probe[d - 1] = x;
            assert_scan_matches_interpreter(&bank, &[&f], 0.5, &probe);
        }
    }
}

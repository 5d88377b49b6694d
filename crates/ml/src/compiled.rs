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
//!
//! On top of the arena sit two scan accelerators (both bit-identical
//! to the sequential full scan on builder-made banks), chosen by
//! [`CompiledBank::for_each_accepting`] from the bank's own shape:
//!
//! * a **feature-usage prefilter** ([`crate::index::BankIndex`]): each
//!   forest records which feature stripes its branch nodes test plus
//!   its precomputed verdict on the all-default sample; a query whose
//!   nonzero stripes miss a forest's tested set is answered from the
//!   cached verdict without walking a tree.
//! * a **duplicate-content cluster index**
//!   ([`crate::index::ClusterIndex`]): bit-identical compiled forests
//!   share one group, and a scan walks one representative per group.

use crate::error::MlError;
use crate::forest::RandomForest;
use crate::index::{BankIndex, ClusterIndex, IndexRow, MAX_STRIPES};
use crate::tree::Node;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Tag bit marking a child reference as a leaf; bit 0 then carries the
/// tree's positive-class vote. References without the tag are indices
/// into the bank's node arena.
pub const LEAF_BIT: u32 = 1 << 31;

/// Bank size from which [`CompiledBank::for_each_accepting`] consults
/// the feature-usage prefilter. Computing the query bitmap is a fixed
/// ~O(sample) cost; below this many forests it is a measurable
/// fraction of the whole scan (≈8% at 27 types) while above it it
/// disappears (<2% at 64, ~0 at thousands).
pub const PREFILTER_MIN_FORESTS: usize = 64;

/// Bank size from which [`CompiledBank::for_each_accepting`] prefers
/// the clustered scan (when the bank's [`ClusterIndex`] is usable and
/// actually collapses forests — at least 2 members per group on
/// average). Below it the per-forest group lookup cannot beat the
/// plain prefiltered scan; use
/// [`CompiledBank::for_each_accepting_clustered`] to force clustering
/// at any size (parity tests, benchmarks).
pub const CLUSTER_MIN_FORESTS: usize = 256;

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

/// Cumulative scan-traffic counters a bank records as queries pass
/// through it: relaxed atomics bumped a constant number of times per
/// query (never per forest), so the counting cost is a few uncontended
/// cache-line RMWs — invisible next to the arena scan itself — and the
/// scan paths stay allocation-free and `&self`.
///
/// Read via [`CompiledBank::scan_counters`]; surfaced to operators
/// through the serve layer's Stats frame. Cloning a bank copies the
/// counter values at that instant (a clone is a faithful snapshot of
/// the bank, counters included).
#[derive(Debug, Default)]
pub struct ScanCounters {
    queries: AtomicU64,
    prefiltered: AtomicU64,
    forests_skipped: AtomicU64,
}

impl Clone for ScanCounters {
    fn clone(&self) -> Self {
        let snap = self.snapshot();
        ScanCounters {
            queries: AtomicU64::new(snap.queries),
            prefiltered: AtomicU64::new(snap.prefiltered),
            forests_skipped: AtomicU64::new(snap.forests_skipped),
        }
    }
}

impl ScanCounters {
    /// The counters' current values.
    pub fn snapshot(&self) -> ScanSnapshot {
        ScanSnapshot {
            queries: self.queries.load(Relaxed),
            prefiltered: self.prefiltered.load(Relaxed),
            forests_skipped: self.forests_skipped.load(Relaxed),
        }
    }
}

/// A point-in-time copy of a bank's [`ScanCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanSnapshot {
    /// Bank scans answered (one per fingerprint classified).
    pub queries: u64,
    /// Scans that consulted the feature-bitmap prefilter.
    pub prefiltered: u64,
    /// Forest evaluations answered from the prefilter's cached
    /// all-default verdict without walking the arena.
    pub forests_skipped: u64,
}

/// A bank of binary forests compiled into one flat arena.
///
/// Construction goes through [`CompiledBankBuilder`]; evaluation is
/// allocation-free and panic-free. Forests keep the order they were
/// pushed in, so candidate sets produced by
/// [`CompiledBank::for_each_accepting`] are ordered exactly like a
/// sequential scan over the source forests — the prefilter and the
/// cluster index only decide *which* forests need an arena walk, never
/// the order or the verdicts.
#[derive(Debug, Clone, Default)]
pub struct CompiledBank {
    nodes: Vec<PackedNode>,
    roots: Vec<u32>,
    forests: Vec<ForestSpan>,
    index: BankIndex,
    counters: ScanCounters,
    /// Per-forest `(start, end)` bounds of the forest's region in
    /// `nodes`. Builder-made banks always carry one entry per forest;
    /// raw-parts banks carry none (and consequently cannot be
    /// clustered).
    regions: Vec<(u32, u32)>,
    /// Duplicate-content cluster groups (empty = no clustering).
    clusters: ClusterIndex,
}

impl CompiledBank {
    /// Assembles a bank from raw arena parts **without validation**.
    ///
    /// Evaluation tolerates arbitrary garbage here (out-of-range
    /// references, cycles, spans past the tables) by voting negative,
    /// so this is safe to call — it just may not *mean* anything.
    /// Intended for robustness tests and external arena tooling;
    /// everything else should use [`CompiledBankBuilder`]. Raw banks
    /// carry no feature-usage index: every query is a full scan.
    pub fn from_raw_parts(
        nodes: Vec<PackedNode>,
        roots: Vec<u32>,
        forests: Vec<ForestSpan>,
    ) -> Self {
        CompiledBank {
            nodes,
            roots,
            forests,
            index: BankIndex::disabled(),
            ..CompiledBank::default()
        }
    }

    /// [`CompiledBank::from_raw_parts`] with an externally supplied
    /// feature-usage index, garbage welcome.
    ///
    /// The index is advisory: it is consulted only when
    /// [`BankIndex::is_usable`] holds for the forest count (otherwise
    /// every query falls back to the full scan), and a hostile row can
    /// only ever reroute its forest to the row's recorded default
    /// verdict — never cause a panic, an out-of-bounds access or
    /// unbounded work. Robustness-test entry point.
    pub fn from_raw_parts_indexed(
        nodes: Vec<PackedNode>,
        roots: Vec<u32>,
        forests: Vec<ForestSpan>,
        index: BankIndex,
    ) -> Self {
        CompiledBank {
            nodes,
            roots,
            forests,
            index,
            ..CompiledBank::default()
        }
    }

    /// The bank's feature-usage index. Usable (consulted by queries)
    /// only when [`BankIndex::is_usable`] holds for
    /// [`CompiledBank::forest_count`]; builder-made banks always
    /// satisfy that.
    pub fn index(&self) -> &BankIndex {
        &self.index
    }

    /// Whether queries on this bank actually use the prefilter.
    pub fn is_indexed(&self) -> bool {
        self.index.is_usable(self.forests.len())
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

    /// The packed branch-node arena, in region order. Exposed so
    /// parity harnesses can harvest real split thresholds and probe
    /// one ulp either side of them.
    pub fn nodes(&self) -> &[PackedNode] {
        &self.nodes
    }

    /// Approximate arena footprint in bytes (nodes + roots + spans +
    /// index rows + cluster group ids).
    pub fn arena_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<PackedNode>()
            + self.roots.len() * std::mem::size_of::<u32>()
            + self.forests.len() * std::mem::size_of::<ForestSpan>()
            + std::mem::size_of_val(self.index.rows())
            + std::mem::size_of_val(self.clusters.group_of())
    }

    /// The per-forest metadata, in push order.
    pub fn spans(&self) -> &[ForestSpan] {
        &self.forests
    }

    /// The duplicate-content cluster index.
    pub fn clusters(&self) -> &ClusterIndex {
        &self.clusters
    }

    /// Cumulative scan-traffic counters: how many queries this bank
    /// has answered, how many consulted the prefilter, and how many
    /// arena walks the prefilter skipped. Lock-free to read; the scan
    /// paths bump them with a constant number of relaxed atomics per
    /// query.
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
    /// order. Allocation-free on warm calls.
    ///
    /// Routing, coarsest first — every tier is bit-identical to the
    /// sequential full scan:
    ///
    /// 1. From [`CLUSTER_MIN_FORESTS`] forests up, with a usable
    ///    [`ClusterIndex`] that actually collapses forests (≥2 members
    ///    per group on average), the **clustered** scan walks one
    ///    representative per duplicate-content group and broadcasts
    ///    its verdict to the members.
    /// 2. From [`PREFILTER_MIN_FORESTS`] forests up (with a usable
    ///    feature-usage index), the query's nonzero-stripe bitmap is
    ///    computed once and every forest whose tested-stripe set does
    ///    not intersect it is answered from its cached all-default
    ///    verdict without walking the arena — bit-identical because
    ///    all tested dimensions read the default `0.0`.
    /// 3. Below that, the plain full scan — the bitmap's fixed cost
    ///    cannot pay for itself against a scan this short.
    ///
    /// [`CompiledBank::for_each_accepting_full`] forces tier 3 at any
    /// size (the parity reference).
    pub fn for_each_accepting(&self, sample: &[f32], f: impl FnMut(usize)) {
        if self.cluster_auto() {
            self.for_each_accepting_clustered(sample, f);
        } else if self.forests.len() >= PREFILTER_MIN_FORESTS {
            self.for_each_accepting_indexed(sample, f);
        } else {
            self.for_each_accepting_full(sample, f);
        }
    }

    /// Whether the auto-routed scan takes the clustered tier.
    #[inline]
    fn cluster_auto(&self) -> bool {
        let n = self.forests.len();
        n >= CLUSTER_MIN_FORESTS
            && self.clusters.is_usable(n)
            && self.clusters.group_count() * 2 <= n
    }

    /// [`CompiledBank::for_each_accepting`] with the prefilter forced
    /// on regardless of bank size (it still requires a usable index —
    /// raw-parts banks without one scan fully). The surface the parity
    /// suites and A/B benches drive, so prefilter semantics are
    /// exercised on banks of every size, not only past the hot path's
    /// size threshold.
    #[doc(hidden)]
    pub fn for_each_accepting_indexed(&self, sample: &[f32], mut f: impl FnMut(usize)) {
        match self.usable_bitmap(sample) {
            Some(bitmap) => {
                self.counters.queries.fetch_add(1, Relaxed);
                self.counters.prefiltered.fetch_add(1, Relaxed);
                let mut skipped = 0u64;
                for (index, span) in self.forests.iter().enumerate() {
                    if self.prefiltered_verdict(index, span, sample, bitmap, &mut skipped) {
                        f(index);
                    }
                }
                if skipped > 0 {
                    self.counters.forests_skipped.fetch_add(skipped, Relaxed);
                }
            }
            None => self.for_each_accepting_full(sample, f),
        }
    }

    /// The unindexed full scan: every forest is walked, no prefilter
    /// or cluster index consulted. The reference everything else is
    /// compared against (parity suites, A/B benchmarks) and the
    /// fallback for banks without a usable index.
    pub fn for_each_accepting_full(&self, sample: &[f32], mut f: impl FnMut(usize)) {
        self.counters.queries.fetch_add(1, Relaxed);
        for (index, span) in self.forests.iter().enumerate() {
            if self.span_accepts(span, sample) {
                f(index);
            }
        }
    }

    /// The coarse-to-fine clustered scan: evaluates one representative
    /// per duplicate-content group (through the prefilter), memoizes
    /// the verdict, and answers every member
    /// from the memo — bit-identical to the full scan because group
    /// members are bit-identical compiled forests (the builder
    /// exact-compares before grouping), so the representative's walk
    /// *is* the member's walk.
    ///
    /// Falls back to [`CompiledBank::for_each_accepting_indexed`] when
    /// the bank has no usable cluster index (raw-parts banks). The
    /// group memo is an epoch-stamped thread-local scratch: warm calls
    /// allocate nothing.
    #[doc(hidden)]
    pub fn for_each_accepting_clustered(&self, sample: &[f32], mut f: impl FnMut(usize)) {
        if !self.clusters.is_usable(self.forests.len()) {
            self.for_each_accepting_indexed(sample, f);
            return;
        }
        CLUSTER_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            self.counters.queries.fetch_add(1, Relaxed);
            let bitmap = self.usable_bitmap(sample);
            if bitmap.is_some() {
                self.counters.prefiltered.fetch_add(1, Relaxed);
            }
            let mut skipped = 0u64;
            memo.begin(self.clusters.group_count());
            for (index, span) in self.forests.iter().enumerate() {
                if self.clustered_verdict(&mut memo, index, span, sample, bitmap, &mut skipped) {
                    f(index);
                }
            }
            if skipped > 0 {
                self.counters.forests_skipped.fetch_add(skipped, Relaxed);
            }
        });
    }

    /// One forest's verdict under the cluster memo: resolve its group,
    /// answer from the memoized representative verdict when one is
    /// cached, evaluate (and memoize) the representative otherwise.
    /// Any lookup that fails — out-of-range group id, representative
    /// past the span table — degrades to evaluating the member
    /// directly, which is always sound.
    #[inline]
    fn clustered_verdict(
        &self,
        memo: &mut ClusterMemo,
        index: usize,
        span: &ForestSpan,
        sample: &[f32],
        bitmap: Option<u32>,
        skipped: &mut u64,
    ) -> bool {
        let group = match self.clusters.group_of().get(index) {
            Some(g) => *g,
            None => return self.routed_verdict(index, span, sample, bitmap, skipped),
        };
        if let Some(verdict) = memo.get(group) {
            *skipped += 1;
            return verdict;
        }
        let verdict = match self.clusters.group(group) {
            Some(g) => {
                let rep = g.rep as usize;
                match self.forests.get(rep) {
                    Some(rep_span) => self.routed_verdict(rep, rep_span, sample, bitmap, skipped),
                    None => return self.routed_verdict(index, span, sample, bitmap, skipped),
                }
            }
            None => return self.routed_verdict(index, span, sample, bitmap, skipped),
        };
        memo.set(group, verdict);
        verdict
    }

    /// Prefiltered when a bitmap is available, a plain arena walk
    /// otherwise.
    #[inline]
    fn routed_verdict(
        &self,
        index: usize,
        span: &ForestSpan,
        sample: &[f32],
        bitmap: Option<u32>,
        skipped: &mut u64,
    ) -> bool {
        match bitmap {
            Some(bm) => self.prefiltered_verdict(index, span, sample, bm, skipped),
            None => self.span_accepts(span, sample),
        }
    }

    /// The query's nonzero-stripe bitmap, or `None` when the index is
    /// not usable for this bank and queries must scan fully.
    fn usable_bitmap(&self, sample: &[f32]) -> Option<u32> {
        if self.index.is_usable(self.forests.len()) {
            Some(self.index.sample_bitmap(sample))
        } else {
            None
        }
    }

    /// One forest's verdict under the prefilter: a forest whose tested
    /// stripes miss the query's nonzero stripes reads the default
    /// value at every tested dimension, so its cached all-default
    /// verdict IS its verdict — no walk needed. The dimension check
    /// runs first so a wrong-length sample stays `false` exactly like
    /// [`CompiledBank::span_accepts`]. Missing rows (impossible when
    /// the usability check passed, but kept panic-free) fall back to
    /// the full evaluation. `skipped` accumulates arena walks the
    /// prefilter avoided — a thread-local tally the callers flush to
    /// [`ScanCounters`] once per scan, keeping atomics off the
    /// per-forest path.
    #[inline]
    fn prefiltered_verdict(
        &self,
        index: usize,
        span: &ForestSpan,
        sample: &[f32],
        bitmap: u32,
        skipped: &mut u64,
    ) -> bool {
        if sample.len() == span.n_features as usize {
            if let Some(row) = self.index.rows().get(index) {
                if row.tested & bitmap == 0 {
                    *skipped += 1;
                    return row.default_accepts;
                }
            }
        }
        self.span_accepts(span, sample)
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

    /// Tiles the bank `times` times: the result holds `times ×
    /// forest_count` forests, each copy with its own arena region (so
    /// the memory footprint scales like a genuinely larger bank —
    /// what the type-count scaling benchmarks need). The feature-usage
    /// index tiles with it: every copy keeps its source forest's row.
    ///
    /// # Panics
    ///
    /// Panics when the tiled arena would overflow the tagged 31-bit
    /// reference space or the `u32` root table — before this check,
    /// large tilings silently wrapped node references *into earlier
    /// copies' regions* (an off-by-bank corruption that surfaced at
    /// replicated type counts past `u16::MAX`). Use
    /// [`CompiledBank::try_repeat`] to get the typed error instead.
    pub fn repeat(&self, times: usize) -> CompiledBank {
        self.try_repeat(times)
            .expect("tiled bank exceeds the 31-bit arena reference space")
    }

    /// [`CompiledBank::repeat`] with overflow reported as a typed
    /// error instead of a panic.
    ///
    /// # Errors
    ///
    /// [`MlError::BadConfig`] when `times × node_count` would reach
    /// the tagged 31-bit reference space (node references would wrap
    /// into earlier copies) or `times × root_count` would overflow the
    /// `u32` root offsets. Checked **before** any allocation.
    pub fn try_repeat(&self, times: usize) -> Result<CompiledBank, MlError> {
        let nodes_total = self
            .nodes
            .len()
            .checked_mul(times)
            .filter(|total| *total < LEAF_BIT as usize)
            .ok_or_else(|| {
                MlError::BadConfig(format!(
                    "tiling {} nodes x {times} copies exceeds the 31-bit arena \
                     reference space",
                    self.nodes.len()
                ))
            })?;
        let roots_total = self
            .roots
            .len()
            .checked_mul(times)
            .filter(|total| *total <= u32::MAX as usize)
            .ok_or_else(|| {
                MlError::BadConfig(format!(
                    "tiling {} roots x {times} copies overflows the u32 root table",
                    self.roots.len()
                ))
            })?;
        // The cluster index always tiles: every copy is bit-identical
        // to its source (whole regions are rebased), so copies join
        // their source's group.
        let mut out = CompiledBank {
            nodes: Vec::with_capacity(nodes_total),
            roots: Vec::with_capacity(roots_total),
            forests: Vec::with_capacity(self.forests.len() * times),
            index: self.index.repeat(times),
            counters: ScanCounters::default(),
            regions: Vec::with_capacity(self.regions.len() * times),
            clusters: self.clusters.repeat(times),
        };
        let tiling_offset = |count: usize, what: &str| -> Result<u32, MlError> {
            u32::try_from(count).map_err(|_| {
                MlError::BadConfig(format!("tiled {what} offset {count} overflows u32"))
            })
        };
        for copy in 0..times {
            let node_offset = tiling_offset(copy * self.nodes.len(), "node")?;
            let root_offset = tiling_offset(copy * self.roots.len(), "root")?;
            let shift = |reference: u32| {
                if reference & LEAF_BIT != 0 {
                    reference
                } else {
                    reference + node_offset
                }
            };
            out.nodes.extend(self.nodes.iter().map(|n| PackedNode {
                left: shift(n.left),
                right: shift(n.right),
                ..*n
            }));
            out.roots.extend(self.roots.iter().map(|r| shift(*r)));
            out.forests.extend(self.forests.iter().map(|s| ForestSpan {
                roots_start: s.roots_start + root_offset,
                ..*s
            }));
            out.regions.extend(
                self.regions
                    .iter()
                    .map(|(s, e)| (s + node_offset, e + node_offset)),
            );
        }
        Ok(out)
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

    /// FNV-1a content digest of forest `index`'s compiled form, with
    /// arena references rebased to the forest's region start — equal
    /// forests (same tree shapes, same threshold bit patterns, same
    /// accept votes) digest equally wherever their regions sit in the
    /// arena. Used only as a *candidate filter* for clustering; group
    /// membership is always confirmed by
    /// [`CompiledBank::forest_content_equal`].
    fn forest_digest(&self, index: usize) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let Some(span) = self.forests.get(index) else {
            return digest;
        };
        let Some((start, end)) = self.regions.get(index).copied() else {
            return digest;
        };
        digest = fnv_word(digest, span.n_trees);
        digest = fnv_word(digest, span.accept_votes);
        digest = fnv_word(digest, span.n_features);
        let roots = self
            .roots
            .get(span.roots_start as usize..)
            .and_then(|tail| tail.get(..span.n_trees as usize))
            .unwrap_or(&[]);
        for root in roots {
            digest = fnv_word(digest, rebase_to_region(*root, start));
        }
        let region = self
            .nodes
            .get(start as usize..end.max(start) as usize)
            .unwrap_or(&[]);
        digest = fnv_word(digest, region.len() as u32);
        for node in region {
            digest = fnv_word(digest, u32::from(node.feature));
            digest = fnv_word(digest, node.threshold.to_bits());
            digest = fnv_word(digest, rebase_to_region(node.left, start));
            digest = fnv_word(digest, rebase_to_region(node.right, start));
        }
        digest
    }

    /// Whether forests `a` and `b` are compiled to *exactly* the same
    /// content — identical spans (modulo table offsets), bit-identical
    /// thresholds, identical region-relative tree structure. Content
    /// equality implies decision identity for every sample, which is
    /// what makes evaluating one cluster representative for the whole
    /// group sound.
    fn forest_content_equal(&self, a: usize, b: usize) -> bool {
        if a == b {
            return true;
        }
        let (Some(span_a), Some(span_b)) = (self.forests.get(a), self.forests.get(b)) else {
            return false;
        };
        if span_a.n_trees != span_b.n_trees
            || span_a.accept_votes != span_b.accept_votes
            || span_a.n_features != span_b.n_features
        {
            return false;
        }
        let (Some(region_a), Some(region_b)) =
            (self.regions.get(a).copied(), self.regions.get(b).copied())
        else {
            return false;
        };
        let roots = |span: &ForestSpan| {
            self.roots
                .get(span.roots_start as usize..)
                .and_then(|tail| tail.get(..span.n_trees as usize))
        };
        let (Some(roots_a), Some(roots_b)) = (roots(span_a), roots(span_b)) else {
            return false;
        };
        for (x, y) in roots_a.iter().zip(roots_b) {
            if rebase_to_region(*x, region_a.0) != rebase_to_region(*y, region_b.0) {
                return false;
            }
        }
        let nodes =
            |(start, end): (u32, u32)| self.nodes.get(start as usize..end.max(start) as usize);
        let (Some(nodes_a), Some(nodes_b)) = (nodes(region_a), nodes(region_b)) else {
            return false;
        };
        if nodes_a.len() != nodes_b.len() {
            return false;
        }
        for (x, y) in nodes_a.iter().zip(nodes_b) {
            if x.feature != y.feature
                || x.threshold.to_bits() != y.threshold.to_bits()
                || rebase_to_region(x.left, region_a.0) != rebase_to_region(y.left, region_b.0)
                || rebase_to_region(x.right, region_a.0) != rebase_to_region(y.right, region_b.0)
            {
                return false;
            }
        }
        true
    }
}

/// One FNV-1a step folding a 32-bit word into `digest`.
#[inline]
fn fnv_word(digest: u64, word: u32) -> u64 {
    (digest ^ u64::from(word)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// An arena reference expressed relative to its region's start (leaf
/// references carry no position and pass through), so identical
/// forests compare equal regardless of where their regions landed.
#[inline]
fn rebase_to_region(reference: u32, start: u32) -> u32 {
    if reference & LEAF_BIT != 0 {
        reference
    } else {
        reference.wrapping_sub(start)
    }
}

/// Epoch-stamped per-group verdict memo for the clustered scan. Slots
/// never need clearing: a slot is valid only when its stored epoch
/// matches the current scan's, so `begin` is O(1) amortized (it only
/// grows the slot table when a bigger bank comes through). One lives
/// per thread.
#[derive(Debug, Clone, Default)]
struct ClusterMemo {
    epoch: u64,
    /// `epoch << 1 | verdict`; valid when `slot >> 1 == epoch`.
    slots: Vec<u64>,
}

impl ClusterMemo {
    /// Starts a new scan over `groups` cluster groups.
    fn begin(&mut self, groups: usize) {
        // Epochs start at 1 so the zero-filled slots are never valid.
        self.epoch += 1;
        if self.slots.len() < groups {
            self.slots.resize(groups, 0);
        }
    }

    #[inline]
    fn get(&self, group: u32) -> Option<bool> {
        let slot = *self.slots.get(group as usize)?;
        (slot >> 1 == self.epoch).then_some(slot & 1 == 1)
    }

    #[inline]
    fn set(&mut self, group: u32, verdict: bool) {
        if let Some(slot) = self.slots.get_mut(group as usize) {
            *slot = (self.epoch << 1) | u64::from(verdict);
        }
    }
}

thread_local! {
    /// The clustered scan's group memo. Thread-local (not per
    /// bank) so `for_each_accepting` stays `&self` and allocation-free
    /// on warm calls; the epoch stamp isolates scans from each other
    /// and from other banks sharing the thread.
    static CLUSTER_MEMO: RefCell<ClusterMemo> = RefCell::new(ClusterMemo::default());
}

/// Incrementally compiles binary forests into one [`CompiledBank`].
#[derive(Debug, Clone)]
pub struct CompiledBankBuilder {
    bank: CompiledBank,
    /// Content digest → candidate cluster group ids (a digest
    /// collision keeps multiple candidates; membership is decided by
    /// exact region comparison, never by the digest alone).
    digest_groups: HashMap<u64, Vec<u32>>,
    /// Whether pushed forests join the cluster index.
    cluster_enabled: bool,
}

impl Default for CompiledBankBuilder {
    fn default() -> Self {
        CompiledBankBuilder::new()
    }
}

impl CompiledBankBuilder {
    /// An empty builder indexing on [`MAX_STRIPES`] feature stripes
    /// (dimension `d` maps to index bit `d % 32`). Callers whose
    /// samples have a semantic column period — like Sentinel's
    /// 23-features-per-packet F′ layout — should pick it with
    /// [`CompiledBankBuilder::with_stripes`] for a sharper prefilter.
    pub fn new() -> Self {
        CompiledBankBuilder::with_stripes(MAX_STRIPES)
    }

    /// An empty builder folding feature dimensions into `stripes`
    /// index bits (`1..=32`; anything else disables indexing and the
    /// finished bank scans fully).
    pub fn with_stripes(stripes: u32) -> Self {
        CompiledBankBuilder {
            bank: CompiledBank {
                index: BankIndex::new(stripes),
                ..CompiledBank::default()
            },
            digest_groups: HashMap::new(),
            cluster_enabled: true,
        }
    }

    /// Resumes building on top of an existing bank: pushed forests
    /// **append** their node region, root entries, span, index row
    /// and cluster membership — nothing already compiled is touched or
    /// recompiled. This is the incremental-compilation path behind
    /// `add_device_type` at large bank sizes (re-running the whole
    /// builder would be O(bank) per added type). The builder's derived
    /// lookup state (digest → group candidates) is rebuilt here in
    /// O(groups), not O(bank).
    ///
    /// If the bank's index is not usable for its forest count (a
    /// raw-parts bank), indexing stays disabled for the appended bank
    /// too — a partial index would silently misroute queries. The same
    /// conservatism applies to clustering: it continues only on banks
    /// with intact region bookkeeping and a usable cluster index;
    /// anything else keeps that acceleration off while staying fully
    /// scannable.
    pub fn from_bank(mut bank: CompiledBank) -> Self {
        let n = bank.forests.len();
        if n != 0 && !bank.index.is_usable(n) {
            bank.index = BankIndex::disabled();
        }
        let cluster_enabled = bank.regions.len() == n && bank.clusters.is_usable(n);
        let mut digest_groups: HashMap<u64, Vec<u32>> = HashMap::new();
        if cluster_enabled {
            for (id, group) in bank.clusters.groups().iter().enumerate() {
                if let Ok(id) = u32::try_from(id) {
                    digest_groups.entry(group.digest).or_default().push(id);
                }
            }
        }
        CompiledBankBuilder {
            bank,
            digest_groups,
            cluster_enabled,
        }
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
        let nodes_start = self.bank.nodes.len();
        let nodes_end = nodes_start + branch_nodes;
        if nodes_end >= LEAF_BIT as usize {
            return Err(MlError::BadConfig(
                "compiled arena exceeds the 31-bit reference space".into(),
            ));
        }
        // All table offsets as *checked* conversions, computed before
        // any mutation (the arena-truncation bugfix: a bare `as u32`
        // here silently wraps once a table passes 2³² entries).
        let region = (
            u32::try_from(nodes_start).map_err(|_| arena_overflow("node region start"))?,
            u32::try_from(nodes_end).map_err(|_| arena_overflow("node region end"))?,
        );
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
        let span = ForestSpan {
            roots_start,
            n_trees,
            accept_votes: votes_needed(accept_threshold, forest.n_trees()),
            n_features,
        };
        self.bank.forests.push(span);
        self.bank.regions.push(region);
        let stripes = self.bank.index.stripes();
        if (1..=MAX_STRIPES).contains(&stripes) {
            // Index row: the stripes this forest's branch nodes test
            // (union over its freshly emitted node region — an
            // over-approximation of any single walk, which is exactly
            // what makes skipping sound), plus its verdict on the
            // all-default sample, evaluated once right here.
            let tested = self.bank.nodes[nodes_start..]
                .iter()
                .fold(0u32, |bits, node| {
                    bits | 1 << (u32::from(node.feature) % stripes)
                });
            let zeros = vec![0f32; span.n_features as usize];
            let default_accepts = self.bank.span_accepts(&span, &zeros);
            self.bank.index.push_row(IndexRow {
                tested,
                default_accepts,
            });
        }
        if self.cluster_enabled {
            self.cluster_push();
        }
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

    /// Joins the forest just pushed to its content-equal cluster group
    /// (or opens a new group with it as representative). Groups only
    /// ever hold *exactly identical* compiled forests — digest matches
    /// are confirmed by full region comparison, so a hash collision
    /// can split groups but never merge distinct forests.
    fn cluster_push(&mut self) {
        let index = self.bank.forests.len() - 1;
        let digest = self.bank.forest_digest(index);
        if let Some(candidates) = self.digest_groups.get(&digest) {
            for id in candidates {
                let Some(group) = self.bank.clusters.group(*id) else {
                    continue;
                };
                if self.bank.forest_content_equal(group.rep as usize, index) {
                    self.bank.clusters.join(*id);
                    return;
                }
            }
        }
        match u32::try_from(index)
            .ok()
            .and_then(|rep| self.bank.clusters.open(rep, digest))
        {
            Some(id) => self.digest_groups.entry(digest).or_default().push(id),
            // Group table full (or forest index past u32): the cluster
            // index is now short one membership entry, which makes it
            // unusable — stop maintaining it rather than misroute.
            None => self.cluster_enabled = false,
        }
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

    #[test]
    fn scan_counters_track_queries_and_skips() {
        let forests: Vec<RandomForest> = (0..4).map(|i| forest(90 + i, 3)).collect();
        let mut builder = CompiledBankBuilder::new();
        for f in &forests {
            builder.push(f, 0.5).unwrap();
        }
        let bank = builder.finish();
        assert_eq!(bank.scan_counters(), ScanSnapshot::default());

        let sample = [0.4f32, 0.6, 0.2];
        bank.for_each_accepting_full(&sample, |_| {});
        let after_full = bank.scan_counters();
        assert_eq!(after_full.queries, 1);
        assert_eq!(after_full.prefiltered, 0);

        bank.for_each_accepting_indexed(&sample, |_| {});
        let after_indexed = bank.scan_counters();
        assert_eq!(after_indexed.queries, 2);
        assert_eq!(after_indexed.prefiltered, 1);

        // The all-zero sample misses every tested stripe: the
        // prefilter answers all forests from cached verdicts.
        bank.for_each_accepting_indexed(&[0.0, 0.0, 0.0], |_| {});
        let after_zero = bank.scan_counters();
        assert_eq!(after_zero.queries, 3);
        assert_eq!(after_zero.prefiltered, 2);
        assert_eq!(
            after_zero.forests_skipped - after_indexed.forests_skipped,
            bank.forest_count() as u64
        );

        // Clones carry the values; fresh builds start at zero.
        let cloned = bank.clone();
        assert_eq!(cloned.scan_counters(), bank.scan_counters());
        assert_eq!(bank.repeat(2).scan_counters(), ScanSnapshot::default());
    }

    #[test]
    fn for_each_accepting_preserves_push_order() {
        let forests: Vec<RandomForest> = (0..5).map(|i| forest(60 + i, 2)).collect();
        let mut builder = CompiledBankBuilder::new();
        for f in &forests {
            builder.push(f, 0.5).unwrap();
        }
        let bank = builder.finish();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..50 {
            let sample: Vec<f32> = (0..2).map(|_| rng.gen::<f32>() * 1.5).collect();
            let mut compiled = Vec::new();
            bank.for_each_accepting_indexed(&sample, |i| compiled.push(i));
            let sequential: Vec<usize> = forests
                .iter()
                .enumerate()
                .filter(|(_, f)| f.positive_vote_fraction(&sample).unwrap() >= 0.5)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(compiled, sequential);
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
    }

    #[test]
    fn repeat_tiles_forests_and_arena() {
        let forests: Vec<RandomForest> = (0..3).map(|i| forest(80 + i, 2)).collect();
        let mut builder = CompiledBankBuilder::new();
        for f in &forests {
            builder.push(f, 0.5).unwrap();
        }
        let bank = builder.finish();
        let tiled = bank.repeat(4);
        assert_eq!(tiled.forest_count(), 12);
        assert_eq!(tiled.node_count(), 4 * bank.node_count());
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let sample: Vec<f32> = (0..2).map(|_| rng.gen::<f32>() * 1.5).collect();
            for copy in 0..4 {
                for i in 0..3 {
                    assert_eq!(
                        tiled.accepts(copy * 3 + i, &sample),
                        bank.accepts(i, &sample),
                        "copy {copy} forest {i}"
                    );
                }
            }
        }
        assert_eq!(bank.repeat(0).forest_count(), 0);
    }

    #[test]
    fn builder_banks_are_indexed_and_prefilter_is_bit_identical() {
        let forests: Vec<RandomForest> = (0..4).map(|i| forest(90 + i, 3)).collect();
        let mut builder = CompiledBankBuilder::with_stripes(3);
        for f in &forests {
            builder.push(f, 0.35).unwrap();
        }
        let bank = builder.finish();
        assert!(bank.is_indexed());
        assert_eq!(bank.index().rows().len(), 4);
        assert_eq!(bank.index().stripes(), 3);
        let mut rng = SmallRng::seed_from_u64(13);
        for case in 0..300 {
            // Mix dense and mostly-zero samples — the latter is where
            // the prefilter actually routes to cached verdicts.
            let sample: Vec<f32> = (0..3)
                .map(|_| {
                    if case % 3 == 0 || rng.gen::<f32>() < 0.6 {
                        0.0
                    } else {
                        rng.gen::<f32>() * 1.5
                    }
                })
                .collect();
            let mut indexed = Vec::new();
            bank.for_each_accepting_indexed(&sample, |i| indexed.push(i));
            let mut full = Vec::new();
            bank.for_each_accepting_full(&sample, |i| full.push(i));
            assert_eq!(indexed, full, "prefilter diverged on {sample:?}");
            let interpreted: Vec<usize> = forests
                .iter()
                .enumerate()
                .filter(|(_, f)| f.positive_vote_fraction(&sample).unwrap() >= 0.35)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(indexed, interpreted);
        }
        // The all-default sample is answered purely from cached
        // verdicts; it must still match the full scan bit for bit.
        let zeros = [0f32; 3];
        assert_eq!(bank.index().sample_bitmap(&zeros), 0);
        let mut indexed = Vec::new();
        bank.for_each_accepting_indexed(&zeros, |i| indexed.push(i));
        let mut full = Vec::new();
        bank.for_each_accepting_full(&zeros, |i| full.push(i));
        assert_eq!(indexed, full);
        let defaults: Vec<usize> = bank
            .index()
            .rows()
            .iter()
            .enumerate()
            .filter(|(_, row)| row.default_accepts)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            indexed, defaults,
            "cached verdicts are the zero-sample truth"
        );
    }

    #[test]
    fn from_bank_appends_identically_to_one_shot_compilation() {
        let forests: Vec<RandomForest> = (0..5).map(|i| forest(130 + i, 3)).collect();
        let mut oneshot = CompiledBankBuilder::with_stripes(3);
        for f in &forests {
            oneshot.push(f, 0.5).unwrap();
        }
        let oneshot = oneshot.finish();

        let mut first = CompiledBankBuilder::with_stripes(3);
        for f in &forests[..3] {
            first.push(f, 0.5).unwrap();
        }
        let mut resumed = CompiledBankBuilder::from_bank(first.finish());
        for f in &forests[3..] {
            resumed.push(f, 0.5).unwrap();
        }
        let resumed = resumed.finish();

        // The append path reproduces the one-shot arena exactly —
        // including the region table and the cluster index (from_bank
        // rebuilds its lookup state from the bank, so appended forests
        // cluster identically).
        assert_eq!(resumed.nodes, oneshot.nodes);
        assert_eq!(resumed.roots, oneshot.roots);
        assert_eq!(resumed.spans(), oneshot.spans());
        assert_eq!(resumed.index(), oneshot.index());
        assert_eq!(resumed.regions, oneshot.regions);
        assert_eq!(resumed.clusters().group_of(), oneshot.clusters().group_of());
        assert_eq!(
            resumed.clusters().group_count(),
            oneshot.clusters().group_count()
        );
    }

    #[test]
    fn from_bank_on_unindexed_banks_keeps_indexing_disabled() {
        let span = ForestSpan {
            roots_start: 0,
            n_trees: 1,
            accept_votes: 1,
            n_features: 3,
        };
        let raw = CompiledBank::from_raw_parts(vec![], vec![LEAF_BIT | 1], vec![span]);
        assert!(!raw.is_indexed());
        let mut builder = CompiledBankBuilder::from_bank(raw);
        builder.push(&forest(150, 3), 0.5).unwrap();
        let bank = builder.finish();
        // A partial index would misroute; it must stay disabled...
        assert!(!bank.is_indexed());
        // ...and queries fall back to the (correct) full scan.
        let sample = [0.4f32, 0.6, 0.1];
        let mut indexed = Vec::new();
        bank.for_each_accepting_indexed(&sample, |i| indexed.push(i));
        let mut full = Vec::new();
        bank.for_each_accepting_full(&sample, |i| full.push(i));
        assert_eq!(indexed, full);
    }

    #[test]
    fn try_repeat_reports_overflow_as_typed_errors() {
        let mut builder = CompiledBankBuilder::new();
        builder.push(&forest(42, 2), 0.5).unwrap();
        let bank = builder.finish();
        assert!(bank.node_count() > 0);
        // Node references would wrap into earlier copies — the
        // off-by-bank corruption this guard exists for.
        let times = LEAF_BIT as usize / bank.node_count() + 1;
        assert!(matches!(bank.try_repeat(times), Err(MlError::BadConfig(_))));
        // Root-table overflow on a nodeless (leaf-only) bank.
        let span = ForestSpan {
            roots_start: 0,
            n_trees: 2,
            accept_votes: 1,
            n_features: 1,
        };
        let leafy = CompiledBank::from_raw_parts(vec![], vec![LEAF_BIT | 1, LEAF_BIT], vec![span]);
        let times = u32::MAX as usize / 2 + 1;
        assert!(matches!(
            leafy.try_repeat(times),
            Err(MlError::BadConfig(_))
        ));
        // In-range tilings still work through the checked path.
        assert_eq!(bank.try_repeat(3).unwrap().forest_count(), 3);
    }

    #[test]
    fn repeat_tiles_the_index_with_the_arena() {
        let forests: Vec<RandomForest> = (0..3).map(|i| forest(160 + i, 2)).collect();
        let mut builder = CompiledBankBuilder::with_stripes(2);
        for f in &forests {
            builder.push(f, 0.5).unwrap();
        }
        let bank = builder.finish();
        let tiled = bank.repeat(5);
        assert!(tiled.is_indexed());
        assert_eq!(tiled.index().rows().len(), 15);
        for copy in 0..5 {
            assert_eq!(
                &tiled.index().rows()[copy * 3..copy * 3 + 3],
                bank.index().rows()
            );
        }
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..30 {
            let sample: Vec<f32> = (0..2).map(|_| rng.gen::<f32>() * 1.5).collect();
            let mut indexed = Vec::new();
            tiled.for_each_accepting_indexed(&sample, |i| indexed.push(i));
            let mut full = Vec::new();
            tiled.for_each_accepting_full(&sample, |i| full.push(i));
            assert_eq!(indexed, full);
        }
    }

    #[test]
    fn corrupt_index_rows_never_panic_and_only_reroute_to_recorded_defaults() {
        // A sound arena with hostile index rows: every query must
        // complete panic-free, and each forest's answer is either its
        // true scan verdict or the garbage row's recorded default —
        // nothing else (no OOB, no unbounded work, no invented votes).
        let forests: Vec<RandomForest> = (0..3).map(|i| forest(170 + i, 2)).collect();
        let mut builder = CompiledBankBuilder::with_stripes(2);
        for f in &forests {
            builder.push(f, 0.5).unwrap();
        }
        let sound = builder.finish();
        let mut rng = SmallRng::seed_from_u64(41);
        for _ in 0..40 {
            let garbage_rows: Vec<IndexRow> = (0..3)
                .map(|_| IndexRow {
                    tested: rng.gen::<u32>(),
                    default_accepts: rng.gen::<f32>() < 0.5,
                })
                .collect();
            let hostile = CompiledBank::from_raw_parts_indexed(
                sound.nodes.clone(),
                sound.roots.clone(),
                sound.forests.clone(),
                BankIndex::from_rows(2, garbage_rows.clone()),
            );
            assert!(hostile.is_indexed());
            for _ in 0..20 {
                let sample: Vec<f32> = (0..2)
                    .map(|_| {
                        if rng.gen::<f32>() < 0.5 {
                            0.0
                        } else {
                            rng.gen::<f32>() * 1.5
                        }
                    })
                    .collect();
                let mut verdicts = [false; 3];
                hostile.for_each_accepting_indexed(&sample, |i| verdicts[i] = true);
                for (i, row) in garbage_rows.iter().enumerate() {
                    let truth = sound.accepts(i, &sample);
                    assert!(
                        verdicts[i] == truth || verdicts[i] == row.default_accepts,
                        "forest {i} invented a verdict on {sample:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unusable_index_shapes_degrade_to_the_full_scan() {
        let forests: Vec<RandomForest> = (0..3).map(|i| forest(180 + i, 2)).collect();
        let mut builder = CompiledBankBuilder::with_stripes(2);
        for f in &forests {
            builder.push(f, 0.5).unwrap();
        }
        let sound = builder.finish();
        let junk_row = IndexRow {
            tested: 0,
            default_accepts: true,
        };
        // Row-count mismatches and out-of-range stripe counts must be
        // ignored entirely — exact full-scan behavior, junk defaults
        // never consulted.
        let shapes = [
            BankIndex::from_rows(2, vec![junk_row; 1]),
            BankIndex::from_rows(2, vec![junk_row; 7]),
            BankIndex::from_rows(0, vec![junk_row; 3]),
            BankIndex::from_rows(MAX_STRIPES + 9, vec![junk_row; 3]),
        ];
        let mut rng = SmallRng::seed_from_u64(43);
        for index in shapes {
            let hostile = CompiledBank::from_raw_parts_indexed(
                sound.nodes.clone(),
                sound.roots.clone(),
                sound.forests.clone(),
                index,
            );
            assert!(!hostile.is_indexed());
            for _ in 0..20 {
                let sample: Vec<f32> = (0..2).map(|_| rng.gen::<f32>() * 1.5).collect();
                let mut got = Vec::new();
                hostile.for_each_accepting_indexed(&sample, |i| got.push(i));
                let mut want = Vec::new();
                sound.for_each_accepting_full(&sample, |i| want.push(i));
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn corrupt_arenas_with_corrupt_indexes_stay_panic_free() {
        // Garbage everywhere at once: cyclic nodes, wild spans, wild
        // index rows. Evaluation must terminate under the step budget
        // with only scan-or-default verdicts, through every entry
        // point.
        let cyclic = PackedNode {
            feature: 9,
            threshold: 0.5,
            left: 0,
            right: 0,
        };
        let spans = vec![
            ForestSpan {
                roots_start: 0,
                n_trees: 1,
                accept_votes: 1,
                n_features: 2,
            },
            ForestSpan {
                roots_start: u32::MAX,
                n_trees: u32::MAX,
                accept_votes: 1,
                n_features: 2,
            },
            ForestSpan {
                roots_start: 0,
                n_trees: 1,
                accept_votes: 0,
                n_features: 2,
            },
        ];
        let rows = vec![
            IndexRow {
                tested: 0,
                default_accepts: true,
            },
            IndexRow {
                tested: u32::MAX,
                default_accepts: true,
            },
            IndexRow {
                tested: 0b10,
                default_accepts: false,
            },
        ];
        let bank = CompiledBank::from_raw_parts_indexed(
            vec![cyclic],
            vec![0],
            spans,
            BankIndex::from_rows(2, rows.clone()),
        );
        assert!(bank.is_indexed());
        for sample in [[0.5f32, 0.5], [0.0, 0.0], [f32::NAN, 1.0]] {
            let mut serial = Vec::new();
            bank.for_each_accepting_indexed(&sample, |i| serial.push(i));
            // No cluster index on a raw bank: the clustered entry point
            // must degrade to the same prefiltered scan.
            let mut clustered = Vec::new();
            bank.for_each_accepting_clustered(&sample, |i| clustered.push(i));
            assert_eq!(serial, clustered);
            bank.for_each_accepting(&sample, |_| {});
            for (i, row) in rows.iter().enumerate() {
                let scan = bank.accepts(i, &sample);
                let got = serial.contains(&i);
                assert!(
                    got == scan || got == row.default_accepts,
                    "corrupt forest {i} invented a verdict on {sample:?}"
                );
            }
        }
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
        assert!(bank.arena_bytes() >= branch_nodes * std::mem::size_of::<PackedNode>());
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
    fn every_route_is_bit_identical_on_adversarial_probes() {
        let forests: Vec<RandomForest> = (0..5).map(|i| forest(300 + i, 3)).collect();
        let mut builder = CompiledBankBuilder::with_stripes(3);
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
        let check = |sample: &[f32]| {
            let mut full = Vec::new();
            bank.for_each_accepting_full(sample, |i| full.push(i));
            let mut indexed = Vec::new();
            bank.for_each_accepting_indexed(sample, |i| indexed.push(i));
            assert_eq!(indexed, full, "prefiltered scan diverged on {sample:?}");
            let mut clustered = Vec::new();
            bank.for_each_accepting_clustered(sample, |i| clustered.push(i));
            assert_eq!(clustered, full, "clustered scan diverged on {sample:?}");
            for (i, f) in forests.iter().enumerate() {
                assert_eq!(
                    full.contains(&i),
                    f.positive_vote_fraction(sample).unwrap() >= 0.35,
                    "forest {i} diverged from the interpreter on {sample:?}"
                );
            }
        };
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
            check(&sample);
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
                check(&[probe, probe, probe]);
            }
        }
    }

    #[test]
    fn forests_testing_high_dimensions_stay_identical() {
        // One informative feature far past the stripe count — every
        // split lands there, so the prefilter's stripe fold and the
        // packed u16 feature index are both exercised off the low end.
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
            let mut full = Vec::new();
            bank.for_each_accepting_full(&probe, |i| full.push(i));
            let mut indexed = Vec::new();
            bank.for_each_accepting_indexed(&probe, |i| indexed.push(i));
            assert_eq!(indexed, full, "prefiltered scan diverged at x={x}");
            let mut clustered = Vec::new();
            bank.for_each_accepting_clustered(&probe, |i| clustered.push(i));
            assert_eq!(clustered, full, "clustered scan diverged at x={x}");
            assert_eq!(
                full.contains(&0),
                f.positive_vote_fraction(&probe).unwrap() >= 0.5
            );
        }
    }

    #[test]
    fn clustered_scan_is_bit_identical_and_skips_duplicate_groups() {
        let forests: Vec<RandomForest> = (0..4).map(|i| forest(320 + i, 3)).collect();
        let mut builder = CompiledBankBuilder::with_stripes(3);
        let copies = CLUSTER_MIN_FORESTS / forests.len() + 1;
        for _ in 0..copies {
            for f in &forests {
                builder.push(f, 0.35).unwrap();
            }
        }
        let bank = builder.finish();
        let n = bank.forest_count();
        assert!(n >= CLUSTER_MIN_FORESTS);
        // Identical pushes were exact-matched into one group per
        // distinct forest.
        assert_eq!(bank.clusters().group_count(), forests.len());
        assert!(bank.clusters().is_usable(n));
        let skipped_before = bank.scan_counters().forests_skipped;
        let mut rng = SmallRng::seed_from_u64(67);
        for case in 0..40 {
            let sample: Vec<f32> = (0..3)
                .map(|_| {
                    if case % 3 == 0 {
                        0.0
                    } else {
                        rng.gen::<f32>() * 1.5
                    }
                })
                .collect();
            let mut full = Vec::new();
            bank.for_each_accepting_full(&sample, |i| full.push(i));
            let mut clustered = Vec::new();
            bank.for_each_accepting_clustered(&sample, |i| clustered.push(i));
            assert_eq!(clustered, full, "clustered diverged on {sample:?}");
            // The auto router picks the clustered tier at this size.
            let mut auto = Vec::new();
            bank.for_each_accepting(&sample, |i| auto.push(i));
            assert_eq!(auto, full, "auto route diverged on {sample:?}");
        }
        // Group members beyond each representative were answered from
        // the memo — at least (n - groups) skips per clustered pass.
        let skipped = bank.scan_counters().forests_skipped - skipped_before;
        assert!(
            skipped >= 40 * (n - forests.len()) as u64,
            "memo skips unexpectedly low: {skipped}"
        );
    }

    #[test]
    fn repeat_tiles_clusters_identically() {
        let forests: Vec<RandomForest> = (0..3).map(|i| forest(340 + i, 2)).collect();
        let mut builder = CompiledBankBuilder::with_stripes(2);
        for f in &forests {
            builder.push(f, 0.5).unwrap();
        }
        let bank = builder.finish();
        let times = CLUSTER_MIN_FORESTS / forests.len() + 1;
        let tiled = bank.repeat(times);
        assert!(tiled.forest_count() >= CLUSTER_MIN_FORESTS);
        assert_eq!(tiled.clusters().group_count(), forests.len());
        let mut rng = SmallRng::seed_from_u64(83);
        for _ in 0..30 {
            let sample: Vec<f32> = (0..2).map(|_| rng.gen::<f32>() * 1.5).collect();
            let mut full = Vec::new();
            tiled.for_each_accepting_full(&sample, |i| full.push(i));
            let mut auto = Vec::new();
            tiled.for_each_accepting(&sample, |i| auto.push(i));
            assert_eq!(auto, full);
            let mut indexed = Vec::new();
            tiled.for_each_accepting_indexed(&sample, |i| indexed.push(i));
            assert_eq!(indexed, full);
            for copy in 0..times {
                for (i, _) in forests.iter().enumerate() {
                    assert_eq!(
                        full.contains(&(copy * forests.len() + i)),
                        bank.accepts(i, &sample),
                        "copy {copy} forest {i}"
                    );
                }
            }
        }
    }

    /// Pins the auto-router: each tier of
    /// [`CompiledBank::for_each_accepting`] leaves its own trace in the
    /// scan counters, so a route that silently stops being taken fails
    /// here.
    #[test]
    fn auto_router_picks_full_prefiltered_and_clustered_by_bank_shape() {
        let dense = [0.4f32, 0.6, 0.2];
        let bank_of = |seeds: std::ops::Range<u64>| {
            let mut builder = CompiledBankBuilder::with_stripes(3);
            for seed in seeds {
                builder.push(&forest(seed, 3), 0.35).unwrap();
            }
            builder.finish()
        };
        let scan = |bank: &CompiledBank| {
            let before = bank.scan_counters();
            let mut auto = Vec::new();
            bank.for_each_accepting(&dense, |i| auto.push(i));
            let after = bank.scan_counters();
            assert_eq!(after.queries, before.queries + 1);
            let mut full = Vec::new();
            bank.for_each_accepting_full(&dense, |i| full.push(i));
            assert_eq!(auto, full);
            (
                after.prefiltered - before.prefiltered,
                after.forests_skipped - before.forests_skipped,
            )
        };
        // The paper's 27 types: plain full scan, prefilter untouched.
        let small = bank_of(400..427);
        assert_eq!(small.forest_count(), 27);
        assert_eq!(scan(&small), (0, 0));
        // 64 distinct forests: prefiltered, nothing to cluster.
        let distinct = bank_of(400..400 + PREFILTER_MIN_FORESTS as u64);
        assert_eq!(distinct.clusters().group_count(), distinct.forest_count());
        assert_eq!(scan(&distinct).0, 1);
        // A tiled bank past the cluster threshold: one walk per group,
        // every other member answered from the memo.
        let tiled = bank_of(400..404).repeat(CLUSTER_MIN_FORESTS / 4);
        let (n, groups) = (tiled.forest_count(), tiled.clusters().group_count());
        assert!(n >= CLUSTER_MIN_FORESTS && groups == 4);
        let (prefiltered, skipped) = scan(&tiled);
        assert_eq!(prefiltered, 1);
        assert!(skipped >= (n - groups) as u64, "memo skips: {skipped}");
    }
}

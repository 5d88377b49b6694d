//! The two-stage device-type identifier (paper §IV-B).

use std::cell::RefCell;
use std::collections::BTreeMap;

use sentinel_editdist::{dissimilarity_over, DistanceVariant, OsaScratch};
use sentinel_fingerprint::{Dataset, Fingerprint, FixedFingerprint, FixedScratch};
use sentinel_ml::{CompiledBank, CompiledBankBuilder, ScanSnapshot};

use crate::classifier::TypeClassifier;
use crate::encoded::EncodedReferences;
use crate::error::CoreError;
use crate::registry::{TypeId, TypeRegistry};
use crate::trainer::{fnv1a, negative_indices, reference_indices, IdentifierConfig};

/// The outcome of identifying one fingerprint.
///
/// Carries interned [`TypeId`]s only — resolve them to names through
/// the identifier's [`TypeRegistry`] (borrowed, never cloned). The
/// single-candidate (and unknown) outcomes own no heap data at all, so
/// the warm query path hands them out allocation-free; `scores` only
/// materialises when discrimination actually ran.
#[derive(Debug, Clone, PartialEq)]
pub enum Identification {
    /// Exactly one prediction was produced.
    Known {
        /// The predicted device type.
        device_type: TypeId,
        /// How many classifiers accepted the fingerprint (≥ 1; more
        /// than one means discrimination ran).
        accepted: usize,
        /// Dissimilarity scores per accepting candidate, best first,
        /// when discrimination ran (empty on a single classifier
        /// match).
        scores: Vec<(TypeId, f64)>,
    },
    /// Every classifier rejected the fingerprint: a new device type
    /// has been discovered (§IV-B-1).
    Unknown,
}

impl Identification {
    /// The predicted type, or `None` for an unknown device.
    pub fn device_type(&self) -> Option<TypeId> {
        match self {
            Identification::Known { device_type, .. } => Some(*device_type),
            Identification::Unknown => None,
        }
    }

    /// How many classifiers accepted the fingerprint (0 for an
    /// unknown device).
    pub fn accepted_candidates(&self) -> usize {
        match self {
            Identification::Known { accepted, .. } => *accepted,
            Identification::Unknown => 0,
        }
    }

    /// Whether the edit-distance discrimination stage was needed
    /// (more than one classifier accepted).
    pub fn needed_discrimination(&self) -> bool {
        self.accepted_candidates() > 1
    }

    /// Number of edit-distance computations performed for this
    /// identification (candidates × references when discrimination
    /// ran).
    pub fn distance_computations(&self, references_per_type: usize) -> usize {
        if self.needed_discrimination() {
            self.accepted_candidates() * references_per_type
        } else {
            0
        }
    }
}

/// Reusable per-thread workspace for the identification hot path: the
/// F′ conversion buffers, the accepted-candidate list, the encoded
/// query with its edit-distance kernel scratch and the discrimination
/// score list all live here, so a warm identification allocates
/// nothing but the score vector a multi-candidate
/// [`DeviceTypeIdentifier::identify_with`] returns.
#[derive(Debug, Clone, Default)]
pub struct CandidateScratch {
    fixed: FixedScratch,
    candidates: Vec<TypeId>,
    /// The query's packet word over the identifier's alphabet.
    query_symbols: Vec<u32>,
    osa: OsaScratch,
    scores: Vec<(TypeId, f64)>,
}

thread_local! {
    /// The scratch behind the entry points that take none.
    static QUERY_SCRATCH: RefCell<CandidateScratch> = RefCell::new(CandidateScratch::new());
}

impl CandidateScratch {
    /// An empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        CandidateScratch::default()
    }

    /// The candidate ids produced by the most recent
    /// [`DeviceTypeIdentifier::classify_candidates_into`] /
    /// [`DeviceTypeIdentifier::identify_with`] call, in classifier
    /// (id) order.
    pub fn candidates(&self) -> &[TypeId] {
        &self.candidates
    }

    /// The per-candidate dissimilarity scores of the most recent
    /// [`DeviceTypeIdentifier::identify_with`] call (best first;
    /// empty if that query did not need discrimination).
    pub fn scores(&self) -> &[(TypeId, f64)] {
        &self.scores
    }
}

/// Shape statistics of a compiled classifier bank (see
/// [`DeviceTypeIdentifier::bank_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankStats {
    /// Compiled forests (= known device types).
    pub forests: usize,
    /// Packed branch nodes across all forests.
    pub nodes: usize,
    /// Approximate arena footprint (nodes + roots + spans).
    pub arena_bytes: usize,
    /// Always equal to `forests`: no forests are grouped. Constant;
    /// read by `benchmark/`, remove with the next `benchmark` change.
    pub cluster_groups: usize,
    /// Cumulative scan-traffic counters (queries answered) at the
    /// instant the stats were taken.
    pub scan: ScanSnapshot,
}

/// Per-type model state: the classifier plus reference fingerprints
/// for discrimination.
#[derive(Debug, Clone)]
struct TypeModel {
    classifier: TypeClassifier,
    references: Vec<Fingerprint>,
}

/// The trained IoT Sentinel identifier: one binary classifier per
/// known device type plus reference fingerprints for edit-distance
/// discrimination.
///
/// Device-type labels are interned once into [`TypeId`]s through the
/// identifier's [`TypeRegistry`]; every internal map is keyed by id
/// and every identification result carries ids, so the query path
/// performs no string allocation.
///
/// Built via [`crate::Trainer`]; extended incrementally with
/// [`DeviceTypeIdentifier::add_device_type`] — "every time the
/// fingerprint of a new device-type is captured, a new classifier is
/// trained without making any modification to the existing
/// classifiers".
#[derive(Debug, Clone)]
pub struct DeviceTypeIdentifier {
    config: IdentifierConfig,
    registry: TypeRegistry,
    models: BTreeMap<TypeId, TypeModel>,
    /// Pool of training samples: (type, full F, fixed F′).
    pool: Vec<(TypeId, Fingerprint, FixedFingerprint)>,
    /// The whole classifier bank compiled into one flat arena (always
    /// in sync with `models`); `compiled_ids[i]` is the [`TypeId`] of
    /// the bank's forest `i`.
    compiled: CompiledBank,
    compiled_ids: Vec<TypeId>,
    /// Stage two's packet-word alphabet and pre-encoded references,
    /// derived from `models` at the same sync points as `compiled` and
    /// indexed like it. Never persisted.
    encoded: EncodedReferences,
}

impl DeviceTypeIdentifier {
    pub(crate) fn new(config: IdentifierConfig) -> Self {
        DeviceTypeIdentifier {
            config,
            registry: TypeRegistry::new(),
            models: BTreeMap::new(),
            pool: Vec::new(),
            compiled: CompiledBank::default(),
            compiled_ids: Vec::new(),
            encoded: EncodedReferences::default(),
        }
    }

    /// Recompiles the flat-arena bank — and re-derives stage two's
    /// alphabet and encoded references — from the current models. Must
    /// be called after every batch of model mutations so queries always
    /// run against the compiled representation (the query paths' debug
    /// assertion catches forgotten rebuilds). Only fails for a
    /// non-binary classifier forest, which the training paths cannot
    /// produce (the persistence path validates before reaching here).
    pub(crate) fn rebuild_compiled(&mut self) -> Result<(), CoreError> {
        let mut builder = CompiledBankBuilder::new();
        let mut ids = Vec::with_capacity(self.models.len());
        let mut encoded = EncodedReferences::default();
        for (id, model) in &self.models {
            builder.push(model.classifier.forest(), self.config.accept_threshold)?;
            ids.push(*id);
            encoded.push_type(&model.references);
        }
        self.compiled = builder.finish();
        self.compiled_ids = ids;
        self.encoded = encoded;
        Ok(())
    }

    /// Appends **one** freshly trained model to the compiled bank
    /// without touching the already-compiled regions — O(new forest)
    /// instead of O(bank). Only valid when `id` sorts after every
    /// compiled id (the bank mirrors the model map's ascending-id
    /// order); [`DeviceTypeIdentifier::add_device_type`] falls back to
    /// a full [`DeviceTypeIdentifier::rebuild_compiled`] otherwise
    /// (retrains, out-of-order interning).
    fn append_compiled(&mut self, id: TypeId) -> Result<(), CoreError> {
        debug_assert!(self.compiled_ids.last().is_none_or(|last| *last < id));
        let model = &self.models[&id];
        let mut builder = CompiledBankBuilder::from_bank(std::mem::take(&mut self.compiled));
        match builder.push(model.classifier.forest(), self.config.accept_threshold) {
            Ok(_) => {
                self.compiled = builder.finish();
                self.compiled_ids.push(id);
                self.encoded.push_type(&model.references);
                Ok(())
            }
            // The taken bank was dropped with the failed builder; a
            // full rebuild restores models⇄bank consistency (or
            // reports the same error). Clear the id column and the
            // encoded references first so that even a failing rebuild
            // leaves the (empty) derived state mutually consistent.
            Err(_) => {
                self.compiled_ids.clear();
                self.encoded = EncodedReferences::default();
                self.rebuild_compiled()
            }
        }
    }

    /// The compiled flat-arena classifier bank serving
    /// [`DeviceTypeIdentifier::classify_candidates`] (bank statistics,
    /// parity harnesses).
    pub fn compiled_bank(&self) -> &CompiledBank {
        &self.compiled
    }

    /// The configuration this identifier was built with.
    pub fn config(&self) -> &IdentifierConfig {
        &self.config
    }

    /// The label ↔ id bijection for every type this identifier has
    /// ever seen (trained or pooled).
    pub fn registry(&self) -> &TypeRegistry {
        &self.registry
    }

    /// Mutable access to the registry, for interning names that enter
    /// the system outside training (vulnerability feeds, incident
    /// streams). The registry is append-only, so handing out mutable
    /// access can never invalidate an existing [`TypeId`].
    pub fn registry_mut(&mut self) -> &mut TypeRegistry {
        &mut self.registry
    }

    /// The name behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from a different registry.
    pub fn type_name(&self, id: TypeId) -> &str {
        self.registry.name(id)
    }

    /// Resolves an identification to a borrowed type name (`None` for
    /// unknown devices).
    pub fn name_of(&self, identification: &Identification) -> Option<&str> {
        self.registry.resolve(identification.device_type())
    }

    /// Adds every sample of `dataset` to the training pool without
    /// training any classifier.
    pub(crate) fn absorb_samples(&mut self, dataset: &Dataset) {
        for s in dataset.iter() {
            let fixed = if self.config.fixed_prefix_len == sentinel_fingerprint::FIXED_PACKETS {
                s.fixed().clone()
            } else {
                s.fingerprint().to_fixed_with(self.config.fixed_prefix_len)
            };
            let id = self.registry.intern(s.label());
            self.pool.push((id, s.fingerprint().clone(), fixed));
        }
    }

    /// Trains (or retrains) the classifier for `id` from the pool.
    ///
    /// Does **not** recompile the flat-arena bank — callers must
    /// follow up with [`DeviceTypeIdentifier::rebuild_compiled`] once
    /// their batch of `train_type` calls is done (rebuilding per call
    /// would make bulk training quadratic in bank size).
    pub(crate) fn train_type(&mut self, id: TypeId, seed: u64) -> Result<(), CoreError> {
        let label = self.registry.name(id);
        let positives: Vec<&FixedFingerprint> = self
            .pool
            .iter()
            .filter(|(l, _, _)| *l == id)
            .map(|(_, _, fx)| fx)
            .collect();
        if positives.is_empty() {
            return Err(CoreError::BadDataset(format!(
                "no fingerprints for type {label}"
            )));
        }
        let complement: Vec<&FixedFingerprint> = self
            .pool
            .iter()
            .filter(|(l, _, _)| *l != id)
            .map(|(_, _, fx)| fx)
            .collect();
        if complement.is_empty() {
            return Err(CoreError::BadDataset(format!(
                "no negative fingerprints available for type {label}"
            )));
        }
        let neg_idx = negative_indices(
            positives.len(),
            complement.len(),
            self.config.negative_ratio,
            seed,
        );
        let negatives: Vec<&FixedFingerprint> =
            neg_idx.into_iter().map(|i| complement[i]).collect();
        let classifier =
            TypeClassifier::train(label, &positives, &negatives, &self.config.forest, seed)?;
        // Reference fingerprints for discrimination: a random subset of
        // this type's full fingerprints.
        let own_full: Vec<&Fingerprint> = self
            .pool
            .iter()
            .filter(|(l, _, _)| *l == id)
            .map(|(_, f, _)| f)
            .collect();
        let ref_idx = reference_indices(own_full.len(), self.config.references_per_type, seed);
        let references: Vec<Fingerprint> =
            ref_idx.into_iter().map(|i| own_full[i].clone()).collect();
        self.models.insert(
            id,
            TypeModel {
                classifier,
                references,
            },
        );
        Ok(())
    }

    /// Registers a newly discovered device type from its fingerprints
    /// and trains **only its** classifier — existing classifiers are
    /// untouched (incremental learning, §IV-B-1). Returns the interned
    /// id of the (possibly pre-existing) label.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadDataset`] if `fingerprints` is empty.
    pub fn add_device_type(
        &mut self,
        label: &str,
        fingerprints: &[Fingerprint],
        seed: u64,
    ) -> Result<TypeId, CoreError> {
        if fingerprints.is_empty() {
            return Err(CoreError::BadDataset(format!(
                "no fingerprints supplied for new type {label}"
            )));
        }
        let id = self.registry.intern(label);
        for f in fingerprints {
            let fixed = f.to_fixed_with(self.config.fixed_prefix_len);
            self.pool.push((id, f.clone(), fixed));
        }
        let fresh = !self.models.contains_key(&id);
        self.train_type(id, seed ^ fnv1a(label.as_bytes()))?;
        // The common case — a type the bank has never seen, with an id
        // sorting after every compiled forest — appends its nodes,
        // roots and span in O(new forest). Retraining an
        // existing type (its forest changed in place) or a label
        // interned out of order (the bank mirrors ascending-id order)
        // falls back to the full recompile.
        if fresh && self.compiled_ids.last().is_none_or(|last| *last < id) {
            self.append_compiled(id)?;
        } else {
            self.rebuild_compiled()?;
        }
        Ok(id)
    }

    /// Per-type models in id order: (id, classifier, references).
    /// Persistence path.
    pub(crate) fn models(&self) -> impl Iterator<Item = (TypeId, &TypeClassifier, &[Fingerprint])> {
        self.models
            .iter()
            .map(|(id, m)| (*id, &m.classifier, m.references.as_slice()))
    }

    /// The training-sample pool as (id, full fingerprint) pairs.
    /// Persistence path; fixed fingerprints are recomputed on load.
    pub(crate) fn pool_samples(&self) -> impl Iterator<Item = (TypeId, &Fingerprint)> {
        self.pool.iter().map(|(l, f, _)| (*l, f))
    }

    /// Reassembles an identifier from loaded parts (persistence path).
    /// `registry` must already contain every id referenced by `models`
    /// and `pool`; fixed fingerprints are recomputed from the full
    /// fingerprints with the loaded configuration's prefix length.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] when a loaded classifier forest
    /// cannot be compiled into the flat-arena bank (it is not binary —
    /// a malformed model document).
    pub(crate) fn from_parts(
        config: IdentifierConfig,
        registry: TypeRegistry,
        models: Vec<(TypeId, TypeClassifier, Vec<Fingerprint>)>,
        pool: Vec<(TypeId, Fingerprint)>,
    ) -> Result<Self, CoreError> {
        let mut identifier = DeviceTypeIdentifier::new(config);
        identifier.registry = registry;
        for (id, classifier, references) in models {
            identifier.models.insert(
                id,
                TypeModel {
                    classifier,
                    references,
                },
            );
        }
        for (id, fingerprint) in pool {
            let fixed = fingerprint.to_fixed_with(config.fixed_prefix_len);
            identifier.pool.push((id, fingerprint, fixed));
        }
        identifier.rebuild_compiled()?;
        Ok(identifier)
    }

    /// The device types this identifier can recognise, sorted by name.
    pub fn known_types(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .models
            .keys()
            .map(|id| self.registry.name(*id))
            .collect();
        names.sort_unstable();
        names
    }

    /// The ids of the types this identifier can recognise, in id
    /// (interning) order.
    pub fn known_type_ids(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.models.keys().copied()
    }

    /// Number of known types (= number of classifiers).
    pub fn type_count(&self) -> usize {
        self.models.len()
    }

    /// Stage one only: which classifiers accept `fixed`?
    ///
    /// Runs the compiled flat-arena bank with early-exit voting.
    /// Exposed separately for the timing evaluation (Table IV times
    /// classification and discrimination independently); hot-path
    /// callers should prefer
    /// [`DeviceTypeIdentifier::classify_candidates_into`], which reuses
    /// the caller's buffers instead of allocating the result.
    pub fn classify_candidates(&self, fixed: &FixedFingerprint) -> Vec<TypeId> {
        let mut out = Vec::new();
        self.classify_into(fixed, &mut out);
        out
    }

    /// Allocation-free stage one: fills `scratch` with the ids of the
    /// classifiers accepting `fixed` (read them back via
    /// [`CandidateScratch::candidates`]), reusing the scratch's buffer
    /// capacity across calls.
    pub fn classify_candidates_into(
        &self,
        fixed: &FixedFingerprint,
        scratch: &mut CandidateScratch,
    ) {
        self.classify_into(fixed, &mut scratch.candidates);
    }

    /// Shape statistics of the compiled bank serving this identifier's
    /// stage one.
    pub fn bank_stats(&self) -> BankStats {
        let forests = self.compiled.forest_count();
        BankStats {
            forests,
            nodes: self.compiled.node_count(),
            arena_bytes: self.compiled.arena_bytes(),
            cluster_groups: forests,
            scan: self.compiled.scan_counters(),
        }
    }

    /// Stage one through the reference tree-walking interpreter (one
    /// [`TypeClassifier`] at a time, no arena, no early exit). Kept as
    /// the semantic baseline the compiled bank is pinned against —
    /// candidate sets must be bit-identical.
    pub fn classify_candidates_interpreted(&self, fixed: &FixedFingerprint) -> Vec<TypeId> {
        self.models
            .iter()
            .filter(|(_, m)| {
                m.classifier
                    .matches(fixed, self.config.accept_threshold)
                    .unwrap_or(false)
            })
            .map(|(id, _)| *id)
            .collect()
    }

    /// Debug-build check that the derived state (compiled bank, its id
    /// column, the encoded references) covers exactly the models.
    fn debug_assert_compiled_in_sync(&self) {
        debug_assert!(
            self.compiled_ids.len() == self.models.len()
                && self.encoded.type_count() == self.models.len(),
            "compiled bank or encoded references out of sync with models — \
             a mutation path forgot to call rebuild_compiled()"
        );
    }

    fn classify_into(&self, fixed: &FixedFingerprint, out: &mut Vec<TypeId>) {
        self.debug_assert_compiled_in_sync();
        out.clear();
        let sample = fixed.as_slice();
        let ids = &self.compiled_ids;
        self.compiled
            .for_each_accepting(sample, |index| out.push(ids[index]));
    }

    /// The reference fingerprints stored for `id`, if known.
    pub fn references(&self, id: TypeId) -> Option<&[Fingerprint]> {
        self.models.get(&id).map(|m| m.references.as_slice())
    }

    /// The reference fingerprints stored for a type name, if known.
    pub fn references_by_name(&self, label: &str) -> Option<&[Fingerprint]> {
        self.references(self.registry.get(label)?)
    }

    /// Identifies a device from its full fingerprint F.
    ///
    /// Stage one runs the compiled classifier bank on F′; stage two
    /// discriminates multiple matches with edit distance over F. Uses
    /// a per-thread [`CandidateScratch`] (each worker thread owns its
    /// own, so concurrent identification never contends). Callers
    /// that manage their own scratch lifetimes should use
    /// [`DeviceTypeIdentifier::identify_with`] directly.
    pub fn identify(&self, fingerprint: &Fingerprint) -> Identification {
        QUERY_SCRATCH.with(|scratch| self.identify_with(fingerprint, &mut scratch.borrow_mut()))
    }

    /// [`DeviceTypeIdentifier::identify`] against a caller-owned
    /// scratch: the F′ conversion, the candidate list, the encoded
    /// query and the discrimination scores all reuse `scratch`'s
    /// buffers. On the single-candidate and unknown outcomes the
    /// returned [`Identification`] owns no heap data, so a warm call
    /// allocates nothing at all; when discrimination runs, the one
    /// allocation is the returned copy of the score list.
    pub fn identify_with(
        &self,
        fingerprint: &Fingerprint,
        scratch: &mut CandidateScratch,
    ) -> Identification {
        match self.resolve_with(fingerprint, scratch) {
            None => Identification::Unknown,
            Some(device_type) => Identification::Known {
                device_type,
                accepted: scratch.candidates.len(),
                // Empty unless discrimination ran, and cloning an
                // empty vector allocates nothing.
                scores: scratch.scores.clone(),
            },
        }
    }

    /// What a [`crate::ServiceResponse`] needs of an identification —
    /// the winning type (`None`: unknown device) and how many
    /// classifiers accepted — resolved in the per-thread scratch
    /// without materialising an [`Identification`]: allocation-free
    /// however many candidates were discriminated.
    pub(crate) fn resolve(&self, fingerprint: &Fingerprint) -> (Option<TypeId>, usize) {
        QUERY_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let winner = self.resolve_with(fingerprint, scratch);
            (winner, scratch.candidates.len())
        })
    }

    /// Both stages against `scratch`, which afterwards holds the
    /// accepted candidates and (when more than one accepted) their
    /// ranked scores; returns the winner.
    fn resolve_with(
        &self,
        fingerprint: &Fingerprint,
        scratch: &mut CandidateScratch,
    ) -> Option<TypeId> {
        let fx = scratch
            .fixed
            .fill(fingerprint, self.config.fixed_prefix_len);
        self.classify_into(fx, &mut scratch.candidates);
        self.discriminate(fingerprint, scratch)
    }

    /// Stage two over `scratch.candidates`: the lone candidate, or the
    /// candidate of lowest dissimilarity to its reference
    /// fingerprints, with the ranking left in `scratch.scores`.
    ///
    /// The paper's distance is served from the pre-encoded references
    /// — the query is encoded once and loaded as the kernel's pattern
    /// for all `candidates × references` distances; the ablation
    /// variants run the generic fingerprint-level path.
    pub(crate) fn discriminate(
        &self,
        fingerprint: &Fingerprint,
        scratch: &mut CandidateScratch,
    ) -> Option<TypeId> {
        self.debug_assert_compiled_in_sync();
        let CandidateScratch {
            candidates,
            query_symbols,
            osa,
            scores,
            ..
        } = scratch;
        // Clearing up front keeps the scratch accessors honest: after
        // a query that needed no discrimination, `scores()` is empty
        // rather than echoing an earlier query's ranking.
        scores.clear();
        if candidates.len() < 2 {
            return candidates.first().copied();
        }
        match self.config.distance {
            DistanceVariant::Osa => {
                let mut query = self.encoded.load(fingerprint, query_symbols, osa);
                scores.extend(candidates.iter().map(|id| {
                    // The bank mirrors the model map's ascending ids.
                    let forest = self
                        .compiled_ids
                        .binary_search(id)
                        .expect("candidates come from the compiled bank");
                    (*id, query.dissimilarity(forest))
                }));
            }
            variant => scores.extend(candidates.iter().map(|id| {
                let references = &self.models[id].references;
                (*id, dissimilarity_over(fingerprint, references, variant))
            })),
        }
        // Stable ascending sort: ties break toward the earlier
        // (lower-id) candidate, like `rank_candidates`.
        scores.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        Some(scores[0].0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use sentinel_fingerprint::{LabeledFingerprint, PacketFeatures};

    fn fp(tags: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(
            tags.iter()
                .map(|t| {
                    let mut v = [0u32; 23];
                    v[18] = *t;
                    PacketFeatures::from_raw(v)
                })
                .collect(),
        )
    }

    fn dataset() -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                "TypeA",
                fp(&[100 + i, 110, 120, 130]),
            ));
            ds.push(LabeledFingerprint::new(
                "TypeB",
                fp(&[500 + i, 510, 520, 530]),
            ));
            ds.push(LabeledFingerprint::new(
                "TypeC",
                fp(&[900 + i, 910, 920, 930]),
            ));
        }
        ds
    }

    fn trained() -> DeviceTypeIdentifier {
        Trainer::default().train(&dataset(), 17).unwrap()
    }

    #[test]
    fn identifies_known_types() {
        let id = trained();
        assert_eq!(id.type_count(), 3);
        let result = id.identify(&fp(&[104, 110, 120, 130]));
        assert_eq!(id.name_of(&result), Some("TypeA"));
        let result = id.identify(&fp(&[505, 510, 520, 530]));
        assert_eq!(id.name_of(&result), Some("TypeB"));
    }

    /// Fingerprint whose columns carry a binary protocol pattern
    /// (`bits`) plus a size — the shape real F′ vectors have. Binary
    /// features are what keeps unknown devices from extrapolating into
    /// a known type's acceptance region.
    fn typed_fp(bits: u32, sizes: &[u32]) -> Fingerprint {
        Fingerprint::from_columns(
            sizes
                .iter()
                .map(|t| {
                    let mut v = [0u32; 23];
                    for (b, slot) in v.iter_mut().enumerate().take(12) {
                        *slot = (bits >> b) & 1;
                    }
                    v[18] = *t;
                    PacketFeatures::from_raw(v)
                })
                .collect(),
        )
    }

    #[test]
    fn rejects_alien_fingerprints_as_unknown() {
        // Known types have distinct protocol-bit patterns; the alien
        // uses a pattern never seen in training, so every classifier's
        // trees route it to negative leaves.
        // Size ranges are shared across types, so separation rests on
        // the protocol bits alone — as for real devices whose frame
        // sizes overlap.
        let mut ds = Dataset::new();
        for i in 0..12u32 {
            ds.push(LabeledFingerprint::new(
                "BitsA",
                typed_fp(0b0001, &[100 + i, 110, 120]),
            ));
            ds.push(LabeledFingerprint::new(
                "BitsB",
                typed_fp(0b0010, &[100 + i, 110, 120]),
            ));
            ds.push(LabeledFingerprint::new(
                "BitsC",
                typed_fp(0b0100, &[100 + i, 110, 120]),
            ));
        }
        let id = Trainer::default().train(&ds, 21).unwrap();
        // Sanity: known patterns are recognised.
        assert_eq!(
            id.name_of(&id.identify(&typed_fp(0b0001, &[104, 110, 120]))),
            Some("BitsA")
        );
        let result = id.identify(&typed_fp(0b1000, &[104, 110, 120]));
        assert_eq!(result, Identification::Unknown);
        assert_eq!(result.device_type(), None);
        assert!(!result.needed_discrimination());
    }

    #[test]
    fn incremental_add_does_not_disturb_existing_types() {
        let mut id = trained();
        let before = id.identify(&fp(&[104, 110, 120, 130]));
        let new_fps: Vec<Fingerprint> = (0..10).map(|i| fp(&[3000 + i, 3010, 3020])).collect();
        let new_id = id.add_device_type("TypeNew", &new_fps, 5).unwrap();
        assert_eq!(id.type_count(), 4);
        assert_eq!(id.type_name(new_id), "TypeNew");
        // Old prediction unchanged.
        let after = id.identify(&fp(&[104, 110, 120, 130]));
        assert_eq!(before.device_type(), after.device_type());
        // New type recognised, under the id interning returned.
        let novel = id.identify(&fp(&[3004, 3010, 3020]));
        assert_eq!(novel.device_type(), Some(new_id));
        assert_eq!(id.name_of(&novel), Some("TypeNew"));
    }

    #[test]
    fn discrimination_runs_for_overlapping_types() {
        // Two types with heavily overlapping feature distributions force
        // multi-candidate matches.
        let mut ds = Dataset::new();
        for i in 0..20u32 {
            ds.push(LabeledFingerprint::new(
                "TwinOne",
                fp(&[100, 110, 120 + (i % 2)]),
            ));
            ds.push(LabeledFingerprint::new(
                "TwinTwo",
                fp(&[100, 110, 120 + (i % 2)]),
            ));
            // Twelve far types dilute the negative pool the way the
            // paper's 27-type dataset does.
            for far in 0..12u32 {
                ds.push(LabeledFingerprint::new(
                    format!("Far{far}").leak() as &str,
                    fp(&[900 + 50 * far, 910 + 50 * far, 920 + 50 * far]),
                ));
            }
        }
        let id = Trainer::default().train(&ds, 3).unwrap();
        let result = id.identify(&fp(&[100, 110, 120]));
        match &result {
            Identification::Known {
                accepted, scores, ..
            } => {
                assert!(*accepted >= 2, "twins should both match");
                assert!(result.needed_discrimination());
                assert_eq!(scores.len(), *accepted);
                assert!(
                    scores.windows(2).all(|w| w[0].1 <= w[1].1),
                    "scores are ranked best first"
                );
                assert!(
                    result.distance_computations(5) >= 10,
                    "2 candidates x 5 refs"
                );
            }
            Identification::Unknown => panic!("twin fingerprint must be recognised"),
        }
    }

    #[test]
    fn scratch_scores_reset_when_discrimination_is_skipped() {
        // Twins force discrimination; a far type resolves on a single
        // classifier. The scratch must not echo the twins' ranking
        // after the single-candidate query.
        let mut ds = Dataset::new();
        for i in 0..20u32 {
            ds.push(LabeledFingerprint::new(
                "TwinOne",
                fp(&[100, 110, 120 + (i % 2)]),
            ));
            ds.push(LabeledFingerprint::new(
                "TwinTwo",
                fp(&[100, 110, 120 + (i % 2)]),
            ));
            for far in 0..12u32 {
                ds.push(LabeledFingerprint::new(
                    format!("Far{far}").leak() as &str,
                    fp(&[900 + 50 * far, 910 + 50 * far, 920 + 50 * far]),
                ));
            }
        }
        let id = Trainer::default().train(&ds, 3).unwrap();
        let mut scratch = CandidateScratch::new();
        let twin = id.identify_with(&fp(&[100, 110, 120]), &mut scratch);
        assert!(twin.needed_discrimination());
        assert!(!scratch.scores().is_empty());

        let far = id.identify_with(&fp(&[900, 910, 920]), &mut scratch);
        assert!(!far.needed_discrimination());
        assert!(
            scratch.scores().is_empty(),
            "scores from the twin query must not survive a \
             no-discrimination query"
        );
    }

    #[test]
    fn compiled_bank_matches_interpreter() {
        let id = trained();
        assert_eq!(id.compiled_bank().forest_count(), id.type_count());
        let mut scratch = CandidateScratch::new();
        for probe in [
            fp(&[104, 110, 120, 130]),
            fp(&[505, 510, 520, 530]),
            fp(&[905, 910, 920, 930]),
            fp(&[1, 2, 3]),
            Fingerprint::from_columns(Vec::new()),
        ] {
            let fixed = probe.to_fixed_with(id.config().fixed_prefix_len);
            let compiled = id.classify_candidates(&fixed);
            assert_eq!(
                compiled,
                id.classify_candidates_interpreted(&fixed),
                "compiled and interpreted banks disagree on {probe:?}"
            );
            id.classify_candidates_into(&fixed, &mut scratch);
            assert_eq!(scratch.candidates(), compiled.as_slice());
            // identify_with agrees with identify (same scratch reuse).
            assert_eq!(id.identify_with(&probe, &mut scratch), id.identify(&probe));
        }
    }

    #[test]
    fn wrong_dimension_fixed_rejects_everywhere() {
        // A fixed fingerprint built with the wrong prefix length is
        // rejected by both the interpreter (dimension-mismatch ->
        // unmatched) and the compiled bank (per-forest check).
        let id = trained();
        let probe = fp(&[104, 110, 120, 130]);
        let wrong = probe.to_fixed_with(3);
        assert!(id.classify_candidates(&wrong).is_empty());
        assert!(id.classify_candidates_interpreted(&wrong).is_empty());
    }

    /// Every stage-one entry point — allocating, caller-scratch, and
    /// the bank's own scan — must agree with the interpreter bit for
    /// bit.
    fn assert_all_scans_agree(id: &DeviceTypeIdentifier, probe: &Fingerprint) {
        let fixed = probe.to_fixed_with(id.config().fixed_prefix_len);
        let interpreted = id.classify_candidates_interpreted(&fixed);
        assert_eq!(id.classify_candidates(&fixed), interpreted);
        let mut scratch = CandidateScratch::new();
        id.classify_candidates_into(&fixed, &mut scratch);
        assert_eq!(scratch.candidates(), interpreted.as_slice());
        let (bank, ids) = (id.compiled_bank(), &id.compiled_ids);
        let mut scanned = Vec::new();
        bank.for_each_accepting(fixed.as_slice(), |i| scanned.push(ids[i]));
        assert_eq!(scanned, interpreted, "bank scan diverged on {probe:?}");
    }

    #[test]
    fn incremental_append_keeps_every_scan_path_in_parity() {
        let mut id = trained();
        let stats_before = id.bank_stats();
        assert_eq!(stats_before.forests, 3);
        // Two incremental additions ride the append fast path (fresh
        // labels, ascending ids).
        for (label, base) in [("TypeD", 3000u32), ("TypeE", 4000)] {
            let fps: Vec<Fingerprint> = (0..10)
                .map(|i| fp(&[base + i, base + 10, base + 20]))
                .collect();
            id.add_device_type(label, &fps, 5).unwrap();
            for probe in [
                fp(&[104, 110, 120, 130]),
                fp(&[505, 510, 520, 530]),
                fp(&[base + 4, base + 10, base + 20]),
                fp(&[1, 2, 3]),
            ] {
                assert_all_scans_agree(&id, &probe);
            }
        }
        let stats_after = id.bank_stats();
        assert_eq!(stats_after.forests, 5);
        assert!(stats_after.nodes >= stats_before.nodes);
    }

    #[test]
    fn out_of_order_interning_and_retrains_fall_back_to_recompiles() {
        let mut id = trained();
        // Interned now, trained later: its id sorts *before* the next
        // fresh label's, so training it below cannot append at the
        // bank's tail.
        id.registry_mut().intern("AheadOfTime");
        let late: Vec<Fingerprint> = (0..10).map(|i| fp(&[5000 + i, 5010, 5020])).collect();
        id.add_device_type("ZLate", &late, 7).unwrap();
        let early: Vec<Fingerprint> = (0..10).map(|i| fp(&[7000 + i, 7010, 7020])).collect();
        id.add_device_type("AheadOfTime", &early, 9).unwrap();
        assert_eq!(id.type_count(), 5);
        // Retraining an existing type (forest replaced in place) also
        // recompiles rather than appending a duplicate forest.
        let retrain: Vec<Fingerprint> = (0..10).map(|i| fp(&[100 + i, 110, 120, 130])).collect();
        id.add_device_type("TypeA", &retrain, 11).unwrap();
        assert_eq!(id.type_count(), 5);
        assert_eq!(id.bank_stats().forests, 5);
        for probe in [
            fp(&[104, 110, 120, 130]),
            fp(&[5004, 5010, 5020]),
            fp(&[7004, 7010, 7020]),
            fp(&[905, 910, 920, 930]),
        ] {
            assert_all_scans_agree(&id, &probe);
        }
    }

    #[test]
    fn references_stored_per_type() {
        let id = trained();
        let refs = id.references_by_name("TypeA").unwrap();
        assert_eq!(refs.len(), 5);
        assert!(id.references_by_name("NoSuchType").is_none());
        let type_a = id.registry().get("TypeA").unwrap();
        assert_eq!(id.references(type_a).unwrap().len(), 5);
    }

    #[test]
    fn add_device_type_rejects_empty() {
        let mut id = trained();
        assert!(matches!(
            id.add_device_type("Empty", &[], 1),
            Err(CoreError::BadDataset(_))
        ));
    }

    #[test]
    fn known_types_sorted() {
        let id = trained();
        assert_eq!(id.known_types(), vec!["TypeA", "TypeB", "TypeC"]);
    }

    #[test]
    fn registry_covers_all_trained_types() {
        let id = trained();
        let ids: Vec<TypeId> = id.known_type_ids().collect();
        assert_eq!(ids.len(), 3);
        for tid in ids {
            assert!(id.registry().try_name(tid).is_some());
        }
    }

    // ---- stage two: the served path against the textbook oracle ----

    /// A look-alike family: every member shares the 12-packet prefix F′
    /// is cut from (so every member's classifier accepts every
    /// member's fingerprints) and differs only in the tail that stage
    /// two reads. `tail` is the member's own word range; `long`
    /// members run past 64 columns.
    fn twin_fp(tail: u32, long: bool, variant: u32) -> Fingerprint {
        let mut tags: Vec<u32> = (0..12).map(|j| 100 + 10 * j).collect();
        tags[2] += variant % 2;
        let len = if long { 60 } else { 30 };
        let mut suffix: Vec<u32> = (0..len).map(|j| tail + j % 20).collect();
        let at = (variant as usize * 7) % (len as usize - 1);
        suffix.swap(at, at + 1);
        if variant.is_multiple_of(3) {
            suffix.remove(at / 2);
        }
        // A word of the variant's own, so more variants in the training
        // set mean a larger alphabet.
        suffix.insert(at / 3, tail + 500 + variant);
        tags.extend(suffix);
        fp(&tags)
    }

    fn twin_dataset(members: &[(&'static str, u32, bool)], variants: u32) -> Dataset {
        let mut ds = Dataset::new();
        for i in 0..20u32 {
            // Far types first, so that labels intern in the same order
            // whether a member is trained here or added later.
            for far in 0..12u32 {
                ds.push(LabeledFingerprint::new(
                    format!("Far{far:02}").leak() as &str,
                    fp(&[900 + 50 * far, 910 + 50 * far, 920 + 50 * far]),
                ));
            }
            for (label, tail, long) in members {
                ds.push(LabeledFingerprint::new(
                    *label,
                    twin_fp(*tail, *long, i % variants),
                ));
            }
        }
        ds
    }

    /// Stage two as the paper states it, from parts that share nothing
    /// with the served path: the generic DP over 23-feature words, the
    /// normalised terms summed in reference order, a stable sort.
    fn oracle_ranking(
        id: &DeviceTypeIdentifier,
        probe: &Fingerprint,
        candidates: &[TypeId],
    ) -> Vec<(TypeId, f64)> {
        let mut scores: Vec<(TypeId, f64)> = candidates
            .iter()
            .map(|c| {
                let score = id
                    .references(*c)
                    .unwrap()
                    .iter()
                    .map(|r| sentinel_editdist::normalized_osa(probe.columns(), r.columns()))
                    .sum::<f64>();
                // The fingerprint-level entry point is the same number.
                let over =
                    dissimilarity_over(probe, id.references(*c).unwrap(), DistanceVariant::Osa);
                assert_eq!(over.to_bits(), score.to_bits());
                (*c, score)
            })
            .collect();
        scores.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        scores
    }

    fn bits(scores: &[(TypeId, f64)]) -> Vec<(TypeId, u64)> {
        scores.iter().map(|(id, s)| (*id, s.to_bits())).collect()
    }

    /// Checks `answer` (from any identify entry point) against the
    /// oracle over the interpreter's candidate set, then forces *every*
    /// type through stage two so the edge probes (which no classifier
    /// accepts) are scored too. Returns how many probes discriminated.
    fn assert_stage_two_matches_oracle(
        id: &DeviceTypeIdentifier,
        probes: &[Fingerprint],
        answer: impl Fn(&Fingerprint) -> Identification,
    ) -> usize {
        let mut discriminated = 0;
        let mut scratch = CandidateScratch::new();
        for probe in probes {
            let fixed = probe.to_fixed_with(id.config().fixed_prefix_len);
            let candidates = id.classify_candidates_interpreted(&fixed);
            let expected = match candidates.len() {
                0 => Identification::Unknown,
                1 => Identification::Known {
                    device_type: candidates[0],
                    accepted: 1,
                    scores: Vec::new(),
                },
                accepted => {
                    discriminated += 1;
                    let scores = oracle_ranking(id, probe, &candidates);
                    Identification::Known {
                        device_type: scores[0].0,
                        accepted,
                        scores,
                    }
                }
            };
            let got = answer(probe);
            assert_eq!(got, expected, "{} columns", probe.len());
            if let (
                Identification::Known { scores: got, .. },
                Identification::Known {
                    scores: expected, ..
                },
            ) = (&got, &expected)
            {
                assert_eq!(bits(got), bits(expected));
            }
            assert_eq!(id.identify_with(probe, &mut scratch), expected);

            scratch.candidates = id.compiled_ids.clone();
            let all = oracle_ranking(id, probe, &scratch.candidates);
            assert_eq!(id.discriminate(probe, &mut scratch), Some(all[0].0));
            assert_eq!(
                bits(scratch.scores()),
                bits(&all),
                "{} columns",
                probe.len()
            );
        }
        discriminated
    }

    fn stage_two_probes() -> Vec<Fingerprint> {
        let mut probes = Vec::new();
        for variant in [0, 1, 2, 5, 23, 24, 31] {
            probes.push(twin_fp(1000, false, variant));
            probes.push(twin_fp(2000, false, variant));
            // Past 64 columns: the DP fallback as the pattern, and (on
            // the short probes above) long references as the text.
            probes.push(twin_fp(3000, true, variant));
            probes.push(twin_fp(1000, true, variant));
        }
        // Accepted like a twin (the sizes sit between the same
        // thresholds) yet sharing no word with any reference.
        let alien: Vec<u32> = (0..12).map(|j| 101 + 10 * j).chain(5000..5030).collect();
        probes.push(fp(&alien));
        probes.push(Fingerprint::default());
        probes.push(fp(&[900, 910, 920]));
        probes.push(fp(&[7]));
        probes
    }

    #[test]
    fn served_stage_two_equals_the_oracle_across_the_model_lifecycle() {
        use crate::cell::ServiceCell;
        use crate::service::IoTSecurityService;
        use crate::vulnerability::VulnerabilityDatabase;

        let probes = stage_two_probes();
        let members = [("TwinOne", 1000, false), ("TwinThree", 3000, true)];
        let mut id = Trainer::default()
            .train(&twin_dataset(&members, 20), 3)
            .unwrap();
        assert!(id.references_by_name("TwinThree").unwrap()[0].len() > 64);
        let ran = assert_stage_two_matches_oracle(&id, &probes, |p| id.identify(p));
        assert!(ran >= 14, "the twins must co-accept ({ran} discriminated)");

        // Incremental add: the append path extends the alphabet in
        // place, so references encoded before it must still mean the
        // same words, and the newcomer's own words must now match.
        let alphabet_before = id.encoded.alphabet_len();
        let newcomer: Vec<Fingerprint> = (0..20).map(|i| twin_fp(2000, false, i)).collect();
        let two = id.add_device_type("TwinTwo", &newcomer, 5).unwrap();
        assert_eq!(id.compiled_ids.last(), Some(&two), "rode the append path");
        assert!(id.encoded.alphabet_len() >= alphabet_before + 20);
        assert_stage_two_matches_oracle(&id, &probes, |p| id.identify(p));
        let own = id.references(two).unwrap()[0].clone();
        let mut scratch = CandidateScratch::new();
        scratch.candidates = id.compiled_ids.clone();
        assert_eq!(id.discriminate(&own, &mut scratch), Some(two));
        assert!(
            scratch.scores()[0].1 < 4.0,
            "one of the five terms is an exact match"
        );

        // Persist round trip: the document carries no derived state,
        // the loaded identifier re-derives it and answers the same.
        let mut doc = Vec::new();
        crate::persist::write_identifier(&mut doc, &id).unwrap();
        let loaded = crate::persist::read_identifier(doc.as_slice()).unwrap();
        assert_eq!(loaded.encoded.alphabet_len(), id.encoded.alphabet_len());
        assert_stage_two_matches_oracle(&loaded, &probes, |p| loaded.identify(p));
        for probe in &probes {
            assert_eq!(loaded.identify(probe), id.identify(probe));
        }

        // Hot reload to a model with a *smaller* alphabet, answered on
        // this thread — whose thread-local scratch still holds the
        // match table sized for the larger one.
        // (The registry must extend the served one, so the type this
        // model does not train is interned all the same.)
        let mut narrow = Trainer::default()
            .train(&twin_dataset(&members, 2), 3)
            .unwrap();
        narrow.registry_mut().intern("TwinTwo");
        assert!(narrow.encoded.alphabet_len() < loaded.encoded.alphabet_len());
        let cell = ServiceCell::new(IoTSecurityService::new(
            loaded,
            VulnerabilityDatabase::new(),
        ));
        let before = cell.load();
        assert_stage_two_matches_oracle(before.identifier(), &probes, |p| {
            before.handle_detailed(p).1
        });
        cell.replace(IoTSecurityService::new(
            narrow,
            VulnerabilityDatabase::new(),
        ))
        .unwrap();
        let after = cell.load();
        assert_eq!(after.epoch(), 2);
        let ran = assert_stage_two_matches_oracle(after.identifier(), &probes, |p| {
            let (response, identification) = after.handle_detailed(p);
            assert_eq!(response, after.handle(p));
            identification
        });
        assert!(ran >= 14);
    }
}

//! GIR-based top-k result caching (paper §1).
//!
//! Previous top-k results are kept with their GIRs; when a new query
//! vector falls inside a cached GIR, the cached result is returned
//! without touching the index. Because the (order-sensitive) GIR
//! preserves both composition *and order*, a cached result with `k' ≥ k`
//! also answers a top-`k` request by prefix — the paper notes that even
//! partial reuse ("report the available highest-scoring records
//! immediately") is desirable \[31\].
//!
//! A GIR is only meaningful relative to the scoring function it was
//! computed under, so every entry records its [`ScoringFunction`] and a
//! lookup matches only entries with the same function — two sessions
//! scoring by different transforms never share results.
//!
//! This cache is single-threaded (`&mut self`); the concurrent serving
//! layer wraps it per shard — see `gir_serve::ShardedGirCache`.

use crate::gir_star::reduced_result;
use crate::maintenance::{DeltaBatch, UpdateImpact};
use crate::region::{GirRegion, RegionKind};
use gir_geometry::hyperplane::HalfSpace;
use gir_geometry::vector::PointD;
use gir_query::{Record, ScoringFunction, TopKResult};
use std::sync::Arc;

/// What one cache access *is*: the query weights, the requested result
/// size, the scoring function, and the region semantics. One value type
/// replaces the former four-parameter method family and its `_kind`
/// twins — every cache operation takes a `CacheKey`, and the kind rides
/// along instead of multiplying method names.
///
/// ```
/// # use gir_core::cache::CacheKey;
/// # use gir_core::region::RegionKind;
/// # use gir_geometry::vector::PointD;
/// # use gir_query::ScoringFunction;
/// let w = PointD::new(vec![0.5, 0.5]);
/// let scoring = ScoringFunction::linear(2);
/// let ordered = CacheKey::new(&w, 10, &scoring);
/// let unordered = CacheKey::new(&w, 10, &scoring).kind(RegionKind::GirStar);
/// # assert_eq!(ordered.kind, RegionKind::Gir);
/// # assert_eq!(unordered.kind, RegionKind::GirStar);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CacheKey<'a> {
    /// The query's weight vector.
    pub weights: &'a PointD,
    /// Requested result size.
    pub k: usize,
    /// The scoring function the request runs under (entries computed
    /// under a different function never match).
    pub scoring: &'a ScoringFunction,
    /// Region semantics: order-sensitive [`RegionKind::Gir`] (the
    /// default) or order-insensitive [`RegionKind::GirStar`].
    pub kind: RegionKind,
}

impl<'a> CacheKey<'a> {
    /// An order-sensitive key ([`RegionKind::Gir`]); chain
    /// [`CacheKey::kind`] for star semantics.
    pub fn new(weights: &'a PointD, k: usize, scoring: &'a ScoringFunction) -> Self {
        CacheKey {
            weights,
            k,
            scoring,
            kind: RegionKind::Gir,
        }
    }

    /// Sets the region semantics.
    pub fn kind(mut self, kind: RegionKind) -> Self {
        self.kind = kind;
        self
    }
}

/// A cache hit: the top-`k` prefix of an entry's ranked result, shared
/// with the entry rather than copied out of it.
#[derive(Debug, Clone)]
pub struct CachedRecords {
    result: Arc<TopKResult>,
    k: usize,
}

impl CachedRecords {
    /// The records, best first.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.result.ranked[..self.k].iter().map(|(r, _)| r)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.k
    }

    /// True when the hit holds no records.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }
}

/// One cached result with its immutable region, the scoring function it
/// was computed under, and its region semantics ([`RegionKind`]).
#[derive(Debug, Clone)]
struct CacheEntry {
    region: GirRegion,
    /// Shared with every hit it answers.
    result: Arc<TopKResult>,
    scoring: ScoringFunction,
    kind: RegionKind,
    /// `R⁻` with ranks, precomputed at admission for GIR\* entries
    /// (`None` for order-sensitive ones): the result is immutable for
    /// the entry's lifetime, so the per-update sweeps must not rebuild
    /// the hull-pruned pivot set on every insertion.
    r_minus: Option<Vec<(usize, Record)>>,
}

/// An LRU cache of `(GIR, top-k result)` pairs.
#[derive(Debug)]
pub struct GirCache {
    entries: Vec<CacheEntry>, // front = most recently used
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl GirCache {
    /// A cache holding at most `capacity` results (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        GirCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// The hit predicate: an entry answers `(w, k, scoring, kind)` when
    /// it was computed under the *same scoring function*, its region
    /// contains `w`, and its semantics cover the request:
    ///
    /// * an **order-sensitive** request matches only [`RegionKind::Gir`]
    ///   entries holding at least `k` records (any prefix of an
    ///   order-preserved result is exact);
    /// * an **order-insensitive** request matches those same `Gir`
    ///   entries (an ordered answer is a valid composition answer — GIR
    ///   ⊆ GIR\*), plus [`RegionKind::GirStar`] entries of *exactly*
    ///   `k` records — inside a GIR\* only the full result **set** is
    ///   pinned, so a shorter prefix of its cached order would be a
    ///   guess.
    fn matches(
        e: &CacheEntry,
        w: &PointD,
        k: usize,
        scoring: &ScoringFunction,
        kind: RegionKind,
    ) -> bool {
        let semantics = match (kind, e.kind) {
            (RegionKind::Gir, RegionKind::Gir) | (RegionKind::GirStar, RegionKind::Gir) => {
                e.result.len() >= k
            }
            (RegionKind::Gir, RegionKind::GirStar) => false,
            (RegionKind::GirStar, RegionKind::GirStar) => e.result.len() == k,
        };
        semantics && e.scoring == *scoring && e.region.contains(w)
    }

    /// The (order-correct) top-`k` prefix of an entry's cached result.
    fn prefix(e: &CacheEntry, k: usize) -> CachedRecords {
        CachedRecords {
            result: Arc::clone(&e.result),
            k: k.min(e.result.len()),
        }
    }

    /// Looks the key up, counting the hit/miss and refreshing LRU
    /// order. For [`RegionKind::GirStar`] keys the returned records are
    /// the guaranteed top-`k` *set*; their order is the cached one and
    /// may differ from the live ranking.
    pub fn get(&mut self, key: &CacheKey<'_>) -> Option<CachedRecords> {
        match self.probe(key) {
            Some(out) => {
                self.hits += 1;
                self.touch(key);
                Some(out)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Read-only lookup: like [`GirCache::get`] but touches neither
    /// the counters nor the LRU order, so concurrent callers can probe
    /// under a shared lock. The serving layer counts hits/misses itself
    /// and promotes hot entries opportunistically via
    /// [`GirCache::touch`].
    pub fn probe(&self, key: &CacheKey<'_>) -> Option<CachedRecords> {
        self.entries
            .iter()
            .find(|e| Self::matches(e, key.weights, key.k, key.scoring, key.kind))
            .map(|e| Self::prefix(e, key.k))
    }

    /// Moves the entry answering the key to the LRU front (no counter
    /// changes). A no-op when no entry matches.
    pub fn touch(&mut self, key: &CacheKey<'_>) {
        let pos = self
            .entries
            .iter()
            .position(|e| Self::matches(e, key.weights, key.k, key.scoring, key.kind));
        if let Some(i) = pos {
            let entry = self.entries.remove(i);
            self.entries.insert(0, entry);
        }
    }

    /// Admits a computed result under the key that missed (evicting the
    /// LRU entry when full). The key contributes the scoring function
    /// and region semantics; the region and result carry the
    /// authoritative data (the entry serves *any* future key its region
    /// and semantics cover, not just this one).
    pub fn admit(&mut self, key: &CacheKey<'_>, region: GirRegion, result: TopKResult) {
        let kind = key.kind;
        let r_minus = (kind == RegionKind::GirStar).then(|| reduced_result(&result));
        self.entries.insert(
            0,
            CacheEntry {
                region,
                result: Arc::new(result),
                scoring: key.scoring.clone(),
                kind,
                r_minus,
            },
        );
        if self.entries.len() > self.capacity {
            self.evictions += (self.entries.len() - self.capacity) as u64;
            self.entries.truncate(self.capacity);
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Entries dropped so far — LRU evictions plus update
    /// invalidations.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Fraction of lookups served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Reacts to a dataset insertion: shrinks every cached region that
    /// partially overlaps the newcomer's winning zone (under that
    /// entry's own scoring function and region semantics — GIR\*
    /// entries classify against their `R⁻` pivots) and evicts entries
    /// whose result is stale at their own query. Returns the number of
    /// evicted entries (see [`crate::maintenance`]).
    pub fn on_insert(&mut self, rec: &Record) -> usize {
        use crate::maintenance::{
            apply_insertion, classify_insertion_star, StarInsertionImpact, UpdateImpact,
        };
        let before = self.entries.len();
        self.entries.retain_mut(|e| match e.kind {
            RegionKind::Gir => {
                let kth = e.result.kth().clone();
                apply_insertion(&mut e.region, &kth, rec, &e.scoring) != UpdateImpact::Invalidated
            }
            RegionKind::GirStar => {
                let r_minus = e.r_minus.get_or_insert_with(|| reduced_result(&e.result));
                match classify_insertion_star(&e.region, r_minus, rec, &e.scoring) {
                    StarInsertionImpact::Unaffected => true,
                    StarInsertionImpact::Shrinks(hs) => {
                        e.region.halfspaces.extend(hs);
                        true
                    }
                    StarInsertionImpact::Invalidated => false,
                }
            }
        });
        let dropped = before - self.entries.len();
        self.evictions += dropped as u64;
        dropped
    }

    /// Reacts to a dataset deletion: evicts entries whose result
    /// contained the deleted record. Returns the number evicted.
    pub fn on_delete(&mut self, deleted_id: u64) -> usize {
        use crate::maintenance::{apply_deletion, UpdateImpact};
        let before = self.entries.len();
        self.entries
            .retain(|e| apply_deletion(&e.result.ids(), deleted_id) != UpdateImpact::Invalidated);
        let dropped = before - self.entries.len();
        self.evictions += dropped as u64;
        dropped
    }

    /// Reconciles every entry with a coalesced [`DeltaBatch`] in one
    /// pass — the incremental alternative to per-update
    /// [`GirCache::on_insert`]/[`GirCache::on_delete`] sweeps:
    ///
    /// * `Unaffected` entries survive untouched,
    /// * `Shrunk` entries absorb the newcomers' half-spaces in place
    ///   (the shrink is exact — see [`crate::maintenance`]),
    /// * `NeedsRepair` entries are handed to `repair` (a closure with
    ///   index access, typically [`crate::maintenance::repair_region`]);
    ///   when it declines (`None` — e.g. non-linear scoring), the entry
    ///   keeps its sound-but-non-maximal region with the shrinks
    ///   applied,
    /// * `Invalidated` entries are evicted.
    pub fn apply_batch(
        &mut self,
        batch: &DeltaBatch,
        mut repair: impl FnMut(&RepairRequest<'_>) -> Option<GirRegion>,
    ) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        if batch.is_empty() {
            out.untouched = self.entries.len();
            return out;
        }
        let mut apply_span = tracing::span!(
            "cache_apply",
            entries = self.entries.len(),
            inserts = batch.inserts().len(),
            deletes = batch.deleted_ids().len(),
        );
        self.entries.retain_mut(|e| {
            // Star entries reuse their admission-time R⁻ instead of
            // rebuilding the hull-pruned pivot set per batch.
            let r_minus = match e.kind {
                RegionKind::GirStar => Some(
                    e.r_minus
                        .get_or_insert_with(|| reduced_result(&e.result))
                        .as_slice(),
                ),
                RegionKind::Gir => None,
            };
            let classify_span = tracing::span!("classify");
            let verdict =
                batch.classify_kind_with(&e.region, &e.result, &e.scoring, e.kind, r_minus);
            drop(classify_span);
            match verdict.impact {
                UpdateImpact::Unaffected => {
                    out.untouched += 1;
                    true
                }
                UpdateImpact::Shrunk => {
                    e.region.halfspaces.extend(verdict.shrinks);
                    out.shrunk += 1;
                    true
                }
                UpdateImpact::NeedsRepair => {
                    let req = RepairRequest {
                        region: &e.region,
                        result: &e.result,
                        scoring: &e.scoring,
                        kind: e.kind,
                        removed: &verdict.removed_contributors,
                        shrinks: &verdict.shrinks,
                    };
                    let _repair_span = tracing::span!("repair");
                    match repair(&req) {
                        Some(region) => {
                            e.region = region;
                            out.repaired += 1;
                        }
                        None => {
                            // Keep the entry sound: the dead
                            // contributor's constraint only makes the
                            // region smaller, but the shrinks are
                            // mandatory.
                            e.region.halfspaces.extend(verdict.shrinks);
                            out.shrunk += 1;
                        }
                    }
                    true
                }
                UpdateImpact::Invalidated => {
                    out.evicted += 1;
                    false
                }
            }
        });
        apply_span.record("untouched", out.untouched);
        apply_span.record("shrunk", out.shrunk);
        apply_span.record("repaired", out.repaired);
        apply_span.record("evicted", out.evicted);
        drop(apply_span);
        self.evictions += out.evicted as u64;
        out
    }
}

/// Everything a repair closure needs to rebuild one entry's region (see
/// [`GirCache::apply_batch`] and [`crate::maintenance::repair_region`]).
#[derive(Debug)]
pub struct RepairRequest<'a> {
    /// The entry's current (sound) region.
    pub region: &'a GirRegion,
    /// The entry's cached result — still the true top-k at its query.
    pub result: &'a TopKResult,
    /// The scoring function the entry was computed under.
    pub scoring: &'a ScoringFunction,
    /// The entry's region semantics: [`RegionKind::Gir`] entries repair
    /// through [`crate::maintenance::repair_region`], GIR\* entries
    /// through [`crate::maintenance::repair_region_star`].
    pub kind: RegionKind,
    /// Contributor ids deleted by the batch.
    pub removed: &'a [u64],
    /// Mandatory shrink half-spaces from the batch's insertions.
    pub shrinks: &'a [HalfSpace],
}

/// Tally of one [`GirCache::apply_batch`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Entries the batch did not touch at all.
    pub untouched: usize,
    /// Entries shrunk in place (including repair fallbacks).
    pub shrunk: usize,
    /// Entries whose facets were rebuilt.
    pub repaired: usize,
    /// Entries evicted as stale.
    pub evicted: usize,
}

impl BatchOutcome {
    /// Accumulates another pass (e.g. across cache shards).
    pub fn merge(&mut self, other: &BatchOutcome) {
        self.untouched += other.untouched;
        self.shrunk += other.shrunk;
        self.repaired += other.repaired;
        self.evicted += other.evicted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_geometry::hyperplane::{HalfSpace, Provenance};

    fn region(x_lo: f64, x_hi: f64) -> GirRegion {
        // A slab x ∈ [x_lo, x_hi] inside the unit square.
        let hs = vec![
            HalfSpace {
                normal: PointD::new(vec![1.0, 0.0]),
                offset: x_hi,
                provenance: Provenance::NonResult { record_id: 0 },
            },
            HalfSpace {
                normal: PointD::new(vec![-1.0, 0.0]),
                offset: -x_lo,
                provenance: Provenance::NonResult { record_id: 1 },
            },
        ];
        GirRegion::new(2, PointD::new(vec![(x_lo + x_hi) / 2.0, 0.5]), hs)
    }

    fn result(ids: &[u64]) -> TopKResult {
        TopKResult {
            ranked: ids
                .iter()
                .enumerate()
                .map(|(i, &id)| (Record::new(id, vec![0.5, 0.5]), 1.0 - i as f64 * 0.1))
                .collect(),
        }
    }

    fn linear() -> ScoringFunction {
        ScoringFunction::linear(2)
    }

    /// Admits under the region's own query point (the weights in the
    /// key are not stored, so any in-region point works).
    fn admit(cache: &mut GirCache, region: GirRegion, res: TopKResult, kind: RegionKind) {
        let s = linear();
        let w = region.query.clone();
        let k = res.len();
        cache.admit(&CacheKey::new(&w, k, &s).kind(kind), region, res);
    }

    #[test]
    fn hit_inside_region_miss_outside() {
        let mut cache = GirCache::new(4);
        admit(
            &mut cache,
            region(0.2, 0.4),
            result(&[1, 2, 3]),
            RegionKind::Gir,
        );
        let hit = cache.get(&CacheKey::new(&PointD::new(vec![0.3, 0.9]), 3, &linear()));
        assert_eq!(
            hit.unwrap().iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert!(cache
            .get(&CacheKey::new(&PointD::new(vec![0.7, 0.5]), 3, &linear()))
            .is_none());
        assert_eq!(cache.counters(), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_scoring_function_never_shares_entries() {
        // The fixed cache-key bug: a query under a different scoring
        // function must not reuse a cached result, even when its weight
        // vector lies inside the cached region.
        let mut cache = GirCache::new(4);
        admit(
            &mut cache,
            region(0.0, 1.0),
            result(&[1, 2, 3]),
            RegionKind::Gir,
        );
        let w = PointD::new(vec![0.5, 0.5]);
        assert!(
            cache
                .get(&CacheKey::new(
                    &w,
                    3,
                    &ScoringFunction::new(vec![
                        gir_query::Transform::Power(2),
                        gir_query::Transform::Linear,
                    ])
                ))
                .is_none(),
            "entry leaked across scoring functions"
        );
        assert!(cache.get(&CacheKey::new(&w, 3, &linear())).is_some());
    }

    #[test]
    fn zero_capacity_is_clamped_not_panicking() {
        let mut cache = GirCache::new(0);
        assert_eq!(cache.capacity(), 1);
        admit(&mut cache, region(0.0, 1.0), result(&[1]), RegionKind::Gir);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn prefix_serves_smaller_k() {
        let mut cache = GirCache::new(4);
        admit(
            &mut cache,
            region(0.0, 1.0),
            result(&[5, 6, 7, 8]),
            RegionKind::Gir,
        );
        let hit = cache
            .get(&CacheKey::new(&PointD::new(vec![0.5, 0.5]), 2, &linear()))
            .unwrap();
        assert_eq!(hit.iter().map(|r| r.id).collect::<Vec<_>>(), vec![5, 6]);
    }

    #[test]
    fn larger_k_than_cached_misses() {
        let mut cache = GirCache::new(4);
        admit(
            &mut cache,
            region(0.0, 1.0),
            result(&[5, 6]),
            RegionKind::Gir,
        );
        assert!(cache
            .get(&CacheKey::new(&PointD::new(vec![0.5, 0.5]), 3, &linear()))
            .is_none());
    }

    #[test]
    fn lru_eviction_counts() {
        let mut cache = GirCache::new(2);
        admit(&mut cache, region(0.0, 0.1), result(&[1]), RegionKind::Gir);
        admit(&mut cache, region(0.2, 0.3), result(&[2]), RegionKind::Gir);
        // Touch the first entry so the second becomes LRU.
        assert!(cache
            .get(&CacheKey::new(&PointD::new(vec![0.05, 0.5]), 1, &linear()))
            .is_some());
        admit(&mut cache, region(0.4, 0.5), result(&[3]), RegionKind::Gir);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // Entry for [0.2,0.3] was evicted.
        assert!(cache
            .get(&CacheKey::new(&PointD::new(vec![0.25, 0.5]), 1, &linear()))
            .is_none());
        assert!(cache
            .get(&CacheKey::new(&PointD::new(vec![0.05, 0.5]), 1, &linear()))
            .is_some());
    }

    #[test]
    fn on_delete_counts_as_eviction() {
        let mut cache = GirCache::new(4);
        admit(
            &mut cache,
            region(0.0, 1.0),
            result(&[1, 2]),
            RegionKind::Gir,
        );
        assert_eq!(cache.on_delete(2), 1);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn region_kinds_match_by_semantics() {
        let mut cache = GirCache::new(8);
        let w = PointD::new(vec![0.5, 0.5]);
        let s = linear();
        // A GIR* entry with 3 records.
        admit(
            &mut cache,
            region(0.0, 1.0),
            result(&[1, 2, 3]),
            RegionKind::GirStar,
        );
        // Order-sensitive requests never hit a star entry (its cached
        // order may lag the live ranking).
        assert!(cache.get(&CacheKey::new(&w, 3, &s)).is_none());
        // Order-insensitive requests hit it only at the exact k — a
        // prefix of an unordered set would be a guess.
        assert!(cache
            .get(&CacheKey::new(&w, 2, &s).kind(RegionKind::GirStar))
            .is_none());
        let hit = cache
            .get(&CacheKey::new(&w, 3, &s).kind(RegionKind::GirStar))
            .unwrap();
        let mut ids: Vec<u64> = hit.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);

        // A GIR entry answers both semantics, including by prefix.
        let mut cache = GirCache::new(8);
        admit(
            &mut cache,
            region(0.0, 1.0),
            result(&[4, 5, 6]),
            RegionKind::Gir,
        );
        assert!(cache.get(&CacheKey::new(&w, 2, &s)).is_some());
        let hit = cache
            .get(&CacheKey::new(&w, 2, &s).kind(RegionKind::GirStar))
            .unwrap();
        assert_eq!(hit.iter().map(|r| r.id).collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn star_entries_shrink_and_evict_on_insert() {
        let mut cache = GirCache::new(8);
        let w = PointD::new(vec![0.5, 0.5]);
        // Star entry whose result records sit at distinct corners.
        let res = TopKResult {
            ranked: vec![
                (Record::new(1, vec![0.2, 0.9]), 0.55),
                (Record::new(2, vec![0.9, 0.2]), 0.55),
            ],
        };
        admit(&mut cache, region(0.0, 1.0), res, RegionKind::GirStar);

        // A newcomer losing to both pivots everywhere: untouched.
        assert_eq!(cache.on_insert(&Record::new(9, vec![0.1, 0.1])), 0);
        assert_eq!(cache.len(), 1);

        // A newcomer winning against a pivot off-query: shrinks in
        // place with star provenance.
        assert_eq!(cache.on_insert(&Record::new(10, vec![0.95, 0.05])), 0);
        assert_eq!(cache.len(), 1);
        let shrunk = cache
            .get(&CacheKey::new(&w, 2, &linear()).kind(RegionKind::GirStar))
            .is_some();
        assert!(shrunk, "query point must survive an off-query shrink");

        // A newcomer entering the composition at the query: evicted.
        assert_eq!(cache.on_insert(&Record::new(11, vec![0.95, 0.95])), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn apply_batch_routes_entries_by_impact() {
        let mut cache = GirCache::new(8);
        // Entry A: result {1,2}; its region's bounding records are ids 0/1
        // (see `region()`): record 0 is a *contributor*, record 2 a result
        // member.
        admit(
            &mut cache,
            region(0.2, 0.8),
            result(&[1, 2]),
            RegionKind::Gir,
        );

        // Deleting a contributor (id 0, not in the result) asks for
        // repair; a declining repairer keeps the entry sound.
        let mut batch = DeltaBatch::new();
        batch.record_delete(0);
        let mut requests = 0usize;
        let out = cache.apply_batch(&batch, |req| {
            requests += 1;
            assert_eq!(req.removed, &[0]);
            None
        });
        assert_eq!(requests, 1);
        assert_eq!(
            out,
            BatchOutcome {
                shrunk: 1,
                ..Default::default()
            }
        );
        assert_eq!(cache.len(), 1);

        // A repairer that supplies a fresh region replaces it in place.
        let out = cache.apply_batch(&batch, |_| Some(region(0.1, 0.9)));
        assert_eq!(out.repaired, 1);
        assert!(cache
            .get(&CacheKey::new(&PointD::new(vec![0.15, 0.5]), 2, &linear()))
            .is_some());

        // Deleting a result member evicts.
        let mut batch = DeltaBatch::new();
        batch.record_delete(2);
        let out = cache.apply_batch(&batch, |_| panic!("no repair for invalidation"));
        assert_eq!(out.evicted, 1);
        assert!(cache.is_empty());
        assert_eq!(cache.evictions(), 1);

        // An empty batch touches nothing.
        admit(&mut cache, region(0.0, 1.0), result(&[7]), RegionKind::Gir);
        let out = cache.apply_batch(&DeltaBatch::new(), |_| panic!("no work"));
        assert_eq!(
            out,
            BatchOutcome {
                untouched: 1,
                ..Default::default()
            }
        );
    }
}

//! The shared prune-index: query-independent pruning state for the
//! cold-miss fast path.
//!
//! Every cache miss of the serving layer used to rebuild the same
//! query-*independent* structures from scratch: the dataset skyline
//! (resumed BBS over the retained BRS heap) and the R\*-tree descent
//! state (page fetches *and decodes* along every BRS/Phase-2 walk).
//! [`PruneIndex`] hoists them out of the per-query path:
//!
//! * the **dataset skyline** is computed once (lazily, on the first
//!   miss) and stored column-major in [`RecordBlocks`] so the per-query
//!   dominance scans run as fused, block-skipping kernels; the
//!   per-block **corner maxima** act as precomputed score/dominance
//!   bounds that let scans skip whole blocks. FP seeds its
//!   incident-facet stars from it;
//! * the **tree mirror** ([`TreeMirror`]) shares the tree's decoded
//!   nodes per dataset version, so BRS and the Phase-2 sweeps of a miss
//!   run over a node source that reads nothing — no page I/O, no
//!   deserialization;
//! * the **shared Phase-2 systems**, keyed by result set and pivot,
//!   answer a recurring ranking without any sweep.
//!
//! SP and CP derive `skyline(D \ R)` per query the way the cold path
//! does — BBS resumed from the retained frontier, over the mirror —
//! which measured faster than masking the cached skyline and promoting
//! the records the result was hiding.
//!
//! The index is maintained **incrementally** by the update pipeline
//! (PR 2's delta path):
//!
//! * insertion: one fused dominance scan — dominated newcomers are
//!   ignored, otherwise the newcomer joins the skyline and evicts the
//!   members it dominates;
//! * deletion of a non-skyline record: a set lookup, nothing else;
//! * deletion of a skyline member: a localized descent into the
//!   deleted member's dominance region repairs the skyline in place;
//! * the tree mirror is version-scoped: any tree change resets it, and
//!   the next miss rebuilds it lazily (amortized across the batch it
//!   serves).
//!
//! An equivalence property test (`tests/proptest_prune_index.rs`)
//! checks that the incrementally-maintained index is structurally
//! identical to one rebuilt from scratch after any interleaving of
//! updates, and that GIRs served through it match the no-index oracle.

use crate::engine::Method;
use crate::mirror::TreeMirror;
use crate::region::RegionKind;
use gir_geometry::dominance::{dominates, SkylineSet};
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::vector::PointD;
use gir_geometry::EPS;
use gir_query::{bbs_skyline, RecordBlocks, ScoringFunction, SearchState};
use gir_rtree::{RTree, RTreeError, Record};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// Phase-2 result-cache capacity; the map is simply cleared beyond it
/// (distinct result sets churn slowly, so an eviction policy would be
/// over-engineering).
const PHASE2_CACHE_CAP: usize = 4096;

/// Counter snapshot of a [`PruneIndex`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneIndexStats {
    /// Times the skyline was built from scratch (lazy builds after
    /// construction or invalidation).
    pub builds: u64,
    /// Queries served from the shared state.
    pub serves: u64,
    /// Insertions absorbed by the incremental skyline update.
    pub inserts: u64,
    /// Deletions resolved by a set lookup (non-skyline member).
    pub fast_deletes: u64,
    /// Deletions that triggered a localized skyline repair descent.
    pub repaired_deletes: u64,
    /// Misses whose Phase 2 was answered from the shared result cache
    /// (same result set + pivot ⇒ identical half-space system).
    pub phase2_hits: u64,
    /// Misses that computed (and admitted) a fresh Phase 2.
    pub phase2_misses: u64,
    /// Current skyline cardinality (0 when not built).
    pub skyline_size: usize,
}

/// Key of one shared Phase-2 system. For the order-sensitive GIR the
/// half-spaces `S(p_k, q') ≥ S(x, q')` depend only on the result *set*,
/// the pivot `p_k`, and the Phase-2 method; for GIR\* the conditions are
/// pinned at *per-rank* pivots, so the key additionally carries the
/// region kind and its `result` ids are stored in **rank order** (the
/// ranks identify the pivots). Neither depends on the query vector, so
/// every miss reproducing the same ranking reuses the system verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Phase2Key {
    kind: RegionKind,
    method: Method,
    pk: u64,
    /// Result ids: sorted for [`RegionKind::Gir`], in rank order for
    /// [`RegionKind::GirStar`].
    result: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Phase2Entry {
    scoring: ScoringFunction,
    /// Transformed pivot attributes `g(p_k)`.
    pk_t: PointD,
    /// The per-rank transformed pivots `(rank, g(p_rank))` of a GIR\*
    /// system (`R⁻` only); empty for order-sensitive entries. Inserts
    /// append one score-order half-space per non-dominating pivot.
    star_pivots: Vec<(usize, PointD)>,
    halfspaces: Arc<Vec<HalfSpace>>,
    /// The `structure_size` of the producing computation.
    structure: usize,
}

/// One immutable version of the shared pruning state. Queries hold it
/// through an `Arc` snapshot; updates copy-on-write a new version.
#[derive(Debug)]
pub struct PruneState {
    d: usize,
    /// The dataset skyline, column-major with per-block corner maxima.
    blocks: RecordBlocks,
    /// The decoded tree of this dataset version. Built lazily per
    /// state version; reset by every update.
    mirror: OnceLock<Arc<TreeMirror>>,
}

impl Clone for PruneState {
    fn clone(&self) -> PruneState {
        // The mirror is deliberately NOT carried over: cloning happens
        // on copy-on-write update paths, where the tree is changing.
        PruneState {
            d: self.d,
            blocks: self.blocks.clone(),
            mirror: OnceLock::new(),
        }
    }
}

impl PruneState {
    /// Attribute dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Skyline cardinality.
    pub fn skyline_len(&self) -> usize {
        self.blocks.len()
    }

    /// The skyline records (materialized).
    pub fn skyline_records(&self) -> Vec<Record> {
        self.blocks.materialize()
    }

    /// The columnar skyline store.
    pub fn skyline_blocks(&self) -> &RecordBlocks {
        &self.blocks
    }

    /// The decoded tree for this dataset version, building it on first
    /// use. The caller must hold the tree lock that the serving layer
    /// uses to serialize queries against updates.
    ///
    /// # Panics
    /// When the cached mirror no longer matches `tree` — a caller
    /// mutated the tree without routing the update through
    /// [`PruneIndex::on_insert`] / [`PruneIndex::on_delete`].
    pub fn mirror(&self, tree: &RTree) -> Result<Arc<TreeMirror>, RTreeError> {
        if let Some(m) = self.mirror.get() {
            assert!(
                m.root_page() == tree.root_page() && m.num_records() == tree.len(),
                "stale tree mirror: updates must go through the prune index"
            );
            return Ok(m.clone());
        }
        let built = Arc::new(TreeMirror::build(tree)?);
        Ok(self.mirror.get_or_init(|| built).clone())
    }
}

/// Screens one record for promotion: inside the deleted member's
/// dominance region, not a current skyline member, not dominated by the
/// remaining skyline or an already-promoted record.
fn consider_record(
    rec: &Record,
    pivot: &PointD,
    blocks: &RecordBlocks,
    promoted: &mut SkylineSet<Record>,
    seen: &mut HashSet<u64>,
) {
    if blocks.contains(rec.id) || seen.contains(&rec.id) || !dominates(pivot, &rec.attrs) {
        return;
    }
    if blocks.dominates_any_except(rec.attrs.coords(), &[]) || promoted.dominated(&rec.attrs) {
        return;
    }
    seen.insert(rec.id);
    promoted.insert(rec.attrs.clone(), rec.clone());
}

/// The skyline repair after deleting the member at `pivot`: the
/// records its dominance was hiding. A subtree is opened only when its
/// box intersects the pivot's dominance region (`mbb.lo ≤ pivot`)
/// **and** the box corner *clipped to the pivot* — the best point a
/// hidden record could occupy — is not already dominated. The clipping
/// is what keeps the walk local: the surviving volume is the thin
/// exclusive-dominance shell right under the pivot, not its whole
/// dominance cone.
fn promote_walk(
    tree: &RTree,
    pivot: &PointD,
    blocks: &RecordBlocks,
) -> Result<SkylineSet<Record>, RTreeError> {
    let d = pivot.dim();
    debug_assert!(d <= 16, "rtree dimensionality bound");
    let mut clipped = [0.0f64; 16];
    let mut found = (SkylineSet::new(), HashSet::new());
    SearchState::default().sweep(
        tree,
        vec![(tree.root_page(), None)],
        &mut found,
        |(promoted, _), m| {
            for j in 0..d {
                // A record dominated by the pivot is ≤ it on every
                // dimension; impossible when the box floor exceeds it
                // anywhere.
                if m.lo[j] > pivot[j] {
                    return true;
                }
                clipped[j] = m.hi[j].min(pivot[j]);
            }
            blocks.dominates_any_except(&clipped[..d], &[])
                || promoted.dominated_slice(&clipped[..d])
        },
        |(promoted, seen), rec| consider_record(rec, pivot, blocks, promoted, seen),
    )?;
    Ok(found.0)
}

/// A lazily-built, incrementally-maintained, concurrently-shareable
/// prune index (see module docs). One per dataset / shard.
#[derive(Debug, Default)]
pub struct PruneIndex {
    inner: RwLock<Option<Arc<PruneState>>>,
    /// Shared Phase-2 systems keyed by (method, result set, pivot);
    /// maintained *exactly* under deltas — see
    /// [`PruneIndex::on_insert`] / [`PruneIndex::on_delete`].
    phase2: RwLock<HashMap<Phase2Key, Phase2Entry>>,
    builds: AtomicU64,
    serves: AtomicU64,
    inserts: AtomicU64,
    fast_deletes: AtomicU64,
    repaired_deletes: AtomicU64,
    phase2_hits: AtomicU64,
    phase2_misses: AtomicU64,
}

impl PruneIndex {
    /// An empty index; the skyline is built on the first
    /// [`PruneIndex::snapshot`].
    pub fn new() -> PruneIndex {
        PruneIndex::default()
    }

    /// True when the skyline has been built and not invalidated since.
    pub fn is_built(&self) -> bool {
        self.read().is_some()
    }

    /// The Phase-2 cache-hit counter alone — one atomic load, no
    /// skyline lock. The serve layer reads this before and after every
    /// indexed miss dispatch to tell the planner whether the Phase-2
    /// system was actually reused, so it must stay off the full
    /// [`PruneIndex::stats`] snapshot path.
    pub fn phase2_hits(&self) -> u64 {
        self.phase2_hits.load(Ordering::Relaxed)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PruneIndexStats {
        PruneIndexStats {
            builds: self.builds.load(Ordering::Relaxed),
            serves: self.serves.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            fast_deletes: self.fast_deletes.load(Ordering::Relaxed),
            repaired_deletes: self.repaired_deletes.load(Ordering::Relaxed),
            phase2_hits: self.phase2_hits.load(Ordering::Relaxed),
            phase2_misses: self.phase2_misses.load(Ordering::Relaxed),
            skyline_size: self.read().map_or(0, |s| s.skyline_len()),
        }
    }

    /// Looks up the shared Phase-2 system for
    /// `(kind, method, result, p_k)` under `scoring`. `result_ids` must
    /// be sorted for [`RegionKind::Gir`] and in rank order for
    /// [`RegionKind::GirStar`] (see [`Phase2Key`]). Returns the
    /// half-spaces (shared, not cloned) and the producing computation's
    /// structure size.
    pub(crate) fn phase2_lookup(
        &self,
        kind: RegionKind,
        method: Method,
        result_ids: &[u64],
        pk: u64,
        scoring: &ScoringFunction,
    ) -> Option<(Arc<Vec<HalfSpace>>, usize)> {
        let key = Phase2Key {
            kind,
            method,
            pk,
            result: result_ids.to_vec(),
        };
        let guard = self.phase2.read().unwrap_or_else(PoisonError::into_inner);
        let entry = guard.get(&key).filter(|e| e.scoring == *scoring);
        match entry {
            Some(e) => {
                self.phase2_hits.fetch_add(1, Ordering::Relaxed);
                Some((e.halfspaces.clone(), e.structure))
            }
            None => {
                self.phase2_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Admits a freshly computed Phase-2 system. `star_pivots` carries
    /// the `(rank, g(p_rank))` pivots of a GIR\* system (`R⁻` only) and
    /// must be empty for [`RegionKind::Gir`] entries.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn phase2_admit(
        &self,
        kind: RegionKind,
        method: Method,
        result_ids: Vec<u64>,
        pk: u64,
        scoring: &ScoringFunction,
        pk_t: PointD,
        star_pivots: Vec<(usize, PointD)>,
        halfspaces: Arc<Vec<HalfSpace>>,
        structure: usize,
    ) {
        debug_assert!(kind == RegionKind::GirStar || star_pivots.is_empty());
        let mut guard = self.phase2.write().unwrap_or_else(PoisonError::into_inner);
        if guard.len() >= PHASE2_CACHE_CAP {
            guard.clear();
        }
        guard.insert(
            Phase2Key {
                kind,
                method,
                pk,
                result: result_ids,
            },
            Phase2Entry {
                scoring: scoring.clone(),
                pk_t,
                star_pivots,
                halfspaces,
                structure,
            },
        );
    }

    /// Drops the shared Phase-2 systems that name record `id` — as a
    /// result member of their key or as a constraint contributor —
    /// without touching the skyline or mirror.
    ///
    /// Sharded datasets call this on every **non-owning** shard when a
    /// record is deleted: the skyline repair is the owning shard's
    /// business ([`PruneIndex::on_delete`]), but a foreign shard may
    /// hold Phase-2 systems keyed by a global result set that contained
    /// the deleted record (or pivoted on it), and a later re-insert of
    /// the same id at a different location could make such a key
    /// reachable again with a stale pivot.
    pub fn purge_record(&self, id: u64) {
        self.phase2
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|key, entry| {
                !key.result.contains(&id)
                    && !entry.halfspaces.iter().any(|h| match h.provenance {
                        Provenance::NonResult { record_id }
                        | Provenance::StarNonResult { record_id, .. } => record_id == id,
                        _ => false,
                    })
            });
    }

    /// Drops the shared Phase-2 systems only (skyline and mirror
    /// survive); they rebuild lazily on the next miss per result set.
    /// A diagnostic/benchmark hook — `cold_gir` uses it to time the
    /// Phase-2 *recompute* path separately from the steady-state reuse
    /// path.
    pub fn clear_phase2(&self) {
        self.phase2
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    fn read(&self) -> Option<Arc<PruneState>> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Drops the built state and the shared Phase-2 systems; the next
    /// snapshot rebuilds from scratch. The sound fallback for
    /// conditions the incremental updates do not model (duplicate
    /// record ids).
    pub fn invalidate(&self) {
        *self.inner.write().unwrap_or_else(PoisonError::into_inner) = None;
        self.clear_phase2();
    }

    /// The current state, building it from `tree` on first use.
    /// Concurrent callers share one build (double-checked under the
    /// write lock).
    pub fn snapshot(&self, tree: &RTree) -> Result<Arc<PruneState>, RTreeError> {
        if let Some(state) = self.read() {
            self.serves.fetch_add(1, Ordering::Relaxed);
            return Ok(state);
        }
        let mut guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(state) = guard.as_ref() {
            self.serves.fetch_add(1, Ordering::Relaxed);
            return Ok(state.clone());
        }
        let state = Arc::new(build_state(tree)?);
        *guard = Some(state.clone());
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.serves.fetch_add(1, Ordering::Relaxed);
        Ok(state)
    }

    /// Absorbs a dataset insertion (call *after* the tree mutation,
    /// under the tree's exclusive lock). One fused dominance scan for
    /// the skyline; the shared Phase-2 systems absorb the newcomer's
    /// score-order half-space *exactly* (the true region for an
    /// unchanged result set is the old one intersected with it — same
    /// argument as `crate::maintenance`). No tree I/O. Resets the
    /// version-scoped mirror.
    pub fn on_insert(&self, rec: &Record) {
        // Phase-2 systems first: maintained even when the skyline was
        // never built (they may exist independently of it).
        {
            let mut p2 = self.phase2.write().unwrap_or_else(PoisonError::into_inner);
            for entry in p2.values_mut() {
                let rec_t = entry.scoring.transform_point(&rec.attrs);
                // A newcomer dominated by a pivot (in transformed space)
                // can never out-score it: that constraint is redundant.
                let dominated = |pivot: &PointD| {
                    rec_t
                        .coords()
                        .iter()
                        .zip(pivot.coords())
                        .all(|(&a, &b)| a - b <= EPS)
                };
                if entry.star_pivots.is_empty() {
                    if dominated(&entry.pk_t) {
                        continue;
                    }
                    Arc::make_mut(&mut entry.halfspaces).push(HalfSpace::score_order(
                        &entry.pk_t,
                        &rec_t,
                        Provenance::NonResult { record_id: rec.id },
                    ));
                } else {
                    // GIR* system: one condition per surviving rank
                    // pivot (`R⁻`) that does not dominate the newcomer —
                    // exactly the constraints a from-scratch star sweep
                    // would retain for it (or strictly more; extras are
                    // genuine conditions, hence redundant not wrong).
                    for (rank, pivot) in &entry.star_pivots {
                        if dominated(pivot) {
                            continue;
                        }
                        Arc::make_mut(&mut entry.halfspaces).push(HalfSpace::score_order(
                            pivot,
                            &rec_t,
                            Provenance::StarNonResult {
                                rank: *rank,
                                record_id: rec.id,
                            },
                        ));
                    }
                }
            }
        }
        let mut guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let Some(arc) = guard.as_mut() else {
            return; // skyline not built yet: nothing else to maintain
        };
        if arc.blocks.contains(rec.id) {
            // Duplicate id: outside the incremental model — rebuild
            // lazily rather than risk an inconsistent index.
            *guard = None;
            drop(guard);
            self.clear_phase2();
            return;
        }
        let dominated = arc.blocks.dominates_any_except(rec.attrs.coords(), &[]);
        let state = Arc::make_mut(arc);
        if !dominated {
            let mut evicted: Vec<u64> = Vec::new();
            state.blocks.dominated_by(rec.attrs.coords(), &mut evicted);
            for id in evicted {
                state.blocks.remove(id);
            }
            state.blocks.push(rec);
        }
        state.mirror = OnceLock::new();
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Absorbs a dataset deletion (call *after* the tree mutation,
    /// under the tree's exclusive lock). Non-skyline deletions are a
    /// set lookup; skyline deletions run a localized repair descent
    /// over the (already mutated) tree. Shared Phase-2 systems whose
    /// result set or constraint contributors include the deleted
    /// record are dropped (their exact repair is a recompute); all
    /// others are provably unaffected — a non-contributor's constraint
    /// was redundant, so removing the record leaves the region
    /// unchanged. Resets the version-scoped mirror. On an
    /// index error the state is invalidated before the error
    /// propagates — a later snapshot rebuilds from scratch.
    pub fn on_delete(&self, tree: &RTree, id: u64, attrs: &PointD) -> Result<(), RTreeError> {
        self.purge_record(id);
        let mut guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let Some(arc) = guard.as_mut() else {
            return Ok(());
        };
        let stored = arc.blocks.get(id);
        match stored {
            None => {
                let state = Arc::make_mut(arc);
                state.mirror = OnceLock::new();
                self.fast_deletes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Some(stored) if stored != *attrs => {
                // Same id at a different location (duplicate ids):
                // outside the incremental model.
                *guard = None;
                Ok(())
            }
            Some(_) => {
                let state = Arc::make_mut(arc);
                state.blocks.remove(id);
                state.mirror = OnceLock::new();
                let promoted = match promote_walk(tree, attrs, &state.blocks) {
                    Ok(promoted) => promoted,
                    Err(e) => {
                        *guard = None;
                        return Err(e);
                    }
                };
                for (_, rec) in promoted.into_entries() {
                    state.blocks.push(&rec);
                }
                self.repaired_deletes.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }
}

/// Builds the full-dataset skyline via a root-seeded BBS descent.
fn build_state(tree: &RTree) -> Result<PruneState, RTreeError> {
    let sky = bbs_skyline(
        tree,
        SearchState::from_root(tree.root_page()),
        &HashSet::new(),
    )?;
    let d = tree.dim();
    let mut blocks = RecordBlocks::new(d);
    for (_, rec) in sky.into_entries() {
        blocks.push(&rec);
    }
    Ok(PruneState {
        d,
        blocks,
        mirror: OnceLock::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_query::naive_skyline;
    use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};

    fn setup(n: usize, d: usize, seed: u64) -> (Vec<Record>, RTree) {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let recs: Vec<Record> = (0..n)
            .map(|i| Record::new(i as u64, (0..d).map(|_| next()).collect::<Vec<_>>()))
            .collect();
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &recs).unwrap();
        (recs, tree)
    }

    fn sorted_ids(recs: &[Record]) -> Vec<u64> {
        let mut ids: Vec<u64> = recs.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn lazy_build_matches_naive_skyline() {
        let (recs, tree) = setup(1200, 3, 0x11);
        let index = PruneIndex::new();
        assert!(!index.is_built());
        let state = index.snapshot(&tree).unwrap();
        assert!(index.is_built());
        assert_eq!(
            sorted_ids(&state.skyline_records()),
            sorted_ids(&naive_skyline(&recs))
        );
        // Second snapshot reuses the build.
        let _ = index.snapshot(&tree).unwrap();
        let stats = index.stats();
        assert_eq!(stats.builds, 1);
        assert_eq!(stats.serves, 2);
        assert_eq!(stats.skyline_size, state.skyline_len());
    }

    #[test]
    fn incremental_insert_and_delete_match_rebuild() {
        let (recs, mut tree) = setup(600, 2, 0x13);
        let index = PruneIndex::new();
        let _ = index.snapshot(&tree).unwrap();

        // Insert a competitive record: joins the skyline, evicts the
        // members it dominates.
        let champ = Record::new(900_001, vec![0.97, 0.96]);
        tree.insert(champ.clone()).unwrap();
        index.on_insert(&champ);
        let fresh = PruneIndex::new();
        assert_eq!(
            sorted_ids(&index.snapshot(&tree).unwrap().skyline_records()),
            sorted_ids(&fresh.snapshot(&tree).unwrap().skyline_records()),
        );

        // Delete it again: the repair descent must resurface what it hid.
        assert!(tree.delete(champ.id, &champ.attrs).unwrap());
        index.on_delete(&tree, champ.id, &champ.attrs).unwrap();
        let fresh = PruneIndex::new();
        assert_eq!(
            sorted_ids(&index.snapshot(&tree).unwrap().skyline_records()),
            sorted_ids(&fresh.snapshot(&tree).unwrap().skyline_records()),
        );
        let stats = index.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.repaired_deletes, 1);
        let _ = &recs;
    }

    #[test]
    fn dominated_churn_is_absorbed_without_descent() {
        let (_, mut tree) = setup(400, 2, 0x14);
        let index = PruneIndex::new();
        let before = index.snapshot(&tree).unwrap().skyline_len();
        let dud = Record::new(900_002, vec![0.01, 0.01]);
        tree.insert(dud.clone()).unwrap();
        index.on_insert(&dud);
        assert!(tree.delete(dud.id, &dud.attrs).unwrap());
        index.on_delete(&tree, dud.id, &dud.attrs).unwrap();
        let stats = index.stats();
        assert_eq!(stats.fast_deletes, 1);
        assert_eq!(stats.repaired_deletes, 0);
        assert_eq!(index.snapshot(&tree).unwrap().skyline_len(), before);
    }

    #[test]
    fn mirror_is_reset_by_updates_and_rebuilt_fresh() {
        let (_, mut tree) = setup(500, 2, 0x17);
        let index = PruneIndex::new();
        let state = index.snapshot(&tree).unwrap();
        let m0 = state.mirror(&tree).unwrap();
        assert_eq!(m0.num_records(), tree.len());
        // A dominated insert leaves the skyline alone but must still
        // reset the mirror: the tree changed.
        let dud = Record::new(900_004, vec![0.02, 0.02]);
        tree.insert(dud.clone()).unwrap();
        index.on_insert(&dud);
        let state2 = index.snapshot(&tree).unwrap();
        let m1 = state2.mirror(&tree).unwrap();
        assert_eq!(m1.num_records(), tree.len());
        assert_eq!(m1.num_records(), m0.num_records() + 1);
    }

    #[test]
    fn invalidate_forces_rebuild() {
        let (_, tree) = setup(200, 2, 0x16);
        let index = PruneIndex::new();
        let _ = index.snapshot(&tree).unwrap();
        index.invalidate();
        assert!(!index.is_built());
        let _ = index.snapshot(&tree).unwrap();
        assert_eq!(index.stats().builds, 2);
    }
}

//! The shared prune-index: query-independent pruning state for the
//! cold-miss fast path.
//!
//! Every cache miss of the serving layer used to rebuild the same
//! query-*independent* structures from scratch: the dataset skyline
//! (resumed BBS over the retained BRS heap), the convex hull of the
//! skyline (CP), and the R\*-tree descent state (page fetches *and
//! decodes* along every BRS/Phase-2 walk). [`PruneIndex`] hoists all of
//! it out of the per-query path:
//!
//! * the **dataset skyline** is computed once (lazily, on the first
//!   miss) and stored column-major in [`RecordBlocks`] so the per-query
//!   dominance scans run as fused, block-skipping kernels; the
//!   per-block **corner maxima** act as precomputed score/dominance
//!   bounds that let scans skip whole blocks;
//! * the **convex hull of the skyline** (the CP §5.2 pruning structure)
//!   is derived lazily per index version and reused verbatim whenever
//!   the query's result does not intersect the skyline;
//! * the **tree mirror** ([`TreeMirror`]) shares the tree's decoded
//!   nodes per dataset version, so BRS and the Phase-2 sweeps of a miss
//!   traverse plain in-memory vectors — no page I/O, no
//!   deserialization.
//!
//! Per query, `skyline(D \ R)` is derived from the shared skyline in
//! time proportional to `|R ∩ skyline|`: result members are masked out
//! and the records their dominance was hiding are promoted from the
//! retained search frontier ([`PruneState::skyline_excluding`]).
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
//! * the hull and the tree mirror are version-scoped: any skyline or
//!   tree change resets them, and the next miss rebuilds lazily
//!   (amortized across the batch it serves).
//!
//! An equivalence property test (`tests/proptest_prune_index.rs`)
//! checks that the incrementally-maintained index is structurally
//! identical to one rebuilt from scratch after any interleaving of
//! updates, and that GIRs served through it match the no-index oracle.

use crate::engine::Method;
use crate::mirror::{Frontier, FrontierEntry, TreeMirror};
use crate::region::RegionKind;
use gir_geometry::dominance::{dominates, SkylineSet};
use gir_geometry::hull::ConvexHull;
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::vector::PointD;
use gir_geometry::EPS;
use gir_query::{bbs_skyline, HeapEntry, RecordBlocks, ScoringFunction, SearchState, TopKResult};
use gir_rtree::{Mbb, NodeEntries, RTree, RTreeError, Record};
use gir_storage::PageId;
use std::collections::{BinaryHeap, HashMap, HashSet};
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
    /// Ids of skyline records on the convex hull of the skyline —
    /// `None` once computed means the hull was degenerate (CP then
    /// falls back to the whole skyline, exactly like
    /// [`crate::cp::hull_filter`]). Built lazily per state version.
    hull: OnceLock<Option<Vec<u64>>>,
    /// The decoded tree of this dataset version. Built lazily per
    /// state version; reset by every update.
    mirror: OnceLock<Arc<TreeMirror>>,
}

impl Clone for PruneState {
    fn clone(&self) -> PruneState {
        let hull = OnceLock::new();
        if let Some(h) = self.hull.get() {
            let _ = hull.set(h.clone());
        }
        // The mirror is deliberately NOT carried over: cloning happens
        // on copy-on-write update paths, where the tree is changing.
        PruneState {
            d: self.d,
            blocks: self.blocks.clone(),
            hull,
            mirror: OnceLock::new(),
        }
    }
}

/// `skyline(D \ R)` derived from the shared skyline for one query.
#[derive(Debug, Clone)]
pub struct ExcludedSkyline {
    /// The skyline of the non-result records.
    pub records: Vec<Record>,
    /// True when the result intersected the dataset skyline (some
    /// members were masked and replacements promoted) — the cached
    /// hull-of-skyline does not apply then.
    pub touched: bool,
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

    /// Ids of skyline records on the convex hull of the skyline
    /// (sorted, so membership is a binary search), built on first use
    /// for this state version. `None` when the hull is degenerate (too
    /// few points or a lower-dimensional flat).
    pub fn hull_ids(&self) -> Option<&[u64]> {
        self.hull
            .get_or_init(|| {
                let recs = self.blocks.materialize();
                let points: Vec<PointD> = recs.iter().map(|r| r.attrs.clone()).collect();
                ConvexHull::build(&points).ok().map(|h| {
                    let mut ids: Vec<u64> =
                        h.vertex_indices().into_iter().map(|i| recs[i].id).collect();
                    ids.sort_unstable();
                    ids
                })
            })
            .as_deref()
    }

    /// The CP candidate set of an excluded skyline: its convex-hull
    /// members, reusing the cached hull-of-skyline when the result left
    /// the shared skyline untouched (then the cached hull IS the hull
    /// of the candidate set), hull-filtering the derived set otherwise.
    /// The one implementation shared by the single-tree indexed path
    /// and both sharded Phase-2 forms, so the reuse condition cannot
    /// drift between them.
    pub fn hull_candidates<'a>(&self, sky: &'a ExcludedSkyline) -> Vec<&'a Record> {
        match (sky.touched, self.hull_ids()) {
            (false, Some(hull)) => sky
                .records
                .iter()
                .filter(|r| hull.binary_search(&r.id).is_ok())
                .collect(),
            _ => {
                let kept = crate::cp::hull_filter(&sky.records);
                let ids: HashSet<u64> = kept.iter().map(|r| r.id).collect();
                sky.records.iter().filter(|r| ids.contains(&r.id)).collect()
            }
        }
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

    /// Derives `skyline(D \ R)` for the result `R`: shared skyline
    /// minus the result members, plus — when result members were
    /// themselves skyline members — the records their dominance was
    /// hiding.
    ///
    /// The promotion reuses the retained BRS `state` (§3.3): the heap
    /// is an exact frontier of the dataset, so every candidate is
    /// either a record BRS already fetched (screened in memory) or
    /// lies under an unexpanded heap node, which is opened only when
    /// its box corner *clipped to a masked pivot* is not already
    /// dominated.
    pub fn skyline_excluding(
        &self,
        tree: &RTree,
        result: &TopKResult,
        state: SearchState,
    ) -> Result<ExcludedSkyline, RTreeError> {
        self.exclude_inner(NodeAccess::Tree(tree), result, |stack, consider| {
            for entry in state.heap.into_vec() {
                match entry {
                    HeapEntry::Rec { record, .. } => consider(&record),
                    HeapEntry::Node { page, mbb, .. } => stack.push((mbb, page)),
                }
            }
        })
    }

    /// [`PruneState::skyline_excluding`] over the decoded mirror and
    /// its retained frontier — the zero-I/O form the serving miss path
    /// uses.
    pub fn skyline_excluding_mirror(
        &self,
        mirror: &TreeMirror,
        result: &TopKResult,
        frontier: Frontier<'_>,
    ) -> ExcludedSkyline {
        self.exclude_inner(NodeAccess::Mirror(mirror), result, |stack, consider| {
            for entry in frontier.heap.into_vec() {
                match entry {
                    FrontierEntry::Rec { rec, .. } => consider(rec),
                    FrontierEntry::Node { page, mbb, .. } => stack.push((mbb.cloned(), page)),
                }
            }
        })
        .expect("mirror walks perform no I/O")
    }

    fn exclude_inner(
        &self,
        access: NodeAccess<'_>,
        result: &TopKResult,
        seed: impl FnOnce(&mut Vec<(Option<Mbb>, PageId)>, &mut dyn FnMut(&Record)),
    ) -> Result<ExcludedSkyline, RTreeError> {
        let result_ids = result.ids();
        let mut records = self.blocks.materialize_if(|id| !result_ids.contains(&id));
        let pivots: Vec<PointD> = result
            .ranked
            .iter()
            .map(|(r, _)| r)
            .filter(|r| self.blocks.contains(r.id))
            .map(|r| r.attrs.clone())
            .collect();
        if pivots.is_empty() {
            return Ok(ExcludedSkyline {
                records,
                touched: false,
            });
        }
        let mut promoted: SkylineSet<Record> = SkylineSet::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Option<Mbb>, PageId)> = Vec::new();
        seed(&mut stack, &mut |rec| {
            consider_record(
                rec,
                &pivots,
                &self.blocks,
                &result_ids,
                &mut promoted,
                &mut seen,
            )
        });
        promote_walk(
            access,
            &pivots,
            &self.blocks,
            &result_ids,
            stack,
            &mut promoted,
            &mut seen,
        )?;
        records.extend(promoted.into_entries().into_iter().map(|(_, r)| r));
        Ok(ExcludedSkyline {
            records,
            touched: true,
        })
    }
}

/// Node access for the promotion walk: the live tree (one logical page
/// fetch per node) or the cached mirror (no I/O).
enum NodeAccess<'a> {
    Tree(&'a RTree),
    Mirror(&'a TreeMirror),
}

impl NodeAccess<'_> {
    fn visit<R>(&self, page: PageId, f: impl FnOnce(&NodeEntries) -> R) -> Result<R, RTreeError> {
        match self {
            NodeAccess::Tree(tree) => Ok(f(&tree.read_node(page)?.entries)),
            NodeAccess::Mirror(mirror) => Ok(f(mirror.node(page))),
        }
    }
}

/// Screens one record for promotion: inside some pivot's dominance
/// region, not a current skyline member, not masked, and not dominated
/// by the shared skyline (`except` masked out) or an already-promoted
/// record.
fn consider_record(
    rec: &Record,
    pivots: &[PointD],
    blocks: &RecordBlocks,
    except: &[u64],
    promoted: &mut SkylineSet<Record>,
    seen: &mut HashSet<u64>,
) {
    if blocks.contains(rec.id)
        || except.contains(&rec.id)
        || seen.contains(&rec.id)
        || !pivots.iter().any(|p| dominates(p, &rec.attrs))
    {
        return;
    }
    if blocks.dominates_any_except(rec.attrs.coords(), except) || promoted.dominated(&rec.attrs) {
        return;
    }
    seen.insert(rec.id);
    promoted.insert(rec.attrs.clone(), rec.clone());
}

/// The node walk of the promotion: a subtree is opened only when, for
/// some pivot, its box intersects that pivot's dominance region
/// (`mbb.lo ≤ pivot`) **and** the box corner *clipped to the pivot* —
/// the best point a candidate under this pivot could occupy — is not
/// already dominated. The clipping is what keeps the walk local: the
/// surviving volume is the thin exclusive-dominance shell right under
/// the pivots, not the pivots' whole dominance cone.
fn promote_walk(
    access: NodeAccess<'_>,
    pivots: &[PointD],
    blocks: &RecordBlocks,
    except: &[u64],
    mut stack: Vec<(Option<Mbb>, PageId)>,
    promoted: &mut SkylineSet<Record>,
    seen: &mut HashSet<u64>,
) -> Result<(), RTreeError> {
    debug_assert!(!pivots.is_empty());
    let d = pivots[0].dim();
    debug_assert!(d <= 16, "rtree dimensionality bound");
    let mut clipped = [0.0f64; 16];
    let mut children: Vec<(Option<Mbb>, PageId)> = Vec::new();
    'walk: while let Some((mbb, page)) = stack.pop() {
        if let Some(m) = &mbb {
            let mut open = false;
            'pivot: for p in pivots {
                for j in 0..d {
                    // A record dominated by `p` is ≤ p on every
                    // dimension; impossible when the box floor exceeds
                    // it anywhere.
                    if m.lo[j] > p[j] {
                        continue 'pivot;
                    }
                    clipped[j] = m.hi[j].min(p[j]);
                }
                if !blocks.dominates_any_except(&clipped[..d], except)
                    && !promoted.dominated_slice(&clipped[..d])
                {
                    open = true;
                    break;
                }
            }
            if !open {
                continue 'walk;
            }
        }
        access.visit(page, |entries| match entries {
            NodeEntries::Internal(cs) => {
                children.extend(cs.iter().map(|(m, c)| (Some(m.clone()), *c)));
            }
            NodeEntries::Leaf(recs) => {
                for rec in recs {
                    consider_record(rec, pivots, blocks, except, promoted, seen);
                }
            }
        })?;
        stack.append(&mut children);
    }
    Ok(())
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
    /// without touching the skyline, hull or mirror.
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

    /// Drops the shared Phase-2 systems only (skyline, hull and mirror
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
    /// version-scoped hull and mirror.
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
            state.hull = OnceLock::new();
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
    /// unchanged. Resets the version-scoped hull and mirror. On an
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
                state.hull = OnceLock::new();
                state.mirror = OnceLock::new();
                let mut promoted: SkylineSet<Record> = SkylineSet::new();
                let mut seen: HashSet<u64> = HashSet::new();
                let root = vec![(None, tree.root_page())];
                if let Err(e) = promote_walk(
                    NodeAccess::Tree(tree),
                    std::slice::from_ref(attrs),
                    &state.blocks,
                    &[],
                    root,
                    &mut promoted,
                    &mut seen,
                ) {
                    *guard = None;
                    return Err(e);
                }
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
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry::Node {
        page: tree.root_page(),
        maxscore: f64::INFINITY,
        mbb: None,
    });
    let state = SearchState {
        heap,
        leaf_pages_read: 0,
    };
    let sky = bbs_skyline(tree, state, &HashSet::new())?;
    let d = tree.dim();
    let mut blocks = RecordBlocks::new(d);
    for (_, rec) in sky.into_entries() {
        blocks.push(&rec);
    }
    Ok(PruneState {
        d,
        blocks,
        hull: OnceLock::new(),
        mirror: OnceLock::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_query::{brs_topk, naive_skyline, QueryVector, ScoringFunction};
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
    fn skyline_excluding_matches_bbs_resume() {
        let (recs, tree) = setup(1500, 3, 0x12);
        let index = PruneIndex::new();
        let state = index.snapshot(&tree).unwrap();
        let mirror = state.mirror(&tree).unwrap();
        let f = ScoringFunction::linear(3);
        for (k, wv) in [(5usize, vec![0.7, 0.4, 0.6]), (20, vec![0.2, 0.9, 0.5])] {
            let q = QueryVector::new(wv);
            let (res, brs_state) = brs_topk(&tree, &f, &q.weights, k).unwrap();
            let result_ids: HashSet<u64> = res.ids().into_iter().collect();
            let oracle = bbs_skyline(&tree, brs_state.clone(), &result_ids).unwrap();
            let oracle_ids: Vec<u64> = {
                let mut v: Vec<u64> = oracle.iter().map(|(_, r)| r.id).collect();
                v.sort_unstable();
                v
            };
            // Tree-walk form.
            let got = state.skyline_excluding(&tree, &res, brs_state).unwrap();
            assert_eq!(sorted_ids(&got.records), oracle_ids, "tree walk, k={k}");
            // The top result under positive weights is a skyline member:
            // derivation must have gone through the promotion path.
            assert!(got.touched);
            // Mirror form over the mirror's own frontier.
            let (res_m, frontier) = mirror.topk(&f, &q.weights, k);
            assert_eq!(res_m.ids(), res.ids());
            let got_m = state.skyline_excluding_mirror(&mirror, &res_m, frontier);
            assert_eq!(sorted_ids(&got_m.records), oracle_ids, "mirror walk, k={k}");
            let _ = &recs;
        }
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
    fn hull_ids_are_cached_per_version_and_reset_on_change() {
        let (_, mut tree) = setup(800, 3, 0x15);
        let index = PruneIndex::new();
        let state = index.snapshot(&tree).unwrap();
        let hull = state.hull_ids().expect("non-degenerate skyline hull");
        assert!(!hull.is_empty() && hull.len() <= state.skyline_len());
        // Hull members are skyline members.
        let sky = sorted_ids(&state.skyline_records());
        for id in hull {
            assert!(sky.binary_search(id).is_ok());
        }
        // An update produces a new version with a fresh (lazy) hull.
        let champ = Record::new(900_003, vec![0.99, 0.99, 0.99]);
        tree.insert(champ.clone()).unwrap();
        index.on_insert(&champ);
        let state2 = index.snapshot(&tree).unwrap();
        let hull2 = state2.hull_ids().expect("hull after update");
        assert!(hull2.contains(&champ.id));
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

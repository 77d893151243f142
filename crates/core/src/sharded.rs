//! Sharded GIR execution: one global region from S independent shards.
//!
//! The Phase-2 structure of a GIR is embarrassingly partitionable: the
//! region is the intersection of half-spaces, each induced by one
//! non-result record against the fixed pivot `p_k` (Definition 1), so
//! for any partition `D = D_1 ∪ … ∪ D_S` of the dataset,
//!
//! ```text
//! GIR(D) = ordering ∩ box ∩ ⋂_s { q' : S(p_k, q') ≥ S(p, q') ∀ p ∈ D_s \ R }
//! ```
//!
//! — per-shard constraint systems intersect to the global region. The
//! only cross-shard coupling is the top-k itself: `R` and `p_k` must be
//! computed *globally* before any shard can run Phase 2.
//!
//! [`gir_sharded`] executes that plan over S [`ShardView`]s (an R\*-tree
//! plus its own [`PruneIndex`]):
//!
//! 1. **Merge phase** — per-shard BRS over each shard's decoded
//!    [`crate::mirror::TreeMirror`] retrieves that shard's top-k
//!    candidate frontier; the S ranked lists merge by `(score, id)` —
//!    the exact tie order of the single-tree BRS heap — into the global
//!    top-k.
//! 2. **Per-shard Phase 2** — each shard re-seeds its retained frontier
//!    with its *leftovers* (shard-ranked records that did not make the
//!    global result: they are non-result candidates the frontier no
//!    longer covers) and runs the method's Phase 2 against the global
//!    `p_k` over its mirror: SP/CP resume BBS from the frontier exactly
//!    as the cold path does, FP sweeps the frontier with an
//!    incident-facet star seeded from the cached shard skyline, and a
//!    recurring `(method, global result set, p_k)` reuses the shard's
//!    shared Phase-2 system.
//! 3. **Intersection** — the per-shard half-space systems concatenate
//!    with the global ordering constraints into one [`GirRegion`].
//!
//! A single tree is the S = 1 case: `GirEngine::gir_indexed` is this
//! plan over one view.
//!
//! The produced region is pointwise identical to the single-tree
//! region: each shard's system bounds exactly the locus where `p_k`
//! beats that shard's non-result records, and the intersection over
//! shards is the global locus. Only the retained half-space *list* may
//! differ in redundant members (a record critical within its shard may
//! be redundant globally). The differential harness
//! (`tests/proptest_shard.rs`) pins this equivalence — top-k, sampled
//! membership, and reduced facet set — for S ∈ {1,2,4,8} under random
//! update interleavings.

use crate::cp::cp_phase2;
use crate::engine::{GirError, GirOutput, GirStats, Method};
use crate::fullscan::fullscan_phase2;
use crate::gir_star::{reduced_result, star_phase2, StarMethod};
use crate::mirror::{fp_sweep_mirror, TreeMirror};
use crate::phase1::ordering_halfspaces;
use crate::prune::{PruneIndex, PruneState};
use crate::region::{GirRegion, RegionKind};
use crate::sp::sp_phase2;
use gir_geometry::hyperplane::HalfSpace;
use gir_geometry::vector::PointD;
use gir_query::{QueryVector, Record, ScoringFunction, SearchState, TopKResult};
use gir_rtree::RTree;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// One shard of a partitioned dataset: an independent R\*-tree with its
/// own prune index. The record-id spaces of the shards must be
/// disjoint (a record lives in exactly one shard).
#[derive(Clone, Copy)]
pub struct ShardView<'a> {
    /// The shard's R\*-tree.
    pub tree: &'a RTree,
    /// The shard's prune index (skyline, mirror, shared Phase-2
    /// systems — all scoped to this shard's records).
    pub index: &'a PruneIndex,
}

/// Merges per-shard ranked lists into the global top-k.
///
/// Order is `(score desc, id desc)` — exactly the pop order of the
/// single-tree BRS heap on record ties, so the merged result (and its
/// `p_k`) is bit-identical to `brs_topk` over one tree holding the
/// union. This is the same merge the distributed coordinator
/// (`gir-rpc`) runs over worker-returned rankings, which is what makes
/// the two execution plans bit-for-bit comparable.
pub fn merge_ranked_lists<'a>(
    runs: impl IntoIterator<Item = &'a TopKResult>,
    k: usize,
) -> Vec<(Record, f64)> {
    let mut merged: Vec<&(Record, f64)> = runs.into_iter().flat_map(|res| &res.ranked).collect();
    merged.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| b.0.id.cmp(&a.0.id)));
    merged.into_iter().take(k).cloned().collect()
}

fn merge_ranked(runs: &[(TopKResult, SearchState)], k: usize) -> Vec<(Record, f64)> {
    merge_ranked_lists(runs.iter().map(|(res, _)| res), k)
}

/// Global top-k over S shards by merging per-shard BRS frontiers (the
/// merge phase of [`gir_sharded`] alone — no Phase 2).
pub fn topk_sharded(
    shards: &[ShardView<'_>],
    scoring: &ScoringFunction,
    q: &QueryVector,
    k: usize,
) -> Result<TopKResult, GirError> {
    let (_states, mirrors) = snapshot_shards(shards)?;
    let runs: Vec<(TopKResult, SearchState)> = mirrors
        .iter()
        .map(|m| m.topk(scoring, &q.weights, k))
        .collect();
    let ranked = merge_ranked(&runs, k);
    if ranked.is_empty() {
        return Err(GirError::EmptyResult);
    }
    Ok(TopKResult { ranked })
}

/// Per-shard prune-index snapshots and decoded mirrors, in shard order.
type ShardSnapshots = (Vec<Arc<PruneState>>, Vec<Arc<TreeMirror>>);

/// Fetches every shard's prune-index snapshot and decoded mirror (lazy
/// builds amortize across the queries the version serves).
fn snapshot_shards(shards: &[ShardView<'_>]) -> Result<ShardSnapshots, GirError> {
    let mut states = Vec::with_capacity(shards.len());
    let mut mirrors = Vec::with_capacity(shards.len());
    for s in shards {
        let state = s.index.snapshot(s.tree)?;
        mirrors.push(state.mirror(s.tree)?);
        states.push(state);
    }
    Ok((states, mirrors))
}

/// Query-invariant Phase-2 context derived once from the merged global
/// result: the pivot, the cache key, and the membership set every
/// shard's sweep consults. Building it in one place keeps the
/// in-process fan-out and the distributed worker byte-identical.
pub struct GirPhase2Ctx {
    /// The global pivot `p_k`.
    pub kth: Record,
    /// Result ids, sorted — the GIR Phase-2 cache key.
    pub ids_sorted: Vec<u64>,
    /// Result ids as a membership set.
    pub result_id_set: HashSet<u64>,
}

impl GirPhase2Ctx {
    /// Derives the context from a non-empty merged result.
    pub fn new(result: &TopKResult) -> GirPhase2Ctx {
        let result_ids = result.ids();
        let mut ids_sorted = result_ids.clone();
        ids_sorted.sort_unstable();
        GirPhase2Ctx {
            kth: result.kth().clone(),
            ids_sorted,
            result_id_set: result_ids.iter().copied().collect(),
        }
    }
}

/// One shard's complete GIR Phase-2 stage: frontier re-seeding, the
/// Phase-2 cache probe, the method sweep on a miss, and the admit —
/// exactly the per-shard closure body of [`gir_sharded`], extracted so
/// a distributed shard worker (`gir-rpc`) runs *this* code against its
/// own tree and index and stays bit-identical to the in-process plan.
///
/// Returns `(system, structure_size, cache_hit)`.
#[allow(clippy::too_many_arguments)]
pub fn shard_gir_system(
    shard: ShardView<'_>,
    state: &PruneState,
    mirror: &TreeMirror,
    scoring: &ScoringFunction,
    q: &QueryVector,
    method: Method,
    result: &TopKResult,
    ctx: &GirPhase2Ctx,
    shard_res: &TopKResult,
    mut frontier: SearchState,
) -> Result<(Arc<Vec<HalfSpace>>, usize, bool), GirError> {
    // Shard-ranked records that did not make the global result are
    // non-result candidates the retained frontier no longer covers
    // (BRS popped them): re-seed them before the sweep. Every
    // global-result member of this shard *was* popped by the shard's
    // own top-k (its score is ≥ the global k-th score), so the
    // adjusted frontier covers exactly `D_s \ R`.
    frontier.reseed(shard_res, |id| !ctx.result_id_set.contains(&id));

    if method == Method::FullScan {
        let (hs, st) = fullscan_phase2(shard.tree, scoring, &ctx.kth, &ctx.result_id_set)?;
        return Ok((Arc::new(hs), st.structure_size, false));
    }

    // The per-shard Phase-2 system depends only on (method, global
    // result set, p_k): reuse the shard's cached system when the
    // ranking recurs (maintained exactly under this shard's deltas).
    let lookup = shard.index.phase2_lookup(
        RegionKind::Gir,
        method,
        &ctx.ids_sorted,
        ctx.kth.id,
        scoring,
    );
    let cached = lookup.is_some();
    let (phase2, structure) = match lookup {
        Some(hit) => hit,
        None => {
            let (hs, structure) =
                shard_phase2(scoring, q, method, state, mirror, result, ctx, frontier)?;
            let hs = Arc::new(hs);
            shard.index.phase2_admit(
                RegionKind::Gir,
                method,
                ctx.ids_sorted.clone(),
                ctx.kth.id,
                scoring,
                scoring.transform_point(&ctx.kth.attrs),
                Vec::new(),
                hs.clone(),
                structure,
            );
            (hs, structure)
        }
    };
    Ok((phase2, structure, cached))
}

/// Computes the global top-k and its GIR over a sharded dataset (see
/// the module docs for the execution plan). All shards must share the
/// scoring function's dimensionality; `FullScan` reads every shard in
/// full (the oracle), the pruned methods run zero-I/O over the cached
/// mirrors.
pub fn gir_sharded(
    shards: &[ShardView<'_>],
    scoring: &ScoringFunction,
    q: &QueryVector,
    k: usize,
    method: Method,
) -> Result<GirOutput, GirError> {
    if !method.supports(scoring) {
        return Err(GirError::UnsupportedScoring { method });
    }
    if shards.is_empty() {
        return Err(GirError::EmptyResult);
    }
    let d = scoring.dim();
    for s in shards {
        assert_eq!(s.tree.dim(), d, "shard dimensionality mismatch");
    }

    // Shared-state fetch first, then I/O counters: lazy index builds are
    // amortized across the queries the version serves, not charged to
    // this query, so `topk_pages`/`gir_pages` stay comparable with
    // `GirEngine::gir`.
    let (states, mirrors) = snapshot_shards(shards)?;
    let io_before: Vec<_> = shards.iter().map(|s| s.tree.store().stats()).collect();

    // Total record count is the fan-out work measure: each shard task
    // scans its slice of the dataset, so small datasets stay inline
    // regardless of the shard count (`pool::MIN_ITEMS`).
    let work: usize = shards.iter().map(|s| s.tree.len() as usize).sum();

    let t0 = Instant::now();
    // Per-shard BRS fans out across the pool; results come back in
    // shard order (the pool preserves item order), so the merge below
    // sees exactly the sequential input.
    let runs: Vec<(TopKResult, SearchState)> =
        crate::pool::fan_out(mirrors.iter().map(Arc::as_ref).collect(), work, |si, m| {
            let _s = tracing::span!("shard_topk", shard = si);
            m.topk(scoring, &q.weights, k)
        });
    let merge_span = tracing::span!("merge", shards = shards.len());
    let ranked = merge_ranked(&runs, k);
    if ranked.is_empty() {
        return Err(GirError::EmptyResult);
    }
    let result = TopKResult { ranked };
    drop(merge_span);
    let topk_ms = t0.elapsed().as_secs_f64() * 1e3;
    let io_topk: Vec<_> = shards.iter().map(|s| s.tree.store().stats()).collect();

    let t1 = Instant::now();
    let phase1_span = tracing::span!("phase1", k = k);
    let mut halfspaces = ordering_halfspaces(&result, scoring);
    drop(phase1_span);
    let ctx = GirPhase2Ctx::new(&result);

    // The S Phase-2 sweeps are independent (each bounds `p_k` against
    // its own `D_s \ R` only): fan them out, then accumulate the
    // returned systems **in shard order** — the half-space list, the
    // stats, and any error surfaced are bit-identical to the
    // sequential path no matter which shard finishes first.
    let tasks: Vec<_> = shards.iter().zip(&states).zip(&mirrors).zip(runs).collect();
    let shard_outputs = crate::pool::fan_out(
        tasks,
        work,
        |si, (((shard, state), mirror), (shard_res, frontier))| {
            let mut shard_span =
                tracing::span!("shard_phase2", shard = si, method = method.label());
            let (phase2, structure, cached) = shard_gir_system(
                *shard,
                state.as_ref(),
                mirror.as_ref(),
                scoring,
                q,
                method,
                &result,
                &ctx,
                &shard_res,
                frontier,
            )?;
            if method != Method::FullScan {
                shard_span.record("cached", cached);
            }
            shard_span.record("candidates", phase2.len());
            Ok::<_, GirError>((phase2, structure))
        },
    );

    let mut candidates = 0usize;
    let mut structure_total = 0usize;
    for out in shard_outputs {
        let (phase2, structure) = out?;
        candidates += phase2.len();
        structure_total += structure;
        halfspaces.extend(phase2.iter().cloned());
    }

    let region = GirRegion::new(d, q.weights.clone(), halfspaces);
    let gir_cpu_ms = t1.elapsed().as_secs_f64() * 1e3;
    let io_after: Vec<_> = shards.iter().map(|s| s.tree.store().stats()).collect();

    let stats = GirStats {
        topk_ms,
        topk_pages: io_topk
            .iter()
            .zip(&io_before)
            .map(|(a, b)| a.reads_since(b))
            .sum(),
        gir_cpu_ms,
        gir_pages: io_after
            .iter()
            .zip(&io_topk)
            .map(|(a, b)| a.reads_since(b))
            .sum(),
        candidates,
        structure_size: structure_total,
        halfspaces: region.num_halfspaces(),
    };
    Ok(GirOutput {
        result,
        region,
        stats,
    })
}

/// One shard's Phase 2 against the *global* pivot: the shard's
/// contribution to the intersection. SP and CP are the cold path's
/// resumed BBS over the mirror; FP is the skyline-seeded star sweep.
#[allow(clippy::too_many_arguments)]
fn shard_phase2(
    scoring: &ScoringFunction,
    q: &QueryVector,
    method: Method,
    state: &PruneState,
    mirror: &TreeMirror,
    result: &TopKResult,
    ctx: &GirPhase2Ctx,
    frontier: SearchState,
) -> Result<(Vec<HalfSpace>, usize), GirError> {
    let kth = &ctx.kth;
    Ok(match method {
        Method::FacetPruning => fp_sweep_mirror(
            mirror,
            kth,
            frontier,
            state.skyline_blocks(),
            q.weights.coords(),
            &result.ids(),
        ),
        Method::SkylinePruning => {
            let (hs, st) = sp_phase2(mirror, scoring, kth, frontier, &ctx.result_id_set)?;
            (hs, st.structure_size)
        }
        Method::ConvexHullPruning => {
            let (hs, st) = cp_phase2(mirror, scoring, kth, frontier, &ctx.result_id_set)?;
            (hs, st.structure_size)
        }
        Method::FullScan => unreachable!("handled by the caller"),
    })
}

/// Computes the global top-k and its order-insensitive GIR\* (§7.1)
/// over a sharded dataset.
///
/// The GIR\* conditions partition exactly like the GIR's: the region is
///
/// ```text
/// GIR*(D) = box ∩ ⋂_i ⋂_s { q' : S(p_i, q') ≥ S(p, q') ∀ p ∈ D_s \ R }
/// ```
///
/// for the *per-rank* pivots `p_i ∈ R⁻` — there are no ordering
/// constraints, and every per-record condition names one non-result
/// record, so per-shard systems intersect to the global region. The
/// plan mirrors [`gir_sharded`]: the merge phase is identical (global
/// `R`, and hence `R⁻`, must exist before any shard runs Phase 2), and
/// each shard then runs the *star* form of the method's sweep against
/// the global pivots — SP/CP resume BBS from the shard's frontier and
/// emit one condition per `(pivot, skyline candidate)` pair,
/// FP maintains one incident-facet star **per `R⁻` member** over the
/// shard's re-seeded frontier, pruning a node only when *every* star
/// prunes it. Per-shard systems are cached in the shard's prune index
/// keyed by `(RegionKind::GirStar, method, result-in-rank-order, p_k)`
/// — the rank order is what identifies the per-rank pivots — and
/// maintained under that shard's deltas (inserts append one condition
/// per non-dominating pivot; deletes purge systems naming the record).
///
/// `FullScan` maps to the skyline formulation exactly as
/// [`crate::engine::GirEngine::gir_star`] does (GIR\* has no cheaper
/// exhaustive strawman). The differential harness
/// (`tests/proptest_star_shard.rs`) pins sharded ≡ single-tree GIR\*
/// for S ∈ {1,2,4,8}, both placements, d ∈ {2..5}, under random update
/// interleavings.
pub fn gir_star_sharded(
    shards: &[ShardView<'_>],
    scoring: &ScoringFunction,
    q: &QueryVector,
    k: usize,
    method: Method,
) -> Result<GirOutput, GirError> {
    if !method.supports(scoring) {
        return Err(GirError::UnsupportedScoring { method });
    }
    if shards.is_empty() {
        return Err(GirError::EmptyResult);
    }
    let d = scoring.dim();
    for s in shards {
        assert_eq!(s.tree.dim(), d, "shard dimensionality mismatch");
    }
    let star_method = StarMethod::for_method(method);

    let (states, mirrors) = snapshot_shards(shards)?;
    let io_before: Vec<_> = shards.iter().map(|s| s.tree.store().stats()).collect();

    // Same work measure as `gir_sharded`: records scanned, not shard
    // count, decides whether the pool pays for itself.
    let work: usize = shards.iter().map(|s| s.tree.len() as usize).sum();

    let t0 = Instant::now();
    // Parallel per-shard BRS, results in shard order (see `gir_sharded`).
    let runs: Vec<(TopKResult, SearchState)> =
        crate::pool::fan_out(mirrors.iter().map(Arc::as_ref).collect(), work, |si, m| {
            let _s = tracing::span!("shard_topk", shard = si);
            m.topk(scoring, &q.weights, k)
        });
    let merge_span = tracing::span!("merge", shards = shards.len());
    let ranked = merge_ranked(&runs, k);
    if ranked.is_empty() {
        return Err(GirError::EmptyResult);
    }
    let result = TopKResult { ranked };
    drop(merge_span);
    let topk_ms = t0.elapsed().as_secs_f64() * 1e3;
    let io_topk: Vec<_> = shards.iter().map(|s| s.tree.store().stats()).collect();

    let t1 = Instant::now();
    let ctx = StarPhase2Ctx::new(&result, scoring);

    // Independent per-shard star sweeps fan out exactly as in
    // `gir_sharded`; accumulation below is in shard order, so the
    // emitted system is bit-identical to the sequential path.
    let tasks: Vec<_> = shards.iter().zip(&states).zip(&mirrors).zip(runs).collect();
    let shard_outputs = crate::pool::fan_out(
        tasks,
        work,
        |si, (((shard, state), mirror), (shard_res, frontier))| {
            let mut shard_span =
                tracing::span!("shard_star_phase2", shard = si, method = method.label());
            let (phase2, structure, cached) = shard_star_system(
                *shard,
                state.as_ref(),
                mirror.as_ref(),
                scoring,
                star_method,
                method,
                &ctx,
                &shard_res,
                frontier,
            );
            shard_span.record("cached", cached);
            shard_span.record("candidates", phase2.len());
            (phase2, structure)
        },
    );

    let mut halfspaces: Vec<HalfSpace> = Vec::new();
    let mut candidates = 0usize;
    let mut structure_total = 0usize;
    for (phase2, structure) in shard_outputs {
        candidates += phase2.len();
        structure_total += structure;
        halfspaces.extend(phase2.iter().cloned());
    }

    // No ordering half-spaces: Definition 2 is order-insensitive.
    let region = GirRegion::new(d, q.weights.clone(), halfspaces);
    let gir_cpu_ms = t1.elapsed().as_secs_f64() * 1e3;
    let io_after: Vec<_> = shards.iter().map(|s| s.tree.store().stats()).collect();

    let stats = GirStats {
        topk_ms,
        topk_pages: io_topk
            .iter()
            .zip(&io_before)
            .map(|(a, b)| a.reads_since(b))
            .sum(),
        gir_cpu_ms,
        gir_pages: io_after
            .iter()
            .zip(&io_topk)
            .map(|(a, b)| a.reads_since(b))
            .sum(),
        candidates,
        structure_size: structure_total,
        halfspaces: region.num_halfspaces(),
    };
    Ok(GirOutput {
        result,
        region,
        stats,
    })
}

/// Query-invariant GIR\* Phase-2 context derived once from the merged
/// global result: the per-rank pivots `R⁻`, the rank-order cache key,
/// and the membership set — the star counterpart of [`GirPhase2Ctx`].
pub struct StarPhase2Ctx {
    /// Result-side reduced result `R⁻`: `(rank, record)` pivots.
    pub r_minus: Vec<(usize, Record)>,
    /// Transformed per-rank pivots (the cache entries' maintenance
    /// state).
    pub pivots_t: Vec<(usize, PointD)>,
    /// The global `p_k`.
    pub kth: Record,
    /// Result ids in rank order — the GIR\* cache key (ranks name
    /// pivots).
    pub ids_ranked: Vec<u64>,
    /// Result ids as a membership set.
    pub result_id_set: HashSet<u64>,
}

impl StarPhase2Ctx {
    /// Derives the context from a non-empty merged result.
    pub fn new(result: &TopKResult, scoring: &ScoringFunction) -> StarPhase2Ctx {
        let r_minus = reduced_result(result);
        let pivots_t: Vec<(usize, PointD)> = r_minus
            .iter()
            .map(|(rank, rec)| (*rank, scoring.transform_point(&rec.attrs)))
            .collect();
        let ids_ranked = result.ids();
        StarPhase2Ctx {
            r_minus,
            pivots_t,
            kth: result.kth().clone(),
            ids_ranked: ids_ranked.clone(),
            result_id_set: ids_ranked.iter().copied().collect(),
        }
    }
}

/// One shard's complete GIR\* Phase-2 stage (re-seed, cache probe,
/// star sweep, admit) — the star counterpart of [`shard_gir_system`],
/// shared verbatim by the in-process fan-out and the distributed shard
/// worker. Returns `(system, structure_size, cache_hit)`.
#[allow(clippy::too_many_arguments)]
pub fn shard_star_system(
    shard: ShardView<'_>,
    state: &PruneState,
    mirror: &TreeMirror,
    scoring: &ScoringFunction,
    star_method: StarMethod,
    method: Method,
    ctx: &StarPhase2Ctx,
    shard_res: &TopKResult,
    mut frontier: SearchState,
) -> (Arc<Vec<HalfSpace>>, usize, bool) {
    // Re-seed shard-ranked records that missed the global result,
    // exactly as in `gir_sharded`: they are non-result candidates
    // the retained frontier no longer covers.
    frontier.reseed(shard_res, |id| !ctx.result_id_set.contains(&id));

    let lookup = shard.index.phase2_lookup(
        RegionKind::GirStar,
        method,
        &ctx.ids_ranked,
        ctx.kth.id,
        scoring,
    );
    let cached = lookup.is_some();
    let (phase2, structure) = match lookup {
        Some(hit) => hit,
        None => {
            // Only the star sweep seeds from the cached shard skyline;
            // SP/CP resume BBS from the frontier.
            let seeds: Vec<Record> = if star_method == StarMethod::Facet {
                state
                    .skyline_blocks()
                    .materialize_if(|id| !ctx.result_id_set.contains(&id))
            } else {
                Vec::new()
            };
            let (hs, st) = star_phase2(
                mirror,
                scoring,
                &ctx.r_minus,
                frontier,
                &ctx.result_id_set,
                star_method,
                &seeds,
            )
            .expect("mirror reads perform no I/O");
            let structure = st.structure_size;
            let hs = Arc::new(hs);
            shard.index.phase2_admit(
                RegionKind::GirStar,
                method,
                ctx.ids_ranked.clone(),
                ctx.kth.id,
                scoring,
                scoring.transform_point(&ctx.kth.attrs),
                ctx.pivots_t.clone(),
                hs.clone(),
                structure,
            );
            (hs, structure)
        }
    };
    (phase2, structure, cached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GirEngine;
    use gir_geometry::vector::PointD;
    use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};

    fn records(n: usize, d: usize, seed: u64) -> Vec<Record> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Record::new(i as u64, (0..d).map(|_| next()).collect::<Vec<_>>()))
            .collect()
    }

    fn tree_of(recs: &[Record], d: usize) -> RTree {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        if recs.is_empty() {
            RTree::new(store, d).unwrap()
        } else {
            RTree::bulk_load(store, recs).unwrap()
        }
    }

    /// Builds S shards by id hash plus the single-tree oracle.
    fn split(recs: &[Record], d: usize, s: usize) -> (Vec<RTree>, RTree) {
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); s];
        for r in recs {
            parts[(r.id % s as u64) as usize].push(r.clone());
        }
        (
            parts.iter().map(|p| tree_of(p, d)).collect(),
            tree_of(recs, d),
        )
    }

    const METHODS: [Method; 4] = [
        Method::SkylinePruning,
        Method::ConvexHullPruning,
        Method::FacetPruning,
        Method::FullScan,
    ];

    #[test]
    fn sharded_matches_single_tree_pointwise() {
        for (n, d, k, s, seed) in [
            (400usize, 2usize, 5usize, 3usize, 0x51u64),
            (500, 3, 8, 4, 0x52),
            (300, 4, 4, 2, 0x53),
        ] {
            let recs = records(n, d, seed);
            let (trees, oracle_tree) = split(&recs, d, s);
            let indexes: Vec<PruneIndex> = (0..s).map(|_| PruneIndex::new()).collect();
            let views: Vec<ShardView<'_>> = trees
                .iter()
                .zip(&indexes)
                .map(|(tree, index)| ShardView { tree, index })
                .collect();
            let scoring = ScoringFunction::linear(d);
            let engine = GirEngine::new(&oracle_tree);
            let q = QueryVector::new(
                (0..d)
                    .map(|i| 0.4 + 0.1 * (i % 3) as f64)
                    .collect::<Vec<_>>(),
            );
            for m in METHODS {
                let oracle = engine.gir(&q, k, m).unwrap();
                let sharded = gir_sharded(&views, &scoring, &q, k, m).unwrap();
                assert_eq!(sharded.result.ids(), oracle.result.ids(), "{m:?} result");
                assert!(sharded.region.contains(&q.weights));
                let mut probe = seed ^ 0xD1FF;
                let mut next = move || {
                    probe ^= probe << 13;
                    probe ^= probe >> 7;
                    probe ^= probe << 17;
                    (probe >> 11) as f64 / (1u64 << 53) as f64
                };
                for _ in 0..150 {
                    let wp = PointD::from((0..d).map(|_| next()).collect::<Vec<_>>());
                    let a = oracle.region.contains(&wp);
                    let b = sharded.region.contains(&wp);
                    if a != b {
                        let margin: f64 = oracle
                            .region
                            .halfspaces
                            .iter()
                            .chain(&sharded.region.halfspaces)
                            .map(|h| h.slack(&wp))
                            .fold(f64::INFINITY, |m, v| m.min(v.abs()));
                        assert!(margin < 1e-6, "{m:?} s={s}: sharded ≠ oracle at {wp:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_shards_contribute_nothing() {
        // A grid-like split that leaves some shards empty must behave
        // exactly like the single tree.
        let recs = records(200, 2, 0x54);
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); 4];
        for r in &recs {
            parts[0].push(r.clone()); // everything lands in shard 0
        }
        let trees: Vec<RTree> = parts.iter().map(|p| tree_of(p, 2)).collect();
        let indexes: Vec<PruneIndex> = (0..4).map(|_| PruneIndex::new()).collect();
        let views: Vec<ShardView<'_>> = trees
            .iter()
            .zip(&indexes)
            .map(|(tree, index)| ShardView { tree, index })
            .collect();
        let oracle_tree = tree_of(&recs, 2);
        let engine = GirEngine::new(&oracle_tree);
        let scoring = ScoringFunction::linear(2);
        let q = QueryVector::new(vec![0.6, 0.5]);
        let oracle = engine.gir(&q, 6, Method::FacetPruning).unwrap();
        let sharded = gir_sharded(&views, &scoring, &q, 6, Method::FacetPruning).unwrap();
        assert_eq!(sharded.result.ids(), oracle.result.ids());
        for step in 0..200 {
            let wp = PointD::new(vec![(step % 20) as f64 / 20.0, (step / 20) as f64 / 10.0]);
            assert_eq!(
                oracle.region.contains(&wp),
                sharded.region.contains(&wp),
                "membership differs at {wp:?}"
            );
        }
    }

    #[test]
    fn phase2_systems_are_reused_per_shard() {
        let recs = records(600, 3, 0x55);
        let (trees, _) = split(&recs, 3, 2);
        let indexes: Vec<PruneIndex> = (0..2).map(|_| PruneIndex::new()).collect();
        let views: Vec<ShardView<'_>> = trees
            .iter()
            .zip(&indexes)
            .map(|(tree, index)| ShardView { tree, index })
            .collect();
        let scoring = ScoringFunction::linear(3);
        let q = QueryVector::new(vec![0.5, 0.6, 0.4]);
        let first = gir_sharded(&views, &scoring, &q, 7, Method::FacetPruning).unwrap();
        // A jittered query reproducing the same ranking reuses every
        // shard's cached Phase-2 system.
        let q2 = QueryVector::new(vec![0.5001, 0.6, 0.4]);
        let second = gir_sharded(&views, &scoring, &q2, 7, Method::FacetPruning).unwrap();
        assert_eq!(first.result.ids(), second.result.ids());
        for index in &indexes {
            assert_eq!(index.stats().phase2_hits, 1, "shard system not reused");
        }
    }

    #[test]
    fn nonlinear_scoring_sharded_sp_only() {
        let recs = records(300, 4, 0x56);
        let (trees, oracle_tree) = split(&recs, 4, 3);
        let indexes: Vec<PruneIndex> = (0..3).map(|_| PruneIndex::new()).collect();
        let views: Vec<ShardView<'_>> = trees
            .iter()
            .zip(&indexes)
            .map(|(tree, index)| ShardView { tree, index })
            .collect();
        let scoring = ScoringFunction::mixed4();
        let q = QueryVector::new(vec![0.5, 0.5, 0.5, 0.5]);
        assert!(matches!(
            gir_sharded(&views, &scoring, &q, 5, Method::FacetPruning),
            Err(GirError::UnsupportedScoring { .. })
        ));
        let engine = GirEngine::with_scoring(&oracle_tree, scoring.clone());
        let oracle = engine.gir(&q, 5, Method::SkylinePruning).unwrap();
        let sharded = gir_sharded(&views, &scoring, &q, 5, Method::SkylinePruning).unwrap();
        assert_eq!(sharded.result.ids(), oracle.result.ids());
        for step in 0..100 {
            let wp = PointD::new(vec![
                (step % 10) as f64 / 10.0,
                (step / 10) as f64 / 10.0,
                0.5,
                0.7,
            ]);
            assert_eq!(oracle.region.contains(&wp), sharded.region.contains(&wp));
        }
    }

    #[test]
    fn star_sharded_matches_single_tree_pointwise() {
        use crate::gir_star::naive_gir_star_contains;
        for (n, d, k, s, seed) in [
            (400usize, 2usize, 5usize, 3usize, 0x58u64),
            (500, 3, 8, 4, 0x59),
            (300, 4, 4, 2, 0x5A),
        ] {
            let recs = records(n, d, seed);
            let (trees, oracle_tree) = split(&recs, d, s);
            let indexes: Vec<PruneIndex> = (0..s).map(|_| PruneIndex::new()).collect();
            let views: Vec<ShardView<'_>> = trees
                .iter()
                .zip(&indexes)
                .map(|(tree, index)| ShardView { tree, index })
                .collect();
            let scoring = ScoringFunction::linear(d);
            let engine = GirEngine::new(&oracle_tree);
            let q = QueryVector::new(
                (0..d)
                    .map(|i| 0.4 + 0.1 * (i % 3) as f64)
                    .collect::<Vec<_>>(),
            );
            for m in METHODS {
                let oracle = engine.gir_star(&q, k, m).unwrap();
                let sharded = gir_star_sharded(&views, &scoring, &q, k, m).unwrap();
                assert_eq!(sharded.result.ids(), oracle.result.ids(), "{m:?} result");
                assert!(sharded.region.contains(&q.weights));
                let ids: HashSet<u64> = sharded.result.ids().into_iter().collect();
                let mut probe = seed ^ 0x57A2;
                let mut next = move || {
                    probe ^= probe << 13;
                    probe ^= probe >> 7;
                    probe ^= probe << 17;
                    (probe >> 11) as f64 / (1u64 << 53) as f64
                };
                for _ in 0..150 {
                    let wp = PointD::from((0..d).map(|_| next()).collect::<Vec<_>>());
                    let a = oracle.region.contains(&wp);
                    let b = sharded.region.contains(&wp);
                    let margin = |r: &crate::region::GirRegion| {
                        r.halfspaces
                            .iter()
                            .map(|h| h.slack(&wp))
                            .fold(f64::INFINITY, |m, v| m.min(v.abs()))
                    };
                    if a != b {
                        let m2 = margin(&oracle.region).min(margin(&sharded.region));
                        assert!(m2 < 1e-6, "{m:?} s={s}: sharded GIR* ≠ oracle at {wp:?}");
                    }
                    // The GIR* law: membership ⇔ preserved composition.
                    let expect = naive_gir_star_contains(&recs, &scoring, &ids, &wp);
                    if b != expect {
                        assert!(
                            margin(&sharded.region) < 1e-6,
                            "{m:?} s={s}: GIR* law violated at {wp:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn star_phase2_systems_are_reused_per_shard_and_keyed_apart() {
        let recs = records(600, 3, 0x5B);
        let (trees, _) = split(&recs, 3, 2);
        let indexes: Vec<PruneIndex> = (0..2).map(|_| PruneIndex::new()).collect();
        let views: Vec<ShardView<'_>> = trees
            .iter()
            .zip(&indexes)
            .map(|(tree, index)| ShardView { tree, index })
            .collect();
        let scoring = ScoringFunction::linear(3);
        let q = QueryVector::new(vec![0.5, 0.6, 0.4]);
        // A GIR computation first: its cached Phase-2 systems must NOT
        // be confused with the star systems of the same ranking.
        let _ = gir_sharded(&views, &scoring, &q, 7, Method::FacetPruning).unwrap();
        let first = gir_star_sharded(&views, &scoring, &q, 7, Method::FacetPruning).unwrap();
        for index in &indexes {
            assert_eq!(
                index.stats().phase2_hits,
                0,
                "GIR* system wrongly served from a GIR key"
            );
        }
        // A jittered query reproducing the same ranking reuses every
        // shard's cached star system.
        let q2 = QueryVector::new(vec![0.5001, 0.6, 0.4]);
        let second = gir_star_sharded(&views, &scoring, &q2, 7, Method::FacetPruning).unwrap();
        assert_eq!(first.result.ids(), second.result.ids());
        for index in &indexes {
            assert_eq!(index.stats().phase2_hits, 1, "star system not reused");
        }
    }

    #[test]
    fn star_sharded_region_encloses_sharded_gir() {
        // Definition 2 is looser than Definition 1, shard by shard.
        let recs = records(500, 3, 0x5C);
        let (trees, _) = split(&recs, 3, 4);
        let indexes: Vec<PruneIndex> = (0..4).map(|_| PruneIndex::new()).collect();
        let views: Vec<ShardView<'_>> = trees
            .iter()
            .zip(&indexes)
            .map(|(tree, index)| ShardView { tree, index })
            .collect();
        let scoring = ScoringFunction::linear(3);
        let q = QueryVector::new(vec![0.6, 0.45, 0.55]);
        let gir = gir_sharded(&views, &scoring, &q, 6, Method::FacetPruning).unwrap();
        let star = gir_star_sharded(&views, &scoring, &q, 6, Method::FacetPruning).unwrap();
        let mut s = 0x5Du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let wp = PointD::from((0..3).map(|_| next()).collect::<Vec<_>>());
            if gir.region.contains(&wp) {
                assert!(star.region.contains(&wp), "sharded GIR ⊄ sharded GIR*");
            }
        }
    }

    #[test]
    fn k_beyond_dataset_returns_everything_merged() {
        let recs = records(30, 2, 0x57);
        let (trees, _) = split(&recs, 2, 4);
        let indexes: Vec<PruneIndex> = (0..4).map(|_| PruneIndex::new()).collect();
        let views: Vec<ShardView<'_>> = trees
            .iter()
            .zip(&indexes)
            .map(|(tree, index)| ShardView { tree, index })
            .collect();
        let scoring = ScoringFunction::linear(2);
        let q = QueryVector::new(vec![0.4, 0.7]);
        let res = topk_sharded(&views, &scoring, &q, 100).unwrap();
        assert_eq!(res.len(), recs.len());
        for pair in res.ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "merged order broken");
        }
    }
}

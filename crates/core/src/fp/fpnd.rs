//! FP in three and more dimensions (paper §6.3).
//!
//! The incident-facet star ([`super::star::StarHull`]) replaces the
//! rotating line: candidates above some star facet update the star
//! (Clarkson-style, restricted to apex-incident facets); R-tree entries
//! below every facet are pruned without being fetched.

use crate::fp::star::StarHull;
use crate::fp::{FpStats, SweepContext};
use gir_geometry::dominance::dominates;
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::lp::{max_value_scratch, ConsView, LpScratch};
use gir_geometry::vector::PointD;
use gir_geometry::EPS;
use gir_query::{Record, ScoringFunction, SearchState};
use gir_rtree::{Mbb, NodeSource, RTreeError};

/// Tuning knobs for FP, used by the ablation benchmarks to isolate the
/// contribution of each design choice. Defaults reproduce the paper.
#[derive(Debug, Clone, Copy)]
pub struct FpOptions {
    /// Insert the in-memory candidates best-first (the §6.3.1 seeding
    /// heuristic). Off = heap order (arbitrary).
    pub sort_candidates: bool,
    /// Prune R-tree entries below all star facets without fetching them
    /// (§6.3.2). Off = fetch everything reachable from the heap.
    pub prune_nodes: bool,
    /// The paper's footnote-7 optimization: also prune a node when a
    /// small LP certifies that, for *every* query vector in the interim
    /// (Phase 1 ∩ box) region, the node's top corner scores below `p_k` —
    /// its records' conditions would be redundant in the final GIR.
    pub phase1_tightening: bool,
}

impl Default for FpOptions {
    fn default() -> Self {
        FpOptions {
            sort_candidates: true,
            prune_nodes: true,
            phase1_tightening: true,
        }
    }
}

/// Phase-1-region pruner (footnote 7): borrows the interim-region
/// constraints (zero-copy — no per-sweep clone of the half-space list)
/// and answers "can anything in this box overtake `p_k` anywhere in the
/// region?" with one Seidel LP over a warm-started scratch shared by
/// every node test in the sweep.
struct InterimPruner<'a> {
    cons: &'a [HalfSpace],
    pk: PointD,
    scratch: LpScratch,
    obj: Vec<f64>,
}

impl<'a> InterimPruner<'a> {
    fn new(interim: &'a [HalfSpace], pk: PointD) -> Option<InterimPruner<'a>> {
        if interim.is_empty() {
            return None;
        }
        let obj = vec![0.0; pk.dim()];
        Some(InterimPruner {
            cons: interim,
            pk,
            scratch: LpScratch::new(),
            obj,
        })
    }

    /// True when `max_{q' ∈ interim ∩ [0,1]^d} (hi − p_k) · q' ≤ 0`:
    /// no record inside the box can out-score `p_k` for any admissible
    /// query vector, so the subtree is irrelevant to the final GIR.
    fn prunes_mbb(&mut self, mbb: &Mbb) -> bool {
        for ((o, &h), &p) in self
            .obj
            .iter_mut()
            .zip(mbb.hi.coords())
            .zip(self.pk.coords())
        {
            *o = h - p;
        }
        // Fast path: box dominated by pk — objective non-positive on the
        // non-negative orthant.
        if self.obj.iter().all(|&v| v <= EPS) {
            return true;
        }
        matches!(
            max_value_scratch(&mut self.scratch, &self.obj, ConsView::Half(self.cons), 0.0, 1.0),
            Some(v) if v <= EPS
        )
    }
}

/// FP Phase 2 for `d > 2` with default options and no interim region.
pub fn fp_phase2_nd<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    kth: &Record,
    state: SearchState,
) -> Result<(Vec<HalfSpace>, FpStats), RTreeError> {
    fp_phase2_nd_with(src, scoring, kth, state, FpOptions::default(), &[])
}

/// FP Phase 2 for `d > 2` with explicit options (ablation entry point).
/// `interim` carries the Phase-1 ordering half-spaces for the footnote-7
/// tightening; pass `&[]` to disable it regardless of options.
pub fn fp_phase2_nd_with<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    kth: &Record,
    state: SearchState,
    opts: FpOptions,
    interim: &[HalfSpace],
) -> Result<(Vec<HalfSpace>, FpStats), RTreeError> {
    fp_phase2_nd_ctx(
        src,
        scoring,
        kth,
        state,
        opts,
        interim,
        &SweepContext::default(),
    )
}

/// FP Phase 2 for `d > 2` with an explicit [`SweepContext`]: the entry
/// point for incremental repair, where the state is root-seeded (so
/// result members must be excluded) and the surviving contributors seed
/// the star before any node is fetched.
#[allow(clippy::too_many_arguments)]
pub fn fp_phase2_nd_ctx<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    kth: &Record,
    mut state: SearchState,
    opts: FpOptions,
    interim: &[HalfSpace],
    ctx: &SweepContext<'_>,
) -> Result<(Vec<HalfSpace>, FpStats), RTreeError> {
    assert!(
        scoring.is_linear(),
        "FP relies on convex-hull properties that hold only for linear scoring (paper §7.2)"
    );
    let mut star = StarHull::new(kth.attrs.coords());
    let pruner = if opts.phase1_tightening {
        InterimPruner::new(interim, kth.attrs.clone())
    } else {
        None
    };
    for seed in ctx.seeds {
        if !dominates(&kth.attrs, &seed.attrs) {
            star.insert(seed.attrs.coords(), seed.id);
        }
    }

    // First step: in-memory candidates T, best (highest coordinate sum)
    // first so early facets prune aggressively — the effect of the
    // paper's max-per-dimension seeding heuristic (§6.3.1).
    let (records, nodes) = state.drain();
    let mut t: Vec<&Record> = records
        .iter()
        .map(|&(at, _)| state.record(at))
        .filter(|r| !ctx.skips(r.id) && !dominates(&kth.attrs, &r.attrs))
        .collect();
    if opts.sort_candidates {
        t.sort_by(|a, b| {
            let sa: f64 = a.attrs.coords().iter().sum();
            let sb: f64 = b.attrs.coords().iter().sum();
            sb.partial_cmp(&sa).expect("non-NaN")
        });
    }
    for rec in t {
        // insert() is a no-op (returns false) for below-star candidates;
        // no separate visibility pre-check needed.
        star.insert(rec.attrs.coords(), rec.id);
    }

    // Second step: the disk, through the retained node entries.
    let mut cx = (star, pruner);
    let (nodes_examined, nodes_pruned) = state.sweep(
        src,
        nodes,
        &mut cx,
        |(star, pruner), m| {
            opts.prune_nodes
                && (star.prunes_mbb(m) || pruner.as_mut().is_some_and(|p| p.prunes_mbb(m)))
        },
        |(star, _), rec| {
            if rec.id != kth.id && !ctx.skips(rec.id) && !dominates(&kth.attrs, &rec.attrs) {
                star.insert(rec.attrs.coords(), rec.id);
            }
        },
    )?;
    let star = cx.0;

    let critical = star.critical_records();
    let halfspaces: Vec<HalfSpace> = critical
        .iter()
        .map(|(id, attrs)| {
            HalfSpace::score_order(&kth.attrs, attrs, Provenance::NonResult { record_id: *id })
        })
        .collect();
    let stats = FpStats {
        critical: halfspaces.len(),
        facets: star.num_facets(),
        nodes_examined,
        nodes_pruned,
    };
    Ok((halfspaces, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_geometry::vector::PointD;
    use gir_query::brs_topk;
    use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
    use std::sync::Arc;

    fn setup(n: usize, d: usize, seed: u64) -> (Vec<Record>, gir_rtree::RTree) {
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
        let tree = gir_rtree::RTree::bulk_load(store, &recs).unwrap();
        (recs, tree)
    }

    #[test]
    fn fp_nd_region_matches_fullscan_membership() {
        for (d, seed) in [(3usize, 51u64), (4, 52), (5, 53)] {
            let (recs, tree) = setup(600, d, seed);
            let f = ScoringFunction::linear(d);
            let w = PointD::new(vec![0.6; d]);
            let k = 10;
            let (res, state) = brs_topk(&tree, &f, &w, k).unwrap();
            let ids: std::collections::HashSet<u64> = res.ids().into_iter().collect();
            let (hs, stats) = fp_phase2_nd(&tree, &f, res.kth(), state).unwrap();
            assert!(stats.critical > 0);
            let kth = res.kth().clone();

            let mut s = 0xABCDu64;
            let mut nextf = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..150 {
                let wp = PointD::from((0..d).map(|_| nextf()).collect::<Vec<_>>());
                let in_region = hs.iter().all(|h| h.contains(&wp, 1e-9));
                let pk_score = f.score(&wp, &kth.attrs);
                let beaten = recs
                    .iter()
                    .filter(|r| !ids.contains(&r.id))
                    .any(|r| f.score(&wp, &r.attrs) > pk_score + 1e-9);
                assert_eq!(in_region, !beaten, "d={d} mismatch at {wp:?}");
            }
        }
    }

    #[test]
    fn fp_prunes_most_nodes() {
        let (_, tree) = setup(20_000, 3, 54);
        let f = ScoringFunction::linear(3);
        let w = PointD::new(vec![0.5, 0.7, 0.6]);
        let (res, state) = brs_topk(&tree, &f, &w, 20).unwrap();
        let (_, stats) = fp_phase2_nd(&tree, &f, res.kth(), state).unwrap();
        assert!(
            stats.nodes_pruned > stats.nodes_examined,
            "examined {} vs pruned {}",
            stats.nodes_examined,
            stats.nodes_pruned
        );
    }

    #[test]
    fn phase1_tightening_preserves_region_and_saves_pages() {
        use crate::phase1::ordering_halfspaces;
        let (recs, tree) = setup(4000, 4, 56);
        let f = ScoringFunction::linear(4);
        let w = PointD::new(vec![0.7, 0.3, 0.6, 0.5]);
        let k = 30;
        let (res, state) = brs_topk(&tree, &f, &w, k).unwrap();
        let interim = ordering_halfspaces(&res, &f);
        let ids: std::collections::HashSet<u64> = res.ids().into_iter().collect();

        let store = tree.store();
        let s0 = store.stats();
        let (hs_off, _) = fp_phase2_nd_with(
            &tree,
            &f,
            res.kth(),
            state.clone(),
            FpOptions {
                phase1_tightening: false,
                ..FpOptions::default()
            },
            &interim,
        )
        .unwrap();
        let pages_off = store.stats().reads_since(&s0);
        let s1 = store.stats();
        let (hs_on, _) =
            fp_phase2_nd_with(&tree, &f, res.kth(), state, FpOptions::default(), &interim).unwrap();
        let pages_on = store.stats().reads_since(&s1);
        assert!(pages_on <= pages_off, "tightening increased I/O");

        // Region equality within the interim region: interim + phase2
        // half-spaces must accept/reject identically.
        let kth = res.kth().clone();
        let mut s = 0xF007u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let wp = PointD::from((0..4).map(|_| next()).collect::<Vec<_>>());
            let in_interim = interim.iter().all(|h| h.contains(&wp, 1e-9));
            let a = in_interim && hs_off.iter().all(|h| h.contains(&wp, 1e-9));
            let b = in_interim && hs_on.iter().all(|h| h.contains(&wp, 1e-9));
            assert_eq!(a, b, "tightening changed the final region at {wp:?}");
            // Cross-check against ground truth inside the interim region.
            if in_interim {
                let pk_score = f.score(&wp, &kth.attrs);
                let beaten = recs
                    .iter()
                    .filter(|r| !ids.contains(&r.id))
                    .any(|r| f.score(&wp, &r.attrs) > pk_score + 1e-7);
                if a == beaten {
                    // Boundary tolerance only.
                    let margin: f64 = hs_on
                        .iter()
                        .map(|h| h.slack(&wp))
                        .fold(f64::INFINITY, f64::min);
                    assert!(margin.abs() < 1e-6, "law violated at {wp:?}");
                }
            }
        }
    }

    #[test]
    fn fp_critical_count_far_below_skyline() {
        use crate::sp::sp_phase2;
        let (_, tree) = setup(5000, 4, 55);
        let f = ScoringFunction::linear(4);
        let w = PointD::new(vec![0.5, 0.5, 0.5, 0.5]);
        let (res, state) = brs_topk(&tree, &f, &w, 20).unwrap();
        let ids: std::collections::HashSet<u64> = res.ids().into_iter().collect();
        let (_, sp_stats) = sp_phase2(&tree, &f, res.kth(), state.clone(), &ids).unwrap();
        let (_, fp_stats) = fp_phase2_nd(&tree, &f, res.kth(), state).unwrap();
        assert!(
            fp_stats.critical < sp_stats.candidates,
            "FP {} vs SP {}",
            fp_stats.critical,
            sp_stats.candidates
        );
    }
}

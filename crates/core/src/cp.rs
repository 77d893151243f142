//! CP — Convex Hull Pruning (paper §5.2).
//!
//! Among the skyline records, only those on the convex hull of `D\R` can
//! ever hold the top score under a linear function, so only they can bound
//! the GIR. CP computes the skyline (as SP does) and then a convex hull
//! *over the skyline records only* — computing the hull of all of `D\R`
//! first would explore regions irrelevant to the GIR (the paper's p15,
//! p13, p10 in Figure 5).
//!
//! CP's pruning is the strongest of the three methods, but the hull
//! computation over the skyline costs `Ω(|SL|^{⌊d/2⌋})` — the experiments
//! show its CPU time *exceeding* SP's (Fig 15), which is precisely the
//! motivation for FP. Linear scoring only (§7.2).

use crate::sp::{sp_skyline_records, Phase2Stats};
use gir_geometry::hull::{ConvexHull, HullError};
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::vector::PointD;
use gir_query::{Record, ScoringFunction, SearchState};
use gir_rtree::{NodeSource, RTreeError};
use std::collections::HashSet;

/// CP Phase 2: half-spaces for skyline records that lie on the convex
/// hull of the skyline (resumed from `state` over `src`).
pub fn cp_phase2<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    kth: &Record,
    state: SearchState,
    result_ids: &HashSet<u64>,
) -> Result<(Vec<HalfSpace>, Phase2Stats), RTreeError> {
    assert!(
        scoring.is_linear(),
        "CP relies on convex-hull properties that hold only for linear scoring (paper §7.2)"
    );
    let sky = sp_skyline_records(src, state, result_ids)?;
    let on_hull = hull_filter(&sky);
    let stats = Phase2Stats {
        candidates: on_hull.len(),
        structure_size: sky.len(),
    };
    let mut halfspaces = Vec::with_capacity(on_hull.len());
    for rec in on_hull {
        halfspaces.push(HalfSpace::score_order(
            &kth.attrs,
            &rec.attrs,
            Provenance::NonResult { record_id: rec.id },
        ));
    }
    Ok((halfspaces, stats))
}

/// Returns the records on the convex hull of `records`' attribute points.
///
/// Degenerate inputs (too few points, or points in a lower-dimensional
/// flat) fall back to returning *all* records: a safe over-approximation —
/// CP then degrades to SP rather than dropping a potentially critical
/// record.
pub fn hull_filter(records: &[Record]) -> Vec<Record> {
    let points: Vec<PointD> = records.iter().map(|r| r.attrs.clone()).collect();
    match ConvexHull::build(&points) {
        Ok(hull) => hull
            .vertex_indices()
            .into_iter()
            .map(|i| records[i].clone())
            .collect(),
        Err(HullError::TooFewPoints | HullError::Degenerate { .. } | HullError::Numerical) => {
            records.to_vec()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_geometry::dominance::dominates;
    use gir_query::brs_topk;
    use gir_rtree::RTree;
    use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
    use std::sync::Arc;

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

    #[test]
    fn cp_prunes_at_least_as_much_as_sp() {
        let (_, tree) = setup(1500, 3, 41);
        let f = ScoringFunction::linear(3);
        let w = PointD::new(vec![0.6, 0.5, 0.7]);
        let (res, state) = brs_topk(&tree, &f, &w, 20).unwrap();
        let ids: HashSet<u64> = res.ids().into_iter().collect();
        let (hs, stats) = cp_phase2(&tree, &f, res.kth(), state, &ids).unwrap();
        assert_eq!(hs.len(), stats.candidates);
        assert!(
            stats.candidates <= stats.structure_size,
            "hull filter must not grow the skyline"
        );
        assert!(stats.candidates > 0);
    }

    #[test]
    fn cp_region_equals_sp_region_pointwise() {
        // CP keeps fewer half-spaces, but the region (as a set) must be
        // identical to SP's: the dropped conditions are redundant.
        use crate::sp::sp_phase2;
        let (_, tree) = setup(900, 2, 42);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.45, 0.85]);
        let (res, state) = brs_topk(&tree, &f, &w, 10).unwrap();
        let ids: HashSet<u64> = res.ids().into_iter().collect();
        let (sp_hs, _) = sp_phase2(&tree, &f, res.kth(), state.clone(), &ids).unwrap();
        let (cp_hs, _) = cp_phase2(&tree, &f, res.kth(), state, &ids).unwrap();
        assert!(cp_hs.len() <= sp_hs.len());
        let mut s = 5u64;
        for _ in 0..300 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let a = (s >> 11) as f64 / (1u64 << 53) as f64;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let b = (s >> 11) as f64 / (1u64 << 53) as f64;
            let wp = PointD::new(vec![a, b]);
            let in_sp = sp_hs.iter().all(|h| h.contains(&wp, 1e-9));
            let in_cp = cp_hs.iter().all(|h| h.contains(&wp, 1e-9));
            assert_eq!(in_sp, in_cp, "CP/SP regions differ at {wp:?}");
        }
    }

    #[test]
    fn hull_filter_keeps_extreme_records() {
        // A staircase: all records are on the skyline; the hull keeps the
        // extremes and drops the inner bend only when it's truly inside.
        let recs = vec![
            Record::new(0, vec![1.0, 0.0]),
            Record::new(1, vec![0.0, 1.0]),
            Record::new(2, vec![0.7, 0.7]), // extreme (outside segment 0-1)
            Record::new(3, vec![0.6, 0.6]), // inside the triangle
        ];
        let kept = hull_filter(&recs);
        let ids: Vec<u64> = kept.iter().map(|r| r.id).collect();
        assert!(ids.contains(&0) && ids.contains(&1) && ids.contains(&2));
        assert!(!ids.contains(&3));
    }

    #[test]
    fn hull_filter_degenerate_falls_back_to_all() {
        let recs = vec![
            Record::new(0, vec![0.1, 0.1]),
            Record::new(1, vec![0.2, 0.2]),
            Record::new(2, vec![0.3, 0.3]),
        ];
        assert_eq!(hull_filter(&recs).len(), 3);
    }

    #[test]
    #[should_panic(expected = "linear scoring")]
    fn cp_rejects_nonlinear_scoring() {
        let (_, tree) = setup(100, 4, 43);
        let f = ScoringFunction::mixed4();
        let w = PointD::new(vec![0.5, 0.5, 0.5, 0.5]);
        let (res, state) = brs_topk(&tree, &ScoringFunction::linear(4), &w, 5).unwrap();
        let ids: HashSet<u64> = res.ids().into_iter().collect();
        let _ = cp_phase2(&tree, &f, res.kth(), state, &ids);
    }

    #[test]
    fn cp_candidates_are_skyline_members() {
        let (recs, tree) = setup(700, 2, 44);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.55, 0.65]);
        let (res, state) = brs_topk(&tree, &f, &w, 10).unwrap();
        let ids: HashSet<u64> = res.ids().into_iter().collect();
        let (hs, _) = cp_phase2(&tree, &f, res.kth(), state, &ids).unwrap();
        // Every CP candidate must be undominated among non-result records.
        let non_result: Vec<&Record> = recs.iter().filter(|r| !ids.contains(&r.id)).collect();
        for h in &hs {
            let Provenance::NonResult { record_id } = h.provenance else {
                panic!("unexpected provenance")
            };
            let cand = recs.iter().find(|r| r.id == record_id).unwrap();
            assert!(
                !non_result.iter().any(|o| dominates(&o.attrs, &cand.attrs)),
                "CP kept a dominated record"
            );
        }
    }
}

//! SP — Skyline Pruning (paper §5.1).
//!
//! Only the skyline of `D\R` can bound the GIR: a dominated record can
//! never overtake `p_k` before its dominator does, under *any* monotone
//! scoring function. SP therefore computes the skyline with BBS (resumed
//! from the retained BRS heap) and emits one half-space per skyline
//! record. SP is the only method valid for non-linear monotone scoring
//! (§7.2): the conditions stay linear in the weights over transformed
//! attributes.

use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_query::{bbs_skyline, Record, ScoringFunction, SearchState};
use gir_rtree::{NodeSource, RTreeError};
use std::collections::HashSet;

/// Phase 2 statistics shared by all methods.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phase2Stats {
    /// Non-result records that survived pruning (the half-space count
    /// before redundancy elimination).
    pub candidates: usize,
    /// Intermediate structure size: skyline cardinality (SP/CP) or
    /// incident-facet count (FP).
    pub structure_size: usize,
}

/// SP Phase 2: half-spaces `(p_k − p) · q' ≥ 0` for every skyline record
/// `p` of `D\R`, the skyline resumed from `state` over `src`.
pub fn sp_phase2<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    kth: &Record,
    state: SearchState,
    result_ids: &HashSet<u64>,
) -> Result<(Vec<HalfSpace>, Phase2Stats), RTreeError> {
    let sky = bbs_skyline(src, state, result_ids)?;
    let pk_t = scoring.transform_point(&kth.attrs);
    let mut halfspaces = Vec::with_capacity(sky.len());
    for (_, rec) in sky.iter() {
        let p_t = scoring.transform_point(&rec.attrs);
        halfspaces.push(HalfSpace::score_order(
            &pk_t,
            &p_t,
            Provenance::NonResult { record_id: rec.id },
        ));
    }
    let stats = Phase2Stats {
        candidates: halfspaces.len(),
        structure_size: sky.len(),
    };
    Ok((halfspaces, stats))
}

/// Returns the skyline records themselves (shared by CP, which prunes
/// them further, and by GIR\*, which reuses one skyline for all `GIR_i`).
pub fn sp_skyline_records<S: NodeSource + ?Sized>(
    src: &S,
    state: SearchState,
    result_ids: &HashSet<u64>,
) -> Result<Vec<Record>, RTreeError> {
    let sky = bbs_skyline(src, state, result_ids)?;
    Ok(sky.into_entries().into_iter().map(|(_, r)| r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_geometry::vector::PointD;
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
    fn sp_halfspaces_hold_at_query_and_block_overtakers() {
        let (recs, tree) = setup(800, 2, 31);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.7, 0.4]);
        let (res, state) = brs_topk(&tree, &f, &w, 10).unwrap();
        let ids: HashSet<u64> = res.ids().into_iter().collect();
        let (hs, stats) = sp_phase2(&tree, &f, res.kth(), state, &ids).unwrap();
        assert!(stats.candidates > 0);
        // The original query satisfies every condition (pk beats everyone).
        for h in &hs {
            assert!(h.contains(&w, 1e-9), "query violates an SP half-space");
        }
        // A weight vector where some non-result record beats pk must
        // violate at least one half-space.
        let kth_score = f.score(&w, &res.kth().attrs);
        let _ = kth_score;
        let adversarial = PointD::new(vec![0.0, 1.0]);
        let best_nr = recs
            .iter()
            .filter(|r| !ids.contains(&r.id))
            .map(|r| f.score(&adversarial, &r.attrs))
            .fold(f64::NEG_INFINITY, f64::max);
        if best_nr > f.score(&adversarial, &res.kth().attrs) + 1e-9 {
            assert!(
                hs.iter().any(|h| !h.contains(&adversarial, 1e-9)),
                "SP region fails to exclude an overtaking weight vector"
            );
        }
    }

    #[test]
    fn sp_region_matches_bruteforce_membership() {
        let (recs, tree) = setup(400, 3, 32);
        let f = ScoringFunction::linear(3);
        let w = PointD::new(vec![0.5, 0.6, 0.7]);
        let k = 8;
        let (res, state) = brs_topk(&tree, &f, &w, k).unwrap();
        let ids: HashSet<u64> = res.ids().into_iter().collect();
        let (hs, _) = sp_phase2(&tree, &f, res.kth(), state, &ids).unwrap();
        let kth = res.kth().clone();

        // Probe random weight vectors: SP's phase-2 region must contain w'
        // iff pk's score beats every non-result record.
        let mut s = 77u64;
        for _ in 0..200 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let a = (s >> 11) as f64 / (1u64 << 53) as f64;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let b = (s >> 11) as f64 / (1u64 << 53) as f64;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let c = (s >> 11) as f64 / (1u64 << 53) as f64;
            let wp = PointD::new(vec![a, b, c]);
            let in_region = hs.iter().all(|h| h.contains(&wp, 1e-9));
            let pk_score = f.score(&wp, &kth.attrs);
            let beaten = recs
                .iter()
                .filter(|r| !ids.contains(&r.id))
                .any(|r| f.score(&wp, &r.attrs) > pk_score + 1e-9);
            assert_eq!(in_region, !beaten, "membership mismatch at {wp:?}");
        }
    }

    #[test]
    fn sp_supports_nonlinear_scoring() {
        let (recs, tree) = setup(500, 4, 33);
        let f = ScoringFunction::mixed4();
        let w = PointD::new(vec![0.4, 0.7, 0.3, 0.6]);
        let (res, state) = brs_topk(&tree, &f, &w, 5).unwrap();
        let ids: HashSet<u64> = res.ids().into_iter().collect();
        let (hs, _) = sp_phase2(&tree, &f, res.kth(), state, &ids).unwrap();
        let kth = res.kth().clone();
        // Same membership law, but with the non-linear score.
        for probe in [
            vec![0.9, 0.05, 0.4, 0.3],
            vec![0.2, 0.2, 0.9, 0.9],
            vec![0.5, 0.5, 0.5, 0.5],
        ] {
            let wp = PointD::new(probe);
            let in_region = hs.iter().all(|h| h.contains(&wp, 1e-9));
            let pk_score = f.score(&wp, &kth.attrs);
            let beaten = recs
                .iter()
                .filter(|r| !ids.contains(&r.id))
                .any(|r| f.score(&wp, &r.attrs) > pk_score + 1e-9);
            assert_eq!(in_region, !beaten);
        }
    }
}

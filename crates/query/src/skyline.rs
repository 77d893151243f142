//! BBS skyline computation resuming from the retained BRS state.
//!
//! BBS \[26\] retrieves entries in a monotone order and prunes everything
//! dominated by already-found skyline members. The paper's adaptation
//! (§5.1): instead of nearest-neighbor distance to the top corner, the
//! retained BRS heap is popped in decreasing *maxscore* order — any
//! monotone preference works for BBS correctness — so skyline search
//! continues exactly where top-k search stopped, re-using every page BRS
//! already fetched.

use crate::brs::{HeapEntry, SearchState, Slot};
use gir_geometry::dominance::SkylineSet;
use gir_rtree::{NodeEntries, NodeSource, RTreeError, Record};
use std::collections::HashSet;

/// Computes the skyline of `D \ R` (all non-result records), consuming
/// the retained BRS search state and opening further nodes through
/// `src`.
///
/// `result_ids` identifies the top-k result records, which are excluded
/// from the skyline (but naturally never prune anything: they are not
/// inserted).
pub fn bbs_skyline<S: NodeSource + ?Sized>(
    src: &S,
    mut state: SearchState,
    result_ids: &HashSet<u64>,
) -> Result<SkylineSet<Record>, RTreeError> {
    let mut sky: SkylineSet<Record> = SkylineSet::new();
    let mut children = Vec::new();
    while let Some(entry) = state.heap.pop() {
        if entry.record {
            let record = state.record(entry.at);
            if result_ids.contains(&entry.id) || sky.dominated(&record.attrs) {
                continue;
            }
            sky.insert(record.attrs.clone(), record.clone());
            continue;
        }
        // An entry whose *top corner* is dominated cannot contain any
        // skyline record — prune it without fetching the page.
        if let Some(at) = entry.parent() {
            if sky.dominated(state.mbb(at).top_corner()) {
                continue;
            }
        }
        let node = state.open(src, entry.id)?;
        match state.entries(node) {
            NodeEntries::Internal(cs) => {
                for (slot, (child_mbb, child)) in cs.iter().enumerate() {
                    if !sky.dominated(child_mbb.top_corner()) {
                        // Keep popping in a monotone order: the
                        // top-corner coordinate sum is a monotone
                        // preference, which is all BBS needs.
                        let at = Slot {
                            node,
                            slot: slot as u32,
                        };
                        let key = child_mbb.top_corner().coords().iter().sum();
                        children.push(HeapEntry::node(*child, key, at));
                    }
                }
            }
            NodeEntries::Leaf(records) => {
                for record in records {
                    if result_ids.contains(&record.id) || sky.dominated(&record.attrs) {
                        continue;
                    }
                    sky.insert(record.attrs.clone(), record.clone());
                }
            }
        }
        // One push each, as the traversal found them (`extend` may
        // rebuild the heap in a different layout).
        for child in children.drain(..) {
            state.heap.push(child);
        }
    }
    Ok(sky)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brs::brs_topk;
    use crate::naive::{naive_skyline, naive_topk};
    use crate::score::ScoringFunction;
    use gir_geometry::vector::PointD;
    use gir_rtree::RTree;
    use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
    use std::sync::Arc;

    fn pseudo_records(n: usize, d: usize, seed: u64) -> Vec<Record> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Record::new(i as u64, (0..d).map(|_| next()).collect::<Vec<_>>()))
            .collect()
    }

    fn check_skyline_matches_naive(n: usize, d: usize, k: usize, seed: u64, w: Vec<f64>) {
        let recs = pseudo_records(n, d, seed);
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &recs).unwrap();
        let f = ScoringFunction::linear(d);
        let w = PointD::new(w);
        let (res, state) = brs_topk(&tree, &f, &w, k).unwrap();
        let result_ids: HashSet<u64> = res.ids().into_iter().collect();

        let sky = bbs_skyline(&tree, state, &result_ids).unwrap();
        let mut got: Vec<u64> = sky.iter().map(|(_, r)| r.id).collect();
        got.sort_unstable();

        let non_result: Vec<Record> = recs
            .iter()
            .filter(|r| !result_ids.contains(&r.id))
            .cloned()
            .collect();
        let mut expect: Vec<u64> = naive_skyline(&non_result).iter().map(|r| r.id).collect();
        expect.sort_unstable();
        assert_eq!(got, expect, "n={n} d={d} k={k}");
    }

    #[test]
    fn skyline_matches_naive_2d() {
        check_skyline_matches_naive(2000, 2, 10, 21, vec![0.5, 0.5]);
    }

    #[test]
    fn skyline_matches_naive_3d() {
        check_skyline_matches_naive(1500, 3, 20, 22, vec![0.8, 0.3, 0.5]);
    }

    #[test]
    fn skyline_matches_naive_5d() {
        check_skyline_matches_naive(800, 5, 5, 23, vec![0.2, 0.9, 0.4, 0.6, 0.1]);
    }

    #[test]
    fn skyline_excludes_result_records() {
        let recs = pseudo_records(500, 2, 24);
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &recs).unwrap();
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.6, 0.4]);
        let (res, state) = brs_topk(&tree, &f, &w, 15).unwrap();
        let result_ids: HashSet<u64> = res.ids().into_iter().collect();
        let sky = bbs_skyline(&tree, state, &result_ids).unwrap();
        for (_, r) in sky.iter() {
            assert!(!result_ids.contains(&r.id));
        }
    }

    #[test]
    fn skyline_members_upper_bound_kth_overtakers() {
        // Every record that could overtake the k-th result under *some*
        // weight vector is dominated by (or is) a skyline member — the SP
        // safety property (§5.1). Spot-check: for random weights, the
        // best-scoring non-result record is never strictly better than
        // every skyline member.
        let recs = pseudo_records(1000, 3, 25);
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &recs).unwrap();
        let f = ScoringFunction::linear(3);
        let w = PointD::new(vec![0.5, 0.7, 0.2]);
        let (res, state) = brs_topk(&tree, &f, &w, 10).unwrap();
        let result_ids: HashSet<u64> = res.ids().into_iter().collect();
        let sky = bbs_skyline(&tree, state, &result_ids).unwrap();
        let non_result: Vec<&Record> = recs
            .iter()
            .filter(|r| !result_ids.contains(&r.id))
            .collect();
        for probe in [
            vec![0.9, 0.1, 0.1],
            vec![0.1, 0.9, 0.2],
            vec![0.33, 0.33, 0.33],
        ] {
            let wp = PointD::new(probe);
            let best_any = non_result
                .iter()
                .map(|r| f.score(&wp, &r.attrs))
                .fold(f64::NEG_INFINITY, f64::max);
            let best_sky = sky
                .iter()
                .map(|(_, r)| f.score(&wp, &r.attrs))
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(best_sky >= best_any - 1e-12);
        }
    }

    #[test]
    fn skyline_of_topk_equals_naive_after_nonlinear_scoring() {
        // BBS correctness is independent of the (monotone) scoring used
        // by the preceding BRS run (§7.2).
        let recs = pseudo_records(700, 4, 26);
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &recs).unwrap();
        let f = ScoringFunction::mixed4();
        let w = PointD::new(vec![0.4, 0.6, 0.2, 0.8]);
        let (res, state) = brs_topk(&tree, &f, &w, 12).unwrap();
        let naive = naive_topk(&recs, &f, &w, 12);
        assert_eq!(res.ids(), naive.ids());
        let result_ids: HashSet<u64> = res.ids().into_iter().collect();
        let sky = bbs_skyline(&tree, state, &result_ids).unwrap();
        let non_result: Vec<Record> = recs
            .iter()
            .filter(|r| !result_ids.contains(&r.id))
            .cloned()
            .collect();
        let mut got: Vec<u64> = sky.iter().map(|(_, r)| r.id).collect();
        got.sort_unstable();
        let mut expect: Vec<u64> = naive_skyline(&non_result).iter().map(|r| r.id).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

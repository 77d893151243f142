//! BRS: branch-and-bound ranked search (top-k) over the R\*-tree.
//!
//! BRS \[32\] organizes visited R-tree entries in a max-heap keyed by
//! *maxscore* (the score of the MBB's top corner — an upper bound for any
//! record beneath the entry) and pops entries in decreasing bound order.
//! Because the heap key upper-bounds everything still in the heap, the
//! records pop out in exact decreasing score order; the search stops once
//! `k` records have been reported. BRS is I/O optimal (§2).
//!
//! For GIR computation the search state is *retained* (§3.3): the heap
//! (with all not-yet-popped node and record entries) seeds Phase 2, and
//! the record entries still in the heap are exactly the set `T` of
//! non-result records already fetched into memory.

use crate::score::ScoringFunction;
use gir_geometry::vector::PointD;
use gir_rtree::{Mbb, NodeEntries, RTree, RTreeError, Record};
use gir_storage::PageId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: an R-tree node awaiting expansion, or a record awaiting
/// reporting. Ordered by score bound (max-heap), ties broken
/// deterministically (records before nodes, then by id).
#[derive(Debug, Clone)]
pub enum HeapEntry {
    /// An R-tree node with its maxscore bound.
    Node {
        /// Page id of the node.
        page: PageId,
        /// Upper bound on the score of any record below this node.
        maxscore: f64,
        /// The node's MBB as recorded in its parent entry (`None` only for
        /// the root). Phase 2 algorithms use it to prune nodes *without*
        /// fetching them (paper §6.2: "if the MBB of the node lies
        /// completely below the interim facets, we prune it").
        mbb: Option<Mbb>,
    },
    /// A data record with its exact score.
    Rec {
        /// The record.
        record: Record,
        /// Its exact score under the current query.
        score: f64,
    },
}

impl HeapEntry {
    /// The heap key (score bound).
    pub fn key(&self) -> f64 {
        match self {
            HeapEntry::Node { maxscore, .. } => *maxscore,
            HeapEntry::Rec { score, .. } => *score,
        }
    }

    fn tiebreak(&self) -> (u8, u64) {
        match self {
            // Records first on equal keys: their key is exact.
            HeapEntry::Rec { record, .. } => (1, record.id),
            HeapEntry::Node { page, .. } => (0, *page),
        }
    }
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key()
            .total_cmp(&other.key())
            .then_with(|| self.tiebreak().cmp(&other.tiebreak()))
    }
}

/// The retained BRS search state, consumed by Phase 2 (§3.3).
#[derive(Debug, Clone)]
pub struct SearchState {
    /// The search heap at termination: unexpanded nodes plus encountered
    /// non-result records, all keyed by (max)score.
    pub heap: BinaryHeap<HeapEntry>,
    /// Leaf pages fetched during the search (their records are already in
    /// the heap; Phase 2 never re-reads them).
    pub leaf_pages_read: u64,
}

impl SearchState {
    /// The set `T`: non-result records already fetched into memory by BRS
    /// (the record entries remaining in the heap).
    pub fn encountered_records(&self) -> impl Iterator<Item = &Record> {
        self.heap.iter().filter_map(|e| match e {
            HeapEntry::Rec { record, .. } => Some(record),
            HeapEntry::Node { .. } => None,
        })
    }
}

/// A top-k result: records in decreasing score order with their scores.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// `(record, score)` pairs, best first.
    pub ranked: Vec<(Record, f64)>,
}

impl TopKResult {
    /// The k-th (lowest-ranked) result record — the pivot of Phase 2.
    pub fn kth(&self) -> &Record {
        &self.ranked.last().expect("non-empty result").0
    }

    /// Result records only, best first.
    pub fn records(&self) -> Vec<Record> {
        self.ranked.iter().map(|(r, _)| r.clone()).collect()
    }

    /// Result size.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when no records were found (empty dataset).
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The ids of the result records.
    pub fn ids(&self) -> Vec<u64> {
        self.ranked.iter().map(|(r, _)| r.id).collect()
    }
}

/// Runs BRS, returning the top-k result and the retained search state.
///
/// When the dataset holds fewer than `k` records, all of them are
/// returned.
pub fn brs_topk(
    tree: &RTree,
    scoring: &ScoringFunction,
    weights: &PointD,
    k: usize,
) -> Result<(TopKResult, SearchState), RTreeError> {
    assert!(k >= 1, "k must be at least 1");
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
    let mut ranked: Vec<(Record, f64)> = Vec::with_capacity(k);
    let mut leaf_pages_read = 0u64;
    let mut scores: Vec<f64> = Vec::new();

    heap.push(HeapEntry::Node {
        page: tree.root_page(),
        maxscore: f64::INFINITY,
        mbb: None,
    });

    while let Some(entry) = heap.pop() {
        match entry {
            HeapEntry::Rec { record, score } => {
                ranked.push((record, score));
                if ranked.len() == k {
                    break;
                }
            }
            HeapEntry::Node { page, .. } => {
                match &tree.read_node(page)?.entries {
                    NodeEntries::Internal(children) => {
                        for (mbb, child) in children {
                            let maxscore = scoring.maxscore(weights, mbb);
                            heap.push(HeapEntry::Node {
                                page: *child,
                                maxscore,
                                mbb: Some(mbb.clone()),
                            });
                        }
                    }
                    NodeEntries::Leaf(records) => {
                        leaf_pages_read += 1;
                        // One fused scoring pass over the leaf's records
                        // (columnar multiply-add for linear scoring).
                        scoring.scores_into(weights, records, &mut scores);
                        for (record, &score) in records.iter().zip(scores.iter()) {
                            heap.push(HeapEntry::Rec {
                                record: record.clone(),
                                score,
                            });
                        }
                    }
                }
            }
        }
    }

    Ok((
        TopKResult { ranked },
        SearchState {
            heap,
            leaf_pages_read,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_topk;
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

    fn build(n: usize, d: usize, seed: u64) -> (Vec<Record>, RTree) {
        let recs = pseudo_records(n, d, seed);
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &recs).unwrap();
        (recs, tree)
    }

    #[test]
    fn brs_matches_naive_topk() {
        let (recs, tree) = build(3000, 3, 11);
        let f = ScoringFunction::linear(3);
        for (wi, k) in [(0usize, 1usize), (1, 10), (2, 57)] {
            let w = PointD::new(match wi {
                0 => vec![0.5, 0.5, 0.5],
                1 => vec![0.9, 0.1, 0.3],
                _ => vec![0.05, 0.8, 0.4],
            });
            let (got, _) = brs_topk(&tree, &f, &w, k).unwrap();
            let expect = naive_topk(&recs, &f, &w, k);
            assert_eq!(got.ids(), expect.ids(), "k={k}");
        }
    }

    #[test]
    fn brs_scores_are_decreasing() {
        let (_, tree) = build(1000, 2, 12);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.6, 0.5]);
        let (res, _) = brs_topk(&tree, &f, &w, 25).unwrap();
        for pair in res.ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert_eq!(res.len(), 25);
    }

    #[test]
    fn brs_with_nonlinear_scoring() {
        let (recs, tree) = build(2000, 4, 13);
        for f in [ScoringFunction::polynomial4(), ScoringFunction::mixed4()] {
            let w = PointD::new(vec![0.7, 0.2, 0.9, 0.4]);
            let (got, _) = brs_topk(&tree, &f, &w, 20).unwrap();
            let expect = naive_topk(&recs, &f, &w, 20);
            assert_eq!(got.ids(), expect.ids());
        }
    }

    #[test]
    fn retained_state_holds_all_unreported_encounters() {
        let (_, tree) = build(500, 2, 14);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.5, 0.5]);
        let (res, state) = brs_topk(&tree, &f, &w, 10).unwrap();
        let result_ids: std::collections::HashSet<u64> = res.ids().into_iter().collect();
        // No result record lingers in the retained heap, and T is
        // non-empty for any non-trivial search.
        for r in state.encountered_records() {
            assert!(!result_ids.contains(&r.id));
        }
        assert!(state.encountered_records().count() > 0);
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let (recs, tree) = build(40, 2, 15);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.3, 0.7]);
        let (res, _) = brs_topk(&tree, &f, &w, 100).unwrap();
        assert_eq!(res.len(), recs.len());
    }

    #[test]
    fn io_optimality_reads_few_pages() {
        // BRS on a bulk-loaded tree must read far fewer pages than a scan.
        let (_, tree) = build(20_000, 2, 16);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.5, 0.5]);
        tree.store().reset_stats();
        let _ = brs_topk(&tree, &f, &w, 10).unwrap();
        let brs_reads = tree.store().stats().reads;
        tree.store().reset_stats();
        tree.scan_all().unwrap();
        let scan_reads = tree.store().stats().reads;
        assert!(
            brs_reads * 10 < scan_reads,
            "BRS reads {brs_reads} vs scan {scan_reads}"
        );
    }

    #[test]
    fn heap_entry_ordering_prefers_records_on_ties() {
        let rec = HeapEntry::Rec {
            record: Record::new(1, vec![0.5, 0.5]),
            score: 1.0,
        };
        let node = HeapEntry::Node {
            page: 9,
            maxscore: 1.0,
            mbb: None,
        };
        assert!(rec > node);
    }
}

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
//!
//! [`brs_topk`] is the one traversal loop, generic over where nodes come
//! from ([`NodeSource`]): the live tree counts a logical page read per
//! node, a decoded snapshot reads nothing. The [`SearchState`] pins the
//! `Arc<Node>`s it opened and its heap names records and child boxes by
//! their position in those nodes, so building the frontier copies no
//! `Record` and no `Mbb`.

use crate::score::ScoringFunction;
use gir_geometry::vector::PointD;
use gir_rtree::{Mbb, Node, NodeEntries, NodeSource, RTreeError, Record};
use gir_storage::PageId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The position of an entry inside the search: entry `slot` of the
/// `node`-th node the search pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Index into the search's pinned nodes.
    pub node: u32,
    /// Entry index inside that node.
    pub slot: u32,
}

/// A heap entry: an R-tree node awaiting expansion, or a record awaiting
/// reporting. Ordered by score bound (max-heap), ties broken
/// deterministically (records before nodes, then by id or page). A flat
/// struct rather than an enum, so a heap comparison reads fixed fields.
#[derive(Debug, Clone, Copy)]
pub struct HeapEntry {
    /// Upper bound on the score of any record below a node, or a
    /// record's exact score under the current query.
    pub key: f64,
    /// The record id or the node's page (the tie-break).
    pub id: u64,
    /// A record's position in its pinned leaf, or where a node's MBB
    /// sits in its parent ([`ROOT`] for the root). Phase 2 algorithms
    /// use the MBB to prune nodes *without* fetching them (paper §6.2:
    /// "if the MBB of the node lies completely below the interim
    /// facets, we prune it").
    pub at: Slot,
    /// True for a record, false for a node.
    pub record: bool,
}

/// The `at` of the root entry, which has no parent.
pub const ROOT: Slot = Slot {
    node: u32::MAX,
    slot: u32::MAX,
};

impl HeapEntry {
    /// A node entry for `page` under bound `maxscore`.
    #[inline]
    pub fn node(page: PageId, maxscore: f64, parent: Slot) -> HeapEntry {
        HeapEntry {
            key: maxscore,
            id: page,
            at: parent,
            record: false,
        }
    }

    /// A record entry with its exact score.
    #[inline]
    pub fn rec(id: u64, score: f64, at: Slot) -> HeapEntry {
        HeapEntry {
            key: score,
            id,
            at,
            record: true,
        }
    }

    /// Where a node entry's MBB sits, `None` for the root.
    #[inline]
    pub fn parent(&self) -> Option<Slot> {
        (self.at != ROOT).then_some(self.at)
    }
}

impl PartialEq for HeapEntry {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Records first on equal keys: their key is exact.
        self.key
            .total_cmp(&other.key)
            .then_with(|| (self.record, self.id).cmp(&(other.record, other.id)))
    }
}

/// A node still to be swept: its page and where its MBB sits.
pub type Pending = (PageId, Option<Slot>);

/// The retained BRS search state, consumed by Phase 2 (§3.3).
#[derive(Debug, Clone, Default)]
pub struct SearchState {
    /// The search heap at termination: unexpanded nodes plus encountered
    /// non-result records, all keyed by (max)score.
    pub heap: BinaryHeap<HeapEntry>,
    /// Leaf pages fetched during the search (their records are already in
    /// the heap; Phase 2 never re-reads them).
    pub leaf_pages_read: u64,
    /// Every node the search (and any sweep over it) opened.
    nodes: Vec<Arc<Node>>,
    /// Where the ranked records sit, best first.
    ranked: Vec<Slot>,
}

impl SearchState {
    /// A search that has opened nothing: only the root awaits expansion.
    pub fn from_root(root: PageId) -> SearchState {
        let mut state = SearchState::default();
        state.heap.push(HeapEntry::node(root, f64::INFINITY, ROOT));
        state
    }

    /// Reads `page` through `src` and pins it; returns its node index.
    pub fn open<S: NodeSource + ?Sized>(
        &mut self,
        src: &S,
        page: PageId,
    ) -> Result<u32, RTreeError> {
        self.nodes.push(src.node(page)?);
        Ok(self.nodes.len() as u32 - 1)
    }

    /// The entries of pinned node `node`.
    #[inline]
    pub fn entries(&self, node: u32) -> &NodeEntries {
        &self.nodes[node as usize].entries
    }

    /// The record at `at`.
    #[inline]
    pub fn record(&self, at: Slot) -> &Record {
        match self.entries(at.node) {
            NodeEntries::Leaf(records) => &records[at.slot as usize],
            NodeEntries::Internal(_) => unreachable!("a record slot names a leaf"),
        }
    }

    /// The child MBB at `at`.
    #[inline]
    pub fn mbb(&self, at: Slot) -> &Mbb {
        match self.entries(at.node) {
            NodeEntries::Internal(children) => &children[at.slot as usize].0,
            NodeEntries::Leaf(_) => unreachable!("a child slot names an internal node"),
        }
    }

    /// The set `T`: non-result records already fetched into memory by BRS
    /// (the record entries remaining in the heap).
    pub fn encountered_records(&self) -> impl Iterator<Item = &Record> {
        self.heap
            .iter()
            .filter(|e| e.record)
            .map(|e| self.record(e.at))
    }

    /// Pushes back the ranked records of this search that `keep`
    /// selects, with their scores from `ranked` — the result this
    /// search returned. A shard re-seeds the records it ranked that
    /// missed the global result: they are non-result candidates the
    /// frontier no longer covers.
    pub fn reseed(&mut self, ranked: &TopKResult, keep: impl Fn(u64) -> bool) {
        debug_assert_eq!(ranked.len(), self.ranked.len());
        for ((rec, score), &at) in ranked.ranked.iter().zip(&self.ranked) {
            if keep(rec.id) {
                self.heap.push(HeapEntry::rec(rec.id, *score, at));
            }
        }
    }

    /// Empties the heap into its record entries `(position, score)` and
    /// its node entries, each in heap order.
    pub fn drain(&mut self) -> (Vec<(Slot, f64)>, Vec<Pending>) {
        let mut records = Vec::new();
        let mut nodes = Vec::new();
        for e in self.heap.drain() {
            if e.record {
                records.push((e.at, e.key));
            } else {
                nodes.push((e.id, e.parent()));
            }
        }
        (records, nodes)
    }

    /// Depth-first sweep of the subtrees under `stack`. A node whose
    /// MBB `prunes` is skipped, tested when it is pushed and again when
    /// it is popped (the pruning structure tightens in between); every
    /// other node is opened through `src`, and its leaf records are
    /// handed to `visit`. `cx` is the structure both callbacks share.
    /// Returns `(nodes opened, nodes pruned)`.
    pub fn sweep<S: NodeSource + ?Sized, C>(
        &mut self,
        src: &S,
        mut stack: Vec<Pending>,
        cx: &mut C,
        mut prunes: impl FnMut(&mut C, &Mbb) -> bool,
        mut visit: impl FnMut(&mut C, &Record),
    ) -> Result<(usize, usize), RTreeError> {
        let (mut opened, mut pruned) = (0usize, 0usize);
        while let Some((page, parent)) = stack.pop() {
            if let Some(at) = parent {
                if prunes(cx, self.mbb(at)) {
                    pruned += 1;
                    continue;
                }
            }
            opened += 1;
            let node = self.open(src, page)?;
            match self.entries(node) {
                NodeEntries::Internal(children) => {
                    for (slot, (mbb, child)) in children.iter().enumerate() {
                        if prunes(cx, mbb) {
                            pruned += 1;
                        } else {
                            stack.push((
                                *child,
                                Some(Slot {
                                    node,
                                    slot: slot as u32,
                                }),
                            ));
                        }
                    }
                }
                NodeEntries::Leaf(records) => {
                    for rec in records {
                        visit(cx, rec);
                    }
                }
            }
        }
        Ok((opened, pruned))
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

/// Runs BRS over `src`, returning the top-k result and the retained
/// search state. Emits one `brs_visit` event (nodes opened, records
/// scored) per run.
///
/// When the dataset holds fewer than `k` records, all of them are
/// returned.
pub fn brs_topk<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    weights: &PointD,
    k: usize,
) -> Result<(TopKResult, SearchState), RTreeError> {
    assert!(k >= 1, "k must be at least 1");
    let mut state = SearchState::from_root(src.root());
    let mut ranked: Vec<(Record, f64)> = Vec::with_capacity(k);
    let mut scores: Vec<f64> = Vec::new();
    // Plain locals, reported once at the end: BRS cost accounting for
    // EXPLAIN/metrics without per-visit dispatch.
    let mut nodes_visited = 0u64;
    let mut leaves_scanned = 0u64;

    while let Some(entry) = state.heap.pop() {
        if entry.record {
            ranked.push((state.record(entry.at).clone(), entry.key));
            state.ranked.push(entry.at);
            if ranked.len() == k {
                break;
            }
        } else {
            let node = state.open(src, entry.id)?;
            nodes_visited += 1;
            let SearchState {
                heap,
                nodes,
                leaf_pages_read,
                ..
            } = &mut state;
            match &nodes[node as usize].entries {
                NodeEntries::Internal(children) => {
                    for (slot, (mbb, child)) in children.iter().enumerate() {
                        let at = Slot {
                            node,
                            slot: slot as u32,
                        };
                        heap.push(HeapEntry::node(*child, scoring.maxscore(weights, mbb), at));
                    }
                }
                NodeEntries::Leaf(records) => {
                    *leaf_pages_read += 1;
                    leaves_scanned += records.len() as u64;
                    // One fused scoring pass over the leaf's records
                    // (columnar multiply-add for linear scoring).
                    scoring.scores_into(weights, records, &mut scores);
                    for (slot, (record, &score)) in records.iter().zip(&scores).enumerate() {
                        let at = Slot {
                            node,
                            slot: slot as u32,
                        };
                        heap.push(HeapEntry::rec(record.id, score, at));
                    }
                }
            }
        }
    }
    tracing::event!("brs_visit", nodes = nodes_visited, leaves = leaves_scanned);

    Ok((TopKResult { ranked }, state))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_topk;
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
        let rec = HeapEntry::rec(1, 1.0, Slot { node: 0, slot: 0 });
        let node = HeapEntry::node(9, 1.0, ROOT);
        assert!(rec > node);
    }
}

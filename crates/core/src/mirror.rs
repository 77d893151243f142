//! An immutable R\*-tree mirror: the cached descent state of the
//! cold-miss fast path.
//!
//! A miss through the live tree pays a logical page fetch per node it
//! opens. The tree's structure is query-independent, so the
//! [`crate::prune::PruneIndex`] caches one [`TreeMirror`] per dataset
//! version: the tree's decoded nodes (`Arc<Node>`, shared with the
//! tree, which keeps every node decoded), indexed by page id, which
//! the miss path traverses with zero storage I/O and zero per-node
//! allocation. An update invalidates the mirror; the tree copies each
//! node the mirror still shares on its update path once, and the next
//! miss rebuilds the mirror lazily as one pointer copy per reachable
//! page.
//!
//! [`TreeMirror::topk`] is BRS over the mirror — identical traversal
//! order and tie-breaking to `gir_query::brs_topk` (the equivalence
//! tests pin this), returning the ranked result plus the retained
//! frontier with *borrowed* records (no clone of the set `T`).
//! [`fp_sweep_mirror`] is the FP Phase 2 sweep over that frontier,
//! seeded with the prune-index skyline so the incident-facet star is
//! maximally tight before the first node test.

use crate::fp::StarHull;
use gir_geometry::dominance::dominates;
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::vector::PointD;
use gir_query::{ScoringFunction, TopKResult};
use gir_rtree::{Mbb, Node, NodeEntries, RTree, RTreeError, Record};
use gir_storage::PageId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// An immutable snapshot of an R\*-tree's nodes (see module docs).
#[derive(Debug, Clone)]
pub struct TreeMirror {
    d: usize,
    root: PageId,
    /// Dense by page id (the paged store allocates sequentially).
    nodes: Vec<Option<Arc<Node>>>,
    records: u64,
}

impl TreeMirror {
    /// Shares every reachable node of `tree`, one logical page fetch
    /// per node.
    pub fn build(tree: &RTree) -> Result<TreeMirror, RTreeError> {
        let mut nodes: Vec<Option<Arc<Node>>> = Vec::new();
        let mut records = 0u64;
        let mut stack = vec![tree.root_page()];
        while let Some(page) = stack.pop() {
            let idx = page as usize;
            if nodes.len() <= idx {
                nodes.resize_with(idx + 1, || None);
            }
            let node = tree.read_node(page)?;
            match &node.entries {
                NodeEntries::Internal(children) => {
                    stack.extend(children.iter().map(|(_, c)| *c));
                }
                NodeEntries::Leaf(recs) => records += recs.len() as u64,
            }
            nodes[idx] = Some(node);
        }
        Ok(TreeMirror {
            d: tree.dim(),
            root: tree.root_page(),
            nodes,
            records,
        })
    }

    /// Attribute dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The mirrored root page.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Records across all mirrored leaves.
    pub fn num_records(&self) -> u64 {
        self.records
    }

    /// The entries of the node at `page`.
    ///
    /// # Panics
    /// When `page` was not reachable at build time — a stale mirror,
    /// i.e. a caller that mutated the tree without invalidating the
    /// prune index.
    pub fn node(&self, page: PageId) -> &NodeEntries {
        &self
            .nodes
            .get(page as usize)
            .and_then(|n| n.as_ref())
            .expect("stale tree mirror: updates must invalidate the prune index")
            .entries
    }

    /// BRS top-k over the mirror: identical result (including
    /// tie-breaking) to `gir_query::brs_topk`, with the retained
    /// frontier borrowing the mirror's records instead of cloning them.
    pub fn topk(
        &self,
        scoring: &ScoringFunction,
        weights: &PointD,
        k: usize,
    ) -> (TopKResult, Frontier<'_>) {
        assert!(k >= 1, "k must be at least 1");
        let mut heap: BinaryHeap<FrontierEntry<'_>> = BinaryHeap::new();
        let mut ranked: Vec<(Record, f64)> = Vec::with_capacity(k);
        // Plain locals, reported once at the end: BRS cost accounting
        // for EXPLAIN/metrics without per-visit dispatch.
        let mut nodes_visited = 0u64;
        let mut leaves_scanned = 0u64;
        heap.push(FrontierEntry::Node {
            page: self.root,
            maxscore: f64::INFINITY,
            mbb: None,
        });
        while let Some(entry) = heap.pop() {
            match entry {
                FrontierEntry::Rec { rec, score } => {
                    ranked.push((rec.clone(), score));
                    if ranked.len() == k {
                        break;
                    }
                }
                FrontierEntry::Node { page, .. } => match self.node(page) {
                    NodeEntries::Internal(children) => {
                        nodes_visited += 1;
                        for (mbb, child) in children {
                            heap.push(FrontierEntry::Node {
                                page: *child,
                                maxscore: scoring.maxscore(weights, mbb),
                                mbb: Some(mbb),
                            });
                        }
                    }
                    NodeEntries::Leaf(records) => {
                        nodes_visited += 1;
                        leaves_scanned += records.len() as u64;
                        for rec in records {
                            heap.push(FrontierEntry::Rec {
                                rec,
                                score: scoring.score(weights, &rec.attrs),
                            });
                        }
                    }
                },
            }
        }
        tracing::event!("brs_visit", nodes = nodes_visited, leaves = leaves_scanned);
        (TopKResult { ranked }, Frontier { heap })
    }
}

/// A retained-search frontier entry borrowing the mirror's data.
#[derive(Debug, Clone)]
pub enum FrontierEntry<'a> {
    /// An unexpanded node with its maxscore bound.
    Node {
        /// Page id in the mirrored tree.
        page: PageId,
        /// Maxscore bound (top-corner score).
        maxscore: f64,
        /// The node's MBB from its parent entry (`None` for the root).
        mbb: Option<&'a Mbb>,
    },
    /// An encountered, unreported record.
    Rec {
        /// The record (borrowed from a mirrored leaf).
        rec: &'a Record,
        /// Its exact score.
        score: f64,
    },
}

impl FrontierEntry<'_> {
    fn key(&self) -> f64 {
        match self {
            FrontierEntry::Node { maxscore, .. } => *maxscore,
            FrontierEntry::Rec { score, .. } => *score,
        }
    }

    // Mirrors `gir_query::HeapEntry`'s tie-breaking exactly: records
    // before nodes on equal keys, then by id.
    fn tiebreak(&self) -> (u8, u64) {
        match self {
            FrontierEntry::Rec { rec, .. } => (1, rec.id),
            FrontierEntry::Node { page, .. } => (0, *page),
        }
    }
}

impl PartialEq for FrontierEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for FrontierEntry<'_> {}
impl PartialOrd for FrontierEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontierEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key()
            .total_cmp(&other.key())
            .then_with(|| self.tiebreak().cmp(&other.tiebreak()))
    }
}

/// The retained frontier of a [`TreeMirror::topk`] run.
#[derive(Debug)]
pub struct Frontier<'a> {
    /// Unexpanded nodes plus encountered non-result records.
    pub heap: BinaryHeap<FrontierEntry<'a>>,
}

/// FP Phase 2 over the mirror: the incident-facet star pinned at `p_k`,
/// seeded with `seeds` (the prune-index skyline minus the result —
/// known candidates, so the star starts tight), then refined over the
/// frontier's records and nodes. Star-based node pruning only: with a
/// decoded mirror, opening a node costs a few comparisons, so the
/// footnote-7 per-node LP no longer pays for itself.
///
/// `seed_scores[i]` is seed `i`'s score at the current query (the
/// caller computes them with the columnar
/// `gir_query::RecordBlocks::linear_scores` kernel); candidates are
/// inserted best-first so early facets prune the rest.
///
/// Returns the critical half-spaces and the final facet count.
pub fn fp_sweep_mirror(
    mirror: &TreeMirror,
    kth: &Record,
    frontier: Frontier<'_>,
    seeds: &[Record],
    seed_scores: &[f64],
    exclude: &[u64],
) -> (Vec<HalfSpace>, usize) {
    debug_assert_eq!(seeds.len(), seed_scores.len());
    let mut star = StarHull::new(kth.attrs.clone());

    // Candidates best-first (by actual query score — the frontier
    // already carries scores; seed scores come pre-fused).
    let mut cands: Vec<(&Record, f64)> = Vec::with_capacity(seeds.len() + frontier.heap.len());
    for (rec, &score) in seeds.iter().zip(seed_scores) {
        if rec.id != kth.id && !dominates(&kth.attrs, &rec.attrs) {
            cands.push((rec, score));
        }
    }
    let mut nodes: Vec<(Option<&Mbb>, PageId)> = Vec::new();
    for entry in frontier.heap.into_vec() {
        match entry {
            FrontierEntry::Rec { rec, score } => {
                if rec.id != kth.id
                    && !exclude.contains(&rec.id)
                    && !dominates(&kth.attrs, &rec.attrs)
                {
                    cands.push((rec, score));
                }
            }
            FrontierEntry::Node { page, mbb, .. } => nodes.push((mbb, page)),
        }
    }
    cands.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("non-NaN"));
    for (rec, _) in &cands {
        star.insert(&rec.attrs, rec.id);
    }

    let mut stack = nodes;
    while let Some((mbb, page)) = stack.pop() {
        if let Some(m) = mbb {
            if star.prunes_mbb(m) {
                continue;
            }
        }
        match mirror.node(page) {
            NodeEntries::Internal(children) => {
                for (child_mbb, child) in children {
                    if !star.prunes_mbb(child_mbb) {
                        stack.push((Some(child_mbb), *child));
                    }
                }
            }
            NodeEntries::Leaf(records) => {
                for rec in records {
                    if rec.id != kth.id
                        && !exclude.contains(&rec.id)
                        && !dominates(&kth.attrs, &rec.attrs)
                    {
                        star.insert(&rec.attrs, rec.id);
                    }
                }
            }
        }
    }

    let halfspaces = star
        .critical_records()
        .into_iter()
        .map(|(id, attrs)| {
            HalfSpace::score_order(&kth.attrs, &attrs, Provenance::NonResult { record_id: id })
        })
        .collect();
    (halfspaces, star.num_facets())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_query::brs_topk;
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
    fn mirror_covers_every_record() {
        let (recs, tree) = setup(2000, 3, 0x31);
        let mirror = TreeMirror::build(&tree).unwrap();
        assert_eq!(mirror.num_records(), recs.len() as u64);
        assert_eq!(mirror.dim(), 3);
        assert_eq!(mirror.root_page(), tree.root_page());
    }

    #[test]
    fn mirror_topk_matches_brs_exactly() {
        // Same ranked ids — including order and tie handling — for
        // linear and non-linear scoring, several k.
        let (_, tree) = setup(3000, 4, 0x32);
        let mirror = TreeMirror::build(&tree).unwrap();
        for scoring in [ScoringFunction::linear(4), ScoringFunction::mixed4()] {
            for (k, wv) in [
                (1usize, vec![0.5, 0.5, 0.5, 0.5]),
                (10, vec![0.9, 0.1, 0.3, 0.6]),
                (57, vec![0.05, 0.8, 0.4, 0.2]),
            ] {
                let w = PointD::new(wv);
                let (expect, state) = brs_topk(&tree, &scoring, &w, k).unwrap();
                let (got, frontier) = mirror.topk(&scoring, &w, k);
                assert_eq!(got.ids(), expect.ids(), "k={k}");
                // The retained frontiers hold the same record set T.
                let mut t_expect: Vec<u64> = state.encountered_records().map(|r| r.id).collect();
                let mut t_got: Vec<u64> = frontier
                    .heap
                    .iter()
                    .filter_map(|e| match e {
                        FrontierEntry::Rec { rec, .. } => Some(rec.id),
                        _ => None,
                    })
                    .collect();
                t_expect.sort_unstable();
                t_got.sort_unstable();
                assert_eq!(t_got, t_expect, "frontier T mismatch at k={k}");
            }
        }
    }

    #[test]
    fn mirror_topk_handles_k_beyond_dataset() {
        let (recs, tree) = setup(40, 2, 0x33);
        let mirror = TreeMirror::build(&tree).unwrap();
        let (res, _) = mirror.topk(
            &ScoringFunction::linear(2),
            &PointD::new(vec![0.4, 0.7]),
            100,
        );
        assert_eq!(res.len(), recs.len());
    }

    #[test]
    fn fp_sweep_mirror_matches_direct_fp_region() {
        use crate::fp::fp_phase2;
        use crate::phase1::ordering_halfspaces;
        for (d, seed) in [(3usize, 0x34u64), (4, 0x35)] {
            let (recs, tree) = setup(800, d, seed);
            let mirror = TreeMirror::build(&tree).unwrap();
            let f = ScoringFunction::linear(d);
            let w = PointD::new(vec![0.6; d]);
            let k = 10;
            let (res, state) = brs_topk(&tree, &f, &w, k).unwrap();
            let interim = ordering_halfspaces(&res, &f);
            let (direct_hs, _) = fp_phase2(&tree, &f, res.kth(), state, &interim).unwrap();

            let (res_m, frontier) = mirror.topk(&f, &w, k);
            assert_eq!(res_m.ids(), res.ids());
            let exclude = res_m.ids();
            let (mirror_hs, _) =
                fp_sweep_mirror(&mirror, res_m.kth(), frontier, &[], &[], &exclude);

            // Pointwise-equal Phase-2 regions.
            let mut s = seed ^ 0xBEEF;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..200 {
                let wp = PointD::from((0..d).map(|_| next()).collect::<Vec<_>>());
                let a = direct_hs.iter().all(|h| h.contains(&wp, 1e-9));
                let b = mirror_hs.iter().all(|h| h.contains(&wp, 1e-9));
                if a != b {
                    let margin: f64 = direct_hs
                        .iter()
                        .chain(&mirror_hs)
                        .map(|h| h.slack(&wp))
                        .fold(f64::INFINITY, |m, v| m.min(v.abs()));
                    assert!(margin < 1e-6, "d={d}: sweep regions differ at {wp:?}");
                }
            }
            let _ = recs;
        }
    }
}

//! An immutable R\*-tree mirror: the cached descent state of the
//! cold-miss fast path.
//!
//! A miss through the live tree pays a logical page fetch per node it
//! opens. The tree's structure is query-independent, so the
//! [`crate::prune::PruneIndex`] caches one [`TreeMirror`] per dataset
//! version: the tree's decoded nodes (`Arc<Node>`, shared with the
//! tree, which keeps every node decoded), indexed by page id. An update
//! invalidates the mirror; the tree copies each node the mirror still
//! shares on its update path once, and the next miss rebuilds the
//! mirror lazily as one pointer copy per reachable page.
//!
//! The mirror is a [`NodeSource`] that reads nothing: every traversal —
//! `gir_query::brs_topk`, BBS, the Phase-2 sweeps — runs over it
//! unchanged, with zero storage I/O. [`fp_sweep_mirror`] is the indexed
//! FP Phase 2, seeded straight from the prune-index skyline's columns
//! so the incident-facet star is maximally tight before the first node
//! test.

use crate::fp::StarHull;
use gir_geometry::dominance::{dominates, dominates_slice};
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::vector::PointD;
use gir_query::{brs_topk, Lane, RecordBlocks, ScoringFunction, SearchState, TopKResult};
use gir_rtree::{Node, NodeEntries, NodeSource, RTree, RTreeError, Record};
use gir_storage::PageId;
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

    /// BRS top-k over the mirror (`gir_query::brs_topk`, zero I/O).
    pub fn topk(
        &self,
        scoring: &ScoringFunction,
        weights: &PointD,
        k: usize,
    ) -> (TopKResult, SearchState) {
        brs_topk(self, scoring, weights, k).expect("mirror reads perform no I/O")
    }
}

impl NodeSource for TreeMirror {
    fn root(&self) -> PageId {
        self.root
    }

    /// The shared node, uncounted.
    ///
    /// # Panics
    /// When `page` was not reachable at build time — a stale mirror,
    /// i.e. a caller that mutated the tree without invalidating the
    /// prune index.
    fn node(&self, page: PageId) -> Result<Arc<Node>, RTreeError> {
        Ok(Arc::clone(
            self.nodes
                .get(page as usize)
                .and_then(Option::as_ref)
                .expect("stale tree mirror: updates must invalidate the prune index"),
        ))
    }
}

/// FP Phase 2 over the mirror: the incident-facet star pinned at `p_k`,
/// seeded with the `seeds` records outside `exclude` (the prune-index
/// skyline minus the result — known candidates, so the star starts
/// tight), then refined over the frontier's records and nodes.
/// Star-based node pruning only: with a decoded mirror, opening a node
/// costs a few comparisons, so the footnote-7 per-node LP no longer
/// pays for itself.
///
/// Seeds are scored at `weights` by the columnar
/// `gir_query::RecordBlocks::linear_scores` kernel and read straight
/// from their columns — no seed record is materialised; candidates
/// are inserted best-first so early facets prune the rest.
///
/// Returns the critical half-spaces and the final facet count.
pub fn fp_sweep_mirror(
    mirror: &TreeMirror,
    kth: &Record,
    mut frontier: SearchState,
    seeds: &RecordBlocks,
    weights: &[f64],
    exclude: &[u64],
) -> (Vec<HalfSpace>, usize) {
    /// A candidate: a skyline lane or a frontier record.
    enum Cand<'a> {
        Seed(Lane, u64),
        Frontier(&'a Record),
    }
    let pk = kth.attrs.coords();
    let mut star = StarHull::new(pk);
    let candidate = |rec: &Record| {
        rec.id != kth.id && !exclude.contains(&rec.id) && !dominates(&kth.attrs, &rec.attrs)
    };

    // Candidates best-first (by actual query score — the frontier
    // already carries scores, the kernel scores the seeds).
    let (records, nodes) = frontier.drain();
    let mut attrs = vec![0.0; pk.len()];
    let mut cands: Vec<(Cand<'_>, f64)> = Vec::with_capacity(seeds.len() + records.len());
    seeds.linear_scores(weights, |at, id, score| {
        if id == kth.id || exclude.contains(&id) {
            return;
        }
        seeds.attrs_into(at, &mut attrs);
        if !dominates_slice(pk, &attrs) {
            cands.push((Cand::Seed(at, id), score));
        }
    });
    cands.extend(
        records
            .iter()
            .map(|&(at, score)| (frontier.record(at), score))
            .filter(|(rec, _)| candidate(rec))
            .map(|(rec, score)| (Cand::Frontier(rec), score)),
    );
    cands.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("non-NaN"));
    for (cand, _) in &cands {
        match *cand {
            Cand::Seed(at, id) => {
                seeds.attrs_into(at, &mut attrs);
                star.insert(&attrs, id);
            }
            Cand::Frontier(rec) => {
                star.insert(rec.attrs.coords(), rec.id);
            }
        }
    }
    drop(cands);

    frontier
        .sweep(
            mirror,
            nodes,
            &mut star,
            |star, mbb| star.prunes_mbb(mbb),
            |star, rec| {
                if candidate(rec) {
                    star.insert(rec.attrs.coords(), rec.id);
                }
            },
        )
        .expect("mirror reads perform no I/O");

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
        // BRS over the live tree and BRS over the mirror: the same ranked
        // ids (including order and tie handling) and the same retained
        // frontier records, for linear and non-linear scoring, several k.
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
                let (got, frontier) = brs_topk(&mirror, &scoring, &w, k).unwrap();
                assert_eq!(got.ids(), expect.ids(), "k={k}");
                let t = |s: &SearchState| {
                    let mut ids: Vec<u64> = s.encountered_records().map(|r| r.id).collect();
                    ids.sort_unstable();
                    ids
                };
                assert_eq!(t(&frontier), t(&state), "frontier T mismatch at k={k}");
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
            let (mirror_hs, _) = fp_sweep_mirror(
                &mirror,
                res_m.kth(),
                frontier,
                &RecordBlocks::new(d),
                w.coords(),
                &exclude,
            );

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

//! The GIR engine: top-k retrieval + Phase 1 + Phase 2 in one call.

use crate::fp::fp_phase2;
use crate::fullscan::fullscan_phase2;
use crate::gir_star::{gir_star_region, StarMethod};
use crate::phase1::ordering_halfspaces;
use crate::prune::PruneIndex;
use crate::region::GirRegion;
use crate::sp::sp_phase2;
use crate::{cp::cp_phase2, gir_star::GirStarStats};
use gir_query::{brs_topk, QueryVector, ScoringFunction, TopKResult};
use gir_rtree::{RTree, RTreeError};
use std::collections::HashSet;
use std::time::Instant;

/// Phase 2 algorithm selection (paper §5–§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// SP — skyline pruning (§5.1). Valid for any monotone scoring.
    SkylinePruning,
    /// CP — convex-hull-of-skyline pruning (§5.2). Linear scoring only.
    ConvexHullPruning,
    /// FP — facet pruning (§6), the paper's method. Linear scoring only.
    FacetPruning,
    /// The §3.3 strawman: every non-result record contributes (reads the
    /// whole dataset). Oracle/baseline.
    FullScan,
}

impl Method {
    /// Label used in benchmark tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::SkylinePruning => "SP",
            Method::ConvexHullPruning => "CP",
            Method::FacetPruning => "FP",
            Method::FullScan => "SCAN",
        }
    }

    /// True when the method supports the given scoring function (§7.2).
    pub fn supports(&self, scoring: &ScoringFunction) -> bool {
        match self {
            Method::SkylinePruning | Method::FullScan => true,
            Method::ConvexHullPruning | Method::FacetPruning => scoring.is_linear(),
        }
    }
}

/// Errors from GIR computation.
#[derive(Debug)]
pub enum GirError {
    /// Underlying index/storage failure.
    Tree(RTreeError),
    /// The dataset is empty (no top-k result exists).
    EmptyResult,
    /// CP/FP requested with a non-linear scoring function (§7.2).
    UnsupportedScoring {
        /// The offending method.
        method: Method,
    },
    /// A distributed shard worker could not answer (dead, hung past
    /// its deadline, or still rejoining). Degrades the one response
    /// that needed the shard, never the batch.
    ShardUnavailable {
        /// The unreachable shard.
        shard: usize,
        /// Why the call failed (timeout, closed transport, …).
        reason: String,
    },
}

impl std::fmt::Display for GirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GirError::Tree(e) => write!(f, "index error: {e}"),
            GirError::EmptyResult => write!(f, "empty dataset: no top-k result"),
            GirError::UnsupportedScoring { method } => write!(
                f,
                "{} requires a linear scoring function (paper §7.2)",
                method.label()
            ),
            GirError::ShardUnavailable { shard, reason } => {
                write!(f, "shard {shard} unavailable: {reason}")
            }
        }
    }
}

impl std::error::Error for GirError {}

impl From<RTreeError> for GirError {
    fn from(e: RTreeError) -> Self {
        GirError::Tree(e)
    }
}

/// Cost and size statistics for one GIR computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct GirStats {
    /// Wall-clock milliseconds for the initial BRS top-k retrieval.
    pub topk_ms: f64,
    /// Pages fetched by BRS.
    pub topk_pages: u64,
    /// Wall-clock milliseconds for Phases 1+2 (the paper's CPU metric).
    pub gir_cpu_ms: f64,
    /// Pages fetched by Phase 2 (the paper's I/O metric).
    pub gir_pages: u64,
    /// Non-result records contributing half-spaces (post-pruning).
    pub candidates: usize,
    /// Intermediate structure size: skyline cardinality (SP/CP),
    /// incident facets (FP), or dataset size (FullScan).
    pub structure_size: usize,
    /// Total half-spaces in the produced region (incl. ordering + box).
    pub halfspaces: usize,
}

/// A GIR computation result.
#[derive(Debug, Clone)]
pub struct GirOutput {
    /// The top-k result (records with scores, best first).
    pub result: TopKResult,
    /// The global immutable region.
    pub region: GirRegion,
    /// Cost statistics.
    pub stats: GirStats,
}

/// Ties the substrates together: BRS top-k over the R\*-tree, then GIR
/// Phase 1 + Phase 2 with the selected method.
pub struct GirEngine<'a> {
    tree: &'a RTree,
    scoring: ScoringFunction,
}

impl<'a> GirEngine<'a> {
    /// An engine with the default linear scoring function (§3.1).
    pub fn new(tree: &'a RTree) -> Self {
        let scoring = ScoringFunction::linear(tree.dim());
        GirEngine { tree, scoring }
    }

    /// An engine with a custom monotone scoring function (§7.2).
    pub fn with_scoring(tree: &'a RTree, scoring: ScoringFunction) -> Self {
        assert_eq!(scoring.dim(), tree.dim(), "scoring dimensionality mismatch");
        GirEngine { tree, scoring }
    }

    /// The scoring function in use.
    pub fn scoring(&self) -> &ScoringFunction {
        &self.scoring
    }

    /// Plain top-k (no GIR).
    pub fn topk(&self, q: &QueryVector, k: usize) -> Result<TopKResult, GirError> {
        let (res, _) = brs_topk(self.tree, &self.scoring, &q.weights, k)?;
        if res.is_empty() {
            return Err(GirError::EmptyResult);
        }
        Ok(res)
    }

    /// Computes the top-k result and its (order-sensitive) GIR.
    ///
    /// # Examples
    ///
    /// ```
    /// use gir_core::{GirEngine, Method};
    /// use gir_query::{QueryVector, Record};
    /// use gir_rtree::RTree;
    /// use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
    /// use std::sync::Arc;
    ///
    /// // A small deterministic 2-d dataset (seeded xorshift grid).
    /// let mut s = 0x5EEDu64;
    /// let mut next = move || {
    ///     s ^= s << 13;
    ///     s ^= s >> 7;
    ///     s ^= s << 17;
    ///     (s >> 11) as f64 / (1u64 << 53) as f64
    /// };
    /// let recs: Vec<Record> = (0..200)
    ///     .map(|i| Record::new(i, vec![next(), next()]))
    ///     .collect();
    /// let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    /// let tree = RTree::bulk_load(store, &recs).unwrap();
    ///
    /// let engine = GirEngine::new(&tree);
    /// let q = QueryVector::new(vec![0.6, 0.5]);
    /// let out = engine.gir(&q, 5, Method::FacetPruning).unwrap();
    ///
    /// assert_eq!(out.result.len(), 5);
    /// // Every weight vector inside the region reproduces the same
    /// // ranked top-5 — starting with the query itself.
    /// assert!(out.region.contains(&q.weights));
    /// ```
    pub fn gir(&self, q: &QueryVector, k: usize, method: Method) -> Result<GirOutput, GirError> {
        if !method.supports(&self.scoring) {
            return Err(GirError::UnsupportedScoring { method });
        }
        let store = self.tree.store();
        let s0 = store.stats();
        let t0 = Instant::now();
        let mut topk_span = tracing::span!("brs_topk", method = method.label());
        let (result, state) = brs_topk(self.tree, &self.scoring, &q.weights, k)?;
        if result.is_empty() {
            return Err(GirError::EmptyResult);
        }
        let topk_ms = t0.elapsed().as_secs_f64() * 1e3;
        let s1 = store.stats();
        topk_span.record("pages", s1.reads_since(&s0));
        drop(topk_span);

        let t1 = Instant::now();
        let phase1_span = tracing::span!("phase1", k = k);
        let mut halfspaces = ordering_halfspaces(&result, &self.scoring);
        drop(phase1_span);
        let mut phase2_span = tracing::span!("phase2", method = method.label());
        let result_ids: HashSet<u64> = result.ids().into_iter().collect();
        let kth = result.kth().clone();

        let (phase2_hs, candidates, structure_size) = match method {
            Method::SkylinePruning => {
                let (hs, st) = sp_phase2(self.tree, &self.scoring, &kth, state, &result_ids)?;
                (hs, st.candidates, st.structure_size)
            }
            Method::ConvexHullPruning => {
                let (hs, st) = cp_phase2(self.tree, &self.scoring, &kth, state, &result_ids)?;
                (hs, st.candidates, st.structure_size)
            }
            Method::FacetPruning => {
                let (hs, st) = fp_phase2(self.tree, &self.scoring, &kth, state, &halfspaces)?;
                (hs, st.critical, st.facets)
            }
            Method::FullScan => {
                let (hs, st) = fullscan_phase2(self.tree, &self.scoring, &kth, &result_ids)?;
                (hs, st.candidates, st.structure_size)
            }
        };
        halfspaces.extend(phase2_hs);
        let region = GirRegion::new(self.tree.dim(), q.weights.clone(), halfspaces);
        let gir_cpu_ms = t1.elapsed().as_secs_f64() * 1e3;
        let s2 = store.stats();
        phase2_span.record("pages", s2.reads_since(&s1));
        phase2_span.record("candidates", candidates);
        drop(phase2_span);

        let stats = GirStats {
            topk_ms,
            topk_pages: s1.reads_since(&s0),
            gir_cpu_ms,
            gir_pages: s2.reads_since(&s1),
            candidates,
            structure_size,
            halfspaces: region.num_halfspaces(),
        };
        Ok(GirOutput {
            result,
            region,
            stats,
        })
    }

    /// Computes the top-k result and its GIR through a shared
    /// [`PruneIndex`] — the cold-miss fast path. A single tree is the
    /// S = 1 case of the sharded plan, so this is
    /// [`crate::sharded::gir_sharded`] over one
    /// [`crate::sharded::ShardView`]: BRS runs over the decoded
    /// [`crate::mirror::TreeMirror`] (zero page I/O), SP/CP resume BBS
    /// from its frontier exactly as [`GirEngine::gir`] does, FP sweeps
    /// the frontier with a star seeded from the cached skyline, and the
    /// Phase-2 system — keyed by `(method, result set, p_k)` — is reused
    /// verbatim whenever the ranking recurs and maintained exactly under
    /// deltas. Pointwise identical to [`GirEngine::gir`]
    /// (`tests/planner_differential.rs` pins it).
    pub fn gir_indexed(
        &self,
        q: &QueryVector,
        k: usize,
        method: Method,
        index: &PruneIndex,
    ) -> Result<GirOutput, GirError> {
        let view = crate::sharded::ShardView {
            tree: self.tree,
            index,
        };
        crate::sharded::gir_sharded(&[view], &self.scoring, q, k, method)
    }

    /// Computes the global top-k and its GIR over a **sharded**
    /// dataset: per-shard BRS frontiers merge into the global result,
    /// each shard runs Phase 2 against the global `p_k` through its own
    /// [`PruneIndex`], and the per-shard half-space systems intersect
    /// into one region — pointwise identical to the single-tree GIR
    /// (see [`crate::sharded`]).
    ///
    /// An associated function rather than a method: a sharded dataset
    /// has no single tree for an engine to borrow.
    pub fn gir_sharded(
        shards: &[crate::sharded::ShardView<'_>],
        scoring: &ScoringFunction,
        q: &QueryVector,
        k: usize,
        method: Method,
    ) -> Result<GirOutput, GirError> {
        crate::sharded::gir_sharded(shards, scoring, q, k, method)
    }

    /// Computes the order-insensitive GIR\* through a shared
    /// [`PruneIndex`] — the star companion of
    /// [`GirEngine::gir_indexed`]. A single tree is the S=1 case of the
    /// sharded star plan, so this delegates to
    /// [`crate::sharded::gir_star_sharded`] over one
    /// [`crate::sharded::ShardView`]: the top-k runs over the decoded
    /// [`crate::mirror::TreeMirror`] (zero I/O), the star sweeps seed
    /// from the cached skyline, and the star Phase-2 system — keyed by
    /// `(RegionKind::GirStar, method, result in rank order, p_k)` — is
    /// reused verbatim whenever the ranking recurs and maintained
    /// exactly under deltas. Pointwise identical to
    /// [`GirEngine::gir_star`] (`tests/proptest_star_shard.rs` pins the
    /// S=1 equivalence).
    pub fn gir_star_indexed(
        &self,
        q: &QueryVector,
        k: usize,
        method: Method,
        index: &PruneIndex,
    ) -> Result<GirOutput, GirError> {
        let view = crate::sharded::ShardView {
            tree: self.tree,
            index,
        };
        crate::sharded::gir_star_sharded(&[view], &self.scoring, q, k, method)
    }

    /// Computes the global top-k and its order-insensitive GIR\*
    /// (§7.1) over a **sharded** dataset: the star companion of
    /// [`GirEngine::gir_sharded`] — per-shard star systems against the
    /// globally merged per-rank pivots, intersected into one region
    /// (see [`crate::sharded::gir_star_sharded`]).
    pub fn gir_star_sharded(
        shards: &[crate::sharded::ShardView<'_>],
        scoring: &ScoringFunction,
        q: &QueryVector,
        k: usize,
        method: Method,
    ) -> Result<GirOutput, GirError> {
        crate::sharded::gir_star_sharded(shards, scoring, q, k, method)
    }

    /// Computes the order-insensitive GIR\* (§7.1): the maximal locus
    /// of weight vectors preserving the top-k *composition* (Definition
    /// 2). GIR ⊆ GIR\*, so the star region answers strictly more
    /// queries when the ranking inside the set does not matter.
    ///
    /// # Examples
    ///
    /// ```
    /// use gir_core::{GirEngine, Method};
    /// use gir_query::{QueryVector, Record};
    /// use gir_rtree::RTree;
    /// use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
    /// use std::sync::Arc;
    ///
    /// let mut s = 0x5EEDu64;
    /// let mut next = move || {
    ///     s ^= s << 13;
    ///     s ^= s >> 7;
    ///     s ^= s << 17;
    ///     (s >> 11) as f64 / (1u64 << 53) as f64
    /// };
    /// let recs: Vec<Record> = (0..200)
    ///     .map(|i| Record::new(i, vec![next(), next()]))
    ///     .collect();
    /// let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    /// let tree = RTree::bulk_load(store, &recs).unwrap();
    ///
    /// let engine = GirEngine::new(&tree);
    /// let q = QueryVector::new(vec![0.6, 0.5]);
    /// let gir = engine.gir(&q, 5, Method::FacetPruning).unwrap();
    /// let star = engine.gir_star(&q, 5, Method::FacetPruning).unwrap();
    ///
    /// // Same top-5; the star region encloses the order-sensitive one
    /// // (checked on a deterministic grid of weight vectors).
    /// assert_eq!(star.result.ids(), gir.result.ids());
    /// assert!(star.region.contains(&q.weights));
    /// for step in 0..400 {
    ///     use gir_geometry::vector::PointD;
    ///     let w = PointD::new(vec![(step % 20) as f64 / 20.0, (step / 20) as f64 / 20.0]);
    ///     if gir.region.contains(&w) {
    ///         assert!(star.region.contains(&w), "GIR ⊄ GIR* at {w:?}");
    ///     }
    /// }
    /// ```
    pub fn gir_star(
        &self,
        q: &QueryVector,
        k: usize,
        method: Method,
    ) -> Result<GirOutput, GirError> {
        if !method.supports(&self.scoring) {
            return Err(GirError::UnsupportedScoring { method });
        }
        let star_method = StarMethod::for_method(method);
        let store = self.tree.store();
        let s0 = store.stats();
        let t0 = Instant::now();
        let mut topk_span = tracing::span!("brs_topk", method = method.label());
        let (result, state) = brs_topk(self.tree, &self.scoring, &q.weights, k)?;
        if result.is_empty() {
            return Err(GirError::EmptyResult);
        }
        let topk_ms = t0.elapsed().as_secs_f64() * 1e3;
        let s1 = store.stats();
        topk_span.record("pages", s1.reads_since(&s0));
        drop(topk_span);

        let t1 = Instant::now();
        let mut star_span = tracing::span!("star_region", method = method.label());
        let (region, st): (GirRegion, GirStarStats) = gir_star_region(
            self.tree,
            &self.scoring,
            &q.weights,
            &result,
            state,
            star_method,
        )?;
        let gir_cpu_ms = t1.elapsed().as_secs_f64() * 1e3;
        let s2 = store.stats();
        star_span.record("pages", s2.reads_since(&s1));
        star_span.record("candidates", st.candidates);
        drop(star_span);

        let stats = GirStats {
            topk_ms,
            topk_pages: s1.reads_since(&s0),
            gir_cpu_ms,
            gir_pages: s2.reads_since(&s1),
            candidates: st.candidates,
            structure_size: st.structure_size,
            halfspaces: region.num_halfspaces(),
        };
        Ok(GirOutput {
            result,
            region,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_geometry::vector::PointD;
    use gir_rtree::Record;
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

    const METHODS: [Method; 4] = [
        Method::SkylinePruning,
        Method::ConvexHullPruning,
        Method::FacetPruning,
        Method::FullScan,
    ];

    /// The central correctness law (Definition 1): w' is in the GIR iff
    /// the naive top-k under w' equals the original result, including
    /// order.
    fn check_gir_law(n: usize, d: usize, k: usize, seed: u64) {
        use gir_query::naive_topk;
        let (recs, tree) = setup(n, d, seed);
        let engine = GirEngine::new(&tree);
        let w: Vec<f64> = (0..d).map(|i| 0.4 + 0.1 * (i as f64 % 3.0)).collect();
        let q = QueryVector::new(w);
        let mut regions = Vec::new();
        for m in METHODS {
            let out = engine.gir(&q, k, m).unwrap();
            assert!(out.region.contains(&q.weights), "{m:?}: q outside own GIR");
            assert_eq!(out.result.len(), k);
            regions.push((m, out));
        }
        let base_ids = regions[0].1.result.ids();
        let f = gir_query::ScoringFunction::linear(d);

        let mut s = seed ^ 0xF00D;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..100 {
            let wp = PointD::from((0..d).map(|_| next()).collect::<Vec<_>>());
            let expect = gir_query::naive_topk(&recs, &f, &wp, k).ids() == base_ids;
            for (m, out) in &regions {
                let got = out.region.contains(&wp);
                if got != expect {
                    // Tolerate only boundary-epsilon disagreements.
                    let margin: f64 = out
                        .region
                        .halfspaces
                        .iter()
                        .map(|h| h.slack(&wp))
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        margin.abs() < 1e-6,
                        "{m:?} d={d} k={k}: GIR law violated at {wp:?} \
                         (expect {expect}, got {got}, margin {margin})"
                    );
                }
            }
        }
        let _ = naive_topk(&recs, &f, &q.weights, k);
    }

    #[test]
    fn gir_law_2d() {
        check_gir_law(400, 2, 5, 0xA1);
    }

    #[test]
    fn gir_law_3d() {
        check_gir_law(400, 3, 8, 0xA2);
    }

    #[test]
    fn gir_law_4d() {
        check_gir_law(300, 4, 6, 0xA3);
    }

    #[test]
    fn gir_law_5d() {
        check_gir_law(250, 5, 4, 0xA4);
    }

    #[test]
    fn all_methods_agree_on_region_membership() {
        let (_, tree) = setup(800, 3, 0xB1);
        let engine = GirEngine::new(&tree);
        let q = QueryVector::new(vec![0.7, 0.5, 0.6]);
        let outs: Vec<GirOutput> = METHODS
            .iter()
            .map(|&m| engine.gir(&q, 10, m).unwrap())
            .collect();
        // Same result, same region as a point set.
        for o in &outs[1..] {
            assert_eq!(o.result.ids(), outs[0].result.ids());
        }
        let mut s = 0xC0u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let wp = PointD::from((0..3).map(|_| next()).collect::<Vec<_>>());
            let answers: Vec<bool> = outs.iter().map(|o| o.region.contains(&wp)).collect();
            if answers.iter().any(|&a| a != answers[0]) {
                let margin: f64 = outs[3] // FullScan is the oracle
                    .region
                    .halfspaces
                    .iter()
                    .map(|h| h.slack(&wp))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    margin.abs() < 1e-6,
                    "methods disagree at {wp:?}: {answers:?}"
                );
            }
        }
    }

    #[test]
    fn fp_uses_fewest_candidates() {
        let (_, tree) = setup(3000, 4, 0xB2);
        let engine = GirEngine::new(&tree);
        let q = QueryVector::new(vec![0.5, 0.6, 0.7, 0.4]);
        let sp = engine.gir(&q, 20, Method::SkylinePruning).unwrap();
        let cp = engine.gir(&q, 20, Method::ConvexHullPruning).unwrap();
        let fp = engine.gir(&q, 20, Method::FacetPruning).unwrap();
        let scan = engine.gir(&q, 20, Method::FullScan).unwrap();
        assert!(fp.stats.candidates <= cp.stats.candidates);
        assert!(cp.stats.candidates <= sp.stats.candidates);
        assert!(sp.stats.candidates < scan.stats.candidates);
    }

    #[test]
    fn fp_reads_fewer_pages_than_sp() {
        let (_, tree) = setup(20_000, 3, 0xB3);
        let engine = GirEngine::new(&tree);
        let q = QueryVector::new(vec![0.6, 0.5, 0.7]);
        let sp = engine.gir(&q, 20, Method::SkylinePruning).unwrap();
        let fp = engine.gir(&q, 20, Method::FacetPruning).unwrap();
        assert!(
            fp.stats.gir_pages < sp.stats.gir_pages,
            "FP {} pages vs SP {}",
            fp.stats.gir_pages,
            sp.stats.gir_pages
        );
    }

    #[test]
    fn nonlinear_scoring_only_sp() {
        let (_, tree) = setup(500, 4, 0xB4);
        let engine = GirEngine::with_scoring(&tree, ScoringFunction::mixed4());
        let q = QueryVector::new(vec![0.5, 0.5, 0.5, 0.5]);
        assert!(engine.gir(&q, 5, Method::SkylinePruning).is_ok());
        assert!(matches!(
            engine.gir(&q, 5, Method::FacetPruning),
            Err(GirError::UnsupportedScoring { .. })
        ));
        assert!(matches!(
            engine.gir(&q, 5, Method::ConvexHullPruning),
            Err(GirError::UnsupportedScoring { .. })
        ));
    }

    #[test]
    fn boundary_crossing_changes_result_as_predicted() {
        // Walk along an axis from inside the GIR to just outside it: the
        // top-k must be preserved inside and change outside.
        use gir_query::naive_topk;
        let (recs, tree) = setup(600, 2, 0xB5);
        let engine = GirEngine::new(&tree);
        let q = QueryVector::new(vec![0.6, 0.5]);
        let out = engine.gir(&q, 5, Method::FacetPruning).unwrap();
        let f = gir_query::ScoringFunction::linear(2);
        let base = out.result.ids();
        let intervals = out.region.axis_intervals();
        for (dim, (lo, hi)) in intervals.iter().enumerate() {
            for (endpoint, inward) in [(lo, 1e-4), (hi, -1e-4)] {
                let mut inside = q.weights.clone();
                inside[dim] = endpoint + inward;
                if (0.0..=1.0).contains(&inside[dim]) {
                    assert_eq!(
                        naive_topk(&recs, &f, &inside, 5).ids(),
                        base,
                        "result changed inside the GIR (dim {dim})"
                    );
                }
                let mut outside = q.weights.clone();
                outside[dim] = endpoint - inward * 2.0;
                if (0.0..=1.0).contains(&outside[dim])
                    && (*endpoint > 1e-6 && *endpoint < 1.0 - 1e-6)
                {
                    assert_ne!(
                        naive_topk(&recs, &f, &outside, 5).ids(),
                        base,
                        "result unchanged outside the GIR (dim {dim})"
                    );
                }
            }
        }
    }

    #[test]
    fn gir_star_all_methods_run_and_enclose_gir() {
        let (_, tree) = setup(700, 3, 0xB6);
        let engine = GirEngine::new(&tree);
        let q = QueryVector::new(vec![0.5, 0.7, 0.4]);
        let gir = engine.gir(&q, 8, Method::FacetPruning).unwrap();
        for m in METHODS {
            let star = engine.gir_star(&q, 8, m).unwrap();
            assert!(star.region.contains(&q.weights));
            // Sample inside the GIR: must be inside GIR*.
            let mut s = 0xD00Du64;
            let mut next = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..100 {
                let wp = PointD::from((0..3).map(|_| next()).collect::<Vec<_>>());
                if gir.region.contains(&wp) {
                    assert!(star.region.contains(&wp), "{m:?}: GIR ⊄ GIR*");
                }
            }
        }
    }

    #[test]
    fn indexed_gir_matches_direct_gir_pointwise() {
        // The PruneIndex fast path must produce the same result and the
        // same region (as a point set) as the per-query sweep, for
        // every method, dimension and k — including CP's cached-hull
        // reuse (small k with a deep result rarely touches the skyline;
        // large k usually does).
        for (n, d, k, seed) in [
            (500usize, 2usize, 5usize, 0xE1u64),
            (700, 3, 10, 0xE2),
            (400, 4, 3, 0xE3),
            (300, 5, 8, 0xE4),
        ] {
            let (_, tree) = setup(n, d, seed);
            let engine = GirEngine::new(&tree);
            let index = crate::prune::PruneIndex::new();
            let w: Vec<f64> = (0..d).map(|i| 0.35 + 0.12 * (i as f64 % 4.0)).collect();
            let q = QueryVector::new(w);
            for m in METHODS {
                let direct = engine.gir(&q, k, m).unwrap();
                let indexed = engine.gir_indexed(&q, k, m, &index).unwrap();
                assert_eq!(indexed.result.ids(), direct.result.ids(), "{m:?} result");
                assert!(indexed.region.contains(&q.weights));
                let mut s = seed ^ 0xFACE;
                let mut next = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 11) as f64 / (1u64 << 53) as f64
                };
                for _ in 0..150 {
                    let wp = PointD::from((0..d).map(|_| next()).collect::<Vec<_>>());
                    let a = direct.region.contains(&wp);
                    let b = indexed.region.contains(&wp);
                    if a != b {
                        let margin: f64 = direct
                            .region
                            .halfspaces
                            .iter()
                            .chain(&indexed.region.halfspaces)
                            .map(|h| h.slack(&wp))
                            .fold(f64::INFINITY, |m, v| m.min(v.abs()));
                        assert!(
                            margin < 1e-6,
                            "{m:?} n={n} d={d} k={k}: indexed ≠ direct at {wp:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_sp_cp_emit_the_cold_phase2_set() {
        // Indexed SP/CP resume the same BBS over the mirror, so the
        // Phase-2 half-space *set* — not only the region as a point set
        // — equals the cold path's.
        use gir_geometry::hyperplane::Provenance;
        let phase2_ids = |out: &GirOutput| {
            let mut ids: Vec<u64> = out
                .region
                .halfspaces
                .iter()
                .filter_map(|h| match h.provenance {
                    Provenance::NonResult { record_id } => Some(record_id),
                    _ => None,
                })
                .collect();
            ids.sort_unstable();
            ids
        };
        for (n, d, seed) in [(600usize, 2usize, 0xEAu64), (700, 3, 0xEB), (500, 4, 0xEC)] {
            let (_, tree) = setup(n, d, seed);
            let engine = GirEngine::new(&tree);
            let index = crate::prune::PruneIndex::new();
            let q = QueryVector::new((0..d).map(|i| 0.3 + 0.15 * i as f64).collect::<Vec<_>>());
            for k in [1usize, 5, 12] {
                for m in [Method::SkylinePruning, Method::ConvexHullPruning] {
                    let direct = engine.gir(&q, k, m).unwrap();
                    let indexed = engine.gir_indexed(&q, k, m, &index).unwrap();
                    assert_eq!(indexed.result.ids(), direct.result.ids());
                    let ids = phase2_ids(&direct);
                    assert!(!ids.is_empty(), "{m:?} d={d} k={k}: no Phase-2 half-spaces");
                    assert_eq!(phase2_ids(&indexed), ids, "{m:?} d={d} k={k}");
                    assert_eq!(
                        indexed.stats.structure_size, direct.stats.structure_size,
                        "{m:?} d={d} k={k}: skyline sizes differ"
                    );
                }
            }
        }
    }

    #[test]
    fn indexed_star_matches_direct_star_pointwise_and_reuses_systems() {
        for (n, d, k, seed) in [(500usize, 2usize, 5usize, 0xE8u64), (600, 3, 8, 0xE9)] {
            let (_, tree) = setup(n, d, seed);
            let engine = GirEngine::new(&tree);
            let index = crate::prune::PruneIndex::new();
            let w: Vec<f64> = (0..d).map(|i| 0.4 + 0.1 * (i as f64 % 3.0)).collect();
            let q = QueryVector::new(w);
            for m in METHODS {
                let direct = engine.gir_star(&q, k, m).unwrap();
                let indexed = engine.gir_star_indexed(&q, k, m, &index).unwrap();
                assert_eq!(indexed.result.ids(), direct.result.ids(), "{m:?} result");
                assert!(indexed.region.contains(&q.weights));
                let mut s = seed ^ 0x57A9;
                let mut next = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 11) as f64 / (1u64 << 53) as f64
                };
                for _ in 0..150 {
                    let wp = PointD::from((0..d).map(|_| next()).collect::<Vec<_>>());
                    let a = direct.region.contains(&wp);
                    let b = indexed.region.contains(&wp);
                    if a != b {
                        let margin: f64 = direct
                            .region
                            .halfspaces
                            .iter()
                            .chain(&indexed.region.halfspaces)
                            .map(|h| h.slack(&wp))
                            .fold(f64::INFINITY, |m, v| m.min(v.abs()));
                        assert!(
                            margin < 1e-6,
                            "{m:?} n={n} d={d}: indexed star ≠ direct at {wp:?}"
                        );
                    }
                }
            }
            // A jittered repeat of the same ranking reuses the cached
            // star Phase-2 system (one hit per method from the loop
            // above's second pass would be method-dependent; probe FP).
            let before = index.stats().phase2_hits;
            let _ = engine
                .gir_star_indexed(&q, k, Method::FacetPruning, &index)
                .unwrap();
            assert!(
                index.stats().phase2_hits > before,
                "star system not reused on a recurring ranking"
            );
        }
    }

    #[test]
    fn indexed_gir_supports_nonlinear_sp_only() {
        let (_, tree) = setup(400, 4, 0xE5);
        let engine = GirEngine::with_scoring(&tree, ScoringFunction::mixed4());
        let index = crate::prune::PruneIndex::new();
        let q = QueryVector::new(vec![0.5, 0.5, 0.5, 0.5]);
        let direct = engine.gir(&q, 6, Method::SkylinePruning).unwrap();
        let indexed = engine
            .gir_indexed(&q, 6, Method::SkylinePruning, &index)
            .unwrap();
        assert_eq!(indexed.result.ids(), direct.result.ids());
        let mut s = 0xE6u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..150 {
            let wp = PointD::from((0..4).map(|_| next()).collect::<Vec<_>>());
            assert_eq!(
                direct.region.contains(&wp),
                indexed.region.contains(&wp),
                "non-linear SP indexed ≠ direct at {wp:?}"
            );
        }
        assert!(matches!(
            engine.gir_indexed(&q, 6, Method::FacetPruning, &index),
            Err(GirError::UnsupportedScoring { .. })
        ));
    }

    #[test]
    fn indexed_gir_performs_no_io_after_warmup() {
        // Once the index's skyline and tree mirror are built, a cold
        // miss is pure in-memory work: zero pages read in both the
        // top-k retrieval and Phase 2, for every method.
        let (_, tree) = setup(20_000, 3, 0xE7);
        let engine = GirEngine::new(&tree);
        let index = crate::prune::PruneIndex::new();
        let q = QueryVector::new(vec![0.6, 0.5, 0.7]);
        // Warm the index (build cost paid once, amortized).
        let _ = engine
            .gir_indexed(&q, 10, Method::FacetPruning, &index)
            .unwrap();
        for m in [
            Method::FacetPruning,
            Method::SkylinePruning,
            Method::ConvexHullPruning,
        ] {
            let indexed = engine.gir_indexed(&q, 10, m, &index).unwrap();
            assert_eq!(
                (indexed.stats.topk_pages, indexed.stats.gir_pages),
                (0, 0),
                "{m:?}: warm indexed miss touched storage"
            );
        }
    }

    #[test]
    fn k_equals_n_yields_phase1_only_region() {
        let (recs, tree) = setup(60, 2, 0xB7);
        let engine = GirEngine::new(&tree);
        let q = QueryVector::new(vec![0.5, 0.5]);
        let out = engine.gir(&q, recs.len(), Method::FacetPruning).unwrap();
        assert_eq!(out.result.len(), recs.len());
        assert_eq!(out.stats.candidates, 0, "no non-result records exist");
        assert!(out.region.contains(&q.weights));
    }
}

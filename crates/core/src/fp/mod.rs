//! FP — Facet Pruning (paper §6), the paper's main contribution.
//!
//! Pin the sweeping hyperplane at `p_k` and ask which non-result records
//! bound its permissible rotations: exactly the records on convex-hull
//! facets *incident to `p_k`* (the critical records). FP computes only
//! those facets — `O(n^{d/2−1})` instead of the full hull's `O(n^{d/2})` —
//! in two steps: refine over the records BRS already fetched (`T`), then
//! over the disk via the retained heap, pruning every R-tree entry that
//! lies below all current facets.
//!
//! `d = 2` uses the specialized rotating-line formulation ([`fp2d`]);
//! higher dimensions use the incident-facet star ([`star`], [`fpnd`]).

pub mod fp2d;
pub mod fpnd;
pub mod star;

pub use fp2d::{fp_phase2_2d, fp_phase2_2d_ctx};
pub use fpnd::{fp_phase2_nd, fp_phase2_nd_ctx, fp_phase2_nd_with, FpOptions};
pub use star::StarHull;

use gir_geometry::hyperplane::HalfSpace;
use gir_query::{Record, ScoringFunction, SearchState};
use gir_rtree::{NodeSource, RTree, RTreeError};

/// FP-specific Phase 2 statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpStats {
    /// Critical records found (= GIR half-spaces emitted).
    pub critical: usize,
    /// Final number of incident facets maintained.
    pub facets: usize,
    /// Heap/tree nodes actually fetched in the second step.
    pub nodes_examined: usize,
    /// Nodes pruned below the facets without fetching.
    pub nodes_pruned: usize,
}

/// Candidate policy for an FP sweep that does not start from a retained
/// BRS state (incremental repair, ISSUE 2).
///
/// A retained heap never contains result records (BRS popped them), so
/// the normal Phase-2 entry points only skip `p_k` defensively. A
/// *root-seeded* sweep re-encounters the whole dataset and must skip
/// every result member (`exclude`), or their conditions would wrongly
/// pin the rotation at `p_k`'s own score order. `seeds` pre-inserts
/// known candidates — the surviving facet contributors of the region
/// under repair — so the sweep starts with tight interim facets and
/// prunes everything except the neighbourhood of the lost facet.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepContext<'a> {
    /// Record ids never treated as candidates (the result members).
    pub exclude: &'a [u64],
    /// Candidates inserted before the sweep begins.
    pub seeds: &'a [Record],
}

impl SweepContext<'_> {
    /// True when `id` must not become a Phase-2 candidate.
    #[inline]
    pub fn skips(&self, id: u64) -> bool {
        self.exclude.contains(&id)
    }
}

/// FP Phase 2, dispatching on dimensionality (§6.2 vs §6.3). `interim`
/// carries the Phase-1 half-spaces for the footnote-7 node-pruning
/// tightening (used only for `d > 2`; the 2-d rotating line is already
/// minimal).
pub fn fp_phase2<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    kth: &Record,
    state: SearchState,
    interim: &[HalfSpace],
) -> Result<(Vec<HalfSpace>, FpStats), RTreeError> {
    if kth.dim() == 2 {
        fp_phase2_2d(src, scoring, kth, state)
    } else {
        fp_phase2_nd_with(src, scoring, kth, state, FpOptions::default(), interim)
    }
}

/// Incremental facet rebuild: reruns the FP sweep pinned at the cached
/// `p_k` over a **root-seeded** search state — no BRS top-k retrieval,
/// no Phase 1 recompute. The cached result supplies the exclusion set,
/// `seeds` the surviving contributors, and `interim` every constraint
/// already known to hold on the repaired region (ordering + surviving
/// non-result + box), which the `d > 2` footnote-7 pruner uses to skip
/// all subtrees that cannot move a facet.
///
/// Sound because the repaired GIR is contained in the interim region:
/// any record whose condition is redundant throughout the interim
/// region is redundant in the final one too.
pub fn fp_repair(
    tree: &RTree,
    scoring: &ScoringFunction,
    result: &gir_query::TopKResult,
    interim: &[HalfSpace],
    seeds: &[Record],
) -> Result<(Vec<HalfSpace>, FpStats), RTreeError> {
    assert!(
        scoring.is_linear(),
        "FP repair relies on convex-hull properties that hold only for linear scoring (paper §7.2)"
    );
    let kth = result.kth();
    let exclude = result.ids();
    let state = SearchState::from_root(tree.root_page());
    let ctx = SweepContext {
        exclude: &exclude,
        seeds,
    };
    if kth.dim() == 2 {
        fp_phase2_2d_ctx(tree, scoring, kth, state, &ctx)
    } else {
        fp_phase2_nd_ctx(
            tree,
            scoring,
            kth,
            state,
            FpOptions::default(),
            interim,
            &ctx,
        )
    }
}

//! GIR\* — the order-insensitive immutable region (paper §7.1).
//!
//! When only the *composition* of the top-k matters, the region is the
//! intersection of `GIR_i` regions, one per result record `p_i`, each
//! ensuring `S(p_i, q') ≥ S(p, q')` for all non-result `p`. Two
//! result-pruning rules shrink the work: a result record strictly inside
//! the convex hull of `R` can be ignored, and so can one that dominates
//! another result record (something must overtake the dominatee first).
//! The surviving set is `R⁻`; SP/CP reuse one skyline for all `GIR_i`,
//! while FP maintains one incident-facet star per member of `R⁻`
//! concurrently, pruning an R-tree entry only when *every* star prunes it.

use crate::cp::hull_filter;
use crate::fp::star::StarHull;
use crate::fp::FpStats;
use crate::region::GirRegion;
use crate::sp::sp_skyline_records;
use gir_geometry::dominance::dominates;
use gir_geometry::hull::ConvexHull;
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::vector::PointD;
use gir_geometry::EPS;
use gir_query::{Record, ScoringFunction, SearchState, TopKResult};
use gir_rtree::{Mbb, NodeSource, RTree, RTreeError};
use std::collections::HashSet;

/// Which Phase 2 machinery computes the `GIR_i` regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StarMethod {
    /// One skyline, every skyline record against every `R⁻` member.
    Skyline,
    /// Skyline + hull filter first (linear scoring only).
    ConvexHull,
    /// Concurrent incident-facet stars (linear scoring only).
    Facet,
}

impl StarMethod {
    /// The star machinery corresponding to an order-sensitive Phase-2
    /// method: SP and the full scan share the skyline formulation (GIR\*
    /// has no cheaper exhaustive strawman), CP and FP map one-to-one.
    pub fn for_method(method: crate::engine::Method) -> StarMethod {
        use crate::engine::Method;
        match method {
            Method::SkylinePruning | Method::FullScan => StarMethod::Skyline,
            Method::ConvexHullPruning => StarMethod::ConvexHull,
            Method::FacetPruning => StarMethod::Facet,
        }
    }
}

/// The concurrent star fan of one GIR\* Phase 2: one incident-facet
/// star per `R⁻` member. Encapsulates the three rules every star sweep
/// shares — feed (skip pivots dominating the candidate; `insert()`
/// already rejects below-star candidates in one scan), node pruning (a
/// node is pruned only when *every* star prunes it), and emission (one
/// `StarNonResult` half-space per critical record per star).
pub(crate) struct StarFan<'a> {
    stars: Vec<(usize, &'a Record, StarHull)>,
}

impl<'a> StarFan<'a> {
    /// One star per `R⁻` member, pinned at that member's attributes.
    pub(crate) fn new(r_minus: &'a [(usize, Record)]) -> StarFan<'a> {
        StarFan {
            stars: r_minus
                .iter()
                .map(|(rank, rec)| (*rank, rec, StarHull::new(rec.attrs.coords())))
                .collect(),
        }
    }

    /// Feeds one candidate to every star whose pivot does not dominate
    /// it.
    pub(crate) fn feed(&mut self, attrs: &PointD, id: u64) {
        for (_, pivot, star) in self.stars.iter_mut() {
            if !dominates(&pivot.attrs, attrs) {
                star.insert(attrs.coords(), id);
            }
        }
    }

    /// Bulk form of [`StarFan::feed`] for the initial candidate feed:
    /// every candidate, in slice order, to every star. The stars are
    /// mutually independent and each consumes the identical ordered
    /// sequence, so large feeds fan out **per star** across the pool
    /// (the nested level under the per-shard fan-out) with output
    /// bit-identical to the sequential loop.
    pub(crate) fn feed_all(&mut self, cands: &[(&PointD, u64)]) {
        // The candidate count is the work measure: each of the
        // `stars.len()` tasks scans the full candidate slice.
        if crate::pool::would_parallelize(self.stars.len(), cands.len()) {
            crate::pool::fan_out(
                self.stars.iter_mut().collect(),
                cands.len(),
                |_, (_, pivot, star)| {
                    for (attrs, id) in cands {
                        if !dominates(&pivot.attrs, attrs) {
                            star.insert(attrs.coords(), *id);
                        }
                    }
                },
            );
        } else {
            for (attrs, id) in cands {
                self.feed(attrs, *id);
            }
        }
    }

    /// True when every star prunes the box — only then can the subtree
    /// hold no candidate that moves any star facet.
    pub(crate) fn prunes_mbb(&self, m: &Mbb) -> bool {
        self.stars.iter().all(|(_, _, s)| s.prunes_mbb(m))
    }

    /// The per-star critical half-spaces plus `(critical, facets)`
    /// totals.
    pub(crate) fn finish(self) -> (Vec<HalfSpace>, usize, usize) {
        let mut halfspaces = Vec::new();
        let mut facets = 0usize;
        for (rank, pivot, star) in &self.stars {
            facets += star.num_facets();
            for (id, attrs) in star.critical_records() {
                halfspaces.push(HalfSpace::score_order(
                    &pivot.attrs,
                    &attrs,
                    Provenance::StarNonResult {
                        rank: *rank,
                        record_id: id,
                    },
                ));
            }
        }
        let critical = halfspaces.len();
        (halfspaces, critical, facets)
    }
}

/// Statistics for a GIR\* computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct GirStarStats {
    /// `|R⁻|`: result records that survived result-side pruning.
    pub reduced_result: usize,
    /// Candidate non-result records (summed across `GIR_i` for FP).
    pub candidates: usize,
    /// Skyline size (SP/CP) or total star facets (FP).
    pub structure_size: usize,
}

/// Computes `R⁻` with the ranks of the surviving records (§7.1):
/// drop records strictly inside the hull of `R`, then drop records that
/// dominate another result record.
pub fn reduced_result(result: &TopKResult) -> Vec<(usize, Record)> {
    let records = result.records();
    let points: Vec<PointD> = records.iter().map(|r| r.attrs.clone()).collect();

    // Hull pruning (only meaningful when the hull is buildable).
    let inside_hull: Vec<bool> = match ConvexHull::build(&points) {
        Ok(hull) => {
            let on_hull: HashSet<usize> = hull.vertex_indices().into_iter().collect();
            (0..records.len()).map(|i| !on_hull.contains(&i)).collect()
        }
        Err(_) => vec![false; records.len()],
    };

    let mut out = Vec::new();
    'outer: for (i, rec) in records.iter().enumerate() {
        if inside_hull[i] {
            continue;
        }
        for (j, other) in records.iter().enumerate() {
            if i != j && dominates(&rec.attrs, &other.attrs) {
                continue 'outer; // the dominatee shields this record
            }
        }
        out.push((i, rec.clone()));
    }
    out
}

/// Computes the order-insensitive GIR\* region.
pub fn gir_star_region(
    tree: &RTree,
    scoring: &ScoringFunction,
    query: &PointD,
    result: &TopKResult,
    state: SearchState,
    method: StarMethod,
) -> Result<(GirRegion, GirStarStats), RTreeError> {
    let result_ids: HashSet<u64> = result.ids().into_iter().collect();
    let r_minus = reduced_result(result);
    let (halfspaces, stats) =
        star_phase2(tree, scoring, &r_minus, state, &result_ids, method, &[])?;
    Ok((
        GirRegion::new(query.dim(), query.clone(), halfspaces),
        stats,
    ))
}

/// The GIR\* Phase-2 system of the non-result records under `state`
/// against the `R⁻` pivots: SP/CP resume BBS over `src` and emit every
/// `(pivot, skyline-candidate)` condition, CP hull-filtering the
/// candidates first; FP runs the concurrent stars, pre-fed with
/// `seeds`.
pub(crate) fn star_phase2<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    r_minus: &[(usize, Record)],
    state: SearchState,
    result_ids: &HashSet<u64>,
    method: StarMethod,
    seeds: &[Record],
) -> Result<(Vec<HalfSpace>, GirStarStats), RTreeError> {
    if method != StarMethod::Skyline {
        assert!(
            scoring.is_linear(),
            "CP/FP-based GIR* requires linear scoring (paper §7.2)"
        );
    }
    let mut stats = GirStarStats {
        reduced_result: r_minus.len(),
        ..Default::default()
    };

    let halfspaces = match method {
        StarMethod::Skyline | StarMethod::ConvexHull => {
            let mut sky = sp_skyline_records(src, state, result_ids)?;
            stats.structure_size = sky.len();
            if method == StarMethod::ConvexHull {
                sky = hull_filter(&sky);
            }
            stats.candidates = sky.len() * r_minus.len();
            let mut hs = Vec::with_capacity(stats.candidates);
            for (rank, pi) in r_minus {
                let pi_t = scoring.transform_point(&pi.attrs);
                for p in &sky {
                    hs.push(HalfSpace::score_order(
                        &pi_t,
                        &scoring.transform_point(&p.attrs),
                        Provenance::StarNonResult {
                            rank: *rank,
                            record_id: p.id,
                        },
                    ));
                }
            }
            hs
        }
        StarMethod::Facet => {
            let (hs, fp) = fp_star_phase2(src, r_minus, state, result_ids, seeds)?;
            stats.candidates = fp.critical;
            stats.structure_size = fp.facets;
            hs
        }
    };
    Ok((halfspaces, stats))
}

/// FP for GIR\*: one star per `R⁻` member, maintained concurrently
/// (§7.1). An index entry is pruned only when it lies below the facets of
/// *every* star. `seeds` pre-feeds known candidates (e.g. the surviving
/// contributors of a region under repair, or a shard's cached skyline)
/// so the stars start tight; result members must never appear in it.
fn fp_star_phase2<S: NodeSource + ?Sized>(
    src: &S,
    r_minus: &[(usize, Record)],
    mut state: SearchState,
    result_ids: &HashSet<u64>,
    seeds: &[Record],
) -> Result<(Vec<HalfSpace>, FpStats), RTreeError> {
    let mut fan = StarFan::new(r_minus);

    // Candidates best-first by coordinate sum — the multi-pivot proxy
    // order (no single query score ranks candidates for every star at
    // once).
    let (records, nodes) = state.drain();
    let mut t: Vec<&Record> = seeds
        .iter()
        .filter(|r| !result_ids.contains(&r.id))
        .collect();
    t.extend(
        records
            .iter()
            .map(|&(at, _)| state.record(at))
            .filter(|r| !result_ids.contains(&r.id)),
    );
    t.sort_by(|a, b| {
        let sa: f64 = a.attrs.coords().iter().sum();
        let sb: f64 = b.attrs.coords().iter().sum();
        sb.partial_cmp(&sa).expect("non-NaN")
    });
    let feed: Vec<(&PointD, u64)> = t.iter().map(|r| (&r.attrs, r.id)).collect();
    fan.feed_all(&feed);
    drop((feed, t));

    let (nodes_examined, nodes_pruned) = state.sweep(
        src,
        nodes,
        &mut fan,
        |fan, m| fan.prunes_mbb(m),
        |fan, rec| {
            if !result_ids.contains(&rec.id) {
                fan.feed(&rec.attrs, rec.id);
            }
        },
    )?;

    let (halfspaces, critical, facets) = fan.finish();
    Ok((
        halfspaces,
        FpStats {
            critical,
            facets,
            nodes_examined,
            nodes_pruned,
        },
    ))
}

/// Incremental GIR\* facet rebuild: reruns the concurrent star sweep
/// over a **root-seeded** search state — no BRS top-k retrieval (the
/// cached result supplies `R⁻` and the exclusion set). `seeds` carries
/// the surviving contributors of the region under repair (reconstructed
/// from their constraint normals — every `StarNonResult` half-space
/// records its rank, so `g(p) = g(p_i) + normal`), which pre-tighten all
/// stars before the first node test.
///
/// Because the final star of each `R⁻` member is the apex-incident part
/// of `hull({p_i} ∪ D \ R)` — independent of insertion order — the swept
/// system is identical to what a from-scratch [`gir_star_region`] with
/// [`StarMethod::Facet`] produces on the mutated tree
/// (`tests/proptest_incremental.rs` pins this).
pub fn fp_star_repair(
    tree: &RTree,
    scoring: &ScoringFunction,
    result: &TopKResult,
    seeds: &[Record],
) -> Result<(Vec<HalfSpace>, GirStarStats), RTreeError> {
    assert!(
        scoring.is_linear(),
        "GIR* facet repair relies on convex-hull properties that hold \
         only for linear scoring (paper §7.2)"
    );
    let result_ids: HashSet<u64> = result.ids().into_iter().collect();
    let r_minus = reduced_result(result);
    let state = SearchState::from_root(tree.root_page());
    let (hs, fp) = fp_star_phase2(tree, &r_minus, state, &result_ids, seeds)?;
    Ok((
        hs,
        GirStarStats {
            reduced_result: r_minus.len(),
            candidates: fp.critical,
            structure_size: fp.facets,
        },
    ))
}

/// Brute-force GIR\* membership test (oracle for tests): `w` preserves
/// the result *composition* iff every result record out-scores every
/// non-result record.
pub fn naive_gir_star_contains(
    records: &[Record],
    scoring: &ScoringFunction,
    result_ids: &HashSet<u64>,
    w: &PointD,
) -> bool {
    let min_result = records
        .iter()
        .filter(|r| result_ids.contains(&r.id))
        .map(|r| scoring.score(w, &r.attrs))
        .fold(f64::INFINITY, f64::min);
    let max_other = records
        .iter()
        .filter(|r| !result_ids.contains(&r.id))
        .map(|r| scoring.score(w, &r.attrs))
        .fold(f64::NEG_INFINITY, f64::max);
    min_result >= max_other - EPS
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
    fn reduced_result_prunes_dominators_and_interior() {
        // Figure 12(a) style: 6 result records; p2-like dominator pruned,
        // interior record pruned.
        let result = TopKResult {
            ranked: vec![
                (Record::new(1, vec![0.30, 0.95]), 0.0),
                (Record::new(2, vec![0.60, 0.80]), 0.0), // dominates 5
                (Record::new(3, vec![0.55, 0.72]), 0.0), // interior
                (Record::new(4, vec![0.90, 0.40]), 0.0), // dominates 6
                (Record::new(5, vec![0.50, 0.70]), 0.0),
                (Record::new(6, vec![0.85, 0.30]), 0.0),
            ],
        };
        let r_minus = reduced_result(&result);
        let ids: Vec<u64> = r_minus.iter().map(|(_, r)| r.id).collect();
        assert!(!ids.contains(&2), "dominator must be pruned");
        assert!(!ids.contains(&4), "dominator must be pruned");
        assert!(!ids.contains(&3), "interior record must be pruned");
        assert!(ids.contains(&5) && ids.contains(&6));
        // Ranks are preserved (0-based).
        for (rank, rec) in &r_minus {
            assert_eq!(result.ranked[*rank].0.id, rec.id);
        }
    }

    #[test]
    fn gir_star_membership_matches_naive_all_methods() {
        for (d, seed) in [(2usize, 61u64), (3, 62), (4, 63)] {
            let (recs, tree) = setup(500, d, seed);
            let f = ScoringFunction::linear(d);
            let w = PointD::new(vec![0.55; d]);
            let (res, state) = brs_topk(&tree, &f, &w, 6).unwrap();
            let ids: HashSet<u64> = res.ids().into_iter().collect();
            for method in [
                StarMethod::Skyline,
                StarMethod::ConvexHull,
                StarMethod::Facet,
            ] {
                let (region, stats) =
                    gir_star_region(&tree, &f, &w, &res, state.clone(), method).unwrap();
                assert!(stats.reduced_result >= 1);
                assert!(region.contains(&w), "{method:?}: query outside its GIR*");
                let mut s = 0x77u64;
                let mut next = move || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 11) as f64 / (1u64 << 53) as f64
                };
                for _ in 0..120 {
                    let wp = PointD::from((0..d).map(|_| next()).collect::<Vec<_>>());
                    let expect = naive_gir_star_contains(&recs, &f, &ids, &wp);
                    let got = region.contains(&wp);
                    if expect != got {
                        // Allow boundary-epsilon flips only.
                        let margin: f64 = region
                            .halfspaces
                            .iter()
                            .map(|h| h.slack(&wp))
                            .fold(f64::INFINITY, f64::min);
                        assert!(
                            margin.abs() < 1e-6,
                            "{method:?} d={d}: mismatch at {wp:?} (margin {margin})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gir_star_encloses_order_sensitive_gir() {
        // Definition 2 is looser than Definition 1: GIR ⊆ GIR*.
        use crate::fullscan::fullscan_halfspaces;
        use crate::phase1::ordering_halfspaces;
        let (recs, tree) = setup(400, 3, 64);
        let f = ScoringFunction::linear(3);
        let w = PointD::new(vec![0.5, 0.6, 0.4]);
        let (res, state) = brs_topk(&tree, &f, &w, 5).unwrap();
        let ids: HashSet<u64> = res.ids().into_iter().collect();
        let (star_region, _) =
            gir_star_region(&tree, &f, &w, &res, state, StarMethod::Skyline).unwrap();
        let mut hs = ordering_halfspaces(&res, &f);
        hs.extend(fullscan_halfspaces(&recs, &f, res.kth(), &ids));
        let gir = GirRegion::new(3, w.clone(), hs);
        let mut s = 0x99u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..200 {
            let wp = PointD::from((0..3).map(|_| next()).collect::<Vec<_>>());
            if gir.contains(&wp) {
                assert!(star_region.contains(&wp), "GIR ⊄ GIR* at {wp:?}");
            }
        }
    }
}

//! A memoised Phase-2 system is exact for every ordering of its key.
//!
//! The indexed miss path keys its shared Phase-2 system by the *sorted*
//! result set and `p_k` (`PruneIndex`'s memo), so one system serves
//! every rank order of the same set. That is sound only while the
//! system is a function of its key: it must bound `p_k` against every
//! non-result record over the whole query box, not just over the
//! ordering region of the query that computed it. A system pruned
//! with the Phase-1 ordering chain of ordering A would be served,
//! verbatim, to a query with ordering B, where a record it dropped can
//! overtake `p_k`.
//!
//! Each case serves ordering A through `gir_indexed` (admitting the
//! system), then a query with the same set and `p_k` in another rank
//! order, asserts through `phase2_hits` that it was a memo hit, and
//! checks the hit exactly: for every non-result record, one LP over
//! `ordering_B ∩ box ∩ served system` shows the record never
//! outscores `p_k` there; and membership near `w_B` agrees with the
//! cold `GirEngine::gir` region.

use gir::core::{GirEngine, GirOutput, Method, PruneIndex};
use gir::datagen::{synthetic, Distribution};
use gir::geometry::hyperplane::HalfSpace;
use gir::geometry::lp::{maximize_view, ConsView};
use gir::geometry::vector::PointD;
use gir::query::{QueryVector, Record};
use gir::rtree::RTree;
use gir::storage::{MemPageStore, PageStore, PAGE_SIZE};
use std::sync::Arc;

const METHODS: [Method; 3] = [
    Method::SkylinePruning,
    Method::ConvexHullPruning,
    Method::FacetPruning,
];

fn tree_of(recs: &[Record]) -> RTree {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    RTree::bulk_load(store, recs).unwrap()
}

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn sorted_ids(out: &GirOutput) -> Vec<u64> {
    let mut ids = out.result.ids();
    ids.sort_unstable();
    ids
}

/// Serves `w_a` then `w_b` (same set and `p_k`, another order) through
/// one index and checks the second — a memo hit — exactly.
fn check_pair(recs: &[Record], tree: &RTree, k: usize, w_a: &PointD, w_b: &PointD, method: Method) {
    let engine = GirEngine::new(tree);
    let index = PruneIndex::new();
    let qa = QueryVector::new(w_a.coords().to_vec());
    let qb = QueryVector::new(w_b.coords().to_vec());
    let a = engine.gir_indexed(&qa, k, method, &index).unwrap();
    let hits = index.phase2_hits();
    let b = engine.gir_indexed(&qb, k, method, &index).unwrap();
    assert_eq!(
        sorted_ids(&a),
        sorted_ids(&b),
        "{method:?}: not the same set"
    );
    assert_eq!(
        a.result.kth().id,
        b.result.kth().id,
        "{method:?}: not the same p_k"
    );
    assert_ne!(
        a.result.ids(),
        b.result.ids(),
        "{method:?}: not another order"
    );
    assert_eq!(
        index.phase2_hits(),
        hits + 1,
        "{method:?}: the second ordering must be served from the memo"
    );

    // Exact: no non-result record outscores p_k anywhere in the served
    // region (ordering B ∩ box ∩ the memoised system).
    let pk = &b.result.kth().attrs;
    let result = b.result.ids();
    let served: &[HalfSpace] = &b.region.halfspaces;
    for r in recs.iter().filter(|r| !result.contains(&r.id)) {
        let gain = r.attrs.sub(pk);
        let lp = maximize_view(&gain, ConsView::Half(served), 0.0, 1.0);
        assert!(
            lp.value <= 1e-7,
            "{method:?}: record {} outscores p_k by {} inside the served region at {:?}",
            r.id,
            lp.value,
            lp.x
        );
    }

    // Membership near w_B against the cold region.
    let cold = engine.gir(&qb, k, method).unwrap();
    assert_eq!(cold.result.ids(), b.result.ids());
    let mut next = xorshift(0x0D0E ^ w_b.coords()[0].to_bits());
    let margin = |hs: &[HalfSpace], w: &PointD| {
        hs.iter()
            .map(|h| h.slack(w).abs())
            .fold(f64::INFINITY, f64::min)
    };
    for _ in 0..300 {
        let w = PointD::from(
            w_b.coords()
                .iter()
                .map(|&c| (c + 0.3 * (next() - 0.5)).clamp(0.0, 1.0))
                .collect::<Vec<_>>(),
        );
        if margin(&cold.region.halfspaces, &w) < 1e-7 || margin(served, &w) < 1e-7 {
            continue;
        }
        assert_eq!(
            b.region.contains(&w),
            cold.region.contains(&w),
            "{method:?}: served and cold regions differ at {w:?}"
        );
    }
}

#[test]
fn hand_built_world_where_a_record_beats_pk_under_one_ordering_only() {
    // p1 − p_k ∝ (1, 0, −1) and p2 − p_k ∝ (0, 1, −1): ordering A
    // (p1 > p2 > p_k) is w1 ≥ w2 ≥ w3, ordering B (p2 > p1 > p_k) is
    // w2 ≥ w1 ≥ w3. A cluster of whole leaves at r − p_k ∝
    // (−1, 0.9, −0.5) scores −w1 + 0.9·w2 − w3/2 against p_k: below
    // zero (with a margin its leaves' boxes keep) throughout A, positive
    // under B at e.g. (0.3, 0.9, 0.1). Neither query opens a cluster
    // leaf during its top-k, so only Phase 2 can see the cluster.
    let pk = [0.55, 0.55, 0.7];
    let mut recs = vec![
        Record::new(0, vec![pk[0], pk[1], pk[2]]),
        Record::new(1, vec![pk[0] + 0.2, pk[1], pk[2] - 0.2]),
        Record::new(2, vec![pk[0], pk[1] + 0.2, pk[2] - 0.2]),
    ];
    let mut next = xorshift(0xC1A5);
    for i in 0..2000u64 {
        let mut jitter = || 0.004 * (next() - 0.5);
        recs.push(Record::new(
            10 + i,
            vec![
                pk[0] - 0.4 + jitter(),
                pk[1] + 0.36 + jitter(),
                pk[2] - 0.2 + jitter(),
            ],
        ));
    }
    let tree = tree_of(&recs);
    let w_a = PointD::from(vec![0.6, 0.5, 0.3]);
    let w_b = PointD::from(vec![0.5, 0.6, 0.3]);
    for method in METHODS {
        check_pair(&recs, &tree, 3, &w_a, &w_b, method);
        check_pair(&recs, &tree, 3, &w_b, &w_a, method);
    }
}

#[test]
fn random_worlds_serve_every_ordering_exactly() {
    let mut pairs = 0;
    for (seed, dist, d, k) in [
        (0x0A1, Distribution::Independent, 3, 3),
        (0x0A2, Distribution::Anticorrelated, 3, 4),
        (0x0A3, Distribution::Independent, 4, 3),
        (0x0A4, Distribution::Anticorrelated, 4, 4),
    ] {
        let recs = synthetic(dist, 1200, d, seed);
        let tree = tree_of(&recs);
        let engine = GirEngine::new(&tree);
        let mut next = xorshift(seed ^ 0xFACE);
        // Look for a second query with the same set and p_k but another
        // rank order: a perturbation that swaps two leading records.
        'anchor: for _ in 0..20 {
            let w_a = PointD::from((0..d).map(|_| 0.1 + 0.8 * next()).collect::<Vec<_>>());
            let a = engine
                .topk(&QueryVector::new(w_a.coords().to_vec()), k)
                .unwrap();
            for _ in 0..400 {
                let w_b = PointD::from(
                    w_a.coords()
                        .iter()
                        .map(|&c| (c + 0.4 * (next() - 0.5)).clamp(0.01, 1.0))
                        .collect::<Vec<_>>(),
                );
                let b = engine
                    .topk(&QueryVector::new(w_b.coords().to_vec()), k)
                    .unwrap();
                let (mut sa, mut sb) = (a.ids(), b.ids());
                sa.sort_unstable();
                sb.sort_unstable();
                if sa == sb && a.kth().id == b.kth().id && a.ids() != b.ids() {
                    for method in METHODS {
                        check_pair(&recs, &tree, k, &w_a, &w_b, method);
                    }
                    pairs += 1;
                    continue 'anchor;
                }
            }
        }
    }
    assert!(pairs >= 8, "only {pairs} same-set, other-order pairs found");
}

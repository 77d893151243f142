//! A record that repeats `p_k`'s attributes under a new id makes a
//! score-order condition with a zero normal (`0 · q ≤ 0`). Region
//! reduction must treat it as vacuous: no panic in the debug profile
//! (where the dual transform asserts a strictly interior point), and
//! the reduced facets bound the same region as the full half-space
//! list, for every method.

use gir::core::{GirEngine, Method};
use gir::prelude::*;
use std::sync::Arc;

const D: usize = 3;
const K: usize = 10;

fn next(s: &mut u64) -> f64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    (*s >> 11) as f64 / (1u64 << 53) as f64
}

fn tree_of(recs: &[Record]) -> RTree {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    RTree::bulk_load(store, recs).unwrap()
}

#[test]
fn duplicate_of_the_pivot_reduces_without_panic_for_every_method() {
    let mut s = 0xD0B1u64;
    let mut recs: Vec<Record> = (0..200)
        .map(|i| Record::new(i, (0..D).map(|_| next(&mut s)).collect::<Vec<_>>()))
        .collect();
    let q = QueryVector::new(vec![0.55, 0.62, 0.48]);
    let kth = GirEngine::new(&tree_of(&recs))
        .topk(&q, K)
        .unwrap()
        .kth()
        .clone();
    recs.push(Record::new(10_000, kth.attrs.clone()));
    let tree = tree_of(&recs);
    let engine = GirEngine::new(&tree);

    for m in [
        Method::FullScan,
        Method::SkylinePruning,
        Method::ConvexHullPruning,
        Method::FacetPruning,
    ] {
        let out = engine.gir(&q, K, m).unwrap();
        let reduced = out
            .region
            .reduce()
            .unwrap_or_else(|e| panic!("{m:?}: reduce failed: {e}"));
        assert!(!reduced.facets.is_empty(), "{m:?}: no facets");
        let mut probe = 0x5A3Du64;
        for _ in 0..300 {
            let w = PointD::from((0..D).map(|_| next(&mut probe)).collect::<Vec<_>>());
            let full = out.region.contains(&w);
            let facets = reduced.facets.iter().all(|h| h.contains(&w, 1e-9));
            if full != facets {
                let margin = out
                    .region
                    .halfspaces
                    .iter()
                    .map(|h| h.slack(&w).abs())
                    .fold(f64::INFINITY, f64::min);
                assert!(margin < 1e-6, "{m:?}: facets disagree with region at {w:?}");
            }
        }
    }
}

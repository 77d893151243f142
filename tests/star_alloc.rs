//! Allocation counts of FP's incident-facet star.
//!
//! A counting global allocator (per thread, so the harness's other
//! test threads do not leak into a measurement) pins the star's hot
//! paths: a non-visible `insert`, `prunes_mbb` and `is_below_all`
//! allocate nothing; a star-changing `insert` allocates only when one
//! of its reused buffers grows — never once per new facet — and a
//! d = 4 indexed FP recompute stays under a fixed allocation budget.

use gir::core::fp::StarHull;
use gir::core::{GirEngine, Method, PruneIndex};
use gir::datagen::{synthetic, Distribution};
use gir::geometry::vector::PointD;
use gir::query::QueryVector;
use gir::rtree::{Mbb, RTree};
use gir::storage::{MemPageStore, PageStore, PAGE_SIZE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counter
// is a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by `f` on this thread.
fn allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
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

#[test]
fn star_hot_paths_allocate_nothing() {
    for d in 3..=5 {
        let mut next = xorshift(0xA110 + d as u64);
        let apex = vec![0.9; d];
        let mut star = StarHull::new(&apex);
        let mut changing = Vec::new();
        let mut quiet = 0;
        // Points on a sphere the apex lies outside of: every one is a
        // hull vertex, none dominates the apex, and those above the
        // apex in some coordinate can reach the star — inserted worst
        // first, so that many do.
        let mut cands: Vec<Vec<f64>> = (0..1500)
            .map(|_| {
                let g: Vec<f64> = (0..d).map(|_| next() - 0.5).collect();
                let norm = g.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-9);
                g.iter().map(|v| 0.5 + 0.5 * v / norm).collect()
            })
            .collect();
        cands.sort_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()));
        for (id, c) in cands.iter().enumerate() {
            let id = id as u64;
            let facets_before = star.num_facets();
            let (n, changed) = allocs(|| star.insert(c, id));
            if changed {
                changing.push((n, facets_before));
            } else {
                quiet += 1;
                assert_eq!(n, 0, "d={d}: a non-visible insert allocated");
            }
        }
        assert!(quiet > 100 && changing.len() > 20, "d={d}: weak sequence");

        // Each star-changing insert erects at least d − 1 new facets
        // (the horizon is a (d − 2)-sphere around the apex); the star
        // allocates only when a reused buffer outgrows its capacity.
        let total: u64 = changing.iter().map(|(n, _)| n).sum();
        assert!(
            total <= (changing.len() * (d - 1)) as u64,
            "d={d}: {total} allocations over {} star-changing inserts",
            changing.len()
        );
        let mut per_insert: Vec<u64> = changing.iter().map(|(n, _)| *n).collect();
        per_insert.sort_unstable();
        assert_eq!(
            per_insert[per_insert.len() / 2],
            0,
            "d={d}: median insert allocated"
        );

        let below = vec![0.3; d];
        let (n, is_below) = allocs(|| star.is_below_all(&below));
        assert!(is_below);
        assert_eq!(n, 0, "d={d}: is_below_all allocated");
        let boxes = [
            Mbb {
                lo: PointD::splat(d, 0.1),
                hi: PointD::splat(d, 0.4),
            },
            Mbb {
                lo: PointD::splat(d, 0.5),
                hi: PointD::splat(d, 1.0),
            },
        ];
        for (m, prunable) in boxes.iter().zip([true, false]) {
            let (n, pruned) = allocs(|| star.prunes_mbb(m));
            assert_eq!(pruned, prunable);
            assert_eq!(n, 0, "d={d}: prunes_mbb allocated");
        }
    }
}

/// Allocations per d = 4 indexed FP recompute, n = 2000, k = 10: the
/// Phase-2 memo is dropped before every call, so each one runs BRS,
/// Phase 1, the star sweep over the mirror and the region assembly.
/// The star that kept tombstoned facets and a hashed ridge map made
/// 2 912 per call on this workload (mean of the 16 queries); the
/// live-plane star, with the S = 1 plan run inline, makes 178.
const RECOMPUTE_BUDGET: u64 = 270;

#[test]
fn indexed_fp_recompute_stays_under_budget() {
    let d = 4;
    let recs = synthetic(Distribution::Independent, 2000, d, 0xA11C);
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    let tree = RTree::bulk_load(store, &recs).unwrap();
    let engine = GirEngine::new(&tree);
    let index = PruneIndex::new();
    let mut next = xorshift(0xA11D);
    let queries: Vec<QueryVector> = (0..16)
        .map(|_| QueryVector::new((0..d).map(|_| 0.05 + 0.95 * next()).collect::<Vec<_>>()))
        .collect();
    // Warm the mirror and the skyline: they are per-version state.
    engine
        .gir_indexed(&queries[0], 10, Method::FacetPruning, &index)
        .unwrap();
    let mut total = 0;
    for q in &queries {
        index.clear_phase2();
        let (n, out) = allocs(|| engine.gir_indexed(q, 10, Method::FacetPruning, &index));
        out.unwrap();
        total += n;
    }
    let mean = total / queries.len() as u64;
    println!("indexed FP recompute, d = 4: {mean} allocations per call");
    assert!(
        mean <= RECOMPUTE_BUDGET,
        "{mean} allocations per recompute (budget {RECOMPUTE_BUDGET})"
    );
}

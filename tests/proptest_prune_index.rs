//! Property tests for the shared prune-index (`gir::core::prune`):
//! after any random interleaving of insertions and deletions routed
//! through `PruneIndex::on_insert` / `PruneIndex::on_delete`, the
//! incrementally-maintained index must be *structurally identical* to
//! one rebuilt from scratch (same skyline), and
//! GIRs served through the index (`GirEngine::gir_indexed`) must match
//! the no-index oracle (`GirEngine::gir`) — same top-k, same region as
//! a point set — for every Phase-2 method, both on a cold shared
//! Phase-2 system and on a reused (delta-maintained) one.

use gir::core::{GirEngine, Method, PruneIndex};
use gir::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// One generated dataset mutation: `op < 6` inserts `attrs`, otherwise
/// `sel` picks a live record to delete.
type Op = (u8, Vec<f64>, u64);

fn build_tree(rows: &[Vec<f64>]) -> (Vec<Record>, RTree) {
    let data: Vec<Record> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| Record::new(i as u64, r.clone()))
        .collect();
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    let tree = RTree::bulk_load(store, &data).unwrap();
    (data, tree)
}

fn dataset(d: usize, n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, d), n..n + 20)
}

fn ops(d: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (
            0u8..10,
            proptest::collection::vec(0.0f64..1.0, d),
            0u64..1 << 40,
        ),
        6..16,
    )
}

fn sorted_pairs(recs: &[Record]) -> Vec<(u64, Vec<f64>)> {
    let mut v: Vec<(u64, Vec<f64>)> = recs
        .iter()
        .map(|r| (r.id, r.attrs.coords().to_vec()))
        .collect();
    v.sort_by_key(|(id, _)| *id);
    v
}

/// Compares the indexed GIR against the no-index oracle at one query.
fn check_gir_matches_oracle(
    tree: &RTree,
    index: &PruneIndex,
    w: &[f64],
    k: usize,
    probe_seed: &mut u64,
) {
    let engine = GirEngine::new(tree);
    let q = QueryVector::new(w.to_vec());
    let d = w.len();
    for m in [
        Method::SkylinePruning,
        Method::ConvexHullPruning,
        Method::FacetPruning,
    ] {
        let oracle = engine.gir(&q, k, m).unwrap();
        let indexed = engine.gir_indexed(&q, k, m, index).unwrap();
        prop_assert_eq!(
            indexed.result.ids(),
            oracle.result.ids(),
            "{:?}: indexed result differs",
            m
        );
        prop_assert!(indexed.region.contains(&q.weights));
        for _ in 0..25 {
            let wp = PointD::from(
                (0..d)
                    .map(|_| {
                        *probe_seed ^= *probe_seed << 13;
                        *probe_seed ^= *probe_seed >> 7;
                        *probe_seed ^= *probe_seed << 17;
                        (*probe_seed >> 11) as f64 / (1u64 << 53) as f64
                    })
                    .collect::<Vec<f64>>(),
            );
            let a = indexed.region.contains(&wp);
            let b = oracle.region.contains(&wp);
            if a != b {
                let margin: f64 = indexed
                    .region
                    .halfspaces
                    .iter()
                    .chain(&oracle.region.halfspaces)
                    .map(|h| h.slack(&wp))
                    .fold(f64::INFINITY, |acc, v| acc.min(v.abs()));
                prop_assert!(
                    margin < 1e-6,
                    "{:?}: indexed region ≠ oracle at {:?} (margin {})",
                    m,
                    wp,
                    margin
                );
            }
        }
    }
}

fn check_prune_index_equivalence(rows: &[Vec<f64>], w: Vec<f64>, all_ops: &[Op], k: usize) {
    let (mut live, mut tree) = build_tree(rows);
    let index = PruneIndex::new();
    // Build eagerly (as the first serve miss would) so every op below
    // exercises the *incremental* maintenance path, and prime the
    // shared Phase-2 systems so later queries exercise their
    // delta-maintained reuse.
    let _ = index.snapshot(&tree).unwrap();
    let mut probe_seed = 0x9A0Du64 | 1;
    check_gir_matches_oracle(&tree, &index, &w, k, &mut probe_seed);

    let mut next_id = 9_000_000u64;
    for chunk in all_ops.chunks(3) {
        for (op, attrs, sel) in chunk {
            if *op < 6 || live.len() <= k + 8 {
                let rec = Record::new(next_id, attrs.clone());
                next_id += 1;
                tree.insert(rec.clone()).unwrap();
                index.on_insert(&rec);
                live.push(rec);
            } else {
                let idx = (*sel % live.len() as u64) as usize;
                let victim = live.swap_remove(idx);
                assert!(tree.delete(victim.id, &victim.attrs).unwrap());
                index.on_delete(&tree, victim.id, &victim.attrs).unwrap();
            }
        }

        // Structural equivalence: incrementally-maintained index ≡ one
        // rebuilt from scratch on the mutated tree — same skyline (ids
        // *and* attributes).
        let maintained = index.snapshot(&tree).unwrap();
        let rebuilt_index = PruneIndex::new();
        let rebuilt = rebuilt_index.snapshot(&tree).unwrap();
        prop_assert_eq!(
            sorted_pairs(&maintained.skyline_records()),
            sorted_pairs(&rebuilt.skyline_records()),
            "incremental skyline diverged from rebuild"
        );

        // Served GIRs match the no-index oracle on the mutated tree —
        // this also validates the delta-maintained Phase-2 systems
        // (append-on-insert / drop-on-contributor-delete), since keys
        // primed before the updates are reused here when still valid.
        check_gir_matches_oracle(&tree, &index, &w, k, &mut probe_seed);
    }
    prop_assert_eq!(index.stats().builds, 1, "maintenance must stay incremental");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 2-d: rotating-line FP territory, small skylines.
    #[test]
    fn prune_index_matches_rebuild_2d(
        rows in dataset(2, 45),
        w in proptest::collection::vec(0.05f64..1.0, 2),
        all_ops in ops(2),
        k in 1usize..5,
    ) {
        check_prune_index_equivalence(&rows, w, &all_ops, k);
    }

    /// 3-d: the star-hull sweep and the CP hull filter.
    #[test]
    fn prune_index_matches_rebuild_3d(
        rows in dataset(3, 60),
        w in proptest::collection::vec(0.05f64..1.0, 3),
        all_ops in ops(3),
        k in 1usize..6,
    ) {
        check_prune_index_equivalence(&rows, w, &all_ops, k);
    }

    /// 4-d: larger skylines, degenerate hulls more likely.
    #[test]
    fn prune_index_matches_rebuild_4d(
        rows in dataset(4, 50),
        w in proptest::collection::vec(0.05f64..1.0, 4),
        all_ops in ops(4),
        k in 1usize..4,
    ) {
        check_prune_index_equivalence(&rows, w, &all_ops, k);
    }
}

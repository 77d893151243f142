//! Logical I/O parity: the page-read and page-write counts of a fixed
//! sequence — STR bulk load, insert/delete churn, a window query and a
//! BRS top-k — are pinned to the numbers the byte-decoding tree
//! produced. The tree keeps its nodes decoded in memory, but every
//! node access still goes through the page store, so `IoStats`, the
//! top-k page counts and every figure's I/O column are unchanged by
//! how a node is materialised.

use gir::datagen::{synthetic, Distribution};
use gir::query::{brs_topk, ScoringFunction};
use gir::rtree::{Mbb, RTree, Record};
use gir::storage::{FilePageStore, MemPageStore, PageStore, PAGE_SIZE};
use gir_geometry::vector::PointD;
use std::sync::Arc;

/// `(reads, writes)` after each step of the sequence.
fn run_sequence(store: Arc<dyn PageStore>) -> [(u64, u64); 4] {
    let data = synthetic(Distribution::Independent, 3000, 3, 0x10_AA);
    let mut tree = RTree::bulk_load(Arc::clone(&store), &data).unwrap();
    let s = store.stats();
    let load = (s.reads, s.writes);

    store.reset_stats();
    let fresh = synthetic(Distribution::Independent, 600, 3, 0x10_AB);
    for (i, rec) in fresh.into_iter().enumerate() {
        tree.insert(Record::new(100_000 + i as u64, rec.attrs))
            .unwrap();
        if i % 2 == 0 {
            let victim = &data[(i * 7) % data.len()];
            tree.delete(victim.id, &victim.attrs).unwrap();
        }
    }
    let s = store.stats();
    let churn = (s.reads, s.writes);

    store.reset_stats();
    let window = Mbb {
        lo: PointD::new(vec![0.2, 0.1, 0.3]),
        hi: PointD::new(vec![0.7, 0.6, 0.9]),
    };
    assert!(!tree.window_query(&window).unwrap().is_empty());
    let s = store.stats();
    let window = (s.reads, s.writes);

    store.reset_stats();
    let (res, _) = brs_topk(
        &tree,
        &ScoringFunction::linear(3),
        &PointD::new(vec![0.6, 0.3, 0.8]),
        40,
    )
    .unwrap();
    assert_eq!(res.len(), 40);
    let s = store.stats();
    let topk = (s.reads, s.writes);

    [load, churn, window, topk]
}

/// Counts captured from the tree that decoded every page on every
/// access, before nodes were kept decoded.
const PINNED: [(u64, u64); 4] = [(0, 28), (4070, 3784), (26, 0), (6, 0)];

#[test]
fn io_counts_match_the_byte_decoding_tree_on_mem_and_file_stores() {
    let mem = run_sequence(Arc::new(MemPageStore::new(PAGE_SIZE)));
    assert_eq!(mem, PINNED, "MemPageStore");

    let dir = std::env::temp_dir().join("gir-io-parity");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("pages-{}.db", std::process::id()));
    let file = run_sequence(Arc::new(FilePageStore::create(&path).unwrap()));
    std::fs::remove_file(&path).ok();
    assert_eq!(file, PINNED, "FilePageStore");
}

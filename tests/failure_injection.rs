//! Failure injection: storage errors must propagate as `Err`, never
//! panic, and never corrupt previously returned results.

use gir::core::{GirEngine, GirError, Method};
use gir::prelude::*;
use gir::storage::{IoStatsSnapshot, PageBuf, PageId, StorageError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A page store that starts failing reads after a budget is exhausted.
struct FailingStore {
    inner: MemPageStore,
    reads_allowed: AtomicU64,
}

impl FailingStore {
    fn new(reads_allowed: u64) -> Self {
        FailingStore {
            inner: MemPageStore::new(PAGE_SIZE),
            reads_allowed: AtomicU64::new(reads_allowed),
        }
    }

    fn disarm(&self) {
        self.reads_allowed.store(u64::MAX, Ordering::Relaxed);
    }

    fn arm(&self, budget: u64) {
        self.reads_allowed.store(budget, Ordering::Relaxed);
    }
}

impl PageStore for FailingStore {
    fn allocate(&self) -> PageId {
        self.inner.allocate()
    }

    fn read_page(&self, id: PageId) -> Result<bytes::Bytes, StorageError> {
        // u64::MAX = disarmed; otherwise a countdown to failure.
        let left = self.reads_allowed.load(Ordering::Relaxed);
        if left != u64::MAX {
            if left == 0 {
                return Err(StorageError::Io(std::io::Error::other(
                    "injected read failure",
                )));
            }
            self.reads_allowed.store(left - 1, Ordering::Relaxed);
        }
        self.inner.read_page(id)
    }

    fn write_page(&self, id: PageId, page: PageBuf) -> Result<(), StorageError> {
        self.inner.write_page(id, page)
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
}

fn setup(reads_allowed: u64) -> (Arc<FailingStore>, RTree) {
    let failing = Arc::new(FailingStore::new(u64::MAX));
    failing.disarm();
    let data = gir::datagen::synthetic(Distribution::Independent, 5000, 3, 0xFA11);
    let store: Arc<dyn PageStore> = Arc::clone(&failing) as Arc<dyn PageStore>;
    let tree = RTree::bulk_load(store, &data).unwrap();
    failing.arm(reads_allowed);
    (failing, tree)
}

#[test]
fn gir_surfaces_read_errors_for_all_methods() {
    for method in [
        Method::SkylinePruning,
        Method::ConvexHullPruning,
        Method::FacetPruning,
        Method::FullScan,
    ] {
        // Measure the healthy read count, then fail strictly inside it.
        let (store, tree) = setup(u64::MAX);
        store.disarm();
        let engine = GirEngine::new(&tree);
        let q = QueryVector::new(vec![0.5, 0.6, 0.7]);
        store.reset_stats();
        engine.gir(&q, 10, method).unwrap();
        let healthy = store.stats().reads;
        assert!(healthy >= 2, "uninteresting workload for {method:?}");

        for budget in [0, 1, healthy / 2, healthy - 1] {
            store.arm(budget);
            match engine.gir(&q, 10, method) {
                Err(GirError::Tree(_)) => {}
                Ok(_) => panic!("{method:?} succeeded with a {budget}-read budget"),
                Err(other) => panic!("{method:?}: unexpected error kind {other}"),
            }
            store.disarm();
        }
    }
}

#[test]
fn recovery_after_failure_window() {
    let (store, tree) = setup(1);
    let engine = GirEngine::new(&tree);
    let q = QueryVector::new(vec![0.5, 0.6, 0.7]);
    assert!(engine.gir(&q, 10, Method::FacetPruning).is_err());
    // The store heals; the same engine object keeps working.
    store.disarm();
    let out = engine.gir(&q, 10, Method::FacetPruning).unwrap();
    assert_eq!(out.result.len(), 10);
    assert!(out.region.contains(&q.weights));
}

#[test]
fn window_query_and_scan_propagate_errors() {
    let (_store, tree) = setup(1);
    assert!(tree.scan_all().is_err());
}

// ---------------------------------------------------------------------
// PruneIndex error paths through the serving layer (PR 3 surface): a
// storage fault during the shared index's lazy build or its incremental
// maintenance must leave cache + index reconciled — the server keeps
// answering (no panic, no poisoned batch) and no stale hit is ever
// served once the store heals.
// ---------------------------------------------------------------------

use gir::query::naive_topk;
use gir::serve::TopKRequest;

fn serve_setup(n: usize) -> (Arc<FailingStore>, Vec<Record>, GirServer) {
    let failing = Arc::new(FailingStore::new(u64::MAX));
    failing.disarm();
    let data = gir::datagen::synthetic(Distribution::Independent, n, 3, 0xFA12);
    let store: Arc<dyn PageStore> = Arc::clone(&failing) as Arc<dyn PageStore>;
    let tree = RTree::bulk_load(store, &data).unwrap();
    let server = GirServer::new(
        tree,
        ScoringFunction::linear(3),
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    );
    (failing, data, server)
}

fn jittered_requests(count: usize, k: usize) -> Vec<TopKRequest> {
    (0..count)
        .map(|i| {
            let j = 0.001 * (i % 7) as f64;
            TopKRequest::new(vec![0.6 + j, 0.5 - j, 0.55], k)
        })
        .collect()
}

#[test]
fn index_build_failure_mid_miss_keeps_serving_without_stale_hits() {
    let (store, data, server) = serve_setup(1500);
    let reqs = jittered_requests(24, 8);

    // Arm before the first miss: the prune index's lazy skyline build
    // reads pages and fails partway. The batch must complete — failed
    // requests flagged, none served a wrong answer, nothing admitted.
    store.arm(1);
    let batch = server.run_batch(&reqs);
    assert_eq!(batch.responses.len(), reqs.len());
    assert!(
        batch.responses.iter().any(|r| r.failed),
        "injected build failure never surfaced"
    );
    for resp in &batch.responses {
        assert!(
            resp.failed || !resp.ids.is_empty(),
            "non-failed response with no answer"
        );
    }
    assert_eq!(
        server.cache_stats().entries,
        0,
        "failed misses must not admit cache entries"
    );
    assert_eq!(server.prune_stats().builds, 0, "half-built index survived");

    // The store heals: the same server recovers — the index rebuilds
    // lazily and every response (including cache hits) is fresh.
    store.disarm();
    let batch = server.run_batch(&reqs);
    for (req, resp) in reqs.iter().zip(&batch.responses) {
        assert!(!resp.failed, "failure persisted after the store healed");
        let truth = naive_topk(&data, server.scoring(), &req.weights, req.k);
        assert_eq!(resp.ids, truth.ids(), "stale response after recovery");
    }
    assert!(server.prune_stats().builds >= 1);
    assert!(server.cache_stats().hits > 0, "cache never warmed up");
}

#[test]
fn maintenance_error_during_apply_batch_leaves_cache_and_index_reconciled() {
    use gir::serve::Update;

    // A deletion of a *skyline member* forces the index's localized
    // repair descent (tree reads). Find the budget at which the tree
    // mutation itself succeeds but the descent fails: the tree has
    // changed, the index must have invalidated itself, and the cache
    // must already be reconciled with the applied delete when the
    // error propagates.
    let victim = {
        let (_, data, _) = serve_setup(1500);
        gir::query::naive_skyline(&data)
            .into_iter()
            .next()
            .expect("non-empty skyline")
    };

    let mut exercised = false;
    for budget in 0..64u64 {
        let (store, data, server) = serve_setup(1500);
        let reqs = jittered_requests(16, 6);
        // Warm: cache entries admitted, index + mirror built.
        let warm = server.run_batch(&reqs);
        assert!(warm.responses.iter().all(|r| !r.failed));
        assert!(server.cache_stats().entries > 0);

        store.arm(budget);
        let outcome = server.apply_updates(&[Update::Delete {
            id: victim.id,
            attrs: victim.attrs.clone(),
        }]);
        store.disarm();

        let deleted = server.num_records() == data.len() as u64 - 1;
        if outcome.is_ok() {
            assert!(deleted, "Ok(_) but the tree still holds the victim");
            break; // budget large enough: nothing left to inject
        }
        if !deleted {
            continue; // the tree delete itself failed: prefix is empty
        }
        // The interesting case: tree mutated, index maintenance failed.
        exercised = true;

        // Serve keeps answering, and every response — hit or miss — is
        // fresh against the mutated dataset (the index rebuilds from
        // scratch; entries naming the victim were evicted or repaired
        // by the already-run cache reconciliation).
        let mirror: Vec<Record> = data.iter().filter(|r| r.id != victim.id).cloned().collect();
        let batch = server.run_batch(&reqs);
        let mut hits = 0;
        for (req, resp) in reqs.iter().zip(&batch.responses) {
            assert!(!resp.failed, "failure persisted after the store healed");
            let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
            assert_eq!(
                resp.ids,
                truth.ids(),
                "stale response after maintenance error (budget {budget})"
            );
            hits += usize::from(resp.from_cache);
        }
        let _ = hits; // hit or miss, freshness is what matters
    }
    assert!(
        exercised,
        "no budget hit the tree-mutated-but-index-failed window"
    );
}

//! Concurrency tests for the serving subsystem: the sharded cache is
//! hammered from 8 threads with interleaved maintenance sweeps, and the
//! full server is driven with concurrent batches + updates, with every
//! cache-served answer cross-checked against a linear-scan oracle.

use gir::core::{CacheKey, DeltaBatch};
use gir::prelude::*;
use gir::query::naive_topk;
use gir::serve::{mixed_workload, ShardedGirCache, WorkloadConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn build_server(n: usize, d: usize, seed: u64, threads: usize) -> (Vec<Record>, GirServer) {
    let data = gir::datagen::synthetic(Distribution::Independent, n, d, seed);
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    let tree = RTree::bulk_load(store, &data).unwrap();
    let cfg = ServerConfig {
        threads,
        ..ServerConfig::default()
    };
    (
        data.clone(),
        GirServer::new(tree, ScoringFunction::linear(d), cfg),
    )
}

/// 8 threads of lookups/inserts against one sharded cache while a 9th
/// sweeps maintenance updates through it. Checks liveness (no deadlock),
/// counter consistency, and that capacity bounds hold throughout.
#[test]
fn sharded_cache_smoke_8_threads_with_update_sweeps() {
    let d = 3;
    let (data, server) = build_server(800, d, 0xC0C0, 2);
    // Pre-compute a pool of (region, result) pairs to admit from many
    // threads without re-running the engine inside the loop.
    let scoring = ScoringFunction::linear(d);
    let snapshot = server.records_snapshot().unwrap();
    let engines_pool: Vec<(gir::core::GirRegion, gir::query::TopKResult)> = {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &snapshot).unwrap();
        let engine = GirEngine::new(&tree);
        gir::datagen::random_queries(16, d, 0.2, 0xC1)
            .iter()
            .map(|w| {
                let out = engine
                    .gir(
                        &QueryVector::new(w.coords().to_vec()),
                        8,
                        Method::FacetPruning,
                    )
                    .unwrap();
                (out.region, out.result)
            })
            .collect()
    };

    let shard_capacity = 4;
    let cache = Arc::new(ShardedGirCache::new(8, shard_capacity));
    let probes = gir::datagen::random_queries(64, d, 0.0, 0xC2);
    let stop = Arc::new(AtomicBool::new(false));
    let lookups_done = Arc::new(AtomicU64::new(0));

    // Flips the sweeper's stop flag even when a worker panics and the
    // closure unwinds, so the test fails with the panic instead of
    // hanging on the outer scope's join.
    struct StopOnDrop(Arc<AtomicBool>);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    std::thread::scope(|scope| {
        let _stop_guard = StopOnDrop(Arc::clone(&stop));
        // Sweeper thread: interleaved maintenance updates until stopped.
        let sweeper_cache = Arc::clone(&cache);
        let sweeper_stop = Arc::clone(&stop);
        let newcomers = &data;
        scope.spawn(move || {
            let mut i = 0usize;
            while !sweeper_stop.load(Ordering::Relaxed) {
                let rec = Record::new(
                    5_000_000 + i as u64,
                    newcomers[i % newcomers.len()].attrs.coords().to_vec(),
                );
                let mut batch = DeltaBatch::new();
                batch.record_insert(&rec);
                batch.record_delete(newcomers[(i * 13) % newcomers.len()].id);
                sweeper_cache.apply_batch(&batch, |_| None);
                i += 1;
                std::thread::yield_now();
            }
        });
        // The inner scope joins all workers (propagating any panic,
        // which drops _stop_guard and releases the sweeper).
        std::thread::scope(|workers| {
            for t in 0..8usize {
                let cache = Arc::clone(&cache);
                let scoring = scoring.clone();
                let pool = &engines_pool;
                let probes = &probes;
                let lookups_done = Arc::clone(&lookups_done);
                workers.spawn(move || {
                    for round in 0..200 {
                        let (region, result) = &pool[(t * 7 + round) % pool.len()];
                        cache.admit(
                            &CacheKey::new(&region.query, result.len(), &scoring),
                            region.clone(),
                            result.clone(),
                        );
                        for w in probes.iter().skip(t * 8).take(8) {
                            let _ = cache.get(&CacheKey::new(w, 8, &scoring));
                            lookups_done.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
    });
    assert_eq!(lookups_done.load(Ordering::Relaxed), 8 * 200 * 8);

    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        lookups_done.load(Ordering::Relaxed),
        "every lookup must count exactly once"
    );
    assert!(
        stats.entries <= 8 * shard_capacity,
        "capacity exceeded: {}",
        stats.entries
    );
}

/// Full-server freshness under churn: replay mixed traffic, mirror the
/// updates into a model vector, and require every *cache-served*
/// response to equal the linear-scan oracle on the current dataset.
#[test]
fn server_never_serves_stale_after_update_sweeps() {
    let d = 3;
    let (mut mirror, server) = build_server(2_000, d, 0xF8E5, 4);
    let wl_cfg = WorkloadConfig {
        dim: d,
        anchors: 6,
        jitter: 0.01,
        batches: 10,
        queries_per_batch: 60,
        updates_per_batch: 6,
        insert_fraction: 0.6,
        insert_hot_fraction: 0.4,
        delete_hot_fraction: 0.6,
        k_choices: vec![5, 8],
        seed: 0xF8E6,
    };
    let traffic = mixed_workload(&wl_cfg, &mirror);

    let mut total_hits = 0usize;
    for batch in &traffic {
        server.apply_updates(&batch.updates).unwrap();
        for u in &batch.updates {
            match u {
                Update::Insert(rec) => mirror.push(rec.clone()),
                Update::Delete { id, .. } => mirror.retain(|r| r.id != *id),
            }
        }
        let out = server.run_batch(&batch.queries);
        for (req, resp) in batch.queries.iter().zip(&out.responses) {
            if resp.from_cache {
                total_hits += 1;
                let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
                assert_eq!(
                    resp.ids,
                    truth.ids(),
                    "stale cache hit at {:?} (k={})",
                    req.weights,
                    req.k
                );
            }
        }
    }
    assert!(
        total_hits > 0,
        "anchored jitter traffic must produce cache hits"
    );
    let stats = server.cache_stats();
    assert_eq!(stats.hits as usize, total_hits);
}

/// Concurrent batches from several driver threads share the cache and
/// agree with the oracle (updates quiesced).
#[test]
fn concurrent_batches_share_cache_coherently() {
    let d = 2;
    let (data, server) = build_server(1_000, d, 0xAB42, 2);
    let server = Arc::new(server);
    let anchors = gir::datagen::random_queries(4, d, 0.3, 0xAB43);

    std::thread::scope(|scope| {
        for t in 0..4usize {
            let server = Arc::clone(&server);
            let data = &data;
            let anchors = &anchors;
            scope.spawn(move || {
                let reqs: Vec<TopKRequest> = (0..50)
                    .map(|i| {
                        let a = &anchors[(t + i) % anchors.len()];
                        let j = 0.002 * (i % 5) as f64;
                        let w: Vec<f64> = a
                            .coords()
                            .iter()
                            .map(|&v| (v + j).clamp(0.0, 1.0))
                            .collect();
                        TopKRequest::new(w, 6)
                    })
                    .collect();
                let out = server.run_batch(&reqs);
                for (req, resp) in reqs.iter().zip(&out.responses) {
                    let truth = naive_topk(data, server.scoring(), &req.weights, 6);
                    assert_eq!(resp.ids, truth.ids(), "thread {t} got a wrong answer");
                }
            });
        }
    });
    let stats = server.cache_stats();
    assert!(
        stats.hits > 0,
        "shared anchors across threads should produce hits"
    );
}

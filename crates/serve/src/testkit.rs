//! Serve-loop checks generic over the backend: each tier's unit tests
//! call these with its own [`Server`], so a behaviour of the core is
//! asserted once and exercised per tier. 3-d linear datasets unless
//! stated otherwise; every answer is compared against a linear scan.
//!
//! Test-only, and no part of the `gir-serve` library: `gir-serve`,
//! `gir-shard` and `gir-rpc` each compile this file into their own
//! `#[cfg(test)]` tree (`#[path]` in their `lib.rs`), which is why it
//! names the core through `gir_serve::` rather than `crate::`.
#![allow(dead_code)] // no tier calls every check

use gir_core::Method;
use gir_query::{naive_topk, Record};
use gir_serve::{Server, ShardBackend, TopKRequest, Update};

/// `n` records with ids `0..n` and xorshift-drawn attributes in
/// `[0,1)^d`: scores are distinct, so the naive oracle and BRS never
/// meet a tie (they break exact ties differently).
pub fn records(n: usize, d: usize, seed: u64) -> Vec<Record> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| Record::new(i as u64, (0..d).map(|_| next()).collect::<Vec<_>>()))
        .collect()
}

/// Jittered repeats of one 3-d preference anchor: the first request
/// computes and caches, most of the rest fall inside its region.
pub fn jittered_requests(count: usize, k: usize) -> Vec<TopKRequest> {
    (0..count)
        .map(|i| {
            let j = 0.0005 * (i % 11) as f64;
            TopKRequest::new(vec![0.55 + j, 0.6 - j, 0.45 + j / 2.0], k)
        })
        .collect()
}

/// A cold batch of jittered repeats must hit cached GIRs, and every
/// answer — hit or miss — must equal a linear scan of `data`.
pub fn check_batch_matches_naive_and_hits_cache<B: ShardBackend>(
    server: &Server<B>,
    data: &[Record],
) {
    let reqs = jittered_requests(120, 8);
    let batch = server.run_batch(&reqs);
    assert_eq!(batch.responses.len(), reqs.len());
    assert!(batch.stats.hits > 0, "jittered repeats should hit");
    assert_eq!(batch.stats.hits + batch.stats.misses, reqs.len());
    for (req, resp) in reqs.iter().zip(&batch.responses) {
        assert!(!resp.failed);
        let truth = naive_topk(data, server.scoring(), &req.weights, req.k);
        assert_eq!(resp.ids, truth.ids(), "wrong answer at {:?}", req.weights);
    }
}

/// Warms the cache, inserts a dominating record (it must enter every
/// later top-k at rank 1, so every cached entry shrinks or drops), then
/// deletes it again (entries containing it must evict) — with every
/// response checked against a linear scan of `mirror`, the server's
/// records. `after_insert` runs between the two updates for
/// tier-specific assertions.
pub fn check_updates_stay_fresh<B: ShardBackend>(
    server: &Server<B>,
    mut mirror: Vec<Record>,
    after_insert: impl FnOnce(),
) {
    let reqs = jittered_requests(40, 6);
    let _ = server.run_batch(&reqs);
    assert!(server.cache_stats().entries > 0);

    let champion = Record::new(9_999_999, vec![0.99, 0.99, 0.99]);
    mirror.push(champion.clone());
    let report = server
        .apply_updates(&[Update::Insert(champion.clone())])
        .unwrap();
    assert_eq!(report.inserted, 1);
    after_insert();

    let batch = server.run_batch(&reqs);
    for (req, resp) in reqs.iter().zip(&batch.responses) {
        let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
        assert_eq!(resp.ids, truth.ids(), "stale response after insert");
        assert_eq!(resp.ids[0], champion.id);
    }

    let report = server
        .apply_updates(&[Update::Delete {
            id: champion.id,
            attrs: champion.attrs.clone(),
        }])
        .unwrap();
    mirror.pop();
    assert_eq!(report.deleted, 1);
    assert!(
        report.evicted > 0,
        "entries containing the champion must evict"
    );
    let batch = server.run_batch(&reqs);
    for (req, resp) in reqs.iter().zip(&batch.responses) {
        let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
        assert_eq!(resp.ids, truth.ids(), "stale response after delete");
    }
}

/// A server configured for facet pruning over the non-linear
/// `ScoringFunction::mixed4` (4-d `data`) must serve with SP (§7.2) and
/// still answer correctly.
pub fn check_nonlinear_scoring_falls_back_to_sp<B: ShardBackend>(
    server: &Server<B>,
    data: &[Record],
) {
    assert_eq!(server.method(), Method::SkylinePruning);
    let reqs = vec![TopKRequest::new(vec![0.5, 0.5, 0.5, 0.5], 5)];
    let batch = server.run_batch(&reqs);
    let truth = naive_topk(data, server.scoring(), &reqs[0].weights, 5);
    assert_eq!(batch.responses[0].ids, truth.ids());
    assert_eq!(batch.stats.method, "SP");
}

//! The pool differential harness: every parallel fan-out in the
//! workspace must be **bit-identical** to its sequential fallback.
//!
//! `stealpool::configure_threads` is process-global, so this binary
//! owns it exclusively: every test funnels through [`with_pool`], which
//! serializes pool-policy changes behind one mutex (Cargo runs each
//! integration-test file as its own process, so no other test binary
//! can race these overrides).
//!
//! Covered, over S ∈ {1, 2, 4, 8} shards and random update
//! interleavings:
//!
//! * `gir_sharded` / `gir_star_sharded` (via `ShardedDataset::gir` /
//!   `gir_star`): same ranked ids, bitwise-equal scores, identical
//!   half-space sequence (normals, offsets, provenance, order) and
//!   Phase-2 stats whether the per-shard sweeps run inline or on the
//!   work-stealing pool — completion order must never leak into the
//!   merged `(score, id)` tie order.
//! * `ShardedGirCache::apply_batch` (via `GirServer::apply_updates`):
//!   identical `UpdateReport`, identical per-slot maintenance-counter
//!   totals, and identical follow-up responses when the per-shard
//!   passes fan out.
//! * The EXPLAIN capture hand-off: a traced sharded miss must attribute
//!   all shards in its report even when the per-shard spans were opened
//!   on pool workers.

mod common;

use common::oracle::{assert_bit_identical, records};
use gir::core::{Method, RegionKind};
use gir::prelude::*;
use gir::query::naive_topk;
use gir::shard::{ShardedDataset, ShardedServerConfig};
use std::sync::{Arc, Mutex};

/// Serializes every pool-policy override in this binary. `threads = 0`
/// forces the sequential fallback; `threads ≥ 2` forces the pool on
/// regardless of the machine's core count (the whole point: the
/// differential must hold even on a 1-core CI runner).
fn with_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    static POOL_LOCK: Mutex<()> = Mutex::new(());
    let _guard = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    stealpool::configure_threads(threads);
    let out = f();
    stealpool::reset_threads();
    out
}

const PAR_THREADS: usize = 4;

/// One xorshift-driven update interleaving step: mostly inserts, with
/// deletes picking arbitrary live records.
fn churn(data: &mut ShardedDataset, live: &mut Vec<Record>, rng: &mut u64, next_id: &mut u64) {
    for _ in 0..4 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        if *rng % 10 < 6 || live.len() < 40 {
            let attrs: Vec<f64> = (0..data.dim())
                .map(|j| {
                    let mut s = rng.rotate_left(j as u32 + 1) | 1;
                    s ^= s << 13;
                    s ^= s >> 7;
                    (s >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect();
            let rec = Record::new(*next_id, attrs);
            *next_id += 1;
            data.insert(rec.clone()).unwrap();
            live.push(rec);
        } else {
            let idx = (*rng as usize / 10) % live.len();
            let victim = live.swap_remove(idx);
            assert!(data.delete(victim.id, &victim.attrs).unwrap());
        }
    }
}

#[test]
fn parallel_sharded_sweeps_match_sequential_bit_for_bit() {
    let d = 3;
    let scoring = ScoringFunction::linear(d);
    let queries = [
        vec![0.55, 0.62, 0.48],
        vec![0.9, 0.15, 0.4],
        vec![0.33, 0.33, 0.34],
    ];
    for s in [1usize, 2, 4, 8] {
        let mut live = records(500, d, 0xD1F * s as u64);
        let mut data = ShardedDataset::build(d, &live, s, Placement::Hash).unwrap();
        let mut rng = 0xBEEFu64 | 1;
        let mut next_id = 5_000_000u64;
        for round in 0..3 {
            if round > 0 {
                churn(&mut data, &mut live, &mut rng, &mut next_id);
            }
            for (qi, w) in queries.iter().enumerate() {
                let q = QueryVector::new(w.clone());
                for k in [1usize, 5] {
                    let seq = with_pool(0, || {
                        data.gir(&scoring, &q, k, Method::FacetPruning).unwrap()
                    });
                    let par = with_pool(PAR_THREADS, || {
                        data.gir(&scoring, &q, k, Method::FacetPruning).unwrap()
                    });
                    assert_bit_identical(
                        &seq,
                        &par,
                        &format!("gir S={s} round={round} q={qi} k={k}"),
                    );

                    let seq = with_pool(0, || {
                        data.gir_star(&scoring, &q, k, Method::FacetPruning)
                            .unwrap()
                    });
                    let par = with_pool(PAR_THREADS, || {
                        data.gir_star(&scoring, &q, k, Method::FacetPruning)
                            .unwrap()
                    });
                    assert_bit_identical(
                        &seq,
                        &par,
                        &format!("gir_star S={s} round={round} q={qi} k={k}"),
                    );

                    // The oracle never lies: the parallel ranked ids are
                    // the true top-k.
                    let truth = naive_topk(&live, &scoring, &PointD::new(w.clone()), k);
                    assert_eq!(par.result.ids(), truth.ids(), "S={s} round={round} q={qi}");
                }
            }
        }
    }
}

fn build_server(data: &[Record], d: usize) -> GirServer {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    let tree = RTree::bulk_load(store, data).unwrap();
    GirServer::new(
        tree,
        ScoringFunction::linear(d),
        ServerConfig {
            threads: 1,
            shards: 8,
            shard_capacity: 16,
            ..ServerConfig::default()
        },
    )
}

#[test]
fn parallel_apply_batch_matches_sequential() {
    let d = 3;
    let data = records(900, d, 0xAB5);
    // Two identical servers; only the pool policy during apply differs.
    let warm: Vec<TopKRequest> = (0..40)
        .map(|i| {
            let j = 0.0005 * (i % 11) as f64;
            let w = vec![0.55 + j, 0.6 - j, 0.45 + j / 2.0];
            if i % 2 == 0 {
                TopKRequest::new(w, 6)
            } else {
                TopKRequest::new(w, 6).kind(RegionKind::GirStar)
            }
        })
        .collect();
    let servers: Vec<GirServer> = (0..2)
        .map(|_| {
            let srv = build_server(&data, d);
            let out = with_pool(0, || srv.run_batch(&warm));
            assert!(out.stats.hits + out.stats.misses == warm.len());
            srv
        })
        .collect();
    assert_eq!(
        servers[0].cache_stats().entries,
        servers[1].cache_stats().entries,
        "identical warmup must cache identically"
    );

    // Three rounds of churn: a dominating insert (shrinks everything),
    // a contributor-ish delete (exercises repair), a mediocre insert.
    let mut rng = 0x77u64 | 1;
    for round in 0..3 {
        let mut updates = Vec::new();
        let jitter = round as f64 * 2e-4;
        updates.push(Update::Insert(Record::new(
            8_000_000 + round,
            vec![0.7 + jitter, 0.68 - jitter, 0.66],
        )));
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let victim = &data[(rng as usize / 7) % data.len()];
        updates.push(Update::Delete {
            id: victim.id,
            attrs: victim.attrs.clone(),
        });
        updates.push(Update::Insert(Record::new(
            8_500_000 + round,
            vec![0.3 + jitter, 0.2, 0.35],
        )));

        let seq = with_pool(0, || servers[0].apply_updates(&updates).unwrap());
        let par = with_pool(PAR_THREADS, || servers[1].apply_updates(&updates).unwrap());
        assert_eq!(seq, par, "round {round}: UpdateReport diverged");

        // The seqlock-bracketed maintenance counters must agree slot by
        // slot — the parallel pass opens each shard's epoch on whatever
        // worker runs it, but the sums are policy-independent.
        let a = servers[0].maintenance_snapshot();
        let b = servers[1].maintenance_snapshot();
        assert_eq!(
            a.totals(),
            b.totals(),
            "round {round}: slot totals diverged"
        );

        // And the surviving cache serves the same answers.
        let out_a = with_pool(0, || servers[0].run_batch(&warm));
        let out_b = with_pool(0, || servers[1].run_batch(&warm));
        for (i, (ra, rb)) in out_a.responses.iter().zip(&out_b.responses).enumerate() {
            assert_eq!(ra.ids, rb.ids, "round {round}: response {i} diverged");
        }
    }
}

#[test]
fn explain_attributes_all_shards_under_forced_pool() {
    let d = 3;
    let data = records(3_000, d, 0xE7);
    for kind in [RegionKind::Gir, RegionKind::GirStar] {
        let server = ShardedGirServer::build(
            d,
            &data,
            ScoringFunction::linear(d),
            ShardedServerConfig {
                threads: 1,
                data_shards: 4,
                placement: Placement::Hash,
                ..ShardedServerConfig::default()
            },
        )
        .unwrap();
        let req = TopKRequest::new(vec![0.55, 0.62, 0.48], 6)
            .kind(kind)
            .explain();
        let out = with_pool(PAR_THREADS, || server.run_batch(std::slice::from_ref(&req)));
        let resp = &out.responses[0];
        assert!(
            !resp.from_cache,
            "{}: first request must miss",
            kind.label()
        );
        let report = resp.explain.as_ref().expect("explain requested");
        // Per-shard spans were opened on pool workers; the capture
        // hand-off must still graft them into this request's tree in
        // shard order.
        let mut shards: Vec<u64> = report.per_shard_us.iter().map(|(s, _)| *s).collect();
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1, 2, 3], "{}", kind.label());
    }
}

#[test]
fn forced_pool_reports_parallel_policy() {
    with_pool(PAR_THREADS, || {
        assert_eq!(stealpool::effective_threads(), PAR_THREADS);
        assert!(
            stealpool::global().is_some(),
            "configure_threads(4) must enable the pool even on 1 core"
        );
    });
    with_pool(0, || {
        assert!(stealpool::global().is_none(), "0 forces sequential");
    });
}

//! The serve workload driver: replays mixed query/update traffic
//! against the concurrent serving subsystem (`gir-serve`) and proves
//! every cache-served answer fresh.
//!
//! 12k anchored-jitter top-k queries in 24 batches, with insert/delete
//! churn applied (and swept through the cache) before each batch, run
//! across a worker pool of ≥ 4 threads. The churn is *hot*: 30% of
//! insertions land in the competitive `[0.7, 1)^d` band and 50% of
//! deletions remove the oldest live hot insert (the PR 2
//! `insert_hot_fraction` / `delete_hot_fraction` workload knobs), so
//! cached regions shrink on arrivals and are repaired — not lost — on
//! departures. Every response served from the GIR cache is
//! cross-checked against a linear-scan oracle on the *current* dataset
//! — a stale hit aborts the run.
//!
//! ```text
//! cargo run --release --example serve_workload [-- --star]
//! ```
//!
//! `--star` replays the same traffic as **order-insensitive** requests
//! (`TopKRequest::new(w, k).kind(RegionKind::GirStar)`): misses compute
//! the wider GIR\*
//! region (paper §7.1), hits guarantee the top-k *set* instead of the
//! exact ranking, and the oracle check compares compositions. Run
//! `--help` for the environment knobs.

use gir::prelude::*;
use gir::query::naive_topk;
use gir::rpc::{DistributedGirServer, DistributedServerConfig, ThreadEndpoint};
use gir::serve::{mixed_workload, ServeStats, Server, ShardBackend, TrafficBatch, WorkloadConfig};
use std::sync::Arc;

const HELP: &str = "\
serve_workload — replay mixed query/update traffic against GirServer

USAGE:
    cargo run --release --example serve_workload [-- FLAGS]

FLAGS:
    --star    serve the traffic as order-insensitive (GIR*, §7.1)
              requests: cache hits guarantee the top-k *set*; the
              freshness oracle compares compositions instead of exact
              rankings
    --distributed
              serve through DistributedGirServer: four RPC shard
              workers behind the framed loopback transport instead of
              the in-process GirServer. Same traffic, same freshness
              oracle; with --metrics the snapshot additionally carries
              the rpc.* counters, whose liveness invariant
              (requests = responses + failures, retries ≤ requests)
              `metrics_check` enforces
    --metrics[=PATH]
              enable the gir-obs collector for the whole run and write
              the registry snapshot (counters, gauges, histograms) as
              JSON to PATH (default METRICS_obs.json), plus a
              human-readable dump and one per-query EXPLAIN tree to
              stdout. CI validates the snapshot with `metrics_check`
              and uploads it as an artifact
    --help    print this help

ENVIRONMENT:
    GIR_SEED  workspace-wide seed (u64). Drives both the traffic stream
              and the dataset so CI runs are deterministic and
              comparable across jobs; unset, the PR 1 defaults apply
              (traffic seed 7, dataset seed 42).
    GIR_OBS   set to any value but \"0\" to install the gir-obs
              collector even without --metrics (spans and events feed
              the global registry; no snapshot file is written).

WORKLOAD (fixed in this driver, knobs of gir_serve::WorkloadConfig):
    anchors=10 jitter=0.012 batches=24 queries_per_batch=500
    updates_per_batch=10 insert_fraction=0.7
    insert_hot_fraction=0.3   30% of inserts land in [0.7, 1)^d,
                              contending with every top-k
    delete_hot_fraction=0.5   50% of deletes remove the oldest live hot
                              insert — the churn that separates
                              incremental repair from sweep-and-forget
    k_choices=5,10
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    let star = args.iter().any(|a| a == "--star");
    let distributed = args.iter().any(|a| a == "--distributed");
    let metrics_path: Option<String> = args.iter().find_map(|a| match a.as_str() {
        "--metrics" => Some("METRICS_obs.json".to_string()),
        s => s
            .strip_prefix("--metrics=")
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty()),
    });
    if let Some(unknown) = args.iter().find(|a| {
        *a != "--star" && *a != "--distributed" && *a != "--metrics" && !a.starts_with("--metrics=")
    }) {
        eprintln!("unknown flag {unknown:?}\n\n{HELP}");
        std::process::exit(2);
    }
    // --metrics forces the collector on; otherwise GIR_OBS decides.
    if metrics_path.is_some() {
        gir::obs::install_global_collector();
    } else {
        gir::obs::install_from_env();
    }

    let d = 3;
    let n = 20_000;
    let threads = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(4)
        .clamp(4, 16);
    // GIR_SEED makes CI runs deterministic and comparable across jobs;
    // unset, the PR 1 defaults (traffic seed 7, dataset seed 42) apply.
    let (seed, data_seed) = match std::env::var("GIR_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(s) => (s, s ^ 42),
        None => (7, 42),
    };

    let mirror = gir::datagen::synthetic(Distribution::Independent, n, d, data_seed);
    let wl = WorkloadConfig {
        dim: d,
        anchors: 10,
        jitter: 0.012,
        batches: 24,
        queries_per_batch: 500,
        updates_per_batch: 10,
        insert_fraction: 0.7,
        insert_hot_fraction: 0.3,
        delete_hot_fraction: 0.5,
        k_choices: vec![5, 10],
        seed,
    };
    let mut traffic = mixed_workload(&wl, &mirror);
    if star {
        // Same weights, k and churn — only the requested semantics
        // change, so --star A/Bs cleanly against the default run.
        for batch in &mut traffic {
            for q in &mut batch.queries {
                q.kind = gir::serve::RegionKind::GirStar;
            }
        }
    }
    let run = Run {
        star,
        threads,
        metrics_path,
        engine: if distributed {
            "distributed S=4 loopback"
        } else {
            "in-process"
        },
    };
    if distributed {
        // Four shard workers on the framed loopback transport — the
        // same cache geometry as the local engine, so hit rates are
        // comparable across the two modes.
        let server = DistributedGirServer::launch(
            &mirror,
            ScoringFunction::linear(d),
            DistributedServerConfig {
                threads,
                data_shards: 4,
                cache_shards: 16,
                cache_capacity: 32,
                method: Method::FacetPruning,
                ..DistributedServerConfig::default()
            },
            Box::new(|_| Box::new(ThreadEndpoint::spawn())),
        )
        .expect("launch distributed server");
        replay(&server, mirror, &traffic, &run);
        server.shutdown();
    } else {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &mirror).expect("bulk load");
        let server = GirServer::new(
            tree,
            ScoringFunction::linear(d),
            ServerConfig {
                threads,
                shards: 16,
                shard_capacity: 32,
                method: Method::FacetPruning,
                ..ServerConfig::default()
            },
        );
        replay(&server, mirror, &traffic, &run);
    }
}

/// What the replay needs besides the server and its traffic.
struct Run {
    star: bool,
    threads: usize,
    metrics_path: Option<String>,
    engine: &'static str,
}

/// Replays `traffic` against the serve core — whichever backend is
/// behind it — mirroring every update into `mirror` and checking every
/// cache hit against a linear scan of it.
fn replay<B: ShardBackend>(
    server: &Server<B>,
    mut mirror: Vec<Record>,
    traffic: &[TrafficBatch],
    run: &Run,
) {
    let star = run.star;
    let total_queries: usize = traffic.iter().map(|b| b.queries.len()).sum();
    let total_updates: usize = traffic.iter().map(|b| b.updates.len()).sum();
    let mode = if star { "GIR* (set)" } else { "GIR (ranked)" };
    println!(
        "replaying {total_queries} queries + {total_updates} updates in {} batches \
         on {} threads (n={}, d={}, FP, {mode}, {})\n",
        traffic.len(),
        run.threads,
        mirror.len(),
        server.scoring().dim(),
        run.engine
    );
    let sorted = |ids: &[u64]| {
        let mut v = ids.to_vec();
        v.sort_unstable();
        v
    };
    let mut aggregate = ServeStats::default();
    let mut verified_hits = 0u64;
    let mut evicted_total = 0usize;
    let mut repaired_total = 0usize;
    for (i, batch) in traffic.iter().enumerate() {
        // Update pipeline: mutate the tree and reconcile the cache (one
        // delta-batch classification pass, facet repair for deleted
        // contributors) before any query of this batch runs.
        let report = server.apply_updates(&batch.updates).expect("update batch");
        evicted_total += report.evicted;
        repaired_total += report.repaired;
        for u in &batch.updates {
            match u {
                Update::Insert(rec) => mirror.push(rec.clone()),
                Update::Delete { id, .. } => mirror.retain(|r| r.id != *id),
            }
        }

        let out = server.run_batch(&batch.queries);

        // Freshness proof: every cache hit must equal recomputation on
        // the updated dataset — exact ranking for GIR traffic, exact
        // composition for GIR* traffic (Definition 2 pins the set).
        for (req, resp) in batch.queries.iter().zip(&out.responses) {
            if resp.from_cache {
                let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
                if star {
                    assert_eq!(
                        sorted(&resp.ids),
                        sorted(&truth.ids()),
                        "STALE star composition after update sweep (batch {i}, w={:?})",
                        req.weights
                    );
                } else {
                    assert_eq!(
                        resp.ids,
                        truth.ids(),
                        "STALE cache hit after update sweep (batch {i}, w={:?})",
                        req.weights
                    );
                }
                verified_hits += 1;
            }
        }

        if i % 6 == 0 {
            println!("batch {i:>2}: {}", out.stats);
        }
        aggregate.merge(&out.stats);
    }

    let cache = server.cache_stats();
    println!("\naggregate: {aggregate}");
    println!(
        "cache: {} hits / {} misses ({:.1}% hit rate), {} entries live, {} evicted \
         ({} by update batches, rest LRU pressure), {} facet repairs",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        cache.entries,
        cache.evictions,
        evicted_total,
        repaired_total,
    );
    println!(
        "verified {verified_hits} cache hits against linear-scan recomputation — \
         zero stale results."
    );

    assert!(
        total_queries + total_updates >= 10_000,
        "driver must replay ≥ 10k events"
    );
    assert!(run.threads >= 4, "driver must use ≥ 4 threads");
    assert!(cache.hits > 0, "workload must produce cache hits");
    assert!(verified_hits > 0);

    if let Some(path) = &run.metrics_path {
        // One explained request: the per-query span tree distilled into
        // the planner's feature vector. Replaying the last batch's
        // first query typically lands a cache hit; a fresh jittered
        // weight would show the full miss pipeline instead.
        let probe = traffic.last().expect("traffic is non-empty").queries[0]
            .clone()
            .explain();
        let out = server.run_batch(&[probe]);
        if let Some(report) = &out.responses[0].explain {
            println!("\nEXPLAIN of one replayed request:\n{}", report.to_text());
        }

        let snap = gir::obs::Registry::global().snapshot();
        println!("{}", snap.to_text());
        std::fs::write(path, snap.to_json()).expect("write metrics snapshot");
        println!("wrote metrics snapshot to {path}");
    }
}

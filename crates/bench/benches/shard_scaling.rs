//! Shard-scaling bench: the sharded execution path against the
//! single-tree server, across shard counts, placements and occupancy
//! skew.
//!
//! Two sections:
//!
//! * **per-query GIR latency** (criterion rows) — one cold + one warm
//!   `gir` call per configuration: single tree, then S ∈ `GIR_SHARDS`
//!   for hash placement, plus a grid row over a hot-band-skewed
//!   dataset (one shard carrying ~70% of the records — the placement
//!   pathology a production layer must survive);
//! * **serving throughput** — the `serve_throughput` mixed workload
//!   (hot churn, ≥10% updates, single thread so the A/B is
//!   deterministic) replayed against the single-tree `GirServer` and
//!   `ShardedGirServer` at each shard count.
//!
//! Writes `BENCH_shard.json` at the workspace root (one row per
//! serving run, same schema as `BENCH_serve.json` rows plus a
//! `shards`/`placement` tag). The acceptance bar tracked across PRs —
//! and enforced: the bench **exits non-zero** when sharded qps at S=1
//! falls below 90% of the single tree on a gate-sized run (≥ 2000
//! queries; smaller runs only warn, they are noise-dominated) — the
//! merge layer must be free when there is nothing to merge.
//!
//! The latency section and the `single`/`sharded_s{s}` serving rows run
//! with the work-stealing pool pinned **off**
//! (`stealpool::configure_threads(0)`) so they stay comparable with the
//! sequential baselines of earlier PRs. A second pass then replays the
//! same traffic under the default pool policy (`GIR_POOL_THREADS`
//! honoured, `available_parallelism` otherwise) and emits
//! `sharded_par_s{s}` rows; `perf_gate --require-parallel-win` gates
//! the sequential/parallel pairs on multi-core machines. On a 1-core
//! box the pool degrades to inline sequential execution, so the par
//! rows are a parity re-measurement there, nothing more.
//!
//! Knobs: `GIR_N` (default 20000), `GIR_SHARD_QUERIES` (default
//! 12000), `GIR_SHARDS` (default "1,2,4,8"), `GIR_SEED`,
//! `GIR_POOL_THREADS` (parallel pass only; 0 = sequential).

use criterion::{BenchSummary, Criterion};
use gir_core::Method;
use gir_datagen::{sharded_synthetic, synthetic, Distribution, ShardSkew};
use gir_query::{QueryVector, ScoringFunction};
use gir_rtree::{RTree, Record};
use gir_serve::{mixed_workload, GirServer, ServeStats, ServerConfig, WorkloadConfig};
use gir_shard::{Placement, ShardedDataset, ShardedGirServer, ShardedServerConfig};
use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_list(key: &str, default: &str) -> Vec<usize> {
    let raw = std::env::var(key).unwrap_or_else(|_| default.into());
    let parsed: Vec<usize> = raw
        .split(',')
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    if parsed.is_empty() {
        default.split(',').filter_map(|t| t.parse().ok()).collect()
    } else {
        parsed
    }
}

/// Replays `traffic` against a fresh sharded server.
fn replay_sharded(
    data: &[Record],
    d: usize,
    shards: usize,
    placement: Placement,
    traffic: &[gir_serve::TrafficBatch],
) -> ServeStats {
    let server = ShardedGirServer::build(
        d,
        data,
        ScoringFunction::linear(d),
        ShardedServerConfig {
            threads: 1,
            data_shards: shards,
            placement,
            ..ShardedServerConfig::default()
        },
    )
    .expect("sharded build");
    gir_bench::replay(&server, traffic).0
}

/// Replays `traffic` against a fresh single-tree server (the oracle
/// configuration of `serve_throughput`).
fn replay_single(data: &[Record], d: usize, traffic: &[gir_serve::TrafficBatch]) -> ServeStats {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    let tree = RTree::bulk_load(store, data).expect("bulk load");
    let server = GirServer::new(
        tree,
        ScoringFunction::linear(d),
        ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        },
    );
    gir_bench::replay(&server, traffic).0
}

fn json_row(
    n: usize,
    shards: usize,
    mode: &str,
    placement: &str,
    workload: &str,
    stats: &ServeStats,
) -> String {
    format!(
        "{{\"threads\":1,\"n\":{n},\"shards\":{shards},\"mode\":\"{mode}\",\
         \"placement\":\"{placement}\",\"workload\":\"{workload}\",\"stats\":{}}}",
        stats.to_json()
    )
}

fn main() {
    let d = 3;
    let n = env_usize("GIR_N", 20_000);
    let total_queries = env_usize("GIR_SHARD_QUERIES", 12_000);
    let seed = env_u64("GIR_SEED", 0xBE7C);
    let shard_counts = env_list("GIR_SHARDS", "1,2,4,8");
    let k = 10usize;

    println!(
        "shard scaling  (IND, n={n}, d={d}, k={k}, FP, seed {seed}; shards {shard_counts:?})\n"
    );
    // Sequential sections first, with the pool pinned off so the
    // latency and `sharded_s{s}` rows stay comparable with the
    // pre-fan-out baselines. The parallel pass below lifts the pin.
    stealpool::configure_threads(0);
    let data = synthetic(Distribution::Independent, n, d, seed.wrapping_add(1));
    let skewed = sharded_synthetic(
        Distribution::Independent,
        n,
        d,
        seed.wrapping_add(1),
        4,
        ShardSkew::HotBand { band: 3, mass: 0.7 },
    );
    let scoring = ScoringFunction::linear(d);
    let q = QueryVector::new(vec![0.55, 0.6, 0.45]);

    // ---- per-query GIR latency -------------------------------------
    let mut c = Criterion::default()
        .sample_size(12)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, &data).expect("bulk load");
        let index = gir_core::PruneIndex::new();
        let engine = gir_core::GirEngine::new(&tree);
        let _ = engine
            .gir_indexed(&q, k, Method::FacetPruning, &index)
            .expect("warm");
        c.bench_function(&format!("gir/single/n{n}"), |b| {
            b.iter(|| {
                engine
                    .gir_indexed(&q, k, Method::FacetPruning, &index)
                    .expect("gir")
                    .stats
                    .candidates
            })
        });
    }
    for &s in &shard_counts {
        let sharded = ShardedDataset::build(d, &data, s, Placement::Hash).expect("build");
        let _ = sharded
            .gir(&scoring, &q, k, Method::FacetPruning)
            .expect("warm");
        c.bench_function(&format!("gir/hash_s{s}/n{n}"), |b| {
            b.iter(|| {
                sharded
                    .gir(&scoring, &q, k, Method::FacetPruning)
                    .expect("gir")
                    .stats
                    .candidates
            })
        });
    }
    {
        // Grid placement over hot-band skew: one shard holds ~70% of
        // the records; the merge and intersection must stay correct
        // and the cost tracks the hot shard.
        let sharded = ShardedDataset::build(d, &skewed, 4, Placement::Grid).expect("build");
        println!("skewed grid occupancy: {:?}", sharded.occupancy());
        let _ = sharded
            .gir(&scoring, &q, k, Method::FacetPruning)
            .expect("warm");
        c.bench_function(&format!("gir/grid_skew_s4/n{n}"), |b| {
            b.iter(|| {
                sharded
                    .gir(&scoring, &q, k, Method::FacetPruning)
                    .expect("gir")
                    .stats
                    .candidates
            })
        });
    }

    // ---- serving throughput ----------------------------------------
    let batches = 24usize;
    let wl = WorkloadConfig {
        dim: d,
        anchors: 24,
        jitter: 0.02,
        batches,
        queries_per_batch: total_queries.div_ceil(batches),
        updates_per_batch: (total_queries.div_ceil(batches) * 12).div_ceil(100),
        insert_fraction: 0.5,
        insert_hot_fraction: 0.6,
        delete_hot_fraction: 0.8,
        k_choices: vec![5, 10, 20],
        seed,
    };
    let traffic = mixed_workload(&wl, &data);
    let queries = wl.queries_per_batch * batches;
    let updates = wl.updates_per_batch * batches;
    println!(
        "\nserving: {queries} queries + {updates} updates (mixed hot churn), 1 thread, \
         single tree vs sharded\n"
    );

    let mut rows: Vec<String> = Vec::new();
    let mut seq_qps: Vec<(usize, f64)> = Vec::new();
    let mut gate_failed = false;
    let single = replay_single(&data, d, &traffic);
    println!(
        "  single        {:>8.0} qps  {:>5.1}% hit  p99 {:>5} µs",
        single.qps,
        single.hit_rate() * 100.0,
        single.p99_us
    );
    rows.push(json_row(n, 1, "single", "-", "mixed", &single));

    for &s in &shard_counts {
        let agg = replay_sharded(&data, d, s, Placement::Hash, &traffic);
        let ratio = agg.qps / single.qps;
        println!(
            "  sharded s={s:<2}  {:>8.0} qps  {:>5.1}% hit  p99 {:>5} µs  ({ratio:.2}x single)",
            agg.qps,
            agg.hit_rate() * 100.0,
            agg.p99_us
        );
        rows.push(json_row(
            n,
            s,
            &format!("sharded_s{s}"),
            "hash",
            "mixed",
            &agg,
        ));
        seq_qps.push((s, agg.qps));
        if s == 1 && agg.qps < 0.90 * single.qps {
            eprintln!(
                "shard gate: sharded S=1 qps {:.0} below 90% of single-tree {:.0} — \
                 the merge layer is not free",
                agg.qps, single.qps
            );
            // Tiny runs are noise-dominated: warn, don't gate.
            gate_failed = queries >= 2000;
        }
    }
    {
        let skew_traffic = mixed_workload(&wl, &skewed);
        let agg = replay_sharded(&skewed, d, 4, Placement::Grid, &skew_traffic);
        println!(
            "  grid skew s=4 {:>8.0} qps  {:>5.1}% hit  p99 {:>5} µs  (hot-band occupancy)",
            agg.qps,
            agg.hit_rate() * 100.0,
            agg.p99_us
        );
        rows.push(json_row(n, 4, "sharded_skew_s4", "grid", "mixed", &agg));
    }

    // ---- parallel fan-out pass -------------------------------------
    // Same traffic, same shard counts, pool restored to the default
    // policy (GIR_POOL_THREADS / available_parallelism). On ≥2 cores
    // the per-shard Phase-2 sweeps and batch maintenance fan out
    // across the work-stealing pool; results are bit-identical either
    // way (tests/pool_differential.rs), only the wall clock moves.
    stealpool::reset_threads();
    let pool_threads = stealpool::effective_threads();
    println!(
        "\n  parallel pass: pool policy {} thread(s){}",
        pool_threads,
        if pool_threads >= 2 {
            ""
        } else {
            " — inline sequential on this machine (par rows measure fan-out overhead only)"
        }
    );
    for &s in &shard_counts {
        let agg = replay_sharded(&data, d, s, Placement::Hash, &traffic);
        let seq = seq_qps
            .iter()
            .find(|(sc, _)| *sc == s)
            .map(|(_, q)| *q)
            .unwrap_or(agg.qps);
        println!(
            "  par s={s:<2}      {:>8.0} qps  {:>5.1}% hit  p99 {:>5} µs  ({:.2}x sequential)",
            agg.qps,
            agg.hit_rate() * 100.0,
            agg.p99_us,
            agg.qps / seq.max(1e-9),
        );
        rows.push(json_row(
            n,
            s,
            &format!("sharded_par_s{s}"),
            "hash",
            "mixed",
            &agg,
        ));
    }

    // Machine-readable artifact: serving rows first, then the latency
    // summaries (same schema as BENCH_cold_gir rows).
    for s in c.summaries() {
        let s: &BenchSummary = s;
        rows.push(format!(
            "{{\"bench\":\"{}\",\"mean_ns\":{:.0},\"stddev_ns\":{:.0},\"samples\":{}}}",
            s.id, s.mean_ns, s.stddev_ns, s.samples
        ));
    }
    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    let path = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../../BENCH_shard.json"),
        Err(_) => std::path::PathBuf::from("BENCH_shard.json"),
    };
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
    if gate_failed {
        eprintln!("shard gate: FAIL (S=1 must stay within 10% of the single tree)");
        std::process::exit(1);
    }
}

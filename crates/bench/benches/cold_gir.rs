//! Cold (cache-miss) `compute_gir` cost across Method × n × d.
//!
//! Tracks the absolute cost of one from-scratch GIR computation — BRS
//! top-k + Phase 1 + Phase 2 — for every Phase-2 method over a small
//! dataset grid, in three flavours:
//!
//! * `cold/…` — the per-query path (`GirEngine::gir`), nothing shared;
//! * `indexed_recompute/…` — the prune-index path with skyline, hull
//!   and tree mirror warm but the shared Phase-2 system dropped before
//!   every call: the cost of a miss whose result set was never seen;
//! * `indexed_reuse/…` — the steady serving state, where the result
//!   set recurs and the shared Phase-2 system is reused verbatim;
//! * `planner/…` — the adaptive miss-path dispatch end to end: per
//!   call, a `gir_core::plan::Planner` picks the path from its
//!   measured cost model, the chosen path runs, and the observed
//!   latency feeds back. Warm-up absorbs the bounded exploration
//!   probes, so the row records the steady state the serve layer
//!   reaches; `perf_gate --require-planner-win` holds it to ≤1.10× the
//!   best static row per cell and strictly below `indexed_recompute`
//!   at every d = 4 cell;
//! * `mirror/…` — one `TreeMirror::build` (and drop) over the loaded
//!   tree, the price of the decoded tree a miss pays after every update
//!   batch; `perf_gate --require-cheap-mirror` holds it to ≤2× the same
//!   cell's `indexed_reuse/FP` row.
//!
//! Results go to stdout (criterion table) and to `BENCH_cold_gir.json`
//! at the workspace root, which CI uploads as a workflow artifact
//! alongside `BENCH_serve.json` so the cold-path trajectory is
//! recorded per run. Each JSON row carries `topk_pages` (BRS node
//! accesses — the paper's Figure 15/18 I/O cost metric) and
//! `gir_pages` (Phase-2 page fetches) alongside the wall-clock
//! columns, probed once per configuration outside the timing loop.
//!
//! Knobs: `GIR_COLD_NS` (comma-separated dataset sizes, default
//! "2000,8000"), `GIR_COLD_DS` (dimensionalities, default "2,3,4"),
//! `GIR_SEED`.

use criterion::{BenchSummary, Criterion};
use gir_core::plan::{MissPath, PlanInputs, Planner};
use gir_core::{GirEngine, Method, PruneIndex, RegionKind, ShardView, TreeMirror};
use gir_datagen::{synthetic, Distribution};
use gir_query::QueryVector;
use gir_rtree::RTree;
use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

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

fn main() {
    let seed: u64 = std::env::var("GIR_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xBE7C);
    let ns = env_list("GIR_COLD_NS", "2000,8000");
    let ds = env_list("GIR_COLD_DS", "2,3,4");
    let k = 10usize;
    let methods = [
        Method::SkylinePruning,
        Method::ConvexHullPruning,
        Method::FacetPruning,
    ];

    // 60 samples stretch each row's timing window to ≥60 ms and give
    // the stub's outlier trim (top/bottom sixth) room to drop whole
    // scheduler bursts — the planner-win gate compares rows at a 1.10x
    // tolerance, tighter than what a ~20 ms window can resolve on
    // shared hardware.
    let mut c = Criterion::default()
        .sample_size(60)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(600));

    println!("cold compute_gir  (IND, k={k}, seed {seed}; per-call wall clock)\n");
    // Per-bench logical page counts — `topk_pages` is the BRS tree's
    // node-access count (the paper's Figure 15/18 cost metric),
    // `gir_pages` Phase 2's. Deterministic per configuration, so one
    // un-timed probe call per bench id records them for the JSON rows.
    let mut pages: HashMap<String, (u64, u64)> = HashMap::new();
    for &n in &ns {
        for &d in &ds {
            let data = synthetic(Distribution::Independent, n, d, seed.wrapping_add(1));
            let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
            let tree = RTree::bulk_load(store, &data).expect("bulk load");
            let engine = GirEngine::new(&tree);
            let index = PruneIndex::new();
            let w: Vec<f64> = (0..d).map(|i| 0.45 + 0.1 * (i as f64 % 3.0)).collect();
            let q = QueryVector::new(w);
            // Warm the shared index once (steady serving state).
            let _ = engine
                .gir_indexed(&q, k, Method::FacetPruning, &index)
                .expect("warm");
            c.bench_function(&format!("mirror/n{n}/d{d}"), |b| {
                b.iter(|| TreeMirror::build(&tree).expect("mirror").num_records())
            });
            for m in methods {
                let cold_id = format!("cold/{}/n{n}/d{d}", m.label());
                let st = engine.gir(&q, k, m).expect("gir").stats;
                pages.insert(cold_id.clone(), (st.topk_pages, st.gir_pages));
                c.bench_function(&cold_id, |b| {
                    b.iter(|| engine.gir(&q, k, m).expect("gir").stats.candidates)
                });

                let recompute_id = format!("indexed_recompute/{}/n{n}/d{d}", m.label());
                index.clear_phase2();
                let st = engine.gir_indexed(&q, k, m, &index).expect("probe").stats;
                pages.insert(recompute_id.clone(), (st.topk_pages, st.gir_pages));
                c.bench_function(&recompute_id, |b| {
                    b.iter(|| {
                        index.clear_phase2();
                        engine
                            .gir_indexed(&q, k, m, &index)
                            .expect("gir_indexed")
                            .stats
                            .candidates
                    })
                });

                // The recompute bench's last iteration left the shared
                // Phase-2 system warm — exactly the reuse state.
                let reuse_id = format!("indexed_reuse/{}/n{n}/d{d}", m.label());
                let st = engine.gir_indexed(&q, k, m, &index).expect("probe").stats;
                pages.insert(reuse_id.clone(), (st.topk_pages, st.gir_pages));
                c.bench_function(&reuse_id, |b| {
                    b.iter(|| {
                        engine
                            .gir_indexed(&q, k, m, &index)
                            .expect("gir_indexed")
                            .stats
                            .candidates
                    })
                });

                // The adaptive dispatch, as the serve layer runs it on
                // every miss: plan → dispatch → observe.
                let planner_id = format!("planner/{}/n{n}/d{d}", m.label());
                let planner = Planner::new();
                let st = engine.gir_indexed(&q, k, m, &index).expect("probe").stats;
                pages.insert(planner_id.clone(), (st.topk_pages, st.gir_pages));
                // The skyline is static between bench iterations; probe
                // it once so the per-iteration loop pays only what the
                // serve layer's miss path pays.
                let skyline = index.stats().skyline_size;
                c.bench_function(&planner_id, |b| {
                    b.iter(|| {
                        let inputs = PlanInputs {
                            n,
                            d,
                            method: m,
                            kind: RegionKind::Gir,
                            skyline,
                            index_built: index.is_built(),
                            shards: 1,
                        };
                        let decision = planner.plan(&inputs);
                        let h0 = (decision.path != MissPath::Cold).then(|| index.phase2_hits());
                        let t0 = std::time::Instant::now();
                        let out = match decision.path {
                            MissPath::Cold => engine.gir(&q, k, m),
                            MissPath::Sharded => GirEngine::gir_sharded(
                                &[ShardView {
                                    tree: &tree,
                                    index: &index,
                                }],
                                engine.scoring(),
                                &q,
                                k,
                                m,
                            ),
                            _ => engine.gir_indexed(&q, k, m, &index),
                        }
                        .expect("planned dispatch")
                        .stats
                        .candidates;
                        let actual = t0.elapsed().as_nanos() as u64;
                        let reused = h0.map(|h| index.phase2_hits() > h);
                        planner.observe(&decision, actual, reused);
                        out
                    })
                });
            }
        }
    }

    // Machine-readable artifact alongside BENCH_serve.json.
    let rows: Vec<String> = c
        .summaries()
        .iter()
        .map(|s: &BenchSummary| {
            let (topk_pages, gir_pages) = pages.get(&s.id).copied().unwrap_or((0, 0));
            format!(
                "{{\"bench\":\"{}\",\"mean_ns\":{:.0},\"stddev_ns\":{:.0},\"samples\":{},\
                 \"topk_pages\":{topk_pages},\"gir_pages\":{gir_pages}}}",
                s.id, s.mean_ns, s.stddev_ns, s.samples
            )
        })
        .collect();
    let json = format!("[\n  {}\n]\n", rows.join(",\n  "));
    let path = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => std::path::Path::new(&dir).join("../../BENCH_cold_gir.json"),
        Err(_) => std::path::PathBuf::from("BENCH_cold_gir.json"),
    };
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(json.as_bytes())) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}

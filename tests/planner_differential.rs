//! The planner differential harness: the adaptive miss-path planner
//! must be **invisible in results** — it may only change *when* work
//! happens, never *what* comes back.
//!
//! Two tiers:
//!
//! * Engine level: for every Phase-2 method × region kind, the three
//!   dispatchable plans over one dataset — cold (`GirEngine::gir`),
//!   indexed (`gir_indexed`), and the degenerate one-view sharded
//!   fan-out — return the same ranked ids with **bit-identical score
//!   patterns**, and (for SP) the same half-space *set*: normals,
//!   offsets and facet provenance bitwise-equal, only the enumeration
//!   order free (tree traversal vs skyline-mirror order). CP's hull
//!   snapshot and FP's reduced facet set come from path-dependent
//!   candidate snapshots, so they are held to the established standard
//!   of the prune-index/shard differentials: point-set equivalence
//!   under sampled membership with boundary tolerance. The reuse
//!   dispatch (second indexed call) must be fully bit-identical to the
//!   recompute, order included. This includes the
//!   d ∈ {5, 6} planner-stress mixes where the paths' costs diverge the
//!   most.
//! * Serve level (proptest): a planner-dispatched server and four
//!   `force_path` oracle servers replay identical Zipf-skewed traffic
//!   interleaved with skyline-targeted churn bursts
//!   (`gir_datagen::planner_stress`) and must produce identical
//!   responses at every step, for S ∈ {1, 4}. At S = 1 every forced
//!   server is pinned to its path; at S = 4 only the sharded plan is
//!   feasible and infeasible forces must fall back (counted, not
//!   crashed).

use gir::core::{GirEngine, GirOutput, Method, PruneIndex, RegionKind, ShardView};
use gir::datagen::planner_stress::{high_d_mix, skyline_churn, zipfian_queries, ChurnOp};
use gir::prelude::*;
use gir::serve::MissPath;
use proptest::prelude::*;
use std::sync::Arc;

const METHODS: [Method; 3] = [
    Method::SkylinePruning,
    Method::ConvexHullPruning,
    Method::FacetPruning,
];

const KINDS: [RegionKind; 2] = [RegionKind::Gir, RegionKind::GirStar];

fn build_tree(recs: &[Record]) -> RTree {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    RTree::bulk_load(store, recs).unwrap()
}

/// Bitwise equality of two GIR outputs: ranked ids, score bit patterns,
/// the exact half-space sequence with facet provenance. Any divergence
/// between miss paths shows up here.
fn assert_bit_identical(a: &GirOutput, b: &GirOutput, label: &str) {
    assert_eq!(a.result.ids(), b.result.ids(), "{label}: ids diverged");
    let bits = |out: &GirOutput| -> Vec<u64> {
        out.result.ranked.iter().map(|(_, s)| s.to_bits()).collect()
    };
    assert_eq!(bits(a), bits(b), "{label}: score bits diverged");
    assert_eq!(
        a.region.halfspaces.len(),
        b.region.halfspaces.len(),
        "{label}: half-space count diverged"
    );
    for (i, (ha, hb)) in a
        .region
        .halfspaces
        .iter()
        .zip(&b.region.halfspaces)
        .enumerate()
    {
        assert_eq!(
            ha.provenance, hb.provenance,
            "{label}: provenance diverged at half-space {i}"
        );
        assert_eq!(
            ha.offset.to_bits(),
            hb.offset.to_bits(),
            "{label}: offset bits diverged at half-space {i}"
        );
        let na: Vec<u64> = ha.normal.coords().iter().map(|c| c.to_bits()).collect();
        let nb: Vec<u64> = hb.normal.coords().iter().map(|c| c.to_bits()).collect();
        assert_eq!(na, nb, "{label}: normal bits diverged at half-space {i}");
    }
}

/// Canonical halfspace encoding: `(provenance, offset bits, normal
/// bits)`, sorted — equality means the same boundary set regardless of
/// which order the dispatch enumerated it in.
fn canonical_halfspaces(out: &GirOutput) -> Vec<(String, u64, Vec<u64>)> {
    let mut v: Vec<(String, u64, Vec<u64>)> = out
        .region
        .halfspaces
        .iter()
        .map(|h| {
            (
                format!("{:?}", h.provenance),
                h.offset.to_bits(),
                h.normal.coords().iter().map(|c| c.to_bits()).collect(),
            )
        })
        .collect();
    v.sort();
    v
}

/// Sampled point-set equivalence with boundary tolerance (the CP
/// standard from the prune-index differential): membership may only
/// disagree within 1e-6 of some boundary facet.
fn assert_regions_equivalent(a: &GirOutput, b: &GirOutput, d: usize, seed: &mut u64, label: &str) {
    for _ in 0..40 {
        let wp = PointD::from(
            (0..d)
                .map(|_| {
                    *seed ^= *seed << 13;
                    *seed ^= *seed >> 7;
                    *seed ^= *seed << 17;
                    (*seed >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect::<Vec<f64>>(),
        );
        if a.region.contains(&wp) != b.region.contains(&wp) {
            let margin: f64 = a
                .region
                .halfspaces
                .iter()
                .chain(&b.region.halfspaces)
                .map(|h| h.slack(&wp))
                .fold(f64::INFINITY, |acc, v| acc.min(v.abs()));
            assert!(
                margin < 1e-6,
                "{label}: regions disagree at {wp:?} (margin {margin})"
            );
        }
    }
}

/// Computes one query through each dispatchable plan and demands
/// agreement. The indexed plan runs twice (recompute, then a second
/// call that may reuse the shared Phase-2 system) so both indexed
/// labels are covered.
fn check_paths_agree(
    tree: &RTree,
    scoring: &ScoringFunction,
    q: &QueryVector,
    k: usize,
    method: Method,
    kind: RegionKind,
    label: &str,
) {
    let engine = GirEngine::with_scoring(tree, scoring.clone());
    let index = PruneIndex::new();
    let run_cold = || match kind {
        RegionKind::Gir => engine.gir(q, k, method),
        RegionKind::GirStar => engine.gir_star(q, k, method),
    };
    let run_indexed = || match kind {
        RegionKind::Gir => engine.gir_indexed(q, k, method, &index),
        RegionKind::GirStar => engine.gir_star_indexed(q, k, method, &index),
    };
    let run_sharded = || {
        let view = ShardView {
            tree,
            index: &index,
        };
        match kind {
            RegionKind::Gir => GirEngine::gir_sharded(&[view], scoring, q, k, method),
            RegionKind::GirStar => GirEngine::gir_star_sharded(&[view], scoring, q, k, method),
        }
    };
    let cold = run_cold().unwrap();
    let recompute = run_indexed().unwrap();
    let reuse = run_indexed().unwrap();
    let sharded = run_sharded().unwrap();

    // Ranked ids and score bits: exact on every path, every method.
    let scores = |out: &GirOutput| -> Vec<(u64, u64)> {
        out.result
            .ranked
            .iter()
            .map(|(r, s)| (r.id, s.to_bits()))
            .collect()
    };
    for (alt, name) in [
        (&recompute, "indexed_recompute"),
        (&reuse, "indexed_reuse"),
        (&sharded, "sharded"),
    ] {
        assert_eq!(
            scores(&cold),
            scores(alt),
            "{label}/{name}: ranked (id, score-bits) diverged"
        );
    }
    // Recompute vs reuse share one dispatch: fully bit-identical,
    // half-space order included.
    assert_bit_identical(&recompute, &reuse, &format!("{label}/reuse-vs-recompute"));

    match method {
        Method::SkylinePruning => {
            // SP: one half-space per pruned candidate, no reduction —
            // the same set, bit for bit.
            let base = canonical_halfspaces(&cold);
            assert_eq!(
                base,
                canonical_halfspaces(&recompute),
                "{label}/indexed: half-space set diverged"
            );
            assert_eq!(
                base,
                canonical_halfspaces(&sharded),
                "{label}/sharded: half-space set diverged"
            );
        }
        _ => {
            // CP / FP reduce the boundary from path-dependent candidate
            // snapshots (hull of the index's skyline mirror, tie-graze
            // facet drops): syntactic sets may differ, the region may
            // not.
            let mut seed = 0x5EED_0001u64 | 1;
            assert_regions_equivalent(
                &cold,
                &recompute,
                scoring.dim(),
                &mut seed,
                &format!("{label}/indexed"),
            );
            assert_regions_equivalent(
                &cold,
                &sharded,
                scoring.dim(),
                &mut seed,
                &format!("{label}/sharded"),
            );
        }
    }
}

#[test]
fn every_miss_path_is_bit_identical_at_the_engine_level() {
    let d = 3;
    let data = gir::datagen::synthetic(gir::datagen::Distribution::Anticorrelated, 500, d, 21);
    let tree = build_tree(&data);
    let scoring = ScoringFunction::linear(d);
    for q in zipfian_queries(4, d, 4, 1.1, 0.01, 0.05, 33) {
        let qv = QueryVector::new(q.coords().to_vec());
        for method in METHODS {
            for kind in KINDS {
                for k in [1usize, 6] {
                    check_paths_agree(
                        &tree,
                        &scoring,
                        &qv,
                        k,
                        method,
                        kind,
                        &format!("{}/{} k={k}", method.label(), kind.label()),
                    );
                }
            }
        }
    }
}

#[test]
fn high_d_mixes_keep_the_paths_bit_identical() {
    // d ∈ {5, 6}: the regime where the planner's choice matters most
    // (the cold path overtakes the indexed recompute past d = 4), so
    // result equivalence must hold exactly where dispatch varies.
    for mix in high_d_mix(220, 3, 17) {
        let tree = build_tree(&mix.data);
        let scoring = ScoringFunction::linear(mix.d);
        for (qi, q) in mix.queries.iter().enumerate() {
            let qv = QueryVector::new(q.coords().to_vec());
            for kind in KINDS {
                check_paths_agree(
                    &tree,
                    &scoring,
                    &qv,
                    4,
                    Method::SkylinePruning,
                    kind,
                    &format!("d={} {} q={qi} {}", mix.d, mix.dist.label(), kind.label()),
                );
            }
        }
    }
}

/// Converts one churn burst into serve-layer updates.
fn burst_updates(burst: &[ChurnOp]) -> Vec<Update> {
    burst
        .iter()
        .map(|op| match op {
            ChurnOp::Delete(r) => Update::Delete {
                id: r.id,
                attrs: r.attrs.clone(),
            },
            ChurnOp::Reinsert(r) => Update::Insert(r.clone()),
        })
        .collect()
}

/// Replays Zipf traffic + skyline churn through one adaptive and four
/// forced single-tree servers in lockstep; every response must agree.
fn check_single_tree_servers_agree(seed: u64, method: Method, kind: RegionKind) {
    let d = 3;
    let data = gir::datagen::synthetic(gir::datagen::Distribution::Independent, 400, d, seed);
    let cfg = |force: Option<MissPath>| ServerConfig {
        threads: 1,
        shards: 4,
        shard_capacity: 32,
        method,
        force_path: force,
        ..ServerConfig::default()
    };
    let scoring = ScoringFunction::linear(d);
    let adaptive = GirServer::new(build_tree(&data), scoring.clone(), cfg(None));
    let forced: Vec<(MissPath, GirServer)> = MissPath::ALL
        .into_iter()
        .map(|p| {
            (
                p,
                GirServer::new(build_tree(&data), scoring.clone(), cfg(Some(p))),
            )
        })
        .collect();

    let queries = zipfian_queries(48, d, 6, 1.2, 0.015, 0.05, seed ^ 0xA11CE);
    let bursts = skyline_churn(&data, 2, 3, seed ^ 0xC0FFEE);
    // Three rounds: queries, churn + queries, churn + queries.
    for (round, chunk) in queries.chunks(16).enumerate() {
        if round > 0 {
            let updates = burst_updates(&bursts[round - 1]);
            let base = adaptive.apply_updates(&updates).unwrap();
            for (p, srv) in &forced {
                let got = srv.apply_updates(&updates).unwrap();
                assert_eq!(
                    base,
                    got,
                    "round {round}: UpdateReport diverged vs {}",
                    p.label()
                );
            }
        }
        let reqs: Vec<TopKRequest> = chunk
            .iter()
            .enumerate()
            .map(|(i, w)| {
                TopKRequest::new(w.coords().to_vec(), if i % 2 == 0 { 5 } else { 10 }).kind(kind)
            })
            .collect();
        let base = adaptive.run_batch(&reqs);
        for (p, srv) in &forced {
            let got = srv.run_batch(&reqs);
            for (i, (ra, rb)) in base.responses.iter().zip(&got.responses).enumerate() {
                assert_eq!(
                    ra.ids,
                    rb.ids,
                    "round {round} req {i}: planner vs forced {} ids diverged",
                    p.label()
                );
                assert_eq!(
                    ra.from_cache,
                    rb.from_cache,
                    "round {round} req {i}: cache behavior diverged vs {}",
                    p.label()
                );
            }
        }
    }

    // Every forced server dispatched exclusively on its pinned path, and
    // the adaptive planner actually made decisions.
    for (p, srv) in &forced {
        assert_eq!(srv.forced_path(), Some(*p));
        let stats = srv.planner_stats();
        let idx = MissPath::ALL.iter().position(|x| x == p).unwrap();
        assert_eq!(
            stats.by_path[idx],
            stats.decisions,
            "{}: forced server strayed off its path",
            p.label()
        );
        assert_eq!(
            stats.forced_infeasible,
            0,
            "{}: feasible on one tree",
            p.label()
        );
    }
    let stats = adaptive.planner_stats();
    assert!(stats.decisions > 0, "adaptive planner never consulted");
    assert_eq!(stats.forced, 0);
}

/// Same lockstep replay over the partitioned server at S = 4: only the
/// sharded plan is feasible, so every force must fall back to it and
/// the responses must still be identical.
fn check_sharded_servers_agree(seed: u64, method: Method, kind: RegionKind) {
    let d = 3;
    let data = gir::datagen::synthetic(gir::datagen::Distribution::Independent, 600, d, seed);
    let cfg = |force: Option<MissPath>| ShardedServerConfig {
        threads: 1,
        data_shards: 4,
        placement: Placement::Hash,
        method,
        force_path: force,
        ..ShardedServerConfig::default()
    };
    let scoring = ScoringFunction::linear(d);
    let adaptive = ShardedGirServer::build(d, &data, scoring.clone(), cfg(None)).unwrap();
    let forced: Vec<(MissPath, ShardedGirServer)> = MissPath::ALL
        .into_iter()
        .map(|p| {
            (
                p,
                ShardedGirServer::build(d, &data, scoring.clone(), cfg(Some(p))).unwrap(),
            )
        })
        .collect();

    let queries = zipfian_queries(32, d, 5, 1.2, 0.015, 0.05, seed ^ 0x5AAD);
    let bursts = skyline_churn(&data, 1, 3, seed ^ 0xFACADE);
    for (round, chunk) in queries.chunks(16).enumerate() {
        if round > 0 {
            let updates = burst_updates(&bursts[round - 1]);
            adaptive.apply_updates(&updates).unwrap();
            for (_, srv) in &forced {
                srv.apply_updates(&updates).unwrap();
            }
        }
        let reqs: Vec<TopKRequest> = chunk
            .iter()
            .map(|w| TopKRequest::new(w.coords().to_vec(), 6).kind(kind))
            .collect();
        let base = adaptive.run_batch(&reqs);
        for (p, srv) in &forced {
            let got = srv.run_batch(&reqs);
            for (i, (ra, rb)) in base.responses.iter().zip(&got.responses).enumerate() {
                assert_eq!(
                    ra.ids,
                    rb.ids,
                    "S=4 round {round} req {i}: vs forced {}",
                    p.label()
                );
            }
        }
    }

    let sharded_idx = MissPath::ALL
        .iter()
        .position(|x| *x == MissPath::Sharded)
        .unwrap();
    for (p, srv) in &forced {
        let stats = srv.planner_stats();
        assert_eq!(
            stats.by_path[sharded_idx],
            stats.decisions,
            "S=4: every dispatch must be sharded (forced {})",
            p.label()
        );
        if *p == MissPath::Sharded {
            assert_eq!(stats.forced, stats.decisions);
        } else {
            // The pin is infeasible over a real partition: counted and
            // overridden, never honored and never fatal.
            assert_eq!(stats.forced, 0, "forced {}", p.label());
            assert_eq!(
                stats.forced_infeasible,
                stats.decisions,
                "forced {}",
                p.label()
            );
        }
    }
    let stats = adaptive.planner_stats();
    assert_eq!(stats.by_path[sharded_idx], stats.decisions);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// S = 1: planner-dispatched ≡ every `force_path` oracle, responses
    /// and cache behavior, across methods × kinds × Zipf/churn traffic.
    #[test]
    fn planner_matches_every_forced_oracle_on_one_tree(
        seed in 1u64..1 << 40,
        mi in 0usize..3,
        ki in 0usize..2,
    ) {
        check_single_tree_servers_agree(seed, METHODS[mi], KINDS[ki]);
    }

    /// S = 4: the partitioned server is sharded-only; forces fall back.
    #[test]
    fn planner_matches_every_forced_oracle_across_shards(
        seed in 1u64..1 << 40,
        mi in 0usize..3,
        ki in 0usize..2,
    ) {
        check_sharded_servers_agree(seed, METHODS[mi], KINDS[ki]);
    }
}

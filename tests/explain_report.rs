//! End-to-end EXPLAIN coverage (`TopKRequest::explain`): for every
//! miss path — **cold** (forced), **indexed-recompute** (shared
//! Phase-2 system empty), **indexed-reuse** (entry evicted from the
//! cache but its Phase-2 system still warm), and **sharded** — and both
//! region kinds (GIR / GIR\*), the captured span tree must break the
//! request down into phases whose durations account for the end-to-end
//! latency within 10%, and the work counters (LP calls, BRS traversal,
//! pages) must be live where the path implies them.

use gir::obs::ExplainReport;
use gir::prelude::*;
use gir::serve::{MissPath, RegionKind, TopKResponse};
use std::sync::Arc;

const D: usize = 3;
const K: usize = 10;

fn dataset(n: usize) -> Vec<Record> {
    gir::datagen::synthetic(Distribution::Independent, n, D, 0x5EED)
}

fn server(data: &[Record], force_path: Option<MissPath>, shard_capacity: usize) -> GirServer {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    let tree = RTree::bulk_load(store, data).expect("bulk load");
    GirServer::new(
        tree,
        ScoringFunction::linear(D),
        ServerConfig {
            threads: 1,
            shards: 1,
            shard_capacity,
            force_path,
            ..ServerConfig::default()
        },
    )
}

fn request(kind: RegionKind, w: &[f64]) -> TopKRequest {
    TopKRequest::new(w.to_vec(), K).kind(kind).explain()
}

const KINDS: [RegionKind; 2] = [RegionKind::Gir, RegionKind::GirStar];

/// The acceptance check: a miss response must carry a report whose
/// top-level phases (`cache_lookup` → `compute` → `admit`) cover the
/// measured end-to-end latency within 10% — the gap is only span
/// bookkeeping and response assembly, never untraced work.
fn assert_phases_cover_latency(resp: &TopKResponse, path: &str) -> ExplainReport {
    assert!(!resp.from_cache, "{path}: expected a miss");
    let report = resp
        .explain
        .as_ref()
        .unwrap_or_else(|| panic!("{path}: explain requested but absent"));
    assert_eq!(report.outcome, "miss", "{path}");
    assert_eq!(report.total_us, resp.latency_us, "{path}");
    let names: Vec<&str> = report.phases.iter().map(|(n, _)| *n).collect();
    assert!(names.contains(&"cache_lookup"), "{path}: phases {names:?}");
    assert!(names.contains(&"compute"), "{path}: phases {names:?}");
    let sum = report.phase_total_us();
    let diff = report.total_us.abs_diff(sum);
    // Phase durations truncate to whole µs, so three phases can
    // under-report by ~3µs before any real gap exists — a 4µs floor
    // keeps the 10% bound meaningful for the fastest misses (shared
    // Phase-2 reuse finishes in ~15µs) without loosening it elsewhere.
    let allowed = (report.total_us / 10).max(4);
    assert!(
        diff <= allowed,
        "{path}: phase sum {sum}µs vs end-to-end {}µs (off by {diff}µs > 10%)\n{}",
        report.total_us,
        report.to_text(),
    );
    report.clone()
}

#[test]
fn explain_covers_cold_miss_path() {
    let data = dataset(6_000);
    for kind in KINDS {
        let server = server(&data, Some(MissPath::Cold), 32);
        let out = server.run_batch(&[request(kind, &[0.55, 0.62, 0.48])]);
        let report = assert_phases_cover_latency(&out.responses[0], kind.label());
        // The cold path sweeps the real R*-tree twice (BRS top-k +
        // Phase 2), so page reads must show; ranked-GIR Phase 2 also
        // funnels through the LP (the star region is LP-free).
        assert!(report.pages > 0, "{}: no page reads traced", kind.label());
        if kind == RegionKind::Gir {
            assert!(report.lp_calls > 0, "no LP calls traced");
        }
        assert_eq!(out.responses[0].pages, report.pages, "{}", kind.label());
    }
}

#[test]
fn explain_covers_indexed_recompute_and_reuse_paths() {
    let data = dataset(6_000);
    let w = [0.55, 0.62, 0.48];
    for kind in KINDS {
        // shard_capacity 1: the decoy below evicts the first entry, so
        // re-asking the same weights is a genuine cache miss that finds
        // the shared Phase-2 system warm (same result set ⇒ reuse).
        let server = server(&data, None, 1);

        let out = server.run_batch(&[request(kind, &w)]);
        let recompute =
            assert_phases_cover_latency(&out.responses[0], &format!("{}/recompute", kind.label()));
        // The mirror BRS sweep reports its traversal through
        // `brs_visit` events — the paper's node-access cost metric.
        assert!(
            recompute.brs_nodes > 0 && recompute.brs_leaves > 0,
            "{}: mirror traversal not traced",
            kind.label()
        );

        let out = server.run_batch(&[request(kind, &[0.2, 0.3, 0.9])]);
        assert!(!out.responses[0].from_cache, "decoy should miss");

        let before = server.prune_stats().phase2_hits;
        let out = server.run_batch(&[request(kind, &w)]);
        assert_phases_cover_latency(&out.responses[0], &format!("{}/reuse", kind.label()));
        assert!(
            server.prune_stats().phase2_hits > before,
            "{}: repeat miss did not reuse the shared Phase-2 system",
            kind.label()
        );
    }
}

#[test]
fn explain_covers_sharded_miss_path() {
    let data = dataset(6_000);
    for kind in KINDS {
        let server = ShardedGirServer::build(
            D,
            &data,
            ScoringFunction::linear(D),
            ShardedServerConfig {
                threads: 1,
                data_shards: 4,
                placement: Placement::Hash,
                ..ShardedServerConfig::default()
            },
        )
        .expect("sharded build");
        let out = server.run_batch(&[request(kind, &[0.55, 0.62, 0.48])]);
        let report = assert_phases_cover_latency(&out.responses[0], kind.label());
        // The sharded plan stamps every per-shard span with its shard
        // id; the report's attribution must cover all 4 data shards.
        let mut shards: Vec<u64> = report.per_shard_us.iter().map(|(s, _)| *s).collect();
        shards.sort_unstable();
        assert_eq!(shards, vec![0, 1, 2, 3], "{}", kind.label());
    }
}

#[test]
fn hits_and_unrequested_responses_carry_no_report() {
    let data = dataset(2_000);
    let server = server(&data, None, 32);
    let plain = TopKRequest::new(vec![0.5, 0.5, 0.5], K);
    let out = server.run_batch(std::slice::from_ref(&plain));
    assert!(out.responses[0].explain.is_none(), "explain not requested");

    let out = server.run_batch(&[plain.explain()]);
    let resp = &out.responses[0];
    assert!(resp.from_cache, "repeat of the same weights must hit");
    let report = resp.explain.as_ref().expect("hit still explains");
    assert_eq!(report.outcome, "hit");
    // A hit never touches the tree: no pages, no LP, just the lookup.
    assert_eq!(report.pages, 0);
    assert_eq!(report.lp_calls, 0);
    assert!(report
        .phases
        .iter()
        .any(|(name, _)| *name == "cache_lookup"));
}

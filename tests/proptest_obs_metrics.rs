//! Metrics-under-churn: `GirServer::maintenance_snapshot` (the
//! epoch-stamped per-shard counter buffers of `gir_obs::ShardScopes`)
//! taken *concurrently* with `apply_updates` must be a consistent cut —
//! it never observes a shard mid-`DeltaBatch`.
//!
//! The torn-read detector is the `classified` slot: the serve layer
//! writes `classified = evicted + repaired + shrunk + untouched` inside
//! the same epoch bracket as the four parts, so any snapshot in which
//! the identity fails caught a shard half-way through a batch. On top
//! of that, per-shard epochs must be even and monotone under a
//! hammering reader, and the final totals must reconcile exactly with
//! the sum of every `UpdateReport` the writer collected.
//!
//! Shard counts S ∈ {1, 2, 4, 8} are all exercised per case
//! (`PROPTEST_CASES` scales the number of traffic seeds).

use gir::prelude::*;
use gir::serve::{mixed_workload, UpdateReport, WorkloadConfig, APPLY_SLOTS};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const D: usize = 3;

fn slot(name: &str) -> usize {
    APPLY_SLOTS
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("slot {name} missing from APPLY_SLOTS"))
}

fn build_server(data: &[Record], shards: usize) -> GirServer {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    let tree = RTree::bulk_load(store, data).expect("bulk load");
    GirServer::new(
        tree,
        ScoringFunction::linear(D),
        ServerConfig {
            threads: 2,
            shards,
            shard_capacity: 8,
            ..ServerConfig::default()
        },
    )
}

/// Runs one churn round on `shards` cache shards: a reader thread
/// hammers `maintenance_snapshot` while the main thread interleaves
/// query batches (admitting entries) with update batches (classifying
/// them), then reconciles the final counters against the reports.
fn churn_round(shards: usize, seed: u64) {
    let data = gir::datagen::synthetic(Distribution::Independent, 1_200, D, seed ^ 42);
    let server = Arc::new(build_server(&data, shards));
    let wl = WorkloadConfig {
        dim: D,
        anchors: 6,
        jitter: 0.015,
        batches: 4,
        queries_per_batch: 30,
        updates_per_batch: 12,
        insert_fraction: 0.5,
        insert_hot_fraction: 0.5,
        delete_hot_fraction: 0.5,
        k_choices: vec![5, 10],
        seed,
    };
    let traffic = mixed_workload(&wl, &data);

    let classified = slot("classified");
    let parts: Vec<usize> = ["evicted", "repaired", "shrunk", "untouched"]
        .iter()
        .map(|n| slot(n))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let parts = parts.clone();
        std::thread::spawn(move || {
            let mut reads = 0u64;
            let mut last_epochs = vec![0u64; shards];
            while !stop.load(Ordering::Relaxed) {
                let snap = server.maintenance_snapshot();
                assert_eq!(snap.shards.len(), shards);
                for (si, shard) in snap.shards.iter().enumerate() {
                    assert_eq!(shard.epoch % 2, 0, "shard {si}: odd epoch escaped");
                    assert!(
                        shard.epoch >= last_epochs[si],
                        "shard {si}: epoch went backwards"
                    );
                    last_epochs[si] = shard.epoch;
                    let sum: u64 = parts.iter().map(|&p| shard.values[p]).sum();
                    assert_eq!(
                        shard.values[classified], sum,
                        "shard {si}: torn batch — classified != evicted + \
                         repaired + shrunk + untouched in {snap:?}"
                    );
                }
                reads += 1;
            }
            reads
        })
    };

    let mut applied = UpdateReport::default();
    let mut batches_applied = 0u64;
    for batch in &traffic {
        // Queries first: admissions give the next delta batch live
        // entries to classify (evict / repair / shrink / keep).
        server.run_batch(&batch.queries);
        let report = server
            .apply_updates(&batch.updates)
            .expect("update batch applies");
        applied.evicted += report.evicted;
        applied.repaired += report.repaired;
        applied.shrunk += report.shrunk;
        applied.untouched += report.untouched;
        batches_applied += 1;
    }

    stop.store(true, Ordering::Relaxed);
    let reads = reader.join().expect("reader invariants hold");
    assert!(reads > 0, "reader never got a snapshot in");

    // Quiescent reconciliation: every apply_updates call brackets every
    // shard exactly once, and the slot totals must equal the sums the
    // writer saw in its reports — nothing lost, nothing double-counted.
    let snap = server.maintenance_snapshot();
    for (si, shard) in snap.shards.iter().enumerate() {
        assert_eq!(
            shard.batches(),
            batches_applied,
            "shard {si}: batch count drifted"
        );
    }
    let expect = |name: &str, v: usize| {
        assert_eq!(
            snap.total(name),
            Some(v as u64),
            "total {name} does not reconcile with the update reports: {snap:?}"
        );
    };
    expect("evicted", applied.evicted);
    expect("repaired", applied.repaired);
    expect("shrunk", applied.shrunk);
    expect("untouched", applied.untouched);
    expect(
        "classified",
        applied.evicted + applied.repaired + applied.shrunk + applied.untouched,
    );
}

proptest! {
    // Each case spawns threads and replays real traffic; keep the
    // default case count small (PROPTEST_CASES=N scales it up in CI).
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn maintenance_snapshots_are_consistent_under_churn(seed in 0u64..1_000) {
        for shards in [1usize, 2, 4, 8] {
            churn_round(shards, seed);
        }
    }
}

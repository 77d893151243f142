//! Rejoin from the last cut plus the batches since, against the
//! in-process oracle.
//!
//! A worker killed after a suffix that deletes a record of the cut and
//! deletes then re-inserts one id comes back with one `Load` (its shard
//! of the cut with the suffix folded in) and one `Apply` (the last
//! batch), and the cluster then holds the oracle's record multiset and
//! answers fresh queries with the oracle's ids.
//!
//! The `rpc.*` counters are process-global; this binary holds one test,
//! so its deltas are exact.

mod common;

use common::oracle::{dataset_key, probe_requests, records, report_key};
use common::rpc::{dist_cfg, inproc_cfg, kill_on_factory, remote_cfg};
use gir::core::ShardRequest;
use gir::obs::rpc::RpcCounters;
use gir::prelude::*;
use gir::rpc::{DistributedGirServer, DistributedServerConfig, RemoteConfig};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

#[test]
fn killed_shard_rejoins_from_the_cut_and_suffix_with_one_load_and_one_apply() {
    const S: usize = 4;
    let t = 2;
    let d = 3;
    let data = records(160, d, 0x2E30);
    let kills = Arc::new(AtomicU32::new(0));
    let dist = DistributedGirServer::launch(
        &data,
        ScoringFunction::linear(d),
        DistributedServerConfig {
            // No roll inside the test: the rejoin folds the whole suffix.
            remote: RemoteConfig {
                snapshot_every: 64,
                ..remote_cfg()
            },
            ..dist_cfg(S, Placement::Hash)
        },
        kill_on_factory(
            t,
            |req| matches!(req, ShardRequest::TopK { .. }),
            kills.clone(),
        ),
    )
    .unwrap();
    let oracle = ShardedGirServer::build(
        d,
        &data,
        ScoringFunction::linear(d),
        inproc_cfg(S, Placement::Hash),
    )
    .unwrap();

    // Two records of the cut on shard t. Hash placement reads only the
    // id, so the re-insert under new attributes lands on t again.
    let mut on_t = data
        .iter()
        .filter(|r| Placement::Hash.shard_of(r.id, &r.attrs, S) == t);
    let (gone, again) = (on_t.next().unwrap(), on_t.next().unwrap());
    let delete = |r: &Record| Update::Delete {
        id: r.id,
        attrs: r.attrs.clone(),
    };
    let fresh = |id: u64, x: f64| Update::Insert(Record::new(id, vec![x, 1.0 - x, 0.5]));
    let batches = [
        vec![delete(gone), fresh(5_000_000, 0.2), fresh(5_000_001, 0.7)],
        vec![delete(again), fresh(5_000_002, 0.4)],
        vec![
            Update::Insert(Record::new(again.id, vec![0.95, 0.9, 0.85])),
            fresh(5_000_003, 0.6),
        ],
        vec![fresh(5_000_004, 0.3), delete(gone)],
    ];
    for (i, b) in batches.iter().enumerate() {
        let r_d = dist.apply_updates(b).unwrap();
        let r_o = oracle.apply_updates(b).unwrap();
        assert_eq!(report_key(&r_d), report_key(&r_o), "batch {i} diverged");
    }

    // Shard t dies on the next top-k.
    kills.store(1, Ordering::SeqCst);
    let out = dist.run_batch(&probe_requests(&[vec![0.41, 0.33, 0.77]], 5)[..1]);
    assert!(
        out.responses[0].failed,
        "the killed shard must fail the miss"
    );
    assert_eq!(dist.dead_shards(), vec![t]);

    let c = RpcCounters::global();
    let (requests, rejoins) = (c.requests.get(), c.rejoins.get());
    assert_eq!(dist.rejoin_dead().unwrap(), 1);
    assert_eq!(
        (c.requests.get() - requests, c.rejoins.get() - rejoins),
        (2, 1),
        "a rejoin is one Load plus one Apply"
    );

    assert_eq!(
        dataset_key(dist.records_snapshot().unwrap()),
        dataset_key(oracle.records_snapshot().unwrap()),
        "record multiset diverged after the rejoin"
    );
    let probes = probe_requests(
        &[
            vec![0.9, 0.85, 0.8],
            vec![0.2, 0.5, 0.8],
            vec![0.7, 0.6, 0.1],
        ],
        5,
    );
    let got = dist.run_batch(&probes);
    let want = oracle.run_batch(&probes);
    for (i, (g, w)) in got.responses.iter().zip(&want.responses).enumerate() {
        assert!(!g.failed, "probe {i} failed after the rejoin");
        assert_eq!(g.ids, w.ids, "probe {i} ids diverged after the rejoin");
    }
    dist.shutdown();
}

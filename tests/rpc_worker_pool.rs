//! In-process shard workers and the work-stealing pool.
//!
//! A `ThreadEndpoint` worker is a plain thread that answers requests
//! sent from pool jobs (a multi-threaded batch serves each request as
//! one job). A caller outside the pool helps with *any* queued job while
//! its own fan-out drains, so a worker fanning out GIR\*'s per-star feed
//! could pick up a queued request that waits on the worker itself. This
//! binary serves a GIR\* batch through such workers on a forced
//! four-thread pool and fails, rather than hangs, if the batch stalls.

mod common;

use common::oracle::{records, xorshift_unit};
use common::rpc::{dist_cfg, inproc_cfg};
use gir::prelude::*;
use gir::rpc::{DistributedGirServer, DistributedServerConfig, ThreadEndpoint};
use gir::serve::RegionKind;
use gir::shard::ShardedGirServer;
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn star_batch_over_thread_workers_completes_on_the_pool() {
    stealpool::configure_threads(4);
    let d = 3;
    let data = records(4000, d, 0x57A2);
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let requests: Vec<TopKRequest> = (0..48)
        .map(|_| {
            let w: Vec<f64> = (0..d).map(|_| 0.05 + 0.9 * xorshift_unit(&mut s)).collect();
            TopKRequest::new(w, 10).kind(RegionKind::GirStar)
        })
        .collect();
    let want = ShardedGirServer::build(
        d,
        &data,
        ScoringFunction::linear(d),
        inproc_cfg(4, Placement::Hash),
    )
    .unwrap()
    .run_batch(&requests);

    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let dist = DistributedGirServer::launch(
            &data,
            ScoringFunction::linear(d),
            DistributedServerConfig {
                threads: 4,
                ..dist_cfg(4, Placement::Hash)
            },
            Box::new(|_| Box::new(ThreadEndpoint::spawn())),
        )
        .unwrap();
        let out = dist.run_batch(&requests);
        dist.shutdown();
        let _ = tx.send(out);
    });
    let got = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a GIR* batch over in-process workers stalled for 60 s");
    server.join().expect("the serving thread panicked");
    // A GIR* answer is a set: a hit on a region another request admitted
    // lists the same ids in that request's order.
    let set = |ids: &[u64]| {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids
    };
    for (i, (g, w)) in got.responses.iter().zip(&want.responses).enumerate() {
        assert!(!g.failed, "request {i} failed: {:?}", g.error);
        assert_eq!(set(&g.ids), set(&w.ids), "request {i} ids diverged");
    }
}

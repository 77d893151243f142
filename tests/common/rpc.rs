//! Shared harness pieces for the distributed-tier suites
//! (`rpc_differential`, `rpc_faults`): endpoint factories with fault
//! injection and the matched coordinator/in-process configurations.

use gir::core::{Method, ShardRequest, ShardResponse};
use gir::prelude::*;
use gir::rpc::{
    DistributedServerConfig, EndpointFactory, FaultPlan, FaultyEndpoint, RemoteConfig, RpcError,
    ShardEndpoint, ThreadEndpoint,
};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Thread workers behind the loopback transport, wrapped with fault
/// injection. An empty plan is the no-fault distributed baseline.
pub fn faulty_factory(plan: Arc<FaultPlan>) -> EndpointFactory {
    Box::new(move |shard| {
        Box::new(FaultyEndpoint::new(
            Box::new(ThreadEndpoint::spawn()),
            shard,
            plan.clone(),
        ))
    })
}

/// Like [`faulty_factory`], but the plan applies only to the *first*
/// endpoint instance of each shard: a worker restarted by the rejoin
/// protocol comes back healthy (the CrashClock model — the fault
/// happened, recovery recovered). Without this, the rejoined endpoint's
/// fault clock would restart at zero and re-fire the same plan forever.
pub fn one_shot_faulty_factory(plan: Arc<FaultPlan>) -> EndpointFactory {
    let spawned: Arc<Mutex<HashSet<usize>>> = Arc::new(Mutex::new(HashSet::new()));
    Box::new(move |shard| {
        let first = spawned.lock().unwrap().insert(shard);
        let plan = if first {
            plan.clone()
        } else {
            FaultPlan::none()
        };
        Box::new(FaultyEndpoint::new(
            Box::new(ThreadEndpoint::spawn()),
            shard,
            plan,
        ))
    })
}

/// Kills the worker the moment a request matching `when` arrives,
/// while `kills` holds charges — the coordinator sees `Closed` with the
/// shard's state for that request unknown. `FaultyEndpoint` deliberately
/// exempts `Apply` and `Cut` traffic (rejoin replays and snapshot rolls
/// must stay reliable under the query fault plans), so the update-path
/// contracts need this injector.
struct KillOnEndpoint {
    inner: Option<Box<dyn ShardEndpoint>>,
    when: fn(&ShardRequest) -> bool,
    kills: Arc<AtomicU32>,
}

impl ShardEndpoint for KillOnEndpoint {
    fn call(&mut self, req: &ShardRequest, timeout: Duration) -> Result<ShardResponse, RpcError> {
        let Some(inner) = self.inner.as_mut() else {
            return Err(RpcError::Closed);
        };
        if (self.when)(req)
            && self
                .kills
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        {
            let mut dead = self.inner.take().expect("checked above");
            dead.shutdown();
            return Err(RpcError::Closed);
        }
        inner.call(req, timeout)
    }

    fn shutdown(&mut self) {
        if let Some(mut inner) = self.inner.take() {
            inner.shutdown();
        }
    }
}

/// Thread workers where shard `target`'s endpoints die on a request
/// matching `when` while `kills` holds charges. The charge pool is
/// shared across endpoint instances of the shard, so a replacement
/// spawned by the rejoin protocol can be made to fail too (one charge
/// per kill); start at zero and `store` charges right before the call
/// under test.
pub fn kill_on_factory(
    target: usize,
    when: fn(&ShardRequest) -> bool,
    kills: Arc<AtomicU32>,
) -> EndpointFactory {
    Box::new(move |shard| {
        let ep: Box<dyn ShardEndpoint> = Box::new(ThreadEndpoint::spawn());
        if shard == target {
            Box::new(KillOnEndpoint {
                inner: Some(ep),
                when,
                kills: kills.clone(),
            })
        } else {
            ep
        }
    })
}

/// [`kill_on_factory`] for `Apply`: the worker is lost mid-broadcast.
pub fn apply_kill_factory(target: usize, kills: Arc<AtomicU32>) -> EndpointFactory {
    kill_on_factory(
        target,
        |req| matches!(req, ShardRequest::Apply { .. }),
        kills,
    )
}

/// Tight backoff so injected timeouts resolve fast; snapshots every
/// two batches so rejoins exercise both the snapshot and the WAL
/// suffix.
pub fn remote_cfg() -> RemoteConfig {
    RemoteConfig {
        timeout: Duration::from_secs(10),
        retries: 1,
        backoff: Duration::from_millis(1),
        snapshot_every: 2,
    }
}

/// The distributed server, configured head-to-head comparable with
/// [`inproc_cfg`]: same cache geometry, same method, sequential batch
/// execution for deterministic probe order.
pub fn dist_cfg(s: usize, p: Placement) -> DistributedServerConfig {
    DistributedServerConfig {
        threads: 1,
        data_shards: s,
        placement: p,
        cache_shards: 4,
        cache_capacity: 16,
        method: Method::FacetPruning,
        remote: remote_cfg(),
    }
}

/// The in-process oracle twin of [`dist_cfg`].
pub fn inproc_cfg(s: usize, p: Placement) -> ShardedServerConfig {
    ShardedServerConfig {
        threads: 1,
        data_shards: s,
        placement: p,
        cache_shards: 4,
        cache_capacity: 16,
        method: Method::FacetPruning,
        force_path: None,
    }
}

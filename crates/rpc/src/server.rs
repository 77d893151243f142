//! The distributed serving layer: the [`gir_serve::Server`] core with
//! [`RemoteShards`] as its backend.
//!
//! [`DistributedGirServer`] is the drop-in distributed twin of
//! `gir_shard::ShardedGirServer`: the same core probes the same keyed
//! region cache first, misses fan out — here as RPCs to shard workers
//! instead of in-process pool tasks — and updates run the same
//! `DeltaBatch` cache reconciliation, with FP repair sweeps executed
//! worker-side through the [`gir_shard::RepairSweeps`] seam.
//!
//! Failure semantics (the PR 4 contract, extended across the wire): a
//! dead or hung worker fails only the requests that needed it — each
//! such `TopKResponse` comes back `failed: true` with the shard and
//! reason in `error`, while the rest of the batch serves normally.
//! A killed worker stays dead until [`DistributedGirServer::rejoin_dead`]
//! (or the next update batch) restores it from snapshot + WAL replay;
//! fresh queries then succeed again (pinned by
//! `tests/rpc_differential.rs` and `tests/rpc_faults.rs`).

use crate::cluster::{ClusterApply, ClusterError, EndpointFactory, RemoteConfig, RemoteShards};
use gir_core::plan::Planner;
use gir_core::{GirError, GirOutput, GirRegion, Method, RepairRequest};
use gir_query::{QueryVector, Record, ScoringFunction};
use gir_rtree::RTreeError;
use gir_serve::{Applied, RemovedOwners, Server, ServerConfig, ShardBackend, TopKRequest, Update};
use gir_shard::{repair_entry_sharded, Placement};
use gir_storage::StorageError;

/// Distributed-server configuration.
#[derive(Debug, Clone)]
pub struct DistributedServerConfig {
    /// Worker threads per batch on the coordinator (clamped to ≥ 1).
    pub threads: usize,
    /// Shard workers to launch.
    pub data_shards: usize,
    /// Record-to-shard placement policy.
    pub placement: Placement,
    /// GIR-cache shards (coordinator-side, by query affinity).
    pub cache_shards: usize,
    /// LRU capacity per cache shard.
    pub cache_capacity: usize,
    /// Phase-2 method for misses (non-linear scoring falls back to
    /// [`Method::SkylinePruning`], §7.2).
    pub method: Method,
    /// Transport knobs: timeout, retries, backoff, snapshot cadence.
    pub remote: RemoteConfig,
}

impl Default for DistributedServerConfig {
    fn default() -> Self {
        DistributedServerConfig {
            threads: 1,
            data_shards: 4,
            placement: Placement::Hash,
            cache_shards: 16,
            cache_capacity: 32,
            method: Method::FacetPruning,
            remote: RemoteConfig::default(),
        }
    }
}

/// A GIR serving engine whose shards are RPC workers: the serve core
/// over a [`RemoteShards`] cluster. Everything but construction and the
/// worker-lifecycle calls is the core's (reached through `Deref`).
pub struct DistributedGirServer(Server<RemoteShards>);

impl std::ops::Deref for DistributedGirServer {
    type Target = Server<RemoteShards>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

fn cluster_err_to_rtree(e: ClusterError) -> RTreeError {
    match e {
        ClusterError::Storage(se) => RTreeError::Storage(se),
        other => RTreeError::Storage(StorageError::Corrupt(other.to_string())),
    }
}

impl DistributedGirServer {
    /// Launches `data_shards` workers via `factory`, loads them with
    /// the partitioned records, and builds the serving layer on top.
    pub fn launch(
        records: &[Record],
        scoring: ScoringFunction,
        cfg: DistributedServerConfig,
        factory: EndpointFactory,
    ) -> Result<Self, ClusterError> {
        let cluster = RemoteShards::launch(
            scoring.clone(),
            cfg.placement,
            cfg.data_shards,
            records,
            cfg.remote,
            factory,
        )?;
        let core = ServerConfig {
            threads: cfg.threads,
            shards: cfg.cache_shards,
            shard_capacity: cfg.cache_capacity,
            method: cfg.method,
            durability: None,
            force_path: None,
        };
        Ok(DistributedGirServer(Server::with_backend(
            cluster, scoring, &core,
        )))
    }

    /// Shards whose worker is currently dead.
    pub fn dead_shards(&self) -> Vec<usize> {
        self.backend().dead_shards()
    }

    /// Rejoins every dead worker from snapshot + WAL suffix; returns
    /// how many came back.
    pub fn rejoin_dead(&self) -> Result<usize, ClusterError> {
        self.backend().rejoin_dead()
    }

    /// Shuts every worker down.
    pub fn shutdown(&self) {
        self.backend().shutdown();
    }
}

/// The remote backend. The consistent cut gathers per-shard records at
/// one verified epoch across every worker (updates hold the core's
/// write lock, so cuts always land on a `DeltaBatch` boundary).
impl ShardBackend for RemoteShards {
    fn num_records(&self) -> u64 {
        self.records()
    }

    fn shard_records(&self) -> Result<Vec<Vec<Record>>, RTreeError> {
        self.cut_all().map_err(cluster_err_to_rtree)
    }

    /// There is no planner choice here: with workers across a transport
    /// the only feasible plan is the distributed fan-out, so the span
    /// records the path directly.
    fn miss(
        &self,
        _planner: &Planner,
        _scoring: &ScoringFunction,
        method: Method,
        q: &QueryVector,
        req: &TopKRequest,
    ) -> Result<GirOutput, GirError> {
        let _compute_span =
            tracing::span!("compute", method = method.label(), path = "distributed");
        self.region(req.kind, q, req.k, method)
    }

    /// Rejoin-then-broadcast on the cluster ([`RemoteShards::apply`]).
    /// Its `Err` means nothing was applied, so the failure travels with
    /// an empty delta.
    fn apply(&mut self, updates: &[Update]) -> Applied {
        match RemoteShards::apply(self, updates) {
            Ok(ClusterApply {
                report,
                batch,
                removed_owner,
            }) => Applied {
                report,
                batch,
                removed_owner,
                failure: None,
            },
            Err(e) => Applied {
                failure: Some(cluster_err_to_rtree(e)),
                ..Applied::default()
            },
        }
    }

    /// The in-process repair algorithm, each FP sweep one RPC to the
    /// owning worker.
    fn repair(&self, req: &RepairRequest<'_>, removed_owner: &RemovedOwners) -> Option<GirRegion> {
        repair_entry_sharded(self, req, removed_owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::ThreadEndpoint;
    use crate::testkit::{check_updates_stay_fresh, records};

    #[test]
    fn updates_broadcast_to_workers_and_stay_fresh() {
        let data = records(600, 3, 0x87);
        let server = DistributedGirServer::launch(
            &data,
            ScoringFunction::linear(3),
            DistributedServerConfig {
                data_shards: 2,
                ..DistributedServerConfig::default()
            },
            Box::new(|_| Box::new(ThreadEndpoint::spawn())),
        )
        .unwrap();
        check_updates_stay_fresh(&server, data, || {});
        server.shutdown();
    }
}

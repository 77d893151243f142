//! The one file that names the four server types. Everything else in
//! the benchmark drives an [`Engine`] through `query` / `update`, so
//! retargeting after the servers are unified is a change to this file
//! alone.
//!
//! Every server runs `threads: 1`, a 16x32 region cache, facet pruning
//! and the adaptive planner — the program's defaults.

use crate::measure::{Answer, Target};
use crate::workloads::EngineKind;
use gir_core::plan::PlannerStats;
use gir_core::{Method, PruneIndexStats};
use gir_query::{Record, ScoringFunction};
use gir_rpc::{DistributedGirServer, DistributedServerConfig, RemoteConfig, UdsEndpoint};
use gir_rtree::RTree;
use gir_serve::{
    CacheStats, DurabilityConfig, DurableServer, GirServer, ServerConfig, TopKRequest,
    TopKResponse, Update, UpdateReport,
};
use gir_shard::{Placement, ShardedGirServer, ShardedServerConfig};
use gir_storage::{FsyncPolicy, MemPageStore, PageStore, PAGE_SIZE};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub const CACHE_SHARDS: usize = 16;
pub const CACHE_SHARD_CAPACITY: usize = 32;
pub const DATA_SHARDS: usize = 4;
pub const SNAPSHOT_EVERY: u64 = 64;

pub enum Engine {
    Single(GirServer),
    Durable(DurableServer<GirServer>, PathBuf),
    Sharded(ShardedGirServer),
    Distributed(DistributedGirServer),
}

fn single_config(wal_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        threads: 1,
        shards: CACHE_SHARDS,
        shard_capacity: CACHE_SHARD_CAPACITY,
        method: Method::FacetPruning,
        durability: wal_dir.map(|dir| DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Always,
            snapshot_every: SNAPSHOT_EVERY,
        }),
        ..ServerConfig::default()
    }
}

/// A bulk-loaded in-memory R*-tree, as every single-tree server takes.
pub fn bulk_tree(records: &[Record]) -> RTree {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    RTree::bulk_load(store, records).expect("bulk load over an in-memory store")
}

impl Engine {
    /// Builds (or launches) a fresh engine over `records`. `wal_dir`
    /// must be an empty directory; only `Durable` writes to it.
    pub fn build(kind: EngineKind, d: usize, records: &[Record], wal_dir: &Path) -> Engine {
        let scoring = ScoringFunction::linear(d);
        match kind {
            EngineKind::Single => Engine::Single(GirServer::new(
                bulk_tree(records),
                scoring,
                single_config(None),
            )),
            EngineKind::Durable => Engine::Durable(
                DurableServer::create(bulk_tree(records), scoring, single_config(Some(wal_dir)))
                    .expect("create durable history in a fresh directory"),
                wal_dir.to_path_buf(),
            ),
            EngineKind::Sharded => Engine::Sharded(
                ShardedGirServer::build(
                    d,
                    records,
                    scoring,
                    ShardedServerConfig {
                        threads: 1,
                        data_shards: DATA_SHARDS,
                        placement: Placement::Hash,
                        cache_shards: CACHE_SHARDS,
                        cache_capacity: CACHE_SHARD_CAPACITY,
                        method: Method::FacetPruning,
                        force_path: None,
                    },
                )
                .expect("partition and bulk load"),
            ),
            EngineKind::Distributed => Engine::Distributed(
                DistributedGirServer::launch(
                    records,
                    scoring,
                    DistributedServerConfig {
                        threads: 1,
                        data_shards: DATA_SHARDS,
                        placement: Placement::Hash,
                        cache_shards: CACHE_SHARDS,
                        cache_capacity: CACHE_SHARD_CAPACITY,
                        method: Method::FacetPruning,
                        remote: RemoteConfig::default(),
                    },
                    Box::new(|_shard| {
                        Box::new(UdsEndpoint::spawn().expect("unix socketpair for a shard worker"))
                    }),
                )
                .expect("launch and load four UDS workers"),
            ),
        }
    }

    pub fn kind(&self) -> EngineKind {
        match self {
            Engine::Single(_) => EngineKind::Single,
            Engine::Durable(..) => EngineKind::Durable,
            Engine::Sharded(_) => EngineKind::Sharded,
            Engine::Distributed(_) => EngineKind::Distributed,
        }
    }

    /// One query = one `run_batch(&[req])` call.
    pub fn serve(&self, req: &TopKRequest) -> TopKResponse {
        let reqs = std::slice::from_ref(req);
        let mut out = match self {
            Engine::Single(s) => s.run_batch(reqs),
            Engine::Durable(s, _) => s.run_batch(reqs),
            Engine::Sharded(s) => s.run_batch(reqs),
            Engine::Distributed(s) => s.run_batch(reqs),
        };
        out.responses.pop().expect("one response per request")
    }

    /// One update batch = one `apply_updates(&batch)` call.
    pub fn apply(&self, batch: &[Update]) -> Result<UpdateReport, String> {
        match self {
            Engine::Single(s) => s.apply_updates(batch).map_err(|e| e.to_string()),
            Engine::Durable(s, _) => s.apply_updates(batch).map_err(|e| e.to_string()),
            Engine::Sharded(s) => s.apply_updates(batch).map_err(|e| e.to_string()),
            Engine::Distributed(s) => s.apply_updates(batch).map_err(|e| e.to_string()),
        }
    }

    pub fn records_snapshot(&self) -> Vec<Record> {
        match self {
            Engine::Single(s) => s.records_snapshot(),
            Engine::Durable(s, _) => s.inner().records_snapshot(),
            Engine::Sharded(s) => s.records_snapshot(),
            Engine::Distributed(s) => s.records_snapshot(),
        }
        .expect("scan of an in-memory dataset")
    }

    /// Brings a serving engine back from this one's final state and
    /// drops this one: `DurableServer::recover` from the on-disk history
    /// for `Durable`; the volatile engines have nothing to recover from,
    /// so they are rebuilt from their last records through the same
    /// public constructor. `scratch` is an unused directory.
    pub fn restart(self, d: usize, scratch: &Path) -> Engine {
        match self {
            Engine::Durable(server, dir) => {
                drop(server);
                let (server, _report) =
                    DurableServer::recover(ScoringFunction::linear(d), single_config(Some(&dir)))
                        .expect("recover from the history this run wrote");
                Engine::Durable(server, dir)
            }
            volatile => {
                let kind = volatile.kind();
                let records = volatile.records_snapshot();
                drop(volatile);
                Engine::build(kind, d, &records, scratch)
            }
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        match self {
            Engine::Single(s) => s.cache_stats(),
            Engine::Durable(s, _) => s.inner().cache_stats(),
            Engine::Sharded(s) => s.cache_stats(),
            Engine::Distributed(s) => s.cache_stats(),
        }
    }

    /// Prune-index counters of every tree the coordinator can see (none
    /// for `Distributed`: its indexes live in the workers).
    pub fn prune_stats(&self) -> Vec<PruneIndexStats> {
        match self {
            Engine::Single(s) => vec![s.prune_stats()],
            Engine::Durable(s, _) => vec![s.inner().prune_stats()],
            Engine::Sharded(s) => s.prune_stats(),
            Engine::Distributed(_) => Vec::new(),
        }
    }

    /// `None` for `Distributed`, which has no planner.
    pub fn planner_stats(&self) -> Option<PlannerStats> {
        match self {
            Engine::Single(s) => Some(s.planner_stats()),
            Engine::Durable(s, _) => Some(s.inner().planner_stats()),
            Engine::Sharded(s) => Some(s.planner_stats()),
            Engine::Distributed(_) => None,
        }
    }
}

impl Target for Engine {
    fn query(&mut self, req: &TopKRequest) -> Answer {
        let resp = self.serve(req);
        Answer {
            ids: resp.ids,
            from_cache: resp.from_cache,
            failed: resp.failed,
        }
    }

    fn update(&mut self, batch: &[Update]) -> Result<UpdateReport, String> {
        self.apply(batch)
    }
}

//! # gir-serve
//!
//! A concurrent, update-aware query-serving subsystem built on the GIR
//! library: the step from *per-query algorithm reproduction* to a
//! *traffic-handling engine* for the paper's headline application —
//! GIR-based top-k result caching (paper §1).
//!
//! Components:
//!
//! * [`ShardedGirCache`] — a thread-safe GIR cache: N shards, each an
//!   `RwLock`'d [`gir_core::GirCache`] LRU, with entries routed by a
//!   hash of `(scoring-function fingerprint, k-bucket)` so lookups from
//!   different sessions rarely contend. Hit / miss / eviction counters
//!   aggregate across shards.
//! * [`Server`] — the serving engine, generic over the dataset behind
//!   it ([`ShardBackend`]): a batch executor that fans a slice of
//!   [`TopKRequest`]s across a scoped worker pool (cache-probe first,
//!   compute-and-admit on miss) and returns per-batch [`ServeStats`]
//!   (latency percentiles, hit rate, Phase-2 method), plus an update
//!   pipeline that coalesces [`Update`]s into a `gir_core::DeltaBatch`
//!   under the dataset's exclusive lock and reconciles every cached
//!   entry in one classification pass — untouched entries survive,
//!   shrunk entries absorb the newcomers' half-spaces, deleted facet
//!   contributors are *repaired in place* (an FP sweep pinned at the
//!   cached `p_k`), and only genuinely invalidated entries are evicted,
//!   so **no cache hit ever serves a stale result** and regions do not
//!   decay under churn. [`GirServer`] is the core over one R\*-tree
//!   ([`SingleTree`]); `gir-shard` and `gir-rpc` put S in-process trees
//!   and S remote workers behind the same core.
//! * [`workload`] — a deterministic mixed query/update traffic
//!   generator for the serve driver and throughput bench.
//!
//! The freshness argument: queries run under a shared read lock on the
//! tree and admit entries computed against that tree version; updates
//! take the write lock and sweep the cache *before releasing it*, so a
//! lookup can never observe an entry whose region has not been
//! reconciled with every applied update (maintenance keeps shrunk
//! regions sound — see `gir_core::maintenance`).
//!
//! ```
//! use gir_serve::{GirServer, ServerConfig, TopKRequest};
//! use gir_query::ScoringFunction;
//! use gir_rtree::RTree;
//! use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
//! use std::sync::Arc;
//!
//! let data = gir_datagen::synthetic(gir_datagen::Distribution::Independent, 2_000, 3, 7);
//! let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
//! let tree = RTree::bulk_load(store, &data).unwrap();
//! let server = GirServer::new(tree, ScoringFunction::linear(3), ServerConfig::default());
//!
//! let reqs: Vec<TopKRequest> = (0..64)
//!     .map(|i| TopKRequest::new(vec![0.5 + 0.001 * (i % 9) as f64, 0.6, 0.4], 10))
//!     .collect();
//! let batch = server.run_batch(&reqs);
//! assert_eq!(batch.responses.len(), 64);
//! assert!(batch.stats.hits > 0); // jittered repeats fall in cached GIRs
//! ```

pub mod backend;
pub mod durable;
pub mod server;
pub mod sharded;
pub mod stats;
#[cfg(test)]
mod testkit;
pub mod workload;

// `testkit.rs` is shared with the sibling crates' unit tests, so it
// names this crate from outside.
#[cfg(test)]
extern crate self as gir_serve;

pub use backend::{planned_miss, Applied, RemovedOwners, ShardBackend, SingleTree};
pub use durable::{
    fold_wal, updates_from_wal_batch, wal_batch_from_updates, AsServer, DurabilityConfig,
    DurabilityError, DurableServer, RecoveryReport,
};
pub use gir_core::plan::{MissPath, PlannerStats};
pub use gir_core::RegionKind;
pub use server::{
    BatchResult, GirServer, Server, ServerConfig, TopKRequest, TopKResponse, Update, UpdateReport,
};
pub use sharded::{CacheStats, ShardedGirCache, APPLY_SLOTS};
pub use stats::ServeStats;
pub use workload::{mixed_workload, TrafficBatch, WorkloadConfig};

#[cfg(test)]
mod send_sync {
    //! The serving layer shares engine state across worker threads;
    //! these compile-time assertions pin the `Send + Sync` obligations
    //! of the underlying crates.

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn core_types_are_shareable() {
        assert_send_sync::<gir_core::GirCache>();
        assert_send_sync::<gir_core::GirOutput>();
        assert_send_sync::<gir_core::GirRegion>();
        assert_send_sync::<gir_query::ScoringFunction>();
        assert_send_sync::<gir_query::TopKResult>();
        assert_send_sync::<gir_rtree::RTree>();
        assert_send_sync::<crate::ShardedGirCache>();
        assert_send_sync::<crate::GirServer>();
    }
}

//! The serve core: one batch executor and one update tail over any
//! [`ShardBackend`].

use crate::backend::{Applied, ShardBackend, SingleTree};
use crate::sharded::{CacheStats, ShardedGirCache};
use crate::stats::ServeStats;
use gir_core::plan::{MissPath, Planner, PlannerStats};
use gir_core::{CacheKey, GirError, GirOutput, Method, PruneIndexStats, RegionKind};
use gir_geometry::vector::PointD;
use gir_query::{QueryVector, Record, ScoringFunction};
use gir_rtree::{RTree, RTreeError};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use std::time::Instant;

/// Serving-engine configuration: the single-tree server's input, and
/// the form the sharded and distributed configs convert into for the
/// core ([`Server::with_backend`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads per batch (clamped to ≥ 1).
    pub threads: usize,
    /// Cache shards (rounded up to a power of two).
    pub shards: usize,
    /// LRU capacity per shard.
    pub shard_capacity: usize,
    /// Phase-2 method for misses. Non-linear scoring functions fall
    /// back to [`Method::SkylinePruning`] automatically (§7.2).
    pub method: Method,
    /// Durability tier (WAL + snapshots + crash recovery; see
    /// [`crate::durable`]). `None` — the default, and the perf-gate
    /// configuration — serves purely in memory; `Some` is consumed by
    /// [`crate::durable::DurableServer::create`] /
    /// [`crate::durable::DurableServer::recover`].
    pub durability: Option<crate::durable::DurabilityConfig>,
    /// Pins every planned miss to one [`MissPath`], overriding the
    /// adaptive planner (tests and oracles use it to reproduce one path
    /// in isolation). With more than one data shard only
    /// [`MissPath::Sharded`] is feasible, so an infeasible force falls
    /// back to the sharded plan.
    pub force_path: Option<MissPath>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(4)
                .min(8),
            shards: 16,
            shard_capacity: 32,
            method: Method::FacetPruning,
            durability: None,
            force_path: None,
        }
    }
}

/// One top-k request: a weight vector, a result size, and the region
/// semantics the client wants served.
#[derive(Debug, Clone)]
pub struct TopKRequest {
    /// Query weights; clamped into `[0,1]` on construction.
    pub weights: PointD,
    /// Result size.
    pub k: usize,
    /// Requested semantics: [`RegionKind::Gir`] (the default) demands
    /// the exact ranked top-k; [`RegionKind::GirStar`] asks only for
    /// the top-k *set* (§7.1), which caches under the wider GIR\*
    /// region — the returned order is the cached one and may lag the
    /// live ranking.
    pub kind: RegionKind,
    /// Capture this request's span tree and attach an
    /// [`gir_obs::ExplainReport`] to the response — cache outcome,
    /// per-phase timings, LP calls, BRS work, per-shard contributions.
    /// Costs a thread-local capture for this request only; other
    /// requests in the batch stay on the zero-cost path.
    pub explain: bool,
}

impl TopKRequest {
    /// Builds a request with the default semantics (order-sensitive
    /// [`RegionKind::Gir`], no EXPLAIN), clamping weights into the
    /// query box (a serving layer must not panic on slightly
    /// out-of-range client input). Chain [`TopKRequest::kind`] /
    /// [`TopKRequest::explain`] to refine:
    ///
    /// ```ignore
    /// TopKRequest::new(vec![0.5, 0.5], 8).kind(RegionKind::GirStar).explain()
    /// ```
    pub fn new(weights: impl Into<PointD>, k: usize) -> Self {
        let mut weights = weights.into();
        for w in weights.coords_mut() {
            *w = w.clamp(0.0, 1.0);
        }
        TopKRequest {
            weights,
            k: k.max(1),
            kind: RegionKind::Gir,
            explain: false,
        }
    }

    /// Selects the region semantics served. [`RegionKind::GirStar`]
    /// demands only the top-`k` *composition* (§7.1), so the request
    /// hits the wider GIR\* regions.
    pub fn kind(mut self, kind: RegionKind) -> Self {
        self.kind = kind;
        self
    }

    /// Asks for a per-query EXPLAIN report on the response.
    pub fn explain(mut self) -> Self {
        self.explain = true;
        self
    }
}

/// One served response.
#[derive(Debug, Clone)]
pub struct TopKResponse {
    /// Ranked record ids, best first. Shorter than `k` when the
    /// dataset holds fewer than `k` records; empty when it is empty.
    pub ids: Vec<u64>,
    /// True when answered from the GIR cache without touching the
    /// index.
    pub from_cache: bool,
    /// Per-request wall clock, microseconds.
    pub latency_us: u64,
    /// True when the computation failed (e.g. a storage error surfaced
    /// mid-miss): `ids` is empty and nothing was admitted to the cache.
    /// One failed request never poisons its batch — the serving layer
    /// keeps answering, and once the fault clears the next miss
    /// recomputes (the prune index invalidates itself on error, so no
    /// stale state survives the failure window).
    pub failed: bool,
    /// Logical pages (R\*-tree node accesses — the paper's Figure 15/18
    /// cost metric) this request fetched: BRS top-k plus Phase 2. Zero
    /// on cache hits, which never touch the tree.
    pub pages: u64,
    /// Human-readable failure reason, present iff `failed` — e.g.
    /// `"shard 2 unavailable: rpc timeout after 2 attempts"` from the
    /// distributed tier, or the storage error of a local miss.
    pub error: Option<String>,
    /// The captured span breakdown, present iff the request set
    /// [`TopKRequest::explain`].
    pub explain: Option<gir_obs::ExplainReport>,
}

/// A batch's responses (in request order) plus its statistics.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One response per request, same order.
    pub responses: Vec<TopKResponse>,
    /// Batch-level measurements.
    pub stats: ServeStats,
}

/// A dataset mutation.
#[derive(Debug, Clone)]
pub enum Update {
    /// Insert a record.
    Insert(Record),
    /// Delete a record by id and location.
    Delete {
        /// Record id.
        id: u64,
        /// The record's attribute point (R\*-tree deletes by location).
        attrs: PointD,
    },
}

/// Outcome of an update batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Records inserted into the tree.
    pub inserted: usize,
    /// Records deleted from the tree.
    pub deleted: usize,
    /// Deletes whose id/location was not found (no-ops).
    pub missed_deletes: usize,
    /// Cache entries dropped as stale.
    pub evicted: usize,
    /// Cache entries whose facets were rebuilt in place.
    pub repaired: usize,
    /// Cache entries shrunk in place by newcomers' half-spaces.
    pub shrunk: usize,
    /// Cache entries the batch did not touch at all.
    pub untouched: usize,
}

/// Fans `requests` across the workspace's shared work-stealing pool
/// ([`gir_core::pool::fan_out`]) and derives the batch's
/// [`ServeStats`] from the in-order responses; the caller holds the
/// dataset read lock for the duration of the call.
///
/// `threads <= 1` runs strictly sequentially on the caller — cache
/// probe order, and therefore hit counts, are deterministic in that
/// configuration. With `threads > 1` the actual parallelism degree is
/// the pool's policy (`GIR_POOL_THREADS`), not `threads`; EXPLAIN
/// captures survive the thread hops because `fan_out` grafts per-job
/// span trees back in item order. `work_items` is the caller's measure
/// of the total work behind the batch (requests × live records — a
/// request's cost scales with the dataset it reads, not the request
/// count), gated by `pool::MIN_ITEMS` like every other fan-out.
fn execute_batch(
    requests: &[TopKRequest],
    work_items: usize,
    threads: usize,
    method_label: &'static str,
    serve_one: impl Fn(&TopKRequest) -> TopKResponse + Sync,
) -> BatchResult {
    let batch_start = Instant::now();
    let n = requests.len();
    let threads = threads.clamp(1, n.max(1));
    let responses: Vec<TopKResponse> = if threads <= 1 {
        requests.iter().map(&serve_one).collect()
    } else {
        gir_core::pool::fan_out(requests.iter().collect(), work_items, |_, req| {
            serve_one(req)
        })
    };

    let labeled: Vec<(u64, bool)> = responses
        .iter()
        .map(|r| (r.latency_us, r.from_cache))
        .collect();
    if tracing::enabled() {
        crate::stats::publish_to_registry(&labeled);
    }
    let wall_ms = batch_start.elapsed().as_secs_f64() * 1e3;
    let stats = ServeStats::from_labeled_latencies(labeled, threads, method_label, wall_ms);
    BatchResult { responses, stats }
}

/// Runs `f` — one request's full serve path — under the root `serve`
/// span, and when the request asked for EXPLAIN, inside a thread-local
/// capture whose finished span tree is distilled into the response's
/// [`gir_obs::ExplainReport`].
fn serve_traced(req: &TopKRequest, f: impl FnOnce() -> TopKResponse) -> TopKResponse {
    let capture = req.explain.then(tracing::Capture::begin);
    let serve_span = tracing::span!("serve", kind = req.kind.label(), k = req.k);
    let mut resp = f();
    drop(serve_span);
    if let Some(cap) = capture {
        let outcome = if resp.failed {
            "failed"
        } else if resp.from_cache {
            "hit"
        } else {
            "miss"
        };
        resp.explain = Some(gir_obs::ExplainReport::from_tree(
            &cap.finish(),
            outcome,
            resp.latency_us,
        ));
    }
    resp
}

/// Maps a miss computation's outcome to a response, handing successful
/// outputs to `admit` (cache insertion) first:
///
/// * an empty dataset serves an empty result (not a failure),
/// * a storage fault or an unavailable shard marks this response
///   `failed` without poisoning the batch — nothing was admitted, and a
///   failed prune-index build/maintenance step invalidated itself, so
///   later requests recompute from scratch once the store heals
///   (`tests/failure_injection.rs`),
/// * anything else (a configuration error like unsupported scoring)
///   panics: retries cannot fix it.
fn compute_response(
    computed: Result<GirOutput, GirError>,
    started: Instant,
    admit: impl FnOnce(GirOutput),
) -> TopKResponse {
    let mut resp = TopKResponse {
        ids: Vec::new(),
        from_cache: false,
        latency_us: 0,
        failed: false,
        pages: 0,
        error: None,
        explain: None,
    };
    match computed {
        Ok(out) => {
            resp.ids = out.result.ids();
            resp.pages = out.stats.topk_pages + out.stats.gir_pages;
            admit(out);
        }
        Err(GirError::EmptyResult) => {}
        Err(e @ GirError::Tree(_)) | Err(e @ GirError::ShardUnavailable { .. }) => {
            resp.failed = true;
            resp.error = Some(e.to_string());
        }
        Err(e) => panic!("GIR computation failed in serve path: {e}"),
    }
    resp.latency_us = started.elapsed().as_micros() as u64;
    resp
}

/// A concurrent GIR serving engine over one dataset, whatever its
/// shape: the region cache, the miss planner and the update tail are
/// the same for a single tree ([`GirServer`]), S in-process trees
/// (`gir_shard::ShardedGirServer`) and S remote workers
/// (`gir_rpc::DistributedGirServer`); the dataset sits behind
/// [`ShardBackend`].
///
/// Queries run under a shared read lock on the backend; updates take
/// the write lock and reconcile the cache before releasing it. See the
/// crate docs for the freshness argument.
pub struct Server<B> {
    backend: RwLock<B>,
    cache: ShardedGirCache,
    planner: Planner,
    scoring: ScoringFunction,
    /// The effective Phase-2 method, resolved once at construction.
    method: Method,
    threads: usize,
}

/// The single-tree server.
pub type GirServer = Server<SingleTree>;

impl<B: ShardBackend> Server<B> {
    /// Builds the core around `backend`. `cfg.durability` is not the
    /// core's business ([`crate::DurableServer`] consumes it).
    pub fn with_backend(backend: B, scoring: ScoringFunction, cfg: &ServerConfig) -> Self {
        let method = if cfg.method.supports(&scoring) {
            cfg.method
        } else {
            Method::SkylinePruning
        };
        Server {
            backend: RwLock::new(backend),
            cache: ShardedGirCache::new(cfg.shards, cfg.shard_capacity),
            planner: Planner::with_forced(cfg.force_path),
            scoring,
            method,
            threads: cfg.threads,
        }
    }

    /// The scoring function requests are evaluated under.
    pub fn scoring(&self) -> &ScoringFunction {
        &self.scoring
    }

    /// The effective Phase-2 method (configured method, or SP when the
    /// scoring function is non-linear — §7.2).
    pub fn method(&self) -> Method {
        self.method
    }

    /// Aggregated cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Consistent cut of the cache's per-shard maintenance counters
    /// (see [`ShardedGirCache::maintenance_snapshot`]): safe to call
    /// concurrently with [`Server::apply_updates`], never observes a
    /// shard mid-batch.
    pub fn maintenance_snapshot(&self) -> gir_obs::ScopesSnapshot {
        self.cache.maintenance_snapshot()
    }

    /// Planner decision counters (per-path tallies, probes, forced
    /// dispatches, calibrator drift/refit activity). All zero for a
    /// backend whose misses never consult the planner.
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner.stats()
    }

    /// The planner's forced-path override, if any
    /// ([`ServerConfig::force_path`]).
    pub fn forced_path(&self) -> Option<MissPath> {
        self.planner.forced()
    }

    /// The dataset, read-locked — for the tier newtypes' own accessors
    /// (occupancy, per-shard prune stats, dead shards), which live in
    /// other crates. Read what you need and drop the guard: it is the
    /// lock [`Server::apply_updates`] takes for writing, so calling
    /// that on the same thread while holding it deadlocks, and a guard
    /// kept alive stalls every writer.
    pub fn backend(&self) -> RwLockReadGuard<'_, B> {
        self.backend.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of live records.
    pub fn num_records(&self) -> u64 {
        self.backend().num_records()
    }

    /// Per-shard records at a batch boundary — what a durable snapshot
    /// persists. Updates hold the write lock for apply + cache
    /// reconciliation and this takes the read lock, so the cut never
    /// observes a half-applied batch.
    pub fn consistent_cut(&self) -> Result<Vec<Vec<Record>>, RTreeError> {
        let backend = self.backend();
        debug_assert!(
            self.maintenance_snapshot()
                .shards
                .iter()
                .all(|s| s.epoch % 2 == 0),
            "consistent cut observed a cache shard mid-batch"
        );
        backend.shard_records()
    }

    /// A snapshot of every live record, shard-major (for verification /
    /// debugging; takes the read lock).
    pub fn records_snapshot(&self) -> Result<Vec<Record>, RTreeError> {
        Ok(self.consistent_cut()?.into_iter().flatten().collect())
    }

    /// Executes a batch of requests across the worker pool: cache-probe
    /// first, compute-and-admit on miss. Responses preserve request
    /// order; a failed miss degrades only its own response.
    pub fn run_batch(&self, requests: &[TopKRequest]) -> BatchResult {
        // Hold the read lock for the whole batch: updates apply between
        // batches, never inside one.
        let backend = self.backend();
        let backend: &B = &backend;
        let work = requests
            .len()
            .saturating_mul(backend.num_records().max(1) as usize);
        execute_batch(requests, work, self.threads, self.method.label(), |req| {
            self.serve_one(backend, req)
        })
    }

    fn serve_one(&self, backend: &B, req: &TopKRequest) -> TopKResponse {
        serve_traced(req, || {
            let t0 = Instant::now();
            let key = CacheKey::new(&req.weights, req.k, &self.scoring).kind(req.kind);
            let lookup_span = tracing::span!("cache_lookup");
            let found = self.cache.get(&key);
            drop(lookup_span);
            if let Some(records) = found {
                return TopKResponse {
                    ids: records.iter().map(|r| r.id).collect(),
                    from_cache: true,
                    latency_us: t0.elapsed().as_micros() as u64,
                    failed: false,
                    pages: 0,
                    error: None,
                    explain: None,
                };
            }
            let q = QueryVector::new(req.weights.coords().to_vec());
            let computed = backend.miss(&self.planner, &self.scoring, self.method, &q, req);
            compute_response(computed, t0, |out| {
                let _admit_span = tracing::span!("admit");
                self.cache.admit(&key, out.region, out.result);
            })
        })
    }

    /// Applies a batch of updates under the dataset write lock and
    /// reconciles the cache before the lock is released — queries never
    /// observe a dataset the cache has not been reconciled with.
    ///
    /// The updates coalesce into one [`gir_core::DeltaBatch`]: every
    /// cached entry is classified once for the whole burst, untouched
    /// entries survive, deleted facet contributors are repaired in
    /// place by the backend, and only genuinely invalidated entries are
    /// evicted. A backend error is surfaced only *after* the cache has
    /// been reconciled with every delta that did land, so a stale entry
    /// can never outlive an already-mutated dataset.
    pub fn apply_updates(&self, updates: &[Update]) -> Result<UpdateReport, RTreeError> {
        let mut backend = self.backend.write().unwrap_or_else(PoisonError::into_inner);
        let Applied {
            mut report,
            batch,
            removed_owner,
            failure,
        } = backend.apply(updates);
        let backend: &B = &backend;
        let outcome = self.cache.apply_batch(&batch, |req| {
            // FP repair needs linear scoring (§7.2); declining keeps
            // the entry sound but non-maximal.
            if !req.scoring.is_linear() {
                return None;
            }
            backend.repair(req, &removed_owner)
        });
        report.evicted = outcome.evicted;
        report.repaired = outcome.repaired;
        report.shrunk = outcome.shrunk;
        report.untouched = outcome.untouched;
        match failure {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

impl Server<SingleTree> {
    /// Builds a server around an existing tree.
    pub fn new(tree: RTree, scoring: ScoringFunction, cfg: ServerConfig) -> Self {
        assert_eq!(scoring.dim(), tree.dim(), "scoring dimensionality mismatch");
        Server::with_backend(SingleTree::new(tree), scoring, &cfg)
    }

    /// Prune-index counters (builds, serves, incremental updates,
    /// shared Phase-2 reuse).
    pub fn prune_stats(&self) -> PruneIndexStats {
        self.backend().prune().stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{
        check_batch_matches_naive_and_hits_cache, check_nonlinear_scoring_falls_back_to_sp,
        check_updates_stay_fresh, jittered_requests,
    };
    use gir_datagen::{synthetic, Distribution};
    use gir_query::naive_topk;
    use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
    use std::sync::Arc;

    fn server_over(data: &[Record], scoring: ScoringFunction, cfg: ServerConfig) -> GirServer {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let tree = RTree::bulk_load(store, data).unwrap();
        GirServer::new(tree, scoring, cfg)
    }

    fn server(n: usize, d: usize, seed: u64, cfg: ServerConfig) -> (Vec<Record>, GirServer) {
        let data = synthetic(Distribution::Independent, n, d, seed);
        let server = server_over(&data, ScoringFunction::linear(d), cfg);
        (data, server)
    }

    #[test]
    fn batch_matches_naive_and_hits_cache() {
        let cfg = ServerConfig {
            threads: 4,
            ..ServerConfig::default()
        };
        let (data, server) = server(1500, 3, 0x5E21, cfg);
        check_batch_matches_naive_and_hits_cache(&server, &data);
    }

    #[test]
    fn requests_are_clamped_not_panicking() {
        let (_, server) = server(300, 2, 0x5E22, ServerConfig::default());
        let reqs = vec![TopKRequest::new(vec![1.7, -0.3], 0)];
        let batch = server.run_batch(&reqs);
        assert_eq!(batch.responses[0].ids.len(), 1); // k clamped to 1
    }

    #[test]
    fn updates_sweep_cache_and_stay_fresh() {
        let cfg = ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        };
        let (data, server) = server(1200, 3, 0x5E23, cfg);
        check_updates_stay_fresh(&server, data, || {});
    }

    #[test]
    fn missed_delete_is_reported_not_fatal() {
        let (_, server) = server(200, 2, 0x5E24, ServerConfig::default());
        let report = server
            .apply_updates(&[Update::Delete {
                id: 777_777,
                attrs: PointD::new(vec![0.5, 0.5]),
            }])
            .unwrap();
        assert_eq!(
            report,
            UpdateReport {
                missed_deletes: 1,
                ..Default::default()
            }
        );
    }

    #[test]
    fn star_requests_serve_fresh_compositions_under_churn() {
        // Order-insensitive traffic: every cache-served answer must be
        // the true top-k *set* on the current dataset (order is
        // advisory), with star entries repaired — not dropped — when
        // churn deletes their facet contributors.
        let sorted = |ids: &[u64]| {
            let mut v = ids.to_vec();
            v.sort_unstable();
            v
        };
        let cfg = ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        };
        let (mut data, server) = server(1200, 3, 0x5E27, cfg);
        let reqs: Vec<TopKRequest> = jittered_requests(60, 6)
            .into_iter()
            .map(|r| r.kind(RegionKind::GirStar))
            .collect();
        let batch = server.run_batch(&reqs);
        assert!(batch.stats.hits > 0, "jittered star repeats should hit");
        for (req, resp) in reqs.iter().zip(&batch.responses) {
            let truth = naive_topk(&data, server.scoring(), &req.weights, req.k);
            assert_eq!(sorted(&resp.ids), sorted(&truth.ids()));
        }

        // Churn: a hot insert plus a delete of one cached-entry
        // contributor-ish record, then re-verify every answer.
        let hot = Record::new(7_777_777, vec![0.68, 0.66, 0.64]);
        data.push(hot.clone());
        let victim = data[100].clone();
        data.retain(|r| r.id != victim.id);
        server
            .apply_updates(&[
                Update::Insert(hot),
                Update::Delete {
                    id: victim.id,
                    attrs: victim.attrs.clone(),
                },
            ])
            .unwrap();
        let batch = server.run_batch(&reqs);
        for (req, resp) in reqs.iter().zip(&batch.responses) {
            let truth = naive_topk(&data, server.scoring(), &req.weights, req.k);
            assert_eq!(
                sorted(&resp.ids),
                sorted(&truth.ids()),
                "stale star answer after churn (from_cache={})",
                resp.from_cache
            );
        }
    }

    #[test]
    fn star_cache_hits_at_least_as_often_as_ordered_requests() {
        // GIR ⊆ GIR*: with the same traffic, the order-insensitive
        // request stream can only hit more (a star lookup also matches
        // order-sensitive entries).
        let mk = |star: bool| {
            let cfg = ServerConfig {
                threads: 1,
                ..ServerConfig::default()
            };
            let (_, server) = server(1500, 3, 0x5E28, cfg);
            let reqs: Vec<TopKRequest> = (0..160)
                .map(|i| {
                    let j = 0.002 * (i % 13) as f64;
                    let w = vec![0.5 + j, 0.62 - j, 0.47 + j / 3.0];
                    if star {
                        TopKRequest::new(w, 7).kind(RegionKind::GirStar)
                    } else {
                        TopKRequest::new(w, 7)
                    }
                })
                .collect();
            server.run_batch(&reqs).stats.hits
        };
        let ordered_hits = mk(false);
        let star_hits = mk(true);
        assert!(
            star_hits >= ordered_hits,
            "star hits {star_hits} < ordered hits {ordered_hits}"
        );
    }

    #[test]
    fn nonlinear_scoring_falls_back_to_sp() {
        let data = synthetic(Distribution::Independent, 400, 4, 0x5E25);
        let server = server_over(
            &data,
            ScoringFunction::mixed4(),
            ServerConfig {
                method: Method::FacetPruning,
                threads: 2,
                ..ServerConfig::default()
            },
        );
        check_nonlinear_scoring_falls_back_to_sp(&server, &data);
    }
}

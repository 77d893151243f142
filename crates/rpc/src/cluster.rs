//! The coordinator side: S shard workers behind [`ShardEndpoint`]s,
//! consistent cuts at `DeltaBatch` boundaries, and the batches applied
//! since the last cut — together, all a restarted worker needs.
//!
//! [`RemoteShards`] is the distributed counterpart of
//! `gir_shard::ShardedDataset`: same placement function, same merge
//! (`gir_core::merge_ranked_lists`), same per-shard Phase-2 stage
//! (`shard_gir_system` runs *inside* each worker), and per-shard
//! results accumulated in shard order — so the produced top-k, region
//! facets, and provenance are bit-identical to the in-process plan
//! (pinned by `tests/rpc_differential.rs`).
//!
//! Rejoin is durable recovery's fold: every batch joins the suffix
//! *before* its broadcast, a successful cut replaces the held
//! `SnapshotState` and clears the suffix, and a restarted worker loads
//! its shard of the cut with the suffix folded in
//! ([`gir_serve::fold_wal`], the function `DurableServer` recovers
//! with) — so coordinator memory and rejoin cost are bounded by the
//! batches since the last cut, not by the history.
//!
//! Failure semantics extend the PR 4 contract: a dead or hung worker
//! fails *that shard's* call — the coordinator degrades the one
//! affected response, never the batch — and `rpc.*` counters record
//! every attempt (see `gir_obs::rpc` for the liveness invariant).

use crate::endpoint::ShardEndpoint;
use crate::error::RpcError;
use crate::worker::placement_tag;
use gir_core::phase1::ordering_halfspaces;
use gir_core::{
    merge_ranked_lists, DeltaBatch, GirError, GirOutput, GirRegion, GirStats, Method, RegionKind,
    ShardRequest, ShardResponse, SnapshotState, WalBatch,
};
use gir_geometry::hyperplane::HalfSpace;
use gir_geometry::vector::PointD;
use gir_obs::rpc::RpcCounters;
use gir_query::{QueryVector, Record, ScoringFunction, TopKResult};
use gir_serve::{fold_wal, wal_batch_from_updates, Update, UpdateReport};
use gir_shard::{Placement, RepairSweeps};
use gir_storage::StorageError;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Builds the endpoint for shard `s` — called at launch and again on
/// every rejoin (a restarted worker is a *fresh* endpoint).
pub type EndpointFactory = Box<dyn Fn(usize) -> Box<dyn ShardEndpoint> + Send + Sync>;

/// Coordinator-side knobs.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Per-call deadline.
    pub timeout: Duration,
    /// Extra attempts after a timed-out call. A retry can only succeed
    /// when the timeout never touched the worker's stream (e.g. an
    /// injected delay that ate the deadline before sending): once a
    /// request's bytes are in flight, the endpoint poisons itself on
    /// timeout — a late response must never answer a newer request —
    /// so the retry observes `Closed`, fails fast, and the shard is
    /// reaped for a rejoin instead.
    pub retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff: Duration,
    /// Snapshot cut cadence, in applied batches.
    pub snapshot_every: u64,
}

impl Default for RemoteConfig {
    fn default() -> RemoteConfig {
        RemoteConfig {
            timeout: Duration::from_secs(10),
            retries: 1,
            backoff: Duration::from_millis(1),
            snapshot_every: 4,
        }
    }
}

/// Anything the coordinator cannot recover from inline.
#[derive(Debug)]
pub enum ClusterError {
    /// An RPC to one shard failed after retries.
    Rpc {
        /// The shard whose call failed.
        shard: usize,
        /// The transport/worker error.
        error: RpcError,
    },
    /// A consistent cut failed: a worker answered from another epoch.
    Storage(StorageError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Rpc { shard, error } => write!(f, "shard {shard}: {error}"),
            ClusterError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One applied update batch, as the serving layer needs it: the
/// owner-outcome-derived report plus the cache-maintenance inputs.
pub struct ClusterApply {
    /// `inserted` / `deleted` / `missed_deletes` (cache fields zero;
    /// the server fills them from its own sweep).
    pub report: UpdateReport,
    /// The delta the region cache reconciles against.
    pub batch: DeltaBatch,
    /// Owner shards of every applied delete, for scoping repair sweeps.
    pub removed_owner: HashMap<u64, BTreeSet<usize>>,
}

struct Slot {
    endpoint: Option<Box<dyn ShardEndpoint>>,
}

/// What a rejoin reads: the newest consistent cut and every batch
/// applied since, in order. Only a successful cut clears the suffix.
struct Recovery {
    cut: SnapshotState,
    suffix: Vec<WalBatch>,
}

/// S shard workers plus the state that rejoins them — the distributed
/// dataset.
pub struct RemoteShards {
    scoring: ScoringFunction,
    placement: Placement,
    num_shards: usize,
    dim: usize,
    cfg: RemoteConfig,
    slots: Vec<Mutex<Slot>>,
    factory: EndpointFactory,
    recovery: Mutex<Recovery>,
    /// Batches applied since launch (the replica epoch).
    epoch: AtomicU64,
    /// Live records across all shards (owner outcomes keep it exact).
    records: AtomicU64,
    /// Snapshot rolls that failed after their batch was broadcast.
    snapshot_failures: AtomicU64,
    counters: RpcCounters,
}

impl RemoteShards {
    /// Partitions `records`, holds the partition as the epoch-0 cut,
    /// and launches + loads one worker per shard.
    pub fn launch(
        scoring: ScoringFunction,
        placement: Placement,
        num_shards: usize,
        records: &[Record],
        cfg: RemoteConfig,
        factory: EndpointFactory,
    ) -> Result<RemoteShards, ClusterError> {
        assert!(num_shards >= 1, "need at least one shard");
        let dim = scoring.dim();
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); num_shards];
        for rec in records {
            parts[placement.shard_of(rec.id, &rec.attrs, num_shards)].push(rec.clone());
        }

        let cluster = RemoteShards {
            scoring,
            placement,
            num_shards,
            dim,
            cfg,
            slots: (0..num_shards)
                .map(|_| Mutex::new(Slot { endpoint: None }))
                .collect(),
            factory,
            recovery: Mutex::new(Recovery {
                cut: SnapshotState {
                    batches: 0,
                    shards: parts.clone(),
                },
                suffix: Vec::new(),
            }),
            epoch: AtomicU64::new(0),
            records: AtomicU64::new(records.len() as u64),
            snapshot_failures: AtomicU64::new(0),
            counters: RpcCounters::global(),
        };
        for (s, part) in parts.into_iter().enumerate() {
            let mut ep = (cluster.factory)(s);
            let resp = cluster.call_ep(ep.as_mut(), s, &cluster.load_request(s, 0, part))?;
            match resp {
                ShardResponse::Loaded { .. } => {}
                other => {
                    return Err(ClusterError::Rpc {
                        shard: s,
                        error: RpcError::Protocol(format!("expected Loaded, got {other:?}")),
                    })
                }
            }
            cluster.lock_slot(s).endpoint = Some(ep);
        }
        Ok(cluster)
    }

    fn load_request(&self, shard: usize, epoch: u64, records: Vec<Record>) -> ShardRequest {
        ShardRequest::Load {
            shard: shard as u32,
            num_shards: self.num_shards as u32,
            placement: placement_tag(self.placement),
            scoring: self.scoring.clone(),
            epoch,
            records,
        }
    }

    fn lock_slot(&self, s: usize) -> std::sync::MutexGuard<'_, Slot> {
        self.slots[s].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_recovery(&self) -> std::sync::MutexGuard<'_, Recovery> {
        self.recovery.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One counted call on a specific endpoint, with timeout retries.
    /// Counting covers *every* attempt, including rejoin traffic, so
    /// the `rpc.*` liveness invariant holds globally.
    fn call_ep(
        &self,
        ep: &mut dyn ShardEndpoint,
        shard: usize,
        req: &ShardRequest,
    ) -> Result<ShardResponse, ClusterError> {
        let mut attempt: u32 = 0;
        loop {
            self.counters.requests.inc();
            let span = tracing::span!("rpc_call", shard = shard);
            let res = ep.call(req, self.cfg.timeout);
            drop(span);
            match res {
                Ok(ShardResponse::Error { message }) => {
                    // A well-formed worker-side error is a response for
                    // liveness purposes — the transport worked.
                    self.counters.responses.inc();
                    return Err(ClusterError::Rpc {
                        shard,
                        error: RpcError::Worker(message),
                    });
                }
                Ok(resp) => {
                    self.counters.responses.inc();
                    return Ok(resp);
                }
                Err(e) => {
                    self.counters.failures.inc();
                    if e == RpcError::Timeout {
                        self.counters.timeouts.inc();
                    }
                    if e == RpcError::Timeout && attempt < self.cfg.retries {
                        attempt += 1;
                        self.counters.retries.inc();
                        std::thread::sleep(self.cfg.backoff * (1u32 << (attempt - 1).min(16)));
                        continue;
                    }
                    return Err(ClusterError::Rpc { shard, error: e });
                }
            }
        }
    }

    /// One counted call on shard `s`'s live endpoint. A dead slot fails
    /// immediately with [`RpcError::Closed`] (no attempt is made, so no
    /// counters move); an endpoint that turns out to be closed is
    /// reaped, marking the slot dead for [`Self::dead_shards`].
    fn call_shard(&self, s: usize, req: &ShardRequest) -> Result<ShardResponse, ClusterError> {
        let mut slot = self.lock_slot(s);
        let Some(ep) = slot.endpoint.as_mut() else {
            return Err(ClusterError::Rpc {
                shard: s,
                error: RpcError::Closed,
            });
        };
        let res = self.call_ep(ep.as_mut(), s, req);
        if let Err(ClusterError::Rpc {
            error: RpcError::Closed | RpcError::Timeout,
            ..
        }) = &res
        {
            // Closed: the worker is gone. Timeout (post-retry): the
            // stream may still carry the late response, so it cannot be
            // reused — reap it; the worker rejoins from the last cut.
            if let Some(mut dead) = slot.endpoint.take() {
                dead.shutdown();
            }
        }
        res
    }

    /// Tears down shard `s`'s endpoint (if any live one remains) and
    /// marks the slot dead until a rejoin.
    fn reap(&self, s: usize) {
        if let Some(mut dead) = self.lock_slot(s).endpoint.take() {
            dead.shutdown();
        }
    }

    /// Shards whose endpoint is currently dead (killed, hung, or never
    /// rejoined).
    pub fn dead_shards(&self) -> Vec<usize> {
        (0..self.num_shards)
            .filter(|&s| self.lock_slot(s).endpoint.is_none())
            .collect()
    }

    /// The applied-batch epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// The scoring function the cluster was launched with.
    pub fn scoring(&self) -> &ScoringFunction {
        &self.scoring
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.num_shards
    }

    /// Live records across all shards.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::SeqCst)
    }

    /// Snapshot rolls that failed after their batch was applied (the
    /// previous cut and its suffix stayed authoritative and the cluster
    /// kept accepting writes).
    pub fn snapshot_failures(&self) -> u64 {
        self.snapshot_failures.load(Ordering::SeqCst)
    }

    /// The epoch the newest cut was taken at (0 = the launch
    /// partition); a rejoin folds the batches since into it.
    pub fn snapshot_epoch(&self) -> u64 {
        self.lock_recovery().cut.batches
    }

    /// Restarts shard `s` with one `Load` and at most one `Apply`: the
    /// fresh worker loads its shard of the last cut with every suffix
    /// batch but the last folded in ([`fold_wal`], as durable recovery
    /// folds its WAL), then applies the last batch.
    ///
    /// Returns the epoch and owner outcomes of that last batch (`None`
    /// when the suffix was empty): when [`Self::apply`] loses a shard
    /// mid-broadcast, the batch is already in the suffix, so the rejoin
    /// both catches the fresh worker up *and* recovers the outcomes the
    /// broadcast failed to collect.
    ///
    /// Folding the shard's records alone is exact because placement is
    /// a pure function of `(id, attrs)`: a delete matches only records
    /// of its own shard, and the inserts of other shards are dropped.
    pub fn rejoin(&self, s: usize) -> Result<Option<(u64, Vec<u8>)>, ClusterError> {
        let (epoch, records, last) = {
            let log = self.lock_recovery();
            let (last, folded) = match log.suffix.split_last() {
                Some((last, folded)) => (Some(last.clone()), folded),
                None => (None, &log.suffix[..]),
            };
            let mut records = fold_wal(log.cut.shards[s].clone(), folded);
            records.retain(|r| self.placement.shard_of(r.id, &r.attrs, self.num_shards) == s);
            (log.cut.batches + folded.len() as u64, records, last)
        };
        let mut ep = (self.factory)(s);
        match self.call_ep(ep.as_mut(), s, &self.load_request(s, epoch, records))? {
            ShardResponse::Loaded { .. } => {}
            other => {
                return Err(ClusterError::Rpc {
                    shard: s,
                    error: RpcError::Protocol(format!("expected Loaded, got {other:?}")),
                })
            }
        }
        let mut outcomes = None;
        if let Some(batch) = last {
            let epoch = epoch + 1;
            match self.call_ep(ep.as_mut(), s, &ShardRequest::Apply { epoch, batch })? {
                ShardResponse::Applied { outcomes: o, .. } => outcomes = Some((epoch, o)),
                other => {
                    return Err(ClusterError::Rpc {
                        shard: s,
                        error: RpcError::Protocol(format!("expected Applied, got {other:?}")),
                    })
                }
            }
        }
        self.lock_slot(s).endpoint = Some(ep);
        self.counters.rejoins.inc();
        tracing::event!("rpc_rejoin");
        Ok(outcomes)
    }

    /// Rejoins every dead shard; returns how many came back.
    pub fn rejoin_dead(&self) -> Result<usize, ClusterError> {
        let dead = self.dead_shards();
        for &s in &dead {
            self.rejoin(s)?;
        }
        Ok(dead.len())
    }

    /// Applies one update batch: append it to the suffix first (the
    /// suffix is what a rejoining replica folds), then broadcast to
    /// every worker, then derive the report from the *owner* outcomes.
    ///
    /// Dead shards are rejoined up front so owner outcomes are exact —
    /// this is what keeps `UpdateReport` parity with the in-process
    /// server even after a kill (the in-process dataset never loses a
    /// shard, so the distributed one catches the shard up before
    /// consulting it).
    ///
    /// `Err` means *nothing was applied*: the only fallible step is the
    /// up-front rejoin. Once the batch is
    /// broadcast the call succeeds — the caller's cache must be
    /// reconciled with it — and a snapshot roll that fails afterwards
    /// is counted, not surfaced (see below).
    pub fn apply(&self, updates: &[Update]) -> Result<ClusterApply, ClusterError> {
        self.rejoin_dead()?;
        let wal_batch = wal_batch_from_updates(updates);
        let epoch = {
            let mut log = self.lock_recovery();
            log.suffix.push(wal_batch.clone());
            self.epoch.fetch_add(1, Ordering::SeqCst) + 1
        };

        // Owner outcome per op, gathered across the broadcast. The
        // broadcast never aborts on a per-shard failure: the shards
        // after a failing one must still receive this batch, or they
        // would stay live while silently missing it — permanent
        // divergence no later call could detect (worker epochs would
        // just mirror the next Apply).
        let mut owner_outcomes: Vec<u8> = vec![gir_core::wire::outcome::NONE; updates.len()];
        for s in 0..self.num_shards {
            let resp = self.call_shard(
                s,
                &ShardRequest::Apply {
                    epoch,
                    batch: wal_batch.clone(),
                },
            );
            let outcomes = match resp {
                Ok(ShardResponse::Applied { outcomes, .. }) => Some(outcomes),
                Ok(_) | Err(_) => {
                    // Worker error, protocol violation, or transport
                    // failure: the shard's apply state is unknown (a
                    // worker that failed mid-batch holds a partial
                    // prefix and shuts itself down). Reap it and rejoin
                    // inline — the suffix already holds this batch, so
                    // the rejoin lands the fresh worker exactly at this
                    // boundary and recovers its owner outcomes. If the
                    // rejoin fails too, the shard stays dead (the next
                    // apply rejoins it up front); only its owner
                    // outcomes for this one batch are lost.
                    self.reap(s);
                    match self.rejoin(s) {
                        Ok(Some((e, outcomes))) if e == epoch => Some(outcomes),
                        Ok(_) | Err(_) => None,
                    }
                }
            };
            let Some(outcomes) = outcomes else { continue };
            for (i, &code) in outcomes.iter().enumerate() {
                if code != gir_core::wire::outcome::NONE && code != gir_core::wire::outcome::PURGED
                {
                    owner_outcomes[i] = code;
                }
            }
        }

        let mut report = UpdateReport::default();
        let mut batch = DeltaBatch::new();
        let mut removed_owner: HashMap<u64, BTreeSet<usize>> = HashMap::new();
        for (u, &code) in updates.iter().zip(&owner_outcomes) {
            match u {
                Update::Insert(rec) => {
                    if code == gir_core::wire::outcome::INSERTED {
                        report.inserted += 1;
                        batch.record_insert(rec);
                    }
                }
                Update::Delete { id, attrs } => {
                    if code == gir_core::wire::outcome::DELETED {
                        report.deleted += 1;
                        removed_owner
                            .entry(*id)
                            .or_default()
                            .insert(self.placement.shard_of(*id, attrs, self.num_shards));
                        batch.record_delete_at(*id, attrs);
                    } else {
                        report.missed_deletes += 1;
                    }
                }
            }
        }

        self.records
            .fetch_add(report.inserted as u64, Ordering::SeqCst);
        self.records
            .fetch_sub(report.deleted as u64, Ordering::SeqCst);
        // A snapshot cut needs every worker live; with a shard still
        // dead (its inline rejoin failed above) skip the roll — safe,
        // because the suffix is cleared only by a successful cut, so
        // the previous cut plus the suffix still seed any rejoin. For
        // the same reason a roll that fails (a worker dying on its `Cut`
        // or answering it from the wrong epoch) is not fatal: the batch
        // is applied everywhere that is live, the worker that failed the
        // cut was reaped for the next apply's up-front rejoin, and the
        // next cadence boundary rolls again — the contract
        // `DurableServer` gives a snapshot failure before its commit
        // point.
        if epoch % self.cfg.snapshot_every == 0
            && self.dead_shards().is_empty()
            && self.roll_snapshot(epoch).is_err()
        {
            let total = self.snapshot_failures.fetch_add(1, Ordering::SeqCst) + 1;
            tracing::event!("snapshot_failed", total = total);
        }
        Ok(ClusterApply {
            report,
            batch,
            removed_owner,
        })
    }

    /// Cuts a consistent snapshot at the current batch boundary: it
    /// replaces the held cut, and the suffix it covers is dropped.
    fn roll_snapshot(&self, epoch: u64) -> Result<(), ClusterError> {
        let shards = self.cut_all()?;
        let mut log = self.lock_recovery();
        debug_assert_eq!(log.cut.batches + log.suffix.len() as u64, epoch);
        log.cut = SnapshotState {
            batches: epoch,
            shards,
        };
        log.suffix.clear();
        Ok(())
    }

    /// Per-shard record lists at an identical epoch across all shards —
    /// the distributed consistent cut (every worker sits at a
    /// `DeltaBatch` boundary between `Apply` calls, so equal epochs
    /// prove the cut is a global state; cf. `gir_obs::ShardScopes`).
    ///
    /// A worker that answers from another epoch (or with the wrong
    /// response) has diverged from the batch stream: it is reaped along
    /// with the error, so it cannot keep serving and the next
    /// [`Self::apply`] rejoins it like any other dead shard.
    pub fn cut_all(&self) -> Result<Vec<Vec<Record>>, ClusterError> {
        let want = self.epoch();
        let mut shards = Vec::with_capacity(self.num_shards);
        for s in 0..self.num_shards {
            let diverged = match self.call_shard(s, &ShardRequest::Cut)? {
                ShardResponse::CutState { epoch, records } if epoch == want => {
                    shards.push(records);
                    continue;
                }
                ShardResponse::CutState { epoch, .. } => {
                    ClusterError::Storage(StorageError::Corrupt(format!(
                        "inconsistent cut: shard {s} at epoch {epoch}, coordinator at {want}"
                    )))
                }
                other => ClusterError::Rpc {
                    shard: s,
                    error: RpcError::Protocol(format!("expected CutState, got {other:?}")),
                },
            };
            self.reap(s);
            return Err(diverged);
        }
        Ok(shards)
    }

    /// Global top-k: per-shard `TopK` RPCs merged with the same
    /// `(score desc, id desc)` order as the in-process fan-out.
    pub fn topk(&self, q: &QueryVector, k: usize) -> Result<(TopKResult, u64), GirError> {
        let mut runs: Vec<TopKResult> = Vec::with_capacity(self.num_shards);
        let mut pages = 0u64;
        for s in 0..self.num_shards {
            let req = ShardRequest::TopK {
                weights: q.weights.clone(),
                k: k as u32,
            };
            match self.call_shard(s, &req) {
                Ok(ShardResponse::Ranked { ranked, pages: p }) => {
                    pages += p;
                    runs.push(TopKResult { ranked });
                }
                Ok(other) => {
                    return Err(GirError::ShardUnavailable {
                        shard: s,
                        reason: format!("unexpected response {other:?}"),
                    })
                }
                Err(e) => {
                    return Err(GirError::ShardUnavailable {
                        shard: s,
                        reason: e.to_string(),
                    })
                }
            }
        }
        let ranked = merge_ranked_lists(&runs, k);
        if ranked.is_empty() {
            return Err(GirError::EmptyResult);
        }
        Ok((TopKResult { ranked }, pages))
    }

    /// Global top-k plus its region over RPC: merge, then one `Phase2`
    /// RPC per shard, accumulated in shard order — the distributed
    /// execution of `gir_core::gir_sharded` / `gir_star_sharded`.
    pub fn region(
        &self,
        kind: RegionKind,
        q: &QueryVector,
        k: usize,
        method: Method,
    ) -> Result<GirOutput, GirError> {
        if !method.supports(&self.scoring) {
            return Err(GirError::UnsupportedScoring { method });
        }
        let t0 = Instant::now();
        let (result, topk_pages) = self.topk(q, k)?;
        let topk_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let mut halfspaces: Vec<HalfSpace> = match kind {
            RegionKind::Gir => ordering_halfspaces(&result, &self.scoring),
            RegionKind::GirStar => Vec::new(),
        };
        let mut candidates = 0usize;
        let mut structure_total = 0usize;
        let mut gir_pages = 0u64;
        for s in 0..self.num_shards {
            let req = ShardRequest::Phase2 {
                kind,
                method,
                weights: q.weights.clone(),
                k: k as u32,
                ranked: result.ranked.clone(),
            };
            match self.call_shard(s, &req) {
                Ok(ShardResponse::System {
                    halfspaces: hs,
                    structure,
                    cached: _,
                    pages,
                }) => {
                    candidates += hs.len();
                    structure_total += structure as usize;
                    gir_pages += pages;
                    halfspaces.extend(hs);
                }
                Ok(other) => {
                    return Err(GirError::ShardUnavailable {
                        shard: s,
                        reason: format!("unexpected response {other:?}"),
                    })
                }
                Err(e) => {
                    return Err(GirError::ShardUnavailable {
                        shard: s,
                        reason: e.to_string(),
                    })
                }
            }
        }
        let region = GirRegion::new(self.dim, q.weights.clone(), halfspaces);
        let stats = GirStats {
            topk_ms,
            topk_pages,
            gir_cpu_ms: t1.elapsed().as_secs_f64() * 1e3,
            gir_pages,
            candidates,
            structure_size: structure_total,
            halfspaces: region.num_halfspaces(),
        };
        Ok(GirOutput {
            result,
            region,
            stats,
        })
    }

    /// Shuts every worker down (best-effort).
    pub fn shutdown(&self) {
        for s in 0..self.num_shards {
            if let Some(mut ep) = self.lock_slot(s).endpoint.take() {
                ep.shutdown();
            }
        }
    }
}

impl Drop for RemoteShards {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The repair sweeps of `gir_shard`'s cache-maintenance algorithms,
/// executed worker-side over RPC: the coordinator's repair logic
/// ([`gir_shard::repair_region_sharded_with`]) runs unchanged, each FP
/// sweep becoming one `RepairSweep` RPC to the owning shard. Any RPC
/// failure declines the sweep (`None`), which evicts the entry —
/// sound, merely non-maximal, exactly like a declined in-process sweep.
impl RepairSweeps for RemoteShards {
    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn shard_of(&self, id: u64, attrs: &PointD) -> usize {
        self.placement.shard_of(id, attrs, self.num_shards)
    }

    fn fp_sweep(
        &self,
        shard: usize,
        _scoring: &ScoringFunction,
        result: &TopKResult,
        interim: &[HalfSpace],
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>> {
        let req = ShardRequest::RepairSweep {
            ranked: result.ranked.clone(),
            interim: interim.to_vec(),
            seeds: seeds.to_vec(),
        };
        match self.call_shard(shard, &req) {
            Ok(ShardResponse::Swept { halfspaces }) => halfspaces,
            _ => None,
        }
    }

    fn fp_star_sweep(
        &self,
        shard: usize,
        _scoring: &ScoringFunction,
        result: &TopKResult,
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>> {
        let req = ShardRequest::RepairStarSweep {
            ranked: result.ranked.clone(),
            seeds: seeds.to_vec(),
        };
        match self.call_shard(shard, &req) {
            Ok(ShardResponse::Swept { halfspaces }) => halfspaces,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::ThreadEndpoint;
    use crate::testkit::records;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Arc, Mutex};

    /// A worker whose `Cut` claims the previous epoch while `armed`.
    struct StaleCut {
        inner: ThreadEndpoint,
        armed: Arc<AtomicBool>,
    }

    impl ShardEndpoint for StaleCut {
        fn call(&mut self, req: &ShardRequest, t: Duration) -> Result<ShardResponse, RpcError> {
            match self.inner.call(req, t)? {
                ShardResponse::CutState { epoch, records }
                    if self.armed.swap(false, Ordering::SeqCst) =>
                {
                    Ok(ShardResponse::CutState {
                        epoch: epoch - 1,
                        records,
                    })
                }
                resp => Ok(resp),
            }
        }

        fn shutdown(&mut self) {
            self.inner.shutdown();
        }
    }

    #[test]
    fn cut_from_the_wrong_epoch_reaps_the_shard_and_the_next_apply_repairs_it() {
        let data = records(200, 3, 0xC07);
        let armed = Arc::new(AtomicBool::new(false));
        let factory: EndpointFactory = {
            let armed = armed.clone();
            Box::new(move |s| {
                let inner = ThreadEndpoint::spawn();
                if s == 1 {
                    let armed = armed.clone();
                    Box::new(StaleCut { inner, armed })
                } else {
                    Box::new(inner)
                }
            })
        };
        let cluster = RemoteShards::launch(
            ScoringFunction::linear(3),
            Placement::Hash,
            2,
            &data,
            RemoteConfig {
                snapshot_every: 1,
                ..RemoteConfig::default()
            },
            factory,
        )
        .unwrap();
        let insert = |id: u64| [Update::Insert(Record::new(id, vec![0.5, 0.5, 0.5]))];

        // The batch lands; the roll that follows meets a diverged cut.
        armed.store(true, Ordering::SeqCst);
        assert_eq!(cluster.apply(&insert(900_001)).unwrap().report.inserted, 1);
        assert_eq!(cluster.snapshot_failures(), 1);
        assert_eq!(cluster.snapshot_epoch(), 0);
        assert_eq!(cluster.dead_shards(), vec![1], "diverged shard kept live");

        // The next apply rejoins shard 1 from the cut + suffix and rolls.
        assert_eq!(cluster.apply(&insert(900_002)).unwrap().report.inserted, 1);
        assert!(cluster.dead_shards().is_empty());
        assert_eq!(cluster.snapshot_failures(), 1);
        assert_eq!(cluster.snapshot_epoch(), 2);
        let live: usize = cluster.cut_all().unwrap().iter().map(Vec::len).sum();
        assert_eq!(live, data.len() + 2);
    }

    /// Logs every request kind a shard's endpoints receive.
    struct Recording {
        inner: ThreadEndpoint,
        shard: usize,
        log: Arc<Mutex<Vec<(usize, &'static str)>>>,
    }

    impl ShardEndpoint for Recording {
        fn call(&mut self, req: &ShardRequest, t: Duration) -> Result<ShardResponse, RpcError> {
            let kind = match req {
                ShardRequest::Load { .. } => "Load",
                ShardRequest::Apply { .. } => "Apply",
                ShardRequest::Cut => "Cut",
                _ => "other",
            };
            self.log.lock().unwrap().push((self.shard, kind));
            self.inner.call(req, t)
        }

        fn shutdown(&mut self) {
            self.inner.shutdown();
        }
    }

    /// A shard's records as a sorted multiset key.
    fn multiset(records: &[Record]) -> Vec<(u64, Vec<u64>)> {
        let mut key: Vec<(u64, Vec<u64>)> = records
            .iter()
            .map(|r| (r.id, r.attrs.coords().iter().map(|x| x.to_bits()).collect()))
            .collect();
        key.sort();
        key
    }

    #[test]
    fn rejoin_folds_the_suffix_into_one_load_and_one_apply() {
        const S: usize = 3;
        let t = 1;
        let data = records(200, 3, 0x4E30);
        let log = Arc::new(Mutex::new(Vec::new()));
        let factory: EndpointFactory = {
            let log = log.clone();
            Box::new(move |shard| {
                Box::new(Recording {
                    inner: ThreadEndpoint::spawn(),
                    shard,
                    log: log.clone(),
                })
            })
        };
        let cluster = RemoteShards::launch(
            ScoringFunction::linear(3),
            Placement::Hash,
            S,
            &data,
            RemoteConfig {
                snapshot_every: 1000,
                ..RemoteConfig::default()
            },
            factory,
        )
        .unwrap();
        // Two records of the cut on shard t; hash placement reads only
        // the id, so a re-insert under new attributes stays on t.
        let mut on_t = data
            .iter()
            .filter(|r| Placement::Hash.shard_of(r.id, &r.attrs, S) == t);
        let (gone, again) = (on_t.next().unwrap(), on_t.next().unwrap());
        let delete = |r: &Record| Update::Delete {
            id: r.id,
            attrs: r.attrs.clone(),
        };
        let fresh = |id: u64| Update::Insert(Record::new(id, vec![0.3, 0.6, 0.4]));
        let batches = [
            vec![delete(gone), fresh(900_000), fresh(900_001), fresh(900_002)],
            vec![delete(again), fresh(900_003)],
            vec![
                Update::Insert(Record::new(again.id, vec![0.9, 0.1, 0.5])),
                fresh(900_004),
                fresh(900_005),
            ],
            vec![fresh(900_006), delete(gone)],
        ];
        for b in &batches {
            cluster.apply(b).unwrap();
        }
        assert_eq!(cluster.lock_recovery().suffix.len(), batches.len());
        let before = cluster.cut_all().unwrap();

        cluster.reap(t);
        log.lock().unwrap().clear();
        let (epoch, outcomes) = cluster.rejoin(t).unwrap().expect("a non-empty suffix");
        assert_eq!(epoch, batches.len() as u64);
        assert_eq!(outcomes.len(), batches[3].len());
        assert_eq!(*log.lock().unwrap(), vec![(t, "Load"), (t, "Apply")]);

        let after = cluster.cut_all().unwrap();
        assert!(before[t].iter().all(|r| r.id != gone.id));
        assert!(before[t].iter().any(|r| r.id == again.id));
        assert_eq!(multiset(&after[t]), multiset(&before[t]));
    }

    #[test]
    fn suffix_never_outgrows_the_cut_cadence() {
        let every = 4;
        let data = records(120, 3, 0x5CF);
        let cluster = RemoteShards::launch(
            ScoringFunction::linear(3),
            Placement::Hash,
            3,
            &data,
            RemoteConfig {
                snapshot_every: every,
                ..RemoteConfig::default()
            },
            Box::new(|_| Box::new(ThreadEndpoint::spawn())),
        )
        .unwrap();
        for b in 0..100u64 {
            let victim = &data[b as usize];
            cluster
                .apply(&[
                    Update::Insert(Record::new(800_000 + b, vec![0.2, 0.4, 0.7])),
                    Update::Delete {
                        id: victim.id,
                        attrs: victim.attrs.clone(),
                    },
                ])
                .unwrap();
            let log = cluster.lock_recovery();
            assert!(log.suffix.len() as u64 <= every, "batch {b}");
            assert_eq!(log.cut.batches + log.suffix.len() as u64, b + 1);
        }
        assert!(cluster.dead_shards().is_empty());
        assert_eq!(cluster.snapshot_epoch(), 100);
        assert_eq!(cluster.records(), data.len() as u64);
    }
}

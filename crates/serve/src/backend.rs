//! The seam between the serve core and a tier's dataset.
//!
//! [`crate::Server`] owns everything the tiers share — region cache,
//! planner, scoring, batch executor, update tail. What they differ on
//! is the five operations of [`ShardBackend`]: how many records are
//! live, what a consistent cut returns, how one miss is computed, how
//! one update batch lands, and how one cached entry is repaired. This
//! module also holds the single-tree implementation ([`SingleTree`])
//! and the one planned-miss routine the in-process backends share
//! ([`planned_miss`]).

use crate::server::{TopKRequest, Update, UpdateReport};
use gir_core::plan::{Decision, MissPath, PlanInputs, Planner};
use gir_core::{
    repair_region, repair_region_star, DeltaBatch, GirEngine, GirError, GirOutput, GirRegion,
    Method, PruneIndex, RegionKind, RepairRequest, ShardView,
};
use gir_query::{QueryVector, Record, ScoringFunction};
use gir_rtree::{RTree, RTreeError};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Owner shards of every delete a batch applied, keyed by record id — a
/// set per id, since duplicate ids may be deleted at locations owned by
/// different shards within one batch. Scopes shard-local repair sweeps.
pub type RemovedOwners = HashMap<u64, BTreeSet<usize>>;

/// What a backend did with one update batch.
#[derive(Default)]
pub struct Applied {
    /// `inserted` / `deleted` / `missed_deletes`; the core fills the
    /// cache fields from its reconciliation pass.
    pub report: UpdateReport,
    /// Every mutation the dataset took — including the prefix applied
    /// before `failure`, which the cache must still reconcile with.
    pub batch: DeltaBatch,
    /// Owner shards of the applied deletes (left empty by backends
    /// whose repair does not need them).
    pub removed_owner: RemovedOwners,
    /// The error that cut the batch short, surfaced by the core only
    /// *after* the cache is reconciled with `batch`.
    pub failure: Option<RTreeError>,
}

/// The dataset under a [`crate::Server`]: one tree, S in-process trees,
/// or S remote workers.
pub trait ShardBackend: Send + Sync {
    /// Live records across all shards.
    fn num_records(&self) -> u64;

    /// Per-shard record lists at a batch boundary (the core calls this
    /// under the dataset read lock, so no update is half-applied).
    fn shard_records(&self) -> Result<Vec<Vec<Record>>, RTreeError>;

    /// Computes one cache miss: top-k plus region for `req` under the
    /// effective `method`. In-process backends route through
    /// [`planned_miss`]; a backend with a single feasible plan ignores
    /// `planner`.
    fn miss(
        &self,
        planner: &Planner,
        scoring: &ScoringFunction,
        method: Method,
        q: &QueryVector,
        req: &TopKRequest,
    ) -> Result<GirOutput, GirError>;

    /// Applies one update batch. Never short-circuits the caller: an
    /// error travels in [`Applied::failure`] next to the deltas that
    /// did land.
    fn apply(&mut self, updates: &[Update]) -> Applied;

    /// Rebuilds one cached entry's region after the batch deleted some
    /// of its facet contributors; `None` declines (the entry stays
    /// sound but non-maximal). Only called for linear scoring.
    fn repair(&self, req: &RepairRequest<'_>, removed_owner: &RemovedOwners) -> Option<GirRegion>;
}

/// Annotates an open EXPLAIN `planner` span with one decision: the
/// chosen path plus every alternative's estimate in microseconds
/// (infeasible paths omitted).
fn record_planner_phase(span: &mut tracing::Span, decision: &Decision) {
    span.record("path", decision.path.label());
    span.record("forced", decision.forced);
    span.record("probe", decision.probe);
    span.record("predicted_us", decision.predicted_ns / 1e3);
    for p in MissPath::ALL {
        let est = decision.estimate(p);
        if est.is_finite() {
            let key = match p {
                MissPath::Cold => "cold_us",
                MissPath::IndexedRecompute => "indexed_recompute_us",
                MissPath::IndexedReuse => "indexed_reuse_us",
                MissPath::Sharded => "sharded_us",
            };
            span.record(key, est / 1e3);
        }
    }
}

/// One planned miss over in-process shards: ask the [`Planner`] for the
/// cheapest path, record the decision (EXPLAIN `planner` phase +
/// `planner.*` counters), dispatch it, and feed the measured latency
/// back into the cost model.
///
/// With more than one view the planner can only pick the sharded
/// fan-out (the decision is still recorded, so the phase taxonomy is
/// uniform); a single view is a plain tree + index pair and opens the
/// full cold / indexed / sharded choice.
pub fn planned_miss(
    views: &[ShardView<'_>],
    planner: &Planner,
    scoring: &ScoringFunction,
    method: Method,
    q: &QueryVector,
    req: &TopKRequest,
) -> Result<GirOutput, GirError> {
    // The span opens before input gathering so the planning work itself
    // is accounted to the `planner` phase, not lost between phases (the
    // EXPLAIN report asserts phases cover the latency).
    let mut planner_span = tracing::span!("planner");
    let inputs = PlanInputs {
        n: views.iter().map(|v| v.tree.len()).sum::<u64>() as usize,
        d: scoring.dim(),
        method,
        kind: req.kind,
        skyline: views.iter().map(|v| v.index.stats().skyline_size).sum(),
        index_built: views.iter().any(|v| v.index.is_built()),
        shards: views.len(),
    };
    let decision = planner.plan(&inputs);
    record_planner_phase(&mut planner_span, &decision);
    drop(planner_span);
    if decision.forced && decision.path == MissPath::IndexedRecompute {
        // A *forced* recompute must measure the cold-Phase-2 cost in
        // isolation (the same technique the cold_gir bench uses), so
        // the shared systems are dropped before dispatch. The adaptive
        // planner never clears: an `IndexedRecompute` prediction just
        // means it expects the lookup to miss.
        for v in views {
            v.index.clear_phase2();
        }
    }
    // Whether the dispatch actually reused a Phase-2 system is read off
    // the indexes' hit counters around the call. Concurrent requests
    // can interleave their deltas — acceptable noise for calibration,
    // and exact under `threads: 1`.
    let watch_reuse = decision.path != MissPath::Cold && method != Method::FullScan;
    let phase2_hits = || -> u64 { views.iter().map(|v| v.index.phase2_hits()).sum() };
    let h0 = watch_reuse.then(phase2_hits);
    let compute_span = tracing::span!(
        "compute",
        method = method.label(),
        path = decision.path.label()
    );
    let t0 = Instant::now();
    let computed = match (decision.path, req.kind) {
        (MissPath::Sharded, RegionKind::Gir) => {
            GirEngine::gir_sharded(views, scoring, q, req.k, method)
        }
        (MissPath::Sharded, RegionKind::GirStar) => {
            GirEngine::gir_star_sharded(views, scoring, q, req.k, method)
        }
        // Single-tree paths: the planner marks them infeasible unless
        // the first view holds the whole dataset.
        (path, kind) => {
            let ShardView { tree, index } = views[0];
            let engine = GirEngine::with_scoring(tree, scoring.clone());
            match (path, kind) {
                (MissPath::Cold, RegionKind::Gir) => engine.gir(q, req.k, method),
                (MissPath::Cold, RegionKind::GirStar) => engine.gir_star(q, req.k, method),
                (_, RegionKind::Gir) => engine.gir_indexed(q, req.k, method, index),
                (_, RegionKind::GirStar) => engine.gir_star_indexed(q, req.k, method, index),
            }
        }
    };
    let actual_ns = t0.elapsed().as_nanos() as u64;
    drop(compute_span);
    // Feeding the measured latency back is real per-miss work (model
    // update + counter publishes); it gets its own phase so EXPLAIN
    // shows the calibrator's cost explicitly.
    let calibrate_span = tracing::span!("calibrate", actual_us = actual_ns as f64 / 1e3);
    let reused = h0.map(|h| phase2_hits() > h);
    let outcome = planner.observe(&decision, actual_ns, reused);
    if tracing::enabled() {
        crate::stats::publish_planner_decision(&decision, actual_ns, outcome);
    }
    drop(calibrate_span);
    computed
}

/// The single-tree backend: one R\*-tree and its [`PruneIndex`] — the
/// one-view case of the sharded plan.
pub struct SingleTree {
    tree: RTree,
    prune: PruneIndex,
}

impl SingleTree {
    /// Wraps `tree` with a fresh (lazily built) prune index.
    pub fn new(tree: RTree) -> Self {
        SingleTree {
            tree,
            prune: PruneIndex::new(),
        }
    }

    /// The tree's prune index (skyline, mirror, shared Phase-2
    /// systems).
    pub fn prune(&self) -> &PruneIndex {
        &self.prune
    }
}

impl ShardBackend for SingleTree {
    fn num_records(&self) -> u64 {
        self.tree.len()
    }

    fn shard_records(&self) -> Result<Vec<Vec<Record>>, RTreeError> {
        Ok(vec![self.tree.scan_all()?])
    }

    fn miss(
        &self,
        planner: &Planner,
        scoring: &ScoringFunction,
        method: Method,
        q: &QueryVector,
        req: &TopKRequest,
    ) -> Result<GirOutput, GirError> {
        let view = ShardView {
            tree: &self.tree,
            index: &self.prune,
        };
        planned_miss(&[view], planner, scoring, method, q, req)
    }

    fn apply(&mut self, updates: &[Update]) -> Applied {
        let mut out = Applied::default();
        for u in updates {
            match u {
                Update::Insert(rec) => match self.tree.insert(rec.clone()) {
                    Ok(()) => {
                        self.prune.on_insert(rec);
                        out.report.inserted += 1;
                        out.batch.record_insert(rec);
                    }
                    Err(e) => out.failure = Some(e),
                },
                Update::Delete { id, attrs } => match self.tree.delete(*id, attrs) {
                    Ok(true) => {
                        // Record the applied delete *before* surfacing
                        // a prune-index failure: the tree is already
                        // mutated (the index invalidated itself).
                        out.report.deleted += 1;
                        out.batch.record_delete_at(*id, attrs);
                        if let Err(e) = self.prune.on_delete(&self.tree, *id, attrs) {
                            out.failure = Some(e);
                        }
                    }
                    Ok(false) => out.report.missed_deletes += 1,
                    Err(e) => out.failure = Some(e),
                },
            }
            if out.failure.is_some() {
                break;
            }
        }
        out
    }

    fn repair(&self, req: &RepairRequest<'_>, _removed_owner: &RemovedOwners) -> Option<GirRegion> {
        let repair = match req.kind {
            RegionKind::Gir => repair_region,
            RegionKind::GirStar => repair_region_star,
        };
        repair(
            &self.tree,
            req.scoring,
            req.result,
            req.region,
            req.removed,
            req.shrinks,
        )
        .ok()
    }
}

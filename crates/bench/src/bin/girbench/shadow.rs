//! The shadow pipelines: each tier's serve loop re-assembled from the
//! layers' public functions, with one span around every call. The one
//! file that names inner-layer functions.
//!
//! A shadow does the same work in the same order as the server it
//! stands in for (cache probe → planner → miss → calibrate → admit for
//! a query; log → tree → prune index → cache reconciliation for an
//! update batch), so its spans are a ledger of where an op's time goes.
//! Its answers go through the same oracle as the real servers'.
//!
//! Where a public call is opaque (`gir_indexed`, `gir_sharded`,
//! `RemoteShards::region`) it is one span; its parts are re-run on the
//! same input as sibling *probe* spans, flagged and left out of sums.

use crate::engines::{bulk_tree, CACHE_SHARDS, CACHE_SHARD_CAPACITY, DATA_SHARDS, SNAPSHOT_EVERY};
use crate::measure::{Answer, Target};
use crate::trace::Tracer;
use crate::workloads::EngineKind;
use gir_core::phase1::ordering_halfspaces;
use gir_core::plan::{MissPath, PlanInputs, Planner};
use gir_core::{
    merge_ranked_lists, repair_region, repair_region_star, shard_gir_system, CacheKey, DeltaBatch,
    GirEngine, GirError, GirOutput, GirPhase2Ctx, GirRegion, Method, PruneIndex, RegionKind,
    ShardRequest, ShardResponse, ShardView, SnapshotState, TreeMirror, WalBatch,
};
use gir_geometry::lp::{improves_somewhere, ConsView};
use gir_geometry::vector::PointD;
use gir_query::{QueryVector, Record, ScoringFunction, TopKResult};
use gir_rpc::{placement_tag, RemoteConfig, RemoteShards, ShardEndpoint, ShardWorker, UdsEndpoint};
use gir_rtree::RTree;
use gir_serve::{
    updates_from_wal_batch, wal_batch_from_updates, ShardedGirCache, TopKRequest, Update,
    UpdateReport,
};
use gir_shard::{
    repair_region_sharded, repair_region_sharded_with, repair_region_star_sharded,
    repair_region_star_sharded_with, Placement, ShardedDataset,
};
use gir_storage::wal::WAL_HEADER;
use gir_storage::{read_snapshot, write_snapshot, FsDir, FsyncPolicy, LogDir, Wal};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// In-process pipelines probe one miss in this many.
const PROBE_EVERY: u64 = 8;
/// Admitted regions kept for the classify probe.
const CLASSIFY_RING: usize = 32;
const METHOD: Method = Method::FacetPruning;
const RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Exact tallies a shadow keeps next to its spans.
#[derive(Debug, Default, Clone)]
pub struct Tallies {
    pub misses: u64,
    /// Misses dispatched through a prune index, and how many of those
    /// found their Phase-2 system cached.
    pub indexed_misses: u64,
    pub reused_misses: u64,
    /// Summed `core.engine.miss` time of the indexed misses that had to
    /// recompute Phase 2.
    pub recompute_ns: u64,
    pub mirror_builds: u64,
    pub update_ops: u64,
    pub wal_bytes: u64,
    /// Request plus response frame bytes of the probed misses.
    pub wire_bytes: u64,
    pub wire_misses: u64,
}

/// State every tier's serve loop has: the region cache and what the
/// probes need.
struct Front {
    d: usize,
    scoring: ScoringFunction,
    cache: ShardedGirCache,
    recent: VecDeque<(GirRegion, TopKResult, RegionKind)>,
    tallies: Tallies,
}

impl Front {
    fn new(d: usize) -> Front {
        Front {
            d,
            scoring: ScoringFunction::linear(d),
            cache: ShardedGirCache::new(CACHE_SHARDS, CACHE_SHARD_CAPACITY),
            recent: VecDeque::new(),
            tallies: Tallies::default(),
        }
    }

    /// Probes the cache; on a hit closes the op and returns the answer.
    fn lookup(&self, t: &mut Tracer, root: u32, req: &TopKRequest) -> Option<Answer> {
        let key = CacheKey::new(&req.weights, req.k, &self.scoring).kind(req.kind);
        let s = t.now();
        let found = self.cache.get(&key);
        t.finish("serve.cache.get", root, s);
        found.map(|records| {
            t.close(root);
            Answer {
                ids: records.iter().map(|r| r.id).collect(),
                from_cache: true,
                failed: false,
            }
        })
    }

    /// Admits a computed miss and answers it; `probe` runs on the
    /// probed misses with a copy of what was admitted.
    fn admit(
        &mut self,
        t: &mut Tracer,
        root: u32,
        req: &TopKRequest,
        computed: Result<GirOutput, GirError>,
        probe_every: u64,
        probe: impl FnOnce(&mut Tracer, &GirRegion, &TopKResult),
    ) -> Answer {
        let answer = match computed {
            Ok(out) => {
                let ids = out.result.ids();
                self.tallies.misses += 1;
                let probing = t.is_on() && self.tallies.misses.is_multiple_of(probe_every);
                let kept = probing.then(|| (out.region.clone(), out.result.clone()));
                let key = CacheKey::new(&req.weights, req.k, &self.scoring).kind(req.kind);
                let s = t.now();
                self.cache.admit(&key, out.region, out.result);
                t.finish("serve.cache.admit", root, s);
                if let Some((region, result)) = kept {
                    let p0 = t.now();
                    probe(t, &region, &result);
                    self.probe_phase1_and_lp(t, root, &region, &result);
                    t.add_probe_time(p0);
                    if self.recent.len() == CLASSIFY_RING {
                        self.recent.pop_front();
                    }
                    self.recent.push_back((region, result, req.kind));
                }
                Answer {
                    ids,
                    from_cache: false,
                    failed: false,
                }
            }
            // An empty dataset serves an empty result.
            Err(GirError::EmptyResult) => Answer {
                ids: Vec::new(),
                from_cache: false,
                failed: false,
            },
            Err(_) => Answer {
                ids: Vec::new(),
                from_cache: false,
                failed: true,
            },
        };
        t.close(root);
        answer
    }

    fn probe_phase1_and_lp(
        &self,
        t: &mut Tracer,
        root: u32,
        region: &GirRegion,
        result: &TopKResult,
    ) {
        let s = t.now();
        black_box(ordering_halfspaces(result, &self.scoring));
        t.finish_probe("core.phase1", root, s);
        // The LP a competitive insert would cost this region: a rival of
        // p_k better on one axis and worse on another, so neither fast
        // path of the classifier applies.
        let kth = result.kth();
        let mut rival = kth.attrs.coords().to_vec();
        rival[0] = (rival[0] + 0.05).min(1.0);
        rival[1] = (rival[1] - 0.05).max(0.0);
        let objective = PointD::new(rival).sub(&kth.attrs);
        let s = t.now();
        black_box(improves_somewhere(
            &objective,
            ConsView::Half(&region.halfspaces),
            0.0,
            1.0,
            1e-9,
        ));
        t.finish_probe("geometry.lp.call", root, s);
    }

    /// Reconciles the cache with `batch`; every repair the cache asks
    /// for becomes a child span of the `apply_batch` span.
    fn reconcile(
        &mut self,
        t: &mut Tracer,
        root: u32,
        batch: &DeltaBatch,
        report: &mut UpdateReport,
        repair: impl Fn(&gir_core::RepairRequest<'_>) -> Option<GirRegion> + Sync,
    ) {
        let clock = t.clock();
        let repairs: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        let s = t.now();
        let outcome = self.cache.apply_batch(batch, |req| {
            let began = clock();
            let rebuilt = repair(req);
            repairs
                .lock()
                .expect("repair log lock")
                .push((began, clock()));
            rebuilt
        });
        let apply = t.finish("serve.cache.apply_batch", root, s);
        for (began, ended) in repairs.into_inner().expect("repair log lock") {
            t.child("core.maintenance.repair", apply, began, ended);
        }
        report.evicted = outcome.evicted;
        report.repaired = outcome.repaired;
        report.shrunk = outcome.shrunk;
        report.untouched = outcome.untouched;

        // What classifying one cached entry against this batch costs,
        // on the regions this shadow admitted last.
        if t.is_on() {
            let p0 = t.now();
            for (region, result, kind) in &self.recent {
                let s = t.now();
                black_box(batch.classify_kind(region, result, &self.scoring, *kind));
                t.finish_probe("core.maintenance.classify", root, s);
            }
            t.add_probe_time(p0);
        }
    }
}

fn snap_name(generation: u64) -> String {
    format!("snap-{generation:016x}")
}

fn wal_name(generation: u64) -> String {
    format!("wal-{generation:016x}")
}

/// The shadow's own write-ahead log and snapshot generations, in its
/// own directory: the storage layer called the way the durability tier
/// calls it (`FsyncPolicy::Always`, a snapshot every 64 batches).
struct Log {
    dir: Box<dyn LogDir>,
    wal: Wal,
    generation: u64,
    batches: u64,
    since_snapshot: u64,
}

impl Log {
    fn create(path: &Path, tree: &RTree) -> Log {
        let dir: Box<dyn LogDir> =
            Box::new(FsDir::new(path).expect("open the shadow log directory"));
        let payload = SnapshotState {
            batches: 0,
            shards: vec![tree.scan_all().expect("scan an in-memory tree")],
        }
        .encode();
        write_snapshot(dir.as_ref(), &snap_name(0), &payload).expect("write snapshot 0");
        let file = dir.create(&wal_name(0)).expect("create wal 0");
        Log {
            dir,
            wal: Wal::create(file, FsyncPolicy::Always),
            generation: 0,
            batches: 0,
            since_snapshot: 0,
        }
    }

    fn roll(&mut self, tree: &RTree) -> Result<(), String> {
        let cut = tree.scan_all().map_err(|e| e.to_string())?;
        let payload = SnapshotState {
            batches: self.batches,
            shards: vec![cut],
        }
        .encode();
        let next = self.generation + 1;
        write_snapshot(self.dir.as_ref(), &snap_name(next), &payload).map_err(|e| e.to_string())?;
        let file = self
            .dir
            .create(&wal_name(next))
            .map_err(|e| e.to_string())?;
        self.wal = Wal::create(file, FsyncPolicy::Always);
        let _ = self.dir.remove(&snap_name(self.generation));
        let _ = self.dir.remove(&wal_name(self.generation));
        self.generation = next;
        self.since_snapshot = 0;
        Ok(())
    }
}

/// `GirServer` (and, with a log, `DurableServer<GirServer>`) from parts.
struct Single {
    front: Front,
    tree: RTree,
    prune: PruneIndex,
    planner: Planner,
    log: Option<Log>,
    /// The tree changed since the decoded mirror was last fetched.
    mirror_stale: bool,
}

impl Single {
    fn new(d: usize, tree: RTree, log_dir: Option<&Path>) -> Single {
        let log = log_dir.map(|p| Log::create(p, &tree));
        Single {
            front: Front::new(d),
            tree,
            prune: PruneIndex::new(),
            planner: Planner::with_forced(None),
            log,
            mirror_stale: true,
        }
    }

    fn query(&mut self, t: &mut Tracer, req: &TopKRequest) -> Answer {
        let root = t.open("query");
        if let Some(hit) = self.front.lookup(t, root, req) {
            return hit;
        }
        let q = QueryVector::new(req.weights.coords().to_vec());
        let s = t.now();
        let decision = self.planner.plan(&PlanInputs {
            n: self.tree.len() as usize,
            d: self.front.d,
            method: METHOD,
            kind: req.kind,
            skyline: self.prune.stats().skyline_size,
            index_built: self.prune.is_built(),
            shards: 1,
        });
        t.finish("core.plan.plan", root, s);

        let indexed = decision.path != MissPath::Cold;
        if indexed && self.mirror_stale {
            // The first indexed miss after an update batch decodes the
            // whole tree again; fetched here so it is its own span
            // rather than a lump inside the miss.
            let s = t.now();
            let built = self
                .prune
                .snapshot(&self.tree)
                .and_then(|state| state.mirror(&self.tree));
            t.finish("core.mirror.build", root, s);
            self.mirror_stale = built.is_err();
            self.front.tallies.mirror_builds += 1;
        }
        let hits_before = indexed.then(|| self.prune.phase2_hits());
        let engine = GirEngine::with_scoring(&self.tree, self.front.scoring.clone());
        let s = t.now();
        let began = Instant::now();
        let computed = match (decision.path, req.kind) {
            (MissPath::Cold, RegionKind::Gir) => engine.gir(&q, req.k, METHOD),
            (MissPath::Cold, RegionKind::GirStar) => engine.gir_star(&q, req.k, METHOD),
            (MissPath::Sharded, kind) => {
                let view = [ShardView {
                    tree: &self.tree,
                    index: &self.prune,
                }];
                match kind {
                    RegionKind::Gir => {
                        GirEngine::gir_sharded(&view, &self.front.scoring, &q, req.k, METHOD)
                    }
                    RegionKind::GirStar => {
                        GirEngine::gir_star_sharded(&view, &self.front.scoring, &q, req.k, METHOD)
                    }
                }
            }
            (_, RegionKind::Gir) => engine.gir_indexed(&q, req.k, METHOD, &self.prune),
            (_, RegionKind::GirStar) => engine.gir_star_indexed(&q, req.k, METHOD, &self.prune),
        };
        let actual_ns = began.elapsed().as_nanos() as u64;
        t.finish("core.engine.miss", root, s);

        let s = t.now();
        let reused = hits_before.map(|h| self.prune.phase2_hits() > h);
        self.planner.observe(&decision, actual_ns, reused);
        t.finish("core.plan.observe", root, s);
        match reused {
            Some(true) => {
                self.front.tallies.indexed_misses += 1;
                self.front.tallies.reused_misses += 1;
            }
            Some(false) => {
                self.front.tallies.indexed_misses += 1;
                self.front.tallies.recompute_ns += actual_ns;
            }
            None => {}
        }

        let (tree, prune, stale) = (&self.tree, &self.prune, self.mirror_stale);
        let scoring = self.front.scoring.clone();
        self.front.admit(
            t,
            root,
            req,
            computed,
            PROBE_EVERY,
            |t, _region, _result| {
                // Only over a mirror the pipeline already fetched: a probe
                // must not build what the server would not have built.
                if stale {
                    return;
                }
                if let Ok(mirror) = prune.snapshot(tree).and_then(|st| st.mirror(tree)) {
                    let s = t.now();
                    black_box(mirror.topk(&scoring, &req.weights, req.k));
                    t.finish_probe("core.mirror.topk", root, s);
                }
            },
        )
    }

    fn update(&mut self, t: &mut Tracer, updates: &[Update]) -> Result<UpdateReport, String> {
        let root = t.open("update");
        if let Some(log) = &mut self.log {
            let s = t.now();
            let payload = wal_batch_from_updates(updates).encode();
            t.finish("core.wire.walbatch_encode", root, s);
            let s = t.now();
            let appended = log.wal.append(&payload);
            t.finish("storage.wal.append", root, s);
            appended.map_err(|e| e.to_string())?;
            self.front.tallies.wal_bytes += (payload.len() + WAL_HEADER) as u64;
        }
        let mut batch = DeltaBatch::new();
        let mut report = UpdateReport::default();
        for u in updates {
            match u {
                Update::Insert(rec) => {
                    let s = t.now();
                    let inserted = self.tree.insert(rec.clone());
                    t.finish("rtree.insert", root, s);
                    inserted.map_err(|e| e.to_string())?;
                    let s = t.now();
                    self.prune.on_insert(rec);
                    t.finish("core.prune.on_insert", root, s);
                    report.inserted += 1;
                    batch.record_insert(rec);
                }
                Update::Delete { id, attrs } => {
                    let s = t.now();
                    let found = self.tree.delete(*id, attrs);
                    t.finish("rtree.delete", root, s);
                    if found.map_err(|e| e.to_string())? {
                        report.deleted += 1;
                        batch.record_delete_at(*id, attrs);
                        let s = t.now();
                        let absorbed = self.prune.on_delete(&self.tree, *id, attrs);
                        t.finish("core.prune.on_delete", root, s);
                        absorbed.map_err(|e| e.to_string())?;
                    } else {
                        report.missed_deletes += 1;
                    }
                }
            }
        }
        self.mirror_stale = true;
        self.front.tallies.update_ops += updates.len() as u64;
        let tree = &self.tree;
        self.front
            .reconcile(t, root, &batch, &mut report, |req| match req.kind {
                RegionKind::Gir => repair_region(
                    tree,
                    req.scoring,
                    req.result,
                    req.region,
                    req.removed,
                    req.shrinks,
                )
                .ok(),
                RegionKind::GirStar => repair_region_star(
                    tree,
                    req.scoring,
                    req.result,
                    req.region,
                    req.removed,
                    req.shrinks,
                )
                .ok(),
            });
        if let Some(log) = &mut self.log {
            log.batches += 1;
            log.since_snapshot += 1;
            if log.since_snapshot >= SNAPSHOT_EVERY {
                let s = t.now();
                let rolled = log.roll(&self.tree);
                t.finish("storage.snapshot.write", root, s);
                rolled?;
            }
        }
        t.close(root);
        Ok(report)
    }

    /// Recovers from the shadow's own log the way the durability tier
    /// does — newest snapshot, then the WAL suffix through the update
    /// path — and times the two halves. `None` without a log.
    fn recovery(&self) -> Option<Recovery> {
        let log = self.log.as_ref()?;
        let began = Instant::now();
        let payload = read_snapshot(log.dir.as_ref(), &snap_name(log.generation)).ok()?;
        let snap = SnapshotState::decode(&payload).ok()?;
        let records: Vec<Record> = snap.shards.into_iter().flatten().collect();
        let tree = bulk_tree(&records);
        let snapshot_us = began.elapsed().as_secs_f64() * 1e6;

        let file = log.dir.open(&wal_name(log.generation)).ok()?;
        let (_wal, payloads, _report) = Wal::open(file, FsyncPolicy::Always).ok()?;
        let mut fresh = Single::new(self.front.d, tree, None);
        let mut off = Tracer::new(false);
        let began = Instant::now();
        for payload in &payloads {
            let batch = WalBatch::decode(payload).ok()?;
            fresh
                .update(&mut off, &updates_from_wal_batch(&batch))
                .ok()?;
        }
        let replay_us = began.elapsed().as_secs_f64() * 1e6;
        let same = {
            let mut a = fresh.tree.scan_all().ok()?;
            let mut b = self.tree.scan_all().ok()?;
            a.sort_by_key(|r| r.id);
            b.sort_by_key(|r| r.id);
            a.len() == b.len()
                && a.iter()
                    .zip(&b)
                    .all(|(x, y)| x.id == y.id && x.attrs == y.attrs)
        };
        Some(Recovery {
            snapshot_us,
            replay_us_per_batch: replay_us / payloads.len().max(1) as f64,
            batches: payloads.len() as u64,
            same_records: same,
        })
    }
}

/// What recovering from a shadow log cost.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    pub snapshot_us: f64,
    pub replay_us_per_batch: f64,
    pub batches: u64,
    /// The recovered tree holds exactly the live tree's records.
    pub same_records: bool,
}

/// `ShardedGirServer` from parts: four trees with their prune indexes
/// behind one cache and planner.
struct Sharded {
    front: Front,
    data: ShardedDataset,
    planner: Planner,
    /// Throw-away indexes the Phase-2 probe admits into, so the real
    /// indexes' shared systems are never touched by a probe.
    scratch: Vec<PruneIndex>,
}

impl Sharded {
    fn new(d: usize, records: &[Record]) -> Sharded {
        Sharded {
            front: Front::new(d),
            data: ShardedDataset::build(d, records, DATA_SHARDS, Placement::Hash)
                .expect("partition and bulk load"),
            planner: Planner::with_forced(None),
            scratch: (0..DATA_SHARDS).map(|_| PruneIndex::new()).collect(),
        }
    }

    fn query(&mut self, t: &mut Tracer, req: &TopKRequest) -> Answer {
        let root = t.open("query");
        if let Some(hit) = self.front.lookup(t, root, req) {
            return hit;
        }
        let q = QueryVector::new(req.weights.coords().to_vec());
        let scoring = self.front.scoring.clone();
        let s = t.now();
        let views = self.data.views();
        let decision = self.planner.plan(&PlanInputs {
            n: self.data.len() as usize,
            d: self.front.d,
            method: METHOD,
            kind: req.kind,
            skyline: views.iter().map(|v| v.index.stats().skyline_size).sum(),
            index_built: views.iter().any(|v| v.index.is_built()),
            shards: self.data.num_shards(),
        });
        t.finish("core.plan.plan", root, s);

        let phase2_hits =
            |views: &[ShardView<'_>]| -> u64 { views.iter().map(|v| v.index.phase2_hits()).sum() };
        let hits_before = phase2_hits(&views);
        let s = t.now();
        let began = Instant::now();
        // With four shards the planner can only choose the fan-out.
        let computed = match req.kind {
            RegionKind::Gir => GirEngine::gir_sharded(&views, &scoring, &q, req.k, METHOD),
            RegionKind::GirStar => GirEngine::gir_star_sharded(&views, &scoring, &q, req.k, METHOD),
        };
        let actual_ns = began.elapsed().as_nanos() as u64;
        t.finish("core.engine.miss", root, s);

        let s = t.now();
        let reused = phase2_hits(&views) > hits_before;
        self.planner.observe(&decision, actual_ns, Some(reused));
        t.finish("core.plan.observe", root, s);

        let scratch = &self.scratch;
        let kind = req.kind;
        self.front
            .admit(t, root, req, computed, PROBE_EVERY, |t, _region, result| {
                // The parts of `gir_sharded`, one shard at a time.
                let mut fetched = Vec::new();
                for v in &views {
                    let Ok(state) = v.index.snapshot(v.tree) else {
                        return;
                    };
                    let Ok(mirror) = state.mirror(v.tree) else {
                        return;
                    };
                    fetched.push((state, mirror));
                }
                let mut runs = Vec::new();
                for (_, mirror) in &fetched {
                    let s = t.now();
                    runs.push(mirror.topk(&scoring, &req.weights, req.k));
                    t.finish_probe("core.sharded.shard_topk", root, s);
                }
                let s = t.now();
                black_box(merge_ranked_lists(runs.iter().map(|(res, _)| res), req.k));
                t.finish_probe("core.sharded.merge", root, s);
                if kind != RegionKind::Gir {
                    return;
                }
                let ctx = GirPhase2Ctx::new(result);
                for (i, (shard_res, frontier)) in runs.into_iter().enumerate() {
                    // Always the recompute cost: the scratch index starts
                    // every probe with no shared system.
                    scratch[i].clear_phase2();
                    let view = ShardView {
                        tree: views[i].tree,
                        index: &scratch[i],
                    };
                    let s = t.now();
                    let _ = black_box(shard_gir_system(
                        view,
                        &fetched[i].0,
                        &fetched[i].1,
                        &scoring,
                        &q,
                        METHOD,
                        result,
                        &ctx,
                        &shard_res,
                        frontier,
                    ));
                    t.finish_probe("core.sharded.shard_phase2", root, s);
                }
            })
    }

    fn update(&mut self, t: &mut Tracer, updates: &[Update]) -> Result<UpdateReport, String> {
        let root = t.open("update");
        let mut batch = DeltaBatch::new();
        let mut report = UpdateReport::default();
        let mut removed_owner: HashMap<u64, BTreeSet<usize>> = HashMap::new();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for u in updates {
            match u {
                Update::Insert(rec) => {
                    let s = t.now();
                    let inserted = self.data.insert(rec.clone());
                    t.finish("shard.dataset.apply", root, s);
                    inserted.map_err(|e| e.to_string())?;
                    report.inserted += 1;
                    batch.record_insert(rec);
                    touched.insert(self.data.shard_of(rec.id, &rec.attrs));
                }
                Update::Delete { id, attrs } => {
                    let s = t.now();
                    let found = self.data.delete(*id, attrs);
                    t.finish("shard.dataset.apply", root, s);
                    if found.map_err(|e| e.to_string())? {
                        let owner = self.data.shard_of(*id, attrs);
                        report.deleted += 1;
                        removed_owner.entry(*id).or_default().insert(owner);
                        batch.record_delete_at(*id, attrs);
                        touched.insert(owner);
                    } else {
                        report.missed_deletes += 1;
                    }
                }
            }
        }
        self.front.tallies.update_ops += updates.len() as u64;
        let data = &self.data;
        self.front
            .reconcile(t, root, &batch, &mut report, |req| match req.kind {
                RegionKind::Gir => repair_region_sharded(data, req, &removed_owner),
                RegionKind::GirStar => repair_region_star_sharded(data, req, &removed_owner),
            });
        // Each shard the batch touched decodes its tree again on its
        // next miss; that cost is buried in `gir_sharded`, so show it.
        if t.is_on() {
            let p0 = t.now();
            for shard in touched {
                let s = t.now();
                let _ = black_box(TreeMirror::build(self.data.shard_tree(shard)));
                t.finish_probe("core.mirror.build", root, s);
                self.front.tallies.mirror_builds += 1;
            }
            t.add_probe_time(p0);
        }
        t.close(root);
        Ok(report)
    }
}

/// The wire-side stand-ins a distributed shadow probes: one in-process
/// worker per shard (what a worker's `handle` costs, with no transport)
/// and one extra UDS worker holding shard 0 (what a round trip costs).
/// They receive every batch and every miss the real workers do, so
/// their trees and Phase-2 caches match.
struct WireProbes {
    workers: Vec<ShardWorker>,
    endpoint: Box<dyn ShardEndpoint>,
}

fn load_request(shard: usize, d: usize, records: Vec<Record>) -> ShardRequest {
    ShardRequest::Load {
        shard: shard as u32,
        num_shards: DATA_SHARDS as u32,
        placement: placement_tag(Placement::Hash),
        scoring: ScoringFunction::linear(d),
        epoch: 0,
        records,
    }
}

impl WireProbes {
    fn launch(d: usize, records: &[Record]) -> WireProbes {
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); DATA_SHARDS];
        for rec in records {
            parts[Placement::Hash.shard_of(rec.id, &rec.attrs, DATA_SHARDS)].push(rec.clone());
        }
        let mut endpoint: Box<dyn ShardEndpoint> =
            Box::new(UdsEndpoint::spawn().expect("unix socketpair for the probe worker"));
        let loaded = endpoint.call(&load_request(0, d, parts[0].clone()), RPC_TIMEOUT);
        assert!(
            matches!(loaded, Ok(ShardResponse::Loaded { .. })),
            "probe worker load: {loaded:?}"
        );
        let workers = parts
            .into_iter()
            .enumerate()
            .map(|(s, part)| {
                let mut w = ShardWorker::new();
                let (resp, _) = w.handle(load_request(s, d, part));
                assert!(matches!(resp, ShardResponse::Loaded { .. }), "{resp:?}");
                w
            })
            .collect();
        WireProbes { workers, endpoint }
    }

    /// One request kind through every stand-in: encode, per-shard
    /// handle, decode, and the round trip on shard 0. Returns the
    /// frame bytes a real miss moves for this kind.
    fn measure(
        &mut self,
        t: &mut Tracer,
        root: u32,
        req: &ShardRequest,
        handle: &'static str,
        rtt: &'static str,
    ) -> u64 {
        let s = t.now();
        let frame = req.to_frame();
        t.finish_probe("core.wire.frame_encode", root, s);
        let mut bytes = 0u64;
        for w in &mut self.workers {
            let s = t.now();
            let (resp, _) = w.handle(req.clone());
            t.finish_probe(handle, root, s);
            let payload = resp.encode();
            let s = t.now();
            let _ = black_box(ShardResponse::decode(&payload));
            t.finish_probe("core.wire.frame_decode", root, s);
            bytes += (frame.len() + resp.to_frame().len()) as u64;
        }
        let s = t.now();
        let _ = black_box(self.endpoint.call(req, RPC_TIMEOUT));
        t.finish_probe(rtt, root, s);
        bytes
    }
}

impl Drop for WireProbes {
    fn drop(&mut self) {
        self.endpoint.shutdown();
    }
}

/// `DistributedGirServer` from parts: the cluster coordinator behind
/// the region cache. The workers' trees are out of reach from here, so
/// the per-shard layers show up through [`WireProbes`].
struct Dist {
    front: Front,
    cluster: RemoteShards,
    probes: Option<WireProbes>,
}

impl Dist {
    fn new(d: usize, records: &[Record], probing: bool) -> Dist {
        let cluster = RemoteShards::launch(
            ScoringFunction::linear(d),
            Placement::Hash,
            DATA_SHARDS,
            records,
            RemoteConfig::default(),
            Box::new(|_shard| {
                Box::new(UdsEndpoint::spawn().expect("unix socketpair for a shard worker"))
            }),
        )
        .expect("launch and load four UDS workers");
        Dist {
            front: Front::new(d),
            cluster,
            probes: probing.then(|| WireProbes::launch(d, records)),
        }
    }

    fn query(&mut self, t: &mut Tracer, req: &TopKRequest) -> Answer {
        let root = t.open("query");
        if let Some(hit) = self.front.lookup(t, root, req) {
            return hit;
        }
        let q = QueryVector::new(req.weights.coords().to_vec());
        let s = t.now();
        let computed = self.cluster.region(req.kind, &q, req.k, METHOD);
        t.finish("core.engine.miss", root, s);

        let (cluster, probes) = (&self.cluster, &mut self.probes);
        let mut wire_bytes = 0u64;
        // Every miss is probed, so the stand-in workers see exactly the
        // request sequence the real ones do.
        let answer = self
            .front
            .admit(t, root, req, computed, 1, |t, _region, result| {
                let Some(probes) = probes else { return };
                let s = t.now();
                let _ = black_box(cluster.topk(&q, req.k));
                t.finish_probe("rpc.cluster.topk", root, s);
                let s = t.now();
                let _ = black_box(probes.endpoint.call(&ShardRequest::Ping, RPC_TIMEOUT));
                t.finish_probe("rpc.endpoint.rtt.ping", root, s);
                let topk = ShardRequest::TopK {
                    weights: req.weights.clone(),
                    k: req.k as u32,
                };
                wire_bytes += probes.measure(
                    t,
                    root,
                    &topk,
                    "rpc.worker.handle.topk",
                    "rpc.endpoint.rtt.topk",
                );
                let phase2 = ShardRequest::Phase2 {
                    kind: req.kind,
                    method: METHOD,
                    weights: req.weights.clone(),
                    k: req.k as u32,
                    ranked: result.ranked.clone(),
                };
                wire_bytes += probes.measure(
                    t,
                    root,
                    &phase2,
                    "rpc.worker.handle.phase2",
                    "rpc.endpoint.rtt.phase2",
                );
            });
        if wire_bytes > 0 {
            self.front.tallies.wire_bytes += wire_bytes;
            self.front.tallies.wire_misses += 1;
        }
        answer
    }

    fn update(&mut self, t: &mut Tracer, updates: &[Update]) -> Result<UpdateReport, String> {
        let root = t.open("update");
        let s = t.now();
        let applied = self.cluster.apply(updates);
        t.finish("rpc.cluster.apply", root, s);
        let applied = applied.map_err(|e| e.to_string())?;
        let mut report = applied.report;
        self.front.tallies.update_ops += updates.len() as u64;
        let cluster = &self.cluster;
        let removed_owner = &applied.removed_owner;
        self.front
            .reconcile(t, root, &applied.batch, &mut report, |req| match req.kind {
                RegionKind::Gir => repair_region_sharded_with(cluster, req, removed_owner),
                RegionKind::GirStar => repair_region_star_sharded_with(cluster, req, removed_owner),
            });
        if let Some(probes) = &mut self.probes {
            let p0 = t.now();
            let apply = ShardRequest::Apply {
                epoch: self.cluster.epoch(),
                batch: wal_batch_from_updates(updates),
            };
            for w in &mut probes.workers {
                let _ = w.handle(apply.clone());
            }
            let _ = probes.endpoint.call(&apply, RPC_TIMEOUT);
            t.add_probe_time(p0);
        }
        t.close(root);
        Ok(report)
    }
}

enum Pipeline {
    Single(Box<Single>),
    Sharded(Box<Sharded>),
    Dist(Box<Dist>),
}

/// One tier's shadow pipeline plus the tracer its spans go to.
pub struct Shadow {
    pub tracer: Tracer,
    pipeline: Pipeline,
}

impl Shadow {
    /// Builds the shadow of `kind` over `records`. With `tracing` off
    /// the pipeline runs bare: no spans, no probes.
    pub fn build(
        kind: EngineKind,
        d: usize,
        records: &[Record],
        dir: &Path,
        tracing: bool,
    ) -> Shadow {
        let pipeline = match kind {
            EngineKind::Single => {
                Pipeline::Single(Box::new(Single::new(d, bulk_tree(records), None)))
            }
            EngineKind::Durable => {
                Pipeline::Single(Box::new(Single::new(d, bulk_tree(records), Some(dir))))
            }
            EngineKind::Sharded => Pipeline::Sharded(Box::new(Sharded::new(d, records))),
            EngineKind::Distributed => Pipeline::Dist(Box::new(Dist::new(d, records, tracing))),
        };
        Shadow {
            tracer: Tracer::new(tracing),
            pipeline,
        }
    }

    fn front(&mut self) -> &mut Front {
        match &mut self.pipeline {
            Pipeline::Single(p) => &mut p.front,
            Pipeline::Sharded(p) => &mut p.front,
            Pipeline::Dist(p) => &mut p.front,
        }
    }

    /// Forgets the spans and tallies so far (the warm-up's).
    pub fn start_ledger(&mut self) {
        self.tracer.spans.clear();
        self.front().tallies = Tallies::default();
    }

    pub fn tallies(&mut self) -> Tallies {
        self.front().tallies.clone()
    }

    /// Timed recovery from the shadow's own log (`Durable` only).
    pub fn recovery(&self) -> Option<Recovery> {
        match &self.pipeline {
            Pipeline::Single(p) => p.recovery(),
            _ => None,
        }
    }
}

impl Target for Shadow {
    fn query(&mut self, req: &TopKRequest) -> Answer {
        match &mut self.pipeline {
            Pipeline::Single(p) => p.query(&mut self.tracer, req),
            Pipeline::Sharded(p) => p.query(&mut self.tracer, req),
            Pipeline::Dist(p) => p.query(&mut self.tracer, req),
        }
    }

    fn update(&mut self, batch: &[Update]) -> Result<UpdateReport, String> {
        match &mut self.pipeline {
            Pipeline::Single(p) => p.update(&mut self.tracer, batch),
            Pipeline::Sharded(p) => p.update(&mut self.tracer, batch),
            Pipeline::Dist(p) => p.update(&mut self.tracer, batch),
        }
    }

    fn take_probe_ns(&mut self) -> u64 {
        self.tracer.take_probe_ns()
    }
}

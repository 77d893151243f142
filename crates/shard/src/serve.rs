//! Serving over a sharded dataset: the [`gir_serve::Server`] core with
//! [`ShardedDataset`] as its backend.
//!
//! * **Queries** run the core's loop (cache-probe first,
//!   compute-and-admit on miss), with misses planned over the per-shard
//!   views ([`gir_serve::planned_miss`]) and served by
//!   [`gir_core::gir_sharded`] — per-shard work over each shard's prune
//!   index, merged and intersected into one region.
//! * **Updates** route to the owning shard only: the tree mutation, the
//!   skyline/mirror repair, and the Phase-2 system maintenance all stay
//!   shard-local (non-owning shards merely purge systems *naming* the
//!   record). The core's cached-entry reconciliation then runs the
//!   usual classify → shrink → repair → evict pass, with the **repair
//!   sweep confined to the shards that lost a contributor**: a region
//!   produced by `gir_sharded` is the intersection of per-shard-exact
//!   systems, so deleting a contributor of shard `s` only invalidates
//!   the maximality of shard `s`'s system — the FP repair sweep runs
//!   over tree `s` alone, every other shard's constraints carry over
//!   verbatim ([`repair_region_sharded`]).

use crate::dataset::ShardedDataset;
use crate::placement::Placement;
use gir_core::fp::fp_repair;
use gir_core::plan::{MissPath, Planner};
use gir_core::{
    fp_star_repair, GirError, GirOutput, GirRegion, Method, PruneIndexStats, RegionKind,
    RepairRequest,
};
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::vector::PointD;
use gir_query::{QueryVector, Record, ScoringFunction, TopKResult};
use gir_rtree::RTreeError;
use gir_serve::{
    planned_miss, Applied, RemovedOwners, Server, ServerConfig, ShardBackend, TopKRequest, Update,
};
use std::collections::{BTreeSet, HashSet};

/// Sharded-server configuration.
#[derive(Debug, Clone)]
pub struct ShardedServerConfig {
    /// Worker threads per batch (clamped to ≥ 1).
    pub threads: usize,
    /// Dataset shards (independent R\*-trees).
    pub data_shards: usize,
    /// Record-to-shard placement policy.
    pub placement: Placement,
    /// GIR-cache shards (rounded up to a power of two; unrelated to
    /// `data_shards` — the cache shards by query affinity, the dataset
    /// by record placement).
    pub cache_shards: usize,
    /// LRU capacity per cache shard.
    pub cache_capacity: usize,
    /// Phase-2 method for misses. Non-linear scoring functions fall
    /// back to [`Method::SkylinePruning`] automatically (§7.2).
    pub method: Method,
    /// Pins every planned miss to one [`MissPath`]. With more than one
    /// data shard only [`MissPath::Sharded`] is feasible — there is no
    /// single tree to dispatch the others against — so an infeasible
    /// force falls back to the sharded plan; at `data_shards: 1` every
    /// path is available.
    pub force_path: Option<MissPath>,
}

impl Default for ShardedServerConfig {
    fn default() -> Self {
        ShardedServerConfig {
            threads: std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(4)
                .min(8),
            data_shards: 4,
            placement: Placement::Hash,
            cache_shards: 16,
            cache_capacity: 32,
            method: Method::FacetPruning,
            force_path: None,
        }
    }
}

/// A concurrent GIR serving engine over a partitioned dataset: the
/// serve core over a [`ShardedDataset`]. Everything but construction
/// and the per-shard accessors is the core's (reached through `Deref`).
pub struct ShardedGirServer(Server<ShardedDataset>);

impl std::ops::Deref for ShardedGirServer {
    type Target = Server<ShardedDataset>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

/// Lets `gir_serve::DurableServer` wrap this server exactly as it wraps
/// the single-tree one.
impl gir_serve::AsServer for ShardedGirServer {
    type Backend = ShardedDataset;

    fn as_server(&self) -> &Server<ShardedDataset> {
        &self.0
    }
}

impl ShardedGirServer {
    /// Builds a server around an already-partitioned dataset.
    ///
    /// # Examples
    ///
    /// ```
    /// use gir_query::{Record, ScoringFunction};
    /// use gir_serve::TopKRequest;
    /// use gir_shard::{Placement, ShardedDataset, ShardedGirServer, ShardedServerConfig};
    ///
    /// // A small deterministic 3-d dataset, hash-partitioned 4 ways.
    /// let mut s = 0x5EEDu64;
    /// let mut next = move || {
    ///     s ^= s << 13;
    ///     s ^= s >> 7;
    ///     s ^= s << 17;
    ///     (s >> 11) as f64 / (1u64 << 53) as f64
    /// };
    /// let recs: Vec<Record> = (0..400)
    ///     .map(|i| Record::new(i, vec![next(), next(), next()]))
    ///     .collect();
    /// let data = ShardedDataset::build(3, &recs, 4, Placement::Hash).unwrap();
    ///
    /// let server = ShardedGirServer::new(
    ///     data,
    ///     ScoringFunction::linear(3),
    ///     ShardedServerConfig {
    ///         threads: 1,
    ///         ..ShardedServerConfig::default()
    ///     },
    /// );
    /// // Jittered repeats of one preference anchor: the first request
    /// // computes and caches, the rest fall inside its region.
    /// let reqs: Vec<TopKRequest> = (0..16)
    ///     .map(|i| TopKRequest::new(vec![0.6 + 0.0004 * (i % 5) as f64, 0.5, 0.7], 8))
    ///     .collect();
    /// let batch = server.run_batch(&reqs);
    /// assert_eq!(batch.responses.len(), 16);
    /// assert!(batch.stats.hits > 0);
    /// ```
    pub fn new(data: ShardedDataset, scoring: ScoringFunction, cfg: ShardedServerConfig) -> Self {
        assert_eq!(scoring.dim(), data.dim(), "scoring dimensionality mismatch");
        let core = ServerConfig {
            threads: cfg.threads,
            shards: cfg.cache_shards,
            shard_capacity: cfg.cache_capacity,
            method: cfg.method,
            durability: None,
            force_path: cfg.force_path,
        };
        ShardedGirServer(Server::with_backend(data, scoring, &core))
    }

    /// Partitions `records` per the config and builds the server.
    pub fn build(
        d: usize,
        records: &[Record],
        scoring: ScoringFunction,
        cfg: ShardedServerConfig,
    ) -> Result<Self, RTreeError> {
        let data = ShardedDataset::build(d, records, cfg.data_shards, cfg.placement)?;
        Ok(Self::new(data, scoring, cfg))
    }

    /// Per-shard prune-index counters, in shard order.
    pub fn prune_stats(&self) -> Vec<PruneIndexStats> {
        let data = self.backend();
        data.views().iter().map(|v| v.index.stats()).collect()
    }

    /// Live records per data shard.
    pub fn occupancy(&self) -> Vec<u64> {
        self.backend().occupancy()
    }
}

/// The in-process sharded backend: misses plan over the per-shard views
/// (at `S = 1` the single view opens the full cold / indexed / sharded
/// choice, exactly as on the single-tree server), updates go to the
/// owning shard only, and repair sweeps stay shard-local.
impl ShardBackend for ShardedDataset {
    fn num_records(&self) -> u64 {
        self.len()
    }

    fn shard_records(&self) -> Result<Vec<Vec<Record>>, RTreeError> {
        ShardedDataset::shard_records(self)
    }

    fn miss(
        &self,
        planner: &Planner,
        scoring: &ScoringFunction,
        method: Method,
        q: &QueryVector,
        req: &TopKRequest,
    ) -> Result<GirOutput, GirError> {
        planned_miss(&self.views(), planner, scoring, method, q, req)
    }

    fn apply(&mut self, updates: &[Update]) -> Applied {
        let mut out = Applied::default();
        for u in updates {
            match u {
                Update::Insert(rec) => match self.insert(rec.clone()) {
                    Ok(()) => {
                        out.report.inserted += 1;
                        out.batch.record_insert(rec);
                    }
                    Err(e) => out.failure = Some(e),
                },
                Update::Delete { id, attrs } => {
                    let outcome = self.delete(*id, attrs);
                    if matches!(outcome, Ok(false)) {
                        out.report.missed_deletes += 1;
                        continue;
                    }
                    // On `Err` the owning shard may have mutated its
                    // tree before the index error: record the delete
                    // either way so the cache still reconciles with it.
                    out.report.deleted += 1;
                    out.removed_owner
                        .entry(*id)
                        .or_default()
                        .insert(self.shard_of(*id, attrs));
                    out.batch.record_delete_at(*id, attrs);
                    out.failure = outcome.err();
                }
            }
            if out.failure.is_some() {
                break;
            }
        }
        out
    }

    fn repair(&self, req: &RepairRequest<'_>, removed_owner: &RemovedOwners) -> Option<GirRegion> {
        repair_entry_sharded(self, req, removed_owner)
    }
}

/// Shard-local repair of one cached entry of either kind over any
/// [`RepairSweeps`] surface — what a sharded [`ShardBackend::repair`]
/// is, in-process or remote.
pub fn repair_entry_sharded<S: RepairSweeps + ?Sized>(
    data: &S,
    req: &RepairRequest<'_>,
    removed_owner: &RemovedOwners,
) -> Option<GirRegion> {
    match req.kind {
        RegionKind::Gir => repair_region_sharded_with(data, req, removed_owner),
        RegionKind::GirStar => repair_region_star_sharded_with(data, req, removed_owner),
    }
}

/// The sweep surface the shard-local repair algorithms run against.
///
/// [`repair_region_sharded_with`] and [`repair_region_star_sharded_with`]
/// only need four operations from the partitioned substrate: the shard
/// count, the pure record→shard placement, and the two FP sweeps over a
/// single shard's tree. [`ShardedDataset`] implements them in-process;
/// `gir-rpc`'s remote cluster implements them by shipping
/// `RepairSweep`/`RepairStarSweep` requests to the owning workers, so
/// both tiers share one repair algorithm (and therefore produce
/// bit-identical rebuilt regions).
pub trait RepairSweeps {
    /// Number of shards the dataset is partitioned into.
    fn num_shards(&self) -> usize;

    /// The shard owning `(id, attrs)` (pure placement function).
    fn shard_of(&self, id: u64, attrs: &PointD) -> usize;

    /// FP repair sweep pinned at the cached `p_k` over shard `s` alone,
    /// seeded with that shard's surviving contributors and pruned by
    /// the kept `interim` constraints. `None` declines the repair (the
    /// caller keeps the entry sound-but-non-maximal).
    fn fp_sweep(
        &self,
        shard: usize,
        scoring: &ScoringFunction,
        result: &TopKResult,
        interim: &[HalfSpace],
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>>;

    /// Root-seeded concurrent GIR\* sweep over shard `s` alone.
    fn fp_star_sweep(
        &self,
        shard: usize,
        scoring: &ScoringFunction,
        result: &TopKResult,
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>>;
}

impl RepairSweeps for ShardedDataset {
    fn num_shards(&self) -> usize {
        ShardedDataset::num_shards(self)
    }

    fn shard_of(&self, id: u64, attrs: &PointD) -> usize {
        ShardedDataset::shard_of(self, id, attrs)
    }

    fn fp_sweep(
        &self,
        shard: usize,
        scoring: &ScoringFunction,
        result: &TopKResult,
        interim: &[HalfSpace],
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>> {
        fp_repair(self.shard_tree(shard), scoring, result, interim, seeds)
            .ok()
            .map(|(hs, _stats)| hs)
    }

    fn fp_star_sweep(
        &self,
        shard: usize,
        scoring: &ScoringFunction,
        result: &TopKResult,
        seeds: &[Record],
    ) -> Option<Vec<HalfSpace>> {
        fp_star_repair(self.shard_tree(shard), scoring, result, seeds)
            .ok()
            .map(|(hs, _stats)| hs)
    }
}

/// Shard-local facet repair of one cached entry.
///
/// The entry's region was produced by [`gir_core::gir_sharded`]: its
/// non-result constraints are the union of **per-shard-exact** systems.
/// Deleting a contributor of shard `s` leaves every other shard's
/// system exact, so only shard `s` needs a sweep:
///
/// * ordering constraints carry over verbatim,
/// * every surviving non-result constraint carries over verbatim (each
///   names a live record, so it can never over-shrink; keeping them all
///   preserves the per-shard completeness the next repair relies on),
/// * for each shard that lost a contributor, an FP sweep pinned at the
///   cached `p_k` runs over that shard's tree alone, seeded with the
///   shard's surviving contributors and pruned by every kept constraint
///   — its output restores the shard system's maximality; constraints
///   for records already kept are deduplicated (same record + same
///   pivot ⇒ identical half-space).
///
/// `removed_owner` maps each deleted id to every shard that applied a
/// delete of it (recorded from the deletes' locations when the batch
/// applied — a set, since duplicate ids can be deleted at locations in
/// different shards). Declines (`None`) when an id is unknown or a
/// GIR\* constraint appears — the caller then keeps the entry
/// sound-but-non-maximal.
pub fn repair_region_sharded(
    data: &ShardedDataset,
    req: &RepairRequest<'_>,
    removed_owner: &RemovedOwners,
) -> Option<GirRegion> {
    repair_region_sharded_with(data, req, removed_owner)
}

/// [`repair_region_sharded`] over any [`RepairSweeps`] surface — the
/// in-process dataset and the RPC cluster share this exact algorithm.
pub fn repair_region_sharded_with<S: RepairSweeps + ?Sized>(
    data: &S,
    req: &RepairRequest<'_>,
    removed_owner: &RemovedOwners,
) -> Option<GirRegion> {
    let scoring = req.scoring;
    debug_assert!(scoring.is_linear());
    let pk_t = scoring.transform_point(&req.result.kth().attrs);

    let mut affected: BTreeSet<usize> = BTreeSet::new();
    for id in req.removed {
        affected.extend(removed_owner.get(id)?.iter().copied());
    }

    let mut ordering: Vec<HalfSpace> = Vec::new();
    let mut kept: Vec<HalfSpace> = Vec::new();
    let mut kept_ids: HashSet<u64> = HashSet::new();
    let mut seeds_by_shard: Vec<Vec<Record>> = vec![Vec::new(); data.num_shards()];
    for h in req.region.halfspaces.iter().chain(req.shrinks) {
        match h.provenance {
            Provenance::Ordering { .. } => ordering.push(h.clone()),
            // GirRegion::new re-appends the box.
            Provenance::QueryBox { .. } => {}
            // GIR* conditions are pinned at a rank pivot, not p_k — not
            // produced by the sharded path; decline defensively.
            Provenance::StarNonResult { .. } => return None,
            Provenance::NonResult { record_id } => {
                if req.removed.contains(&record_id) || !kept_ids.insert(record_id) {
                    continue;
                }
                // Reconstruct the record from its constraint normal
                // (`g(p) = g(p_k) + normal`; linear scoring makes the
                // transformed point the attribute vector itself) and
                // bucket it as a sweep seed for its owning shard. A
                // boundary-exact grid reconstruction landing the seed in
                // a neighbour bucket costs sweep tightness, never
                // soundness: kept constraints are never dropped.
                let rec = Record::new(record_id, pk_t.add(&h.normal));
                let owner = data.shard_of(record_id, &rec.attrs);
                seeds_by_shard[owner].push(rec);
                kept.push(h.clone());
            }
        }
    }

    let mut interim: Vec<HalfSpace> = ordering.clone();
    interim.extend(kept.iter().cloned());
    interim.extend(HalfSpace::full_query_box(req.region.d));

    let mut rebuilt = ordering;
    rebuilt.append(&mut kept);
    for s in affected {
        let swept = data.fp_sweep(s, scoring, req.result, &interim, &seeds_by_shard[s])?;
        for h in swept {
            let fresh = match h.provenance {
                Provenance::NonResult { record_id } => kept_ids.insert(record_id),
                _ => true,
            };
            if fresh {
                rebuilt.push(h);
            }
        }
    }
    Some(GirRegion::new(
        req.region.d,
        req.region.query.clone(),
        rebuilt,
    ))
}

/// Shard-local facet repair of one cached **GIR\*** entry — the star
/// companion of [`repair_region_sharded`].
///
/// A region produced by [`gir_core::sharded::gir_star_sharded`] is the
/// intersection of per-shard-exact star systems, so deleting a
/// contributor of shard `s` only breaks the maximality of shard `s`'s
/// system. Every surviving `StarNonResult` constraint carries over
/// verbatim (it names a live non-result record against a valid `R⁻`
/// pivot — a genuine condition that can over-describe but never
/// over-shrink the true region), and each one reconstructs its record
/// from the constraint normal (`g(p) = g(p_rank) + normal`; the rank in
/// the provenance names the pivot) as a sweep seed bucketed by owning
/// shard. For each shard that lost a contributor, a root-seeded
/// concurrent star sweep ([`fp_star_repair`]) over that shard's tree
/// alone restores its system; swept conditions already kept are
/// deduplicated by `(rank, record)` pair. As in the order-sensitive
/// variant, a boundary-exact grid reconstruction landing a seed in a
/// neighbour bucket costs sweep tightness, never soundness.
///
/// Declines (`None`) when a deleted id has no recorded owner, a rank
/// exceeds the cached result, or an order-sensitive constraint appears
/// — the caller then keeps the entry sound-but-non-maximal.
pub fn repair_region_star_sharded(
    data: &ShardedDataset,
    req: &RepairRequest<'_>,
    removed_owner: &RemovedOwners,
) -> Option<GirRegion> {
    repair_region_star_sharded_with(data, req, removed_owner)
}

/// [`repair_region_star_sharded`] over any [`RepairSweeps`] surface —
/// the star companion of [`repair_region_sharded_with`].
pub fn repair_region_star_sharded_with<S: RepairSweeps + ?Sized>(
    data: &S,
    req: &RepairRequest<'_>,
    removed_owner: &RemovedOwners,
) -> Option<GirRegion> {
    let scoring = req.scoring;
    debug_assert!(scoring.is_linear());

    let mut affected: BTreeSet<usize> = BTreeSet::new();
    for id in req.removed {
        affected.extend(removed_owner.get(id)?.iter().copied());
    }

    let mut kept: Vec<HalfSpace> = Vec::new();
    let mut kept_pairs: HashSet<(usize, u64)> = HashSet::new();
    let mut seeded: HashSet<u64> = HashSet::new();
    let mut seeds_by_shard: Vec<Vec<Record>> = vec![Vec::new(); data.num_shards()];
    for h in req.region.halfspaces.iter().chain(req.shrinks) {
        match h.provenance {
            // GirRegion::new re-appends the box.
            Provenance::QueryBox { .. } => {}
            Provenance::StarNonResult { rank, record_id } => {
                if rank >= req.result.len() {
                    return None;
                }
                if req.removed.contains(&record_id) || !kept_pairs.insert((rank, record_id)) {
                    continue;
                }
                if seeded.insert(record_id) {
                    let pivot_t = scoring.transform_point(&req.result.ranked[rank].0.attrs);
                    let rec = Record::new(record_id, pivot_t.add(&h.normal));
                    let owner = data.shard_of(record_id, &rec.attrs);
                    seeds_by_shard[owner].push(rec);
                }
                kept.push(h.clone());
            }
            // Order-sensitive constraints are never produced by the
            // GIR* path; decline defensively.
            Provenance::Ordering { .. } | Provenance::NonResult { .. } => return None,
        }
    }

    let mut rebuilt = kept;
    for s in affected {
        let swept = data.fp_star_sweep(s, scoring, req.result, &seeds_by_shard[s])?;
        for h in swept {
            let fresh = match h.provenance {
                Provenance::StarNonResult { rank, record_id } => {
                    kept_pairs.insert((rank, record_id))
                }
                _ => true,
            };
            if fresh {
                rebuilt.push(h);
            }
        }
    }
    Some(GirRegion::new(
        req.region.d,
        req.region.query.clone(),
        rebuilt,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{
        check_batch_matches_naive_and_hits_cache, check_nonlinear_scoring_falls_back_to_sp,
        check_updates_stay_fresh, jittered_requests as jittered, records,
    };
    use gir_query::naive_topk;

    #[test]
    fn sharded_batches_match_naive_and_hit_cache() {
        let data = records(1500, 3, 0x81);
        for placement in [Placement::Hash, Placement::Grid] {
            let server = ShardedGirServer::build(
                3,
                &data,
                ScoringFunction::linear(3),
                ShardedServerConfig {
                    threads: 2,
                    data_shards: 4,
                    placement,
                    ..ShardedServerConfig::default()
                },
            )
            .unwrap();
            check_batch_matches_naive_and_hits_cache(&server, &data);
        }
    }

    #[test]
    fn updates_route_to_owning_shard_and_stay_fresh() {
        let mirror = records(1200, 3, 0x82);
        let server = ShardedGirServer::build(
            3,
            &mirror,
            ScoringFunction::linear(3),
            ShardedServerConfig {
                threads: 1,
                data_shards: 4,
                ..ShardedServerConfig::default()
            },
        )
        .unwrap();
        let occupancy_before = server.occupancy();
        check_updates_stay_fresh(&server, mirror, || {
            // Only the owning shard's occupancy moved.
            let moved = occupancy_before
                .iter()
                .zip(&server.occupancy())
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(moved, 1, "insert touched more than the owning shard");
        });
    }

    /// Deletes a facet contributor of the anchor query per round of
    /// churn (NeedsRepair on the cached entry, not an eviction) and
    /// verifies repaired entries keep serving *fresh* hits — exact
    /// rankings for GIR requests, compositions for GIR\* ones. The
    /// shard-local repair is exercised through the report's `repaired`
    /// counter.
    fn churn_repairs_shard_locally(kind: RegionKind, seed: u64, rounds: u64) {
        let key = |ids: &[u64]| {
            let mut v = ids.to_vec();
            if kind == RegionKind::GirStar {
                v.sort_unstable();
            }
            v
        };
        let mut mirror = records(900, 3, seed);
        let server = ShardedGirServer::build(
            3,
            &mirror,
            ScoringFunction::linear(3),
            ShardedServerConfig {
                threads: 1,
                data_shards: 4,
                ..ShardedServerConfig::default()
            },
        )
        .unwrap();
        let reqs: Vec<TopKRequest> = jittered(30, 5).into_iter().map(|r| r.kind(kind)).collect();
        let batch = server.run_batch(&reqs);
        assert!(batch.stats.hits > 0, "jittered repeats should hit");

        // The region of the anchor query names its facet contributors
        // (non-result records by provenance). Recompute per round on an
        // equivalent shadow dataset.
        let contributor_of = |mirror: &[Record]| -> Record {
            let data =
                ShardedDataset::build(3, mirror, 4, Placement::Hash).expect("shadow dataset");
            let q = QueryVector::new(reqs[0].weights.coords().to_vec());
            let f = ScoringFunction::linear(3);
            let out = match kind {
                RegionKind::Gir => data.gir(&f, &q, 5, Method::FacetPruning),
                RegionKind::GirStar => data.gir_star(&f, &q, 5, Method::FacetPruning),
            }
            .expect("shadow region");
            let result_ids = out.result.ids();
            let id = out
                .region
                .contributor_ids()
                .find(|id| !result_ids.contains(id))
                .expect("non-trivial region has non-result contributors");
            mirror.iter().find(|r| r.id == id).unwrap().clone()
        };

        let mut repaired_total = 0usize;
        let mut checked_hits = 0usize;
        for round in 0..rounds {
            // Churn: one competitive insert + delete a facet
            // contributor. Distinct insert attrs per round: BRS and the
            // naive oracle break exact score ties differently (id desc
            // vs id asc).
            let jitter = round as f64 * 3e-4;
            let hot = Record::new(10_000_000 + round, vec![0.66 + jitter, 0.64 - jitter, 0.68]);
            let victim = contributor_of(&mirror);
            mirror.retain(|r| r.id != victim.id);
            mirror.push(hot.clone());
            let report = server
                .apply_updates(&[
                    Update::Insert(hot),
                    Update::Delete {
                        id: victim.id,
                        attrs: victim.attrs.clone(),
                    },
                ])
                .unwrap();
            repaired_total += report.repaired;

            let batch = server.run_batch(&reqs);
            for (req, resp) in reqs.iter().zip(&batch.responses) {
                let truth = naive_topk(&mirror, server.scoring(), &req.weights, req.k);
                assert_eq!(
                    key(&resp.ids),
                    key(&truth.ids()),
                    "round {round}: stale {kind:?} response (from_cache={}, w={:?})",
                    resp.from_cache,
                    req.weights
                );
                if resp.from_cache {
                    checked_hits += 1;
                }
            }
        }
        assert!(
            repaired_total > 0,
            "churn never exercised shard-local repair"
        );
        assert!(checked_hits > 0, "no cache hits survived the churn");
    }

    #[test]
    fn contributor_delete_repairs_shard_locally_with_fresh_hits() {
        churn_repairs_shard_locally(RegionKind::Gir, 0x83, 10);
    }

    #[test]
    fn star_requests_serve_fresh_compositions_and_repair_shard_locally() {
        churn_repairs_shard_locally(RegionKind::GirStar, 0x85, 8);
    }

    #[test]
    fn nonlinear_scoring_falls_back_to_sp() {
        let data = records(400, 4, 0x84);
        let server = ShardedGirServer::build(
            4,
            &data,
            ScoringFunction::mixed4(),
            ShardedServerConfig {
                threads: 2,
                data_shards: 2,
                method: Method::FacetPruning,
                ..ShardedServerConfig::default()
            },
        )
        .unwrap();
        check_nonlinear_scoring_falls_back_to_sp(&server, &data);
    }
}

//! A partitioned dataset: S independent R\*-trees with per-shard prune
//! indexes, queried as one.

use crate::placement::Placement;
use gir_core::{
    gir_sharded, gir_star_sharded, topk_sharded, GirError, GirOutput, Method, PruneIndex, ShardView,
};
use gir_geometry::vector::PointD;
use gir_query::{QueryVector, ScoringFunction, TopKResult};
use gir_rtree::{RTree, RTreeError, Record};
use gir_storage::{MemPageStore, PageStore, PAGE_SIZE};
use std::sync::Arc;

/// One shard: an R\*-tree over its own page store, plus the shard's
/// prune index (skyline, hull, decoded mirror, shared Phase-2 systems —
/// all scoped to the shard's records).
struct DataShard {
    tree: RTree,
    index: PruneIndex,
}

/// A dataset partitioned across S independent R\*-trees.
///
/// Queries merge the per-shard BRS frontiers into the global top-k and
/// intersect per-shard Phase-2 systems into one region
/// ([`gir_core::sharded`]); updates touch only the owning shard —
/// placement is a pure function of the record, so routing needs no
/// directory, and a delta's skyline/mirror repair stays shard-local
/// (non-owning shards only drop Phase-2 systems that *name* the
/// record, a map sweep with no I/O).
pub struct ShardedDataset {
    d: usize,
    placement: Placement,
    shards: Vec<DataShard>,
}

impl ShardedDataset {
    /// Partitions `records` across `shards` trees (each over its own
    /// in-memory page store). Empty partitions are legal — a grid
    /// placement over skewed data routinely produces them — and
    /// contribute nothing to queries.
    pub fn build(
        d: usize,
        records: &[Record],
        shards: usize,
        placement: Placement,
    ) -> Result<ShardedDataset, RTreeError> {
        let shards = shards.max(1);
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); shards];
        for rec in records {
            parts[placement.shard_of(rec.id, &rec.attrs, shards)].push(rec.clone());
        }
        let shards = parts
            .into_iter()
            .map(|part| {
                let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
                let tree = if part.is_empty() {
                    RTree::new(store, d)?
                } else {
                    RTree::bulk_load(store, &part)?
                };
                Ok(DataShard {
                    tree,
                    index: PruneIndex::new(),
                })
            })
            .collect::<Result<Vec<_>, RTreeError>>()?;
        Ok(ShardedDataset {
            d,
            placement,
            shards,
        })
    }

    /// Attribute dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The placement policy.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Total live records across all shards.
    pub fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.tree.len()).sum()
    }

    /// True when no shard holds a record.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live records per shard (the occupancy histogram; skewed under
    /// grid placement on skewed data).
    pub fn occupancy(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.tree.len()).collect()
    }

    /// The shard owning `(id, attrs)` under this dataset's placement.
    pub fn shard_of(&self, id: u64, attrs: &PointD) -> usize {
        self.placement.shard_of(id, attrs, self.shards.len())
    }

    /// The `i`-th shard's tree (for shard-local repair sweeps).
    pub fn shard_tree(&self, i: usize) -> &RTree {
        &self.shards[i].tree
    }

    /// Borrowed views over every shard, in shard order — the input to
    /// [`gir_core::gir_sharded`].
    pub fn views(&self) -> Vec<ShardView<'_>> {
        self.shards
            .iter()
            .map(|s| ShardView {
                tree: &s.tree,
                index: &s.index,
            })
            .collect()
    }

    /// Inserts a record into its owning shard and absorbs it into that
    /// shard's prune index. Other shards are untouched: a newcomer only
    /// ever contributes constraints to its own shard's Phase-2 systems.
    pub fn insert(&mut self, rec: Record) -> Result<(), RTreeError> {
        let owner = self.shard_of(rec.id, &rec.attrs);
        self.shards[owner].tree.insert(rec.clone())?;
        self.shards[owner].index.on_insert(&rec);
        Ok(())
    }

    /// Deletes a record from its owning shard; returns whether it was
    /// found. The owning shard's index runs its (localized) skyline
    /// repair; every other shard only purges Phase-2 systems naming the
    /// record — see [`PruneIndex::purge_record`].
    pub fn delete(&mut self, id: u64, attrs: &PointD) -> Result<bool, RTreeError> {
        let owner = self.shard_of(id, attrs);
        if !self.shards[owner].tree.delete(id, attrs)? {
            return Ok(false);
        }
        let (tree, index) = (&self.shards[owner].tree, &self.shards[owner].index);
        let owner_err = index.on_delete(tree, id, attrs).err();
        for (i, s) in self.shards.iter().enumerate() {
            if i != owner {
                s.index.purge_record(id);
            }
        }
        match owner_err {
            Some(e) => Err(e),
            None => Ok(true),
        }
    }

    /// Global top-k by merging per-shard BRS candidate frontiers.
    pub fn topk(
        &self,
        scoring: &ScoringFunction,
        q: &QueryVector,
        k: usize,
    ) -> Result<TopKResult, GirError> {
        topk_sharded(&self.views(), scoring, q, k)
    }

    /// Global top-k plus its GIR: per-shard Phase 2 against the global
    /// pivot, intersected into one region (see [`gir_core::sharded`]).
    pub fn gir(
        &self,
        scoring: &ScoringFunction,
        q: &QueryVector,
        k: usize,
        method: Method,
    ) -> Result<GirOutput, GirError> {
        gir_sharded(&self.views(), scoring, q, k, method)
    }

    /// Global top-k plus its order-insensitive GIR\* (§7.1): per-shard
    /// star systems against the globally merged per-rank pivots,
    /// intersected into one region (see
    /// [`gir_core::sharded::gir_star_sharded`]).
    pub fn gir_star(
        &self,
        scoring: &ScoringFunction,
        q: &QueryVector,
        k: usize,
        method: Method,
    ) -> Result<GirOutput, GirError> {
        gir_star_sharded(&self.views(), scoring, q, k, method)
    }

    /// Per-shard record lists, in shard order — the shape a durable
    /// snapshot persists ([`gir_serve::Server::consistent_cut`]). Placement
    /// is a pure function of `(id, attrs, num_shards)`, so rebuilding
    /// from the flattened lists reproduces this exact partition.
    pub fn shard_records(&self) -> Result<Vec<Vec<Record>>, RTreeError> {
        self.shards.iter().map(|s| s.tree.scan_all()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::records;
    use gir_query::naive_topk;

    #[test]
    fn build_routes_every_record_to_its_owner() {
        let recs = records(500, 3, 0x71);
        for placement in [Placement::Hash, Placement::Grid] {
            let data = ShardedDataset::build(3, &recs, 4, placement).unwrap();
            assert_eq!(data.len(), 500);
            assert_eq!(data.occupancy().iter().sum::<u64>(), 500);
            for rec in data.shard_records().unwrap().into_iter().flatten() {
                let owner = data.shard_of(rec.id, &rec.attrs);
                assert!(data
                    .shard_tree(owner)
                    .scan_all()
                    .unwrap()
                    .iter()
                    .any(|r| r.id == rec.id));
            }
        }
    }

    #[test]
    fn topk_matches_naive_after_updates() {
        let mut recs = records(800, 3, 0x72);
        let mut data = ShardedDataset::build(3, &recs, 4, Placement::Hash).unwrap();
        let f = ScoringFunction::linear(3);
        let q = QueryVector::new(vec![0.7, 0.4, 0.6]);

        // Mutate: one competitive insert, one delete.
        let champ = Record::new(9_000_001, vec![0.98, 0.97, 0.99]);
        data.insert(champ.clone()).unwrap();
        recs.push(champ);
        let victim = recs.remove(17);
        assert!(data.delete(victim.id, &victim.attrs).unwrap());
        assert!(
            !data.delete(victim.id, &victim.attrs).unwrap(),
            "double delete"
        );

        let got = data.topk(&f, &q, 12).unwrap();
        let expect = naive_topk(&recs, &f, &q.weights, 12);
        assert_eq!(got.ids(), expect.ids());
    }

    #[test]
    fn grid_placement_owns_disjoint_bands() {
        let recs = records(300, 2, 0x73);
        let data = ShardedDataset::build(2, &recs, 4, Placement::Grid).unwrap();
        for (i, _) in data.occupancy().iter().enumerate() {
            for rec in data.shard_tree(i).scan_all().unwrap() {
                assert_eq!(crate::placement::grid_band(rec.attrs[0], 4), i);
            }
        }
    }

    #[test]
    fn empty_dataset_yields_empty_result_error() {
        let data = ShardedDataset::build(2, &[], 4, Placement::Hash).unwrap();
        assert!(data.is_empty());
        let f = ScoringFunction::linear(2);
        let q = QueryVector::new(vec![0.5, 0.5]);
        assert!(matches!(data.topk(&f, &q, 3), Err(GirError::EmptyResult)));
    }
}

//! A sharded, thread-safe GIR cache.
//!
//! Wraps [`GirCache`] (single-threaded LRU) in N independently locked
//! shards. An entry's shard is chosen by hashing its *cache affinity* —
//! the scoring-function fingerprint together with a k-bucket (k rounded
//! up to a power of two) — so:
//!
//! * lookups and admissions for unrelated sessions (different scoring
//!   functions, very different k) land on different locks,
//! * a top-`k` request still finds entries cached with any `k'` in the
//!   same bucket with `k' ≥ k` (prefix serving), because all of a
//!   bucket's entries share a shard.
//!
//! Homogeneous traffic (one scoring function, one k) necessarily lands
//! on one shard, so the hot read path must not serialize: lookups probe
//! with [`GirCache::probe`] under the *shared* lock and count hits and
//! misses in per-shard atomics. LRU recency is maintained
//! opportunistically — every [`PROMOTE_EVERY`]-th hit attempts a
//! non-blocking `try_write` to move the entry to the front, and simply
//! skips when the lock is contended. Eviction order degrades toward
//! insertion order under pressure; correctness is unaffected.
//!
//! Update reconciliation ([`ShardedGirCache::apply_batch`]) visits
//! every shard; the serving layer calls it while holding the dataset's
//! write lock, so concurrent lookups cannot interleave with a
//! half-applied update.

use gir_core::{BatchOutcome, CacheKey, DeltaBatch, GirCache, GirRegion, RepairRequest};
#[cfg(test)]
use gir_geometry::vector::PointD;
use gir_query::{Record, ScoringFunction, TopKResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Every n-th hit on a shard tries (non-blocking) to refresh LRU order.
pub const PROMOTE_EVERY: u64 = 16;

/// Slot names of the per-shard consistent maintenance buffers
/// ([`ShardedGirCache::maintenance_snapshot`]). `classified` is the sum
/// of the other four, written inside the same epoch bracket — a reader
/// that ever sees them disagree has observed a torn batch (the churn
/// proptest leans on exactly this invariant).
pub const APPLY_SLOTS: &[&str] = &["classified", "evicted", "repaired", "shrunk", "untouched"];

#[derive(Debug)]
struct Shard {
    cache: RwLock<GirCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Aggregated counters across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from cache.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Entries dropped (LRU pressure or update invalidation).
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A concurrent GIR cache: N `RwLock`'d [`GirCache`] shards.
#[derive(Debug)]
pub struct ShardedGirCache {
    shards: Box<[Shard]>,
    /// `shards.len() - 1`; shard count is a power of two so routing is a
    /// mask.
    mask: usize,
    /// Epoch-stamped per-shard maintenance counters: each shard's
    /// [`GirCache::apply_batch`] pass runs inside one epoch bracket, so
    /// a [`ShardedGirCache::maintenance_snapshot`] never observes a
    /// shard mid-batch.
    scopes: gir_obs::ShardScopes,
}

impl ShardedGirCache {
    /// A cache with `shards` shards (rounded up to a power of two,
    /// minimum 1) of `shard_capacity` entries each.
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards: Vec<Shard> = (0..n)
            .map(|_| Shard {
                cache: RwLock::new(GirCache::new(shard_capacity)),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })
            .collect();
        ShardedGirCache {
            shards: shards.into_boxed_slice(),
            mask: n - 1,
            scopes: gir_obs::ShardScopes::new(n, APPLY_SLOTS),
        }
    }

    /// A consistent cut over the per-shard maintenance counters: each
    /// shard's values reflect a whole number of applied
    /// [`DeltaBatch`]es (its epoch / 2), never a batch in flight.
    pub fn maintenance_snapshot(&self) -> gir_obs::ScopesSnapshot {
        self.scopes.snapshot()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Requests for nearby `k` share a shard (and can prefix-serve each
    /// other); k-buckets are powers of two.
    fn k_bucket(k: usize) -> usize {
        k.max(1).next_power_of_two()
    }

    fn shard_index(&self, scoring: &ScoringFunction, k: usize) -> usize {
        // Mix the fingerprint with the k-bucket (splitmix-style final
        // avalanche so low bits are usable as a mask).
        let mut h = scoring
            .fingerprint()
            .wrapping_add((Self::k_bucket(k) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (h ^ (h >> 31)) as usize & self.mask
    }

    /// Looks up the request described by `key` in the owning shard. The
    /// shard is routed by `(scoring fingerprint, k-bucket)` alone —
    /// *not* by kind — so an order-insensitive request finds both the
    /// GIR\* entries of its bucket and the order-sensitive entries that
    /// also answer it (see [`GirCache::probe`] for the match rule).
    /// Concurrent lookups share the shard's read lock; counters are
    /// atomic and LRU promotion is best-effort.
    pub fn get(&self, key: &CacheKey<'_>) -> Option<Vec<Record>> {
        let shard = &self.shards[self.shard_index(key.scoring, key.k)];
        let found = shard
            .cache
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .probe(key);
        match found {
            Some(records) => {
                tracing::event!("cache_hit");
                let hits = shard.hits.fetch_add(1, Ordering::Relaxed) + 1;
                if hits.is_multiple_of(PROMOTE_EVERY) {
                    // Refresh recency without ever blocking the read path.
                    if let Ok(mut guard) = shard.cache.try_write() {
                        guard.touch(key);
                    }
                }
                Some(records)
            }
            None => {
                tracing::event!("cache_miss");
                shard.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Admits a computed result for `key` into the owning shard —
    /// unless an existing entry already answers this entry's own query
    /// point with as many records under the same semantics (for a GIR\*
    /// admission that includes an order-sensitive entry: it already
    /// serves the composition). The check runs under the same write
    /// lock as the admission, so concurrent identical misses (a
    /// cold-cache stampede) or repeated `k > |dataset|` requests admit
    /// one entry, not one per computation. Routing uses the *achieved*
    /// `result.len()`, not `key.k`, so a truncated result lands in the
    /// bucket that will serve it. Returns whether the entry was
    /// admitted.
    pub fn admit(&self, key: &CacheKey<'_>, region: GirRegion, result: TopKResult) -> bool {
        let k = result.len();
        let shard = &self.shards[self.shard_index(key.scoring, k)];
        let w = region.query.clone();
        let own = CacheKey::new(&w, k, key.scoring).kind(key.kind);
        let mut guard = shard
            .cache
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if guard.probe(&own).is_some() {
            tracing::event!("cache_admit_dropped");
            return false;
        }
        guard.admit(&own, region, result);
        tracing::event!("cache_admit");
        true
    }

    /// Reconciles every shard with a coalesced [`DeltaBatch`] — one
    /// write-lock acquisition and one classification pass per shard
    /// instead of one sweep per update. Entries the batch does not
    /// touch survive; shrunk entries absorb the newcomers' half-spaces
    /// in place; repairable entries go through `repair`; only genuinely
    /// invalidated entries are evicted. The serving layer calls this
    /// while holding the dataset's write lock, so no lookup observes a
    /// half-reconciled cache.
    ///
    /// Shards are independent under their own write locks, so the
    /// per-shard passes fan out across the work-stealing pool
    /// ([`gir_core::pool::fan_out`]) when the thread policy allows;
    /// `repair` must therefore be `Fn + Sync`. Each shard's epoch
    /// bracket ([`ShardedGirCache::maintenance_snapshot`]) opens and
    /// closes on whichever worker runs the shard, keeping snapshots
    /// batch-atomic per shard exactly as in the sequential pass, and
    /// outcomes are merged in shard order.
    pub fn apply_batch(
        &self,
        batch: &DeltaBatch,
        repair: impl Fn(&RepairRequest<'_>) -> Option<GirRegion> + Sync,
    ) -> BatchOutcome {
        // Work measure: each shard pass classifies its entries against
        // every delta in the batch, so deltas × shards approximates the
        // classification count (`pool::MIN_ITEMS` keeps trivial
        // batches inline).
        let work = batch.len().saturating_mul(self.shards.len());
        let outs =
            gir_core::pool::fan_out((0..self.shards.len()).collect(), work, |_, si: usize| {
                // The epoch bracket spans this shard's whole pass: metric
                // readers retry while it is open, so a snapshot reflects
                // either none or all of this batch's deltas on the shard.
                let scope = self.scopes.begin(si);
                let shard_out = self.shards[si]
                    .cache
                    .write()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .apply_batch(batch, &mut |req: &RepairRequest<'_>| repair(req));
                let classified =
                    shard_out.evicted + shard_out.repaired + shard_out.shrunk + shard_out.untouched;
                scope.add(0, classified as u64);
                scope.add(1, shard_out.evicted as u64);
                scope.add(2, shard_out.repaired as u64);
                scope.add(3, shard_out.shrunk as u64);
                scope.add(4, shard_out.untouched as u64);
                drop(scope);
                shard_out
            });
        let mut out = BatchOutcome::default();
        for shard_out in &outs {
            out.merge(shard_out);
        }
        out
    }

    /// Aggregated hit/miss/eviction/entry counts.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for s in &self.shards {
            let g = s
                .cache
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            out.hits += s.hits.load(Ordering::Relaxed);
            out.misses += s.misses.load(Ordering::Relaxed);
            out.evictions += g.evictions();
            out.entries += g.len();
        }
        out
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.cache
                    .read()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .len()
            })
            .sum()
    }

    /// True when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_geometry::hyperplane::{HalfSpace, Provenance};

    fn slab(x_lo: f64, x_hi: f64) -> GirRegion {
        let hs = vec![
            HalfSpace {
                normal: PointD::new(vec![1.0, 0.0]),
                offset: x_hi,
                provenance: Provenance::NonResult { record_id: 0 },
            },
            HalfSpace {
                normal: PointD::new(vec![-1.0, 0.0]),
                offset: -x_lo,
                provenance: Provenance::NonResult { record_id: 1 },
            },
        ];
        GirRegion::new(2, PointD::new(vec![(x_lo + x_hi) / 2.0, 0.5]), hs)
    }

    fn result(ids: &[u64]) -> TopKResult {
        TopKResult {
            ranked: ids
                .iter()
                .enumerate()
                .map(|(i, &id)| (Record::new(id, vec![0.5, 0.5]), 1.0 - i as f64 * 0.1))
                .collect(),
        }
    }

    #[test]
    fn redundant_admissions_are_dropped() {
        // A cold-cache stampede computes the same result on several
        // threads; only the first admission may land.
        let cache = ShardedGirCache::new(4, 8);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.5, 0.5]);
        assert!(cache.admit(&CacheKey::new(&w, 2, &f), slab(0.0, 1.0), result(&[1, 2])));
        assert!(!cache.admit(&CacheKey::new(&w, 2, &f), slab(0.0, 1.0), result(&[1, 2])));
        assert_eq!(cache.len(), 1);
        // A bigger result for the same query point is a different
        // k-bucket entry: admitted.
        assert!(cache.admit(
            &CacheKey::new(&w, 5, &f),
            slab(0.0, 1.0),
            result(&[1, 2, 3, 4, 5])
        ));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedGirCache::new(0, 4).num_shards(), 1);
        assert_eq!(ShardedGirCache::new(5, 4).num_shards(), 8);
        assert_eq!(ShardedGirCache::new(16, 4).num_shards(), 16);
    }

    #[test]
    fn hit_and_prefix_serving_within_bucket() {
        let cache = ShardedGirCache::new(8, 4);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.5, 0.5]);
        cache.admit(
            &CacheKey::new(&w, 4, &f),
            slab(0.0, 1.0),
            result(&[1, 2, 3, 4]),
        );
        // Same k-bucket (3 and 4 both bucket to 4): prefix hit.
        let hit = cache.get(&CacheKey::new(&w, 3, &f)).unwrap();
        assert_eq!(hit.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        // Different bucket (k=8) probes a different shard: miss.
        assert!(cache.get(&CacheKey::new(&w, 8, &f)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn scoring_functions_do_not_share_entries() {
        let cache = ShardedGirCache::new(4, 4);
        let lin = ScoringFunction::linear(2);
        let non = ScoringFunction::new(vec![
            gir_query::Transform::Power(2),
            gir_query::Transform::Linear,
        ]);
        let w = PointD::new(vec![0.5, 0.5]);
        cache.admit(&CacheKey::new(&w, 2, &lin), slab(0.0, 1.0), result(&[1, 2]));
        assert!(cache.get(&CacheKey::new(&w, 2, &non)).is_none());
        assert!(cache.get(&CacheKey::new(&w, 2, &lin)).is_some());
    }

    #[test]
    fn delete_sweep_hits_all_shards() {
        let cache = ShardedGirCache::new(8, 4);
        let f = ScoringFunction::linear(2);
        let w = PointD::new(vec![0.5, 0.5]);
        // Spread entries over several k-buckets (and thus shards).
        for k in [1usize, 2, 4, 8, 16] {
            let ids: Vec<u64> = (0..k as u64).chain([99]).collect();
            cache.admit(
                &CacheKey::new(&w, ids.len(), &f),
                slab(0.0, 1.0),
                result(&ids),
            );
        }
        assert_eq!(cache.len(), 5);
        // Every entry contains record 99: all must drop.
        let mut batch = DeltaBatch::new();
        batch.record_delete(99);
        assert_eq!(cache.apply_batch(&batch, |_| None).evicted, 5);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, 5);
    }
}

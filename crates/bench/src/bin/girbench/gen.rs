//! The benchmark's own inputs: a splitmix64 RNG, the IND dataset, and
//! the cycle stream (one update batch followed by its queries).
//!
//! Nothing here calls the program's generators (`gir_datagen`,
//! `gir_serve::mixed_workload`): a later program PR must not be able to
//! change the load it is measured under. The program only ever sees the
//! `Record` / `TopKRequest` / `Update` values built here. The stream
//! simulates the live-record set, so every delete names a record that
//! exists when the batch is applied and no operation fails by
//! construction.

use gir_core::RegionKind;
use gir_geometry::vector::PointD;
use gir_query::Record;
use gir_serve::{TopKRequest, Update};
use std::collections::VecDeque;

/// Records every workload is loaded with.
pub const DATASET_N: usize = 20_000;

/// Ids of inserted records start here, far above the initial ids.
const FIRST_INSERT_ID: u64 = 1_000_000;

/// splitmix64 (Steele, Lea & Flood): one 64-bit state word, full
/// period, and good enough statistics for workload generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (modulo bias is below 2^-40 for the sizes used).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// An independent sub-seed of the run seed: the dataset, the closed
/// stream and the open stream each draw from their own.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

/// `n` IND-uniform records in `[0,1)^d`, ids `0..n`.
pub fn records(n: usize, d: usize, world: u64) -> Vec<Record> {
    let mut rng = SplitMix64::new(sub_seed(world, 1));
    (0..n)
        .map(|i| Record::new(i as u64, (0..d).map(|_| rng.unit()).collect::<Vec<f64>>()))
        .collect()
}

/// Shape of one workload's traffic. `dist_fanout` and `shard_fanout`
/// share one value of this type, which is what makes the former's
/// stream a prefix of the latter's.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    pub d: usize,
    /// Distinct preference anchors (drawn in `[0.2, 1]^d`).
    pub anchors: usize,
    /// Each query is an anchor with every weight moved by at most this.
    pub jitter: f64,
    pub ks: &'static [usize],
    /// Odd-numbered anchors ask for `GirStar` instead of `Gir`, so both
    /// kinds live in the cache while the number of session keys stays
    /// anchors × ks.
    pub star_on_odd_anchors: bool,
    pub updates_per_cycle: usize,
    /// Share of inserts drawn in `[0.7, 1)^d` (they contend with the
    /// top-k); 0 makes every insert uniform.
    pub hot_insert_share: f64,
    /// Share of deletes that remove the oldest live hot insert (uniform
    /// when none is live).
    pub hot_delete_share: f64,
    pub queries_per_cycle: usize,
}

/// One unit of replay: apply `updates` as one batch, then serve
/// `queries` one at a time.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub updates: Vec<Update>,
    pub queries: Vec<TopKRequest>,
}

/// The deterministic cycle generator of one workload.
///
/// The *population* comes from the world: the anchors, the sequence of
/// jittered queries each anchor issues, and the whole update stream.
/// The traffic seed draws the *order* in which the anchors ask. Two
/// traffic seeds therefore send the same updates and almost the same
/// multiset of queries in different interleavings: which query meets
/// which cache state, and so every hit, miss and repair, differs, while
/// hit rates, region sizes and memory stay those of one workload.
pub struct Stream {
    spec: StreamSpec,
    order: SplitMix64,
    anchors: Vec<Anchor>,
    updates: SplitMix64,
    /// Simulated live set, kept in step with the cycles handed out.
    live: Vec<(u64, PointD)>,
    hot_live: VecDeque<u64>,
    next_id: u64,
}

struct Anchor {
    weights: Vec<f64>,
    /// Draws this anchor's jitters and result sizes, visit by visit.
    visits: SplitMix64,
}

impl Stream {
    /// `world` and `pass` fix the population (each pass of a run has its
    /// own), `seed` the order.
    pub fn new(spec: &StreamSpec, initial: &[Record], world: u64, pass: u64, seed: u64) -> Stream {
        let mut anchor_rng = SplitMix64::new(world);
        let anchors = (0..spec.anchors)
            .map(|i| Anchor {
                weights: (0..spec.d).map(|_| anchor_rng.range(0.2, 1.0)).collect(),
                visits: SplitMix64::new(sub_seed(world, (pass << 32) + i as u64 + 1)),
            })
            .collect();
        Stream {
            spec: spec.clone(),
            order: SplitMix64::new(seed),
            anchors,
            updates: SplitMix64::new(sub_seed(world, pass << 32)),
            live: initial.iter().map(|r| (r.id, r.attrs.clone())).collect(),
            hot_live: VecDeque::new(),
            // Above every id in use, so a stream started over a churned
            // dataset (the open pass, the write tail) never reuses one.
            next_id: initial
                .iter()
                .map(|r| r.id + 1)
                .max()
                .unwrap_or(0)
                .max(FIRST_INSERT_ID),
        }
    }

    pub fn next_cycle(&mut self) -> Cycle {
        let updates = (0..self.spec.updates_per_cycle)
            .map(|_| self.next_update())
            .collect();
        let queries = (0..self.spec.queries_per_cycle)
            .map(|_| self.next_query())
            .collect();
        Cycle { updates, queries }
    }

    fn next_update(&mut self) -> Update {
        let insert = self.live.len() <= 1 || self.updates.chance(0.5);
        if insert {
            let hot = self.updates.chance(self.spec.hot_insert_share);
            let lo = if hot { 0.7 } else { 0.0 };
            let attrs: Vec<f64> = (0..self.spec.d)
                .map(|_| self.updates.range(lo, 1.0))
                .collect();
            let rec = Record::new(self.next_id, attrs);
            self.next_id += 1;
            self.live.push((rec.id, rec.attrs.clone()));
            if hot {
                self.hot_live.push_back(rec.id);
            }
            Update::Insert(rec)
        } else {
            let want_hot = self.updates.chance(self.spec.hot_delete_share);
            let idx = match want_hot.then(|| self.hot_live.pop_front()).flatten() {
                Some(hot_id) => self
                    .live
                    .iter()
                    .position(|(id, _)| *id == hot_id)
                    .expect("hot_live only names live records"),
                None => self.updates.below(self.live.len()),
            };
            let (id, attrs) = self.live.swap_remove(idx);
            self.hot_live.retain(|&h| h != id);
            Update::Delete { id, attrs }
        }
    }

    fn next_query(&mut self) -> TopKRequest {
        let pick = self.order.below(self.anchors.len());
        let anchor = &mut self.anchors[pick];
        let jitter = self.spec.jitter;
        let w: Vec<f64> = anchor
            .weights
            .iter()
            .map(|a| (a + anchor.visits.range(-jitter, jitter)).clamp(0.0, 1.0))
            .collect();
        let k = self.spec.ks[anchor.visits.below(self.spec.ks.len())];
        let star = self.spec.star_on_odd_anchors && pick % 2 == 1;
        TopKRequest::new(w, k).kind(if star {
            RegionKind::GirStar
        } else {
            RegionKind::Gir
        })
    }
}

/// FNV-1a over the 64-bit words of a cycle: ids, attribute and weight
/// bits, k and kind. Pins the generated load in the tests below.
#[cfg(test)]
fn digest_cycle(mut h: u64, cycle: &Cycle) -> u64 {
    let mut eat = |word: u64| h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    for u in &cycle.updates {
        let (tag, id, attrs) = match u {
            Update::Insert(rec) => (1, rec.id, &rec.attrs),
            Update::Delete { id, attrs } => (2, *id, attrs),
        };
        eat(tag);
        eat(id);
        attrs.coords().iter().for_each(|c| eat(c.to_bits()));
    }
    for q in &cycle.queries {
        eat(q.k as u64);
        eat(matches!(q.kind, RegionKind::GirStar) as u64);
        q.weights.coords().iter().for_each(|c| eat(c.to_bits()));
    }
    h
}

/// Seed of [`digest_cycle`] folds.
#[cfg(test)]
const DIGEST_INIT: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::stream_of;
    use crate::workloads::{Workload, DEFAULT_SEED, WORKLOADS, WORLD_SEED};

    /// Digest of the dataset plus the first `cycles` cycles of the
    /// closed stream, exactly as `measure` seeds them.
    fn stream_digest(w: &Workload, seed: u64, cycles: usize) -> u64 {
        let data = records(DATASET_N, w.stream.d, WORLD_SEED);
        let mut h = DIGEST_INIT;
        for r in &data {
            h = (h ^ r.id).wrapping_mul(0x0000_0100_0000_01B3);
            for c in r.attrs.coords() {
                h = (h ^ c.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let mut stream = stream_of(w, &w.stream, &data, 0, seed);
        for _ in 0..cycles {
            h = digest_cycle(h, &stream.next_cycle());
        }
        h
    }

    #[test]
    fn default_seed_streams_are_pinned() {
        // A change here changes what every later PR is measured under:
        // it needs its own benchmark PR and a fresh baseline.
        let expect: [(&str, u64); 5] = [
            ("session_read", 0xCF71_009F_4C24_BD70),
            ("explore_miss", 0xC839_E11E_BCF0_12C5),
            ("churn_write", 0xB4CE_40D0_923C_FE64),
            ("shard_fanout", 0x6D92_976C_F783_0E71),
            ("dist_fanout", 0x6D92_976C_F783_0E71),
        ];
        let got: Vec<(&str, u64)> = expect
            .iter()
            .map(|(name, _)| {
                let w = WORKLOADS.iter().find(|w| w.name == *name).unwrap();
                (*name, stream_digest(w, DEFAULT_SEED, 48))
            })
            .collect();
        assert_eq!(got, expect, "got {got:#018X?}");
    }

    #[test]
    fn dist_fanout_replays_a_prefix_of_shard_fanout() {
        let shard = WORKLOADS.iter().find(|w| w.name == "shard_fanout").unwrap();
        let dist = WORKLOADS.iter().find(|w| w.name == "dist_fanout").unwrap();
        assert_eq!(shard.stream, dist.stream);
        assert_eq!(shard.stream_tag, dist.stream_tag);
        assert_eq!(shard.warm_cycles, dist.warm_cycles);
        assert!(dist.timed_cycles <= shard.timed_cycles);
        for seed in [DEFAULT_SEED, 7] {
            let n = dist.warm_cycles + 8;
            assert_eq!(stream_digest(shard, seed, n), stream_digest(dist, seed, n));
        }
    }

    #[test]
    fn deletes_always_name_live_records() {
        for w in WORKLOADS {
            let data = records(500, w.stream.d, 3);
            let mut live: std::collections::HashSet<u64> = data.iter().map(|r| r.id).collect();
            let mut stream = Stream::new(&w.stream, &data, 3, 0, 4);
            for _ in 0..30 {
                for u in stream.next_cycle().updates {
                    match u {
                        Update::Insert(r) => assert!(live.insert(r.id)),
                        Update::Delete { id, .. } => assert!(live.remove(&id)),
                    }
                }
            }
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let w = &WORKLOADS[0];
        assert_ne!(stream_digest(w, 1, 2), stream_digest(w, 2, 2));
    }
}

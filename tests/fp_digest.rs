//! Bit-for-bit pins on FP's emitted regions.
//!
//! Every FP path — cold, indexed, sharded over one and four shards,
//! GIR\* FP (cold and indexed) and `fp_repair` — folds the exact bits
//! of the half-spaces it emits, **in emitted order**, into one FNV-1a
//! digest per path. The expected values were recorded from the
//! star implementation that kept tombstoned facets and a hashed ridge
//! map; the live-plane star with fan adjacency must reproduce every
//! normal, offset and provenance bit, and the order they come out in.

use gir::core::fp::fp_repair;
use gir::core::{GirEngine, Method, PruneIndex, ShardView};
use gir::datagen::{synthetic, Distribution};
use gir::geometry::hyperplane::{HalfSpace, Provenance};
use gir::query::{QueryVector, Record, ScoringFunction};
use gir::rtree::RTree;
use gir::storage::{MemPageStore, PageStore, PAGE_SIZE};
use std::sync::Arc;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn halfspaces(&mut self, hs: &[HalfSpace]) {
        self.word(hs.len() as u64);
        for h in hs {
            for &c in h.normal.coords() {
                self.word(c.to_bits());
            }
            self.word(h.offset.to_bits());
            match h.provenance {
                Provenance::Ordering { rank } => {
                    self.word(1);
                    self.word(rank as u64);
                }
                Provenance::NonResult { record_id } => {
                    self.word(2);
                    self.word(record_id);
                }
                Provenance::StarNonResult { rank, record_id } => {
                    self.word(3);
                    self.word(rank as u64);
                    self.word(record_id);
                }
                Provenance::QueryBox { dim, upper } => {
                    self.word(4);
                    self.word(dim as u64);
                    self.word(upper as u64);
                }
            }
        }
    }
}

fn tree_of(recs: &[Record], d: usize) -> RTree {
    let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
    if recs.is_empty() {
        RTree::new(store, d).unwrap()
    } else {
        RTree::bulk_load(store, recs).unwrap()
    }
}

fn queries(d: usize, count: usize, seed: u64) -> Vec<QueryVector> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..count)
        .map(|_| QueryVector::new((0..d).map(|_| 0.05 + 0.95 * next()).collect::<Vec<_>>()))
        .collect()
}

/// The worlds every path is digested over: `(distribution, n, d, k)`.
const WORLDS: [(Distribution, usize, usize, usize); 4] = [
    (Distribution::Independent, 1500, 3, 10),
    (Distribution::Anticorrelated, 1200, 3, 5),
    (Distribution::Independent, 1200, 4, 8),
    (Distribution::Anticorrelated, 600, 5, 4),
];
const QUERIES: usize = 12;

/// One digest per path, folded over every world and query.
fn digests() -> [(&'static str, u64); 8] {
    let mut cold = Fnv::new();
    let mut indexed = Fnv::new();
    let mut s1 = Fnv::new();
    let mut s4 = Fnv::new();
    let mut star_cold = Fnv::new();
    let mut star_indexed = Fnv::new();
    let mut repair = Fnv::new();
    let mut facets = Fnv::new();
    for (wi, &(dist, n, d, k)) in WORLDS.iter().enumerate() {
        let recs = synthetic(dist, n, d, 0xD16E_0000 + wi as u64);
        let tree = tree_of(&recs, d);
        let engine = GirEngine::new(&tree);
        let scoring = ScoringFunction::linear(d);
        let index = PruneIndex::new();
        let one_index = PruneIndex::new();
        let star_index = PruneIndex::new();
        let mut parts: Vec<Vec<Record>> = vec![Vec::new(); 4];
        for r in &recs {
            parts[(r.id % 4) as usize].push(r.clone());
        }
        let shard_trees: Vec<RTree> = parts.iter().map(|p| tree_of(p, d)).collect();
        let shard_indexes: Vec<PruneIndex> = (0..4).map(|_| PruneIndex::new()).collect();
        let views: Vec<ShardView<'_>> = shard_trees
            .iter()
            .zip(&shard_indexes)
            .map(|(tree, index)| ShardView { tree, index })
            .collect();
        let one = [ShardView {
            tree: &tree,
            index: &one_index,
        }];

        for q in queries(d, QUERIES, 0x5EED ^ (wi as u64) << 8) {
            let out = engine.gir(&q, k, Method::FacetPruning).unwrap();
            cold.halfspaces(&out.region.halfspaces);
            facets.word(out.stats.structure_size as u64);

            let out = engine
                .gir_indexed(&q, k, Method::FacetPruning, &index)
                .unwrap();
            indexed.halfspaces(&out.region.halfspaces);
            facets.word(out.stats.structure_size as u64);

            let out = GirEngine::gir_sharded(&one, &scoring, &q, k, Method::FacetPruning).unwrap();
            s1.halfspaces(&out.region.halfspaces);
            let out =
                GirEngine::gir_sharded(&views, &scoring, &q, k, Method::FacetPruning).unwrap();
            s4.halfspaces(&out.region.halfspaces);
            facets.word(out.stats.structure_size as u64);

            let out = engine.gir_star(&q, k, Method::FacetPruning).unwrap();
            star_cold.halfspaces(&out.region.halfspaces);
            facets.word(out.stats.structure_size as u64);
            let out = engine
                .gir_star_indexed(&q, k, Method::FacetPruning, &star_index)
                .unwrap();
            star_indexed.halfspaces(&out.region.halfspaces);

            // Repair after losing the first critical record: the
            // survivors seed the star, the rest of the region is the
            // interim.
            let cold_out = engine.gir(&q, k, Method::FacetPruning).unwrap();
            let mut seeds = Vec::new();
            let mut interim = Vec::new();
            let mut dropped = false;
            for h in &cold_out.region.halfspaces {
                match h.provenance {
                    Provenance::NonResult { record_id } if !dropped => {
                        dropped = true;
                        let _ = record_id;
                    }
                    Provenance::NonResult { record_id } => {
                        seeds.push(recs[record_id as usize].clone());
                        interim.push(h.clone());
                    }
                    _ => interim.push(h.clone()),
                }
            }
            let (hs, st) = fp_repair(&tree, &scoring, &cold_out.result, &interim, &seeds).unwrap();
            repair.halfspaces(&hs);
            facets.word(st.facets as u64);
        }
    }
    [
        ("cold", cold.0),
        ("indexed", indexed.0),
        ("sharded_s1", s1.0),
        ("sharded_s4", s4.0),
        ("gir_star_cold", star_cold.0),
        ("gir_star_indexed", star_indexed.0),
        ("fp_repair", repair.0),
        ("facet_counts", facets.0),
    ]
}

#[test]
fn fp_region_bits_match_the_recorded_digests() {
    let got = digests();
    for (name, digest) in &got {
        println!("{name}: {digest:#018x}");
    }
    let expect: [(&str, u64); 8] = [
        ("cold", 0x82b6_4932_32fe_c20a),
        ("indexed", 0x9b62_460e_f509_dfac),
        ("sharded_s1", 0x9b62_460e_f509_dfac),
        ("sharded_s4", 0x1530_4eef_af1d_6945),
        ("gir_star_cold", 0x80f0_6136_c97b_cd9c),
        ("gir_star_indexed", 0x6fe1_d8ee_c3ff_4d88),
        ("fp_repair", 0xe303_8d66_b029_0f09),
        ("facet_counts", 0xec1f_60ae_587d_a4ab),
    ];
    assert_eq!(got, expect);
}

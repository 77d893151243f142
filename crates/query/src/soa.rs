//! Chunked structure-of-arrays record storage with fused scan kernels.
//!
//! Hot scans over candidate sets (skyline maintenance, prune-index
//! lookups, score ranking) are memory-bound when records live as
//! individual heap-boxed points. [`RecordBlocks`] stores records
//! column-major in fixed-size chunks so the per-dimension inner loops
//! run over contiguous `f64` slices — the compiler autovectorizes the
//! fused dominance (`ge`/`gt` mask accumulation) and linear-score
//! (multiply-add) kernels — and each block carries its per-dimension
//! *corner maxima* (the block's MBB top corner), so whole blocks are
//! skipped when their corner cannot dominate the probe or cannot beat a
//! score bound.

use gir_geometry::vector::PointD;
use gir_rtree::Record;
use std::collections::HashMap;

/// Records per block. Masks for one block live on the stack and one
/// block's column fits comfortably in L1.
pub const SOA_BLOCK: usize = 256;

#[derive(Debug, Clone)]
struct Block {
    ids: Vec<u64>,
    /// `cols[j][i]` = attribute `j` of lane `i`.
    cols: Vec<Vec<f64>>,
    /// Per-dimension maximum over live lanes — the block's MBB top
    /// corner, precomputed so scans can skip the block outright.
    corner: Vec<f64>,
}

impl Block {
    fn new(d: usize) -> Block {
        Block {
            ids: Vec::with_capacity(SOA_BLOCK),
            cols: vec![Vec::with_capacity(SOA_BLOCK); d],
            corner: vec![f64::NEG_INFINITY; d],
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn refresh_corner(&mut self) {
        for (j, col) in self.cols.iter().enumerate() {
            self.corner[j] = col.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        }
    }
}

/// A stored record's position: its block and lane. Valid until the
/// next [`RecordBlocks::remove`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lane {
    block: u32,
    lane: u32,
}

/// A chunked column-major record store (see module docs).
#[derive(Debug, Clone, Default)]
pub struct RecordBlocks {
    d: usize,
    blocks: Vec<Block>,
    /// id → (block, lane). Lanes move on `remove` (swap-remove); the
    /// index tracks them.
    index: HashMap<u64, (u32, u32)>,
}

impl RecordBlocks {
    /// An empty store for `d`-dimensional records.
    pub fn new(d: usize) -> RecordBlocks {
        RecordBlocks {
            d,
            blocks: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Builds a store from a record slice.
    pub fn from_records(d: usize, records: &[Record]) -> RecordBlocks {
        let mut rb = RecordBlocks::new(d);
        for r in records {
            rb.push(r);
        }
        rb
    }

    /// Attribute dimensionality.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Live records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no record is stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True when `id` is stored.
    pub fn contains(&self, id: u64) -> bool {
        self.index.contains_key(&id)
    }

    /// The stored attribute point of `id`.
    pub fn get(&self, id: u64) -> Option<PointD> {
        let &(b, l) = self.index.get(&id)?;
        let block = &self.blocks[b as usize];
        Some(PointD::from(
            block.cols.iter().map(|c| c[l as usize]).collect::<Vec<_>>(),
        ))
    }

    /// Appends a record (ids are assumed unique; a duplicate id would
    /// shadow its predecessor in the index).
    pub fn push(&mut self, rec: &Record) {
        debug_assert_eq!(rec.attrs.dim(), self.d);
        if self.blocks.last().is_none_or(|b| b.len() >= SOA_BLOCK) {
            self.blocks.push(Block::new(self.d));
        }
        let bi = self.blocks.len() - 1;
        let block = &mut self.blocks[bi];
        let lane = block.len();
        block.ids.push(rec.id);
        for (j, col) in block.cols.iter_mut().enumerate() {
            let v = rec.attrs[j];
            col.push(v);
            if v > block.corner[j] {
                block.corner[j] = v;
            }
        }
        self.index.insert(rec.id, (bi as u32, lane as u32));
    }

    /// Removes a record by id (swap-remove within its block). Returns
    /// true when it was present.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some((bi, lane)) = self.index.remove(&id) else {
            return false;
        };
        let (bi, lane) = (bi as usize, lane as usize);
        let block = &mut self.blocks[bi];
        block.ids.swap_remove(lane);
        for col in block.cols.iter_mut() {
            col.swap_remove(lane);
        }
        if lane < block.len() {
            let moved = block.ids[lane];
            self.index.insert(moved, (bi as u32, lane as u32));
        }
        block.refresh_corner();
        if block.ids.is_empty() {
            self.blocks.swap_remove(bi);
            if bi < self.blocks.len() {
                for (lane, &mid) in self.blocks[bi].ids.iter().enumerate() {
                    self.index.insert(mid, (bi as u32, lane as u32));
                }
            }
        }
        true
    }

    /// Materializes every stored record whose id passes `keep`, in
    /// storage order — the same order [`RecordBlocks::linear_scores`]
    /// emits, so filtered outputs of the two stay index-aligned.
    pub fn materialize_if(&self, mut keep: impl FnMut(u64) -> bool) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.len());
        for block in &self.blocks {
            for lane in 0..block.len() {
                let id = block.ids[lane];
                if keep(id) {
                    out.push(Record::new(
                        id,
                        block.cols.iter().map(|c| c[lane]).collect::<Vec<_>>(),
                    ));
                }
            }
        }
        out
    }

    /// Materializes every stored record.
    pub fn materialize(&self) -> Vec<Record> {
        self.materialize_if(|_| true)
    }

    /// Fused dominance scan: some stored record (whose id is **not** in
    /// `except`) dominates `p`. Blocks whose corner does not
    /// component-wise upper-bound `p` are skipped without touching their
    /// lanes.
    pub fn dominates_any_except(&self, p: &[f64], except: &[u64]) -> bool {
        debug_assert_eq!(p.len(), self.d);
        let mut ge = [false; SOA_BLOCK];
        let mut gt = [false; SOA_BLOCK];
        for block in &self.blocks {
            // Corner gate: a dominator needs ≥ p on every dimension.
            if block.corner.iter().zip(p).any(|(&c, &pj)| c < pj) {
                continue;
            }
            let n = block.len();
            ge[..n].fill(true);
            gt[..n].fill(false);
            for (col, &pj) in block.cols.iter().zip(p) {
                for i in 0..n {
                    let v = col[i];
                    ge[i] &= v >= pj;
                    gt[i] |= v > pj;
                }
            }
            for i in 0..n {
                if ge[i] && gt[i] && !except.contains(&block.ids[i]) {
                    return true;
                }
            }
        }
        false
    }

    /// Fused dominance scan in the other direction: ids of stored
    /// records that `p` dominates.
    pub fn dominated_by(&self, p: &[f64], out: &mut Vec<u64>) {
        debug_assert_eq!(p.len(), self.d);
        let mut le = [false; SOA_BLOCK];
        let mut lt = [false; SOA_BLOCK];
        for block in &self.blocks {
            let n = block.len();
            le[..n].fill(true);
            lt[..n].fill(false);
            for (col, &pj) in block.cols.iter().zip(p) {
                for i in 0..n {
                    let v = col[i];
                    le[i] &= v <= pj;
                    lt[i] |= v < pj;
                }
            }
            for i in 0..n {
                if le[i] && lt[i] {
                    out.push(block.ids[i]);
                }
            }
        }
    }

    /// Fused linear-score kernel: emits `(lane, id, w · attrs)` for
    /// every stored record, in storage order (see
    /// [`RecordBlocks::materialize_if`]). The multiply-add inner loop
    /// runs column-major over contiguous slices.
    pub fn linear_scores(&self, w: &[f64], mut emit: impl FnMut(Lane, u64, f64)) {
        debug_assert_eq!(w.len(), self.d);
        let mut acc = [0.0f64; SOA_BLOCK];
        for (bi, block) in self.blocks.iter().enumerate() {
            let n = block.len();
            acc[..n].fill(0.0);
            for (col, &wj) in block.cols.iter().zip(w) {
                for (a, &v) in acc[..n].iter_mut().zip(col) {
                    *a += wj * v;
                }
            }
            for (lane, (&id, &score)) in block.ids.iter().zip(&acc[..n]).enumerate() {
                let at = Lane {
                    block: bi as u32,
                    lane: lane as u32,
                };
                emit(at, id, score);
            }
        }
    }

    /// Copies the attributes of the record at `at` into `out` (`d`
    /// entries) — a record read without materialising it.
    pub fn attrs_into(&self, at: Lane, out: &mut [f64]) {
        let block = &self.blocks[at.block as usize];
        for (o, col) in out.iter_mut().zip(&block.cols) {
            *o = col[at.lane as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_geometry::dominance::dominates;

    fn pseudo_records(n: usize, d: usize, seed: u64) -> Vec<Record> {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Record::new(i as u64, (0..d).map(|_| next()).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn roundtrip_and_lookup() {
        let recs = pseudo_records(700, 3, 9);
        let rb = RecordBlocks::from_records(3, &recs);
        assert_eq!(rb.len(), 700);
        assert!(rb.blocks.len() >= 2, "must chunk past one block");
        for r in &recs {
            assert!(rb.contains(r.id));
            assert_eq!(rb.get(r.id).unwrap(), r.attrs);
        }
        let mut back = rb.materialize();
        back.sort_by_key(|r| r.id);
        assert_eq!(back.len(), recs.len());
        for (a, b) in back.iter().zip(&recs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.attrs, b.attrs);
        }
    }

    #[test]
    fn remove_keeps_index_consistent() {
        let recs = pseudo_records(600, 2, 10);
        let mut rb = RecordBlocks::from_records(2, &recs);
        // Remove every third record, including block-boundary lanes.
        for r in recs.iter().step_by(3) {
            assert!(rb.remove(r.id));
            assert!(!rb.remove(r.id), "double remove must fail");
        }
        assert_eq!(rb.len(), 600 - 200);
        for (i, r) in recs.iter().enumerate() {
            if i % 3 == 0 {
                assert!(!rb.contains(r.id));
            } else {
                assert_eq!(rb.get(r.id).unwrap(), r.attrs, "id {}", r.id);
            }
        }
    }

    #[test]
    fn dominance_kernels_match_naive() {
        let recs = pseudo_records(500, 3, 11);
        let rb = RecordBlocks::from_records(3, &recs);
        let probes = pseudo_records(40, 3, 12);
        for p in &probes {
            let naive_dom = recs.iter().any(|r| dominates(&r.attrs, &p.attrs));
            assert_eq!(
                rb.dominates_any_except(p.attrs.coords(), &[]),
                naive_dom,
                "probe {:?}",
                p.attrs
            );
            let mut got: Vec<u64> = Vec::new();
            rb.dominated_by(p.attrs.coords(), &mut got);
            got.sort_unstable();
            let mut expect: Vec<u64> = recs
                .iter()
                .filter(|r| dominates(&p.attrs, &r.attrs))
                .map(|r| r.id)
                .collect();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn except_list_masks_dominators() {
        let recs = vec![
            Record::new(1, vec![0.9, 0.9]),
            Record::new(2, vec![0.3, 0.2]),
        ];
        let rb = RecordBlocks::from_records(2, &recs);
        let p = [0.5, 0.5];
        assert!(rb.dominates_any_except(&p, &[]));
        // The only dominator is excluded: no dominance.
        assert!(!rb.dominates_any_except(&p, &[1]));
    }

    #[test]
    fn linear_scores_match_dot_products() {
        let recs = pseudo_records(300, 4, 13);
        let rb = RecordBlocks::from_records(4, &recs);
        let w = [0.3, 0.9, 0.1, 0.6];
        let mut got: HashMap<u64, f64> = HashMap::new();
        let mut attrs = [0.0; 4];
        rb.linear_scores(&w, |at, id, s| {
            got.insert(id, s);
            rb.attrs_into(at, &mut attrs);
            assert_eq!(PointD::from(&attrs[..]), rb.get(id).unwrap());
        });
        assert_eq!(got.len(), recs.len());
        for r in &recs {
            let expect: f64 = r
                .attrs
                .coords()
                .iter()
                .zip(w.iter())
                .map(|(a, b)| a * b)
                .sum();
            assert!((got[&r.id] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn corner_gate_stays_sound_after_removals() {
        // Removing the block maximum must refresh the corner, or the
        // gate would wrongly skip blocks.
        let mut rb = RecordBlocks::new(2);
        rb.push(&Record::new(1, vec![0.95, 0.95]));
        rb.push(&Record::new(2, vec![0.6, 0.7]));
        rb.remove(1);
        // Record 2 dominates (0.5, 0.5); a stale corner of 0.95 would
        // still pass, but the refreshed one must too.
        assert!(rb.dominates_any_except(&[0.5, 0.5], &[]));
        assert!(!rb.dominates_any_except(&[0.65, 0.65], &[]));
    }
}

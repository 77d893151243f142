//! The R\*-tree proper: dynamic insertion (ChooseSubtree, R\* split,
//! forced reinsert) and STR bulk loading.
//!
//! Bulk loading exists because the experiments build trees over millions
//! of records (Table 2); sort-tile-recursive produces well-clustered
//! trees in `O(n log n)` and is the standard substitute for repeated
//! insertion at that scale. Dynamic insertion implements the full R\*
//! algorithm [Beckmann et al. 1990] and is cross-checked against bulk
//! loading in tests.

use crate::mbb::Mbb;
use crate::node::{Node, NodeEntries};
use crate::record::Record;
use gir_geometry::vector::PointD;
use gir_storage::{PageId, PageStore, StorageError};
use std::sync::Arc;

/// Fraction of entries removed by forced reinsert (R\* recommends 30%).
const REINSERT_FRACTION: f64 = 0.3;

/// Errors from tree operations.
#[derive(Debug)]
pub enum RTreeError {
    /// Underlying page store failure.
    Storage(StorageError),
    /// Record dimensionality differs from the tree's.
    DimensionMismatch { expected: usize, got: usize },
    /// Bulk load of an empty dataset.
    EmptyDataset,
}

impl std::fmt::Display for RTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RTreeError::Storage(e) => write!(f, "storage: {e}"),
            RTreeError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: tree {expected}, record {got}")
            }
            RTreeError::EmptyDataset => write!(f, "cannot bulk-load an empty dataset"),
        }
    }
}

impl std::error::Error for RTreeError {}

impl From<StorageError> for RTreeError {
    fn from(e: StorageError) -> Self {
        RTreeError::Storage(e)
    }
}

/// An entry being (re)inserted at some level.
#[derive(Debug, Clone)]
enum Entry {
    Record(Record),
    Child(Mbb, PageId),
}

impl Entry {
    fn mbb(&self) -> Mbb {
        match self {
            Entry::Record(r) => Mbb::point(&r.attrs),
            Entry::Child(m, _) => m.clone(),
        }
    }
}

/// An R\*-tree over a shared page store.
pub struct RTree {
    store: Arc<dyn PageStore>,
    root: PageId,
    dim: usize,
    /// Leaf level is 0; the root sits at `height - 1`.
    height: u32,
    len: u64,
}

impl RTree {
    /// Creates an empty tree of dimensionality `dim`.
    pub fn new(store: Arc<dyn PageStore>, dim: usize) -> Result<RTree, RTreeError> {
        assert!(
            (1..=16).contains(&dim),
            "supported dimensionality is 1..=16"
        );
        let root = store.allocate();
        store.write_page(root, Node::leaf(dim).encode())?;
        Ok(RTree {
            store,
            root,
            dim,
            height: 1,
            len: 0,
        })
    }

    /// Number of records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Attribute dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Tree height (1 = the root is a leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Root page id.
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// The shared page store (for I/O statistics).
    pub fn store(&self) -> &Arc<dyn PageStore> {
        &self.store
    }

    /// Reads and decodes a node, counting one logical page fetch.
    pub fn read_node(&self, id: PageId) -> Result<Node, RTreeError> {
        Ok(Node::decode(&self.store.read_page(id)?))
    }

    /// MBB of the whole tree (one page fetch).
    pub fn root_mbb(&self) -> Result<Mbb, RTreeError> {
        Ok(self.read_node(self.root)?.mbb())
    }

    // ------------------------------------------------------------------
    // Dynamic insertion (R*)
    // ------------------------------------------------------------------

    /// Inserts one record.
    pub fn insert(&mut self, rec: Record) -> Result<(), RTreeError> {
        if rec.dim() != self.dim {
            return Err(RTreeError::DimensionMismatch {
                expected: self.dim,
                got: rec.dim(),
            });
        }
        self.drain_pending(vec![(Entry::Record(rec), 0)])?;
        self.len += 1;
        Ok(())
    }

    /// Inserts/reinserts a batch of entries (records or orphaned subtrees)
    /// at their levels, handling overflow treatment and root splits.
    fn drain_pending(&mut self, mut pending: Vec<(Entry, u32)>) -> Result<(), RTreeError> {
        // Forced reinsert fires at most once per level per logical insert.
        let mut reinserted_levels: Vec<bool> = vec![false; self.height as usize + 1];
        while let Some((entry, level)) = pending.pop() {
            reinserted_levels.resize(self.height as usize + 1, false);
            let root = self.root;
            let root_level = self.height - 1;
            let (_, split) = self.insert_at(
                root,
                root_level,
                entry,
                level,
                &mut reinserted_levels,
                &mut pending,
            )?;
            if let Some((sib_mbb, sib_page)) = split {
                // Root split: grow the tree by one level.
                let old_root_mbb = self.read_node(root)?.mbb();
                let new_root = self.store.allocate();
                let mut node = Node::internal(self.dim);
                if let NodeEntries::Internal(v) = &mut node.entries {
                    v.push((old_root_mbb, root));
                    v.push((sib_mbb, sib_page));
                }
                self.store.write_page(new_root, node.encode())?;
                self.root = new_root;
                self.height += 1;
                reinserted_levels.resize(self.height as usize + 1, false);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Deletion (condense-tree with reinsertion)
    // ------------------------------------------------------------------

    /// Deletes the record with the given id and attribute point. Returns
    /// `false` when no such record exists. Underfull nodes are dissolved
    /// and their entries reinserted (Guttman's CondenseTree); a root left
    /// with a single child is collapsed. Orphaned pages are not recycled
    /// (the store has no free list).
    pub fn delete(&mut self, id: u64, attrs: &PointD) -> Result<bool, RTreeError> {
        if attrs.dim() != self.dim {
            return Err(RTreeError::DimensionMismatch {
                expected: self.dim,
                got: attrs.dim(),
            });
        }
        let root = self.root;
        let root_level = self.height - 1;
        let mut orphans: Vec<(Entry, u32)> = Vec::new();
        let (found, _) = self.delete_at(root, root_level, id, attrs, &mut orphans)?;
        if !found {
            debug_assert!(orphans.is_empty());
            return Ok(false);
        }
        self.len -= 1;
        self.drain_pending(orphans)?;
        // Collapse a single-child internal root.
        loop {
            let node = self.read_node(self.root)?;
            match &node.entries {
                NodeEntries::Internal(v) if v.len() == 1 => {
                    self.root = v[0].1;
                    self.height -= 1;
                }
                _ => break,
            }
        }
        Ok(true)
    }

    /// Recursive delete. Returns `(found, new_mbb)`; `new_mbb == None`
    /// means this node underflowed: its surviving entries were pushed to
    /// `orphans` and the caller must drop its entry for this child.
    fn delete_at(
        &mut self,
        page: PageId,
        page_level: u32,
        id: u64,
        attrs: &PointD,
        orphans: &mut Vec<(Entry, u32)>,
    ) -> Result<(bool, Option<Mbb>), RTreeError> {
        let mut node = self.read_node(page)?;
        let min = Node::min_fill(node.capacity());
        let is_root = page == self.root;
        match &mut node.entries {
            NodeEntries::Leaf(recs) => {
                let Some(pos) = recs.iter().position(|r| r.id == id && r.attrs == *attrs) else {
                    return Ok((false, None));
                };
                recs.remove(pos);
                if is_root || node.len() >= min {
                    let mbb = node.mbb();
                    self.store.write_page(page, node.encode())?;
                    Ok((true, Some(mbb)))
                } else {
                    let NodeEntries::Leaf(recs) = node.entries else {
                        unreachable!()
                    };
                    orphans.extend(recs.into_iter().map(|r| (Entry::Record(r), 0)));
                    Ok((true, None))
                }
            }
            NodeEntries::Internal(children) => {
                // Candidate subtrees: those whose MBB covers the point.
                let candidates: Vec<(usize, PageId)> = children
                    .iter()
                    .enumerate()
                    .filter(|(_, (m, _))| m.contains_point(attrs))
                    .map(|(i, (_, c))| (i, *c))
                    .collect();
                let mut hit: Option<(usize, Option<Mbb>)> = None;
                for (idx, child) in candidates {
                    let (found, outcome) =
                        self.delete_at(child, page_level - 1, id, attrs, orphans)?;
                    if found {
                        hit = Some((idx, outcome));
                        break;
                    }
                }
                let Some((idx, outcome)) = hit else {
                    return Ok((false, None));
                };
                let NodeEntries::Internal(children) = &mut node.entries else {
                    unreachable!()
                };
                match outcome {
                    Some(mbb) => children[idx].0 = mbb,
                    None => {
                        children.remove(idx);
                    }
                }
                if is_root || node.len() >= min {
                    let mbb = node.mbb();
                    self.store.write_page(page, node.encode())?;
                    Ok((true, Some(mbb)))
                } else {
                    let NodeEntries::Internal(children) = node.entries else {
                        unreachable!()
                    };
                    // Surviving subtrees live at page_level - 1; a new
                    // holder must sit at page_level.
                    orphans.extend(
                        children
                            .into_iter()
                            .map(|(m, c)| (Entry::Child(m, c), page_level)),
                    );
                    Ok((true, None))
                }
            }
        }
    }

    /// Recursive insert of `entry` (which lives at `target_level`) into the
    /// subtree rooted at `page` (which sits at `page_level`). Returns the
    /// node's updated MBB plus a sibling entry when the node split.
    #[allow(clippy::type_complexity)]
    fn insert_at(
        &mut self,
        page: PageId,
        page_level: u32,
        entry: Entry,
        target_level: u32,
        reinserted: &mut Vec<bool>,
        pending: &mut Vec<(Entry, u32)>,
    ) -> Result<(Mbb, Option<(Mbb, PageId)>), RTreeError> {
        let mut node = self.read_node(page)?;
        if page_level == target_level {
            match (&mut node.entries, entry) {
                (NodeEntries::Leaf(v), Entry::Record(r)) => v.push(r),
                (NodeEntries::Internal(v), Entry::Child(m, p)) => v.push((m, p)),
                _ => unreachable!("entry kind matches level by construction"),
            }
        } else {
            let NodeEntries::Internal(children) = &mut node.entries else {
                unreachable!("non-leaf levels are internal");
            };
            let idx = choose_subtree(children, &entry.mbb(), page_level == target_level + 1);
            let child_page = children[idx].1;
            let (child_mbb, split) = self.insert_at(
                child_page,
                page_level - 1,
                entry,
                target_level,
                reinserted,
                pending,
            )?;
            children[idx].0 = child_mbb;
            if let Some((sib_mbb, sib_page)) = split {
                children.push((sib_mbb, sib_page));
            }
        }

        if node.len() <= node.capacity() {
            let mbb = node.mbb();
            self.store.write_page(page, node.encode())?;
            return Ok((mbb, None));
        }

        // Overflow treatment: forced reinsert once per level (except the
        // root), then split.
        let is_root = page == self.root;
        let lvl = page_level as usize;
        if !is_root && !reinserted.get(lvl).copied().unwrap_or(false) {
            if lvl < reinserted.len() {
                reinserted[lvl] = true;
            }
            let removed = remove_for_reinsert(&mut node);
            let mbb = node.mbb();
            self.store.write_page(page, node.encode())?;
            for e in removed {
                pending.push((e, page_level));
            }
            return Ok((mbb, None));
        }

        let (keep, sibling) = split_node(&node);
        let keep_mbb = keep.mbb();
        let sib_mbb = sibling.mbb();
        let sib_page = self.store.allocate();
        self.store.write_page(page, keep.encode())?;
        self.store.write_page(sib_page, sibling.encode())?;
        Ok((keep_mbb, Some((sib_mbb, sib_page))))
    }

    // ------------------------------------------------------------------
    // Bulk loading (STR)
    // ------------------------------------------------------------------

    /// Bulk-loads a dataset with sort-tile-recursive packing, every
    /// node filled to capacity.
    pub fn bulk_load(store: Arc<dyn PageStore>, records: &[Record]) -> Result<RTree, RTreeError> {
        Self::bulk_load_with_fill(store, records, 1.0)
    }

    /// STR bulk load with every node holding at most `⌈fill · capacity⌉`
    /// entries, `fill ∈ (0, 1]`. A fully packed tree is the smallest and
    /// the best for a read-only workload, but under churn every insert
    /// lands on a full leaf and pays forced reinsert plus a split; a tree
    /// that will keep taking updates loads at the R\* steady-state
    /// utilisation instead.
    pub fn bulk_load_with_fill(
        store: Arc<dyn PageStore>,
        records: &[Record],
        fill: f64,
    ) -> Result<RTree, RTreeError> {
        assert!(
            fill > 0.0 && fill <= 1.0,
            "bulk-load fill {fill} outside (0, 1]"
        );
        let filled = |cap: usize| ((fill * cap as f64).ceil() as usize).clamp(2, cap);
        let Some(first) = records.first() else {
            return Err(RTreeError::EmptyDataset);
        };
        let dim = first.dim();
        if let Some(bad) = records.iter().find(|r| r.dim() != dim) {
            return Err(RTreeError::DimensionMismatch {
                expected: dim,
                got: bad.dim(),
            });
        }

        // Tile records into leaves.
        let leaf_cap = filled(Node::leaf_capacity(dim));
        let mut recs: Vec<&Record> = records.iter().collect();
        let mut chunks: Vec<Vec<&Record>> = Vec::new();
        str_tile(&mut recs, dim, 0, leaf_cap, &mut chunks, |r, ax| {
            r.attrs[ax]
        });

        let mut level: Vec<(Mbb, PageId)> = Vec::with_capacity(chunks.len());
        for chunk in &chunks {
            let mut node = Node::leaf(dim);
            if let NodeEntries::Leaf(v) = &mut node.entries {
                v.extend(chunk.iter().map(|r| (*r).clone()));
            }
            let page = store.allocate();
            let mbb = node.mbb();
            store.write_page(page, node.encode())?;
            level.push((mbb, page));
        }

        // Build internal levels bottom-up.
        let internal_cap = filled(Node::internal_capacity(dim));
        let mut height = 1u32;
        while level.len() > 1 {
            let centers: Vec<PointD> = level.iter().map(|(m, _)| m.center()).collect();
            // Tile by MBB centers; borrow the precomputed centers by index.
            let mut idx: Vec<usize> = (0..level.len()).collect();
            let mut idx_groups: Vec<Vec<usize>> = Vec::new();
            str_tile(&mut idx, dim, 0, internal_cap, &mut idx_groups, |&i, ax| {
                centers[i][ax]
            });

            let mut next: Vec<(Mbb, PageId)> = Vec::with_capacity(idx_groups.len());
            for g in idx_groups {
                let mut node = Node::internal(dim);
                if let NodeEntries::Internal(v) = &mut node.entries {
                    v.extend(g.into_iter().map(|i| level[i].clone()));
                }
                let page = store.allocate();
                let mbb = node.mbb();
                store.write_page(page, node.encode())?;
                next.push((mbb, page));
            }
            level = next;
            height += 1;
        }

        let root = level[0].1;
        Ok(RTree {
            store,
            root,
            dim,
            height,
            len: records.len() as u64,
        })
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Returns all records inside the closed box `[lo, hi]`.
    pub fn window_query(&self, window: &Mbb) -> Result<Vec<Record>, RTreeError> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            match self.read_node(page)?.entries {
                NodeEntries::Internal(children) => {
                    for (mbb, child) in children {
                        if mbb.intersects(window) {
                            stack.push(child);
                        }
                    }
                }
                NodeEntries::Leaf(records) => {
                    out.extend(
                        records
                            .into_iter()
                            .filter(|r| window.contains_point(&r.attrs)),
                    );
                }
            }
        }
        Ok(out)
    }

    /// Full scan via the index (test helper / verification).
    pub fn scan_all(&self) -> Result<Vec<Record>, RTreeError> {
        let d = self.dim;
        self.window_query(&Mbb {
            lo: PointD::splat(d, f64::NEG_INFINITY),
            hi: PointD::splat(d, f64::INFINITY),
        })
    }
}

/// R\* ChooseSubtree: minimal overlap enlargement when the children are
/// leaves, minimal area enlargement otherwise; ties broken by area.
fn choose_subtree(children: &[(Mbb, PageId)], entry: &Mbb, children_are_target: bool) -> usize {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, (mbb, _)) in children.iter().enumerate() {
        let enlarged = mbb.union(entry);
        let overlap_delta = if children_are_target {
            // Overlap enlargement against sibling MBBs.
            let mut before = 0.0;
            let mut after = 0.0;
            for (j, (other, _)) in children.iter().enumerate() {
                if i != j {
                    before += mbb.overlap(other);
                    after += enlarged.overlap(other);
                }
            }
            after - before
        } else {
            0.0
        };
        let area_delta = enlarged.area() - mbb.area();
        let key = (overlap_delta, area_delta, mbb.area());
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// Removes the `REINSERT_FRACTION` of entries whose centers are farthest
/// from the node MBB center (R\* forced reinsert, "close reinsert" keeps
/// the nearest entries in place).
fn remove_for_reinsert(node: &mut Node) -> Vec<Entry> {
    let center = node.mbb().center();
    let p = ((node.len() as f64 * REINSERT_FRACTION).ceil() as usize).max(1);
    match &mut node.entries {
        NodeEntries::Leaf(v) => {
            v.sort_by(|a, b| {
                let da = a.attrs.dist_sq(&center);
                let db = b.attrs.dist_sq(&center);
                da.partial_cmp(&db).expect("non-NaN")
            });
            v.split_off(v.len() - p)
                .into_iter()
                .map(Entry::Record)
                .collect()
        }
        NodeEntries::Internal(v) => {
            v.sort_by(|a, b| {
                let da = a.0.center().dist_sq(&center);
                let db = b.0.center().dist_sq(&center);
                da.partial_cmp(&db).expect("non-NaN")
            });
            v.split_off(v.len() - p)
                .into_iter()
                .map(|(m, pid)| Entry::Child(m, pid))
                .collect()
        }
    }
}

/// R\* split: choose the axis minimizing total margin over all allowed
/// distributions, then the distribution minimizing overlap (ties: area).
fn split_node(node: &Node) -> (Node, Node) {
    let dim = node.dim;
    let (mbbs, cap): (Vec<Mbb>, usize) = match &node.entries {
        NodeEntries::Leaf(v) => (
            v.iter().map(|r| Mbb::point(&r.attrs)).collect(),
            Node::leaf_capacity(dim),
        ),
        NodeEntries::Internal(v) => (
            v.iter().map(|(m, _)| m.clone()).collect(),
            Node::internal_capacity(dim),
        ),
    };
    let n = mbbs.len();
    let min_fill = Node::min_fill(cap);
    debug_assert!(n > cap, "split called on non-overflowing node");

    // For each axis, consider entries sorted by lo and by hi.
    let mut best_axis = 0usize;
    let mut best_axis_margin = f64::INFINITY;
    let mut best_orders: Option<[Vec<usize>; 2]> = None;
    for axis in 0..dim {
        let mut by_lo: Vec<usize> = (0..n).collect();
        by_lo.sort_by(|&a, &b| {
            mbbs[a].lo[axis]
                .partial_cmp(&mbbs[b].lo[axis])
                .expect("non-NaN")
        });
        let mut by_hi: Vec<usize> = (0..n).collect();
        by_hi.sort_by(|&a, &b| {
            mbbs[a].hi[axis]
                .partial_cmp(&mbbs[b].hi[axis])
                .expect("non-NaN")
        });
        let mut margin_sum = 0.0;
        for order in [&by_lo, &by_hi] {
            for k in min_fill..=(n - min_fill) {
                let g1 = Mbb::of_mbbs(order[..k].iter().map(|&i| &mbbs[i]), dim);
                let g2 = Mbb::of_mbbs(order[k..].iter().map(|&i| &mbbs[i]), dim);
                margin_sum += g1.margin() + g2.margin();
            }
        }
        if margin_sum < best_axis_margin {
            best_axis_margin = margin_sum;
            best_axis = axis;
            best_orders = Some([by_lo, by_hi]);
        }
    }
    let _ = best_axis;
    let orders = best_orders.expect("dim >= 1");

    // Pick the distribution with minimal overlap, tie-break on area.
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    let mut best_split: Option<(Vec<usize>, Vec<usize>)> = None;
    for order in &orders {
        for k in min_fill..=(n - min_fill) {
            let g1 = Mbb::of_mbbs(order[..k].iter().map(|&i| &mbbs[i]), dim);
            let g2 = Mbb::of_mbbs(order[k..].iter().map(|&i| &mbbs[i]), dim);
            let key = (g1.overlap(&g2), g1.area() + g2.area());
            if key < best_key {
                best_key = key;
                best_split = Some((order[..k].to_vec(), order[k..].to_vec()));
            }
        }
    }
    let (left_idx, right_idx) = best_split.expect("at least one distribution");

    let pick = |idx: &[usize]| -> Node {
        let mut out = Node {
            dim,
            entries: match &node.entries {
                NodeEntries::Leaf(_) => NodeEntries::Leaf(Vec::with_capacity(idx.len())),
                NodeEntries::Internal(_) => NodeEntries::Internal(Vec::with_capacity(idx.len())),
            },
        };
        match (&node.entries, &mut out.entries) {
            (NodeEntries::Leaf(src), NodeEntries::Leaf(dst)) => {
                dst.extend(idx.iter().map(|&i| src[i].clone()));
            }
            (NodeEntries::Internal(src), NodeEntries::Internal(dst)) => {
                dst.extend(idx.iter().map(|&i| src[i].clone()));
            }
            _ => unreachable!(),
        }
        out
    };
    (pick(&left_idx), pick(&right_idx))
}

/// Sort-tile-recursive partitioning: sorts `items` by the `dim`-th
/// coordinate of their key point, slices into slabs, and recurses on the
/// next coordinate; at the last coordinate it emits chunks of ≤ `cap`.
fn str_tile<T: Copy>(
    items: &mut [T],
    d: usize,
    axis: usize,
    cap: usize,
    out: &mut Vec<Vec<T>>,
    key: impl Fn(&T, usize) -> f64 + Copy,
) {
    if items.len() <= cap {
        if !items.is_empty() {
            out.push(items.to_vec());
        }
        return;
    }
    items.sort_by(|a, b| {
        key(a, axis)
            .partial_cmp(&key(b, axis))
            .expect("non-NaN coordinates")
    });
    if axis + 1 == d {
        for chunk in items.chunks(cap) {
            out.push(chunk.to_vec());
        }
        return;
    }
    let pages = items.len().div_ceil(cap);
    let remaining = (d - axis) as f64;
    let slabs = (pages as f64).powf(1.0 / remaining).ceil() as usize;
    let slab_size = items.len().div_ceil(slabs.max(1));
    let mut i = 0;
    while i < items.len() {
        let end = (i + slab_size).min(items.len());
        str_tile(&mut items[i..end], d, axis + 1, cap, out, key);
        i = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gir_storage::{MemPageStore, PAGE_SIZE};

    fn store() -> Arc<dyn PageStore> {
        Arc::new(MemPageStore::new(PAGE_SIZE))
    }

    fn pseudo_records(n: usize, d: usize, seed: u64) -> Vec<Record> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| Record::new(i as u64, (0..d).map(|_| next()).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn insert_and_scan_small() {
        let mut tree = RTree::new(store(), 2).unwrap();
        let recs = pseudo_records(50, 2, 1);
        for r in &recs {
            tree.insert(r.clone()).unwrap();
        }
        assert_eq!(tree.len(), 50);
        let mut all = tree.scan_all().unwrap();
        all.sort_by_key(|r| r.id);
        assert_eq!(all, recs);
    }

    #[test]
    fn insert_enough_to_split_leaves_and_root() {
        let d = 4;
        let cap = Node::leaf_capacity(d);
        let n = cap * 8; // forces splits and a root grow
        let mut tree = RTree::new(store(), d).unwrap();
        let recs = pseudo_records(n, d, 2);
        for r in &recs {
            tree.insert(r.clone()).unwrap();
        }
        assert!(tree.height() >= 2, "height {}", tree.height());
        let mut all = tree.scan_all().unwrap();
        all.sort_by_key(|r| r.id);
        assert_eq!(all.len(), n);
        assert_eq!(all, recs);
    }

    #[test]
    fn bulk_load_roundtrip() {
        let recs = pseudo_records(5000, 3, 3);
        let tree = RTree::bulk_load(store(), &recs).unwrap();
        assert_eq!(tree.len(), 5000);
        let mut all = tree.scan_all().unwrap();
        all.sort_by_key(|r| r.id);
        assert_eq!(all, recs);
        assert!(tree.height() >= 2);
    }

    #[test]
    fn bulk_load_empty_errors() {
        assert!(matches!(
            RTree::bulk_load(store(), &[]),
            Err(RTreeError::EmptyDataset)
        ));
    }

    #[test]
    fn window_query_matches_filter() {
        let recs = pseudo_records(2000, 2, 4);
        let tree = RTree::bulk_load(store(), &recs).unwrap();
        let window = Mbb {
            lo: PointD::new(vec![0.25, 0.25]),
            hi: PointD::new(vec![0.6, 0.75]),
        };
        let mut got = tree.window_query(&window).unwrap();
        got.sort_by_key(|r| r.id);
        let mut expect: Vec<Record> = recs
            .iter()
            .filter(|r| window.contains_point(&r.attrs))
            .cloned()
            .collect();
        expect.sort_by_key(|r| r.id);
        assert_eq!(got, expect);
        assert!(!got.is_empty());
    }

    #[test]
    fn window_query_dynamic_tree_matches_filter() {
        let recs = pseudo_records(600, 3, 5);
        let mut tree = RTree::new(store(), 3).unwrap();
        for r in &recs {
            tree.insert(r.clone()).unwrap();
        }
        let window = Mbb {
            lo: PointD::new(vec![0.1, 0.2, 0.0]),
            hi: PointD::new(vec![0.9, 0.7, 0.5]),
        };
        let mut got = tree.window_query(&window).unwrap();
        got.sort_by_key(|r| r.id);
        let mut expect: Vec<Record> = recs
            .iter()
            .filter(|r| window.contains_point(&r.attrs))
            .cloned()
            .collect();
        expect.sort_by_key(|r| r.id);
        assert_eq!(got, expect);
    }

    #[test]
    fn node_mbbs_cover_children() {
        // Structural invariant: every internal entry's MBB covers the MBB
        // of the child it points to.
        let recs = pseudo_records(3000, 2, 6);
        let tree = RTree::bulk_load(store(), &recs).unwrap();
        let mut stack = vec![tree.root_page()];
        while let Some(page) = stack.pop() {
            if let NodeEntries::Internal(children) = tree.read_node(page).unwrap().entries {
                for (mbb, child) in children {
                    let child_mbb = tree.read_node(child).unwrap().mbb();
                    assert!(
                        mbb.contains_mbb(&child_mbb),
                        "entry MBB does not cover child"
                    );
                    stack.push(child);
                }
            }
        }
    }

    #[test]
    fn dynamic_tree_mbbs_cover_children() {
        let recs = pseudo_records(800, 2, 7);
        let mut tree = RTree::new(store(), 2).unwrap();
        for r in &recs {
            tree.insert(r.clone()).unwrap();
        }
        let mut stack = vec![tree.root_page()];
        while let Some(page) = stack.pop() {
            if let NodeEntries::Internal(children) = tree.read_node(page).unwrap().entries {
                for (mbb, child) in children {
                    let child_mbb = tree.read_node(child).unwrap().mbb();
                    assert!(mbb.contains_mbb(&child_mbb));
                    stack.push(child);
                }
            }
        }
    }

    #[test]
    fn io_counted_on_reads() {
        let recs = pseudo_records(1000, 2, 8);
        let tree = RTree::bulk_load(store(), &recs).unwrap();
        tree.store().reset_stats();
        tree.scan_all().unwrap();
        let stats = tree.store().stats();
        assert!(stats.reads > 0);
        assert_eq!(stats.writes, 0);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut tree = RTree::new(store(), 3).unwrap();
        assert!(matches!(
            tree.insert(Record::new(0, vec![0.5, 0.5])),
            Err(RTreeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn delete_roundtrip_scan_matches() {
        let recs = pseudo_records(1200, 3, 21);
        let mut tree = RTree::bulk_load(store(), &recs).unwrap();
        // Delete every third record.
        for r in recs.iter().step_by(3) {
            assert!(
                tree.delete(r.id, &r.attrs).unwrap(),
                "record {} missing",
                r.id
            );
        }
        let expect: Vec<Record> = recs
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, r)| r.clone())
            .collect();
        assert_eq!(tree.len() as usize, expect.len());
        let mut all = tree.scan_all().unwrap();
        all.sort_by_key(|r| r.id);
        assert_eq!(all, expect);
    }

    #[test]
    fn delete_nonexistent_returns_false() {
        let recs = pseudo_records(100, 2, 22);
        let mut tree = RTree::bulk_load(store(), &recs).unwrap();
        assert!(!tree.delete(9999, &PointD::new(vec![0.5, 0.5])).unwrap());
        assert_eq!(tree.len(), 100);
        // Right point, wrong id.
        assert!(!tree.delete(9999, &recs[0].attrs).unwrap());
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let recs = pseudo_records(400, 2, 23);
        let mut tree = RTree::bulk_load(store(), &recs).unwrap();
        for r in &recs {
            assert!(tree.delete(r.id, &r.attrs).unwrap());
        }
        assert_eq!(tree.len(), 0);
        assert!(tree.scan_all().unwrap().is_empty());
        for r in &recs {
            tree.insert(r.clone()).unwrap();
        }
        let mut all = tree.scan_all().unwrap();
        all.sort_by_key(|r| r.id);
        assert_eq!(all, recs);
    }

    #[test]
    fn delete_preserves_structural_invariants() {
        let recs = pseudo_records(1500, 2, 24);
        let mut tree = RTree::bulk_load(store(), &recs).unwrap();
        for r in recs.iter().take(900) {
            tree.delete(r.id, &r.attrs).unwrap();
        }
        // MBB containment everywhere; no non-root node underfull.
        let mut stack = vec![(tree.root_page(), true)];
        while let Some((page, is_root)) = stack.pop() {
            let node = tree.read_node(page).unwrap();
            if !is_root {
                assert!(node.len() >= Node::min_fill(node.capacity()));
            }
            if let NodeEntries::Internal(children) = node.entries {
                assert!(is_root || children.len() >= 2);
                for (mbb, child) in children {
                    let child_mbb = tree.read_node(child).unwrap().mbb();
                    assert!(mbb.contains_mbb(&child_mbb));
                    stack.push((child, false));
                }
            }
        }
        // Height collapsed or stayed consistent; remaining records intact.
        let mut all = tree.scan_all().unwrap();
        all.sort_by_key(|r| r.id);
        let expect: Vec<Record> = recs[900..].to_vec();
        let mut expect = expect;
        expect.sort_by_key(|r| r.id);
        assert_eq!(all, expect);
    }

    #[test]
    fn interleaved_insert_delete_fuzz() {
        let recs = pseudo_records(600, 3, 25);
        let mut tree = RTree::new(store(), 3).unwrap();
        let mut live: Vec<Record> = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            tree.insert(r.clone()).unwrap();
            live.push(r.clone());
            if i % 3 == 2 {
                // Remove a pseudo-random live record.
                let idx = (i * 2654435761) % live.len();
                let victim = live.swap_remove(idx);
                assert!(tree.delete(victim.id, &victim.attrs).unwrap());
            }
        }
        let mut all = tree.scan_all().unwrap();
        all.sort_by_key(|r| r.id);
        live.sort_by_key(|r| r.id);
        assert_eq!(all, live);
    }

    #[test]
    fn min_fill_respected_after_splits() {
        let d = 2;
        let recs = pseudo_records(Node::leaf_capacity(d) * 20, d, 9);
        let mut tree = RTree::new(store(), d).unwrap();
        for r in &recs {
            tree.insert(r.clone()).unwrap();
        }
        // Every non-root node holds at least min_fill entries.
        let mut stack = vec![(tree.root_page(), true)];
        while let Some((page, is_root)) = stack.pop() {
            let node = tree.read_node(page).unwrap();
            if !is_root {
                assert!(
                    node.len() >= Node::min_fill(node.capacity()),
                    "underfull node: {} entries",
                    node.len()
                );
            }
            if let NodeEntries::Internal(children) = node.entries {
                for (_, child) in children {
                    stack.push((child, false));
                }
            }
        }
    }

    /// `(is_root, entries, capacity)` of every node, depth first.
    fn node_fills(tree: &RTree) -> Vec<(bool, usize, usize)> {
        let mut out = Vec::new();
        let mut stack = vec![(tree.root_page(), true)];
        while let Some((page, is_root)) = stack.pop() {
            let node = tree.read_node(page).unwrap();
            out.push((is_root, node.len(), node.capacity()));
            if let NodeEntries::Internal(children) = node.entries {
                stack.extend(children.into_iter().map(|(_, c)| (c, false)));
            }
        }
        out
    }

    #[test]
    fn bulk_load_fill_caps_every_node_and_keeps_every_record() {
        for (n, d, seed) in [(5000, 3, 3), (20000, 2, 11), (3000, 5, 13)] {
            let recs = pseudo_records(n, d, seed);
            for fill in [0.3, 0.7] {
                let tree = RTree::bulk_load_with_fill(store(), &recs, fill).unwrap();
                assert_eq!(tree.len(), n as u64);
                let mut all = tree.scan_all().unwrap();
                all.sort_by_key(|r| r.id);
                assert_eq!(all, recs, "fill {fill}: scan_all lost or changed records");
                for (is_root, len, cap) in node_fills(&tree) {
                    let limit = (fill * cap as f64).ceil() as usize;
                    assert!(
                        is_root || len <= limit,
                        "fill {fill}: node holds {len} > ⌈{fill}·{cap}⌉ = {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn bulk_load_at_full_fill_packs_like_plain_str() {
        // Page counts of the STR bulk load before it took a fill
        // parameter: fill 1.0 must reproduce them exactly.
        for (n, d, seed, pages) in [
            (5000, 3, 3, 49),
            (2000, 2, 4, 13),
            (777, 4, 7, 9),
            (20000, 2, 11, 124),
            (3000, 5, 13, 51),
        ] {
            let recs = pseudo_records(n, d, seed);
            let full = store();
            RTree::bulk_load_with_fill(full.clone(), &recs, 1.0).unwrap();
            assert_eq!(full.num_pages(), pages, "n={n} d={d}");
            let plain = store();
            RTree::bulk_load(plain.clone(), &recs).unwrap();
            assert_eq!(plain.num_pages(), pages, "n={n} d={d}");
            // Loading at 70% spreads the records over more pages.
            let loose = store();
            RTree::bulk_load_with_fill(loose.clone(), &recs, 0.7).unwrap();
            assert!(loose.num_pages() > pages, "n={n} d={d}");
        }
    }
}

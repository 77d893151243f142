//! The incident-facet star: a partial convex hull around one vertex.
//!
//! FP's core data structure (paper §6.3): of the convex hull of
//! `{p_k} ∪ D\R`, only the facets *incident to `p_k`* are ever
//! materialized. The update rule mirrors Clarkson's algorithm restricted
//! to the star: when a new record sees some star facets, those facets are
//! replaced by new ones erected on the *horizon ridges incident to `p_k`*;
//! ridges not incident to `p_k` are discarded (they would create facets
//! outside the star — the "striped facet" of Figure 11).
//!
//! Two facts make the star self-contained:
//!
//! * every ridge incident to the apex is shared by exactly two star facets
//!   (the star of a hull vertex is a fan), so horizon computation never
//!   needs facets outside the star — each facet keeps its `d − 1`
//!   apex-ridge neighbours (*fan adjacency*), the horizon is the visible
//!   facets' non-visible neighbours, and the new facets link to each
//!   other through the ridges that contain the new point. A ridge
//!   without exactly two facets sends the star to the rebuild path;
//! * the apex is strictly extreme in the query direction among
//!   `{p_k} ∪ D\R` (it out-scores every candidate), so no candidate can
//!   see *all* star facets — a full-star wipe-out would mean `p_k` stopped
//!   being a hull vertex. A defensive full rebuild handles the numerical
//!   edge case anyway.
//!
//! Seeding: instead of drawing `d` records from `T` (the paper's
//! heuristic), the star is seeded with `d` *virtual points*
//! `v_i = apex − c_i·e_i` (a robust variant of the paper's axis
//! projections, footnote 6). Their constraints `(p_k − v_i)·q' = c_i·q'_i
//! ≥ 0` are vacuous on the non-negative query space, so a virtual point
//! surviving on the final star is harmless; real candidates are then
//! inserted best-first, which recovers the effect of the paper's
//! max-per-dimension seeding.
//!
//! Layout: only live facets are stored, their planes contiguous as
//! `[n_0 … n_{d−1}, offset]` in creation order, so the hot scans —
//! `insert`'s visibility test, [`StarHull::prunes_mbb`] and
//! [`StarHull::is_below_all`] — walk nothing but live planes and
//! allocate nothing. Facet planes come from the workspace's one plane
//! solver ([`gir_geometry::hyperplane::plane_through`]) into that
//! buffer, and every other per-insert buffer is reused, so a
//! star-changing insert allocates only when a buffer first grows.

use gir_geometry::hull::ConvexHull;
use gir_geometry::hyperplane::{eval_flat, orient_away, plane_through, PlaneScratch};
use gir_geometry::vector::{centroid, PointD};
use gir_geometry::EPS;
use gir_rtree::Mbb;
use std::collections::HashSet;

/// A neighbour slot naming no facet: the apex slot of every facet, and
/// for the length of one `insert` a slot whose facet was just removed.
const NONE: usize = usize::MAX;

/// Buffers `insert` and the linking pass reuse, so that after warm-up
/// a star-changing insert allocates nothing either.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Per live facet: does the inserted point see it?
    visible: Vec<bool>,
    /// Horizon ridges, in discovery order: the surviving facet across
    /// each, and its `d − 1` sorted vertices (flat in `ridges`).
    outer: Vec<usize>,
    ridges: Vec<usize>,
    /// Pre-compaction facet position → post-compaction position.
    remap: Vec<usize>,
    /// Unlinked apex ridges as `(facet, slot)`, their sorted vertex
    /// keys (flat, `d − 1` each) and the key order.
    pending: Vec<(usize, usize)>,
    keys: Vec<usize>,
    order: Vec<usize>,
    /// The vertex list of the facet being erected.
    facet: Vec<usize>,
}

/// The partial hull of `{apex} ∪ candidates`, storing only facets
/// incident to the apex.
///
/// Only live facets are stored, in creation order, as three parallel
/// flat buffers: `planes` (`[n_0 … n_{d−1}, offset]`, `d + 1` floats
/// each — what `insert`'s visibility scan, [`StarHull::prunes_mbb`] and
/// [`StarHull::is_below_all`] walk), `verts` (`d` vertex indices each)
/// and `nbrs` (`d` each: `nbrs[f·d + s]` is the facet across the apex
/// ridge that drops `verts[f·d + s]`; the apex slot holds `NONE`).
/// Removing facets compacts the buffers in order, so the live order is
/// the creation order of the survivors.
#[derive(Debug, Clone)]
pub struct StarHull {
    d: usize,
    /// Point coordinates, `d` per point. Point 0 is the apex; 1..=d are
    /// the virtual seeds; the rest are inserted candidates that became
    /// star vertices.
    coords: Vec<f64>,
    /// Record id per point (`None` for apex and virtual seeds).
    payload: Vec<Option<u64>>,
    planes: Vec<f64>,
    verts: Vec<usize>,
    nbrs: Vec<usize>,
    /// Strictly interior reference point for orienting facet planes.
    interior: Vec<f64>,
    /// Set when geometry became untrustworthy; the star then degrades to
    /// "everything is critical" (safe for GIR correctness, costly only).
    degraded: bool,
    solver: PlaneScratch,
    scratch: Scratch,
}

impl StarHull {
    /// Builds the initial star around `apex` from the virtual simplex.
    pub fn new(apex: &[f64]) -> StarHull {
        let d = apex.len();
        assert!(d >= 2, "star hulls need d >= 2");
        let mut coords = Vec::with_capacity(4 * d * (d + 1));
        coords.extend_from_slice(apex);
        for i in 0..d {
            let start = coords.len();
            coords.extend_from_slice(apex);
            coords[start + i] -= apex[i].max(1e-3);
        }
        // The centroid of the apex and the seeds.
        let interior = centroid(coords.chunks_exact(d));

        let mut star = StarHull {
            d,
            coords,
            payload: vec![None; d + 1],
            planes: Vec::with_capacity(4 * d * (d + 1)),
            verts: Vec::with_capacity(4 * d * d),
            nbrs: Vec::with_capacity(4 * d * d),
            interior,
            degraded: false,
            solver: PlaneScratch::default(),
            scratch: Scratch::default(),
        };
        // The d simplex facets incident to the apex: omit one virtual seed.
        let mut vertices = Vec::with_capacity(d);
        for omit in 1..=d {
            vertices.clear();
            vertices.extend((0..=d).filter(|&i| i != omit));
            if !star.add_facet(&vertices) {
                star.degraded = true;
            }
        }
        if !star.degraded {
            let mut s = std::mem::take(&mut star.scratch);
            star.degraded = !star.link_fan(0, &mut s);
            star.scratch = s;
        }
        star
    }

    /// Number of live star facets.
    pub fn num_facets(&self) -> usize {
        self.planes.len() / (self.d + 1)
    }

    /// True when the star lost geometric integrity and every candidate is
    /// treated as critical.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// True when `p` lies on or below every star facet — such a point can
    /// never be critical (it cannot tighten the permissible rotations).
    pub fn is_below_all(&self, p: &[f64]) -> bool {
        if self.degraded {
            return false;
        }
        self.planes
            .chunks_exact(self.d + 1)
            .all(|f| eval_flat(f, p) <= EPS)
    }

    /// True when the whole box lies below every facet: the node and its
    /// entire subtree can be pruned without fetching (paper §6.3.2).
    pub fn prunes_mbb(&self, mbb: &Mbb) -> bool {
        if self.degraded {
            return false;
        }
        let (lo, hi) = (mbb.lo.coords(), mbb.hi.coords());
        self.planes.chunks_exact(self.d + 1).all(|f| {
            let (normal, offset) = f.split_at(self.d);
            // max over box corners of n·x, split by normal sign.
            let worst: f64 = (0..self.d)
                .map(|i| {
                    let n = normal[i];
                    if n > 0.0 {
                        n * hi[i]
                    } else {
                        n * lo[i]
                    }
                })
                .sum();
            worst <= offset[0] + EPS
        })
    }

    /// Inserts a candidate record. Returns `true` when the star changed
    /// (the candidate is at least temporarily critical).
    pub fn insert(&mut self, p: &[f64], record_id: u64) -> bool {
        if self.degraded {
            self.push_point(p, record_id);
            return true;
        }
        let Some(first) = self
            .planes
            .chunks_exact(self.d + 1)
            .position(|f| eval_flat(f, p) > EPS)
        else {
            return false;
        };
        let mut s = std::mem::take(&mut self.scratch);
        let replaced = self.replace_visible(&mut s, first, p, record_id);
        self.scratch = s;
        if !replaced {
            self.rebuild();
        }
        true
    }

    /// The real records currently on star facets — FP's *critical
    /// records* (paper §6.1), each contributing one GIR half-space.
    pub fn critical_records(&self) -> Vec<(u64, PointD)> {
        if self.degraded {
            // Every stored candidate counts.
            return self
                .payload
                .iter()
                .zip(self.coords.chunks_exact(self.d))
                .filter_map(|(id, p)| id.map(|id| (id, PointD::from(p))))
                .collect();
        }
        let mut seen = HashSet::with_capacity(self.payload.len());
        let mut out = Vec::new();
        for &v in &self.verts {
            if let Some(id) = self.payload[v] {
                if seen.insert(id) {
                    out.push((id, PointD::from(self.point(v))));
                }
            }
        }
        out
    }

    fn point(&self, v: usize) -> &[f64] {
        &self.coords[v * self.d..(v + 1) * self.d]
    }

    fn push_point(&mut self, p: &[f64], record_id: u64) {
        self.coords.extend_from_slice(p);
        self.payload.push(Some(record_id));
    }

    /// Replaces the facets `p` sees (the first is `first`) by facets on
    /// the horizon's apex ridges, apexed at `p`. Returns `false` — with
    /// `p` stored — when the all-visible case, a broken fan or a
    /// degenerate facet calls for a rebuild.
    fn replace_visible(
        &mut self,
        s: &mut Scratch,
        first: usize,
        p: &[f64],
        record_id: u64,
    ) -> bool {
        let d = self.d;
        let nf = self.num_facets();
        s.visible.clear();
        s.visible.resize(nf, false);
        let mut count = 0;
        for (f, plane) in self.planes.chunks_exact(d + 1).enumerate().skip(first) {
            if eval_flat(plane, p) > EPS {
                s.visible[f] = true;
                count += 1;
            }
        }
        if count == nf {
            // Cannot happen for a true hull vertex apex (see module docs);
            // defensively rebuild from every stored point.
            self.push_point(p, record_id);
            return false;
        }

        // Horizon ridges incident to the apex: a visible facet's apex
        // ridges whose neighbour is not visible.
        s.outer.clear();
        s.ridges.clear();
        for f in (first..nf).filter(|&f| s.visible[f]) {
            let fv = &self.verts[f * d..(f + 1) * d];
            for (slot, &v) in fv.iter().enumerate() {
                if v == 0 {
                    continue; // dropping the apex gives the outer ridge
                }
                let nb = self.nbrs[f * d + slot];
                if nb == NONE {
                    self.push_point(p, record_id);
                    return false;
                }
                if !s.visible[nb] {
                    s.outer.push(nb);
                    let start = s.ridges.len();
                    s.ridges.extend(
                        fv.iter()
                            .enumerate()
                            .filter_map(|(i, &u)| (i != slot).then_some(u)),
                    );
                    s.ridges[start..].sort_unstable();
                }
            }
        }

        // Drop the visible facets, keeping the survivors in order.
        s.remap.clear();
        let mut live = 0;
        for f in 0..nf {
            if s.visible[f] {
                s.remap.push(NONE);
                continue;
            }
            s.remap.push(live);
            if live != f {
                self.planes
                    .copy_within(f * (d + 1)..(f + 1) * (d + 1), live * (d + 1));
                self.verts.copy_within(f * d..(f + 1) * d, live * d);
                self.nbrs.copy_within(f * d..(f + 1) * d, live * d);
            }
            live += 1;
        }
        self.planes.truncate(live * (d + 1));
        self.verts.truncate(live * d);
        self.nbrs.truncate(live * d);
        for nb in self.nbrs.iter_mut().filter(|nb| **nb != NONE) {
            *nb = s.remap[*nb];
        }

        let idx = self.payload.len();
        self.push_point(p, record_id);
        for (h, &outer) in s.outer.iter().enumerate() {
            let ridge = &s.ridges[h * (d - 1)..(h + 1) * (d - 1)];
            s.facet.clear();
            s.facet.extend_from_slice(ridge);
            s.facet.push(idx);
            if !self.add_facet(&s.facet) {
                // Numerically degenerate facet: give up on the geometry,
                // keep correctness.
                return false;
            }
            // The new facet's ridge opposite `p` is the horizon ridge,
            // shared with the surviving outer facet — in the outer
            // facet, the slot of its one vertex off the ridge.
            let f = self.num_facets() - 1;
            let outer = s.remap[outer];
            let ov = &self.verts[outer * d..(outer + 1) * d];
            let Some(t) = ov.iter().position(|v| ridge.binary_search(v).is_err()) else {
                return false;
            };
            if self.nbrs[outer * d + t] != NONE {
                return false;
            }
            self.nbrs[outer * d + t] = f;
            self.nbrs[f * d + d - 1] = outer;
        }
        // The new facets meet each other on the ridges through `p`.
        self.link_fan(live, s)
    }

    /// Erects the facet through `vertices` (which include the apex):
    /// its plane, oriented away from the interior point, is appended to
    /// `planes`, with no neighbours linked yet. `false` when the
    /// vertices are numerically degenerate.
    fn add_facet(&mut self, vertices: &[usize]) -> bool {
        debug_assert!(vertices.contains(&0), "star facets contain the apex");
        let d = self.d;
        let base = self.planes.len();
        self.planes.resize(base + d + 1, 0.0);
        let coords = &self.coords;
        let plane = &mut self.planes[base..];
        if !(plane_through(
            &mut self.solver,
            vertices.iter().map(|&v| &coords[v * d..(v + 1) * d]),
            plane,
        ) && orient_away(plane, &self.interior))
        {
            self.planes.truncate(base);
            return false;
        }
        self.verts.extend_from_slice(vertices);
        self.nbrs.resize(self.nbrs.len() + d, NONE);
        true
    }

    /// Links every unlinked apex ridge of the facets from position
    /// `from` on: each must be shared by exactly two of them. `false`
    /// (a broken fan) otherwise.
    fn link_fan(&mut self, from: usize, s: &mut Scratch) -> bool {
        let d = self.d;
        let k = d - 1;
        s.pending.clear();
        s.keys.clear();
        for f in from..self.num_facets() {
            let fv = &self.verts[f * d..(f + 1) * d];
            for (slot, &v) in fv.iter().enumerate() {
                if v == 0 || self.nbrs[f * d + slot] != NONE {
                    continue;
                }
                s.pending.push((f, slot));
                let start = s.keys.len();
                s.keys.extend(
                    fv.iter()
                        .enumerate()
                        .filter_map(|(i, &u)| (i != slot).then_some(u)),
                );
                s.keys[start..].sort_unstable();
            }
        }
        let keys = &s.keys;
        let key = |i: usize| &keys[i * k..(i + 1) * k];
        s.order.clear();
        s.order.extend(0..s.pending.len());
        s.order.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        for pair in s.order.chunks(2) {
            let &[a, b] = pair else {
                return false;
            };
            if key(a) != key(b) {
                return false;
            }
            let ((fa, sa), (fb, sb)) = (s.pending[a], s.pending[b]);
            self.nbrs[fa * d + sa] = fb;
            self.nbrs[fb * d + sb] = fa;
        }
        // A third facet on one ridge pairs with a fourth or is left
        // over; either way some chunk straddles two equal keys.
        s.order
            .windows(3)
            .all(|w| key(w[0]) != key(w[1]) || key(w[1]) != key(w[2]))
    }

    /// Full rebuild from all stored points via the complete incremental
    /// hull, keeping only apex-incident facets. Fallback path.
    fn rebuild(&mut self) {
        self.planes.clear();
        self.verts.clear();
        self.nbrs.clear();
        let points: Vec<PointD> = self.coords.chunks_exact(self.d).map(PointD::from).collect();
        match ConvexHull::build(&points) {
            Ok(hull) => {
                let mut ok = hull
                    .facets_incident_to(0)
                    .iter()
                    .all(|f| self.add_facet(&f.vertices));
                if ok {
                    let mut s = std::mem::take(&mut self.scratch);
                    ok = self.link_fan(0, &mut s);
                    self.scratch = s;
                }
                if !ok {
                    self.mark_degraded();
                }
            }
            Err(_) => self.mark_degraded(),
        }
    }

    fn mark_degraded(&mut self) {
        self.degraded = true;
        self.planes.clear();
        self.verts.clear();
        self.nbrs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StarHull {
        /// Fan invariant: every apex ridge of every live facet is
        /// shared with exactly the neighbour it names, which names the
        /// facet back across the same ridge.
        fn assert_fan(&self) {
            let d = self.d;
            for f in 0..self.num_facets() {
                let fv = &self.verts[f * d..(f + 1) * d];
                for (slot, &v) in fv.iter().enumerate() {
                    let nb = self.nbrs[f * d + slot];
                    if v == 0 {
                        assert_eq!(nb, NONE, "apex slot names no facet");
                        continue;
                    }
                    assert!(nb < self.num_facets(), "broken fan");
                    let nv = &self.verts[nb * d..(nb + 1) * d];
                    let back = (0..d)
                        .find(|&t| self.nbrs[nb * d + t] == f)
                        .expect("asymmetric fan");
                    for (i, u) in fv.iter().enumerate() {
                        if i != slot {
                            assert!(nv.contains(u), "neighbours share the ridge");
                        }
                    }
                    assert!(!fv.contains(&nv[back]));
                }
            }
        }

        /// Each live facet's vertices as sorted labels: `−(v + 1)` for
        /// the apex and the virtual seeds, the record id otherwise.
        fn facet_labels(&self) -> Vec<Vec<i64>> {
            let mut out: Vec<Vec<i64>> = self
                .verts
                .chunks_exact(self.d)
                .map(|f| {
                    let mut l: Vec<i64> = f
                        .iter()
                        .map(|&v| self.payload[v].map_or(-(v as i64) - 1, |id| id as i64))
                        .collect();
                    l.sort_unstable();
                    l
                })
                .collect();
            out.sort();
            out
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed | 1;
        move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[test]
    fn initial_star_has_d_facets() {
        for d in 2..=5 {
            let apex = vec![0.7; d];
            let star = StarHull::new(&apex);
            assert_eq!(star.num_facets(), d, "d={d}");
            assert!(!star.is_degraded());
            star.assert_fan();
            // The apex itself is not below the star... it's *on* every
            // facet; points dominated by the apex are below all facets.
            assert!(star.is_below_all(&vec![0.5; d]));
        }
    }

    #[test]
    fn insert_above_updates_star_2d() {
        // Figure 9(a) reduced: apex p2 = (0.75, 0.72); candidate up-left.
        let mut star = StarHull::new(&[0.75, 0.72]);
        assert_eq!(star.num_facets(), 2);
        let cand = [0.4, 0.9];
        assert!(!star.is_below_all(&cand));
        assert!(star.insert(&cand, 3));
        assert_eq!(star.num_facets(), 2, "2-d star stays a 2-facet fan");
        star.assert_fan();
        let crit = star.critical_records();
        assert_eq!(crit.len(), 1);
        assert_eq!(crit[0].0, 3);
    }

    #[test]
    fn dominated_candidate_is_ignored() {
        let mut star = StarHull::new(&[0.8, 0.8, 0.8]);
        assert!(!star.insert(&[0.5, 0.5, 0.5], 9));
        assert!(star.critical_records().is_empty());
    }

    #[test]
    fn figure11_3d_insertion_keeps_fan_consistent() {
        // Apex pk plus three spread candidates, then p8 above one facet.
        let mut star = StarHull::new(&[0.9, 0.9, 0.9]);
        let candidates = [
            (5u64, [0.95, 0.4, 0.3]),
            (6, [0.3, 0.95, 0.35]),
            (7, [0.35, 0.3, 0.95]),
        ];
        for (id, c) in &candidates {
            star.insert(c, *id);
        }
        let before = star.num_facets();
        assert!(before >= 3);
        // A record outside one side of the fan.
        let p8 = [0.85, 0.85, 0.2];
        if !star.is_below_all(&p8) {
            star.insert(&p8, 8);
        }
        // Fan invariant: every apex ridge shared by exactly 2 facets.
        star.assert_fan();
        assert!(!star.is_degraded());
    }

    /// The star after `candidates` against the apex-incident facets of
    /// the full hull over the apex, the virtual seeds and every
    /// candidate: the same facet vertex sets (as labels — the star
    /// stores only the points that ever changed it), the same facet
    /// count and the same critical records.
    fn assert_matches_full_hull(apex: &[f64], candidates: &[(u64, Vec<f64>)]) {
        let d = apex.len();
        let mut star = StarHull::new(apex);
        for (id, c) in candidates {
            star.insert(c, *id);
            star.assert_fan();
        }
        assert!(!star.is_degraded());

        let mut pts = vec![PointD::from(apex)];
        for i in 0..d {
            let mut v = PointD::from(apex);
            v[i] -= apex[i].max(1e-3);
            pts.push(v);
        }
        let offset = pts.len();
        pts.extend(candidates.iter().map(|(_, c)| PointD::from(c.as_slice())));
        let hull = ConvexHull::build(&pts).unwrap();
        let incident = hull.facets_incident_to(0);
        assert_eq!(star.num_facets(), incident.len(), "d={d}");

        // Label: apex and seeds by index, candidates by record id.
        let star_labels = star.facet_labels();
        let mut hull_labels: Vec<Vec<i64>> = incident
            .iter()
            .map(|f| {
                let mut l: Vec<i64> = f
                    .vertices
                    .iter()
                    .map(|&v| {
                        if v < offset {
                            -(v as i64) - 1
                        } else {
                            candidates[v - offset].0 as i64
                        }
                    })
                    .collect();
                l.sort_unstable();
                l
            })
            .collect();
        hull_labels.sort();
        assert_eq!(star_labels, hull_labels, "d={d}");

        let mut got: Vec<u64> = star.critical_records().iter().map(|(id, _)| *id).collect();
        got.sort_unstable();
        let mut expect: Vec<u64> = hull_labels
            .iter()
            .flatten()
            .filter(|&&l| l >= 0)
            .map(|&l| l as u64)
            .collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(got, expect);
    }

    #[test]
    fn critical_set_matches_full_hull_star() {
        // Cross-check: FP's star = the facets incident to the apex of
        // the *full* hull built over the same points (with the virtual
        // seeds), over d = 3..6 and long insertion sequences.
        for (d, n, seed) in [
            (3usize, 60usize, 0x1234_5678u64),
            (3, 400, 0x71),
            (4, 300, 0x72),
            (5, 160, 0x73),
            (6, 80, 0x74),
        ] {
            let mut next = xorshift(seed);
            let apex: Vec<f64> = (0..d).map(|_| 0.84 + 0.1 * next()).collect();
            let candidates: Vec<(u64, Vec<f64>)> = (0..n as u64)
                .map(|id| (id, (0..d).map(|_| next() * 0.85).collect()))
                .collect();
            assert_matches_full_hull(&apex, &candidates);
        }
    }

    #[test]
    fn duplicate_and_coplanar_candidates_keep_the_star_exact() {
        // Exact duplicates of earlier candidates (under fresh ids), and
        // candidates on dyadic lattice planes — coplanar quadruples
        // through the apex's neighbourhood — must neither break the fan
        // nor change the facet sets against the full hull.
        for d in 3..=5 {
            let mut next = xorshift(0x90 + d as u64);
            let apex = vec![0.875; d];
            let mut candidates: Vec<(u64, Vec<f64>)> = Vec::new();
            for id in 0..120u64 {
                let c: Vec<f64> = if id % 3 == 2 {
                    // A lattice point: coordinates k/16 in [1/4, 13/16].
                    (0..d)
                        .map(|_| (4.0 + (next() * 10.0).floor()) / 16.0)
                        .collect()
                } else {
                    (0..d).map(|_| next() * 0.8).collect()
                };
                candidates.push((id, c));
            }
            for i in 0..40 {
                let dup = candidates[i * 2].1.clone();
                candidates.push((1000 + i as u64, dup));
            }
            assert_matches_full_hull(&apex, &candidates);
        }
    }

    #[test]
    fn degraded_star_counts_every_candidate() {
        // A full-star wipe-out takes the rebuild path: a point above the
        // apex sees every facet, the apex stops being a hull vertex,
        // and the rebuilt star — the full hull's — is empty.
        let mut star = StarHull::new(&[0.5, 0.5, 0.5]);
        assert!(star.insert(&[0.9, 0.9, 0.9], 1));
        assert!(!star.is_degraded());
        assert_eq!(star.num_facets(), 0);
        // A degraded star prunes nothing and counts every stored
        // candidate as critical.
        let mut star = StarHull::new(&[0.5, 0.5]);
        star.mark_degraded();
        assert!(star.is_degraded());
        assert!(!star.is_below_all(&[0.1, 0.1]));
        assert!(!star.prunes_mbb(&Mbb {
            lo: PointD::from(&[0.0, 0.0][..]),
            hi: PointD::from(&[0.1, 0.1][..]),
        }));
        assert!(star.insert(&[0.2, 0.3], 4));
        assert!(star.insert(&[0.1, 0.1], 5));
        let ids: Vec<u64> = star.critical_records().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![4, 5]);
        assert_eq!(star.num_facets(), 0);
    }

    #[test]
    fn broken_fan_goes_to_rebuild() {
        // Unlink every apex ridge by hand: the next star-changing insert
        // reaches one, rebuilds from every stored point instead of
        // indexing a missing neighbour, and ends on the full hull's star.
        let mut next = xorshift(0x99);
        let apex = [0.9, 0.88, 0.92];
        let mut candidates: Vec<(u64, Vec<f64>)> = (0..25u64)
            .map(|id| (id, (0..3).map(|_| next() * 0.85).collect()))
            .collect();
        let mut star = StarHull::new(&apex);
        for (id, c) in &candidates {
            star.insert(c, *id);
        }
        for nb in star.nbrs.iter_mut().filter(|nb| **nb != NONE) {
            *nb = NONE;
        }
        let above = vec![0.97, 0.3, 0.3];
        assert!(!star.is_below_all(&above));
        assert!(star.insert(&above, 99));
        candidates.push((99, above));
        assert!(!star.is_degraded());
        star.assert_fan();
        let mut reference = StarHull::new(&apex);
        for (id, c) in &candidates {
            reference.insert(c, *id);
        }
        assert_eq!(star.facet_labels(), reference.facet_labels());
    }

    #[test]
    fn prunes_mbb_only_when_fully_below() {
        let mut star = StarHull::new(&[0.8, 0.8]);
        star.insert(&[0.3, 0.95], 1);
        star.insert(&[0.95, 0.3], 2);
        // A box dominated by the apex: prunable.
        let low = Mbb {
            lo: PointD::from(&[0.1, 0.1][..]),
            hi: PointD::from(&[0.4, 0.4][..]),
        };
        assert!(star.prunes_mbb(&low));
        // A box reaching above the apex: not prunable.
        let high = Mbb {
            lo: PointD::from(&[0.7, 0.7][..]),
            hi: PointD::from(&[1.0, 1.0][..]),
        };
        assert!(!star.prunes_mbb(&high));
    }

    #[test]
    fn below_all_points_stay_noncritical_after_more_inserts() {
        // Monotonicity: once below the star, always implied (the pruning
        // safety argument) — inserting more points must not make a
        // previously-below point critical.
        let mut star = StarHull::new(&[0.9, 0.85]);
        let below = [0.5, 0.5];
        star.insert(&[0.2, 0.99], 1);
        assert!(star.is_below_all(&below));
        star.insert(&[0.99, 0.2], 2);
        star.insert(&[0.7, 0.93], 3);
        assert!(star.is_below_all(&below));
    }
}

//! Incremental (beneath-and-beyond) convex hull in arbitrary dimension.
//!
//! This is the construction underlying Clarkson's algorithm (paper §2):
//! points are inserted one at a time; when a point lies *above* (sees) one
//! or more facets, those facets are removed and replaced by new facets
//! connecting the point to the horizon ridges. The expected output size is
//! `O(n^{⌊d/2⌋})` — the very cost the paper's FP method works around by
//! maintaining only the facets incident to one vertex.

use super::{Facet, HullError};
use crate::hyperplane::{orient_away, plane_through, Hyperplane, PlaneScratch};
use crate::vector::PointD;
use crate::EPS;
use std::collections::HashMap;

/// A full convex hull of a point set in `R^d`.
#[derive(Debug, Clone)]
pub struct ConvexHull {
    points: Vec<PointD>,
    /// Facet slab; `None` entries are removed (tombstoned) facets.
    facets: Vec<Option<Facet>>,
    live_facets: usize,
    interior: PointD,
    dim: usize,
    /// The plane solver's reused buffers and its flat output.
    solver: PlaneScratch,
    plane: Vec<f64>,
}

impl ConvexHull {
    /// Builds the hull of `points`. Requires at least `d+1` affinely
    /// independent points; otherwise returns [`HullError::Degenerate`] with
    /// the affine rank found.
    pub fn build(points: &[PointD]) -> Result<ConvexHull, HullError> {
        let d = points.first().map_or(0, |p| p.dim());
        if points.len() < d + 1 {
            return Err(HullError::TooFewPoints);
        }
        let simplex = initial_simplex(points, d)?;
        let interior = PointD::centroid(simplex.iter().map(|&i| &points[i]));

        let mut hull = ConvexHull {
            points: points.to_vec(),
            facets: Vec::new(),
            live_facets: 0,
            interior,
            dim: d,
            solver: PlaneScratch::default(),
            plane: vec![0.0; d + 1],
        };
        hull.init_simplex_facets(&simplex)?;

        // Insert the remaining points in a deterministic pseudo-random
        // order: randomized insertion keeps the expected facet count low
        // (Clarkson [14]), determinism keeps tests reproducible.
        let mut order: Vec<usize> = (0..points.len()).filter(|i| !simplex.contains(i)).collect();
        shuffle_deterministic(&mut order);
        for idx in order {
            hull.insert_point(idx)?;
        }
        Ok(hull)
    }

    /// Dimension of the ambient space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The input point set (hull vertex indices refer into this).
    pub fn points(&self) -> &[PointD] {
        &self.points
    }

    /// A point strictly inside the hull.
    pub fn interior_point(&self) -> &PointD {
        &self.interior
    }

    /// Number of live facets.
    pub fn num_facets(&self) -> usize {
        self.live_facets
    }

    /// Iterates over live facets.
    pub fn facets(&self) -> impl Iterator<Item = &Facet> {
        self.facets.iter().filter_map(|f| f.as_ref())
    }

    /// Sorted, deduplicated indices of points that are hull vertices.
    pub fn vertex_indices(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .facets()
            .flat_map(|f| f.vertices.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// True when `x` lies inside or on the hull (within `tol`).
    pub fn contains(&self, x: &PointD, tol: f64) -> bool {
        self.facets().all(|f| f.plane.eval(x) <= tol)
    }

    /// Exact hull volume: the facets triangulate the boundary (each facet is
    /// a `(d-1)`-simplex), so the hull is the disjoint union of simplices
    /// with apex at the interior point.
    pub fn volume(&self) -> f64 {
        let c = &self.interior;
        let mut vol = 0.0;
        let mut fact = 1.0;
        for i in 1..=self.dim {
            fact *= i as f64;
        }
        for f in self.facets() {
            let rows: Vec<Vec<f64>> = f
                .vertices
                .iter()
                .map(|&v| self.points[v].sub(c).coords().to_vec())
                .collect();
            vol += crate::linalg::determinant(&rows).abs();
        }
        vol / fact
    }

    /// Number of facets incident to point index `v` (used to cross-check
    /// FP's partial-hull star against the full hull in tests and Fig 8).
    pub fn facets_incident_to(&self, v: usize) -> Vec<&Facet> {
        self.facets().filter(|f| f.has_vertex(v)).collect()
    }

    fn init_simplex_facets(&mut self, simplex: &[usize]) -> Result<(), HullError> {
        let d = self.dim;
        // Facet t omits simplex[t]; its neighbor across the ridge omitting
        // vertex simplex[j] is the facet omitting simplex[j].
        let mut ids = Vec::with_capacity(d + 1);
        for t in 0..=d {
            let vertices: Vec<usize> = simplex
                .iter()
                .enumerate()
                .filter_map(|(i, &v)| (i != t).then_some(v))
                .collect();
            let plane = self.facet_plane(&vertices)?;
            let id = self.alloc_facet(Facet {
                vertices,
                plane,
                neighbors: vec![usize::MAX; d],
            });
            ids.push(id);
        }
        // Wire neighbors: in facet t (omitting simplex[t]), the slot holding
        // simplex[j] has ridge omitting simplex[j], shared with facet j.
        for t in 0..=d {
            let verts = self.facets[ids[t]].as_ref().expect("live").vertices.clone();
            for (slot, &v) in verts.iter().enumerate() {
                let j = simplex
                    .iter()
                    .position(|&s| s == v)
                    .expect("simplex vertex");
                let f = self.facets[ids[t]].as_mut().expect("live");
                f.neighbors[slot] = ids[j];
            }
        }
        Ok(())
    }

    /// The supporting plane through `vertices`, oriented away from the
    /// interior point.
    fn facet_plane(&mut self, vertices: &[usize]) -> Result<Hyperplane, HullError> {
        let points = &self.points;
        if plane_through(
            &mut self.solver,
            vertices.iter().map(|&v| points[v].coords()),
            &mut self.plane,
        ) && orient_away(&mut self.plane, self.interior.coords())
        {
            Ok(Hyperplane::from_flat(&self.plane))
        } else {
            Err(HullError::Numerical)
        }
    }

    fn alloc_facet(&mut self, f: Facet) -> usize {
        self.live_facets += 1;
        self.facets.push(Some(f));
        self.facets.len() - 1
    }

    fn remove_facet(&mut self, id: usize) {
        if self.facets[id].take().is_some() {
            self.live_facets -= 1;
        }
    }

    /// Inserts one point, replacing the facets it sees. Points inside (or
    /// on) the current hull are ignored.
    fn insert_point(&mut self, idx: usize) -> Result<(), HullError> {
        let p = self.points[idx].clone();
        let visible: Vec<usize> = self
            .facets
            .iter()
            .enumerate()
            .filter_map(|(id, f)| f.as_ref().filter(|f| f.plane.eval(&p) > EPS).map(|_| id))
            .collect();
        if visible.is_empty() {
            return Ok(());
        }
        let visible_set: std::collections::HashSet<usize> = visible.iter().copied().collect();

        // Horizon ridges: (ridge, outer facet id, outer slot).
        let mut horizon: Vec<(Vec<usize>, usize)> = Vec::new();
        for &fid in &visible {
            let f = self.facets[fid].as_ref().expect("live");
            for slot in 0..f.neighbors.len() {
                let nb = f.neighbors[slot];
                if !visible_set.contains(&nb) {
                    horizon.push((f.ridge(slot), nb));
                }
            }
        }

        for &fid in &visible {
            self.remove_facet(fid);
        }

        // Erect a new facet on each horizon ridge, apexed at `p`.
        // `ridge_map` links new facets to each other across the sub-ridges
        // that contain `idx`.
        let mut ridge_map: HashMap<Vec<usize>, (usize, usize)> = HashMap::new();
        for (ridge, outer) in horizon {
            let mut vertices = ridge.clone();
            vertices.push(idx);
            let plane = self.facet_plane(&vertices)?;
            let d = self.dim;
            let new_id = self.alloc_facet(Facet {
                vertices: vertices.clone(),
                plane,
                neighbors: vec![usize::MAX; d],
            });

            // Neighbor across the original ridge (the slot of `idx`) is the
            // surviving outer facet; fix its back-pointer too.
            let apex_slot = vertices.iter().position(|&v| v == idx).expect("apex");
            self.facets[new_id].as_mut().expect("live").neighbors[apex_slot] = outer;
            let outer_f = self.facets[outer].as_mut().expect("outer facet survives");
            let outer_slot = outer_f
                .slot_of_ridge(&ridge)
                .expect("outer facet shares the horizon ridge");
            outer_f.neighbors[outer_slot] = new_id;

            // Sub-ridges containing `idx` pair up new facets.
            for slot in 0..vertices.len() {
                if slot == apex_slot {
                    continue;
                }
                let sub = self.facets[new_id].as_ref().expect("live").ridge(slot);
                match ridge_map.remove(&sub) {
                    Some((other_id, other_slot)) => {
                        self.facets[new_id].as_mut().expect("live").neighbors[slot] = other_id;
                        self.facets[other_id].as_mut().expect("live").neighbors[other_slot] =
                            new_id;
                    }
                    None => {
                        ridge_map.insert(sub, (new_id, slot));
                    }
                }
            }
        }
        debug_assert!(ridge_map.is_empty(), "unpaired sub-ridges after insert");
        Ok(())
    }
}

/// Greedily selects `d+1` affinely independent points by maximizing the
/// Gram–Schmidt residual at each step; fails with the achieved rank when
/// the input lies in a lower-dimensional flat.
fn initial_simplex(points: &[PointD], d: usize) -> Result<Vec<usize>, HullError> {
    // Start from an extreme point (max sum) to keep the seed well spread.
    let first = (0..points.len())
        .max_by(|&i, &j| {
            let si: f64 = points[i].coords().iter().sum();
            let sj: f64 = points[j].coords().iter().sum();
            si.partial_cmp(&sj).expect("non-NaN")
        })
        .expect("non-empty input");
    let mut chosen = vec![first];
    let mut basis: Vec<PointD> = Vec::new(); // orthonormal basis of span{vi - v0}

    while chosen.len() < d + 1 {
        let v0 = &points[chosen[0]];
        let mut best: Option<(usize, f64, PointD)> = None;
        for (i, p) in points.iter().enumerate() {
            if chosen.contains(&i) {
                continue;
            }
            let mut r = p.sub(v0);
            for b in &basis {
                let c = r.dot(b);
                r = r.add_scaled(b, -c);
            }
            let n = r.norm();
            if best.as_ref().is_none_or(|(_, bn, _)| n > *bn) {
                best = Some((i, n, r));
            }
        }
        match best {
            Some((i, n, r)) if n > EPS => {
                basis.push(r.scale(1.0 / n));
                chosen.push(i);
            }
            _ => {
                return Err(HullError::Degenerate {
                    rank: chosen.len().saturating_sub(1),
                })
            }
        }
    }
    Ok(chosen)
}

/// Deterministic Fisher–Yates shuffle (SplitMix64-driven) so hull builds
/// are reproducible without an RNG dependency in this crate.
fn shuffle_deterministic(v: &mut [usize]) {
    let mut state = 0x853C49E6748FEA9Bu64 ^ (v.len() as u64);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: &[f64]) -> PointD {
        PointD::from(v)
    }

    #[test]
    fn square_hull_2d() {
        let pts = vec![
            p(&[0.0, 0.0]),
            p(&[1.0, 0.0]),
            p(&[1.0, 1.0]),
            p(&[0.0, 1.0]),
            p(&[0.5, 0.5]), // interior
        ];
        let h = ConvexHull::build(&pts).unwrap();
        assert_eq!(h.vertex_indices(), vec![0, 1, 2, 3]);
        assert_eq!(h.num_facets(), 4);
        assert!((h.volume() - 1.0).abs() < 1e-9);
        assert!(h.contains(&p(&[0.9, 0.1]), 1e-9));
        assert!(!h.contains(&p(&[1.1, 0.5]), 1e-9));
    }

    #[test]
    fn cube_hull_3d() {
        let mut pts = Vec::new();
        for x in [0.0, 1.0] {
            for y in [0.0, 1.0] {
                for z in [0.0, 1.0] {
                    pts.push(p(&[x, y, z]));
                }
            }
        }
        pts.push(p(&[0.5, 0.5, 0.5]));
        let h = ConvexHull::build(&pts).unwrap();
        assert_eq!(h.vertex_indices().len(), 8);
        // 6 square faces, each split into 2 triangles = 12 simplicial facets.
        assert_eq!(h.num_facets(), 12);
        assert!((h.volume() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn simplex_hull_4d_volume() {
        // Unit 4-simplex has volume 1/4! = 1/24.
        let mut pts = vec![p(&[0.0, 0.0, 0.0, 0.0])];
        for i in 0..4 {
            pts.push(PointD::basis(4, i));
        }
        let h = ConvexHull::build(&pts).unwrap();
        assert_eq!(h.vertex_indices().len(), 5);
        assert!((h.volume() - 1.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_collinear_input() {
        let pts = vec![p(&[0.0, 0.0]), p(&[0.5, 0.5]), p(&[1.0, 1.0])];
        assert_eq!(
            ConvexHull::build(&pts).unwrap_err(),
            HullError::Degenerate { rank: 1 }
        );
    }

    #[test]
    fn too_few_points() {
        let pts = vec![p(&[0.0, 0.0, 0.0]), p(&[1.0, 0.0, 0.0])];
        assert_eq!(
            ConvexHull::build(&pts).unwrap_err(),
            HullError::TooFewPoints
        );
    }

    #[test]
    fn adjacency_is_symmetric_and_ridges_shared() {
        let pts: Vec<PointD> = (0..40)
            .map(|i| {
                let t = i as f64;
                p(&[
                    (t * 0.701).sin() * 0.5 + 0.5,
                    (t * 1.137).cos() * 0.5 + 0.5,
                    (t * 0.397).sin() * (t * 0.211).cos() * 0.5 + 0.5,
                ])
            })
            .collect();
        let h = ConvexHull::build(&pts).unwrap();
        let facets: Vec<(usize, &Facet)> = h
            .facets
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|f| (i, f)))
            .collect();
        for (id, f) in &facets {
            for slot in 0..f.neighbors.len() {
                let nb_id = f.neighbors[slot];
                let nb = h.facets[nb_id].as_ref().expect("neighbor live");
                // The neighbor shares exactly the ridge.
                let ridge = f.ridge(slot);
                let back = nb.slot_of_ridge(&ridge).expect("shared ridge");
                assert_eq!(nb.neighbors[back], *id, "asymmetric adjacency");
            }
        }
    }

    #[test]
    fn all_points_inside_hull_and_on_facet_planes() {
        let pts: Vec<PointD> = (0..120)
            .map(|i| {
                let t = i as f64;
                p(&[
                    (t * 0.17).sin().abs(),
                    (t * 0.29).cos().abs(),
                    ((t * 0.41).sin() * (t * 0.13).cos()).abs(),
                    (t * 0.07).fract(),
                ])
            })
            .collect();
        let h = ConvexHull::build(&pts).unwrap();
        for pt in &pts {
            assert!(h.contains(pt, 1e-7));
        }
        // Facet planes actually pass through their vertices.
        for f in h.facets() {
            for &v in &f.vertices {
                assert!(f.plane.eval(&pts[v]).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn duplicate_points_are_harmless() {
        let pts = vec![
            p(&[0.0, 0.0]),
            p(&[1.0, 0.0]),
            p(&[0.0, 1.0]),
            p(&[1.0, 0.0]),
            p(&[1.0, 1.0]),
            p(&[1.0, 1.0]),
        ];
        let h = ConvexHull::build(&pts).unwrap();
        assert_eq!(h.num_facets(), 4);
        assert!((h.volume() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn incident_facets_cover_vertex() {
        let mut pts = vec![p(&[0.0, 0.0, 0.0])];
        for i in 0..3 {
            pts.push(PointD::basis(3, i));
        }
        pts.push(p(&[1.0, 1.0, 1.0]));
        let h = ConvexHull::build(&pts).unwrap();
        let apex = 4; // (1,1,1)
        let inc = h.facets_incident_to(apex);
        assert!(!inc.is_empty());
        for f in inc {
            assert!(f.has_vertex(apex));
        }
    }
}

//! Half-space intersection via point/hyperplane duality.
//!
//! The paper computes final GIRs by intersecting half-spaces (its
//! implementation delegates to the Qhull library, §8); we implement the
//! same classical reduction from scratch: with an interior point `x0` of
//! the intersection, each half-space `n·x ≤ b` maps to the dual point
//! `n / (b − n·x0)`. Facets of the dual hull correspond to vertices of the
//! primal region, and *vertices* of the dual hull correspond to the
//! non-redundant half-spaces — exactly the facets of the GIR, whose
//! provenance tells the user which record overtakes which on that boundary
//! (paper §3.2).

use crate::hull::{ConvexHull, HullError};
use crate::hyperplane::HalfSpace;
use crate::lp::{chebyshev_center_view, ConsView};
use crate::vector::PointD;
use crate::{EPS, LOOSE_EPS};
use std::borrow::Cow;

/// Result of intersecting half-spaces.
#[derive(Debug, Clone)]
pub struct HalfspaceIntersection {
    /// Vertices of the intersection polytope (deduplicated).
    pub vertices: Vec<PointD>,
    /// Indices (into the input slice) of half-spaces that actually bound
    /// the region — its facets.
    pub nonredundant: Vec<usize>,
    /// The interior point used for the dual transform.
    pub interior: PointD,
}

/// Failure modes of the intersection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntersectError {
    /// The intersection is empty.
    Empty,
    /// The intersection has empty interior (it is a lower-dimensional
    /// set): the largest inscribed ball has (near-)zero radius. Volumes
    /// are zero and vertex enumeration is not attempted.
    Flat,
    /// Hull construction failed numerically.
    Numerical(HullError),
}

impl std::fmt::Display for IntersectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntersectError::Empty => write!(f, "empty intersection"),
            IntersectError::Flat => write!(f, "intersection has empty interior"),
            IntersectError::Numerical(e) => write!(f, "dual hull failed: {e}"),
        }
    }
}

impl std::error::Error for IntersectError {}

/// Minimum inscribed-ball radius for the region to count as full-
/// dimensional. GIR volumes at `d = 8` reach `10^-15` (paper Fig 14), i.e.
/// inscribed radii around `10^-2` per axis pair; `1e-10` stays far below
/// any region the experiments produce while rejecting true degeneracies.
const FLAT_TOL: f64 = 1e-10;

/// Intersects the half-spaces (each `normal · x ≤ offset`), which must
/// include enough constraints to make the region bounded (GIR callers
/// always include the `[0,1]^d` query box).
///
/// `interior_hint` short-circuits the Chebyshev-center LP when the caller
/// already knows a deep interior point (the GIR always contains the
/// original query vector `q`).
pub fn intersect_halfspaces(
    halfspaces: &[HalfSpace],
    interior_hint: Option<&PointD>,
) -> Result<HalfspaceIntersection, IntersectError> {
    let d = halfspaces
        .first()
        .map(|h| h.normal.dim())
        .expect("at least one half-space");

    // A zero normal has no dual point: `0 ≤ offset` is vacuous, and
    // `offset < 0` empties the region. (A non-result record with `p_k`'s
    // attributes yields the vacuous kind.) `kept` maps the remaining
    // half-spaces back to their input indices.
    let mut kept: Vec<usize> = Vec::with_capacity(halfspaces.len());
    for (i, h) in halfspaces.iter().enumerate() {
        if h.normal.coords().iter().any(|&c| c != 0.0) {
            kept.push(i);
        } else if h.offset < 0.0 {
            return Err(IntersectError::Empty);
        }
    }
    let active: Cow<'_, [HalfSpace]> = if kept.len() == halfspaces.len() {
        Cow::Borrowed(halfspaces)
    } else {
        Cow::Owned(kept.iter().map(|&i| halfspaces[i].clone()).collect())
    };

    let interior = match interior_hint {
        Some(x0) if min_slack(&active, x0) > FLAT_TOL => x0.clone(),
        _ => {
            let (c, r) = chebyshev_center_view(ConsView::Half(&active), 0.0, 1.0, d)
                .ok_or(IntersectError::Empty)?;
            if r <= FLAT_TOL {
                return Err(IntersectError::Flat);
            }
            c
        }
    };

    // Dual transform. Half-spaces with huge dual norm (tiny slack at the
    // interior point) are kept — they are the tightest constraints.
    let mut duals: Vec<PointD> = Vec::with_capacity(active.len());
    for h in active.iter() {
        let slack = h.offset - h.normal.dot(&interior);
        debug_assert!(slack > 0.0, "interior point not strictly interior");
        duals.push(h.normal.scale(1.0 / slack.max(FLAT_TOL)));
    }

    let hull = ConvexHull::build(&duals).map_err(IntersectError::Numerical)?;

    // Dual hull facets → primal vertices.
    let mut vertices: Vec<PointD> = Vec::new();
    for f in hull.facets() {
        // Facet plane u·y = c with the hull (hence the origin) on the
        // `≤` side; origin strictly inside ⇒ c > 0.
        let c = f.plane.offset;
        if c <= EPS {
            // Numerically unbounded direction; skip (the box constraints
            // make this impossible for exact arithmetic).
            continue;
        }
        let v = interior.add_scaled(&f.plane.normal, 1.0 / c);
        if !vertices.iter().any(|u| u.approx_eq(&v, LOOSE_EPS)) {
            vertices.push(v);
        }
    }

    // Dual hull vertices → primal facets (non-redundant half-spaces).
    let nonredundant = hull.vertex_indices().into_iter().map(|i| kept[i]).collect();

    Ok(HalfspaceIntersection {
        vertices,
        nonredundant,
        interior,
    })
}

fn min_slack(halfspaces: &[HalfSpace], x: &PointD) -> f64 {
    halfspaces
        .iter()
        .map(|h| h.slack(x))
        .fold(f64::INFINITY, f64::min)
}

/// True when `x` satisfies every half-space within `tol`.
pub fn region_contains(halfspaces: &[HalfSpace], x: &PointD, tol: f64) -> bool {
    halfspaces.iter().all(|h| h.contains(x, tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperplane::Provenance;

    fn hs(n: &[f64], b: f64) -> HalfSpace {
        HalfSpace {
            normal: PointD::from(n),
            offset: b,
            provenance: Provenance::NonResult { record_id: 0 },
        }
    }

    fn unit_box(d: usize) -> Vec<HalfSpace> {
        HalfSpace::full_query_box(d)
    }

    #[test]
    fn unit_square_vertices() {
        let hs = unit_box(2);
        let r = intersect_halfspaces(&hs, None).unwrap();
        assert_eq!(r.vertices.len(), 4);
        assert_eq!(r.nonredundant.len(), 4);
        for corner in [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]] {
            let c = PointD::from(&corner[..]);
            assert!(
                r.vertices.iter().any(|v| v.approx_eq(&c, 1e-6)),
                "missing corner {corner:?}"
            );
        }
    }

    #[test]
    fn wedge_in_unit_square() {
        // GIR-style wedge: y ≤ 2x and y ≥ x/2, i.e. -2x + y ≤ 0 and
        // x/2 - y ≤ 0, inside the box. Vertices: (0,0), (1,0.5), (1,1),
        // (0.5,1).
        let mut cons = unit_box(2);
        cons.push(hs(&[-2.0, 1.0], 0.0));
        cons.push(hs(&[0.5, -1.0], 0.0));
        let hint = PointD::new(vec![0.6, 0.6]);
        let r = intersect_halfspaces(&cons, Some(&hint)).unwrap();
        assert_eq!(r.vertices.len(), 4, "vertices: {:?}", r.vertices);
        for v in [[0.0, 0.0], [1.0, 0.5], [1.0, 1.0], [0.5, 1.0]] {
            let c = PointD::from(&v[..]);
            assert!(
                r.vertices.iter().any(|u| u.approx_eq(&c, 1e-6)),
                "missing vertex {v:?}; got {:?}",
                r.vertices
            );
        }
    }

    #[test]
    fn redundant_halfspace_detected() {
        let mut cons = unit_box(2);
        cons.push(hs(&[1.0, 1.0], 5.0)); // x + y ≤ 5: redundant
        let r = intersect_halfspaces(&cons, None).unwrap();
        assert!(
            !r.nonredundant.contains(&4),
            "redundant constraint reported as facet"
        );
        assert_eq!(r.nonredundant.len(), 4);
    }

    #[test]
    fn empty_intersection() {
        let mut cons = unit_box(2);
        cons.push(hs(&[1.0, 0.0], -0.5)); // x ≤ -0.5
        assert_eq!(
            intersect_halfspaces(&cons, None).unwrap_err(),
            IntersectError::Empty
        );
    }

    #[test]
    fn zero_normal_is_vacuous_or_empty() {
        // `0 · x ≤ 0` (a duplicate record's score-order condition) is
        // dropped; the facet indices still name the input slice.
        let mut cons = vec![hs(&[0.0, 0.0], 0.0)];
        cons.extend(unit_box(2));
        cons.push(hs(&[-2.0, 1.0], 0.0));
        let hint = PointD::new(vec![0.6, 0.6]);
        let r = intersect_halfspaces(&cons, Some(&hint)).unwrap();
        let mut facets = r.nonredundant.clone();
        facets.sort_unstable();
        assert!(!facets.contains(&0), "vacuous half-space reported");
        assert!(facets.contains(&5), "the wedge cut must be a facet");
        assert_eq!(r.vertices.len(), 4, "vertices: {:?}", r.vertices);
        // `0 · x ≤ -1` admits nothing.
        let mut cons = unit_box(2);
        cons.push(hs(&[0.0, 0.0], -1.0));
        assert_eq!(
            intersect_halfspaces(&cons, None).unwrap_err(),
            IntersectError::Empty
        );
    }

    #[test]
    fn flat_intersection() {
        let mut cons = unit_box(2);
        cons.push(hs(&[1.0, 0.0], 0.3)); // x ≤ 0.3
        cons.push(hs(&[-1.0, 0.0], -0.3)); // x ≥ 0.3
        assert_eq!(
            intersect_halfspaces(&cons, None).unwrap_err(),
            IntersectError::Flat
        );
    }

    #[test]
    fn cube_3d_with_diagonal_cut() {
        // Cut the unit cube with x + y + z ≤ 1.5.
        let mut cons = unit_box(3);
        cons.push(hs(&[1.0, 1.0, 1.0], 1.5));
        let r = intersect_halfspaces(&cons, None).unwrap();
        // All 7 half-spaces bound the region (the cut removes one corner
        // but all six cube faces still contribute).
        assert_eq!(r.nonredundant.len(), 7);
        // Every vertex satisfies all constraints.
        for v in &r.vertices {
            for h in &cons {
                assert!(h.contains(v, 1e-6), "vertex {v:?} violates constraint");
            }
        }
    }

    #[test]
    fn interior_hint_is_used_when_valid() {
        let hsx = unit_box(2);
        let hint = PointD::new(vec![0.25, 0.75]);
        let r = intersect_halfspaces(&hsx, Some(&hint)).unwrap();
        assert!(r.interior.approx_eq(&hint, 0.0));
    }

    #[test]
    fn region_contains_matches_halfspace_test() {
        let mut cons = unit_box(2);
        cons.push(hs(&[-2.0, 1.0], 0.0));
        assert!(region_contains(&cons, &PointD::new(vec![0.5, 0.5]), 1e-9));
        assert!(!region_contains(&cons, &PointD::new(vec![0.1, 0.9]), 1e-9));
    }
}

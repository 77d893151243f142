//! Hyperplanes and half-spaces in `R^d`.
//!
//! Every GIR condition `(a − b) · q' ≥ 0` (paper Definition 1) is the
//! half-space whose bounding hyperplane passes through the origin with
//! normal `a − b`; the query-space box `[0,1]^d` contributes axis-parallel
//! half-spaces. Both are represented uniformly here as `normal · x ≤ offset`.

use crate::linalg;
use crate::vector::PointD;
use crate::EPS;

/// A hyperplane `normal · x = offset` with unit-ish normal.
#[derive(Debug, Clone, PartialEq)]
pub struct Hyperplane {
    /// Plane normal (not necessarily unit length, but never zero).
    pub normal: PointD,
    /// Plane offset: the plane is `{x : normal · x = offset}`.
    pub offset: f64,
}

impl Hyperplane {
    /// The hyperplane stored flat as `[n_0 … n_{d−1}, offset]`.
    pub fn from_flat(plane: &[f64]) -> Hyperplane {
        let (normal, offset) = plane.split_at(plane.len() - 1);
        Hyperplane {
            normal: PointD::from(normal),
            offset: offset[0],
        }
    }

    /// Signed distance-like evaluation: positive when `x` is on the
    /// normal side of the plane.
    #[inline]
    pub fn eval(&self, x: &PointD) -> f64 {
        self.normal.dot(x) - self.offset
    }
}

/// Reused buffers for [`plane_through`]: the edge matrix and the pivot
/// columns of its elimination. They grow to the largest `d` solved and
/// are never shrunk, so repeated solves allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct PlaneScratch {
    edges: Vec<f64>,
    pivots: Vec<usize>,
}

/// `normal · x − offset` for a plane stored flat as
/// `[n_0 … n_{d−1}, offset]`: positive when `x` is on the normal side.
#[inline]
pub fn eval_flat(plane: &[f64], x: &[f64]) -> f64 {
    let (normal, offset) = plane.split_at(x.len());
    normal.iter().zip(x).map(|(a, b)| a * b).sum::<f64>() - offset[0]
}

/// Writes the hyperplane through `points` — `d` affinely independent
/// points, `d = plane.len() − 1` — into `plane` as
/// `[n_0 … n_{d−1}, offset]` with a unit normal, or returns `false`
/// when there are not exactly `d` points or they are affinely
/// dependent. The one plane solver of the workspace: the normal is the
/// null space of the edge matrix `p_i − p_0` ([`linalg::null_space_1`]),
/// eliminated in `scratch`. Its orientation is arbitrary; see
/// [`orient_away`].
pub fn plane_through<'a>(
    scratch: &mut PlaneScratch,
    points: impl IntoIterator<Item = &'a [f64]>,
    plane: &mut [f64],
) -> bool {
    let d = plane.len() - 1;
    let mut points = points.into_iter();
    let Some(base) = points.next() else {
        return false;
    };
    scratch.edges.clear();
    let mut rows = 0;
    for p in points {
        scratch.edges.extend(p.iter().zip(base).map(|(a, b)| a - b));
        rows += 1;
    }
    if rows + 1 != d {
        return false;
    }
    let (normal, offset) = plane.split_at_mut(d);
    if d == 1 {
        normal[0] = 1.0;
        offset[0] = base[0];
        return true;
    }
    if scratch.pivots.len() < rows {
        scratch.pivots.resize(rows, 0);
    }
    if !linalg::null_space_1(&mut scratch.edges, &mut scratch.pivots, normal) {
        return false;
    }
    offset[0] = normal.iter().zip(base).map(|(a, b)| a * b).sum();
    true
}

/// Flips the flat plane `[n_0 … n_{d−1}, offset]` in place so its
/// normal points away from `p` (`eval_flat(plane, p) < 0`). Returns
/// `false` when `p` lies on the plane (within [`EPS`]), where the
/// orientation is ambiguous.
pub fn orient_away(plane: &mut [f64], p: &[f64]) -> bool {
    let e = eval_flat(plane, p);
    if e.abs() < EPS {
        return false;
    }
    if e > 0.0 {
        let (normal, offset) = plane.split_at_mut(p.len());
        for v in normal.iter_mut() {
            *v *= -1.0;
        }
        offset[0] = -offset[0];
    }
    true
}

/// Provenance of a GIR half-space: which condition of Definition 1 (or the
/// query-space box) generated it. Carrying provenance is what lets the
/// system report the *result perturbation* at each GIR boundary facet
/// (paper §3.2): crossing an `Ordering` facet swaps two result records;
/// crossing a `NonResult` facet promotes that record into position `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// `S(p_i, q') ≥ S(p_{i+1}, q')` — result records `i` and `i+1`
    /// (0-based rank of the higher one). Crossing it reorders them.
    Ordering { rank: usize },
    /// `S(p_k, q') ≥ S(p, q')` — non-result record `id` overtakes the k-th
    /// result record when the query crosses this facet.
    NonResult { record_id: u64 },
    /// `S(p_i, q') ≥ S(p, q')` for order-insensitive GIR* (paper §7.1):
    /// non-result record `record_id` overtakes result member of `rank`.
    StarNonResult { rank: usize, record_id: u64 },
    /// Query-space boundary `0 ≤ w_dim` (lower) or `w_dim ≤ 1` (upper).
    QueryBox { dim: usize, upper: bool },
}

/// A closed half-space `normal · x ≤ offset`, tagged with the GIR condition
/// that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct HalfSpace {
    /// Outward normal: points *out* of the feasible side.
    pub normal: PointD,
    /// Offset; feasible side is `normal · x ≤ offset`.
    pub offset: f64,
    /// The GIR condition this half-space encodes.
    pub provenance: Provenance,
}

impl HalfSpace {
    /// The half-space `{q' : (winner - loser) · q' ≥ 0}` expressed in the
    /// canonical `normal · x ≤ offset` form (normal = loser − winner,
    /// offset = 0). This is the score-order condition of Definition 1.
    pub fn score_order(winner: &PointD, loser: &PointD, provenance: Provenance) -> HalfSpace {
        HalfSpace {
            normal: loser.sub(winner),
            offset: 0.0,
            provenance,
        }
    }

    /// Query-box constraint for dimension `dim`: `w_dim ≤ 1` when `upper`,
    /// `-w_dim ≤ 0` otherwise.
    pub fn query_box(d: usize, dim: usize, upper: bool) -> HalfSpace {
        let mut n = vec![0.0; d];
        n[dim] = if upper { 1.0 } else { -1.0 };
        HalfSpace {
            normal: PointD::from(n),
            offset: if upper { 1.0 } else { 0.0 },
            provenance: Provenance::QueryBox { dim, upper },
        }
    }

    /// All `2d` box constraints of the query space `[0,1]^d`.
    pub fn full_query_box(d: usize) -> Vec<HalfSpace> {
        (0..d)
            .flat_map(|dim| {
                [
                    HalfSpace::query_box(d, dim, false),
                    HalfSpace::query_box(d, dim, true),
                ]
            })
            .collect()
    }

    /// Slack at `x`: `offset − normal · x` (non-negative inside).
    #[inline]
    pub fn slack(&self, x: &PointD) -> f64 {
        self.offset - self.normal.dot(x)
    }

    /// True when `x` satisfies the half-space within `tol`.
    #[inline]
    pub fn contains(&self, x: &PointD, tol: f64) -> bool {
        self.slack(x) >= -tol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plane through `pts`, flat, or `None` when they are dependent.
    fn plane(pts: &[&[f64]]) -> Option<Vec<f64>> {
        let mut plane = vec![0.0; pts[0].len() + 1];
        plane_through(
            &mut PlaneScratch::default(),
            pts.iter().copied(),
            &mut plane,
        )
        .then_some(plane)
    }

    #[test]
    fn plane_through_2d_points() {
        let h = plane(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        // x + y = 1 (up to sign/scale of unit normal).
        assert!(eval_flat(&h, &[0.5, 0.5]).abs() < 1e-9);
        assert!(eval_flat(&h, &[0.0, 0.0]).abs() > 0.5);
        assert!(Hyperplane::from_flat(&h).eval(&PointD::zeros(2)).abs() > 0.5);
    }

    #[test]
    fn plane_through_degenerate_points_is_none() {
        assert!(plane(&[&[0.5, 0.5], &[0.5, 0.5]]).is_none());
        // Not exactly d points.
        assert!(plane(&[&[0.5, 0.5]]).is_none());
    }

    #[test]
    fn orientation_away_from_point() {
        let mut h = plane(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        assert!(orient_away(&mut h, &[0.0, 0.0]));
        assert!(eval_flat(&h, &[0.0, 0.0]) < 0.0);
        assert!(eval_flat(&h, &[1.0, 1.0]) > 0.0);
        // Already oriented: a second call leaves the plane as it is.
        let before = h.clone();
        assert!(orient_away(&mut h, &[0.0, 0.0]));
        assert_eq!(h, before);
        // A point on the plane cannot orient it.
        assert!(!orient_away(&mut h, &[0.5, 0.5]));
    }

    #[test]
    fn score_order_halfspace_sides() {
        // winner (0.54,0.5), loser (0.5,0.48) — Figure 3(a) rows p1, p2:
        // the half-plane is 0.04 w1 + 0.02 w2 ≥ 0.
        let w = PointD::new(vec![0.54, 0.5]);
        let l = PointD::new(vec![0.5, 0.48]);
        let hs = HalfSpace::score_order(&w, &l, Provenance::Ordering { rank: 0 });
        // Any positive query satisfies it.
        assert!(hs.contains(&PointD::new(vec![0.6, 0.5]), 0.0));
        // A direction favoring the loser violates it.
        assert!(!hs.contains(&PointD::new(vec![-1.0, -1.0]), 1e-12));
    }

    #[test]
    fn query_box_halfspaces() {
        let lo = HalfSpace::query_box(3, 1, false);
        let hi = HalfSpace::query_box(3, 1, true);
        let inside = PointD::new(vec![0.5, 0.5, 0.5]);
        let below = PointD::new(vec![0.5, -0.1, 0.5]);
        let above = PointD::new(vec![0.5, 1.1, 0.5]);
        assert!(lo.contains(&inside, 0.0) && hi.contains(&inside, 0.0));
        assert!(!lo.contains(&below, 1e-12));
        assert!(!hi.contains(&above, 1e-12));
        assert_eq!(HalfSpace::full_query_box(3).len(), 6);
    }

    #[test]
    fn slack_is_linear() {
        let hs = HalfSpace::query_box(2, 0, true); // x ≤ 1
        assert!((hs.slack(&PointD::new(vec![0.2, 0.9])) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn plane_through_3d_points() {
        let pts: [&[f64]; 3] = [&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]];
        let h = plane(&pts).unwrap();
        for p in pts {
            assert!(eval_flat(&h, p).abs() < 1e-9);
        }
    }
}

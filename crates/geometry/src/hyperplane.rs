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
    /// Builds the hyperplane through `d` affinely independent points,
    /// or `None` when the points are affinely dependent.
    ///
    /// The normal orientation is arbitrary; use [`Hyperplane::oriented_away_from`]
    /// to fix it.
    pub fn through_points(points: &[PointD]) -> Option<Hyperplane> {
        let d = points.first()?.dim();
        if points.len() != d {
            return None;
        }
        if d == 1 {
            return Some(Hyperplane {
                normal: PointD::new(vec![1.0]),
                offset: points[0][0],
            });
        }
        let rows: Vec<Vec<f64>> = points[1..]
            .iter()
            .map(|p| p.sub(&points[0]).coords().to_vec())
            .collect();
        let n = linalg::null_space_1(&rows)?;
        let normal = PointD::from(n);
        let offset = normal.dot(&points[0]);
        Some(Hyperplane { normal, offset })
    }

    /// Signed distance-like evaluation: positive when `x` is on the
    /// normal side of the plane.
    #[inline]
    pub fn eval(&self, x: &PointD) -> f64 {
        self.normal.dot(x) - self.offset
    }

    /// Returns a copy whose normal points away from `p` (i.e. `eval(p) ≤ 0`).
    /// Returns `None` when `p` lies on the plane (within [`EPS`]), in which
    /// case the orientation is ambiguous.
    pub fn oriented_away_from(&self, p: &PointD) -> Option<Hyperplane> {
        let e = self.eval(p);
        if e.abs() < EPS {
            None
        } else if e > 0.0 {
            Some(Hyperplane {
                normal: self.normal.scale(-1.0),
                offset: -self.offset,
            })
        } else {
            Some(self.clone())
        }
    }
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

    #[test]
    fn plane_through_2d_points() {
        let pts = [PointD::new(vec![1.0, 0.0]), PointD::new(vec![0.0, 1.0])];
        let h = Hyperplane::through_points(&pts).unwrap();
        // x + y = 1 (up to sign/scale of unit normal).
        assert!(h.eval(&PointD::new(vec![0.5, 0.5])).abs() < 1e-9);
        assert!(h.eval(&PointD::new(vec![0.0, 0.0])).abs() > 0.5);
    }

    #[test]
    fn plane_through_degenerate_points_is_none() {
        let pts = [PointD::new(vec![0.5, 0.5]), PointD::new(vec![0.5, 0.5])];
        assert!(Hyperplane::through_points(&pts).is_none());
    }

    #[test]
    fn orientation_away_from_point() {
        let pts = [PointD::new(vec![1.0, 0.0]), PointD::new(vec![0.0, 1.0])];
        let h = Hyperplane::through_points(&pts).unwrap();
        let origin = PointD::zeros(2);
        let o = h.oriented_away_from(&origin).unwrap();
        assert!(o.eval(&origin) < 0.0);
        assert!(o.eval(&PointD::new(vec![1.0, 1.0])) > 0.0);
        // A point on the plane cannot orient it.
        assert!(h.oriented_away_from(&PointD::new(vec![0.5, 0.5])).is_none());
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
        let pts = [
            PointD::new(vec![1.0, 0.0, 0.0]),
            PointD::new(vec![0.0, 1.0, 0.0]),
            PointD::new(vec![0.0, 0.0, 1.0]),
        ];
        let h = Hyperplane::through_points(&pts).unwrap();
        for p in &pts {
            assert!(h.eval(p).abs() < 1e-9);
        }
    }
}

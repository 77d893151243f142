//! FP in two dimensions (paper §6.2).
//!
//! In the plane the sweeping line pinned at `p_k` has a one-parameter
//! family of orientations: normals `w(θ) = (cos θ, sin θ)`, `θ ∈ [0°,90°]`.
//! Each candidate `p` with `v = p_k − p` constrains `θ` from one side
//! (`v` has mixed signs) or not at all (`p` dominated by `p_k`). FP keeps
//! the tightest clockwise and anticlockwise bounds — the two *interim
//! facets* — refining them first over the in-memory set `T` and then over
//! the disk, pruning R-tree entries that lie below both facets.

use crate::fp::{FpStats, SweepContext};
use gir_geometry::hyperplane::{HalfSpace, Provenance};
use gir_geometry::vector::PointD;
use gir_geometry::EPS;
use gir_query::{Record, ScoringFunction, SearchState};
use gir_rtree::{Mbb, NodeSource, RTreeError};
use std::f64::consts::FRAC_PI_2;

/// The rotating-line bounds around `p_k`: the two facets of §6.2.
#[derive(Debug, Clone)]
struct AngularBounds {
    pk: PointD,
    /// Lower bound on θ with the record that pins it (`None` = the
    /// horizontal-axis projection facet).
    lo: f64,
    lo_rec: Option<Record>,
    /// Upper bound on θ with its pinning record (`None` = vertical axis).
    hi: f64,
    hi_rec: Option<Record>,
}

impl AngularBounds {
    fn new(pk: PointD) -> Self {
        AngularBounds {
            pk,
            lo: 0.0,
            lo_rec: None,
            hi: FRAC_PI_2,
            hi_rec: None,
        }
    }

    /// Applies candidate `p`'s rotation constraint.
    fn update(&mut self, rec: &Record) {
        let v = self.pk.sub(&rec.attrs);
        if v[0] >= -EPS && v[1] >= -EPS {
            return; // dominated by pk: no constraint on [0°, 90°]
        }
        if v[0] <= EPS && v[1] <= EPS {
            // rec dominates pk — impossible for a non-result record
            // (it would out-score pk everywhere); ignore defensively.
            return;
        }
        if v[0] < 0.0 {
            // p out-scores pk at θ = 0 (it is better on x): the constraint
            // w·v ≥ 0 holds for θ ≥ θ0. Boundary normal ⊥ v with positive
            // components is (v1, −v0).
            let theta = f64::atan2(-v[0], v[1]);
            if theta > self.lo {
                self.lo = theta;
                self.lo_rec = Some(rec.clone());
            }
        } else {
            // v[1] < 0: p out-scores pk at θ = 90°; constraint holds for
            // θ ≤ θ0 with boundary normal (−v1, v0).
            let theta = f64::atan2(v[0], -v[1]);
            if theta < self.hi {
                self.hi = theta;
                self.hi_rec = Some(rec.clone());
            }
        }
    }

    fn normals(&self) -> [PointD; 2] {
        [
            PointD::new(vec![self.lo.cos(), self.lo.sin()]),
            PointD::new(vec![self.hi.cos(), self.hi.sin()]),
        ]
    }

    /// True when the whole box lies below both facet lines.
    fn prunes_mbb(&self, mbb: &Mbb) -> bool {
        // Both facet normals are in the positive quadrant, so the top
        // corner maximizes both dot products.
        let pk = &self.pk;
        self.normals()
            .iter()
            .all(|n| n.dot(mbb.top_corner()) <= n.dot(pk) + EPS)
    }
}

/// FP Phase 2 for `d = 2`: returns at most two half-spaces (the critical
/// records), scanning only heap entries that rise above the interim
/// facets.
pub fn fp_phase2_2d<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    kth: &Record,
    state: SearchState,
) -> Result<(Vec<HalfSpace>, FpStats), RTreeError> {
    fp_phase2_2d_ctx(src, scoring, kth, state, &SweepContext::default())
}

/// FP Phase 2 for `d = 2` with an explicit [`SweepContext`]: the entry
/// point for incremental repair, where the state is root-seeded (so
/// result members must be excluded) and the surviving contributors seed
/// the rotation bounds before any node is fetched.
pub fn fp_phase2_2d_ctx<S: NodeSource + ?Sized>(
    src: &S,
    scoring: &ScoringFunction,
    kth: &Record,
    mut state: SearchState,
    ctx: &SweepContext<'_>,
) -> Result<(Vec<HalfSpace>, FpStats), RTreeError> {
    assert!(
        scoring.is_linear(),
        "FP relies on convex-hull properties that hold only for linear scoring (paper §7.2)"
    );
    let mut bounds = AngularBounds::new(kth.attrs.clone());
    for seed in ctx.seeds {
        bounds.update(seed);
    }

    // First step: the in-memory candidates T (record entries in the heap).
    // Drain them so the disk step sees only node entries.
    let (records, nodes) = state.drain();
    for &(at, _) in &records {
        let record = state.record(at);
        if !ctx.skips(record.id) {
            bounds.update(record);
        }
    }

    // Second step: refine over the disk, pruning below-facet subtrees.
    let (nodes_examined, nodes_pruned) = state.sweep(
        src,
        nodes,
        &mut bounds,
        |bounds, m| bounds.prunes_mbb(m),
        |bounds, rec| {
            if rec.id != kth.id && !ctx.skips(rec.id) {
                bounds.update(rec);
            }
        },
    )?;

    let mut halfspaces = Vec::with_capacity(2);
    for rec in [&bounds.lo_rec, &bounds.hi_rec].into_iter().flatten() {
        halfspaces.push(HalfSpace::score_order(
            &kth.attrs,
            &rec.attrs,
            Provenance::NonResult { record_id: rec.id },
        ));
    }
    let stats = FpStats {
        critical: halfspaces.len(),
        facets: 2,
        nodes_examined,
        nodes_pruned,
    };
    Ok((halfspaces, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, x: f64, y: f64) -> Record {
        Record::new(id, vec![x, y])
    }

    #[test]
    fn bounds_start_at_axes() {
        let b = AngularBounds::new(PointD::new(vec![0.7, 0.6]));
        assert_eq!(b.lo, 0.0);
        assert!((b.hi - FRAC_PI_2).abs() < 1e-12);
        let [n_lo, n_hi] = b.normals();
        assert!(n_lo.approx_eq(&PointD::new(vec![1.0, 0.0]), 1e-12));
        assert!(n_hi.approx_eq(&PointD::new(vec![0.0, 1.0]), 1e-12));
    }

    #[test]
    fn candidate_better_on_x_raises_lower_bound() {
        // p beats pk when all weight is on x (θ = 0), so θ is bounded
        // away from 0 — check the boundary normal scores them equally.
        let pk = PointD::new(vec![0.5, 0.8]);
        let mut b = AngularBounds::new(pk.clone());
        let p = rec(1, 0.9, 0.5);
        b.update(&p);
        assert!(b.lo > 0.0);
        assert!(b.lo_rec.as_ref().unwrap().id == 1);
        let n = PointD::new(vec![b.lo.cos(), b.lo.sin()]);
        assert!(
            (n.dot(&pk) - n.dot(&p.attrs)).abs() < 1e-9,
            "normal not on boundary"
        );
    }

    #[test]
    fn candidate_better_on_y_lowers_upper_bound() {
        // p beats pk at θ = 90°: the anticlockwise rotation is bounded.
        let pk = PointD::new(vec![0.8, 0.5]);
        let mut b = AngularBounds::new(pk.clone());
        let p = rec(2, 0.5, 0.9);
        b.update(&p);
        assert!(b.hi < FRAC_PI_2);
        assert_eq!(b.hi_rec.as_ref().unwrap().id, 2);
        let n = PointD::new(vec![b.hi.cos(), b.hi.sin()]);
        assert!((n.dot(&pk) - n.dot(&p.attrs)).abs() < 1e-9);
    }

    #[test]
    fn dominated_candidate_no_constraint() {
        let mut b = AngularBounds::new(PointD::new(vec![0.8, 0.8]));
        b.update(&rec(3, 0.5, 0.5));
        assert_eq!(b.lo, 0.0);
        assert!((b.hi - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn tightest_bound_wins() {
        // Both candidates beat pk on y; the tighter rotation bound must
        // be the one whose boundary angle is smaller.
        let pk = PointD::new(vec![0.9, 0.5]);
        let mut b = AngularBounds::new(pk.clone());
        b.update(&rec(1, 0.6, 0.8));
        b.update(&rec(2, 0.85, 0.95));
        let winner = b.hi_rec.as_ref().unwrap();
        // Verify minimality directly: the winning record's boundary angle
        // is no larger than the other's.
        let angle = |p: &PointD| {
            let v = b.pk.sub(p);
            f64::atan2(v[0], -v[1])
        };
        assert!(angle(&winner.attrs) <= angle(&PointD::new(vec![0.6, 0.8])) + 1e-12);
        assert!(angle(&winner.attrs) <= angle(&PointD::new(vec![0.85, 0.95])) + 1e-12);
    }

    #[test]
    fn prune_test_uses_top_corner() {
        let pk = PointD::new(vec![0.8, 0.8]);
        let b = AngularBounds::new(pk);
        let low_box = Mbb {
            lo: PointD::new(vec![0.0, 0.0]),
            hi: PointD::new(vec![0.7, 0.7]),
        };
        assert!(b.prunes_mbb(&low_box));
        let tall_box = Mbb {
            lo: PointD::new(vec![0.0, 0.0]),
            hi: PointD::new(vec![0.5, 0.95]),
        };
        assert!(!b.prunes_mbb(&tall_box));
    }
}

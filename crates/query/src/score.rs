//! Scoring functions.
//!
//! The paper's default is the linear score `S(p,q) = q · p` (§3.1). §7.2
//! extends SP-based GIR computation to monotone functions of the form
//! `S(p,q) = Σ w_i · g_i(p_i)`: since each condition `S(p,q') ≥ S(p',q')`
//! is still linear in the *weights*, the GIR remains a half-space
//! intersection over transformed attributes. The experiments (Fig 19) use
//! a "Polynomial" and a "Mixed" instance, both reproduced here.

use gir_geometry::vector::PointD;
use gir_rtree::Mbb;

/// Per-dimension monotone increasing transform `g_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transform {
    /// `g(x) = x`.
    Linear,
    /// `g(x) = x^n` for `n ≥ 1` (monotone on `[0,1]`).
    Power(u32),
    /// `g(x) = e^x`.
    Exp,
    /// `g(x) = ln(max(x, 1e-6))` — clamped away from `ln 0`; the paper
    /// uses `log x` on `[0,1]`-normalized HOTEL attributes (Fig 19).
    Log,
    /// `g(x) = √x`.
    Sqrt,
}

impl Transform {
    /// Applies the transform.
    #[inline]
    pub fn apply(&self, x: f64) -> f64 {
        match self {
            Transform::Linear => x,
            Transform::Power(n) => x.powi(*n as i32),
            Transform::Exp => x.exp(),
            Transform::Log => x.max(1e-6).ln(),
            Transform::Sqrt => x.max(0.0).sqrt(),
        }
    }
}

/// A monotone scoring function `S(p, q) = Σ w_i · g_i(p_i)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScoringFunction {
    transforms: Vec<Transform>,
}

impl ScoringFunction {
    /// The linear scoring function in `d` dimensions (the paper default).
    pub fn linear(d: usize) -> Self {
        ScoringFunction {
            transforms: vec![Transform::Linear; d],
        }
    }

    /// A custom per-dimension monotone function.
    pub fn new(transforms: Vec<Transform>) -> Self {
        ScoringFunction { transforms }
    }

    /// The paper's "Polynomial" function for `d = 4`:
    /// `w1·x1^4 + w2·x2^3 + w3·x3^2 + w4·x4` (Fig 19).
    pub fn polynomial4() -> Self {
        ScoringFunction {
            transforms: vec![
                Transform::Power(4),
                Transform::Power(3),
                Transform::Power(2),
                Transform::Power(1),
            ],
        }
    }

    /// The paper's "Mixed" function for `d = 4`:
    /// `w1·x1^2 + w2·e^{x2} + w3·ln x3 + w4·√x4` (Fig 19).
    pub fn mixed4() -> Self {
        ScoringFunction {
            transforms: vec![
                Transform::Power(2),
                Transform::Exp,
                Transform::Log,
                Transform::Sqrt,
            ],
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.transforms.len()
    }

    /// The per-dimension transforms, in dimension order. This is the
    /// function's full definition — wire encodings serialize these (the
    /// [`ScoringFunction::fingerprint`] hash is explicitly not
    /// wire-stable) and rebuild the function with
    /// [`ScoringFunction::new`].
    pub fn transforms(&self) -> &[Transform] {
        &self.transforms
    }

    /// True when every transform is the identity: CP and FP rely on convex
    /// hull properties that only hold for linear scoring (§7.2).
    pub fn is_linear(&self) -> bool {
        self.transforms
            .iter()
            .all(|t| matches!(t, Transform::Linear))
    }

    /// The transformed attribute vector `g(p) = (g_1(p_1), …, g_d(p_d))`.
    /// GIR half-spaces for non-linear functions are built over these.
    pub fn transform_point(&self, p: &PointD) -> PointD {
        debug_assert_eq!(p.dim(), self.dim());
        PointD::from(
            p.coords()
                .iter()
                .zip(self.transforms.iter())
                .map(|(&x, t)| t.apply(x))
                .collect::<Vec<_>>(),
        )
    }

    /// The score `S(p, q)`.
    #[inline]
    pub fn score(&self, weights: &PointD, p: &PointD) -> f64 {
        debug_assert_eq!(weights.dim(), self.dim());
        weights
            .coords()
            .iter()
            .zip(p.coords().iter())
            .zip(self.transforms.iter())
            .map(|((&w, &x), t)| w * t.apply(x))
            .sum()
    }

    /// A 64-bit hash of the function (its per-dimension transforms)
    /// for in-process routing — serving-layer caches pick a shard by
    /// it. Not stable across Rust releases (std `DefaultHasher`); do
    /// not persist or exchange it. Entry matching always compares the
    /// full function, never this value.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.transforms.hash(&mut h);
        h.finish()
    }

    /// The BRS *maxscore* bound of an MBB: since every `g_i` is increasing
    /// and weights are non-negative, the top corner maximizes the score
    /// over the box (paper §2).
    #[inline]
    pub fn maxscore(&self, weights: &PointD, mbb: &Mbb) -> f64 {
        self.score(weights, mbb.top_corner())
    }

    /// Scores a batch of records into `out` (cleared first). The linear
    /// case runs a fused multiply-add loop with no transform dispatch per
    /// attribute — the leaf-scan kernel of BRS and the columnar scans.
    pub fn scores_into(&self, weights: &PointD, records: &[gir_rtree::Record], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(records.len());
        if self.is_linear() {
            let w = weights.coords();
            out.extend(records.iter().map(|r| {
                r.attrs
                    .coords()
                    .iter()
                    .zip(w)
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            }));
        } else {
            out.extend(records.iter().map(|r| self.score(weights, &r.attrs)));
        }
    }
}

/// A top-k query vector: non-negative weights in `[0,1]^d` (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryVector {
    /// The weight vector `q = (w_1, …, w_d)`.
    pub weights: PointD,
}

impl QueryVector {
    /// Creates a query vector, validating the `[0,1]` weight range.
    pub fn new(weights: impl Into<PointD>) -> Self {
        let weights = weights.into();
        assert!(
            weights.coords().iter().all(|&w| (0.0..=1.0).contains(&w)),
            "query weights must lie in [0,1]"
        );
        QueryVector { weights }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.weights.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_score_is_dot_product() {
        let f = ScoringFunction::linear(2);
        let q = PointD::new(vec![0.4, 0.6]);
        let p = PointD::new(vec![0.54, 0.5]);
        assert!((f.score(&q, &p) - (0.4 * 0.54 + 0.6 * 0.5)).abs() < 1e-12);
        assert!(f.is_linear());
    }

    #[test]
    fn figure3a_scores() {
        // Figure 3(a): q = (0.4, 0.6), scores .516, .488, .418, .4.
        let f = ScoringFunction::linear(2);
        let q = PointD::new(vec![0.4, 0.6]);
        let expect = [
            (vec![0.54, 0.5], 0.516),
            (vec![0.5, 0.48], 0.488),
            (vec![0.52, 0.35], 0.418),
            (vec![0.4, 0.4], 0.4),
        ];
        for (attrs, s) in expect {
            assert!((f.score(&q, &PointD::from(attrs)) - s).abs() < 1e-9);
        }
    }

    #[test]
    fn transforms_are_monotone_increasing() {
        for t in [
            Transform::Linear,
            Transform::Power(4),
            Transform::Exp,
            Transform::Log,
            Transform::Sqrt,
        ] {
            let mut prev = f64::NEG_INFINITY;
            for i in 0..=20 {
                let v = t.apply(i as f64 / 20.0);
                assert!(v >= prev, "{t:?} not monotone at {i}");
                prev = v;
            }
        }
    }

    #[test]
    fn maxscore_upper_bounds_members() {
        let f = ScoringFunction::mixed4();
        let q = PointD::new(vec![0.3, 0.9, 0.1, 0.5]);
        let mbb = Mbb {
            lo: PointD::new(vec![0.1, 0.2, 0.3, 0.4]),
            hi: PointD::new(vec![0.5, 0.6, 0.7, 0.8]),
        };
        let bound = f.maxscore(&q, &mbb);
        // Sample points inside the box.
        for a in [0.1, 0.3, 0.5] {
            for b in [0.2, 0.6] {
                let p = PointD::new(vec![a, b, 0.55, 0.62]);
                assert!(f.score(&q, &p) <= bound + 1e-12);
            }
        }
    }

    #[test]
    fn transform_point_matches_score() {
        // S(p,q) must equal q · g(p).
        let f = ScoringFunction::polynomial4();
        let q = PointD::new(vec![0.2, 0.4, 0.6, 0.8]);
        let p = PointD::new(vec![0.9, 0.5, 0.3, 0.7]);
        let g = f.transform_point(&p);
        assert!((f.score(&q, &p) - q.dot(&g)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "query weights")]
    fn out_of_range_weights_rejected() {
        let _ = QueryVector::new(vec![0.5, 1.5]);
    }

    #[test]
    fn log_clamps_at_zero() {
        assert!(Transform::Log.apply(0.0).is_finite());
    }
}

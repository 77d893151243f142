//! IND / COR / ANTI generators.

use gir_rtree::Record;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The three standard synthetic distributions (paper §8, \[8\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Attributes i.i.d. uniform on `[0,1]`.
    Independent,
    /// Records that are good in one dimension tend to be good in all:
    /// attributes cluster around a per-record quality level drawn from a
    /// peaked distribution.
    Correlated,
    /// Records that are good in one dimension tend to be bad in the
    /// others: points concentrate near a hyperplane `Σ x_i ≈ const`.
    Anticorrelated,
}

impl Distribution {
    /// Short label used in benchmark tables ("IND"/"COR"/"ANTI").
    pub fn label(&self) -> &'static str {
        match self {
            Distribution::Independent => "IND",
            Distribution::Correlated => "COR",
            Distribution::Anticorrelated => "ANTI",
        }
    }
}

/// Standard normal via Box–Muller (the `rand` crate alone ships no
/// Gaussian sampler; `rand_distr` is outside the approved dependency set).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn clamp01(x: f64) -> f64 {
    x.clamp(0.0, 1.0)
}

/// Generates `n` records of dimensionality `d`, deterministically from
/// `seed`.
pub fn synthetic(dist: Distribution, n: usize, d: usize, seed: u64) -> Vec<Record> {
    assert!(d >= 1, "dimensionality must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1575EED);
    let mut out = Vec::with_capacity(n);
    for id in 0..n {
        let attrs: Vec<f64> = match dist {
            Distribution::Independent => (0..d).map(|_| rng.random_range(0.0..1.0)).collect(),
            Distribution::Correlated => {
                // Per-record quality level, peaked at 0.5; attributes
                // scatter tightly around it.
                let v = clamp01(0.5 + 0.15 * normal(&mut rng));
                (0..d)
                    .map(|_| clamp01(v + 0.05 * normal(&mut rng)))
                    .collect()
            }
            Distribution::Anticorrelated => {
                // Points near the plane Σ x_i = d·v with v peaked at 0.5:
                // a Dirichlet(1,…,1) split of the total keeps the sum
                // fixed, so one large coordinate forces the rest small.
                let v = clamp01(0.5 + 0.05 * normal(&mut rng));
                let total = v * d as f64;
                let exp: Vec<f64> = (0..d)
                    .map(|_| -f64::ln(rng.random_range(f64::MIN_POSITIVE..1.0)))
                    .collect();
                let sum: f64 = exp.iter().sum();
                exp.into_iter().map(|e| clamp01(total * e / sum)).collect()
            }
        };
        out.push(Record::new(id as u64, attrs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pearson(data: &[Record], i: usize, j: usize) -> f64 {
        let n = data.len() as f64;
        let mi: f64 = data.iter().map(|r| r.attrs[i]).sum::<f64>() / n;
        let mj: f64 = data.iter().map(|r| r.attrs[j]).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vi = 0.0;
        let mut vj = 0.0;
        for r in data {
            let a = r.attrs[i] - mi;
            let b = r.attrs[j] - mj;
            cov += a * b;
            vi += a * a;
            vj += b * b;
        }
        cov / (vi.sqrt() * vj.sqrt())
    }

    #[test]
    fn all_distributions_in_unit_cube_with_dense_ids() {
        for dist in [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::Anticorrelated,
        ] {
            let data = synthetic(dist, 500, 4, 7);
            assert_eq!(data.len(), 500);
            for (i, r) in data.iter().enumerate() {
                assert_eq!(r.id, i as u64);
                assert_eq!(r.dim(), 4);
                assert!(r.attrs.coords().iter().all(|&x| (0.0..=1.0).contains(&x)));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = synthetic(Distribution::Correlated, 100, 3, 42);
        let b = synthetic(Distribution::Correlated, 100, 3, 42);
        let c = synthetic(Distribution::Correlated, 100, 3, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn correlation_signs() {
        let cor = synthetic(Distribution::Correlated, 4000, 3, 1);
        let anti = synthetic(Distribution::Anticorrelated, 4000, 3, 1);
        let ind = synthetic(Distribution::Independent, 4000, 3, 1);
        assert!(pearson(&cor, 0, 1) > 0.5, "COR r = {}", pearson(&cor, 0, 1));
        assert!(
            pearson(&anti, 0, 1) < -0.2,
            "ANTI r = {}",
            pearson(&anti, 0, 1)
        );
        assert!(
            pearson(&ind, 0, 1).abs() < 0.1,
            "IND r = {}",
            pearson(&ind, 0, 1)
        );
    }

    #[test]
    fn anti_correlated_has_widest_skyline() {
        // The motivating property for the paper's experiments (Fig 6a).
        use gir_geometry::dominance::skyline_indices;
        let n = 2000;
        let sky_size = |dist| {
            let data = synthetic(dist, n, 3, 9);
            let pts: Vec<_> = data.iter().map(|r| r.attrs.clone()).collect();
            skyline_indices(&pts).len()
        };
        let ind = sky_size(Distribution::Independent);
        let cor = sky_size(Distribution::Correlated);
        let anti = sky_size(Distribution::Anticorrelated);
        assert!(anti > ind, "ANTI {anti} vs IND {ind}");
        assert!(ind > cor, "IND {ind} vs COR {cor}");
    }

    #[test]
    fn labels() {
        assert_eq!(Distribution::Independent.label(), "IND");
        assert_eq!(Distribution::Correlated.label(), "COR");
        assert_eq!(Distribution::Anticorrelated.label(), "ANTI");
    }
}

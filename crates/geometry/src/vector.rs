//! Dense `f64` points/vectors of runtime dimension.
//!
//! The paper targets low-dimensional data (`d` between 2 and 8, Table 2),
//! but `d` is a runtime parameter of every experiment, so points carry their
//! dimension dynamically. A boxed slice keeps the type two words wide.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A point (or direction vector) in `R^d`.
#[derive(Clone, PartialEq)]
pub struct PointD(Box<[f64]>);

impl PointD {
    /// Creates a point from raw coordinates.
    pub fn new(coords: impl Into<Box<[f64]>>) -> Self {
        PointD(coords.into())
    }

    /// The origin of `R^d`.
    pub fn zeros(d: usize) -> Self {
        PointD(vec![0.0; d].into())
    }

    /// A point with every coordinate set to `v`.
    pub fn splat(d: usize, v: f64) -> Self {
        PointD(vec![v; d].into())
    }

    /// The `i`-th standard basis vector of `R^d`.
    pub fn basis(d: usize, i: usize) -> Self {
        let mut v = vec![0.0; d];
        v[i] = 1.0;
        PointD(v.into())
    }

    /// Dimension of the ambient space.
    #[inline]
    pub fn dim(&self) -> usize {
        self.0.len()
    }

    /// Coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.0
    }

    /// Mutable coordinates.
    #[inline]
    pub fn coords_mut(&mut self) -> &mut [f64] {
        &mut self.0
    }

    /// Dot product `self · other`.
    #[inline]
    pub fn dot(&self, other: &PointD) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        self.0.iter().zip(other.0.iter()).map(|(a, b)| a * b).sum()
    }

    /// Dot product against a raw slice.
    #[inline]
    pub fn dot_slice(&self, other: &[f64]) -> f64 {
        debug_assert_eq!(self.dim(), other.len());
        self.0.iter().zip(other.iter()).map(|(a, b)| a * b).sum()
    }

    /// Component-wise difference `self - other`.
    pub fn sub(&self, other: &PointD) -> PointD {
        debug_assert_eq!(self.dim(), other.dim());
        PointD(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }

    /// Component-wise sum `self + other`.
    pub fn add(&self, other: &PointD) -> PointD {
        debug_assert_eq!(self.dim(), other.dim());
        PointD(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }

    /// Scalar multiple `self * s`.
    pub fn scale(&self, s: f64) -> PointD {
        PointD(self.0.iter().map(|a| a * s).collect())
    }

    /// `self + other * s`, fused to avoid an intermediate allocation.
    pub fn add_scaled(&self, other: &PointD, s: f64) -> PointD {
        debug_assert_eq!(self.dim(), other.dim());
        PointD(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| a + b * s)
                .collect(),
        )
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    pub fn dist_sq(&self, other: &PointD) -> f64 {
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Returns a unit-length copy, or `None` if the norm is (near) zero.
    pub fn normalized(&self) -> Option<PointD> {
        let n = self.norm();
        if n < crate::EPS {
            None
        } else {
            Some(self.scale(1.0 / n))
        }
    }

    /// Centroid of a non-empty set of points.
    pub fn centroid<'a>(points: impl IntoIterator<Item = &'a PointD>) -> PointD {
        let mut it = points.into_iter();
        let first = it.next().expect("centroid of empty set");
        let mut acc = first.clone();
        let mut count = 1usize;
        for p in it {
            for (a, b) in acc.0.iter_mut().zip(p.0.iter()) {
                *a += *b;
            }
            count += 1;
        }
        acc.scale(1.0 / count as f64)
    }

    /// The projection of `self` onto coordinate axis `i`: a point that is
    /// zero everywhere except coordinate `i` (paper §6.2 / footnote 6).
    pub fn axis_projection(&self, i: usize) -> PointD {
        let mut v = vec![0.0; self.dim()];
        v[i] = self.0[i];
        PointD(v.into())
    }

    /// True when every coordinate differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &PointD, tol: f64) -> bool {
        self.dim() == other.dim()
            && self
                .0
                .iter()
                .zip(other.0.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Index<usize> for PointD {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for PointD {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

impl fmt::Debug for PointD {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<f64>> for PointD {
    fn from(v: Vec<f64>) -> Self {
        PointD(v.into())
    }
}

impl From<&[f64]> for PointD {
    fn from(v: &[f64]) -> Self {
        PointD(v.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let a = PointD::new(vec![3.0, 4.0]);
        let b = PointD::new(vec![1.0, 0.0]);
        assert_eq!(a.dot(&b), 3.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn sub_add_scale() {
        let a = PointD::new(vec![1.0, 2.0, 3.0]);
        let b = PointD::new(vec![0.5, 0.5, 0.5]);
        assert_eq!(a.sub(&b).coords(), &[0.5, 1.5, 2.5]);
        assert_eq!(a.add(&b).coords(), &[1.5, 2.5, 3.5]);
        assert_eq!(a.scale(2.0).coords(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scaled(&b, 2.0).coords(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn normalized_unit_length() {
        let a = PointD::new(vec![2.0, 0.0, 0.0]);
        let n = a.normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
        assert!(PointD::zeros(3).normalized().is_none());
    }

    #[test]
    fn centroid_of_triangle() {
        let pts = [
            PointD::new(vec![0.0, 0.0]),
            PointD::new(vec![3.0, 0.0]),
            PointD::new(vec![0.0, 3.0]),
        ];
        let c = PointD::centroid(pts.iter());
        assert!(c.approx_eq(&PointD::new(vec![1.0, 1.0]), 1e-12));
    }

    #[test]
    fn axis_projection_zeroes_other_dims() {
        let p = PointD::new(vec![0.3, 0.7, 0.9]);
        let pr = p.axis_projection(1);
        assert_eq!(pr.coords(), &[0.0, 0.7, 0.0]);
    }

    #[test]
    fn basis_vectors() {
        let e1 = PointD::basis(3, 1);
        assert_eq!(e1.coords(), &[0.0, 1.0, 0.0]);
        assert_eq!(e1.dim(), 3);
    }

    #[test]
    fn dist_sq_matches_norm_of_difference() {
        let a = PointD::new(vec![1.0, 2.0]);
        let b = PointD::new(vec![4.0, 6.0]);
        assert_eq!(a.dist_sq(&b), 25.0);
    }
}

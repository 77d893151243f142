//! Minimum bounding boxes and the R\* split cost metrics.

use gir_geometry::vector::PointD;

/// An axis-aligned minimum bounding box in `[0,1]^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mbb {
    /// Lower corner.
    pub lo: PointD,
    /// Upper corner.
    pub hi: PointD,
}

impl Mbb {
    /// Degenerate box around a single point.
    pub fn point(p: &PointD) -> Mbb {
        Mbb {
            lo: p.clone(),
            hi: p.clone(),
        }
    }

    /// The empty box (inverted bounds); union with anything yields the
    /// other operand.
    pub fn empty(d: usize) -> Mbb {
        Mbb {
            lo: PointD::splat(d, f64::INFINITY),
            hi: PointD::splat(d, f64::NEG_INFINITY),
        }
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.lo.dim()
    }

    /// True when no point has been added yet.
    pub fn is_empty(&self) -> bool {
        (0..self.dim()).any(|i| self.lo[i] > self.hi[i])
    }

    /// Expands in place to cover `p`.
    pub fn expand_point(&mut self, p: &PointD) {
        for i in 0..self.dim() {
            self.lo[i] = self.lo[i].min(p[i]);
            self.hi[i] = self.hi[i].max(p[i]);
        }
    }

    /// Expands in place to cover `other`.
    pub fn expand_mbb(&mut self, other: &Mbb) {
        for i in 0..self.dim() {
            self.lo[i] = self.lo[i].min(other.lo[i]);
            self.hi[i] = self.hi[i].max(other.hi[i]);
        }
    }

    /// Union of two boxes.
    pub fn union(&self, other: &Mbb) -> Mbb {
        let mut m = self.clone();
        m.expand_mbb(other);
        m
    }

    /// Box volume (area in 2-d).
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..self.dim()).map(|i| self.hi[i] - self.lo[i]).product()
    }

    /// Margin: sum of side lengths (the R\* split axis metric).
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..self.dim()).map(|i| self.hi[i] - self.lo[i]).sum()
    }

    /// Volume of the intersection with `other` (R\* overlap metric).
    pub fn overlap(&self, other: &Mbb) -> f64 {
        let mut v = 1.0;
        for i in 0..self.dim() {
            let lo = self.lo[i].max(other.lo[i]);
            let hi = self.hi[i].min(other.hi[i]);
            if hi <= lo {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// Area increase required to also cover `other`.
    pub fn enlargement(&self, other: &Mbb) -> f64 {
        self.union(other).area() - self.area()
    }

    /// True when `p` lies inside (closed) bounds.
    pub fn contains_point(&self, p: &PointD) -> bool {
        (0..self.dim()).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// True when `other` lies fully inside `self`.
    pub fn contains_mbb(&self, other: &Mbb) -> bool {
        (0..self.dim()).all(|i| self.lo[i] <= other.lo[i] && other.hi[i] <= self.hi[i])
    }

    /// True when the boxes intersect (closed).
    pub fn intersects(&self, other: &Mbb) -> bool {
        (0..self.dim()).all(|i| self.lo[i] <= other.hi[i] && other.lo[i] <= self.hi[i])
    }

    /// Center point.
    pub fn center(&self) -> PointD {
        let d = self.dim();
        PointD::from(
            (0..d)
                .map(|i| (self.lo[i] + self.hi[i]) / 2.0)
                .collect::<Vec<_>>(),
        )
    }

    /// The corner with all-maximal coordinates: under a monotone
    /// increasing scoring function this corner attains the node's
    /// *maxscore*, the BRS upper bound (paper §2).
    pub fn top_corner(&self) -> &PointD {
        &self.hi
    }

    /// Bounding box of a set of points.
    pub fn of_points<'a>(points: impl IntoIterator<Item = &'a PointD>, d: usize) -> Mbb {
        let mut m = Mbb::empty(d);
        for p in points {
            m.expand_point(p);
        }
        m
    }

    /// Bounding box of a set of boxes.
    pub fn of_mbbs<'a>(mbbs: impl IntoIterator<Item = &'a Mbb>, d: usize) -> Mbb {
        let mut m = Mbb::empty(d);
        for b in mbbs {
            m.expand_mbb(b);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbb(lo: &[f64], hi: &[f64]) -> Mbb {
        Mbb {
            lo: PointD::from(lo),
            hi: PointD::from(hi),
        }
    }

    #[test]
    fn area_margin() {
        let m = mbb(&[0.0, 0.0], &[0.5, 0.25]);
        assert!((m.area() - 0.125).abs() < 1e-12);
        assert!((m.margin() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn union_and_enlargement() {
        let a = mbb(&[0.0, 0.0], &[0.5, 0.5]);
        let b = mbb(&[0.6, 0.6], &[0.7, 0.7]);
        let u = a.union(&b);
        assert_eq!(u, mbb(&[0.0, 0.0], &[0.7, 0.7]));
        assert!((a.enlargement(&b) - (0.49 - 0.25)).abs() < 1e-12);
        assert_eq!(a.enlargement(&mbb(&[0.1, 0.1], &[0.2, 0.2])), 0.0);
    }

    #[test]
    fn overlap_metric() {
        let a = mbb(&[0.0, 0.0], &[0.5, 0.5]);
        let b = mbb(&[0.25, 0.25], &[0.75, 0.75]);
        assert!((a.overlap(&b) - 0.0625).abs() < 1e-12);
        let c = mbb(&[0.6, 0.6], &[0.7, 0.7]);
        assert_eq!(a.overlap(&c), 0.0);
    }

    #[test]
    fn containment_and_intersection() {
        let a = mbb(&[0.0, 0.0], &[1.0, 1.0]);
        let b = mbb(&[0.2, 0.2], &[0.4, 0.4]);
        assert!(a.contains_mbb(&b));
        assert!(!b.contains_mbb(&a));
        assert!(a.intersects(&b));
        assert!(a.contains_point(&PointD::new(vec![1.0, 1.0])));
        assert!(!a.contains_point(&PointD::new(vec![1.0, 1.1])));
    }

    #[test]
    fn empty_box_behaviour() {
        let mut e = Mbb::empty(2);
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        e.expand_point(&PointD::new(vec![0.3, 0.4]));
        assert!(!e.is_empty());
        assert_eq!(e, Mbb::point(&PointD::new(vec![0.3, 0.4])));
    }

    #[test]
    fn of_points_covers_all() {
        let pts = [
            PointD::new(vec![0.1, 0.9]),
            PointD::new(vec![0.5, 0.2]),
            PointD::new(vec![0.3, 0.4]),
        ];
        let m = Mbb::of_points(pts.iter(), 2);
        assert_eq!(m, mbb(&[0.1, 0.2], &[0.5, 0.9]));
        for p in &pts {
            assert!(m.contains_point(p));
        }
    }

    #[test]
    fn top_corner_is_hi() {
        let m = mbb(&[0.1, 0.2], &[0.5, 0.9]);
        assert_eq!(m.top_corner().coords(), &[0.5, 0.9]);
    }
}

//! Data records.

use gir_geometry::vector::PointD;

/// A dataset record: an identifier plus `d` numeric attributes in `[0,1]`
/// (paper §3.1 assumes normalized data and query spaces).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Stable record identifier.
    pub id: u64,
    /// Attribute vector `x_1..x_d`.
    pub attrs: PointD,
}

impl Record {
    /// Creates a record.
    pub fn new(id: u64, attrs: impl Into<PointD>) -> Self {
        Record {
            id,
            attrs: attrs.into(),
        }
    }

    /// Attribute dimensionality.
    pub fn dim(&self) -> usize {
        self.attrs.dim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let r = Record::new(7, vec![0.1, 0.9]);
        assert_eq!(r.id, 7);
        assert_eq!(r.dim(), 2);
        assert_eq!(r.attrs[1], 0.9);
    }
}

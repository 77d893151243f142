//! Small dense linear algebra: Gaussian elimination for `d ≤ 8` systems.
//!
//! The hull and half-space code only ever solves systems whose size is the
//! data dimensionality, so simple partial-pivoting elimination on a
//! row-major matrix is both adequate and easy to audit. The hot one,
//! [`null_space_1`], runs on a flat caller-owned buffer and allocates
//! nothing.

use crate::EPS;

/// Solves `A x = b` for square `A` (row-major). Returns `None` when `A` is
/// singular to within [`EPS`].
pub fn solve(a: &[Vec<f64>], b: &[f64]) -> Option<Vec<f64>> {
    let n = a.len();
    debug_assert!(a.iter().all(|row| row.len() == n) && b.len() == n);
    // Augmented matrix.
    let mut m: Vec<Vec<f64>> = a
        .iter()
        .zip(b.iter())
        .map(|(row, &rhs)| {
            let mut r = row.clone();
            r.push(rhs);
            r
        })
        .collect();

    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .expect("non-NaN pivots")
        })?;
        if m[pivot][col].abs() < EPS {
            return None;
        }
        m.swap(col, pivot);
        let inv = 1.0 / m[col][col];
        for row in 0..n {
            if row != col && m[row][col] != 0.0 {
                let f = m[row][col] * inv;
                // Indexing two rows of `m` at once: an iterator over one
                // row would alias the other borrow.
                #[allow(clippy::needless_range_loop)]
                for k in col..=n {
                    let v = m[col][k];
                    m[row][k] -= f * v;
                }
            }
        }
    }
    Some((0..n).map(|i| m[i][n] / m[i][i]).collect())
}

/// Writes one unit vector spanning the null space of an `(n-1) × n`
/// matrix of full row rank into `x` (`n = x.len()`), returning `false`
/// when the rows are linearly dependent (rank-deficient input).
///
/// `m` holds the matrix row-major and flat (`(n-1)·n` entries) and is
/// overwritten by the elimination; `pivot_col` is caller scratch of at
/// least `n-1` entries. Nothing is allocated, so a caller that keeps
/// both buffers solves any number of systems allocation-free.
///
/// This is the hyperplane-normal computation: the normal of the
/// hyperplane through `d` points is the null space of the `(d-1) × d`
/// edge matrix (see [`crate::hyperplane::plane_through`]).
pub fn null_space_1(m: &mut [f64], pivot_col: &mut [usize], x: &mut [f64]) -> bool {
    let n = x.len();
    let r = n.saturating_sub(1);
    debug_assert!(m.len() == r * n, "expected (n-1) x n matrix");
    // `pivot_col[..row]` are the columns earlier steps pivoted on; the
    // leftover column is the free variable.
    for row in 0..r {
        // Find the largest available pivot in this row among unused
        // columns (the last one on ties).
        let col = (0..n)
            .filter(|c| !pivot_col[..row].contains(c))
            .max_by(|&i, &j| {
                m[row * n + i]
                    .abs()
                    .partial_cmp(&m[row * n + j].abs())
                    .expect("non-NaN")
            })
            .expect("column available");
        if m[row * n + col].abs() < EPS {
            return false; // rank deficient
        }
        pivot_col[row] = col;
        let inv = 1.0 / m[row * n + col];
        for other in 0..r {
            if other != row && m[other * n + col] != 0.0 {
                let f = m[other * n + col] * inv;
                for k in 0..n {
                    let v = m[row * n + k];
                    m[other * n + k] -= f * v;
                }
            }
        }
    }
    let free = (0..n)
        .find(|c| !pivot_col[..r].contains(c))
        .expect("one free column");
    // Back-substitute with the free variable set to 1.
    x.fill(0.0);
    x[free] = 1.0;
    for (row, &c) in pivot_col[..r].iter().enumerate() {
        x[c] = -m[row * n + free] / m[row * n + c];
    }
    // Normalize.
    let norm: f64 = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm < EPS {
        return false;
    }
    for v in x.iter_mut() {
        *v /= norm;
    }
    true
}

/// Determinant of a small square row-major matrix (used for simplex volumes).
pub fn determinant(a: &[Vec<f64>]) -> f64 {
    let n = a.len();
    let mut m = a.to_vec();
    let mut det = 1.0;
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| {
                m[i][col]
                    .abs()
                    .partial_cmp(&m[j][col].abs())
                    .expect("non-NaN")
            })
            .expect("non-empty");
        if m[pivot][col].abs() < 1e-300 {
            return 0.0;
        }
        if pivot != col {
            m.swap(col, pivot);
            det = -det;
        }
        det *= m[col][col];
        let inv = 1.0 / m[col][col];
        for row in col + 1..n {
            let f = m[row][col] * inv;
            if f != 0.0 {
                // Indexing two rows of `m` at once: an iterator over one
                // row would alias the other borrow.
                #[allow(clippy::needless_range_loop)]
                for k in col..n {
                    let v = m[col][k];
                    m[row][k] -= f * v;
                }
            }
        }
    }
    det
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_2x2() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn null_space_of_plane_edges() {
        // Edges of the plane x + y + z = 1 through (1,0,0),(0,1,0),(0,0,1).
        let mut rows = [-1.0, 1.0, 0.0, -1.0, 0.0, 1.0];
        let mut n = [0.0; 3];
        assert!(null_space_1(&mut rows, &mut [0; 2], &mut n));
        // Normal must be parallel to (1,1,1)/sqrt(3).
        let s = 1.0 / 3f64.sqrt();
        let same = (n[0] - s).abs() < 1e-9 && (n[1] - s).abs() < 1e-9 && (n[2] - s).abs() < 1e-9;
        let flipped = (n[0] + s).abs() < 1e-9 && (n[1] + s).abs() < 1e-9 && (n[2] + s).abs() < 1e-9;
        assert!(same || flipped, "got {n:?}");
    }

    #[test]
    fn null_space_rank_deficient_is_none() {
        let mut rows = [1.0, 0.0, 0.0, 2.0, 0.0, 0.0];
        assert!(!null_space_1(&mut rows, &mut [0; 2], &mut [0.0; 3]));
    }

    #[test]
    fn null_space_2d_segment() {
        // A single edge (1,1): normal is (1,-1)/sqrt(2) up to sign.
        let mut n = [0.0; 2];
        assert!(null_space_1(&mut [1.0, 1.0], &mut [0; 1], &mut n));
        assert!((n[0] + n[1]).abs() < 1e-9);
        assert!((n[0].abs() - 1.0 / 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn determinant_known_values() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert!((determinant(&a) + 2.0).abs() < 1e-12);
        let id3 = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        assert!((determinant(&id3) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_swaps_sign() {
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!((determinant(&a) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_4x4_roundtrip() {
        let a = vec![
            vec![4.0, 1.0, 0.0, 0.5],
            vec![1.0, 3.0, 1.0, 0.0],
            vec![0.0, 1.0, 5.0, 1.0],
            vec![0.5, 0.0, 1.0, 2.0],
        ];
        let x_true = [1.0, -2.0, 0.5, 3.0];
        let b: Vec<f64> = a
            .iter()
            .map(|row| row.iter().zip(x_true.iter()).map(|(r, x)| r * x).sum())
            .collect();
        let x = solve(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }
}

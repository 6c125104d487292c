//! Small dense matrix utilities.
//!
//! The analytical approximations of Section V only ever manipulate 2×2 and 3×3
//! row-stochastic (sub-)matrices, so this module provides small, allocation-free
//! fixed-size matrices rather than pulling in a linear-algebra dependency.

use serde::{Deserialize, Serialize};

/// Numerical tolerance used when validating stochastic matrices.
pub const STOCHASTIC_TOL: f64 = 1e-9;

/// A dense 2×2 matrix of `f64`, stored row-major.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Matrix2 {
    /// Row-major entries: `m[i][j]` is row `i`, column `j`.
    pub m: [[f64; 2]; 2],
}

impl Matrix2 {
    /// Construct a matrix from row-major entries.
    pub fn new(m: [[f64; 2]; 2]) -> Self {
        Matrix2 { m }
    }

    /// The 2×2 identity matrix.
    pub fn identity() -> Self {
        Matrix2::new([[1.0, 0.0], [0.0, 1.0]])
    }

    /// Matrix product `self * rhs`.
    pub fn mul(&self, rhs: &Matrix2) -> Matrix2 {
        let mut out = [[0.0; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for k in 0..2 {
                    acc += self.m[i][k] * rhs.m[k][j];
                }
                *cell = acc;
            }
        }
        Matrix2::new(out)
    }

    /// Matrix power `self^t` by repeated squaring (`self^0` is the identity).
    pub fn pow(&self, mut t: u64) -> Matrix2 {
        let mut base = *self;
        let mut acc = Matrix2::identity();
        while t > 0 {
            if t & 1 == 1 {
                acc = acc.mul(&base);
            }
            base = base.mul(&base);
            t >>= 1;
        }
        acc
    }

    /// Trace of the matrix.
    pub fn trace(&self) -> f64 {
        self.m[0][0] + self.m[1][1]
    }

    /// Determinant of the matrix.
    pub fn det(&self) -> f64 {
        self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0]
    }

    /// Real eigenvalues `(λ₁, λ₂)` with `λ₁ ≥ λ₂`, if they are real.
    ///
    /// For the sub-stochastic matrices with non-negative entries used in this
    /// crate the discriminant is always non-negative (the eigenvalues of a 2×2
    /// non-negative matrix are real), so this returns `Some` in practice; a
    /// defensive `None` is returned if rounding makes the discriminant negative
    /// beyond tolerance.
    pub fn eigenvalues(&self) -> Option<(f64, f64)> {
        let tr = self.trace();
        let det = self.det();
        let mut disc = tr * tr - 4.0 * det;
        if disc < 0.0 {
            if disc > -1e-12 {
                disc = 0.0;
            } else {
                return None;
            }
        }
        let sq = disc.sqrt();
        let l1 = 0.5 * (tr + sq);
        let l2 = 0.5 * (tr - sq);
        Some((l1, l2))
    }
}

/// A dense 3×3 matrix of `f64`, stored row-major.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Matrix3 {
    /// Row-major entries: `m[i][j]` is row `i`, column `j`.
    pub m: [[f64; 3]; 3],
}

impl Matrix3 {
    /// Construct a matrix from row-major entries.
    pub fn new(m: [[f64; 3]; 3]) -> Self {
        Matrix3 { m }
    }

    /// `true` if every row sums to 1 (within [`STOCHASTIC_TOL`]) and every
    /// entry lies in `[0, 1]`.
    pub fn is_row_stochastic(&self) -> bool {
        self.m.iter().all(|row| {
            row.iter().all(|&x| (-STOCHASTIC_TOL..=1.0 + STOCHASTIC_TOL).contains(&x))
                && (row.iter().sum::<f64>() - 1.0).abs() <= STOCHASTIC_TOL
        })
    }

    /// Extract the 2×2 sub-matrix obtained by deleting row `r` and column `c`.
    pub fn minor(&self, r: usize, c: usize) -> Matrix2 {
        let rows: Vec<usize> = (0..3).filter(|&i| i != r).collect();
        let cols: Vec<usize> = (0..3).filter(|&j| j != c).collect();
        Matrix2::new([
            [self.m[rows[0]][cols[0]], self.m[rows[0]][cols[1]]],
            [self.m[rows[1]][cols[0]], self.m[rows[1]][cols[1]]],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn matrix2_identity_and_mul() {
        let a = Matrix2::new([[1.0, 2.0], [3.0, 4.0]]);
        let i = Matrix2::identity();
        assert_eq!(a.mul(&i), a);
        assert_eq!(i.mul(&a), a);
        let b = Matrix2::new([[0.0, 1.0], [1.0, 0.0]]);
        let ab = a.mul(&b);
        assert!(approx(ab.m[0][0], 2.0));
        assert!(approx(ab.m[0][1], 1.0));
        assert!(approx(ab.m[1][0], 4.0));
        assert!(approx(ab.m[1][1], 3.0));
    }

    #[test]
    fn matrix2_pow() {
        let a = Matrix2::new([[1.0, 1.0], [0.0, 1.0]]);
        let p = a.pow(5);
        assert!(approx(p.m[0][1], 5.0));
        assert_eq!(a.pow(0), Matrix2::identity());
        // power by squaring agrees with naive repeated multiplication
        let m = Matrix2::new([[0.9, 0.05], [0.03, 0.95]]);
        let mut naive = Matrix2::identity();
        for _ in 0..13 {
            naive = naive.mul(&m);
        }
        let fast = m.pow(13);
        for i in 0..2 {
            for j in 0..2 {
                assert!(approx(naive.m[i][j], fast.m[i][j]));
            }
        }
    }

    #[test]
    fn matrix2_eigenvalues() {
        // diag(0.9, 0.5)
        let a = Matrix2::new([[0.9, 0.0], [0.0, 0.5]]);
        let (l1, l2) = a.eigenvalues().unwrap();
        assert!(approx(l1, 0.9));
        assert!(approx(l2, 0.5));
        // symmetric case
        let b = Matrix2::new([[2.0, 1.0], [1.0, 2.0]]);
        let (l1, l2) = b.eigenvalues().unwrap();
        assert!(approx(l1, 3.0));
        assert!(approx(l2, 1.0));
        // rotation matrix has complex eigenvalues -> None
        let r = Matrix2::new([[0.0, -1.0], [1.0, 0.0]]);
        assert!(r.eigenvalues().is_none());
    }

    #[test]
    fn matrix3_minor() {
        let a = Matrix3::new([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        // Delete the Down row/column (index 2): the UP/RECLAIMED sub-matrix.
        let m = a.minor(2, 2);
        assert_eq!(m, Matrix2::new([[1.0, 2.0], [4.0, 5.0]]));
        let m = a.minor(0, 1);
        assert_eq!(m, Matrix2::new([[4.0, 6.0], [7.0, 9.0]]));
    }

    #[test]
    fn non_stochastic_detected() {
        let stochastic = Matrix3::new([[0.9, 0.05, 0.05], [0.5, 0.4, 0.1], [0.3, 0.3, 0.4]]);
        assert!(stochastic.is_row_stochastic());
        let a = Matrix3::new([[0.9, 0.05, 0.01], [0.5, 0.4, 0.1], [0.3, 0.3, 0.4]]);
        assert!(!a.is_row_stochastic());
        let b = Matrix3::new([[1.1, -0.1, 0.0], [0.5, 0.4, 0.1], [0.3, 0.3, 0.4]]);
        assert!(!b.is_row_stochastic());
    }
}

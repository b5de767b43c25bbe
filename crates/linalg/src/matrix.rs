use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::{LinalgError, LuDecomposition, Vector};

/// A dense, row-major matrix of `f64` values.
///
/// # Example
///
/// ```
/// use pathway_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), pathway_linalg::LinalgError> {
/// let m = Matrix::identity(3);
/// let v = Vector::from(vec![1.0, 2.0, 3.0]);
/// assert_eq!(m.mat_vec(&v)?, v);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] if there are no rows or no columns, and
    /// [`LinalgError::RaggedRows`] if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> crate::Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::RaggedRows { row: i });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> crate::Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{} elements", rows * cols),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer. This is what lets
    /// hot callers (the LU refactorization path, the Newton workspace)
    /// rewrite a matrix in place instead of allocating a fresh one.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Overwrites this matrix with the contents of `other`, reusing the
    /// existing buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, other: &Matrix) -> crate::Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{}x{}", self.rows, self.cols),
                found: format!("{}x{}", other.rows, other.cols),
            });
        }
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// Borrow of a single row as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f64] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable borrow of a single row as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != self.cols()`.
    pub fn mat_vec(&self, v: &Vector) -> crate::Result<Vector> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("len {}", self.cols),
                found: format!("len {}", v.len()),
            });
        }
        let mut out = Vector::zeros(self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += a * b;
            }
            out[r] = acc;
        }
        Ok(out)
    }

    /// Matrix-matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the inner dimensions differ.
    pub fn mat_mul(&self, other: &Matrix) -> crate::Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{} rows", self.cols),
                found: format!("{} rows", other.rows),
            });
        }
        // Row-slice inner loops (instead of per-element `Index` calls) keep
        // the accumulation order identical while letting the compiler
        // autovectorize the fused multiply-adds.
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            let a_row = self.row(r);
            let out_row = out.row_mut(r);
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                for (acc, &b) in out_row.iter_mut().zip(b_row) {
                    *acc += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Scales every element by `factor`, in place.
    fn scale_mut(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Frobenius norm (square root of the sum of squared elements).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::SingularMatrix`] if the matrix is singular and
    /// [`LinalgError::DimensionMismatch`] if it is not square.
    pub fn lu(&self) -> crate::Result<LuDecomposition> {
        LuDecomposition::new(self)
    }

    /// Convenience: solves `A x = b` through the LU factorization.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Matrix::lu`] and from the triangular solve.
    pub fn solve(&self, b: &Vector) -> crate::Result<Vector> {
        self.lu()?.solve(b)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_mut(rhs);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn identity_times_vector_is_vector() {
        let m = Matrix::identity(4);
        let v = Vector::from(vec![1.0, -2.0, 3.0, 0.5]);
        assert_eq!(m.mat_vec(&v).unwrap(), v);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::RaggedRows { row: 1 }));
        assert!(matches!(Matrix::from_rows(&[]), Err(LinalgError::Empty)));
    }

    #[test]
    fn from_flat_checks_length() {
        assert!(Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn transpose_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn mat_mul_matches_hand_computation() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.mat_mul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn mat_mul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.mat_mul(&b).is_err());
    }

    #[test]
    fn column_and_row_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!([m[(0, 0)], m[(1, 0)]], [1.0, 3.0]);
    }

    #[test]
    fn solve_small_system() {
        let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let b = Vector::from(vec![1.0, 2.0]);
        let x = a.solve(&b).unwrap();
        let residual = &a.mat_vec(&x).unwrap() - &b;
        assert!(residual.norm2() < 1e-12);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!(approx_eq(Matrix::identity(9).frobenius_norm(), 3.0, 1e-12));
    }

    #[test]
    fn elementwise_add_sub() {
        let a = Matrix::identity(2);
        let b = &a * 2.0;
        let c = &b - &a;
        assert_eq!(c, a);
        let d = &a + &a;
        assert_eq!(d, b);
    }

    #[test]
    fn display_contains_all_entries() {
        let m = Matrix::from_rows(&[vec![1.5, 2.5]]).unwrap();
        let s = format!("{m}");
        assert!(s.contains("1.5"));
        assert!(s.contains("2.5"));
    }

    proptest! {
        #[test]
        fn prop_transpose_involution(
            rows in 1usize..6,
            cols in 1usize..6,
            seed in 0u64..1000,
        ) {
            let data: Vec<f64> = (0..rows * cols)
                .map(|i| ((i as u64 * 2654435761 + seed) % 1000) as f64 / 100.0 - 5.0)
                .collect();
            let m = Matrix::from_flat(rows, cols, data).unwrap();
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn prop_identity_is_matmul_neutral(n in 1usize..6, seed in 0u64..1000) {
            let data: Vec<f64> = (0..n * n)
                .map(|i| ((i as u64 * 97 + seed * 13) % 2000) as f64 / 100.0 - 10.0)
                .collect();
            let m = Matrix::from_flat(n, n, data).unwrap();
            let i = Matrix::identity(n);
            prop_assert_eq!(m.mat_mul(&i).unwrap(), m.clone());
            prop_assert_eq!(i.mat_mul(&m).unwrap(), m);
        }

        #[test]
        fn prop_matvec_linear(n in 1usize..6, k in -5.0_f64..5.0, seed in 0u64..1000) {
            let data: Vec<f64> = (0..n * n)
                .map(|i| ((i as u64 * 31 + seed * 7) % 500) as f64 / 50.0 - 5.0)
                .collect();
            let m = Matrix::from_flat(n, n, data).unwrap();
            let v: Vector = (0..n).map(|i| i as f64 + 1.0).collect();
            let lhs = m.mat_vec(&v.scaled(k)).unwrap();
            let rhs = m.mat_vec(&v).unwrap().scaled(k);
            for i in 0..n {
                prop_assert!((lhs[i] - rhs[i]).abs() < 1e-9 * (1.0 + rhs[i].abs()));
            }
        }
    }
}

use crate::{LinalgError, Matrix, Vector};

/// LU factorization with partial (row) pivoting: `P A = L U`.
///
/// The factorization is stored compactly: the strictly lower triangle of
/// `lu` holds the multipliers of `L` (whose diagonal is implicitly 1) and the
/// upper triangle holds `U`.
///
/// # Example
///
/// ```
/// use pathway_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), pathway_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]])?;
/// let lu = a.lu()?;
/// let x = lu.solve(&Vector::from(vec![3.0, 5.0]))?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    lu: Matrix,
    /// Row permutation: row `i` of the factored matrix came from row `perm[i]`
    /// of the original.
    perm: Vec<usize>,
}

impl LuDecomposition {
    /// Pivot magnitudes below this threshold are treated as singular.
    const SINGULARITY_TOL: f64 = 1e-13;

    /// Factors the square matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a` is not square.
    /// * [`LinalgError::SingularMatrix`] if a pivot is (numerically) zero.
    pub fn new(a: &Matrix) -> crate::Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{0}x{0}", a.rows()),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        factor_in_place(&mut lu, &mut perm)?;
        Ok(LuDecomposition { lu, perm })
    }

    /// Re-factors `a` into this decomposition's storage without allocating:
    /// the same full partial-pivoting factorization as
    /// [`LuDecomposition::new`], reusing the `lu` buffer and permutation
    /// vector. This is the hot-loop entry point for callers that solve a
    /// sequence of same-shaped systems (one Newton iteration after another,
    /// one batch member after another).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a`'s shape differs from
    ///   [`LuDecomposition::dim`].
    /// * [`LinalgError::SingularMatrix`] if a pivot is (numerically) zero —
    ///   the decomposition is then partially overwritten and must not be
    ///   used for solves until a later `refactor` succeeds.
    pub fn refactor(&mut self, a: &Matrix) -> crate::Result<()> {
        self.lu.copy_from(a)?;
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        factor_in_place(&mut self.lu, &mut self.perm)
    }

    /// Re-factors `a` reusing the *stored pivot sequence*: rows are loaded
    /// already permuted and eliminated straight down, skipping the pivot
    /// search and row swaps entirely. For slowly changing matrices — the
    /// Newton matrices of consecutive iterations within one implicit ODE
    /// step, or the per-batch FBA systems sharing one sparsity structure —
    /// the previous pivot order stays numerically valid, and this path
    /// reuses it the way a sparse solver reuses its symbolic factorization.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] if `a`'s shape differs from
    ///   [`LuDecomposition::dim`].
    /// * [`LinalgError::SingularMatrix`] if a reused pivot falls under the
    ///   singularity tolerance — the matrix has drifted too far for the old
    ///   pivot order, and the caller should fall back to
    ///   [`LuDecomposition::refactor`]. The decomposition is then partially
    ///   overwritten and must not be used for solves until a refactor
    ///   succeeds.
    pub fn refactor_reusing_pivots(&mut self, a: &Matrix) -> crate::Result<()> {
        let n = self.dim();
        if a.rows() != n || a.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{n}x{n}"),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        // Load rows pre-permuted: working row i is row perm[i] of `a`.
        for i in 0..n {
            let src = self.perm[i];
            self.lu.row_mut(i).copy_from_slice(a.row(src));
        }
        let data = self.lu.as_mut_slice();
        for k in 0..n {
            let pivot = data[k * n + k];
            if pivot.abs() < Self::SINGULARITY_TOL {
                return Err(LinalgError::SingularMatrix { pivot: k });
            }
            let (upper, lower) = data.split_at_mut((k + 1) * n);
            let pivot_row = &upper[k * n + k + 1..];
            for row in lower.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                for (dst, &src) in row[k + 1..].iter_mut().zip(pivot_row) {
                    *dst -= factor * src;
                }
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// The unit lower-triangular factor `L` as a dense matrix.
    pub fn l(&self) -> Matrix {
        let n = self.dim();
        let mut l = Matrix::identity(n);
        for r in 1..n {
            for c in 0..r {
                l[(r, c)] = self.lu[(r, c)];
            }
        }
        l
    }

    /// The upper-triangular factor `U` as a dense matrix.
    pub fn u(&self) -> Matrix {
        let n = self.dim();
        let mut u = Matrix::zeros(n, n);
        for r in 0..n {
            for c in r..n {
                u[(r, c)] = self.lu[(r, c)];
            }
        }
        u
    }

    /// The row permutation of `P A = L U`: row `i` of `L U` corresponds to
    /// row `permutation()[i]` of the original matrix.
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &Vector) -> crate::Result<Vector> {
        let mut x = Vector::zeros(self.dim());
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` into a caller-provided buffer, allocating nothing.
    ///
    /// The forward pass writes the intermediate `y` of `L y = P b` into `x`
    /// and the backward pass overwrites it bottom-up (each `x[i]` only reads
    /// already-finalized entries below it), so a single buffer suffices and
    /// the arithmetic — hence the result, bit for bit — is identical to
    /// [`LuDecomposition::solve`]. This is the per-iteration entry point for
    /// the implicit ODE Newton loop and the batch FBA path.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` or `x` is not of
    /// length [`LuDecomposition::dim`].
    pub fn solve_into(&self, b: &Vector, x: &mut Vector) -> crate::Result<()> {
        let n = self.dim();
        if b.len() != n || x.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("len {n}"),
                found: format!("len {} / len {}", b.len(), x.len()),
            });
        }
        // Forward substitution with permuted b (L y = P b), y into x.
        for i in 0..n {
            let row = self.lu.row(i);
            let mut acc = b[self.perm[i]];
            for j in 0..i {
                acc -= row[j] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution (U x = y), in place.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= row[j] * x[j];
            }
            x[i] = acc / row[i];
        }
        Ok(())
    }
}

/// The partial-pivoting elimination shared by [`LuDecomposition::new`] and
/// [`LuDecomposition::refactor`]: factors `lu` in place, recording the row
/// permutation. Row slices (instead of per-element indexing)
/// keep the update loop autovectorizable without changing the accumulation
/// order, so results are bit-identical to the textbook element loop.
fn factor_in_place(lu: &mut Matrix, perm: &mut [usize]) -> crate::Result<()> {
    let n = lu.rows();
    let data = lu.as_mut_slice();
    for k in 0..n {
        // Find the pivot row.
        let mut pivot_row = k;
        let mut pivot_val = data[k * n + k].abs();
        for r in (k + 1)..n {
            let v = data[r * n + k].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < LuDecomposition::SINGULARITY_TOL {
            return Err(LinalgError::SingularMatrix { pivot: k });
        }
        if pivot_row != k {
            for c in 0..n {
                data.swap(k * n + c, pivot_row * n + c);
            }
            perm.swap(k, pivot_row);
        }
        // Eliminate below the pivot.
        let pivot = data[k * n + k];
        let (upper, lower) = data.split_at_mut((k + 1) * n);
        let pivot_tail = &upper[k * n + k + 1..];
        for row in lower.chunks_exact_mut(n) {
            let factor = row[k] / pivot;
            row[k] = factor;
            for (dst, &src) in row[k + 1..].iter_mut().zip(pivot_tail) {
                *dst -= factor * src;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solves_a_well_conditioned_system() {
        let a = Matrix::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![-2.0, 4.0, -2.0],
            vec![1.0, -2.0, 4.0],
        ])
        .unwrap();
        let b = Vector::from(vec![1.0, 2.0, 3.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = &a.mat_vec(&x).unwrap() - &b;
        assert!(r.norm2() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a
            .lu()
            .unwrap()
            .solve(&Vector::from(vec![2.0, 3.0]))
            .unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::SingularMatrix { .. })));
    }

    #[test]
    fn non_square_matrix_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[
            vec![3.0, 0.5, -1.0],
            vec![0.5, 2.0, 0.25],
            vec![-1.0, 0.25, 4.0],
        ])
        .unwrap();
        // The inverse, one solve per column of the identity.
        let lu = a.lu().unwrap();
        let mut inv = Matrix::zeros(3, 3);
        for col in 0..3 {
            let mut e = Vector::zeros(3);
            e[col] = 1.0;
            let x = lu.solve(&e).unwrap();
            for row in 0..3 {
                inv[(row, col)] = x[row];
            }
        }
        let prod = a.mat_mul(&inv).unwrap();
        let diff = &prod - &Matrix::identity(3);
        assert!(diff.frobenius_norm() < 1e-10);
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = Matrix::identity(3);
        let lu = a.lu().unwrap();
        assert!(lu.solve(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn solve_into_round_trips_against_solve_bit_for_bit() {
        let a = Matrix::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![-2.0, 4.0, -2.0],
            vec![1.0, -2.0, 4.0],
        ])
        .unwrap();
        let lu = a.lu().unwrap();
        let mut x = Vector::zeros(3);
        for b in [
            Vector::from(vec![1.0, 2.0, 3.0]),
            Vector::from(vec![-0.5, 1e6, 1e-9]),
            Vector::zeros(3),
        ] {
            let allocated = lu.solve(&b).unwrap();
            lu.solve_into(&b, &mut x).unwrap();
            assert_eq!(x.as_slice(), allocated.as_slice());
        }
        assert!(lu.solve_into(&Vector::zeros(2), &mut x).is_err());
        let mut short = Vector::zeros(2);
        assert!(lu.solve_into(&Vector::zeros(3), &mut short).is_err());
    }

    #[test]
    fn refactor_matches_a_fresh_factorization() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![3.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let mut lu = a.lu().unwrap();
        lu.refactor(&b).unwrap();
        let fresh = b.lu().unwrap();
        assert_eq!(lu.permutation(), fresh.permutation());
        assert_eq!(lu.u(), fresh.u());
        let rhs = Vector::from(vec![5.0, 4.0]);
        assert_eq!(
            lu.solve(&rhs).unwrap().as_slice(),
            fresh.solve(&rhs).unwrap().as_slice()
        );
        // Shape mismatches are rejected before touching the storage.
        assert!(lu.refactor(&Matrix::identity(3)).is_err());
    }

    #[test]
    fn pivot_reuse_solves_a_perturbed_system_accurately() {
        // A needs a row swap (zero leading entry); a small perturbation
        // keeps the same pivot order valid.
        let a = Matrix::from_rows(&[
            vec![0.0, 2.0, 1.0],
            vec![3.0, 1.0, -1.0],
            vec![1.0, -1.0, 2.0],
        ])
        .unwrap();
        let mut perturbed = a.clone();
        for v in perturbed.as_mut_slice() {
            *v += 1e-4;
        }
        let mut lu = a.lu().unwrap();
        lu.refactor_reusing_pivots(&perturbed).unwrap();
        let b = Vector::from(vec![1.0, -2.0, 0.5]);
        let x = lu.solve(&b).unwrap();
        let r = &perturbed.mat_vec(&x).unwrap() - &b;
        assert!(r.norm2() < 1e-10, "residual {}", r.norm2());
        assert!(lu.refactor_reusing_pivots(&Matrix::identity(2)).is_err());
    }

    #[test]
    fn pivot_reuse_reports_singularity_for_incompatible_pivots() {
        // Fresh pivoting on B would swap rows, but A's pivot order leaves a
        // zero on the diagonal — the reuse path must refuse, and a full
        // refactor must recover.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let singular_under_old_order =
            Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let mut lu = a.lu().unwrap();
        assert!(matches!(
            lu.refactor_reusing_pivots(&singular_under_old_order),
            Err(LinalgError::SingularMatrix { .. })
        ));
        lu.refactor(&singular_under_old_order).unwrap();
        let x = lu.solve(&Vector::from(vec![2.0, 3.0])).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    proptest! {
        #[test]
        fn prop_refactor_is_bitwise_equal_to_new(n in 1usize..7, seed in 0u64..200) {
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                let mut row_sum = 0.0;
                for c in 0..n {
                    if r != c {
                        let v = (((r * 13 + c * 29) as u64 + seed * 3) % 17) as f64 / 8.0 - 1.0;
                        a[(r, c)] = v;
                        row_sum += v.abs();
                    }
                }
                a[(r, r)] = row_sum + 1.0 + (seed % 3) as f64;
            }
            let fresh = a.lu().unwrap();
            // Seed the workspace with a *different* factorization, then
            // refactor: storage reuse must not leak into the result.
            let mut ws = Matrix::identity(n).lu().unwrap();
            ws.refactor(&a).unwrap();
            prop_assert_eq!(ws.permutation(), fresh.permutation());
            let b: Vector = (0..n).map(|i| (i as f64) * 0.7 - 1.0).collect();
            let mut x = Vector::zeros(n);
            ws.solve_into(&b, &mut x).unwrap();
            prop_assert_eq!(x.as_slice(), fresh.solve(&b).unwrap().as_slice());
        }

        #[test]
        fn prop_solve_recovers_known_solution(n in 1usize..7, seed in 0u64..500) {
            // Build a diagonally dominant (hence nonsingular) matrix.
            let mut a = Matrix::zeros(n, n);
            for r in 0..n {
                let mut row_sum = 0.0;
                for c in 0..n {
                    if r != c {
                        let v = (((r * 31 + c * 17) as u64 + seed) % 19) as f64 / 10.0 - 0.9;
                        a[(r, c)] = v;
                        row_sum += v.abs();
                    }
                }
                a[(r, r)] = row_sum + 1.0 + (seed % 5) as f64;
            }
            let x_true: Vector = (0..n).map(|i| (i as f64) - 1.5).collect();
            let b = a.mat_vec(&x_true).unwrap();
            let x = a.lu().unwrap().solve(&b).unwrap();
            for i in 0..n {
                prop_assert!((x[i] - x_true[i]).abs() < 1e-8);
            }
        }
    }
}

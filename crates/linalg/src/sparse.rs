use crate::{LinalgError, Matrix, Vector};

/// Candidates per tile of [`CsrMatrix::residual_norms`]. Eight `f64`
/// accumulators fill two AVX registers (four SSE2 ones), and a
/// genome-scale tile (608 × 8 × 8 bytes, ~39 KB) stays cache-resident.
pub const RESIDUAL_TILE: usize = 8;

/// A compressed sparse row (CSR) matrix.
///
/// Stoichiometric matrices of genome-scale metabolic models are very sparse
/// (a reaction touches a handful of metabolites out of hundreds), so the FBA
/// machinery stores them in CSR form and only densifies the small submatrices
/// the simplex solver needs.
///
/// # Example
///
/// ```
/// use pathway_linalg::{CsrMatrix, Vector};
///
/// # fn main() -> Result<(), pathway_linalg::LinalgError> {
/// // [ 1 0 2 ]
/// // [ 0 3 0 ]
/// let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])?;
/// let y = m.mat_vec(&Vector::from(vec![1.0, 1.0, 1.0]))?;
/// assert_eq!(y.as_slice(), &[3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes the entries of row `r`.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate entries for the same `(row, col)` pair are summed. Explicit
    /// zeros are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if any triplet lies outside
    /// the declared shape.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> crate::Result<Self> {
        for &(r, c, _) in triplets {
            if r >= rows {
                return Err(LinalgError::IndexOutOfBounds {
                    index: r,
                    len: rows,
                });
            }
            if c >= cols {
                return Err(LinalgError::IndexOutOfBounds {
                    index: c,
                    len: cols,
                });
            }
        }
        // Accumulate into per-row maps to merge duplicates deterministically.
        let mut per_row: Vec<std::collections::BTreeMap<usize, f64>> =
            vec![std::collections::BTreeMap::new(); rows];
        for &(r, c, v) in triplets {
            *per_row[r].entry(c).or_insert(0.0) += v;
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &per_row {
            for (&c, &v) in row {
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fill fraction: `nnz / (rows * cols)`. Returns `0.0` for an empty shape.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// Value at `(row, col)`, or `0.0` if the entry is not stored.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        for k in start..end {
            if self.col_idx[k] == col {
                return self.values[k];
            }
        }
        0.0
    }

    /// Iterates over the stored entries of one row as `(col, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(row < self.rows, "row out of bounds");
        let start = self.row_ptr[row];
        let end = self.row_ptr[row + 1];
        (start..end).map(move |k| (self.col_idx[k], self.values[k]))
    }

    /// Sparse matrix-vector product.
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
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * v[self.col_idx[k]];
            }
            out[r] = acc;
        }
        Ok(out)
    }

    /// Residual norms `‖self · x_j‖₂` of a tile of [`RESIDUAL_TILE`]
    /// right-hand sides in one pass over the sparse structure, allocating
    /// nothing: the fused, multi-candidate form of
    /// `self.mat_vec(x_j)?.norm2()`.
    ///
    /// `tile` is row-major, one row per column of `self`: `tile[i][j]` is
    /// entry `i` of candidate `j`. Each norm equals
    /// `self.mat_vec(x_j)?.norm2()` **bit for bit**: candidate `j`'s product
    /// entries are summed over the stored entries of each row in `mat_vec`'s
    /// order, and their squares are summed in `Vector::norm2`'s row order.
    /// The candidates of a tile never mix, so the lanes of a partial tile
    /// that the caller ignores may hold anything.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `tile.len() != self.cols()`.
    ///
    /// # Example
    ///
    /// ```
    /// use pathway_linalg::{CsrMatrix, Vector, RESIDUAL_TILE};
    ///
    /// # fn main() -> Result<(), pathway_linalg::LinalgError> {
    /// let s = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])?;
    /// // Candidate 0 is (1, 1, 1); the other lanes are left at zero.
    /// let mut tile = [[0.0; RESIDUAL_TILE]; 3];
    /// for row in &mut tile {
    ///     row[0] = 1.0;
    /// }
    /// let norms = s.residual_norms(&tile)?;
    /// assert_eq!(norms[0], s.mat_vec(&Vector::from(vec![1.0, 1.0, 1.0]))?.norm2());
    /// # Ok(())
    /// # }
    /// ```
    pub fn residual_norms(
        &self,
        tile: &[[f64; RESIDUAL_TILE]],
    ) -> crate::Result<[f64; RESIDUAL_TILE]> {
        if tile.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("{} rows", self.cols),
                found: format!("{} rows", tile.len()),
            });
        }
        let mut sums = [0.0f64; RESIDUAL_TILE];
        for r in 0..self.rows {
            let entries = self.row_ptr[r]..self.row_ptr[r + 1];
            let mut acc = [0.0f64; RESIDUAL_TILE];
            for (&value, &col) in self.values[entries.clone()]
                .iter()
                .zip(&self.col_idx[entries])
            {
                for (a, &x) in acc.iter_mut().zip(&tile[col]) {
                    *a += value * x;
                }
            }
            for (sum, &a) in sums.iter_mut().zip(&acc) {
                *sum += a * a;
            }
        }
        Ok(sums.map(f64::sqrt))
    }

    /// Converts to a dense [`Matrix`]. Intended for small matrices and tests.
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                m[(r, self.col_idx[k])] = self.values[k];
            }
        }
        m
    }
}

impl From<&Matrix> for CsrMatrix {
    fn from(dense: &Matrix) -> Self {
        let mut triplets = Vec::new();
        for r in 0..dense.rows() {
            for c in 0..dense.cols() {
                let v = dense[(r, c)];
                if v != 0.0 {
                    triplets.push((r, c, v));
                }
            }
        }
        CsrMatrix::from_triplets(dense.rows(), dense.cols(), &triplets)
            .expect("triplets derived from a dense matrix are always in bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_triplets_and_get() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 3.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 0, 2.0), (0, 1, 0.0)]).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn out_of_bounds_triplet_is_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn mat_vec_matches_dense() {
        let dense = Matrix::from_rows(&[
            vec![1.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
            vec![-1.0, 4.0, 0.5],
        ])
        .unwrap();
        let sparse = CsrMatrix::from(&dense);
        let v = Vector::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(sparse.mat_vec(&v).unwrap(), dense.mat_vec(&v).unwrap());
    }

    #[test]
    fn mat_vec_dimension_check() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        assert!(m.mat_vec(&Vector::zeros(3)).is_err());
    }

    /// Norms of `candidates` through [`CsrMatrix::residual_norms`], one
    /// tile at a time, with the unused lanes of a partial tile poisoned.
    fn tiled_norms(m: &CsrMatrix, candidates: &[Vec<f64>]) -> Vec<f64> {
        let mut norms = Vec::new();
        for chunk in candidates.chunks(RESIDUAL_TILE) {
            let mut tile = vec![[f64::NAN; RESIDUAL_TILE]; m.cols()];
            for (i, row) in tile.iter_mut().enumerate() {
                for (slot, x) in row.iter_mut().zip(chunk) {
                    *slot = x[i];
                }
            }
            norms.extend_from_slice(&m.residual_norms(&tile).unwrap()[..chunk.len()]);
        }
        norms
    }

    fn assert_norms_match_mat_vec(m: &CsrMatrix, candidates: &[Vec<f64>]) {
        let norms = tiled_norms(m, candidates);
        assert_eq!(norms.len(), candidates.len());
        for (j, (x, norm)) in candidates.iter().zip(norms).enumerate() {
            let expected = m.mat_vec(&Vector::from(x.clone())).unwrap().norm2();
            // Exact equality: the fused kernel adds in mat_vec order and
            // squares in norm2 order.
            assert_eq!(norm.to_bits(), expected.to_bits(), "candidate {j}");
        }
    }

    #[test]
    fn residual_norms_match_mat_vec_bit_for_bit() {
        // An awkward matrix: duplicate-summed entries, empty row, negatives.
        let sparse = CsrMatrix::from_triplets(
            4,
            3,
            &[
                (0, 0, 1.5),
                (0, 2, -2.25),
                (1, 1, 3.0),
                (1, 0, 0.125),
                (0, 0, 0.5),
                (3, 2, 7.5),
                (3, 0, -0.625),
            ],
        )
        .unwrap();
        let candidates = [
            vec![1.0, 2.0, 3.0],
            vec![-0.5, 0.25, 8.0],
            vec![1e-3, -1e3, 0.3],
        ];
        assert_norms_match_mat_vec(&sparse, &candidates);
    }

    #[test]
    fn residual_norms_dimension_check() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            m.residual_norms(&[[0.0; RESIDUAL_TILE]; 3]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert!(m.residual_norms(&[]).is_err());
        assert_eq!(
            m.residual_norms(&[[0.0; RESIDUAL_TILE]; 2]).unwrap(),
            [0.0; RESIDUAL_TILE]
        );
    }

    #[test]
    fn residual_norms_stay_bit_identical_across_tile_boundaries() {
        // Batch widths 1-20: full tiles, partial tiles and both together.
        let sparse = CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 0, 0.3),
                (0, 3, -1.75),
                (1, 2, 11.0),
                (2, 1, 1e-4),
                (2, 2, -3.5),
                (2, 3, 0.875),
            ],
        )
        .unwrap();
        let candidates: Vec<Vec<f64>> = (0..20)
            .map(|j| {
                (0..4)
                    .map(|i| ((i * 131 + j * 37) % 101) as f64 / 9.0 - 5.0)
                    .collect()
            })
            .collect();
        for width in 1..=candidates.len() {
            assert_norms_match_mat_vec(&sparse, &candidates[..width]);
        }
    }

    #[test]
    fn to_dense_round_trip() {
        let dense = Matrix::from_rows(&[vec![0.0, 5.0], vec![7.0, 0.0]]).unwrap();
        let sparse = CsrMatrix::from(&dense);
        assert_eq!(sparse.to_dense(), dense);
    }

    #[test]
    fn density_and_row_entries() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        assert!((m.density() - 0.5).abs() < 1e-15);
        let entries: Vec<_> = m.row_entries(0).collect();
        assert_eq!(entries, vec![(0, 1.0)]);
    }

    proptest! {
        #[test]
        fn prop_sparse_matvec_agrees_with_dense(
            rows in 1usize..8,
            cols in 1usize..8,
            seed in 0u64..200,
        ) {
            let mut dense = Matrix::zeros(rows, cols);
            for r in 0..rows {
                for c in 0..cols {
                    // Roughly 40% fill with deterministic pseudo-random values.
                    let h = (r * 131 + c * 37) as u64 + seed * 101;
                    if h % 5 < 2 {
                        dense[(r, c)] = (h % 100) as f64 / 10.0 - 5.0;
                    }
                }
            }
            let sparse = CsrMatrix::from(&dense);
            let v: Vector = (0..cols).map(|i| i as f64 * 0.5 - 1.0).collect();
            let ds = dense.mat_vec(&v).unwrap();
            let ss = sparse.mat_vec(&v).unwrap();
            for i in 0..rows {
                prop_assert!((ds[i] - ss[i]).abs() < 1e-10);
            }
        }

        #[test]
        fn prop_residual_norms_match_mat_vec_bit_for_bit(
            rows in 1usize..40,
            cols in 1usize..40,
            width in 1usize..21,
            seed in 0u64..1_000,
        ) {
            // A random CSR matrix (~15% fill, some duplicate triplets) and
            // `width` random candidates from one xorshift stream.
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut uniform = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
            let mut triplets = Vec::new();
            for r in 0..rows {
                for c in 0..cols {
                    if uniform() < 0.15 {
                        triplets.push((r, c, 20.0 * uniform() - 10.0));
                        if uniform() < 0.1 {
                            triplets.push((r, c, uniform() - 0.5));
                        }
                    }
                }
            }
            let sparse = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
            let candidates: Vec<Vec<f64>> = (0..width)
                .map(|_| (0..cols).map(|_| 1e3 * (uniform() - 0.5)).collect())
                .collect();
            assert_norms_match_mat_vec(&sparse, &candidates);
        }
    }
}

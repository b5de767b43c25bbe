use pathway_linalg::{Matrix, Vector};

use crate::OdeSystem;

/// Relative perturbation of the dense forward difference.
const JACOBIAN_EPSILON: f64 = 1e-7;

/// Largest multiplier `|l_ik| = |a_ik / a_kk|` the static-pivot LU of
/// [`SparsePlusRankOne::solve`] accepts: threshold pivoting with threshold
/// 0.01, where a pivot may be up to 100 times smaller than its column. A
/// larger multiplier means the diagonal pivot has degraded. (Over the
/// 69,000 steps of 3,000 random designs of the leaf search box, the
/// Calvin-cycle model's largest multiplier under the minimum-fill order is
/// 37, and one factorization has one above 10, at the triose-phosphate
/// pivot. In state-vector order, threshold 0.1 failed the glycerate pivot
/// on about one step in 40, with multipliers of 10–21, late in a solve.)
const MAX_MULTIPLIER: f64 = 100.0;

/// Smallest pivot magnitude the static-pivot LU accepts: the singularity
/// tolerance of the dense [`pathway_linalg::LuDecomposition`].
const MIN_PIVOT: f64 = 1e-13;

/// Smallest Sherman–Morrison denominator `|1 − gᵀz|` accepted, relative to
/// `max(1, |gᵀz|)`. Below it the rank-one correction cancels most of its
/// own digits, and the dense fallback is the accurate path.
const MIN_DENOMINATOR: f64 = 1e-8;

/// The Jacobian of a right-hand side at one state, as a Newton step uses
/// it: filled by [`OdeSystem::jacobian`] in one of two forms.
///
/// * **Dense**: the forward-difference matrix
///   ([`Jacobian::difference_dense`]), one right-hand-side call per column.
///   This is the default of every system and the only form
///   [`crate::BackwardEuler`] uses.
/// * **Sparse plus rank one**: `J = S + u·gᵀ`
///   ([`Jacobian::sparse_plus_rank_one`]), for a system whose right-hand
///   side is sparse except through one scalar coupling. The
///   [`crate::PseudoTransient`] step solves it by Sherman–Morrison.
///
/// The storage of a form is allocated on first use and reused by every
/// later fill, so a Newton loop stays allocation-free.
#[derive(Debug, Clone)]
pub struct Jacobian {
    dim: usize,
    form: Form,
}

#[derive(Debug, Clone)]
enum Form {
    Unset,
    Dense {
        jac: Matrix,
        perturbed: Vector,
        f1: Vector,
    },
    SparsePlusRankOne(Box<SparsePlusRankOne>),
}

impl Jacobian {
    /// An empty Jacobian of a `dim`-dimensional system.
    pub fn new(dim: usize) -> Self {
        Jacobian {
            dim,
            form: Form::Unset,
        }
    }

    /// Fills the dense forward-difference Jacobian of `system` at `(t, y)`,
    /// where the right-hand side is `f`: column `j` is
    /// `(f(y + h_j e_j) − f) / h_j` with `h_j = 1e-7 · (1 + |y_j|)`.
    /// Returns the right-hand-side calls it made, one per column.
    pub fn difference_dense<S: OdeSystem + ?Sized>(
        &mut self,
        system: &S,
        t: f64,
        y: &Vector,
        f: &Vector,
    ) -> usize {
        let dim = self.dim;
        if !matches!(self.form, Form::Dense { .. }) {
            self.form = Form::Dense {
                jac: Matrix::zeros(dim, dim),
                perturbed: Vector::zeros(dim),
                f1: Vector::zeros(dim),
            };
        }
        let Form::Dense { jac, perturbed, f1 } = &mut self.form else {
            unreachable!("the dense form was set above")
        };
        perturbed.as_mut_slice().copy_from_slice(y.as_slice());
        for j in 0..dim {
            let h = JACOBIAN_EPSILON * (1.0 + y[j].abs());
            perturbed[j] = y[j] + h;
            system.rhs(t, perturbed, f1);
            let jac = jac.as_mut_slice();
            for i in 0..dim {
                jac[i * dim + j] = (f1[i] - f[i]) / h;
            }
            perturbed[j] = y[j];
        }
        dim
    }

    /// Switches this Jacobian to the sparse-plus-rank-one form on `pattern`
    /// and returns it for filling. The storage is kept while the pattern
    /// stays the same.
    ///
    /// # Panics
    ///
    /// If the pattern's dimension differs from the system's.
    pub fn sparse_plus_rank_one(
        &mut self,
        pattern: &'static JacobianPattern,
    ) -> &mut SparsePlusRankOne {
        assert_eq!(
            pattern.dim, self.dim,
            "the Jacobian pattern must have the system's dimension"
        );
        let reuse = matches!(
            &self.form,
            Form::SparsePlusRankOne(current) if std::ptr::eq(current.pattern, pattern)
        );
        if !reuse {
            self.form = Form::SparsePlusRankOne(Box::new(SparsePlusRankOne::new(pattern)));
        }
        match &mut self.form {
            Form::SparsePlusRankOne(structured) => structured,
            _ => unreachable!("the structured form was set above"),
        }
    }

    /// Writes `diagonal · I − scale · J` into `out`, whichever form `J`
    /// has: the Newton matrix of a step. `assemble(0.0, -1.0, out)` writes
    /// `J` itself.
    ///
    /// # Panics
    ///
    /// If no form has been filled yet, or `out` is not `dim × dim`.
    pub fn assemble(&self, diagonal: f64, scale: f64, out: &mut Matrix) {
        let dim = self.dim;
        assert!(
            out.rows() == dim && out.cols() == dim,
            "the Newton matrix must be {dim}x{dim}"
        );
        let nm = out.as_mut_slice();
        match &self.form {
            Form::Unset => panic!("assemble called before the Jacobian was filled"),
            Form::Dense { jac, .. } => {
                for (dst, &src) in nm.iter_mut().zip(jac.as_slice()) {
                    *dst = -scale * src;
                }
            }
            Form::SparsePlusRankOne(structured) => {
                let (u, g) = (&structured.u, &structured.g);
                for (row, &ui) in nm.chunks_exact_mut(dim).zip(u.as_slice()) {
                    for (dst, &gj) in row.iter_mut().zip(g.as_slice()) {
                        *dst = -scale * (ui * gj);
                    }
                }
                let pattern = structured.pattern;
                for j in 0..dim {
                    for p in pattern.col_start[j]..pattern.col_start[j + 1] {
                        nm[pattern.rows[p] * dim + j] -= scale * structured.values[p];
                    }
                }
            }
        }
        for i in 0..dim {
            nm[i * dim + i] += diagonal;
        }
    }

    /// The sparse-plus-rank-one form, if that is what was filled last.
    pub fn as_sparse_plus_rank_one_mut(&mut self) -> Option<&mut SparsePlusRankOne> {
        match &mut self.form {
            Form::SparsePlusRankOne(structured) => Some(structured),
            _ => None,
        }
    }
}

/// The structural non-zeros of a Jacobian's sparse part `S`, fixed once per
/// model, together with the **symbolic LU** of `d·I − S` that every Newton
/// step reuses: a pivot order, the fill-in, and the list of updates
/// `a_ij −= l_ik · u_kj` the numeric elimination runs.
///
/// The pivots stay on the diagonal; only their order is chosen, once, by
/// the greedy minimum-fill rule of Markowitz (*The elimination form of the
/// inverse and its application to linear programming*, 1957): among the
/// rows not yet eliminated, pivot next on the one whose off-diagonal row
/// and column counts in the remaining symbolic matrix have the smallest
/// product `r·c`, the lowest index on a tie. A product of 0 eliminates
/// with no fill at all. A row that reads nothing else (an empty
/// off-diagonal row) goes last, so its column never becomes multipliers.
///
/// The diagonal is always part of the pattern.
///
/// # Example
///
/// ```
/// use pathway_ode::JacobianPattern;
///
/// // An arrow: row 0 couples to every column, every column to row 0.
/// let n = 4;
/// let arrow = (1..n).flat_map(|j| [(0, j), (j, 0)]);
/// let pattern = JacobianPattern::new(n, arrow);
/// assert_eq!(pattern.nnz(), 3 * n - 2);
/// // Pivoting on the hub first would fill the whole trailing block. Under
/// // the minimum-fill order the spokes go first and the hub once a single
/// // spoke is left, so nothing fills: each elimination updates one pivot.
/// assert_eq!(pattern.lu_nnz(), pattern.nnz());
/// assert_eq!(pattern.update_flops(), n - 1);
/// ```
#[derive(Debug, Clone)]
pub struct JacobianPattern {
    dim: usize,
    /// Column-major structure: the rows of column `j` are
    /// `rows[col_start[j]..col_start[j + 1]]`, ascending. A value of `S`
    /// lives at the same index of [`SparsePlusRankOne`]'s values.
    col_start: Vec<usize>,
    rows: Vec<usize>,
    /// The pivot order: `order[k]` is the row (and column) of `S`
    /// eliminated `k`-th. The LU works on `S` symmetrically permuted by it.
    order: Vec<usize>,
    /// Dense position (`row · dim + col`, permuted) of each value of `S`.
    scatter: Vec<usize>,
    /// Dense positions of the fill-in: the entries of `L + U` outside the
    /// permuted pattern of `S`.
    fill: Vec<usize>,
    /// One per multiplier `l_ik`, in elimination order; those of pivot `k`
    /// are `eliminations[elimination_start[k]..elimination_start[k + 1]]`.
    eliminations: Vec<Elimination>,
    elimination_start: Vec<usize>,
    /// `(position of a_ij, position of u_kj)` for `a_ij −= l_ik · u_kj`.
    updates: Vec<(usize, usize)>,
    /// Strictly lower entries of `L` by row: `(position, column)`.
    lower_start: Vec<usize>,
    lower: Vec<(usize, usize)>,
    /// Strictly upper entries of `U` by row: `(position, column)`.
    upper_start: Vec<usize>,
    upper: Vec<(usize, usize)>,
}

/// One multiplier of the static-pivot elimination.
#[derive(Debug, Clone, Copy)]
struct Elimination {
    /// Position of `a_ik`, which becomes `l_ik`.
    multiplier: usize,
    /// The range of [`JacobianPattern::updates`] this multiplier drives.
    updates: (usize, usize),
}

/// The minimum-fill pivot order of a `dim × dim` structure: at each step
/// the remaining row `k` with the smallest `r·c` (off-diagonal non-zeros
/// in its remaining row and column), the lowest index on a tie; its
/// elimination couples every remaining row of its column to every
/// remaining column of its row. A row with no off-diagonal non-zero but a
/// non-empty column waits until no other row is left: pivoted early it
/// would update nothing and only turn its column into multipliers, which
/// its pivot can make large.
fn minimum_fill_order(dim: usize, mut nonzero: Vec<bool>) -> Vec<usize> {
    let mut remaining: Vec<usize> = (0..dim).collect();
    let mut order = Vec::with_capacity(dim);
    while !remaining.is_empty() {
        let coupled = |k: usize, nonzero: &[bool]| {
            let others = remaining.iter().filter(move |&&i| i != k);
            let rows: Vec<usize> = others
                .clone()
                .copied()
                .filter(|&i| nonzero[i * dim + k])
                .collect();
            let cols: Vec<usize> = others.copied().filter(|&j| nonzero[k * dim + j]).collect();
            (rows, cols)
        };
        let (at, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &k)| {
                let (rows, cols) = coupled(k, &nonzero);
                let waits = cols.is_empty() && !rows.is_empty();
                (waits, rows.len() * cols.len(), k)
            })
            .expect("a row remains");
        let k = remaining[at];
        let (rows, cols) = coupled(k, &nonzero);
        for &i in &rows {
            for &j in &cols {
                nonzero[i * dim + j] = true;
            }
        }
        remaining.remove(at);
        order.push(k);
    }
    order
}

impl JacobianPattern {
    /// Builds the pattern of a `dim`-dimensional system from its
    /// `(row, column)` non-zeros, with its minimum-fill pivot order and the
    /// symbolic LU under that order. Duplicates are merged and the diagonal
    /// is added.
    ///
    /// # Panics
    ///
    /// If an entry lies outside `dim × dim`.
    pub fn new(dim: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut nonzero = vec![false; dim * dim];
        for i in 0..dim {
            nonzero[i * dim + i] = true;
        }
        for (i, j) in entries {
            assert!(
                i < dim && j < dim,
                "entry ({i}, {j}) outside a {dim}x{dim} pattern"
            );
            nonzero[i * dim + j] = true;
        }

        let mut col_start = vec![0];
        let mut rows = Vec::new();
        for j in 0..dim {
            rows.extend((0..dim).filter(|&i| nonzero[i * dim + j]));
            col_start.push(rows.len());
        }

        let order = minimum_fill_order(dim, nonzero.clone());
        let mut position = vec![0; dim];
        for (k, &i) in order.iter().enumerate() {
            position[i] = k;
        }
        let scatter = (0..dim)
            .flat_map(|j| {
                rows[col_start[j]..col_start[j + 1]]
                    .iter()
                    .map(move |&i| (i, j))
            })
            .map(|(i, j)| position[i] * dim + position[j])
            .collect();
        let mut permuted = vec![false; dim * dim];
        for (i, j) in (0..dim).flat_map(|i| (0..dim).map(move |j| (i, j))) {
            permuted[position[i] * dim + position[j]] = nonzero[i * dim + j];
        }

        let mut filled = permuted.clone();
        let mut eliminations = Vec::new();
        let mut elimination_start = vec![0];
        let mut updates = Vec::new();
        for k in 0..dim {
            for i in k + 1..dim {
                if !filled[i * dim + k] {
                    continue;
                }
                let start = updates.len();
                for j in k + 1..dim {
                    if filled[k * dim + j] {
                        filled[i * dim + j] = true;
                        updates.push((i * dim + j, k * dim + j));
                    }
                }
                eliminations.push(Elimination {
                    multiplier: i * dim + k,
                    updates: (start, updates.len()),
                });
            }
            elimination_start.push(eliminations.len());
        }

        let fill = (0..dim * dim)
            .filter(|&p| filled[p] && !permuted[p])
            .collect();
        let (mut lower_start, mut lower) = (vec![0], Vec::new());
        let (mut upper_start, mut upper) = (vec![0], Vec::new());
        for i in 0..dim {
            for j in 0..dim {
                let p = i * dim + j;
                if filled[p] && j < i {
                    lower.push((p, j));
                } else if filled[p] && j > i {
                    upper.push((p, j));
                }
            }
            lower_start.push(lower.len());
            upper_start.push(upper.len());
        }

        JacobianPattern {
            dim,
            col_start,
            rows,
            order,
            scatter,
            fill,
            eliminations,
            elimination_start,
            updates,
            lower_start,
            lower,
            upper_start,
            upper,
        }
    }

    /// Structural non-zeros of `S`, the diagonal included.
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// The index of `(row, col)` among the values of `S`
    /// ([`SparsePlusRankOne::parts_mut`]), if it is a structural non-zero.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        if col >= self.dim {
            return None;
        }
        let (start, end) = (self.col_start[col], self.col_start[col + 1]);
        self.rows[start..end]
            .binary_search(&row)
            .ok()
            .map(|k| start + k)
    }

    /// Non-zeros of the static-pivot `L + U`, fill-in included.
    pub fn lu_nnz(&self) -> usize {
        self.rows.len() + self.fill.len()
    }

    /// Multiply-subtract updates of one numeric factorization (the
    /// multipliers themselves not counted).
    pub fn update_flops(&self) -> usize {
        self.updates.len()
    }
}

/// A Jacobian `J = S + u·gᵀ`: a sparse part `S` on a fixed
/// [`JacobianPattern`], plus the rank-one term of one scalar coupling `p(y)`
/// that the right-hand side `f(y) = F(y, p(y))` reads everywhere, with
/// `S = ∂F/∂y` at fixed `p`, `u = ∂F/∂p` and `g = ∂p/∂y`. The system fills
/// all three ([`SparsePlusRankOne::parts_mut`]).
///
/// [`SparsePlusRankOne::solve`] solves a Newton system
/// `(d·I − S − u·gᵀ) δ = r` by Sherman–Morrison: with `M = d·I − S`,
/// `z = M⁻¹u` and `w = M⁻¹r`, `δ = w + z · gᵀw / (1 − gᵀz)`, two
/// triangular solve pairs against one static-pivot LU of `M`.
#[derive(Debug, Clone)]
pub struct SparsePlusRankOne {
    pattern: &'static JacobianPattern,
    /// `S` in the pattern's column-major order.
    values: Vec<f64>,
    u: Vector,
    g: Vector,
    /// Dense `dim × dim` storage of the static-pivot LU of the permuted
    /// `M`; only the pattern's `L + U` positions are ever read.
    lu: Vec<f64>,
    /// `1 / u_kk` of the last factorization.
    inverse_pivots: Vec<f64>,
    /// `M⁻¹u`.
    z: Vector,
    /// `z` and `w` in pivot order, where the triangular solves run.
    permuted: (Vec<f64>, Vec<f64>),
}

impl SparsePlusRankOne {
    fn new(pattern: &'static JacobianPattern) -> Self {
        let dim = pattern.dim;
        SparsePlusRankOne {
            pattern,
            values: vec![0.0; pattern.nnz()],
            u: Vector::zeros(dim),
            g: Vector::zeros(dim),
            lu: vec![0.0; dim * dim],
            inverse_pivots: vec![0.0; dim],
            z: Vector::zeros(dim),
            permuted: (vec![0.0; dim], vec![0.0; dim]),
        }
    }

    /// The values of `S`, indexed by [`JacobianPattern::slot`], and the
    /// rank-one factors `u` and `g`, for the system to fill.
    pub fn parts_mut(&mut self) -> (&mut [f64], &mut Vector, &mut Vector) {
        (&mut self.values, &mut self.u, &mut self.g)
    }

    /// Solves `(diagonal·I − S − u·gᵀ) δ = rhs` into `delta` by
    /// Sherman–Morrison over a static-pivot LU of `diagonal·I − S`.
    ///
    /// Returns `false`, leaving `delta` unspecified, when the static pivots
    /// degrade (a multiplier above 100 in magnitude, or a pivot under
    /// `1e-13`) or the denominator `1 − gᵀz` is below `1e-8 · max(1, |gᵀz|)`
    /// or not finite. The caller then solves the assembled matrix
    /// ([`Jacobian::assemble`]) densely with partial pivoting.
    pub fn solve(&mut self, diagonal: f64, rhs: &Vector, delta: &mut Vector) -> bool {
        if !self.factor(diagonal) {
            return false;
        }
        let order = &self.pattern.order;
        let (z, w) = &mut self.permuted;
        for ((z, w), &i) in z.iter_mut().zip(w.iter_mut()).zip(order) {
            *z = self.u[i];
            *w = rhs[i];
        }
        substitute(self.pattern, &self.lu, &self.inverse_pivots, z, w);
        for ((&z, &w), &i) in z.iter().zip(w.iter()).zip(order) {
            self.z[i] = z;
            delta[i] = w;
        }
        let gz = self
            .g
            .dot(&self.z)
            .expect("dimensions match by construction");
        let gw = self.g.dot(delta).expect("dimensions match by construction");
        let denominator = 1.0 - gz;
        if !denominator.is_finite() || denominator.abs() < MIN_DENOMINATOR * gz.abs().max(1.0) {
            return false;
        }
        let scale = gw / denominator;
        for (d, &z) in delta.as_mut_slice().iter_mut().zip(self.z.as_slice()) {
            *d += scale * z;
        }
        true
    }

    /// Numeric static-pivot LU of `diagonal·I − S`, permuted into pivot
    /// order, in `lu`, with the inverse pivots; `false` when a pivot
    /// degrades.
    fn factor(&mut self, diagonal: f64) -> bool {
        let pattern = self.pattern;
        let dim = pattern.dim;
        let lu = &mut self.lu;
        for &p in &pattern.fill {
            lu[p] = 0.0;
        }
        for (&p, &value) in pattern.scatter.iter().zip(&self.values) {
            lu[p] = -value;
        }
        for k in 0..dim {
            lu[k * dim + k] += diagonal;
        }
        for k in 0..dim {
            let pivot = lu[k * dim + k];
            if pivot.is_nan() || pivot.abs() < MIN_PIVOT {
                return false;
            }
            let inverse = 1.0 / pivot;
            self.inverse_pivots[k] = inverse;
            let column = pattern.elimination_start[k]..pattern.elimination_start[k + 1];
            for e in &pattern.eliminations[column] {
                let l = lu[e.multiplier] * inverse;
                if l.is_nan() || l.abs() > MAX_MULTIPLIER {
                    return false;
                }
                lu[e.multiplier] = l;
                for &(target, source) in &pattern.updates[e.updates.0..e.updates.1] {
                    lu[target] -= l * lu[source];
                }
            }
        }
        true
    }
}

/// Solves `L U x = b` in place for two right-hand sides `a` and `b` at once,
/// over a static-pivot LU and its inverse pivots, all in pivot order.
fn substitute(
    pattern: &JacobianPattern,
    lu: &[f64],
    inverse_pivots: &[f64],
    a: &mut [f64],
    b: &mut [f64],
) {
    for i in 0..pattern.dim {
        let (mut sa, mut sb) = (a[i], b[i]);
        for &(p, j) in &pattern.lower[pattern.lower_start[i]..pattern.lower_start[i + 1]] {
            sa -= lu[p] * a[j];
            sb -= lu[p] * b[j];
        }
        a[i] = sa;
        b[i] = sb;
    }
    for i in (0..pattern.dim).rev() {
        let (mut sa, mut sb) = (a[i], b[i]);
        for &(p, j) in &pattern.upper[pattern.upper_start[i]..pattern.upper_start[i + 1]] {
            sa -= lu[p] * a[j];
            sb -= lu[p] * b[j];
        }
        a[i] = sa * inverse_pivots[i];
        b[i] = sb * inverse_pivots[i];
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use pathway_linalg::LuDecomposition;

    use super::*;
    use crate::{OdeError, PseudoTransient};

    /// A tiny deterministic generator of uniforms in `[0, 1)`.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    fn tridiagonal(dim: usize) -> JacobianPattern {
        JacobianPattern::new(dim, (1..dim).flat_map(|i| [(i - 1, i), (i, i - 1)]))
    }

    #[test]
    fn a_tridiagonal_pattern_has_no_fill() {
        let pattern = tridiagonal(7);
        assert_eq!(pattern.nnz(), 7 + 2 * 6);
        // Each end row has one neighbour, so the order peels from row 0.
        assert_eq!(pattern.order, (0..7).collect::<Vec<_>>());
        assert_eq!(pattern.lu_nnz(), pattern.nnz());
        assert_eq!(pattern.update_flops(), 6);
        assert_eq!(pattern.slot(3, 4), Some(11));
        assert_eq!(pattern.slot(0, 2), None);
    }

    #[test]
    fn a_row_that_reads_nothing_pivots_last() {
        // Row 0 has no off-diagonal entry; rows 1 and 2 read column 0.
        // Pivoted first it would turn (1, 0) and (2, 0) into multipliers.
        let pattern = JacobianPattern::new(3, [(1, 0), (2, 0)]);
        assert_eq!(pattern.order, vec![1, 2, 0]);
        assert_eq!(pattern.lu_nnz(), pattern.nnz());
        assert!(pattern.eliminations.is_empty(), "no multipliers at all");
    }

    #[test]
    fn the_minimum_fill_order_pivots_a_hub_after_its_spokes() {
        // A star on row 3 of 6: in index order its elimination would fill
        // rows and columns 4 and 5 against each other. The spokes go first,
        // the hub once a single spoke is left.
        let n = 6;
        let star = (0..n).filter(|&j| j != 3).flat_map(|j| [(3, j), (j, 3)]);
        let pattern = JacobianPattern::new(n, star);
        assert_eq!(pattern.order, vec![0, 1, 2, 4, 3, 5]);
        assert_eq!(pattern.lu_nnz(), pattern.nnz());
        assert_eq!(pattern.update_flops(), n - 1);
    }

    /// A structured Jacobian on `pattern` with random `S`, `u` and `g`.
    fn random_structured(pattern: &'static JacobianPattern, rng: &mut Lcg) -> Jacobian {
        let mut jacobian = Jacobian::new(pattern.dim);
        let structured = jacobian.sparse_plus_rank_one(pattern);
        for value in &mut structured.values {
            *value = 2.0 * rng.next() - 1.0;
        }
        for (u, g) in structured
            .u
            .as_mut_slice()
            .iter_mut()
            .zip(structured.g.as_mut_slice())
        {
            *u = 2.0 * rng.next() - 1.0;
            *g = if rng.next() < 0.7 { -rng.next() } else { 0.0 };
        }
        jacobian
    }

    #[test]
    fn sherman_morrison_matches_dense_lu_on_random_systems() {
        static PATTERN: OnceLock<JacobianPattern> = OnceLock::new();
        let pattern = PATTERN.get_or_init(|| {
            let mut rng = Lcg(5);
            let entries: Vec<(usize, usize)> = (0..12 * 12)
                .filter(|_| rng.next() < 0.25)
                .map(|p| (p / 12, p % 12))
                .collect();
            JacobianPattern::new(12, entries)
        });
        assert!(pattern.lu_nnz() > pattern.nnz(), "the pattern fills in");
        let mut rng = Lcg(17);
        for trial in 0..200 {
            let mut jacobian = random_structured(pattern, &mut rng);
            // Diagonally dominant shifts, from barely to strongly.
            let diagonal = 4.0 + 20.0 * rng.next();
            let rhs: Vector = (0..12).map(|_| rng.next() - 0.5).collect();
            let mut newton = Matrix::zeros(12, 12);
            jacobian.assemble(diagonal, 1.0, &mut newton);
            let dense = LuDecomposition::new(&newton)
                .and_then(|lu| lu.solve(&rhs))
                .expect("nonsingular");
            let mut delta = Vector::zeros(12);
            let structured = jacobian.as_sparse_plus_rank_one_mut().unwrap();
            assert!(
                structured.solve(diagonal, &rhs, &mut delta),
                "trial {trial}"
            );
            for (a, b) in delta.iter().zip(dense.iter()) {
                assert!((a - b).abs() <= 1e-12 * dense.norm_inf(), "trial {trial}");
            }
        }
    }

    #[test]
    fn a_vanishing_pivot_or_denominator_fails_the_structured_solve() {
        static PATTERN: OnceLock<JacobianPattern> = OnceLock::new();
        let pattern = PATTERN.get_or_init(|| tridiagonal(4));
        let rhs = Vector::filled(4, 1.0);
        let mut delta = Vector::zeros(4);

        // `d − S_00 = 0`: the first pivot vanishes.
        let mut jacobian = random_structured(pattern, &mut Lcg(3));
        let structured = jacobian.as_sparse_plus_rank_one_mut().unwrap();
        structured.values[0] = 5.0;
        assert!(!structured.solve(5.0, &rhs, &mut delta));
        assert!(structured.solve(6.0, &rhs, &mut delta));

        // `S = 0`, `d = 2`, `u = e₀`, `g = 2 e₀`: `gᵀz = 1`, so the
        // denominator vanishes (and the assembled matrix is singular).
        structured.values.fill(0.0);
        structured.u.as_mut_slice().fill(0.0);
        structured.g.as_mut_slice().fill(0.0);
        structured.u[0] = 1.0;
        structured.g[0] = 2.0;
        assert!(!structured.solve(2.0, &rhs, &mut delta));
        assert!(structured.solve(4.0, &rhs, &mut delta));
    }

    /// `f(y) = F(y, p(y))` with the coupling `p = Σ y`: `F_i` is linear,
    /// tridiagonal in `y` plus `b_i · p`, so `u = b` and `g = 1`.
    struct Coupled {
        s: [[f64; 3]; 3],
        b: [f64; 3],
        e: [f64; 3],
    }

    impl Coupled {
        fn rhs_with_p(&self, y: &Vector, p: f64, out: &mut Vector) {
            for i in 0..3 {
                out[i] =
                    (0..3).map(|j| self.s[i][j] * y[j]).sum::<f64>() + self.b[i] * p + self.e[i];
            }
        }

        fn pattern() -> &'static JacobianPattern {
            static PATTERN: OnceLock<JacobianPattern> = OnceLock::new();
            PATTERN.get_or_init(|| tridiagonal(3))
        }
    }

    impl OdeSystem for Coupled {
        fn dim(&self) -> usize {
            3
        }
        fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
            self.rhs_with_p(y, y.iter().sum(), dydt);
        }
        fn jacobian(&self, _t: f64, _y: &Vector, _f: &Vector, jacobian: &mut Jacobian) -> usize {
            let pattern = Self::pattern();
            let (values, u, g) = jacobian.sparse_plus_rank_one(pattern).parts_mut();
            for (i, row) in self.s.iter().enumerate() {
                for (j, &sij) in row.iter().enumerate() {
                    if let Some(slot) = pattern.slot(i, j) {
                        values[slot] = sij;
                    }
                }
            }
            for i in 0..3 {
                u[i] = self.b[i];
                g[i] = 1.0;
            }
            0
        }
    }

    /// The same system with the default dense Jacobian.
    struct Dense<'a>(&'a Coupled);

    impl OdeSystem for Dense<'_> {
        fn dim(&self) -> usize {
            3
        }
        fn rhs(&self, t: f64, y: &Vector, dydt: &mut Vector) {
            self.0.rhs(t, y, dydt);
        }
    }

    fn stable() -> Coupled {
        Coupled {
            s: [[-3.0, 1.0, 0.0], [0.5, -2.0, 0.7], [0.0, 0.4, -4.0]],
            b: [-0.3, 0.2, -0.1],
            e: [1.0, 2.0, 0.5],
        }
    }

    #[test]
    fn structured_and_dense_jacobians_reach_the_same_steady_state() {
        let system = stable();
        let solver = PseudoTransient::new(0.1, 1e-12, 100);
        let y0 = Vector::from(vec![0.0, 0.0, 0.0]);
        let structured = solver.solve(&system, y0.clone()).unwrap();
        let dense = solver.solve(&Dense(&system), y0).unwrap();
        for (a, b) in structured.state.iter().zip(dense.state.iter()) {
            assert!((a - b).abs() <= 1e-11, "{a} vs {b}");
        }
        let stats = structured.stats;
        assert_eq!(stats.steps_rejected, 0);
        assert_eq!(stats.dense_fallbacks, 0);
        // The initial residual, then per step only the trial: the
        // structured Jacobian is exact.
        assert_eq!(stats.rhs_evaluations, 1 + stats.steps_accepted);
        assert_eq!(
            dense.stats.rhs_evaluations,
            1 + 4 * dense.stats.steps_accepted
        );
    }

    #[test]
    fn a_vanishing_pivot_takes_the_dense_fallback() {
        // At the first step, dt = 0.1: the first pivot 1/dt − S_00 = 10 − 10
        // vanishes, while the assembled matrix is well conditioned.
        let mut system = stable();
        system.s[0][0] = 10.0;
        let err = PseudoTransient::new(0.1, 1e-12, 1)
            .solve(&system, Vector::from(vec![0.0, 0.0, 0.0]))
            .unwrap_err();
        let OdeError::SteadyStateNotReached { stats, .. } = err else {
            panic!("expected the one-step budget to run out, got {err:?}")
        };
        assert_eq!(stats.dense_fallbacks, 1);
        assert_eq!(
            stats.steps_accepted, 1,
            "the dense fallback solved the step"
        );
    }
}

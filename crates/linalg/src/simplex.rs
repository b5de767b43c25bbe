//! A two-phase primal simplex solver for [`LinearProgram`]s, on a dense
//! tableau that stores only the non-basic columns.
//!
//! The solver converts general bounds to shifted non-negative variables
//! (splitting free variables into a positive and a negative part, and
//! writing each finite upper bound as an explicit `≤` row), adds
//! slack/surplus/artificial columns, and runs a textbook two-phase tableau
//! simplex with Dantzig pricing and a Bland fallback that guarantees
//! termination.
//!
//! **Only the non-basic columns are stored** (the dictionary form of the
//! simplex; Chvátal, *Linear Programming*, 1983). A basic column is a unit
//! vector, so the tableau keeps one entry per row for each non-basic column,
//! in slots, plus a map from each slot to its column. The slack and
//! artificial columns that start basic are never written down. A pivot
//! divides the pivot row by the pivot, then subtracts a multiple of it from
//! every row (and from the reduced costs) whose entry in the entering column
//! is non-zero, in one contiguous pass over the row. The entering column's
//! slot then goes to the leaving variable, whose column was the pivot row's
//! unit vector: `1/pivot` in the pivot row, `0 − factor·(1/pivot)` in the
//! others.
//!
//! **The bits of a full-width tableau.** Those are exactly the values the
//! full tableau computes in the leaving column, and its basic columns are
//! exact unit vectors (`x/x = 1`, `f − f·1 = +0`) that no later pivot
//! changes. Updating a row at a zero entry of the pivot row can at most flip
//! the sign of an exact zero, which no comparison, division or right-hand
//! side ever sees. Pricing, Bland's rule and driving the artificials out
//! break ties by column index, as a scan of the full width does. So on a
//! finite program the solutions, pivot counts and errors are those of the
//! full tableau, which the tests keep as the reference.
//!
//! **One phase 1, many objectives.** Phase 1 minimizes the sum of the
//! artificial variables, so it never reads the objective. [`solve_many`]
//! runs it (and drives the remaining artificials out of the basis) once,
//! then drops the artificial slots: phase 2 never lets an artificial enter,
//! and a pivot on a non-artificial column never feeds one into any other
//! column. Phase 2 then runs once per objective, on a copy of that tableau
//! for all but the last objective and in place for the last. Every solution
//! is bit-identical to a lone [`solve`] of the same objective, pivot count
//! included; [`solve`] is [`solve_many`] with the program's own objective.
//!
//! Flux balance analysis in `pathway-fba` calls [`solve_many`] on models with
//! a few hundred reactions, which the dense tableau handles comfortably.

use crate::lp::Relation;
use crate::{LinalgError, LinearProgram, LpSolution, LpStatus, Objective};

/// Tuning options for the simplex solver. Every solve uses the defaults; the
/// tests set them to reach the iteration cap and Bland's rule on small
/// programs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SimplexOptions {
    /// Hard cap on the number of pivots of one solve: phase 1 plus the phase 2
    /// of one objective.
    pub(crate) max_iterations: usize,
    /// Numerical tolerance used for pricing, ratio tests and feasibility.
    pub(crate) tolerance: f64,
    /// Number of Dantzig pivots after which the solver switches to Bland's
    /// rule to guarantee termination in the presence of degeneracy.
    pub(crate) bland_threshold: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: 50_000,
            tolerance: 1e-9,
            bland_threshold: 5_000,
        }
    }
}

/// How each original variable maps onto the non-negative solver variables.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = offset + y[col]`
    Shifted { col: usize, offset: f64 },
    /// `x = offset - y[col]` (used when only an upper bound is finite)
    Mirrored { col: usize, offset: f64 },
    /// `x = y[pos] - y[neg]` (free variable)
    Split { pos: usize, neg: usize },
    /// `x = value` (fixed variable, eliminated from the tableau)
    Fixed { value: f64 },
}

/// The program's variables as non-negative solver variables `y`.
struct SolverVariables {
    /// How each original variable maps onto `y`.
    var_map: Vec<VarMap>,
    /// Number of `y` variables.
    num_y: usize,
    /// `(column, width)` of each `y` that needs an explicit upper-bound row
    /// `y <= width`.
    upper_rows: Vec<(usize, f64)>,
}

/// The simplex tableau over the non-basic columns.
///
/// Columns are numbered as in the full tableau: the `y` variables, then one
/// slack (or surplus) column per `≤`/`≥` row, then one artificial column per
/// `≥`/`=` row.
#[derive(Clone)]
struct Tableau {
    /// Row-major `rows × width` entries: row `i`'s entry in slot `s` is its
    /// coefficient in column `columns[s]`, canonical with respect to the
    /// current basis.
    entries: Vec<f64>,
    /// Number of slots, which is the number of non-basic columns.
    width: usize,
    /// Column of each slot. After phase 1 a slot whose column is at or beyond
    /// `ncols` holds an artificial that phase 2 pivoted out of a redundant
    /// row; it is never priced.
    columns: Vec<usize>,
    /// Right-hand side of each row (always kept non-negative at start).
    rhs: Vec<f64>,
    /// Basic variable (column index) of each row. After phase 1 a redundant
    /// row may keep an artificial basic variable whose column was dropped.
    basis: Vec<usize>,
    /// Number of columns, the artificial suffix included until phase 1 drops
    /// it.
    ncols: usize,
    /// Index of the first artificial column; the artificials are the suffix
    /// `first_artificial..ncols` until phase 1 drops them.
    first_artificial: usize,
}

impl Tableau {
    fn row(&self, i: usize) -> &[f64] {
        &self.entries[i * self.width..(i + 1) * self.width]
    }

    /// Drops the slots of the artificial columns, keeping the others in
    /// order.
    fn drop_artificials(&mut self) {
        let keep: Vec<usize> = (0..self.width)
            .filter(|&s| self.columns[s] < self.first_artificial)
            .collect();
        let width = keep.len();
        // Each kept entry moves to an index at or below its own, so a
        // forward pass never overwrites an entry it has still to read.
        for i in 0..self.rhs.len() {
            for (k, &s) in keep.iter().enumerate() {
                self.entries[i * width + k] = self.entries[i * self.width + s];
            }
        }
        self.entries.truncate(self.rhs.len() * width);
        self.columns = keep.iter().map(|&s| self.columns[s]).collect();
        self.width = width;
        self.ncols = self.first_artificial;
    }
}

/// Solves a [`LinearProgram`].
///
/// # Errors
///
/// * [`LinalgError::Infeasible`] if no feasible point exists.
/// * [`LinalgError::Unbounded`] if the objective is unbounded.
/// * [`LinalgError::IterationLimit`] if the pivot cap is exceeded.
pub fn solve(lp: &LinearProgram) -> crate::Result<LpSolution> {
    solve_with_options(lp, &SimplexOptions::default())
}

/// [`solve`] with explicit [`SimplexOptions`].
fn solve_with_options(lp: &LinearProgram, options: &SimplexOptions) -> crate::Result<LpSolution> {
    solve_many_with_options(lp, &[lp.objective_coefficients()], options)?
        .pop()
        .expect("one objective gives one solution")
}

/// Solves the constraints and optimization sense of `lp` once per objective
/// coefficient vector in `objectives` (each in place of the program's own
/// objective). Phase 1 runs once for all of them.
///
/// Each solution, its `iterations` included, is bit-identical to what
/// [`solve`] returns for a program with that objective.
///
/// # Errors
///
/// The outer result fails when the constraints do: [`LinalgError::Infeasible`],
/// or [`LinalgError::IterationLimit`] within phase 1. It also fails with
/// [`LinalgError::InvalidArgument`] when an objective does not have one
/// coefficient per variable. Each inner result fails on its own objective:
/// [`LinalgError::Unbounded`], or [`LinalgError::IterationLimit`] within
/// that objective's phase 2.
pub fn solve_many<O: AsRef<[f64]>>(
    lp: &LinearProgram,
    objectives: &[O],
) -> crate::Result<Vec<crate::Result<LpSolution>>> {
    solve_many_with_options(lp, objectives, &SimplexOptions::default())
}

/// [`solve_many`] with explicit [`SimplexOptions`]. The pivot cap applies to
/// each objective's solve: phase 1 plus that objective's phase 2.
fn solve_many_with_options<O: AsRef<[f64]>>(
    lp: &LinearProgram,
    objectives: &[O],
    options: &SimplexOptions,
) -> crate::Result<Vec<crate::Result<LpSolution>>> {
    let tol = options.tolerance;
    check_arguments(lp, objectives, tol)?;
    let variables = map_variables(lp, tol);
    let mut tableau = build_tableau(lp, &variables, tol);

    // ---- Phase 1: minimize the sum of artificial variables. ----
    let mut phase1_iterations = 0usize;
    if tableau.first_artificial < tableau.ncols {
        let mut phase1_cost = vec![0.0; tableau.ncols];
        phase1_cost[tableau.first_artificial..].fill(1.0);
        let phase1_value = run_phase(&mut tableau, &phase1_cost, options, &mut phase1_iterations)?;
        if phase1_value > 1e-6 {
            return Err(LinalgError::Infeasible);
        }
        drive_out_artificials(&mut tableau, tol);
        // Artificial columns must never re-enter the basis, and no phase-2
        // pivot reads them: drop them.
        tableau.drop_artificials();
    }

    // ---- Phase 2, once per objective. ----
    let sense = objective_sense(lp);
    let mut solutions = Vec::with_capacity(objectives.len());
    for (k, objective) in objectives.iter().enumerate() {
        let objective = objective.as_ref();
        let mut copy;
        let tableau = if k + 1 == objectives.len() {
            &mut tableau
        } else {
            copy = tableau.clone();
            &mut copy
        };
        let cost = phase2_cost(&variables.var_map, objective, sense, tableau.ncols);
        let mut iterations = phase1_iterations;
        let solution = run_phase(tableau, &cost, options, &mut iterations).map(|_| {
            read_solution(
                &tableau.basis,
                &tableau.rhs,
                &variables,
                objective,
                iterations,
                phase1_iterations,
            )
        });
        solutions.push(solution);
    }
    Ok(solutions)
}

/// Rejects a non-positive or NaN tolerance and a mis-sized objective.
fn check_arguments<O: AsRef<[f64]>>(
    lp: &LinearProgram,
    objectives: &[O],
    tol: f64,
) -> crate::Result<()> {
    if tol <= 0.0 || tol.is_nan() {
        return Err(LinalgError::InvalidArgument(
            "tolerance must be positive".into(),
        ));
    }
    if let Some(objective) = objectives
        .iter()
        .find(|objective| objective.as_ref().len() != lp.num_vars())
    {
        return Err(LinalgError::InvalidArgument(format!(
            "objective has {} coefficients for {} variables",
            objective.as_ref().len(),
            lp.num_vars()
        )));
    }
    Ok(())
}

/// Maps the program's variables onto non-negative solver variables.
fn map_variables(lp: &LinearProgram, tol: f64) -> SolverVariables {
    let mut var_map = Vec::with_capacity(lp.num_vars());
    let mut num_y = 0usize;
    let mut upper_rows = Vec::new();
    for bound in lp.bounds() {
        let l = bound.lower;
        let u = bound.upper;
        if l.is_finite() && u.is_finite() && (u - l).abs() <= tol {
            var_map.push(VarMap::Fixed { value: l });
        } else if l.is_finite() {
            let col = num_y;
            num_y += 1;
            if u.is_finite() {
                upper_rows.push((col, u - l));
            }
            var_map.push(VarMap::Shifted { col, offset: l });
        } else if u.is_finite() {
            let col = num_y;
            num_y += 1;
            var_map.push(VarMap::Mirrored { col, offset: u });
        } else {
            let pos = num_y;
            let neg = num_y + 1;
            num_y += 2;
            var_map.push(VarMap::Split { pos, neg });
        }
    }
    SolverVariables {
        var_map,
        num_y,
        upper_rows,
    }
}

/// The right-hand side of a constraint over the `y` variables: `rhs` minus
/// the constraint at the variables' offsets.
fn shifted_rhs(coefficients: &[(usize, f64)], rhs: f64, var_map: &[VarMap]) -> f64 {
    let mut b = rhs;
    for &(var, coeff) in coefficients {
        match var_map[var] {
            VarMap::Shifted { offset, .. } | VarMap::Mirrored { offset, .. } => {
                b -= coeff * offset;
            }
            VarMap::Split { .. } => {}
            VarMap::Fixed { value } => b -= coeff * value,
        }
    }
    b
}

/// Adds a constraint's coefficients into `row`, a dense row over the `y`
/// variables.
fn add_coefficients(row: &mut [f64], coefficients: &[(usize, f64)], var_map: &[VarMap]) {
    for &(var, coeff) in coefficients {
        match var_map[var] {
            VarMap::Shifted { col, .. } => row[col] += coeff,
            VarMap::Mirrored { col, .. } => row[col] -= coeff,
            VarMap::Split { pos, neg } => {
                row[pos] += coeff;
                row[neg] -= coeff;
            }
            VarMap::Fixed { .. } => {}
        }
    }
}

/// `relation` and `b` of a row, negated when `b < 0` so that every
/// right-hand side starts non-negative, and whether they were.
fn normalized_relation(relation: Relation, b: f64) -> (Relation, f64, bool) {
    if b < 0.0 {
        let relation = match relation {
            Relation::LessEq => Relation::GreaterEq,
            Relation::GreaterEq => Relation::LessEq,
            Relation::Equal => Relation::Equal,
        };
        (relation, -b, true)
    } else {
        (relation, b, false)
    }
}

/// The sign that turns the program's objective into a minimization.
fn objective_sense(lp: &LinearProgram) -> f64 {
    match lp.objective() {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    }
}

/// Builds the starting tableau straight from the constraints and the
/// upper-bound rows. Each `≤` row starts with its slack basic, each `≥` or
/// `=` row with its artificial, so only the `y` columns and the surplus
/// columns of the `≥` rows take slots.
fn build_tableau(lp: &LinearProgram, variables: &SolverVariables, tol: f64) -> Tableau {
    let SolverVariables {
        var_map,
        num_y,
        upper_rows,
    } = variables;
    let num_y = *num_y;
    let constraints = lp.constraints();
    // First pass: each row's relation and right-hand side after the flip.
    let rows: Vec<(Relation, f64, bool)> = constraints
        .iter()
        .map(|constraint| {
            let b = shifted_rhs(&constraint.coefficients, constraint.rhs, var_map);
            normalized_relation(constraint.relation, b)
        })
        .chain(
            upper_rows
                .iter()
                .map(|&(_, width)| normalized_relation(Relation::LessEq, width)),
        )
        .collect();
    let m = rows.len();
    let count = |relation| rows.iter().filter(|row| row.0 == relation).count();
    let num_ge = count(Relation::GreaterEq);
    let first_artificial = num_y + count(Relation::LessEq) + num_ge;
    let ncols = first_artificial + num_ge + count(Relation::Equal);
    let width = num_y + num_ge;

    // Second pass: the coefficients, the surplus slots and the basis.
    let mut entries = vec![0.0; m * width];
    let mut columns: Vec<usize> = (0..num_y).collect();
    let mut rhs = Vec::with_capacity(m);
    let mut basis = Vec::with_capacity(m);
    let mut slack_cursor = num_y;
    let mut art_cursor = first_artificial;
    for (i, (relation, b, negated)) in rows.into_iter().enumerate() {
        let row = &mut entries[i * width..(i + 1) * width];
        let y = &mut row[..num_y];
        match constraints.get(i) {
            Some(constraint) => add_coefficients(y, &constraint.coefficients, var_map),
            None => y[upper_rows[i - constraints.len()].0] = 1.0,
        }
        if negated {
            for v in y {
                *v = -*v;
            }
        }
        match relation {
            Relation::LessEq => {
                basis.push(slack_cursor);
                slack_cursor += 1;
            }
            Relation::GreaterEq => {
                row[columns.len()] = -1.0;
                columns.push(slack_cursor);
                slack_cursor += 1;
                basis.push(art_cursor);
                art_cursor += 1;
            }
            Relation::Equal => {
                basis.push(art_cursor);
                art_cursor += 1;
            }
        }
        // Guard against rows that are numerically zero but have tiny rhs noise.
        rhs.push(if b < tol { b.max(0.0) } else { b });
    }

    Tableau {
        entries,
        width,
        columns,
        rhs,
        basis,
        ncols,
        first_artificial,
    }
}

/// The minimized phase-2 cost over the solver columns for one objective.
fn phase2_cost(var_map: &[VarMap], objective: &[f64], sense: f64, ncols: usize) -> Vec<f64> {
    let mut cost = vec![0.0; ncols];
    for (map, &c) in var_map.iter().zip(objective) {
        if c == 0.0 {
            continue;
        }
        let c = c * sense;
        match *map {
            VarMap::Shifted { col, .. } => cost[col] += c,
            VarMap::Mirrored { col, .. } => cost[col] -= c,
            VarMap::Split { pos, neg } => {
                cost[pos] += c;
                cost[neg] -= c;
            }
            // A fixed variable adds a constant, which moves no pivot.
            VarMap::Fixed { .. } => {}
        }
    }
    cost
}

/// Reads the optimal vertex of a tableau with this `basis` and `rhs` back in
/// the original variable space.
fn read_solution(
    basis: &[usize],
    rhs: &[f64],
    variables: &SolverVariables,
    objective: &[f64],
    iterations: usize,
    phase1_iterations: usize,
) -> LpSolution {
    let mut y = vec![0.0; variables.num_y];
    for (&b, &value) in basis.iter().zip(rhs) {
        if let Some(slot) = y.get_mut(b) {
            *slot = value;
        }
    }
    let variables: Vec<f64> = variables
        .var_map
        .iter()
        .map(|map| match *map {
            VarMap::Shifted { col, offset } => offset + y[col],
            VarMap::Mirrored { col, offset } => offset - y[col],
            VarMap::Split { pos, neg } => y[pos] - y[neg],
            VarMap::Fixed { value } => value,
        })
        .collect();
    let objective_value: f64 = objective
        .iter()
        .zip(variables.iter())
        .map(|(c, v)| c * v)
        .sum();
    LpSolution {
        status: LpStatus::Optimal,
        objective_value,
        variables,
        iterations,
        phase1_iterations,
    }
}

/// Runs simplex iterations minimizing `cost` (indexed by column) over the
/// current tableau, and returns the achieved objective value (in the
/// minimized sense). Columns at or beyond `cost.len()` are never priced.
fn run_phase(
    tableau: &mut Tableau,
    cost: &[f64],
    options: &SimplexOptions,
    iterations: &mut usize,
) -> crate::Result<f64> {
    let tol = options.tolerance;
    let m = tableau.rhs.len();
    let width = tableau.width;

    // Reduced cost of each slot: z_j = cost_j - sum_i cost[basis_i] * T[i][j].
    // A basic column beyond `cost` is a dropped artificial, which costs
    // nothing.
    let mut reduced: Vec<f64> = tableau
        .columns
        .iter()
        .map(|&j| cost.get(j).copied().unwrap_or(0.0))
        .collect();
    let mut objective = 0.0;
    for i in 0..m {
        let cb = cost.get(tableau.basis[i]).copied().unwrap_or(0.0);
        if cb != 0.0 {
            for (r, &t_ij) in reduced.iter_mut().zip(tableau.row(i)) {
                *r -= cb * t_ij;
            }
            objective += cb * tableau.rhs[i];
        }
    }

    let mut local_iter = 0usize;
    loop {
        if *iterations >= options.max_iterations {
            return Err(LinalgError::IterationLimit {
                iterations: *iterations,
            });
        }
        // --- entering slot: ties go to the lowest column index ---
        let use_bland = local_iter > options.bland_threshold;
        let mut entering: Option<usize> = None;
        let mut best = -tol;
        for (s, (&rc, &col)) in reduced.iter().zip(&tableau.columns).enumerate() {
            if col >= cost.len() {
                continue;
            }
            let lower_column = entering.is_some_and(|e| col < tableau.columns[e]);
            let better = if use_bland {
                rc < -tol && (entering.is_none() || lower_column)
            } else {
                rc < best || (rc == best && lower_column)
            };
            if better {
                best = rc;
                entering = Some(s);
            }
        }
        let Some(enter) = entering else {
            return Ok(objective);
        };

        // --- ratio test (leaving variable) ---
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = tableau.entries[i * width + enter];
            if a > tol {
                let ratio = tableau.rhs[i] / a;
                let better = ratio < best_ratio - tol
                    || ((ratio - best_ratio).abs() <= tol
                        && leave
                            .map(|l| tableau.basis[i] < tableau.basis[l])
                            .unwrap_or(true));
                if better {
                    best_ratio = ratio;
                    leave = Some(i);
                }
            }
        }
        let Some(leave) = leave else {
            return Err(LinalgError::Unbounded);
        };

        // --- pivot ---
        pivot(tableau, &mut reduced, &mut objective, leave, enter);
        *iterations += 1;
        local_iter += 1;
    }
}

/// Pivots on row `pivot_row` and the column in `slot`, which then holds the
/// leaving variable's column.
fn pivot(
    tableau: &mut Tableau,
    reduced: &mut [f64],
    objective: &mut f64,
    pivot_row: usize,
    slot: usize,
) {
    let width = tableau.width;
    let (above, rest) = tableau.entries.split_at_mut(pivot_row * width);
    let (row, below) = rest.split_at_mut(width);
    let (rhs_above, rhs_rest) = tableau.rhs.split_at_mut(pivot_row);
    let (pivot_rhs, rhs_below) = rhs_rest
        .split_first_mut()
        .expect("the pivot row has a right-hand side");

    let pivot_val = row[slot];
    for t_pj in row.iter_mut() {
        *t_pj /= pivot_val;
    }
    // The leaving variable's column was the unit vector of the pivot row.
    row[slot] = 1.0 / pivot_val;
    *pivot_rhs /= pivot_val;
    let pivot_rhs = *pivot_rhs;
    let row = &*row;

    // Eliminate the entering column from every other row ...
    let others = above
        .chunks_exact_mut(width)
        .zip(rhs_above)
        .chain(below.chunks_exact_mut(width).zip(rhs_below));
    for (other, rhs) in others {
        let factor = other[slot];
        if factor != 0.0 {
            eliminate(other, row, slot, factor);
            *rhs -= factor * pivot_rhs;
            if rhs.abs() < 1e-12 {
                *rhs = 0.0;
            }
        }
    }
    // ... and from the reduced-cost row.
    let factor = reduced[slot];
    if factor != 0.0 {
        eliminate(reduced, row, slot, factor);
        // The phase objective changes by (reduced cost of the entering column)
        // times the step length, which is the normalized pivot-row rhs.
        *objective += factor * pivot_rhs;
    }
    let leaving = std::mem::replace(&mut tableau.basis[pivot_row], tableau.columns[slot]);
    tableau.columns[slot] = leaving;
}

/// `target -= factor · row` over every slot, after the entry at `slot` (the
/// leaving variable's, zero outside the pivot row) is set to `0.0`.
#[inline]
fn eliminate(target: &mut [f64], row: &[f64], slot: usize, factor: f64) {
    target[slot] = 0.0;
    for (t, &p) in target.iter_mut().zip(row) {
        *t -= factor * p;
    }
}

/// After phase 1, pivot any artificial variable that is still basic (at value
/// zero) out of the basis if possible. Rows where that is impossible are
/// redundant and are left in place with the artificial pinned at zero.
fn drive_out_artificials(tableau: &mut Tableau, tol: f64) {
    let m = tableau.rhs.len();
    // No reduced cost is read here: an all-zero row is never updated.
    let mut dummy_reduced = vec![0.0; tableau.width];
    let mut dummy_obj = 0.0;
    for i in 0..m {
        if tableau.basis[i] < tableau.first_artificial {
            continue;
        }
        // The non-artificial column of lowest index with a nonzero
        // coefficient in this row.
        let target = tableau
            .row(i)
            .iter()
            .zip(&tableau.columns)
            .enumerate()
            .filter(|&(_, (t_ij, &col))| col < tableau.first_artificial && t_ij.abs() > tol)
            .min_by_key(|&(_, (_, &col))| col)
            .map(|(s, _)| s);
        if let Some(s) = target {
            pivot(tableau, &mut dummy_reduced, &mut dummy_obj, i, s);
        }
    }
}

/// The full-width tableau the condensed one replaced, kept as the reference
/// it must match bit for bit: it stores every column, basic ones included,
/// and updates each row only at the pivot row's non-zero columns.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::lp::Constraint;

    /// [`super::solve_many_with_options`] on the full-width tableau.
    pub(super) fn solve_many_with_options<O: AsRef<[f64]>>(
        lp: &LinearProgram,
        objectives: &[O],
        options: &SimplexOptions,
    ) -> crate::Result<Vec<crate::Result<LpSolution>>> {
        let tol = options.tolerance;
        check_arguments(lp, objectives, tol)?;
        let variables = map_variables(lp, tol);
        let SolverVariables {
            var_map,
            num_y,
            upper_rows,
        } = &variables;
        let num_y = *num_y;

        // ---- 2. Transform constraints into rows over the y variables. ----
        // Each row: (dense coefficients over y, relation, rhs)
        let mut raw_rows: Vec<(Vec<f64>, Relation, f64)> = Vec::new();
        for Constraint {
            coefficients,
            relation,
            rhs,
        } in lp.constraints()
        {
            let mut row = vec![0.0; num_y];
            let mut b = *rhs;
            for &(var, coeff) in coefficients {
                match var_map[var] {
                    VarMap::Shifted { col, offset } => {
                        row[col] += coeff;
                        b -= coeff * offset;
                    }
                    VarMap::Mirrored { col, offset } => {
                        row[col] -= coeff;
                        b -= coeff * offset;
                    }
                    VarMap::Split { pos, neg } => {
                        row[pos] += coeff;
                        row[neg] -= coeff;
                    }
                    VarMap::Fixed { value } => {
                        b -= coeff * value;
                    }
                }
            }
            raw_rows.push((row, *relation, b));
        }
        for &(col, width) in upper_rows {
            let mut row = vec![0.0; num_y];
            row[col] = 1.0;
            raw_rows.push((row, Relation::LessEq, width));
        }

        // ---- 3. Build the standard-form tableau with slack/artificial columns. ----
        let mut tableau = build_tableau(raw_rows, num_y, tol);

        // ---- 4. Phase 1: minimize the sum of artificial variables. ----
        let mut phase1_iterations = 0usize;
        if tableau.first_artificial < tableau.ncols {
            let mut phase1_cost = vec![0.0; tableau.ncols];
            phase1_cost[tableau.first_artificial..].fill(1.0);
            let phase1_value =
                run_phase(&mut tableau, &phase1_cost, options, &mut phase1_iterations)?;
            if phase1_value > 1e-6 {
                return Err(LinalgError::Infeasible);
            }
            drive_out_artificials(&mut tableau, tol);
            // Artificial columns must never re-enter the basis, and no phase-2
            // pivot reads them: drop them.
            for row in &mut tableau.rows {
                row.truncate(tableau.first_artificial);
            }
            tableau.ncols = tableau.first_artificial;
        }

        // ---- 5. Phase 2, once per objective. ----
        let sense = objective_sense(lp);
        let mut solutions = Vec::with_capacity(objectives.len());
        for (k, objective) in objectives.iter().enumerate() {
            let objective = objective.as_ref();
            let mut copy;
            let tableau = if k + 1 == objectives.len() {
                &mut tableau
            } else {
                copy = tableau.clone();
                &mut copy
            };
            let cost = phase2_cost(var_map, objective, sense, tableau.ncols);
            let mut iterations = phase1_iterations;
            let solution = run_phase(tableau, &cost, options, &mut iterations).map(|_| {
                read_solution(
                    &tableau.basis,
                    &tableau.rhs,
                    &variables,
                    objective,
                    iterations,
                    phase1_iterations,
                )
            });
            solutions.push(solution);
        }
        Ok(solutions)
    }

    #[derive(Clone)]
    struct Tableau {
        /// Constraint rows, canonical with respect to the current basis.
        rows: Vec<Vec<f64>>,
        /// Right-hand side of each row (always kept non-negative at start).
        rhs: Vec<f64>,
        /// Basic variable (column index) of each row. After phase 1 a redundant
        /// row may keep an artificial basic variable whose column was dropped.
        basis: Vec<usize>,
        /// Number of columns, the artificial suffix included until phase 1 drops
        /// it.
        ncols: usize,
        /// Index of the first artificial column; the artificials are the suffix
        /// `first_artificial..ncols` until phase 1 drops them.
        first_artificial: usize,
    }

    fn build_tableau(raw_rows: Vec<(Vec<f64>, Relation, f64)>, num_y: usize, tol: f64) -> Tableau {
        let m = raw_rows.len();
        // First pass: flip rows with a negative right-hand side, and count the
        // slack and artificial columns needed.
        let mut num_slack = 0usize;
        let mut num_art = 0usize;
        let mut normalized: Vec<(Vec<f64>, Relation, f64)> = Vec::with_capacity(m);
        for (mut row, rel, b) in raw_rows {
            let (rel, b) = if b < 0.0 {
                for v in &mut row {
                    *v = -*v;
                }
                let rel = match rel {
                    Relation::LessEq => Relation::GreaterEq,
                    Relation::GreaterEq => Relation::LessEq,
                    Relation::Equal => Relation::Equal,
                };
                (rel, -b)
            } else {
                (rel, b)
            };
            match rel {
                Relation::LessEq => num_slack += 1,
                Relation::GreaterEq => {
                    num_slack += 1;
                    num_art += 1;
                }
                Relation::Equal => num_art += 1,
            }
            normalized.push((row, rel, b));
        }

        let ncols = num_y + num_slack + num_art;
        let mut rows = vec![vec![0.0; ncols]; m];
        let mut rhs = vec![0.0; m];
        let mut basis = vec![0usize; m];

        let first_artificial = num_y + num_slack;
        let mut slack_cursor = num_y;
        let mut art_cursor = first_artificial;
        for (i, (row, rel, b)) in normalized.into_iter().enumerate() {
            rows[i][..num_y].copy_from_slice(&row[..num_y]);
            rhs[i] = b;
            match rel {
                Relation::LessEq => {
                    rows[i][slack_cursor] = 1.0;
                    basis[i] = slack_cursor;
                    slack_cursor += 1;
                }
                Relation::GreaterEq => {
                    rows[i][slack_cursor] = -1.0;
                    slack_cursor += 1;
                    rows[i][art_cursor] = 1.0;
                    basis[i] = art_cursor;
                    art_cursor += 1;
                }
                Relation::Equal => {
                    rows[i][art_cursor] = 1.0;
                    basis[i] = art_cursor;
                    art_cursor += 1;
                }
            }
            // Guard against rows that are numerically zero but have tiny rhs noise.
            if rhs[i] < tol {
                rhs[i] = rhs[i].max(0.0);
            }
        }

        Tableau {
            rows,
            rhs,
            basis,
            ncols,
            first_artificial,
        }
    }

    /// Runs simplex iterations minimizing `cost` over the current tableau, and
    /// returns the achieved objective value (in the minimized sense).
    fn run_phase(
        tableau: &mut Tableau,
        cost: &[f64],
        options: &SimplexOptions,
        iterations: &mut usize,
    ) -> crate::Result<f64> {
        let tol = options.tolerance;
        let m = tableau.rows.len();

        // Reduced cost row: z_j = cost_j - sum_i cost[basis_i] * T[i][j]. A basic
        // column beyond `cost` is a dropped artificial, which costs nothing.
        let mut reduced = cost.to_vec();
        let mut objective = 0.0;
        for i in 0..m {
            let cb = cost.get(tableau.basis[i]).copied().unwrap_or(0.0);
            if cb != 0.0 {
                for (r, &t_ij) in reduced.iter_mut().zip(&tableau.rows[i]) {
                    *r -= cb * t_ij;
                }
                objective += cb * tableau.rhs[i];
            }
        }

        let mut local_iter = 0usize;
        loop {
            if *iterations >= options.max_iterations {
                return Err(LinalgError::IterationLimit {
                    iterations: *iterations,
                });
            }
            // --- entering variable ---
            let use_bland = local_iter > options.bland_threshold;
            let mut entering: Option<usize> = None;
            if use_bland {
                entering = reduced.iter().position(|&rc| rc < -tol);
            } else {
                let mut best = -tol;
                for (j, &rc) in reduced.iter().enumerate() {
                    if rc < best {
                        best = rc;
                        entering = Some(j);
                    }
                }
            }
            let Some(enter) = entering else {
                return Ok(objective);
            };

            // --- ratio test (leaving variable) ---
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = tableau.rows[i][enter];
                if a > tol {
                    let ratio = tableau.rhs[i] / a;
                    let better = ratio < best_ratio - tol
                        || ((ratio - best_ratio).abs() <= tol
                            && leave
                                .map(|l| tableau.basis[i] < tableau.basis[l])
                                .unwrap_or(true));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else {
                return Err(LinalgError::Unbounded);
            };

            // --- pivot ---
            pivot(tableau, &mut reduced, &mut objective, leave, enter);
            *iterations += 1;
            local_iter += 1;
        }
    }

    fn pivot(
        tableau: &mut Tableau,
        reduced: &mut [f64],
        objective: &mut f64,
        pivot_row: usize,
        pivot_col: usize,
    ) {
        // Take the pivot row out, so it can be read while the others are written.
        let mut row = std::mem::take(&mut tableau.rows[pivot_row]);
        let pivot_val = row[pivot_col];
        // Normalize the pivot row and collect its non-zero columns: only those
        // change in the other rows.
        let mut nonzeros = Vec::new();
        for (j, t_pj) in row.iter_mut().enumerate() {
            *t_pj /= pivot_val;
            if *t_pj != 0.0 {
                nonzeros.push(j);
            }
        }
        tableau.rhs[pivot_row] /= pivot_val;
        let pivot_rhs = tableau.rhs[pivot_row];

        // Eliminate the pivot column from every other row.
        for (i, other) in tableau.rows.iter_mut().enumerate() {
            if i == pivot_row {
                continue;
            }
            let factor = other[pivot_col];
            if factor != 0.0 {
                for &j in &nonzeros {
                    other[j] -= factor * row[j];
                }
                let rhs = &mut tableau.rhs[i];
                *rhs -= factor * pivot_rhs;
                if rhs.abs() < 1e-12 {
                    *rhs = 0.0;
                }
            }
        }
        // ... and from the reduced-cost row.
        let factor = reduced[pivot_col];
        if factor != 0.0 {
            for &j in &nonzeros {
                reduced[j] -= factor * row[j];
            }
            // The phase objective changes by (reduced cost of the entering column)
            // times the step length, which is the normalized pivot-row rhs.
            *objective += factor * pivot_rhs;
        }
        tableau.rows[pivot_row] = row;
        tableau.basis[pivot_row] = pivot_col;
    }

    /// After phase 1, pivot any artificial variable that is still basic (at value
    /// zero) out of the basis if possible. Rows where that is impossible are
    /// redundant and are left in place with the artificial pinned at zero.
    fn drive_out_artificials(tableau: &mut Tableau, tol: f64) {
        let m = tableau.rows.len();
        for i in 0..m {
            if tableau.basis[i] < tableau.first_artificial {
                continue;
            }
            // Find a non-artificial column with a nonzero coefficient in this row.
            let target = tableau.rows[i][..tableau.first_artificial]
                .iter()
                .position(|t_ij| t_ij.abs() > tol);
            if let Some(j) = target {
                let mut dummy_reduced = vec![0.0; tableau.ncols];
                let mut dummy_obj = 0.0;
                pivot(tableau, &mut dummy_reduced, &mut dummy_obj, i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bound;
    use proptest::prelude::*;

    fn max_lp(obj: &[f64]) -> LinearProgram {
        let mut lp = LinearProgram::new(obj.len(), Objective::Maximize);
        for (i, &c) in obj.iter().enumerate() {
            lp.set_objective_coefficient(i, c).unwrap();
        }
        lp
    }

    #[test]
    fn textbook_maximization() {
        // maximize 3x + 2y  s.t.  x + y <= 4, x + 3y <= 6
        let mut lp = max_lp(&[3.0, 2.0]);
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        lp.add_less_eq(&[(0, 1.0), (1, 3.0)], 6.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective_value - 12.0).abs() < 1e-8);
        assert!((sol.variables[0] - 4.0).abs() < 1e-8);
        assert!(sol.variables[1].abs() < 1e-8);
    }

    #[test]
    fn minimization_with_greater_eq() {
        // minimize 2x + 3y  s.t.  x + y >= 10, x >= 2, y >= 3
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective_coefficient(0, 2.0).unwrap();
        lp.set_objective_coefficient(1, 3.0).unwrap();
        lp.add_greater_eq(&[(0, 1.0), (1, 1.0)], 10.0).unwrap();
        lp.set_bound(0, Bound::interval(2.0, f64::INFINITY))
            .unwrap();
        lp.set_bound(1, Bound::interval(3.0, f64::INFINITY))
            .unwrap();
        let sol = solve(&lp).unwrap();
        // Optimal: push the cheap variable x as high as needed: x = 7, y = 3.
        assert!((sol.objective_value - 23.0).abs() < 1e-8);
        assert!((sol.variables[0] - 7.0).abs() < 1e-8);
        assert!((sol.variables[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn equality_constraints() {
        // maximize x + y  s.t.  x + y = 5,  x - y = 1
        let mut lp = max_lp(&[1.0, 1.0]);
        lp.add_equal(&[(0, 1.0), (1, 1.0)], 5.0).unwrap();
        lp.add_equal(&[(0, 1.0), (1, -1.0)], 1.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.variables[0] - 3.0).abs() < 1e-8);
        assert!((sol.variables[1] - 2.0).abs() < 1e-8);
        assert!((sol.objective_value - 5.0).abs() < 1e-8);
    }

    #[test]
    fn infeasible_program_is_detected() {
        let mut lp = max_lp(&[1.0]);
        lp.add_less_eq(&[(0, 1.0)], 1.0).unwrap();
        lp.add_greater_eq(&[(0, 1.0)], 2.0).unwrap();
        assert!(matches!(solve(&lp), Err(LinalgError::Infeasible)));
    }

    #[test]
    fn unbounded_program_is_detected() {
        let mut lp = max_lp(&[1.0]);
        lp.add_greater_eq(&[(0, 1.0)], 1.0).unwrap();
        assert!(matches!(solve(&lp), Err(LinalgError::Unbounded)));
    }

    #[test]
    fn negative_lower_bounds_are_handled() {
        // minimize x subject to x >= -5 (bound), x <= 3
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_objective_coefficient(0, 1.0).unwrap();
        lp.set_bound(0, Bound::interval(-5.0, 3.0)).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.variables[0] + 5.0).abs() < 1e-8);
    }

    #[test]
    fn free_variables_are_split() {
        // minimize x + y with x free, y >= 0 and x + y >= 2, x >= -3 via constraint
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        lp.set_objective_coefficient(0, 1.0).unwrap();
        lp.set_objective_coefficient(1, 1.0).unwrap();
        lp.set_bound(0, Bound::free()).unwrap();
        lp.add_greater_eq(&[(0, 1.0), (1, 1.0)], 2.0).unwrap();
        lp.add_greater_eq(&[(0, 1.0)], -3.0).unwrap();
        let sol = solve(&lp).unwrap();
        // The optimum is any point on x + y = 2 with x >= -3; the objective is 2.
        assert!((sol.objective_value - 2.0).abs() < 1e-7);
        assert!(sol.variables[0] + sol.variables[1] >= 2.0 - 1e-7);
        assert!(sol.variables[0] >= -3.0 - 1e-7);
        assert!(sol.variables[1] >= -1e-9);
    }

    #[test]
    fn fixed_variables_are_respected() {
        // ATP-maintenance style pinned flux.
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_objective_coefficient(1, 1.0).unwrap();
        lp.set_bound(0, Bound::fixed(0.45)).unwrap();
        lp.set_bound(1, Bound::interval(0.0, 10.0)).unwrap();
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 5.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.variables[0] - 0.45).abs() < 1e-9);
        assert!((sol.variables[1] - 4.55).abs() < 1e-7);
    }

    #[test]
    fn upper_bounds_limit_the_solution() {
        let mut lp = max_lp(&[1.0, 1.0]);
        lp.set_bound(0, Bound::interval(0.0, 2.0)).unwrap();
        lp.set_bound(1, Bound::interval(0.0, 3.0)).unwrap();
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 100.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective_value - 5.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut lp = max_lp(&[1.0, 1.0]);
        lp.add_less_eq(&[(0, 1.0)], 1.0).unwrap();
        lp.add_less_eq(&[(1, 1.0)], 1.0).unwrap();
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 2.0).unwrap();
        lp.add_less_eq(&[(0, 2.0), (1, 2.0)], 4.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.objective_value - 2.0).abs() < 1e-8);
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let mut lp = max_lp(&[3.0, 2.0]);
        lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 4.0).unwrap();
        let options = SimplexOptions {
            max_iterations: 0,
            ..Default::default()
        };
        assert!(matches!(
            solve_with_options(&lp, &options),
            Err(LinalgError::IterationLimit { .. })
        ));
    }

    #[test]
    fn invalid_tolerance_is_rejected() {
        let lp = max_lp(&[1.0]);
        let options = SimplexOptions {
            tolerance: -1.0,
            ..Default::default()
        };
        assert!(matches!(
            solve_with_options(&lp, &options),
            Err(LinalgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn mirrored_variable_only_upper_bound() {
        // minimize -x with x <= 7 and no lower bound, but a constraint x >= 1.
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        lp.set_objective_coefficient(0, -1.0).unwrap();
        lp.set_bound(
            0,
            Bound {
                lower: f64::NEG_INFINITY,
                upper: 7.0,
            },
        )
        .unwrap();
        lp.add_greater_eq(&[(0, 1.0)], 1.0).unwrap();
        let sol = solve(&lp).unwrap();
        assert!((sol.variables[0] - 7.0).abs() < 1e-8);
    }

    #[test]
    fn larger_random_feasible_problem_is_solved() {
        // A transportation-like LP with 12 variables; checks that the solver
        // copes with a few dozen rows without hitting the iteration cap.
        let supplies = [20.0, 30.0, 25.0];
        let demands = [15.0, 25.0, 20.0, 15.0];
        let costs = [
            4.0, 8.0, 8.0, 6.0, //
            6.0, 2.0, 4.0, 7.0, //
            5.0, 3.0, 6.0, 2.0,
        ];
        let n = supplies.len() * demands.len();
        let mut lp = LinearProgram::new(n, Objective::Minimize);
        for (k, &c) in costs.iter().enumerate() {
            lp.set_objective_coefficient(k, c).unwrap();
        }
        for (i, &s) in supplies.iter().enumerate() {
            let row: Vec<(usize, f64)> = (0..demands.len())
                .map(|j| (i * demands.len() + j, 1.0))
                .collect();
            lp.add_less_eq(&row, s).unwrap();
        }
        for (j, &d) in demands.iter().enumerate() {
            let col: Vec<(usize, f64)> = (0..supplies.len())
                .map(|i| (i * demands.len() + j, 1.0))
                .collect();
            lp.add_greater_eq(&col, d).unwrap();
        }
        let sol = solve(&lp).unwrap();
        // Feasibility of the reported plan.
        for (i, &s) in supplies.iter().enumerate() {
            let shipped: f64 = (0..demands.len())
                .map(|j| sol.variables[i * demands.len() + j])
                .sum();
            assert!(shipped <= s + 1e-6);
        }
        for (j, &d) in demands.iter().enumerate() {
            let received: f64 = (0..supplies.len())
                .map(|i| sol.variables[i * demands.len() + j])
                .sum();
            assert!(received >= d - 1e-6);
        }
        // Known optimum of this classic instance.
        assert!(sol.objective_value <= 275.0 + 1e-6);
    }

    /// Bitwise equality of two solve outcomes: every variable and the
    /// objective compared by bits, pivot counts and errors exactly.
    fn assert_bitwise_eq(left: &crate::Result<LpSolution>, right: &crate::Result<LpSolution>) {
        match (left, right) {
            (Ok(a), Ok(b)) => {
                let bits = |s: &LpSolution| -> Vec<u64> {
                    s.variables.iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(a), bits(b));
                assert_eq!(a.objective_value.to_bits(), b.objective_value.to_bits());
                assert_eq!(a.iterations, b.iterations);
                assert_eq!(a.phase1_iterations, b.phase1_iterations);
                assert_eq!(a.status, b.status);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("outcomes differ: {left:?} vs {right:?}"),
        }
    }

    /// `lp` with its objective coefficients replaced by `objective`.
    fn with_objective(lp: &LinearProgram, objective: &[f64]) -> LinearProgram {
        let mut lp = lp.clone();
        for (var, &c) in objective.iter().enumerate() {
            lp.set_objective_coefficient(var, c).unwrap();
        }
        lp
    }

    /// `solve_many` must agree bitwise with one `solve` per objective.
    fn assert_matches_separate_solves(
        lp: &LinearProgram,
        objectives: &[Vec<f64>],
        options: &SimplexOptions,
    ) {
        let many = solve_many_with_options(lp, objectives, options);
        for (k, objective) in objectives.iter().enumerate() {
            let alone = solve_with_options(&with_objective(lp, objective), options);
            match &many {
                Ok(solutions) => assert_bitwise_eq(&solutions[k], &alone),
                Err(error) => assert_eq!(Err(error), alone.as_ref()),
            }
        }
    }

    /// A small deterministic generator for the random programs below.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A uniform integer in `lo..hi`, as `f64`.
        fn int(&mut self, lo: i64, hi: i64) -> f64 {
            (lo + (self.next() % (hi - lo) as u64) as i64) as f64
        }
    }

    /// A random program of up to 6 variables and 6 rows, mixing fixed,
    /// shifted, mirrored and free bounds with `<=`, `>=` and `=` rows, plus
    /// `k` random objectives.
    fn random_program(seed: u64, k: usize) -> (LinearProgram, Vec<Vec<f64>>) {
        let mut rng = SplitMix(seed);
        let n = rng.int(1, 7) as usize;
        let sense = if rng.next().is_multiple_of(2) {
            Objective::Minimize
        } else {
            Objective::Maximize
        };
        let mut lp = LinearProgram::new(n, sense);
        for var in 0..n {
            let lower = rng.int(-5, 5);
            let bound = match rng.next() % 5 {
                0 => Bound::fixed(lower),
                1 => Bound::interval(lower, lower + 1.0 + rng.int(0, 6)),
                2 => Bound {
                    lower: f64::NEG_INFINITY,
                    upper: lower,
                },
                3 => Bound::free(),
                _ => Bound::interval(lower, f64::INFINITY),
            };
            lp.set_bound(var, bound).unwrap();
        }
        for _ in 0..rng.int(0, 7) as usize {
            let mut coefficients = Vec::new();
            for var in 0..n {
                if !rng.next().is_multiple_of(3) {
                    coefficients.push((var, 0.5 * rng.int(-4, 5)));
                }
            }
            let relation = match rng.next() % 3 {
                0 => Relation::LessEq,
                1 => Relation::GreaterEq,
                _ => Relation::Equal,
            };
            lp.add_constraint(&coefficients, relation, rng.int(-10, 10))
                .unwrap();
        }
        let objectives = (0..k)
            .map(|_| {
                (0..n)
                    .map(|_| rng.int(-3, 4) + 0.25 * rng.int(0, 4))
                    .collect()
            })
            .collect();
        (lp, objectives)
    }

    proptest! {
        #[test]
        fn prop_solve_many_matches_separate_solves(seed in 0u64..u64::MAX, k in 1usize..5) {
            let (lp, objectives) = random_program(seed, k);
            assert_matches_separate_solves(&lp, &objectives, &SimplexOptions::default());
        }

        #[test]
        fn prop_solve_many_keeps_the_pivot_cap_per_objective(
            seed in 0u64..u64::MAX,
            k in 1usize..5,
            max_iterations in 0usize..8,
        ) {
            let (lp, objectives) = random_program(seed, k);
            let options = SimplexOptions {
                max_iterations,
                ..Default::default()
            };
            assert_matches_separate_solves(&lp, &objectives, &options);
        }
    }

    /// The condensed tableau must agree bitwise with the full-width
    /// reference: solutions, objective bits, pivot counts and errors.
    fn assert_matches_reference(
        lp: &LinearProgram,
        objectives: &[Vec<f64>],
        options: &SimplexOptions,
    ) {
        let condensed = solve_many_with_options(lp, objectives, options);
        let full = reference::solve_many_with_options(lp, objectives, options);
        match (&condensed, &full) {
            (Ok(condensed), Ok(full)) => {
                assert_eq!(condensed.len(), full.len());
                for (a, b) in condensed.iter().zip(full) {
                    assert_bitwise_eq(a, b);
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("outcomes differ: {condensed:?} vs {full:?}"),
        }
    }

    /// A degenerate program of 5 to 40 variables: wide (`±1000`,
    /// `[0, 1000]`) and narrow bounds, mostly `=` rows with a zero
    /// right-hand side, repeated and summed rows, rows scaled below the
    /// pivot tolerance, and sparse small-integer coefficients and
    /// objectives, so that pricing and the ratio test tie often and phase 1
    /// leaves redundant rows behind.
    fn degenerate_program(seed: u64, k: usize) -> (LinearProgram, Vec<Vec<f64>>) {
        let mut rng = SplitMix(seed);
        let n = rng.int(5, 41) as usize;
        let sense = if rng.next().is_multiple_of(2) {
            Objective::Minimize
        } else {
            Objective::Maximize
        };
        let mut lp = LinearProgram::new(n, sense);
        for var in 0..n {
            let bound = match rng.next() % 3 {
                0 => Bound::interval(-1000.0, 1000.0),
                1 => Bound::interval(0.0, 1000.0),
                _ => Bound::interval(-0.5 * rng.int(0, 4), 0.5 * rng.int(0, 4)),
            };
            lp.set_bound(var, bound).unwrap();
        }
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        for _ in 0..rng.int(2, n as i64 + 4) as usize {
            let coefficients = match (rng.next() % 6, rows.len()) {
                // A repeat of an earlier row, or the sum of two.
                (0, r) if r > 0 => rows[rng.next() as usize % r].clone(),
                (1, r) if r > 1 => {
                    let a = &rows[rng.next() as usize % r];
                    let b = &rows[rng.next() as usize % r];
                    a.iter().chain(b).copied().collect()
                }
                // An earlier row scaled below the pivot tolerance.
                (2, r) if r > 0 => rows[rng.next() as usize % r]
                    .iter()
                    .map(|&(var, c)| (var, 1e-10 * c))
                    .collect(),
                _ => (0..rng.int(1, 5) as usize)
                    .map(|_| (rng.next() as usize % n, rng.int(-2, 3)))
                    .filter(|&(_, c)| c != 0.0)
                    .collect(),
            };
            let relation = match rng.next() % 5 {
                0 => Relation::LessEq,
                1 => Relation::GreaterEq,
                _ => Relation::Equal,
            };
            // Mostly a right-hand side the origin satisfies, sometimes any.
            let rhs = match (rng.next() % 32, relation) {
                (0, _) => rng.int(-20, 21),
                (1..=15, Relation::LessEq) => rng.int(0, 21),
                (1..=15, Relation::GreaterEq) => rng.int(-20, 1),
                _ => 0.0,
            };
            lp.add_constraint(&coefficients, relation, rhs).unwrap();
            rows.push(coefficients);
        }
        let objectives = (0..k)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        if rng.next().is_multiple_of(3) {
                            rng.int(-2, 3)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        (lp, objectives)
    }

    proptest! {
        #[test]
        fn prop_condensed_tableau_matches_the_full_width_reference(
            seed in 0u64..u64::MAX,
            k in 1usize..5,
        ) {
            let (lp, objectives) = random_program(seed, k);
            assert_matches_reference(&lp, &objectives, &SimplexOptions::default());
        }

        #[test]
        fn prop_condensed_tableau_matches_the_reference_on_degenerate_programs(
            seed in 0u64..u64::MAX,
            k in 1usize..4,
        ) {
            let (lp, objectives) = degenerate_program(seed, k);
            assert_matches_reference(&lp, &objectives, &SimplexOptions::default());
        }

        #[test]
        fn prop_condensed_tableau_matches_the_reference_under_bland_and_the_pivot_cap(
            seed in 0u64..u64::MAX,
            k in 1usize..4,
            bland_threshold in 0usize..4,
            max_iterations in 0usize..40,
        ) {
            let options = SimplexOptions {
                max_iterations,
                bland_threshold,
                ..Default::default()
            };
            let (lp, objectives) = random_program(seed, k);
            assert_matches_reference(&lp, &objectives, &options);
            let (lp, objectives) = degenerate_program(seed, k);
            assert_matches_reference(&lp, &objectives, &options);
        }
    }

    /// `1e-10·(x0 + 3·x1 + 3·x2 − x3) = 0` is too small to pivot on, so
    /// phase 1 leaves its artificial basic. Phase 2 lifts the row above the
    /// tolerance and pivots the artificial out. The full tableau has dropped
    /// its column, so its slot must never be priced: its reduced cost turns
    /// negative later, and pricing it reaches an objective of 50 in 9 pivots.
    #[test]
    fn an_artificial_pivoted_out_in_phase_two_never_enters() {
        let mut lp = max_lp(&[-2.0, 2.0, 2.0, 1.0]);
        for var in 0..4 {
            lp.set_bound(var, Bound::interval(0.0, 10.0)).unwrap();
        }
        lp.add_equal(&[(0, 1e-10), (1, 3e-10), (2, 3e-10), (3, -1e-10)], 0.0)
            .unwrap();
        lp.add_less_eq(&[(0, 12.0), (1, 1.0), (2, -12.0), (3, -3.0)], 0.0)
            .unwrap();
        lp.add_less_eq(&[(0, -4.0), (1, -2.0), (2, -19.0), (3, 6.0)], 5.0)
            .unwrap();
        let objectives = [lp.objective_coefficients().to_vec()];
        assert_matches_reference(&lp, &objectives, &SimplexOptions::default());
        let solution = solve(&lp).unwrap();
        assert_eq!((solution.phase1_iterations, solution.iterations), (0, 7));
        assert!((solution.objective_value - 50.0 / 3.0).abs() < 1e-9);
    }

    /// `x + y >= 1`, `x <= 4`, `y <= 3`: phase 1 has work to do, and
    /// different objectives need different phase-2 pivot counts.
    fn two_variable_program() -> LinearProgram {
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.add_greater_eq(&[(0, 1.0), (1, 1.0)], 1.0).unwrap();
        lp.set_bound(0, Bound::interval(0.0, 4.0)).unwrap();
        lp.set_bound(1, Bound::interval(0.0, 3.0)).unwrap();
        lp
    }

    #[test]
    fn solve_many_shares_phase_one_and_keeps_pivot_counts() {
        let lp = two_variable_program();
        let objectives = [vec![1.0, 0.0], vec![1.0, 1.0], vec![0.0, 0.0]];
        let solutions = solve_many(&lp, &objectives).unwrap();
        let phase1 = solutions[0].as_ref().unwrap().phase1_iterations;
        assert!(phase1 > 0);
        for (solution, objective) in solutions.iter().zip(&objectives) {
            assert_bitwise_eq(solution, &solve(&with_objective(&lp, objective)));
            assert_eq!(solution.as_ref().unwrap().phase1_iterations, phase1);
        }
        let optimum = solutions[1].as_ref().unwrap();
        assert!((optimum.objective_value - 7.0).abs() < 1e-9);
        assert!(solve_many(&lp, &[] as &[Vec<f64>]).unwrap().is_empty());
    }

    #[test]
    fn solve_many_reports_infeasibility_once() {
        let mut lp = two_variable_program();
        lp.add_greater_eq(&[(0, 1.0)], 5.0).unwrap();
        let objectives = [vec![1.0, 0.0], vec![0.0, 1.0]];
        assert!(matches!(
            solve_many(&lp, &objectives),
            Err(LinalgError::Infeasible)
        ));
    }

    #[test]
    fn solve_many_reports_unboundedness_per_objective() {
        // x is bounded, y is not: maximizing x is fine, maximizing y is not.
        let mut lp = LinearProgram::new(2, Objective::Maximize);
        lp.set_bound(0, Bound::interval(0.0, 4.0)).unwrap();
        lp.add_greater_eq(&[(0, 1.0), (1, 1.0)], 1.0).unwrap();
        let objectives = [vec![0.0, 1.0], vec![1.0, 0.0]];
        let solutions = solve_many(&lp, &objectives).unwrap();
        assert!(matches!(solutions[0], Err(LinalgError::Unbounded)));
        assert!((solutions[1].as_ref().unwrap().variables[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn solve_many_caps_phase_one_plus_each_phase_two() {
        let lp = two_variable_program();
        let objectives = [vec![0.0, 0.0], vec![1.0, 1.0]];
        let uncapped = solve_many(&lp, &objectives).unwrap();
        let cheap = uncapped[0].as_ref().unwrap();
        let dear = uncapped[1].as_ref().unwrap();
        assert!(dear.iterations > cheap.iterations);
        // A cap just above the cheap objective's total lets it finish while
        // the dear one runs out, exactly as two separate solves would.
        let options = SimplexOptions {
            max_iterations: cheap.iterations + 1,
            ..Default::default()
        };
        let capped = solve_many_with_options(&lp, &objectives, &options).unwrap();
        assert_bitwise_eq(&capped[0], &uncapped[0]);
        assert_eq!(
            capped[1],
            Err(LinalgError::IterationLimit {
                iterations: cheap.iterations + 1
            })
        );
        // A cap phase 1 cannot meet fails the whole call.
        let options = SimplexOptions {
            max_iterations: cheap.phase1_iterations,
            ..Default::default()
        };
        assert!(matches!(
            solve_many_with_options(&lp, &objectives, &options),
            Err(LinalgError::IterationLimit { .. })
        ));
    }

    #[test]
    fn solve_many_rejects_a_mis_sized_objective() {
        let lp = two_variable_program();
        assert!(matches!(
            solve_many(&lp, &[vec![1.0]]),
            Err(LinalgError::InvalidArgument(_))
        ));
    }
}

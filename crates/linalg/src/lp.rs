use crate::LinalgError;

/// Direction of optimization for a [`LinearProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize the objective function.
    #[default]
    Minimize,
    /// Maximize the objective function.
    Maximize,
}

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `a · x <= b`
    LessEq,
    /// `a · x >= b`
    GreaterEq,
    /// `a · x = b`
    Equal,
}

/// Lower/upper bound pair for one decision variable.
///
/// Infinite bounds are expressed with `f64::NEG_INFINITY` / `f64::INFINITY`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Lower bound (may be `-inf`).
    pub lower: f64,
    /// Upper bound (may be `+inf`).
    pub upper: f64,
}

impl Bound {
    /// A non-negative variable: `[0, +inf)`.
    pub fn non_negative() -> Self {
        Bound {
            lower: 0.0,
            upper: f64::INFINITY,
        }
    }

    /// A free variable: `(-inf, +inf)`.
    pub fn free() -> Self {
        Bound {
            lower: f64::NEG_INFINITY,
            upper: f64::INFINITY,
        }
    }

    /// A bounded interval `[lower, upper]`.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn interval(lower: f64, upper: f64) -> Self {
        assert!(!lower.is_nan() && !upper.is_nan(), "bounds must not be NaN");
        assert!(lower <= upper, "lower bound must not exceed upper bound");
        Bound { lower, upper }
    }

    /// A variable fixed to a single value.
    pub fn fixed(value: f64) -> Self {
        Bound {
            lower: value,
            upper: value,
        }
    }

    /// Width of the interval (`upper - lower`).
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Returns `true` if `value` lies within the bound (inclusive), with a
    /// small tolerance.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower - 1e-9 && value <= self.upper + 1e-9
    }
}

impl Default for Bound {
    fn default() -> Self {
        Bound::non_negative()
    }
}

/// A single linear constraint `coefficients · x (rel) rhs`.
///
/// Coefficients are stored sparsely as `(variable index, coefficient)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse coefficients of the constraint row.
    pub coefficients: Vec<(usize, f64)>,
    /// Relation to the right-hand side.
    pub relation: Relation,
    /// Right-hand side value.
    pub rhs: f64,
}

/// A linear program over `n` bounded decision variables.
///
/// # Example
///
/// ```
/// use pathway_linalg::{Bound, LinearProgram, Objective, simplex};
///
/// # fn main() -> Result<(), pathway_linalg::LinalgError> {
/// // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x,y >= 0
/// let mut lp = LinearProgram::new(2, Objective::Maximize);
/// lp.set_objective_coefficient(0, 3.0)?;
/// lp.set_objective_coefficient(1, 2.0)?;
/// lp.add_less_eq(&[(0, 1.0), (1, 1.0)], 4.0)?;
/// lp.add_less_eq(&[(0, 1.0), (1, 3.0)], 6.0)?;
/// let solution = simplex::solve(&lp)?;
/// assert!((solution.objective_value - 12.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    num_vars: usize,
    objective: Objective,
    objective_coefficients: Vec<f64>,
    bounds: Vec<Bound>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Creates a program with `num_vars` non-negative variables and an
    /// all-zero objective.
    pub fn new(num_vars: usize, objective: Objective) -> Self {
        LinearProgram {
            num_vars,
            objective,
            objective_coefficients: vec![0.0; num_vars],
            bounds: vec![Bound::non_negative(); num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Direction of optimization.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Objective coefficient vector.
    pub fn objective_coefficients(&self) -> &[f64] {
        &self.objective_coefficients
    }

    /// Per-variable bounds.
    pub fn bounds(&self) -> &[Bound] {
        &self.bounds
    }

    /// Constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Sets the objective coefficient of variable `var`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if `var >= num_vars`.
    pub fn set_objective_coefficient(&mut self, var: usize, coefficient: f64) -> crate::Result<()> {
        self.check_var(var)?;
        self.objective_coefficients[var] = coefficient;
        Ok(())
    }

    /// Sets the bound of variable `var`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if `var >= num_vars` and
    /// [`LinalgError::InvalidArgument`] if the bound is inverted or NaN.
    pub fn set_bound(&mut self, var: usize, bound: Bound) -> crate::Result<()> {
        self.check_var(var)?;
        if bound.lower.is_nan() || bound.upper.is_nan() {
            return Err(LinalgError::InvalidArgument("bound is NaN".into()));
        }
        if bound.lower > bound.upper {
            return Err(LinalgError::InvalidArgument(format!(
                "lower bound {} exceeds upper bound {}",
                bound.lower, bound.upper
            )));
        }
        self.bounds[var] = bound;
        Ok(())
    }

    /// Adds a `<=` constraint.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if a coefficient references a
    /// variable outside the program.
    pub fn add_less_eq(&mut self, coefficients: &[(usize, f64)], rhs: f64) -> crate::Result<()> {
        self.add_constraint(coefficients, Relation::LessEq, rhs)
    }

    /// Adds a `>=` constraint.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if a coefficient references a
    /// variable outside the program.
    pub fn add_greater_eq(&mut self, coefficients: &[(usize, f64)], rhs: f64) -> crate::Result<()> {
        self.add_constraint(coefficients, Relation::GreaterEq, rhs)
    }

    /// Adds an `=` constraint.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if a coefficient references a
    /// variable outside the program.
    pub fn add_equal(&mut self, coefficients: &[(usize, f64)], rhs: f64) -> crate::Result<()> {
        self.add_constraint(coefficients, Relation::Equal, rhs)
    }

    /// Adds a constraint with an explicit [`Relation`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::IndexOutOfBounds`] if a coefficient references a
    /// variable outside the program.
    pub fn add_constraint(
        &mut self,
        coefficients: &[(usize, f64)],
        relation: Relation,
        rhs: f64,
    ) -> crate::Result<()> {
        for &(var, _) in coefficients {
            self.check_var(var)?;
        }
        self.constraints.push(Constraint {
            coefficients: coefficients.to_vec(),
            relation,
            rhs,
        });
        Ok(())
    }

    fn check_var(&self, var: usize) -> crate::Result<()> {
        if var >= self.num_vars {
            Err(LinalgError::IndexOutOfBounds {
                index: var,
                len: self.num_vars,
            })
        } else {
            Ok(())
        }
    }
}

/// Termination status of a simplex solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Result of solving a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Termination status. [`crate::simplex::solve`] only returns
    /// `LpStatus::Optimal` solutions; the other statuses are mapped to errors.
    pub status: LpStatus,
    /// Optimal objective value in the original (min or max) sense.
    pub objective_value: f64,
    /// Optimal values of the decision variables.
    pub variables: Vec<f64>,
    /// Number of simplex pivots performed, phase 1 included.
    pub iterations: usize,
    /// The pivots of phase 1 (the search for a feasible basis) within
    /// `iterations`. Every solution of one [`crate::simplex::solve_many`]
    /// call shares them.
    pub phase1_iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_constructors() {
        assert_eq!(Bound::non_negative().lower, 0.0);
        assert!(Bound::non_negative().upper.is_infinite());
        assert!(Bound::free().lower.is_infinite());
        let b = Bound::interval(-1.0, 2.0);
        assert_eq!(b.width(), 3.0);
        assert!(b.contains(0.0));
        assert!(!b.contains(3.0));
        let f = Bound::fixed(0.45);
        assert_eq!(f.lower, f.upper);
    }

    #[test]
    #[should_panic(expected = "lower bound must not exceed upper bound")]
    fn inverted_interval_panics() {
        let _ = Bound::interval(2.0, 1.0);
    }

    #[test]
    fn program_builder_validates_indices() {
        let mut lp = LinearProgram::new(2, Objective::Minimize);
        assert!(lp.set_objective_coefficient(5, 1.0).is_err());
        assert!(lp.set_bound(3, Bound::free()).is_err());
        assert!(lp.add_less_eq(&[(7, 1.0)], 1.0).is_err());
        assert!(lp.add_less_eq(&[(0, 1.0)], 1.0).is_ok());
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.num_vars(), 2);
    }

    #[test]
    fn set_bound_rejects_nan_and_inverted() {
        let mut lp = LinearProgram::new(1, Objective::Minimize);
        assert!(lp
            .set_bound(
                0,
                Bound {
                    lower: f64::NAN,
                    upper: 1.0
                }
            )
            .is_err());
        assert!(lp
            .set_bound(
                0,
                Bound {
                    lower: 2.0,
                    upper: 1.0
                }
            )
            .is_err());
    }

    #[test]
    fn default_objective_is_minimize() {
        assert_eq!(Objective::default(), Objective::Minimize);
    }
}

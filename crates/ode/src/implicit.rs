use pathway_linalg::{LuDecomposition, Matrix, Vector};

use crate::system::validate_inputs;
use crate::{IntegrationResult, IntegrationStats, Jacobian, OdeError, OdeSystem};

/// A backward-Euler integrator with a damped Newton corrector.
///
/// Backward Euler is only first-order accurate, but it is L-stable: on stiff
/// kinetic systems it can march to steady state with step sizes thousands of
/// times larger than an explicit method would tolerate. The Jacobian is
/// approximated by forward finite differences.
///
/// The Newton loop is allocation-free after the first step: the Jacobian,
/// Newton matrix, residual and update share one workspace across all steps,
/// solves go through [`LuDecomposition::solve_into`], and the first Newton
/// iteration of each step runs a full partial-pivoting refactorization whose
/// pivot order later iterations of the same step *reuse*
/// ([`LuDecomposition::refactor_reusing_pivots`]) — the Newton matrix drifts
/// only slightly between iterations, so the old pivot order stays valid and
/// the pivot search and row swaps are skipped (with an automatic fall back
/// to a full refactorization if it does not).
///
/// # Example
///
/// ```
/// use pathway_ode::{OdeSystem, BackwardEuler};
/// use pathway_linalg::Vector;
///
/// /// A stiff decay: dy/dt = -1000 (y - cos(t)).
/// struct StiffRelaxation;
/// impl OdeSystem for StiffRelaxation {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&self, t: f64, y: &Vector, dydt: &mut Vector) {
///         dydt[0] = -1000.0 * (y[0] - t.cos());
///     }
/// }
///
/// # fn main() -> Result<(), pathway_ode::OdeError> {
/// let solver = BackwardEuler::new(0.05);
/// let result = solver.integrate(&StiffRelaxation, 0.0, Vector::from(vec![0.0]), 2.0)?;
/// // The solution relaxes onto cos(t) despite the large step.
/// assert!((result.state[0] - 2.0f64.cos()).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackwardEuler {
    step: f64,
}

impl BackwardEuler {
    /// Creates a solver with the given step size. The Newton corrector
    /// converges at a scaled residual of `1e-10` and gives up after 25
    /// iterations per step.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive and finite.
    pub fn new(step: f64) -> Self {
        assert!(
            step.is_finite() && step > 0.0,
            "step size must be positive and finite"
        );
        BackwardEuler { step }
    }
}

/// Convergence tolerance of [`BackwardEuler`]'s Newton corrector on the
/// scaled residual `‖G‖∞ / (1 + ‖y‖∞)`.
const NEWTON_TOLERANCE: f64 = 1e-10;

/// Newton iterations per [`BackwardEuler`] step before it gives up.
const MAX_NEWTON_ITERATIONS: usize = 25;

/// Buffers reused across every Newton iteration of every step, shared by
/// [`BackwardEuler`] and [`crate::PseudoTransient`].
pub(crate) struct NewtonWorkspace {
    pub(crate) jacobian: Jacobian,
    /// The assembled `dim × dim` Newton matrix, allocated on first use:
    /// a structured solve never assembles one.
    newton_matrix: Option<Matrix>,
    pub(crate) residual: Vector,
    pub(crate) delta: Vector,
    pub(crate) candidate: Vector,
    /// The LU storage (and, within a step, the pivot order) carried from
    /// solve to solve; `None` until the first factorization.
    lu: Option<LuDecomposition>,
}

impl NewtonWorkspace {
    pub(crate) fn new(dim: usize) -> Self {
        NewtonWorkspace {
            jacobian: Jacobian::new(dim),
            newton_matrix: None,
            residual: Vector::zeros(dim),
            delta: Vector::zeros(dim),
            candidate: Vector::zeros(dim),
            lu: None,
        }
    }

    /// Writes `diagonal · I − scale · J` into `newton_matrix`.
    pub(crate) fn assemble(&mut self, diagonal: f64, scale: f64) {
        let dim = self.residual.len();
        let newton_matrix = self
            .newton_matrix
            .get_or_insert_with(|| Matrix::zeros(dim, dim));
        self.jacobian.assemble(diagonal, scale, newton_matrix);
    }

    /// Solves `(diagonal · I − J) delta = residual`. A sparse-plus-rank-one
    /// `J` goes through [`crate::SparsePlusRankOne::solve`] first; a dense `J`,
    /// or a structured solve whose pivots or denominator degrade (counted
    /// in `stats.dense_fallbacks`), is assembled and factored with partial
    /// pivoting.
    pub(crate) fn solve_shifted(
        &mut self,
        diagonal: f64,
        stats: &mut IntegrationStats,
    ) -> pathway_linalg::Result<()> {
        if let Some(structured) = self.jacobian.as_sparse_plus_rank_one_mut() {
            if structured.solve(diagonal, &self.residual, &mut self.delta) {
                return Ok(());
            }
            stats.dense_fallbacks += 1;
        }
        self.assemble(diagonal, 1.0);
        self.factor(false)?;
        self.solve()
    }

    /// Factors `newton_matrix` with a full partial-pivoting LU into the
    /// carried storage, or, with `reuse_pivots`, under the previous pivot
    /// order first (falling back to a full refactorization).
    pub(crate) fn factor(&mut self, reuse_pivots: bool) -> pathway_linalg::Result<()> {
        let newton_matrix = self
            .newton_matrix
            .as_ref()
            .expect("the Newton matrix is assembled before it is factored");
        match &mut self.lu {
            None => LuDecomposition::new(newton_matrix).map(|lu| self.lu = Some(lu)),
            Some(lu) if !reuse_pivots => lu.refactor(newton_matrix),
            Some(lu) => lu
                .refactor_reusing_pivots(newton_matrix)
                .or_else(|_| lu.refactor(newton_matrix)),
        }
    }

    /// Solves the last factored system for `residual` into `delta`.
    pub(crate) fn solve(&mut self) -> pathway_linalg::Result<()> {
        self.lu
            .as_ref()
            .expect("factorization success stores the decomposition")
            .solve_into(&self.residual, &mut self.delta)
    }
}

impl BackwardEuler {
    /// Integrates `system` from `t0` with initial state `y0` until `t_end`,
    /// in steps of the configured size (the last one shortened to land on
    /// `t_end`).
    ///
    /// # Errors
    ///
    /// * [`OdeError::DimensionMismatch`] if `y0.len() != system.dim()`.
    /// * [`OdeError::InvalidParameter`] for a non-finite or reversed span.
    /// * [`OdeError::NonFiniteState`] if the state blows up.
    /// * [`OdeError::NewtonDivergence`] if a step's corrector fails.
    pub fn integrate<S: OdeSystem>(
        &self,
        system: &S,
        t0: f64,
        y0: Vector,
        t_end: f64,
    ) -> crate::Result<IntegrationResult> {
        validate_inputs(system, &y0, t0, t_end)?;
        let dim = system.dim();
        let mut stats = IntegrationStats::new();
        let mut t = t0;
        let mut y = y0;
        let mut f = Vector::zeros(dim);
        let mut ws = NewtonWorkspace::new(dim);

        while t < t_end {
            let h = self.step.min(t_end - t);
            let t_new = t + h;

            // Newton iteration for y_new solving: G(y_new) = y_new - y - h f(t_new, y_new) = 0.
            let mut y_new = y.clone();
            // Predictor: explicit Euler.
            system.rhs(t, &y, &mut f);
            stats.rhs_evaluations += 1;
            y_new
                .axpy_mut(h, &f)
                .expect("dimensions match by construction");

            let mut converged = false;
            for iteration in 0..MAX_NEWTON_ITERATIONS {
                system.rhs(t_new, &y_new, &mut f);
                stats.rhs_evaluations += 1;
                stats.newton_iterations += 1;

                // Residual G = y_new - y - h f.
                for i in 0..dim {
                    ws.residual[i] = y_new[i] - y[i] - h * f[i];
                }
                if ws.residual.norm_inf() <= NEWTON_TOLERANCE * (1.0 + y_new.norm_inf()) {
                    converged = true;
                    break;
                }

                // Jacobian of G: I - h J, built in place from dense forward
                // differences (never the system's own Jacobian hook: this
                // march is the reference the hook is checked against).
                stats.rhs_evaluations += ws.jacobian.difference_dense(system, t_new, &y_new, &f);
                stats.jacobian_evaluations += 1;
                ws.assemble(1.0, h);
                // Factor: full pivoting on the first iteration of the step,
                // pivot reuse afterwards (the Newton matrix drifts slowly
                // within a step), full refactorization as the fallback.
                let solved = ws.factor(iteration > 0).and_then(|()| ws.solve());
                if solved.is_err() {
                    return Err(OdeError::NewtonDivergence {
                        time: t_new,
                        iterations: stats.newton_iterations,
                    });
                }
                // Damped update: full step unless it would blow up.
                let mut damping = 1.0;
                loop {
                    ws.candidate
                        .as_mut_slice()
                        .copy_from_slice(y_new.as_slice());
                    ws.candidate
                        .axpy_mut(-damping, &ws.delta)
                        .expect("dimensions match");
                    if ws.candidate.is_finite() {
                        std::mem::swap(&mut y_new, &mut ws.candidate);
                        break;
                    }
                    damping *= 0.5;
                    if damping < 1e-4 {
                        return Err(OdeError::NewtonDivergence {
                            time: t_new,
                            iterations: stats.newton_iterations,
                        });
                    }
                }
            }

            if !converged {
                return Err(OdeError::NewtonDivergence {
                    time: t_new,
                    iterations: stats.newton_iterations,
                });
            }
            if !y_new.is_finite() {
                return Err(OdeError::NonFiniteState { time: t_new });
            }

            y = y_new;
            t = t_new;
            system.project(t, &mut y);
            stats.steps_accepted += 1;
        }

        Ok(IntegrationResult {
            time: t_end,
            state: y,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::test_systems::{Decay, Logistic, StiffLinear};

    #[test]
    fn decay_converges_to_analytic_solution_with_small_steps() {
        let result = BackwardEuler::new(1e-3)
            .integrate(&Decay { k: 1.0 }, 0.0, Vector::from(vec![1.0]), 1.0)
            .unwrap();
        assert!((result.state[0] - (-1.0f64).exp()).abs() < 1e-3);
    }

    #[test]
    fn stiff_system_is_stable_with_large_steps() {
        // Explicit RK4 with h = 0.01 would blow up (eigenvalue -1000).
        let result = BackwardEuler::new(0.01)
            .integrate(&StiffLinear, 0.0, Vector::from(vec![1.0, 1.0]), 10.0)
            .unwrap();
        assert!(result.state[0].abs() < 1e-2);
        assert!((result.state[1] - (-5.0f64).exp()).abs() < 1e-2);
    }

    #[test]
    fn newton_counters_are_populated() {
        let result = BackwardEuler::new(0.1)
            .integrate(&Decay { k: 1.0 }, 0.0, Vector::from(vec![1.0]), 1.0)
            .unwrap();
        assert!(result.stats.newton_iterations >= result.stats.steps_accepted);
        assert!(result.stats.jacobian_evaluations > 0);
    }

    #[test]
    fn steps_land_on_the_end_time() {
        // 0.3 does not divide [0, 1]: three full steps and a closing 0.1
        // step. Backward Euler on decay multiplies by 1 / (1 + h) per step.
        // A zero-length span takes no step.
        let full = 1.0 / (1.3f64.powi(3) * 1.1);
        for (t0, t_end, y0, steps, expected) in [(0.0, 1.0, 1.0, 4, full), (2.0, 2.0, 3.0, 0, 3.0)]
        {
            let result = BackwardEuler::new(0.3)
                .integrate(&Decay { k: 1.0 }, t0, Vector::from(vec![y0]), t_end)
                .unwrap();
            assert_eq!(result.time, t_end);
            assert_eq!(result.stats.steps_accepted, steps);
            assert!((result.state[0] - expected).abs() < 1e-9, "{result:?}");
        }
    }

    #[test]
    fn projection_is_applied_after_every_step() {
        // Near y = 1 the explicit predictor overshoots the carrying capacity
        // by less than the Newton tolerance and is accepted as it stands
        // (first at t = 7.5 here); only the projection brings it back into
        // [0, 1].
        let solver = BackwardEuler::new(0.5);
        for k in 1..=40 {
            let t_end = 0.5 * f64::from(k);
            let result = solver
                .integrate(&Logistic { r: 10.0 }, 0.0, Vector::from(vec![0.5]), t_end)
                .unwrap();
            let y = result.state[0];
            assert!((0.0..=1.0).contains(&y), "y({t_end}) = {y}");
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let err = BackwardEuler::new(0.1)
            .integrate(&StiffLinear, 0.0, Vector::from(vec![1.0]), 1.0)
            .unwrap_err();
        assert!(matches!(err, OdeError::DimensionMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "step size must be positive")]
    fn non_positive_step_panics() {
        let _ = BackwardEuler::new(-0.5);
    }
}

use pathway_linalg::{LuDecomposition, Matrix, Vector};

use crate::system::validate_inputs;
use crate::{IntegrationResult, IntegrationStats, Integrator, OdeError, OdeSystem};

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
/// use pathway_ode::{OdeSystem, BackwardEuler, Integrator};
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
    newton_tol: f64,
    max_newton_iterations: usize,
}

impl BackwardEuler {
    /// Creates a solver with the given step size and default Newton settings
    /// (tolerance `1e-10`, at most 25 iterations per step).
    ///
    /// # Panics
    ///
    /// Panics if `step` is not strictly positive and finite.
    pub fn new(step: f64) -> Self {
        assert!(
            step.is_finite() && step > 0.0,
            "step size must be positive and finite"
        );
        BackwardEuler {
            step,
            newton_tol: 1e-10,
            max_newton_iterations: 25,
        }
    }

    /// Overrides the Newton convergence tolerance.
    #[must_use]
    pub fn with_newton_tolerance(mut self, tol: f64) -> Self {
        self.newton_tol = tol;
        self
    }

    /// Overrides the maximum number of Newton iterations per step.
    #[must_use]
    pub fn with_max_newton_iterations(mut self, iterations: usize) -> Self {
        self.max_newton_iterations = iterations;
        self
    }

    /// The configured step size.
    pub fn step(&self) -> f64 {
        self.step
    }
}

/// Relative perturbation of the forward-difference Jacobian.
const JACOBIAN_EPSILON: f64 = 1e-7;

/// Buffers reused across every Newton iteration of every step, shared by
/// [`BackwardEuler`] and [`crate::PseudoTransient`].
pub(crate) struct NewtonWorkspace {
    jac: Matrix,
    newton_matrix: Matrix,
    pub(crate) residual: Vector,
    pub(crate) delta: Vector,
    pub(crate) candidate: Vector,
    perturbed: Vector,
    pub(crate) f1: Vector,
    /// The LU storage (and, within a step, the pivot order) carried from
    /// solve to solve; `None` until the first factorization.
    lu: Option<LuDecomposition>,
}

impl NewtonWorkspace {
    pub(crate) fn new(dim: usize) -> Self {
        NewtonWorkspace {
            jac: Matrix::zeros(dim, dim),
            newton_matrix: Matrix::zeros(dim, dim),
            residual: Vector::zeros(dim),
            delta: Vector::zeros(dim),
            candidate: Vector::zeros(dim),
            perturbed: Vector::zeros(dim),
            f1: Vector::zeros(dim),
            lu: None,
        }
    }

    /// Forward-difference Jacobian of the right-hand side at `(t, y)`, whose
    /// value there is `f0`, written into `jac` (no allocation).
    pub(crate) fn jacobian<S: OdeSystem>(
        &mut self,
        system: &S,
        t: f64,
        y: &Vector,
        f0: &Vector,
        stats: &mut IntegrationStats,
    ) {
        let dim = system.dim();
        self.perturbed.as_mut_slice().copy_from_slice(y.as_slice());
        for j in 0..dim {
            let h = JACOBIAN_EPSILON * (1.0 + y[j].abs());
            self.perturbed[j] = y[j] + h;
            system.rhs(t, &self.perturbed, &mut self.f1);
            stats.rhs_evaluations += 1;
            let jac = self.jac.as_mut_slice();
            for i in 0..dim {
                jac[i * dim + j] = (self.f1[i] - f0[i]) / h;
            }
            self.perturbed[j] = y[j];
        }
        stats.jacobian_evaluations += 1;
    }

    /// Writes `diagonal · I − scale · J` into `newton_matrix`.
    pub(crate) fn assemble(&mut self, diagonal: f64, scale: f64) {
        let dim = self.jac.rows();
        let nm = self.newton_matrix.as_mut_slice();
        for (dst, &src) in nm.iter_mut().zip(self.jac.as_slice()) {
            *dst = -scale * src;
        }
        for i in 0..dim {
            nm[i * dim + i] += diagonal;
        }
    }

    /// Factors `newton_matrix` with a full partial-pivoting LU into the
    /// carried storage, or, with `reuse_pivots`, under the previous pivot
    /// order first (falling back to a full refactorization).
    pub(crate) fn factor(&mut self, reuse_pivots: bool) -> pathway_linalg::Result<()> {
        match &mut self.lu {
            None => LuDecomposition::new(&self.newton_matrix).map(|lu| self.lu = Some(lu)),
            Some(lu) if !reuse_pivots => lu.refactor(&self.newton_matrix),
            Some(lu) => lu
                .refactor_reusing_pivots(&self.newton_matrix)
                .or_else(|_| lu.refactor(&self.newton_matrix)),
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

impl Integrator for BackwardEuler {
    fn integrate<S: OdeSystem>(
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
            for iteration in 0..self.max_newton_iterations {
                system.rhs(t_new, &y_new, &mut f);
                stats.rhs_evaluations += 1;
                stats.newton_iterations += 1;

                // Residual G = y_new - y - h f.
                for i in 0..dim {
                    ws.residual[i] = y_new[i] - y[i] - h * f[i];
                }
                if ws.residual.norm_inf() <= self.newton_tol * (1.0 + y_new.norm_inf()) {
                    converged = true;
                    break;
                }

                // Jacobian of G: I - h J, built in place.
                ws.jacobian(system, t_new, &y_new, &f, &mut stats);
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
    use crate::system::test_systems::{Decay, StiffLinear};

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
    fn builder_overrides_are_applied() {
        let solver = BackwardEuler::new(0.1)
            .with_newton_tolerance(1e-6)
            .with_max_newton_iterations(3);
        assert_eq!(solver.step(), 0.1);
        // Still solves an easy problem with the reduced iteration budget.
        let result = solver
            .integrate(&Decay { k: 1.0 }, 0.0, Vector::from(vec![1.0]), 0.5)
            .unwrap();
        assert!(result.state[0] > 0.0);
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

use pathway_linalg::Vector;

use crate::implicit::NewtonWorkspace;
use crate::system::validate_inputs;
use crate::{IntegrationStats, OdeError, OdeSystem};

/// A steady-state point of an ODE system.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    /// Steady-state state vector.
    pub state: Vector,
    /// Scaled residual `‖f(y)‖∞ / (1 + ‖y‖∞)` at the reported state.
    pub residual: f64,
    /// Accumulated solver statistics.
    pub stats: IntegrationStats,
}

/// Finds a steady state `f(y) = 0` of an autonomous system by
/// pseudo-transient continuation (Kelley & Keyes, *Convergence analysis of
/// pseudo-transient continuation*, SIAM J. Numer. Anal. 35(2), 1998).
///
/// Each step is one linearized backward-Euler step in pseudo-time: it solves
/// `(I/dt − J) δ = f(y)` with a fresh Jacobian `J` from
/// [`OdeSystem::jacobian`], sets `y += δ` and applies
/// [`OdeSystem::project`]. A dense `J` (the default, forward differences) is
/// factored with partial pivoting; a sparse-plus-rank-one `J = S + u·gᵀ` is
/// solved by Sherman–Morrison against a static-pivot LU of `I/dt − S`,
/// falling back to the dense factorization of the assembled matrix when a
/// pivot or the denominator degrades ([`crate::SparsePlusRankOne::solve`]).
/// The pseudo-time step grows by
/// switched evolution relaxation, `dt ← dt · ‖f_old‖ / ‖f_new‖`, so the
/// early steps follow the trajectory and, as the residual falls, the steps
/// turn into Newton steps on `f(y) = 0`. A failed factorization or a
/// non-finite trial state divides `dt` by 4 and retries; every attempt
/// counts against the step budget.
///
/// SER keeps `dt · ‖f‖` near its initial value, so `step` should suit the
/// start: from a small residual far from the root (near an unstable
/// equilibrium) the steps stay short while the residual grows.
///
/// The solve converges when the scaled residual `‖f‖∞ / (1 + ‖y‖∞)` is at
/// most the tolerance. Unlike a stopping test on the change of the state, it
/// does not stop on a slowly drifting point that is not a steady state.
///
/// Right-hand sides are evaluated at `t = 0`: the system is taken as
/// autonomous.
///
/// # Example
///
/// ```
/// use pathway_ode::{OdeSystem, PseudoTransient};
/// use pathway_linalg::Vector;
///
/// /// Relaxation towards y = 3.
/// struct Relax;
/// impl OdeSystem for Relax {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) { dydt[0] = 3.0 - y[0]; }
/// }
///
/// # fn main() -> Result<(), pathway_ode::OdeError> {
/// let solver = PseudoTransient::new(0.1, 1e-10, 100);
/// let steady = solver.solve(&Relax, Vector::from(vec![0.0]))?;
/// assert!((steady.state[0] - 3.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PseudoTransient {
    step: f64,
    tolerance: f64,
    max_steps: usize,
}

impl PseudoTransient {
    /// Creates a solver with initial pseudo-time step `step`, convergence
    /// tolerance `tolerance` on the scaled residual, and a budget of
    /// `max_steps` attempted steps.
    pub fn new(step: f64, tolerance: f64, max_steps: usize) -> Self {
        PseudoTransient {
            step,
            tolerance,
            max_steps,
        }
    }

    /// The initial pseudo-time step of a solve from the reference state.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Solves for a steady state from `y0`, starting at pseudo-time step
    /// [`PseudoTransient::step`].
    ///
    /// # Errors
    ///
    /// * [`OdeError::InvalidParameter`] if the step or tolerance is not
    ///   strictly positive, or the budget is zero.
    /// * [`OdeError::DimensionMismatch`] or [`OdeError::NonFiniteState`] for
    ///   a bad `y0`.
    /// * [`OdeError::SteadyStateNotReached`] if the budget runs out.
    pub fn solve<S: OdeSystem>(&self, system: &S, y0: Vector) -> crate::Result<SteadyState> {
        self.run(system, y0, None)
    }

    /// Solves for a steady state from `y0`, scaling the first pseudo-time
    /// step as if the solve had come from `reference`:
    /// `dt₀ = step · ‖f(reference)‖ / ‖f(y0)‖`. A warm start close to its
    /// root then begins close to a Newton step, while [`PseudoTransient::step`]
    /// stays calibrated for the cold start `reference`.
    ///
    /// # Errors
    ///
    /// Same as [`PseudoTransient::solve`]; `reference` must have the system's
    /// dimension.
    pub fn solve_from<S: OdeSystem>(
        &self,
        system: &S,
        y0: Vector,
        reference: &Vector,
    ) -> crate::Result<SteadyState> {
        validate_inputs(system, reference, 0.0, 0.0)?;
        self.run(system, y0, Some(reference))
    }

    fn run<S: OdeSystem>(
        &self,
        system: &S,
        y0: Vector,
        reference: Option<&Vector>,
    ) -> crate::Result<SteadyState> {
        if !crate::is_strictly_positive(self.step) || !crate::is_strictly_positive(self.tolerance) {
            return Err(OdeError::InvalidParameter(
                "pseudo-transient step and tolerance must be positive".into(),
            ));
        }
        if self.max_steps == 0 {
            return Err(OdeError::InvalidParameter(
                "pseudo-transient step budget must be positive".into(),
            ));
        }
        validate_inputs(system, &y0, 0.0, 0.0)?;

        let dim = system.dim();
        let mut stats = IntegrationStats::new();
        let mut ws = NewtonWorkspace::new(dim);
        let mut y = y0;
        let mut f = Vector::zeros(dim);
        system.rhs(0.0, &y, &mut f);
        stats.rhs_evaluations += 1;
        let mut norm = f.norm_inf();
        let mut dt = self.step;
        if let Some(reference) = reference {
            system.rhs(0.0, reference, &mut ws.f1);
            stats.rhs_evaluations += 1;
            let scaled = self.step * ws.f1.norm_inf() / norm;
            if scaled.is_finite() && scaled > 0.0 {
                dt = scaled;
            }
        }
        let mut f_trial = Vector::zeros(dim);
        // The Jacobian at `y`; a rejected step retries with the same one.
        let mut jacobian_current = false;

        loop {
            let residual = norm / (1.0 + y.norm_inf());
            if residual <= self.tolerance {
                return Ok(SteadyState {
                    state: y,
                    residual,
                    stats,
                });
            }
            if stats.steps_attempted() >= self.max_steps {
                return Err(OdeError::SteadyStateNotReached { residual, stats });
            }

            if !jacobian_current {
                stats.rhs_evaluations += system.jacobian(0.0, &y, &f, &mut ws.jacobian);
                stats.jacobian_evaluations += 1;
                jacobian_current = true;
            }
            ws.residual.as_mut_slice().copy_from_slice(f.as_slice());
            stats.newton_iterations += 1;
            if ws.solve_shifted(1.0 / dt, &mut stats).is_ok() {
                ws.candidate.as_mut_slice().copy_from_slice(y.as_slice());
                ws.candidate
                    .axpy_mut(1.0, &ws.delta)
                    .expect("dimensions match by construction");
                system.project(0.0, &mut ws.candidate);
                if ws.candidate.is_finite() {
                    system.rhs(0.0, &ws.candidate, &mut f_trial);
                    stats.rhs_evaluations += 1;
                    if f_trial.is_finite() {
                        let trial_norm = f_trial.norm_inf();
                        dt *= norm / trial_norm;
                        norm = trial_norm;
                        std::mem::swap(&mut y, &mut ws.candidate);
                        std::mem::swap(&mut f, &mut f_trial);
                        jacobian_current = false;
                        stats.steps_accepted += 1;
                        continue;
                    }
                }
            }
            dt /= 4.0;
            stats.steps_rejected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::test_systems::{Decay, Logistic, StiffLinear};

    struct Relax {
        target: f64,
    }

    impl OdeSystem for Relax {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
            dydt[0] = self.target - y[0];
        }
    }

    /// `dy/dt = 1 + y²`: no real root, so no steady state.
    struct Runaway;

    impl OdeSystem for Runaway {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
            dydt[0] = 1.0 + y[0] * y[0];
        }
    }

    fn solver() -> PseudoTransient {
        PseudoTransient::new(0.1, 1e-10, 400)
    }

    #[test]
    fn relaxation_reaches_its_target() {
        let steady = solver()
            .solve(&Relax { target: 5.0 }, Vector::from(vec![0.0]))
            .unwrap();
        assert!((steady.state[0] - 5.0).abs() < 1e-8);
        assert!(steady.residual <= 1e-10);
        assert!(steady.stats.steps_accepted > 0);
    }

    #[test]
    fn decay_reaches_zero() {
        let steady = solver()
            .solve(&Decay { k: 0.7 }, Vector::from(vec![10.0]))
            .unwrap();
        assert!(steady.state[0].abs() < 1e-9);
    }

    #[test]
    fn logistic_growth_saturates_at_carrying_capacity() {
        let steady = solver()
            .solve(&Logistic { r: 2.0 }, Vector::from(vec![0.2]))
            .unwrap();
        assert!((steady.state[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn logistic_growth_from_next_to_the_unstable_root_creeps() {
        // From y = 0.01, next to the unstable root y = 0, SER holds each
        // step near dt₀·‖f(y₀)‖ = 0.1 · 0.0198 until the residual peaks at
        // y = 0.5: the solve creeps through 400 steps without settling and
        // needs about 500 (measured 506).
        let logistic = Logistic { r: 2.0 };
        let err = solver()
            .solve(&logistic, Vector::from(vec![0.01]))
            .unwrap_err();
        match err {
            OdeError::SteadyStateNotReached { residual, stats } => {
                assert_eq!(stats.steps_attempted(), 400);
                assert!(residual > 0.1, "still far from the root: {residual}");
            }
            other => panic!("expected SteadyStateNotReached, got {other:?}"),
        }
        let steady = PseudoTransient::new(0.1, 1e-10, 1000)
            .solve(&logistic, Vector::from(vec![0.01]))
            .unwrap();
        assert!((steady.state[0] - 1.0).abs() < 1e-9);
        let steps = steady.stats.steps_attempted();
        assert!((480..=530).contains(&steps), "{steps} steps");
    }

    #[test]
    fn implicit_integrator_also_reaches_steady_state() {
        // A fast mode at rate 1000: the implicit pseudo-time steps stay
        // stable at step sizes an explicit march could not take.
        let steady = PseudoTransient::new(1.0, 1e-12, 100)
            .solve(&StiffLinear, Vector::from(vec![1.0, 1.0]))
            .unwrap();
        assert!(steady.state.norm_inf() < 1e-9);
    }

    #[test]
    fn a_system_without_a_steady_state_exhausts_the_budget() {
        let err = PseudoTransient::new(0.1, 1e-10, 30)
            .solve(&Runaway, Vector::from(vec![0.0]))
            .unwrap_err();
        match err {
            OdeError::SteadyStateNotReached { stats, residual } => {
                assert_eq!(stats.steps_attempted(), 30);
                assert!(residual > 1e-10);
            }
            other => panic!("expected SteadyStateNotReached, got {other:?}"),
        }
    }

    #[test]
    fn invalid_options_are_rejected() {
        for solver in [
            PseudoTransient::new(0.0, 1e-8, 10),
            PseudoTransient::new(f64::NAN, 1e-8, 10),
            PseudoTransient::new(0.1, 0.0, 10),
            PseudoTransient::new(0.1, 1e-8, 0),
        ] {
            assert!(matches!(
                solver.solve(&Decay { k: 1.0 }, Vector::from(vec![1.0])),
                Err(OdeError::InvalidParameter(_))
            ));
        }
        assert!(matches!(
            solver().solve(&Decay { k: 1.0 }, Vector::from(vec![1.0, 2.0])),
            Err(OdeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn stats_count_one_jacobian_and_one_trial_per_step() {
        let steady = solver()
            .solve(&Relax { target: 1.0 }, Vector::from(vec![0.0]))
            .unwrap();
        let stats = steady.stats;
        assert_eq!(stats.steps_rejected, 0);
        assert_eq!(stats.jacobian_evaluations, stats.steps_accepted);
        assert_eq!(stats.newton_iterations, stats.steps_accepted);
        // The initial residual, then one Jacobian column and one trial per step.
        assert_eq!(stats.rhs_evaluations, 1 + 2 * stats.steps_accepted);
    }

    #[test]
    fn step_size_grows_into_newton_steps() {
        // Each step divides the residual by 1 + dt, so a march at dt = 0.1
        // needs 242 steps to reach 1e-10. Under SER dt grows as dt (1 + dt)
        // and the steps become exact Newton steps on this linear system.
        let steady = solver()
            .solve(&Relax { target: 1.0 }, Vector::from(vec![0.0]))
            .unwrap();
        assert!(steady.stats.steps_accepted <= 20, "{:?}", steady.stats);
    }

    #[test]
    fn a_warm_start_begins_with_a_near_newton_step() {
        let cold = Vector::from(vec![0.0]);
        let near = Vector::from(vec![1.0 - 1e-6]);
        let steady = solver()
            .solve_from(&Relax { target: 1.0 }, near, &cold)
            .unwrap();
        // dt₀ = 0.1 · 1 / 1e-6: the first step is Newton to within 1e-5.
        assert_eq!(steady.stats.steps_accepted, 1);
        assert!((steady.state[0] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn projection_is_applied_to_every_trial() {
        // Logistic clamps to [0, 1]; the first trial from 0.99 with a large
        // step would overshoot past 1 without the projection.
        let steady = PseudoTransient::new(100.0, 1e-12, 100)
            .solve(&Logistic { r: 2.0 }, Vector::from(vec![0.99]))
            .unwrap();
        assert!(steady.state[0] <= 1.0);
        assert!((steady.state[0] - 1.0).abs() < 1e-12);
    }
}

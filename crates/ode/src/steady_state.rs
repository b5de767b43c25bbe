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

    /// A solve from a state whose right-hand side has max-norm
    /// `residual_norm`, one right-hand-side call already counted, at the
    /// initial pseudo-time step. [`PseudoTransientSolve::run`] finishes it
    /// on the scalar path; a lane-batched caller drives its
    /// [`PseudoTransientSolve::advance`] and
    /// [`PseudoTransientSolve::decide`] itself.
    ///
    /// # Errors
    ///
    /// [`OdeError::InvalidParameter`] if the step or tolerance is not
    /// strictly positive, or the budget is zero.
    pub fn begin(&self, residual_norm: f64) -> crate::Result<PseudoTransientSolve> {
        self.validate()?;
        Ok(PseudoTransientSolve {
            dt: self.step,
            norm: residual_norm,
            tolerance: self.tolerance,
            max_steps: self.max_steps,
            jacobian_current: false,
            stats: IntegrationStats {
                rhs_evaluations: 1,
                ..IntegrationStats::new()
            },
        })
    }

    fn validate(&self) -> crate::Result<()> {
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
        Ok(())
    }

    fn run<S: OdeSystem>(
        &self,
        system: &S,
        y0: Vector,
        reference: Option<&Vector>,
    ) -> crate::Result<SteadyState> {
        self.validate()?;
        validate_inputs(system, &y0, 0.0, 0.0)?;

        let dim = system.dim();
        let mut f = Vector::zeros(dim);
        system.rhs(0.0, &y0, &mut f);
        let mut solve = self.begin(f.norm_inf())?;
        if let Some(reference) = reference {
            let mut f_reference = Vector::zeros(dim);
            system.rhs(0.0, reference, &mut f_reference);
            solve.stats.rhs_evaluations += 1;
            let scaled = self.step * f_reference.norm_inf() / solve.norm;
            if scaled.is_finite() && scaled > 0.0 {
                solve.dt = scaled;
            }
        }
        solve.run(system, y0, f)
    }
}

/// One pseudo-transient solve in progress: its pseudo-time step, the
/// max-norm of the residual at its state, its work, and whether it holds
/// the Jacobian at that state. It carries the whole step rule of
/// [`PseudoTransient`], in two methods: [`PseudoTransientSolve::advance`]
/// (the scaled-residual test and the step budget) before a step, and
/// [`PseudoTransientSolve::decide`] (switched evolution relaxation, or
/// reject and divide by 4) after it. The scalar loop
/// ([`PseudoTransientSolve::run`]) and every lane of a lane-batched solve
/// call them, so a change to the rule is made here once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PseudoTransientSolve {
    dt: f64,
    norm: f64,
    tolerance: f64,
    max_steps: usize,
    jacobian_current: bool,
    stats: IntegrationStats,
}

/// What [`PseudoTransientSolve::advance`] decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Advance {
    /// Take a step: solve `(diagonal·I − J) δ = f(y)`, with the Jacobian
    /// `J` at `y` filled first if `fresh_jacobian` (otherwise the one the
    /// rejected step used still holds), try `y + δ`, and hand the outcome
    /// to [`PseudoTransientSolve::decide`].
    Step {
        /// `1 / dt`.
        diagonal: f64,
        /// Whether the Jacobian must be filled (and was counted).
        fresh_jacobian: bool,
    },
    /// The scaled residual is within the tolerance: `y` is the steady
    /// state.
    Settled {
        /// `‖f(y)‖∞ / (1 + ‖y‖∞)`.
        residual: f64,
    },
    /// The step budget ran out first.
    Exhausted {
        /// `‖f(y)‖∞ / (1 + ‖y‖∞)`.
        residual: f64,
    },
}

impl PseudoTransientSolve {
    /// Decides the next move at a state of max-norm `state_norm`: settled
    /// when the scaled residual `‖f‖∞ / (1 + ‖y‖∞)` is at most the
    /// tolerance, exhausted when the budget of attempted steps is spent,
    /// and otherwise a step, whose Jacobian (when fresh) and Newton
    /// iteration it counts.
    #[inline]
    pub fn advance(&mut self, state_norm: f64) -> Advance {
        let residual = self.norm / (1.0 + state_norm);
        if residual <= self.tolerance {
            return Advance::Settled { residual };
        }
        if self.stats.steps_attempted() >= self.max_steps {
            return Advance::Exhausted { residual };
        }
        let fresh_jacobian = !self.jacobian_current;
        if fresh_jacobian {
            self.stats.jacobian_evaluations += 1;
            self.jacobian_current = true;
        }
        self.stats.newton_iterations += 1;
        Advance::Step {
            diagonal: 1.0 / self.dt,
            fresh_jacobian,
        }
    }

    /// Decides the step [`PseudoTransientSolve::advance`] asked for, given
    /// the max-norm of the right-hand side at the trial state, or `None`
    /// when the Newton solve failed or the trial state or its right-hand
    /// side is not finite. An accepted trial grows the step by switched
    /// evolution relaxation, `dt ← dt · ‖f_old‖ / ‖f_new‖`, and makes the
    /// Jacobian stale; a rejected one divides the step by 4. Returns
    /// whether the trial was accepted: the caller then moves to it.
    #[inline]
    pub fn decide(&mut self, trial_norm: Option<f64>) -> bool {
        match trial_norm {
            Some(trial_norm) => {
                self.dt *= self.norm / trial_norm;
                self.norm = trial_norm;
                self.jacobian_current = false;
                self.stats.steps_accepted += 1;
                true
            }
            None => {
                self.dt /= 4.0;
                self.stats.steps_rejected += 1;
                false
            }
        }
    }

    /// The work so far.
    pub fn stats(&self) -> IntegrationStats {
        self.stats
    }

    /// The work so far, for the caller to count the right-hand-side calls
    /// and dense fallbacks it makes.
    pub fn stats_mut(&mut self) -> &mut IntegrationStats {
        &mut self.stats
    }

    /// Finishes the solve on the scalar path from state `y`, where the
    /// right-hand side is `f`. A solve that holds its Jacobian as current
    /// (a lane handed over after a rejected step) fills it again, uncounted:
    /// it is a function of `y` alone.
    ///
    /// # Errors
    ///
    /// [`OdeError::SteadyStateNotReached`] if the budget runs out.
    pub fn run<S: OdeSystem>(
        mut self,
        system: &S,
        mut y: Vector,
        mut f: Vector,
    ) -> crate::Result<SteadyState> {
        let dim = system.dim();
        let mut ws = NewtonWorkspace::new(dim);
        let mut f_trial = Vector::zeros(dim);
        let mut filled = false;
        loop {
            let (diagonal, fresh_jacobian) = match self.advance(y.norm_inf()) {
                Advance::Step {
                    diagonal,
                    fresh_jacobian,
                } => (diagonal, fresh_jacobian),
                Advance::Settled { residual } => {
                    return Ok(SteadyState {
                        state: y,
                        residual,
                        stats: self.stats,
                    })
                }
                Advance::Exhausted { residual } => {
                    return Err(OdeError::SteadyStateNotReached {
                        residual,
                        stats: self.stats,
                    })
                }
            };
            if fresh_jacobian || !filled {
                let calls = system.jacobian(0.0, &y, &f, &mut ws.jacobian);
                if fresh_jacobian {
                    self.stats.rhs_evaluations += calls;
                }
                filled = true;
            }
            ws.residual.as_mut_slice().copy_from_slice(f.as_slice());
            let mut trial_norm = None;
            if ws.solve_shifted(diagonal, &mut self.stats).is_ok() {
                ws.candidate.as_mut_slice().copy_from_slice(y.as_slice());
                ws.candidate
                    .axpy_mut(1.0, &ws.delta)
                    .expect("dimensions match by construction");
                system.project(0.0, &mut ws.candidate);
                if ws.candidate.is_finite() {
                    system.rhs(0.0, &ws.candidate, &mut f_trial);
                    self.stats.rhs_evaluations += 1;
                    if f_trial.is_finite() {
                        trial_norm = Some(f_trial.norm_inf());
                    }
                }
            }
            if self.decide(trial_norm) {
                std::mem::swap(&mut y, &mut ws.candidate);
                std::mem::swap(&mut f, &mut f_trial);
            }
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

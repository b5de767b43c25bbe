use pathway_linalg::Vector;

use crate::{IntegrationStats, Jacobian, OdeError};

/// A first-order ODE system `dy/dt = f(t, y)`.
///
/// Implementors describe the right-hand side of the system; the solvers in
/// this crate do the stepping. The photosynthesis model in
/// `pathway-photosynthesis` implements this trait for its metabolite pools.
///
/// # Example
///
/// ```
/// use pathway_ode::OdeSystem;
/// use pathway_linalg::Vector;
///
/// /// A damped harmonic oscillator: y'' = -y - 0.1 y'.
/// struct Oscillator;
///
/// impl OdeSystem for Oscillator {
///     fn dim(&self) -> usize { 2 }
///     fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
///         dydt[0] = y[1];
///         dydt[1] = -y[0] - 0.1 * y[1];
///     }
/// }
/// ```
pub trait OdeSystem {
    /// Number of state variables.
    fn dim(&self) -> usize;

    /// Evaluates the derivative `dydt = f(t, y)`.
    ///
    /// `dydt` has length [`OdeSystem::dim`] and may contain stale values on
    /// entry; implementations must overwrite every component.
    fn rhs(&self, t: f64, y: &Vector, dydt: &mut Vector);

    /// Optional projection applied to every new state: after each
    /// [`crate::BackwardEuler`] step and to each [`crate::PseudoTransient`]
    /// trial, before it is accepted or rejected.
    ///
    /// The default implementation does nothing. Models with physical
    /// positivity constraints (metabolite concentrations cannot go negative)
    /// override this to clamp the state.
    fn project(&self, _t: f64, _y: &mut Vector) {}

    /// Writes the Jacobian of the right-hand side at `(t, y)`, where it
    /// equals `f`, into `jacobian`, and returns the right-hand-side calls
    /// made. [`crate::PseudoTransient`] calls it once per accepted step.
    ///
    /// The default is the dense forward-difference Jacobian
    /// ([`Jacobian::difference_dense`]), one call per state variable. A
    /// system that knows its structure can fill the sparse-plus-rank-one
    /// form instead ([`Jacobian::sparse_plus_rank_one`]), which costs a call
    /// per column group and makes the Newton solve sparse.
    /// [`crate::BackwardEuler`], the reference march, never calls this hook
    /// and always differences densely.
    fn jacobian(&self, t: f64, y: &Vector, f: &Vector, jacobian: &mut Jacobian) -> usize {
        jacobian.difference_dense(self, t, y, f)
    }
}

impl<T: OdeSystem + ?Sized> OdeSystem for &T {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn rhs(&self, t: f64, y: &Vector, dydt: &mut Vector) {
        (**self).rhs(t, y, dydt)
    }

    fn project(&self, t: f64, y: &mut Vector) {
        (**self).project(t, y)
    }

    fn jacobian(&self, t: f64, y: &Vector, f: &Vector, jacobian: &mut Jacobian) -> usize {
        (**self).jacobian(t, y, f, jacobian)
    }
}

/// Outcome of an integration over a time span.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrationResult {
    /// Final time reached (equal to the requested end time on success).
    pub time: f64,
    /// State vector at [`IntegrationResult::time`].
    pub state: Vector,
    /// Bookkeeping counters accumulated during the run.
    pub stats: IntegrationStats,
}

/// Validates that the initial state matches the system dimension and the time
/// span is sensible. Shared by both solvers; [`crate::PseudoTransient`] passes
/// the empty span `0..0`.
pub(crate) fn validate_inputs<S: OdeSystem>(
    system: &S,
    y0: &Vector,
    t0: f64,
    t_end: f64,
) -> crate::Result<()> {
    if y0.len() != system.dim() {
        return Err(OdeError::DimensionMismatch {
            expected: system.dim(),
            found: y0.len(),
        });
    }
    if !t0.is_finite() || !t_end.is_finite() {
        return Err(OdeError::InvalidParameter(
            "integration time span must be finite".into(),
        ));
    }
    if t_end < t0 {
        return Err(OdeError::InvalidParameter(format!(
            "end time {t_end} precedes start time {t0}"
        )));
    }
    if !y0.is_finite() {
        return Err(OdeError::NonFiniteState { time: t0 });
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_systems {
    //! Reference systems with known solutions, shared by solver tests.
    use super::*;

    /// `dy/dt = -k y`, solution `y0 * exp(-k t)`.
    pub struct Decay {
        pub k: f64,
    }

    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
            dydt[0] = -self.k * y[0];
        }
    }

    /// A stiff linear system: one fast mode (rate 1000) and one slow mode.
    pub struct StiffLinear;

    impl OdeSystem for StiffLinear {
        fn dim(&self) -> usize {
            2
        }
        fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
            dydt[0] = -1000.0 * y[0] + y[1];
            dydt[1] = -0.5 * y[1];
        }
    }

    /// Logistic growth towards a carrying capacity of 1.
    pub struct Logistic {
        pub r: f64,
    }

    impl OdeSystem for Logistic {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
            dydt[0] = self.r * y[0] * (1.0 - y[0]);
        }
        fn project(&self, _t: f64, y: &mut Vector) {
            y.clamp_mut(0.0, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_systems::*;
    use super::*;

    #[test]
    fn validate_inputs_accepts_good_arguments() {
        let y0 = Vector::from(vec![1.0]);
        assert!(validate_inputs(&Decay { k: 1.0 }, &y0, 0.0, 1.0).is_ok());
    }

    #[test]
    fn validate_inputs_rejects_bad_dimension() {
        let y0 = Vector::from(vec![1.0, 2.0]);
        assert!(matches!(
            validate_inputs(&Decay { k: 1.0 }, &y0, 0.0, 1.0),
            Err(OdeError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn validate_inputs_rejects_reversed_span_and_nan() {
        let y0 = Vector::from(vec![1.0]);
        assert!(validate_inputs(&Decay { k: 1.0 }, &y0, 1.0, 0.0).is_err());
        assert!(validate_inputs(&Decay { k: 1.0 }, &y0, 0.0, f64::NAN).is_err());
        let bad = Vector::from(vec![f64::NAN]);
        assert!(matches!(
            validate_inputs(&Decay { k: 1.0 }, &bad, 0.0, 1.0),
            Err(OdeError::NonFiniteState { .. })
        ));
    }

    #[test]
    fn reference_to_system_also_implements_trait() {
        fn takes_system<S: OdeSystem>(s: &S) -> usize {
            s.dim()
        }
        let decay = Decay { k: 1.0 };
        assert_eq!(takes_system(&&decay), 1);
    }

    #[test]
    fn project_default_is_noop_and_logistic_clamps() {
        let mut y = Vector::from(vec![1.7]);
        Decay { k: 1.0 }.project(0.0, &mut y);
        assert_eq!(y[0], 1.7);
        Logistic { r: 1.0 }.project(0.0, &mut y);
        assert_eq!(y[0], 1.0);
    }
}

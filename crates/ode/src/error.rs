use std::fmt;

use crate::IntegrationStats;

/// Error type for ODE integration failures.
#[derive(Debug, Clone, PartialEq)]
pub enum OdeError {
    /// A solver parameter was invalid (non-positive step, negative tolerance, ...).
    InvalidParameter(String),
    /// The state or its derivative became NaN or infinite during integration.
    NonFiniteState {
        /// Time at which the non-finite value was first observed.
        time: f64,
    },
    /// The adaptive step controller shrank the step below its minimum without
    /// meeting the error tolerance.
    StepSizeUnderflow {
        /// Time at which the controller gave up.
        time: f64,
        /// The step size at which the controller gave up.
        step: f64,
    },
    /// The hard cap on attempted steps was exhausted before reaching the end
    /// of the integration interval.
    MaxStepsExceeded {
        /// Time reached when the budget ran out.
        time: f64,
        /// Number of steps attempted (accepted + rejected).
        steps: usize,
    },
    /// The implicit corrector failed to converge.
    NewtonDivergence {
        /// Time of the failed step.
        time: f64,
        /// Number of Newton iterations attempted.
        iterations: usize,
    },
    /// The steady-state solver exhausted its step budget without converging.
    SteadyStateNotReached {
        /// The scaled residual at give-up.
        residual: f64,
        /// The work done before giving up.
        stats: IntegrationStats,
    },
    /// The initial state had a different dimension from the system.
    DimensionMismatch {
        /// Dimension declared by the system.
        expected: usize,
        /// Dimension of the supplied state.
        found: usize,
    },
}

impl fmt::Display for OdeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OdeError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            OdeError::NonFiniteState { time } => {
                write!(f, "state became non-finite at t = {time}")
            }
            OdeError::StepSizeUnderflow { time, step } => {
                write!(f, "step size underflow ({step:e}) at t = {time}")
            }
            OdeError::MaxStepsExceeded { time, steps } => {
                write!(f, "exhausted the budget of {steps} steps at t = {time}")
            }
            OdeError::NewtonDivergence { time, iterations } => {
                write!(
                    f,
                    "newton corrector diverged at t = {time} after {iterations} iterations"
                )
            }
            OdeError::SteadyStateNotReached { residual, stats } => write!(
                f,
                "steady state not reached after {} steps (residual {residual:e})",
                stats.steps_attempted()
            ),
            OdeError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "state dimension {found} does not match system dimension {expected}"
                )
            }
        }
    }
}

impl std::error::Error for OdeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OdeError::NonFiniteState { time: 1.5 };
        assert!(e.to_string().contains("1.5"));
        let e = OdeError::MaxStepsExceeded {
            time: 0.25,
            steps: 42,
        };
        assert!(e.to_string().contains("42") && e.to_string().contains("0.25"));
        let e = OdeError::DimensionMismatch {
            expected: 3,
            found: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<OdeError>();
    }
}

//! Ordinary differential equation solvers for metabolic pathway simulation.
//!
//! The C3 photosynthesis model in `pathway-photosynthesis` is a set of coupled,
//! moderately stiff ODEs whose CO₂ uptake rate is read off at a steady state.
//! The Rust ODE ecosystem is thin, so this crate hand-rolls the solvers the
//! workspace needs:
//!
//! * [`PseudoTransient`] — finds a steady state `f(y) = 0` by
//!   pseudo-transient continuation: backward-Euler steps in pseudo-time whose
//!   step grows until they are Newton steps. This is how uptake rates are
//!   evaluated.
//! * [`BackwardEuler`] — a semi-implicit first-order method with a damped
//!   Newton corrector and finite-difference Jacobian, for stiff transients.
//! * [`Rk4`] — fixed-step classical Runge–Kutta, for smooth systems with a
//!   known safe step size.
//! * [`Rkf45`] — adaptive Runge–Kutta–Fehlberg 4(5) with step-size control.
//! * [`CashKarp`] — adaptive Cash–Karp 4(5), an alternative embedded pair.
//!
//! # Example
//!
//! ```
//! use pathway_ode::{OdeSystem, Rk4, Integrator};
//! use pathway_linalg::Vector;
//!
//! /// Exponential decay dy/dt = -y.
//! struct Decay;
//! impl OdeSystem for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
//!         dydt[0] = -y[0];
//!     }
//! }
//!
//! # fn main() -> Result<(), pathway_ode::OdeError> {
//! let solver = Rk4::new(1e-3);
//! let result = solver.integrate(&Decay, 0.0, Vector::from(vec![1.0]), 1.0)?;
//! assert!((result.state[0] - (-1.0f64).exp()).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod error;
mod implicit;
mod rk4;
mod rkf45;
mod stats;
mod steady_state;
mod system;

pub use error::OdeError;
pub use implicit::BackwardEuler;
pub use rk4::Rk4;
pub use rkf45::{AdaptiveOptions, CashKarp, Rkf45};
pub use stats::IntegrationStats;
pub use steady_state::{PseudoTransient, SteadyState};
pub use system::{IntegrationResult, Integrator, OdeSystem};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, OdeError>;

/// `true` when `x` is strictly positive; false for NaN, so option validation
/// rejects NaN inputs.
pub(crate) fn is_strictly_positive(x: f64) -> bool {
    x > 0.0
}

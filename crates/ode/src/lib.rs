//! Steady-state solver for metabolic pathway simulation.
//!
//! The C3 photosynthesis model in `pathway-photosynthesis` is a set of coupled,
//! moderately stiff ODEs whose CO₂ uptake rate is read off at a steady state.
//! The Rust ODE ecosystem is thin, so this crate hand-rolls the two solvers
//! the workspace needs:
//!
//! * [`PseudoTransient`] — finds a steady state `f(y) = 0` by
//!   pseudo-transient continuation: backward-Euler steps in pseudo-time whose
//!   step grows until they are Newton steps. This is how uptake rates are
//!   evaluated. A system can supply its Jacobian as a sparse part plus a
//!   rank-one term ([`OdeSystem::jacobian`], [`SparsePlusRankOne`]), which
//!   makes each step a sparse solve. Its step rule lives in
//!   [`PseudoTransientSolve`], so a caller that steps several solves in
//!   lockstep, one per lane of `[f64; L]` ([`lanes`]), takes the scalar
//!   loop's decisions bit for bit.
//! * [`BackwardEuler`] — a semi-implicit first-order method with a damped
//!   Newton corrector and finite-difference Jacobian, for stiff transients.
//!   It is the long reference march that pins [`PseudoTransient`]'s
//!   tolerance.
//!
//! # Example
//!
//! ```
//! use pathway_ode::{OdeSystem, PseudoTransient};
//! use pathway_linalg::Vector;
//!
//! /// Exponential decay dy/dt = -y, whose steady state is y = 0.
//! struct Decay;
//! impl OdeSystem for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn rhs(&self, _t: f64, y: &Vector, dydt: &mut Vector) {
//!         dydt[0] = -y[0];
//!     }
//! }
//!
//! # fn main() -> Result<(), pathway_ode::OdeError> {
//! let solver = PseudoTransient::new(0.1, 1e-10, 100);
//! let steady = solver.solve(&Decay, Vector::from(vec![1.0]))?;
//! assert!(steady.state[0].abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod error;
mod implicit;
mod jacobian;
pub mod lanes;
mod stats;
mod steady_state;
mod system;

pub use error::OdeError;
pub use implicit::BackwardEuler;
pub use jacobian::{
    CompiledLu, Jacobian, JacobianPattern, LuFactor, LuSubstitute, SparsePlusRankOne,
};
pub use lanes::{LaneLu, SparsePlusRankOneLanes};
pub use stats::IntegrationStats;
pub use steady_state::{Advance, PseudoTransient, PseudoTransientSolve, SteadyState};
pub use system::{IntegrationResult, OdeSystem};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, OdeError>;

/// `true` when `x` is strictly positive; false for NaN, so option validation
/// rejects NaN inputs.
pub(crate) fn is_strictly_positive(x: f64) -> bool {
    x > 0.0
}

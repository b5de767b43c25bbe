//! Dense and sparse linear algebra plus a two-phase simplex linear-programming
//! solver.
//!
//! This crate is the numerical substrate of the robust metabolic pathway
//! design workspace. It is intentionally dependency-free (besides optional
//! `serde`) because the workspace reproduces a published system from scratch:
//!
//! * [`Matrix`] / [`Vector`] — dense row-major matrices and vectors with the
//!   arithmetic needed by the ODE solvers and the stoichiometric models.
//! * [`LuDecomposition`] — LU factorization with partial pivoting, used by the
//!   implicit ODE stepper and for solving small dense systems.
//! * [`CsrMatrix`] — compressed sparse row matrices for genome-scale
//!   stoichiometric matrices (hundreds of reactions).
//! * [`LinearProgram`] / [`simplex::solve`] — a two-phase primal simplex
//!   solver used by flux balance analysis, on a dense tableau of the
//!   non-basic columns (finite upper bounds become explicit `≤` rows);
//!   [`simplex::solve_many`] shares one phase 1 among several objectives.
//!
//! # Example
//!
//! ```
//! use pathway_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), pathway_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]])?;
//! let b = Vector::from(vec![1.0, 2.0]);
//! let x = a.lu()?.solve(&b)?;
//! assert!((a.mat_vec(&x)? - b).norm2() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod error;
mod lp;
mod lu;
mod matrix;
mod sparse;
mod vector;

pub mod simplex;

pub use error::LinalgError;
pub use lp::{Bound, Constraint, LinearProgram, LpSolution, LpStatus, Objective, Relation};
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use sparse::{CsrMatrix, RESIDUAL_TILE};
pub use vector::Vector;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

//! Umbrella crate for the robust-metabolic-pathway-design workspace.
//!
//! This package re-exports the workspace's public crates under one roof and
//! owns the root-level integration tests (`tests/`) and examples
//! (`examples/`). The science lives in the member crates:
//!
//! * [`linalg`] — vectors, matrices, LU, sparse storage, simplex LP;
//! * [`ode`] — the pseudo-transient steady-state solver and the
//!   backward-Euler reference march;
//! * [`moo`] — NSGA-II, MOEA/D, the PMO2 archipelago, metrics, mining,
//!   robustness ensembles;
//! * [`fba`] — flux balance analysis and the *Geobacter sulfurreducens*
//!   model;
//! * [`photosynthesis`] — the C3 leaf kinetic model, its Michaelis–Menten
//!   rate laws and nitrogen accounting, and the CO₂-uptake scenarios;
//! * [`core`] — the paper-level studies, problems, and reporting.
//!
//! ```
//! use pathway::core::prelude::*;
//!
//! let problem = LeafRedesignProblem::new(Scenario::present_low_export());
//! assert_eq!(problem.num_variables(), 23);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub use pathway_core as core;
pub use pathway_fba as fba;
pub use pathway_linalg as linalg;
pub use pathway_moo as moo;
pub use pathway_ode as ode;
pub use pathway_photosynthesis as photosynthesis;

pub use pathway_core::prelude;

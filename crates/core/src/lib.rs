//! Robust metabolic pathway design — the public API of this workspace.
//!
//! This crate reproduces the end-to-end methodology of *Design of Robust
//! Metabolic Pathways* (Umeton et al., DAC 2011):
//!
//! 1. express a metabolic redesign task as a [`pathway_moo::MultiObjectiveProblem`]
//!    — the C3 **leaf redesign** problem (maximize CO₂ uptake, minimize
//!    protein nitrogen) and the ***Geobacter sulfurreducens*** flux problem
//!    (maximize electron and biomass production near steady state);
//! 2. approximate the Pareto front with **PMO2** (an archipelago of NSGA-II
//!    islands with periodic migration), driven through the generic
//!    [`Study`] facade and the step-driven engine of
//!    [`pathway_moo::engine`] (observers, early stopping,
//!    checkpoint/resume);
//! 3. **mine** the front: closest-to-ideal, shadow minima, equally spaced
//!    representatives;
//! 4. score the mined candidates with the **robustness yield** Γ under
//!    Monte-Carlo perturbation of the design variables.
//!
//! # Quick start
//!
//! ```
//! use pathway_core::prelude::*;
//!
//! // A deliberately small study so the example runs in a few seconds.
//! let study = LeafDesignStudy::new(Scenario::present_low_export())
//!     .with_budget(24, 40)
//!     .with_robustness_trials(200);
//! let outcome = study.run(7);
//! assert!(!outcome.front.is_empty());
//! let best_uptake = outcome.max_uptake();
//! assert!(best_uptake.uptake > Scenario::NATURAL_UPTAKE * 0.8);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod design;
mod geobacter_problem;
mod job;
mod ode_leaf_problem;
mod photosynthesis_problem;
mod registry;
mod report;
mod study;

pub mod jsonlite;
pub mod obs;
pub mod prelude;
pub mod sweep;

pub use design::{
    GeobacterOutcome, GeobacterStudy, LeafDesign, LeafDesignOutcome, LeafDesignStudy,
    SelectedLeafDesigns,
};
pub use geobacter_problem::{GeobacterFluxProblem, GeobacterSolution};
pub use job::Job;
pub use ode_leaf_problem::OdeLeafRedesignProblem;
pub use photosynthesis_problem::LeafRedesignProblem;
pub use registry::{
    spec_driver, validate_spec_against_problem, AnyProblem, ProblemInfo, PROBLEM_CATALOG,
};
pub use report::{
    render_table, CoverageRow, Figure1Series, Figure2Bar, Figure4Point, SelectionRow,
};
pub use study::{Study, StudyOutcome};

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
//!    islands with periodic migration), described by a
//!    [`RunSpec`](pathway_moo::engine::RunSpec) and driven through
//!    [`spec_driver`] and the step-driven engine of [`pathway_moo::engine`]
//!    (observers, early stopping, checkpoint/resume);
//! 3. **mine** the front: closest-to-ideal, the extremes of each objective,
//!    equally spaced representatives;
//! 4. score the mined candidates with the **robustness yield** Γ under
//!    Monte-Carlo perturbation of the design variables.
//!
//! # Quick start
//!
//! ```
//! use pathway_core::prelude::*;
//!
//! // A deliberately small study so the example runs in a few seconds.
//! let spec = RunSpec::from_text(
//!     "pathway-spec v1\n[problem]\nname = leaf-design\n\
//!      [optimizer]\nkind = archipelago\npopulation = 24\nmigration_interval = 40\n\
//!      [run]\nseed = 7\n[stop]\nmax_generations = 40\n",
//! )
//! .unwrap();
//! let problem = AnyProblem::from_spec(&spec.problem).unwrap();
//! let mut driver = spec_driver(&spec, &problem, None, None).unwrap();
//! let front = driver.run();
//! let outcome = LeafDesignOutcome::from_front(
//!     Scenario::present_low_export(),
//!     front,
//!     driver.optimizer().evaluations(),
//! );
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

pub mod jsonlite;
pub mod obs;
pub mod prelude;
pub mod sweep;

pub use design::{GeobacterOutcome, LeafDesign, LeafDesignOutcome, SelectedLeafDesigns};
pub use geobacter_problem::{GeobacterFluxProblem, GeobacterSolution};
pub use job::Job;
pub use ode_leaf_problem::OdeLeafRedesignProblem;
pub use photosynthesis_problem::LeafRedesignProblem;
pub use registry::{
    spec_driver, validate_spec_against_problem, AnyProblem, ProblemInfo, PROBLEM_CATALOG,
};
pub use report::{render_table, SelectionRow};

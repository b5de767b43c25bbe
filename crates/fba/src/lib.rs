//! Constraint-based metabolic modelling: stoichiometric models, flux balance
//! analysis (FBA) and a synthetic genome-scale model of *Geobacter
//! sulfurreducens*.
//!
//! This crate is the second evaluation substrate of *Design of Robust
//! Metabolic Pathways* (Umeton et al., DAC 2011). The paper optimizes the 608
//! reaction fluxes of the Mahadevan et al. (2006) *G. sulfurreducens*
//! reconstruction for two conflicting objectives — biomass production and
//! electron production — while preferring steady-state solutions
//! (`S·x̄ = 0`) and keeping the ATP maintenance flux pinned at 0.45.
//!
//! Because the original reconstruction is not redistributable, the
//! [`geobacter`] module generates a deterministic synthetic model with the
//! same dimensions and the same structural features (biomass reaction,
//! electron-transfer exchange, pinned ATP maintenance, mass-balanced internal
//! redundancy); see `DESIGN.md` for the substitution rationale.
//!
//! # Example
//!
//! ```
//! use pathway_fba::{FluxBalanceAnalysis, geobacter::GeobacterModel};
//!
//! # fn main() -> Result<(), pathway_fba::FbaError> {
//! let model = GeobacterModel::builder().reactions(120).build().into_model();
//! let fba = FluxBalanceAnalysis::new(&model);
//! let solution = fba.maximize_reaction(model.reaction_index("biomass").unwrap())?;
//! assert!(solution.objective_value >= 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod error;
mod fba;
mod model;
mod perturb;
mod violation;

pub mod geobacter;

pub use error::FbaError;
pub use fba::{FbaSolution, FluxBalanceAnalysis};
pub use model::{MetabolicModel, MetabolicModelBuilder, Metabolite, Reaction};
pub use perturb::random_flux_vector;
pub use violation::{steady_state_violation, steady_state_violation_batch, violation_norm};

//! C3 photosynthetic carbon metabolism model with 23 tunable enzymes.
//!
//! This crate is the first evaluation substrate of *Design of Robust Metabolic
//! Pathways* (Umeton et al., DAC 2011). The paper optimizes the partitioning
//! of protein nitrogen among the 23 enzymes of the Zhu/de Sturler/Long (2007)
//! carbon-metabolism model, trading CO₂ uptake against total protein-nitrogen
//! investment, at three atmospheric CO₂ levels and two triose-phosphate export
//! rates.
//!
//! Because the original kinetic parameter tables are not redistributable, this
//! crate implements a calibrated surrogate with the same structure (see
//! `DESIGN.md`, "Substitutions"):
//!
//! * [`EnzymeKind`] — the 23 enzymes of the paper's Figure 2, each with a
//!   turnover number and molecular weight.
//! * [`EnzymePartition`] — a 23-dimensional vector of catalytic capacities
//!   (the decision variables of the optimization).
//! * [`Scenario`] — atmospheric CO₂ (past / present / end-of-century) and
//!   triose-phosphate export limits.
//! * [`UptakeModel`] — a fast analytic steady-state evaluator of leaf CO₂
//!   uptake, used inside optimization loops.
//! * [`CalvinCycleOde`] — the dynamic ODE model of the same pathway, driven to
//!   steady state with the solvers from `pathway-ode`.
//! * [`rate_laws`] — its Michaelis–Menten rate laws (one and two substrates,
//!   competitive inhibition), each with its partial derivatives.
//! * [`Enzyme`] and [`nitrogen`] — a catalytic protein's turnover number and
//!   molecular weight, and the protein-nitrogen cost of a partition, the
//!   second objective of the paper's leaf-redesign problem.
//!
//! # Example
//!
//! ```
//! use pathway_photosynthesis::{EnzymePartition, Scenario, UptakeModel};
//!
//! let natural = EnzymePartition::natural();
//! let scenario = Scenario::present_low_export();
//! let model = UptakeModel::new();
//! let result = model.evaluate(&natural, &scenario);
//! // The natural leaf fixes roughly 15.5 µmol CO₂ per m² per second.
//! assert!(result.co2_uptake > 10.0 && result.co2_uptake < 20.0);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

/// Lane-batched steady states: several designs per Newton step.
mod batch;
/// The static-pivot LU of [`CalvinCycleOde`]'s Jacobian, compiled to
/// straight-line code by `JacobianPattern::emit_compiled_lu` and attached to
/// [`CalvinCycleOde::jacobian_pattern`]. Generated: the test
/// `tests/compiled_lu.rs` fails, naming the command that rewrites it,
/// whenever the reactions or the emitter change.
mod calvin_lu;
mod enzyme;
mod enzymes;
mod model;
pub mod nitrogen;
mod partition;
pub mod rate_laws;
mod scenario;
mod uptake;

pub use calvin_lu::Kernel as CalvinLu;
pub use enzyme::{Enzyme, KineticConstants};
pub use enzymes::{enzyme_table, EnzymeKind, ENZYME_COUNT};
pub use model::{CalvinCycleOde, MetabolitePool, OdeUptakeEvaluator, POOL_COUNT};
pub use partition::EnzymePartition;
/// The solver types [`OdeUptakeEvaluator`] returns.
pub use pathway_ode::{IntegrationStats, OdeError, SteadyState};
pub use scenario::{CarbonDioxideEra, Scenario, TriosePhosphateExport};
pub use uptake::{LimitingFactor, UptakeModel, UptakeResult};

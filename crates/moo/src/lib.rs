//! Multi-objective optimization framework reproducing the algorithmic
//! contribution of *Design of Robust Metabolic Pathways* (Umeton et al.,
//! DAC 2011).
//!
//! The crate contains:
//!
//! * [`MultiObjectiveProblem`] — the problem trait (box-bounded decision
//!   variables, any number of minimized objectives, optional constraint
//!   violation).
//! * [`engine`] — the step-driven engine: the [`Optimizer`] trait, which
//!   is not tied to a problem type and which each of the three algorithms
//!   implements once, scoring every candidate through
//!   [`exec::Executor::evaluate_batch`]; and the generic [`Driver`], whose
//!   every step returns a [`GenerationReport`], with composable
//!   [`StoppingRule`]s and bit-identical checkpoint/resume.
//! * [`Nsga2`] — the Non-dominated Sorting Genetic Algorithm II of Deb et al.,
//!   the paper's island engine.
//! * [`Moead`] — MOEA/D with Tchebycheff decomposition (Zhang & Li), the
//!   paper's comparison baseline in Table 1.
//! * [`Archipelago`] — the island model with periodic migration
//!   that constitutes PMO2 (the paper's configuration: two NSGA-II islands,
//!   all-to-all migration every 200 generations with probability 0.5).
//! * [`EvalBackend`] / [`exec::Executor`] — batched candidate evaluation,
//!   serial or on a persistent worker pool; bit-identical to serial for a
//!   fixed seed.
//! * [`metrics`] — the hypervolume indicator and the paper's global/relative
//!   Pareto coverage metrics (Equations 1–2).
//! * [`mining`] — trade-off selection strategies: the design closest to the
//!   Pareto Relative Minimum, and equally spaced representatives (Section 2.2).
//! * [`robustness`] — the robustness condition ρ and uptake yield Γ with
//!   global and local Monte-Carlo ensembles (Section 2.3, Equations 3–4).
//! * [`problems`] — standard synthetic benchmark problems (ZDT1, Schaffer,
//!   a constrained variant) used by the test-suite and the benches.
//!
//! # Example
//!
//! ```
//! use pathway_moo::engine::{Driver, StoppingRule};
//! use pathway_moo::{Nsga2, Nsga2Spec, problems::Schaffer};
//!
//! let spec = Nsga2Spec { population: 40, ..Default::default() };
//! let front = Driver::new(Nsga2::new(spec, 42), &Schaffer)
//!     .with_stopping(StoppingRule::MaxGenerations(50))
//!     .run();
//! assert!(!front.is_empty());
//! // Every solution on the Schaffer front has x in [0, 2].
//! for individual in &front {
//!     assert!(individual.variables[0] > -0.5 && individual.variables[0] < 2.5);
//! }
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

mod archipelago;
mod archive;
mod crowding;
mod dominance;
mod eval;
#[cfg(test)]
mod front_reference;
mod individual;
mod moead;
mod nsga2;
mod operators;
mod problem;

pub mod engine;
pub mod exec;
pub mod metrics;
pub mod mining;
pub mod problems;
pub mod robustness;

pub use archipelago::{Archipelago, ArchipelagoSpec, MigrationTopology};
pub use archive::ParetoArchive;
pub use crowding::assign_crowding_distance;
pub use dominance::{
    constrained_dominates, dominates, fast_nondominated_sort, fast_nondominated_sort_with,
    SortScratch,
};
pub use engine::{
    Driver, EngineError, GenerationReport, Optimizer, OptimizerState, RunCheckpoint, StoppingRule,
};
pub use eval::EvalBackend;
pub use exec::{Executor, ExecutorStats};
pub use individual::Individual;
pub use moead::{Moead, MoeadSpec};
pub use nsga2::{Nsga2, Nsga2Spec};
pub use operators::{
    polynomial_mutation, sbx_crossover, sbx_differ_mask, sbx_spread_factors, tournament_select,
    PolynomialMutation, SbxScratch,
};
pub use problem::MultiObjectiveProblem;

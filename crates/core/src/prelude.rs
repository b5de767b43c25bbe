//! Convenience re-exports for downstream users.
//!
//! ```
//! use pathway_core::prelude::*;
//!
//! let problem = LeafRedesignProblem::new(Scenario::present_low_export());
//! assert_eq!(problem.num_variables(), 23);
//! ```

pub use crate::{
    spec_driver, validate_spec_against_problem, AnyProblem, GeobacterFluxProblem, GeobacterOutcome,
    GeobacterSolution, Job, LeafDesign, LeafDesignOutcome, LeafRedesignProblem,
    OdeLeafRedesignProblem, ProblemInfo, SelectedLeafDesigns, PROBLEM_CATALOG,
};

pub use pathway_fba::geobacter::GeobacterModel;
pub use pathway_fba::{FluxBalanceAnalysis, MetabolicModel};
pub use pathway_moo::engine::{
    AnyOptimizer, ChannelObserver, CheckpointError, CheckpointRetention, CheckpointStore, Driver,
    EngineError, GenerationReport, HistoryObserver, LogObserver, Observer, Optimizer,
    OptimizerSpec, OptimizerState, ProblemSpec, RunCheckpoint, RunSpec, SpecError, StoppingRule,
    StoppingSpec, StoredCheckpoint,
};
pub use pathway_moo::{
    Archipelago, ArchipelagoSpec, EvalBackend, Executor, Individual, MigrationTopology, Moead,
    MoeadSpec, MultiObjectiveProblem, Nsga2, Nsga2Spec,
};
pub use pathway_photosynthesis::{
    CarbonDioxideEra, EnzymeKind, EnzymePartition, Scenario, TriosePhosphateExport, UptakeModel,
};

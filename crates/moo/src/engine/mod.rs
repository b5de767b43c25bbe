//! The step-driven optimization engine.
//!
//! The paper's workflow is one fixed pipeline; this module turns its three
//! algorithms into pluggable backends behind a single problem/driver
//! contract:
//!
//! * [`Optimizer`] — the uniform surface every algorithm implements:
//!   [`initialize`](Optimizer::initialize), [`step`](Optimizer::step),
//!   [`population`](Optimizer::population), [`front`](Optimizer::front),
//!   an [`evaluations`](Optimizer::evaluations) odometer, and a
//!   serializable [`OptimizerState`] snapshot. Only `initialize` and `step`
//!   take the problem, so the trait has no type parameter.
//!   [`Nsga2`](crate::Nsga2), [`Moead`](crate::Moead),
//!   [`Archipelago`](crate::Archipelago) and [`AnyOptimizer`] each
//!   implement it once, and every one of them scores its candidates only
//!   through [`Executor::evaluate_batch`](crate::exec::Executor::evaluate_batch).
//! * [`Driver`] — owns the generation loop: each [`step`](Driver::step)
//!   advances an optimizer one generation and returns its
//!   [`GenerationReport`], [`run`](Driver::run) loops `step` until a
//!   [`StoppingRule`] fires, and [`checkpoint`](Driver::checkpoint) /
//!   [`resume`](Driver::resume) split a run so that it is bit-identical to
//!   an unsplit one, hypervolume history included.
//! * [`RunSpec`] — a declarative, serializable run description (problem,
//!   optimizer configuration, seed, stopping rules, progress cadence) with a
//!   canonical text codec ([`RunSpec::to_text`] / [`RunSpec::from_text`])
//!   and a content hash; [`AnyOptimizer`] lets spec-driven code hold any
//!   optimizer kind behind one type.
//! * [`CheckpointStore`] — durable on-disk checkpoints: atomic writes, a
//!   versioned header with an integrity checksum, the spec embedded for
//!   self-describing resume, and a spec-hash check that rejects resuming
//!   under a different spec.
//!
//! # Example
//!
//! ```
//! use pathway_moo::engine::{Driver, StoppingRule};
//! use pathway_moo::{Nsga2, Nsga2Spec, problems::Schaffer};
//!
//! let spec = Nsga2Spec { population: 24, ..Default::default() };
//! let mut driver = Driver::new(Nsga2::new(spec, 7), &Schaffer).with_stopping(
//!     StoppingRule::any_of([
//!         StoppingRule::MaxGenerations(40),
//!         StoppingRule::HypervolumeStagnation { window: 10, epsilon: 1e-9 },
//!     ]),
//! );
//! let mut reports = Vec::new();
//! while !driver.should_stop() {
//!     reports.push(driver.step());
//! }
//! assert!(!driver.front().is_empty());
//! assert!(reports.len() <= 40);
//! assert_eq!(driver.checkpoint().hypervolume_history.len(), reports.len());
//! ```

mod driver;
mod spec;
mod state;
mod stopping;
pub mod store;
mod sweep;
pub mod telemetry;

pub use crate::{ArchipelagoSpec, MoeadSpec, Nsga2Spec};
pub use driver::{Driver, GenerationReport, RunCheckpoint};
pub use spec::{
    AnyOptimizer, OptimizerSpec, ProblemSpec, RunSpec, SpecError, StoppingSpec, SPEC_HEADER,
};
pub use state::{ArchipelagoState, EngineError, MoeadState, Nsga2State, OptimizerState, RngState};
pub use stopping::{RunStatus, StoppingRule};
pub use store::{
    decode_checkpoint, encode_checkpoint, CheckpointError, CheckpointRetention, CheckpointStore,
    StoredCheckpoint,
};
pub use sweep::{is_sweep_text, SweepAxis, SweepCell, SweepSpec, MAX_SWEEP_CELLS, SWEEP_HEADER};
pub use telemetry::{
    HistogramSnapshot, Metric, MetricsRegistry, MetricsSnapshot, PhaseSpan, METRIC_SHARDS,
};

use crate::{Individual, MultiObjectiveProblem};

/// A resumable, step-driven multi-objective optimizer.
///
/// The trait is not tied to a problem type: only
/// [`initialize`](Optimizer::initialize) and [`step`](Optimizer::step) take
/// the problem, so one optimizer value can be asked for its front,
/// odometer or state without naming what it searches. Every
/// implementation evaluates candidates only through
/// [`Executor::evaluate_batch`](crate::exec::Executor::evaluate_batch).
///
/// The contract every implementation upholds:
///
/// * [`initialize`](Optimizer::initialize) is idempotent — the first call
///   samples and evaluates the initial population, later calls are no-ops.
/// * [`step`](Optimizer::step) advances the search by exactly one
///   generation (initializing first if needed) and strictly increases
///   [`evaluations`](Optimizer::evaluations).
/// * [`front`](Optimizer::front) returns a mutually non-dominating subset of
///   the current population under constrained domination, and
///   [`front_objectives`](Optimizer::front_objectives) its objective
///   vectors, in the same order, borrowed.
/// * [`state`](Optimizer::state) / [`restore`](Optimizer::restore) round-trip
///   every bit of run state (populations, RNG streams, counters): an
///   optimizer restored from a snapshot continues the exact trajectory the
///   snapshotted one would have taken. Configuration is *not* part of the
///   snapshot — restore into an optimizer built with the same configuration
///   and seed family.
pub trait Optimizer {
    /// Samples and evaluates the initial population if that has not happened
    /// yet. Idempotent.
    fn initialize<P: MultiObjectiveProblem>(&mut self, problem: &P);

    /// Advances the search by one generation, initializing first if needed.
    fn step<P: MultiObjectiveProblem>(&mut self, problem: &P);

    /// An owned snapshot of the current population (for multi-population
    /// optimizers: all sub-populations concatenated). Empty before
    /// initialization.
    fn population(&self) -> Vec<Individual>;

    /// The current non-dominated front. Empty before initialization.
    fn front(&self) -> Vec<Individual>;

    /// The objective vectors of [`front`](Optimizer::front), in the same
    /// order, borrowed from the population instead of cloned: what
    /// per-generation telemetry (front size, hypervolume) reads.
    fn front_objectives(&self) -> Vec<&[f64]>;

    /// Cumulative number of candidate evaluations spent so far.
    fn evaluations(&self) -> usize;

    /// Captures the complete run state as plain data.
    fn state(&self) -> OptimizerState;

    /// Restores a snapshot previously captured with
    /// [`state`](Optimizer::state).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StateMismatch`] when the snapshot belongs to a
    /// different optimizer kind, and [`EngineError::ConfigMismatch`] when
    /// its shape disagrees with this optimizer's configuration.
    fn restore(&mut self, state: OptimizerState) -> Result<(), EngineError>;

    /// Attaches a telemetry registry. Purely observational: an optimizer
    /// with metrics attached takes the exact search trajectory one
    /// without would. The default implementation records nothing.
    fn set_metrics(&mut self, registry: MetricsRegistry) {
        let _ = registry;
    }
}

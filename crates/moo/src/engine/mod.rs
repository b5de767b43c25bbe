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
//!   serializable [`OptimizerState`] snapshot.
//!   [`Nsga2`](crate::Nsga2), [`Moead`](crate::Moead) and
//!   [`Archipelago`](crate::Archipelago) all implement it.
//! * [`Driver`] — owns the generation loop: it steps an optimizer, notifies
//!   [`Observer`]s with per-generation [`GenerationReport`]s, stops when a
//!   [`StoppingRule`] fires, and can [`checkpoint`](Driver::checkpoint) /
//!   [`resume`](Driver::resume) a run so that a split run is bit-identical
//!   to an unsplit one.
//! * [`RunSpec`] — a declarative, serializable run description (problem,
//!   optimizer configuration, seed, stopping rules, observer sinks) with a
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
//! use pathway_moo::engine::{Driver, HistoryObserver, Optimizer, StoppingRule};
//! use pathway_moo::{Nsga2, Nsga2Spec, problems::Schaffer};
//!
//! let spec = Nsga2Spec { population: 24, ..Default::default() };
//! let history = HistoryObserver::new();
//! let mut driver = Driver::new(Nsga2::new(spec, 7), &Schaffer)
//!     .with_observer(history.clone())
//!     .with_stopping(StoppingRule::any_of([
//!         StoppingRule::MaxGenerations(40),
//!         StoppingRule::HypervolumeStagnation { window: 10, epsilon: 1e-9 },
//!     ]));
//! let front = driver.run();
//! assert!(!front.is_empty());
//! assert!(history.reports().len() <= 40);
//! ```

mod driver;
mod observer;
mod spec;
mod state;
mod stopping;
pub mod store;
mod sweep;
pub mod telemetry;

pub use crate::{ArchipelagoSpec, MoeadSpec, Nsga2Spec};
pub use driver::{Driver, RunCheckpoint};
pub use observer::{ChannelObserver, GenerationReport, HistoryObserver, LogObserver, Observer};
pub use spec::{
    AnyOptimizer, OptimizerSpec, ProblemSpec, RunSpec, SpecError, StoppingSpec, SPEC_HEADER,
};
pub use state::{ArchipelagoState, EngineError, MoeadState, Nsga2State, OptimizerState, RngState};
pub use stopping::{RunStatus, StoppingRule};
pub use store::{
    decode_checkpoint, encode_checkpoint, read_checkpoint_file, write_checkpoint_file,
    CheckpointError, CheckpointRetention, CheckpointStore, StoredCheckpoint,
};
pub use sweep::{is_sweep_text, SweepAxis, SweepCell, SweepSpec, MAX_SWEEP_CELLS, SWEEP_HEADER};
pub use telemetry::{
    HistogramSnapshot, Metric, MetricsRegistry, MetricsSnapshot, PhaseSpan, METRIC_SHARDS,
};

use crate::{Individual, MultiObjectiveProblem};

/// A resumable, step-driven multi-objective optimizer over problem type `P`.
///
/// The contract every implementation upholds:
///
/// * [`initialize`](Optimizer::initialize) is idempotent — the first call
///   samples and evaluates the initial population, later calls are no-ops.
/// * [`step`](Optimizer::step) advances the search by exactly one
///   generation (initializing first if needed) and strictly increases
///   [`evaluations`](Optimizer::evaluations).
/// * [`front`](Optimizer::front) returns a mutually non-dominating subset of
///   the current population under constrained domination.
/// * [`state`](Optimizer::state) / [`restore`](Optimizer::restore) round-trip
///   every bit of run state (populations, RNG streams, counters): an
///   optimizer restored from a snapshot continues the exact trajectory the
///   snapshotted one would have taken. Configuration is *not* part of the
///   snapshot — restore into an optimizer built with the same configuration
///   and seed family.
pub trait Optimizer<P: MultiObjectiveProblem> {
    /// Samples and evaluates the initial population if that has not happened
    /// yet. Idempotent.
    fn initialize(&mut self, problem: &P);

    /// Advances the search by one generation, initializing first if needed.
    fn step(&mut self, problem: &P);

    /// An owned snapshot of the current population (for multi-population
    /// optimizers: all sub-populations concatenated). Empty before
    /// initialization.
    fn population(&self) -> Vec<Individual>;

    /// The current non-dominated front. Empty before initialization.
    fn front(&self) -> Vec<Individual>;

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

//! The generic generation-loop driver.

use std::time::Instant;

use crate::engine::telemetry::MetricsRegistry;
use crate::engine::{
    EngineError, GenerationReport, Observer, Optimizer, OptimizerState, RunStatus, StoppingRule,
};
use crate::{metrics, Individual, MultiObjectiveProblem};

/// Everything a [`Driver`] needs to continue a run elsewhere.
///
/// All fields are plain data (see [`OptimizerState`]), so a checkpoint
/// can be serialized with any format. Observers and stopping rules are
/// configuration, not state, and are re-attached after
/// [`Driver::resume`]; the hypervolume history they depend on *is* carried
/// here, so a resumed [`StoppingRule::HypervolumeStagnation`] sees exactly
/// the window an unsplit run would have seen.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// Number of generations completed when the checkpoint was taken.
    pub generation: usize,
    /// The optimizer's snapshot.
    pub optimizer: OptimizerState,
    /// Hypervolume after each telemetry-tracked generation, oldest first.
    pub hypervolume_history: Vec<f64>,
    /// The driver's (frozen) hypervolume reference point, if one was
    /// configured or derived.
    pub reference_point: Option<Vec<f64>>,
}

/// Owns the generation loop over any [`Optimizer`].
///
/// The driver steps the optimizer one generation at a time, computes a
/// [`GenerationReport`] after each step (evaluations, front size,
/// hypervolume, wall-clock), fans the report out to the attached
/// [`Observer`]s, and stops when the configured [`StoppingRule`] fires.
///
/// # Problem ownership
///
/// The driver owns its problem value. Because `&T` implements
/// [`MultiObjectiveProblem`] whenever `T` does, passing `&problem` to
/// [`Driver::new`] keeps working (the driver then "owns" a borrow, `P =
/// &T`), while services that hold many long-lived runs — e.g. the
/// `pathway serve` job scheduler — can move the problem *into* the driver
/// and treat the pair as one self-contained actor, advanced one
/// [`step`](Driver::step) at a time per scheduling turn with no borrow
/// tying it to a caller's stack frame.
///
/// # Hypervolume reference point
///
/// Reports need a reference point to compute hypervolume against. Configure
/// one with [`with_reference_point`](Driver::with_reference_point); without
/// one the driver derives a point just beyond the nadir of the *first*
/// generation's front and freezes it for the rest of the run (a moving
/// reference would make stagnation detection meaningless). The frozen point
/// is part of every [`RunCheckpoint`]. For problems with more than three
/// objectives the hypervolume is reported as NaN.
///
/// # Checkpoint / resume
///
/// [`checkpoint`](Driver::checkpoint) captures optimizer state plus the
/// driver's own progress; [`resume`](Driver::resume) rebuilds a driver that
/// continues bit-identically — `tests/determinism.rs` enforces that a run
/// split at *any* generation matches the unsplit run for both `Serial` and
/// `Threads(n)` evaluation backends.
///
/// # Example
///
/// ```
/// use pathway_moo::engine::{Driver, StoppingRule};
/// use pathway_moo::{Nsga2, Nsga2Spec, problems::Schaffer};
///
/// let spec = Nsga2Spec { population: 16, ..Default::default() };
/// let make = || Nsga2::new(spec, 3);
/// let stop = StoppingRule::MaxGenerations(10);
///
/// // Unsplit run.
/// let unsplit = Driver::new(make(), &Schaffer).with_stopping(stop.clone()).run();
///
/// // The same run split after 4 generations.
/// let mut first_half = Driver::new(make(), &Schaffer).with_stopping(stop.clone());
/// for _ in 0..4 { first_half.step(); }
/// let checkpoint = first_half.checkpoint();
/// let resumed = Driver::resume(make(), &Schaffer, checkpoint)
///     .expect("matching optimizer")
///     .with_stopping(stop)
///     .run();
/// assert_eq!(unsplit, resumed);
/// ```
pub struct Driver<P: MultiObjectiveProblem, O: Optimizer<P>> {
    optimizer: O,
    problem: P,
    observers: Vec<Box<dyn Observer>>,
    stopping: StoppingRule,
    reference_point: Option<Vec<f64>>,
    generation: usize,
    hypervolume_history: Vec<f64>,
    /// Telemetry sink (see [`Driver::with_metrics`]). Observational only:
    /// never checkpointed, never read by the search.
    metrics: Option<MetricsRegistry>,
}

impl<P: MultiObjectiveProblem, O: Optimizer<P>> Driver<P, O> {
    /// Creates a driver for a fresh run.
    ///
    /// The default stopping rule is `MaxGenerations(250)` (matching
    /// [`StoppingSpec`](crate::engine::StoppingSpec)'s default generation
    /// budget); override it with
    /// [`with_stopping`](Driver::with_stopping). `problem` is moved into
    /// the driver; pass `&problem` to keep ownership at the call site.
    pub fn new(optimizer: O, problem: P) -> Self {
        Driver {
            optimizer,
            problem,
            observers: Vec::new(),
            stopping: StoppingRule::MaxGenerations(250),
            reference_point: None,
            generation: 0,
            hypervolume_history: Vec::new(),
            metrics: None,
        }
    }

    /// Rebuilds a driver from a [`RunCheckpoint`].
    ///
    /// `optimizer` must be constructed with the same configuration and seed
    /// as the checkpointed one; its runtime state is overwritten by the
    /// snapshot. Observers and stopping rules are configuration, not state —
    /// re-attach them with the builder methods.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] when the snapshot does not fit
    /// `optimizer`.
    pub fn resume(
        mut optimizer: O,
        problem: P,
        checkpoint: RunCheckpoint,
    ) -> Result<Self, EngineError> {
        optimizer.restore(checkpoint.optimizer)?;
        Ok(Driver {
            optimizer,
            problem,
            observers: Vec::new(),
            stopping: StoppingRule::MaxGenerations(250),
            reference_point: checkpoint.reference_point,
            generation: checkpoint.generation,
            hypervolume_history: checkpoint.hypervolume_history,
            metrics: None,
        })
    }

    /// Attaches an observer; every attached observer receives every
    /// [`GenerationReport`], in attachment order.
    #[must_use]
    pub fn with_observer<Obs: Observer + 'static>(mut self, observer: Obs) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Replaces the stopping rule (compose several with
    /// [`StoppingRule::any_of`]).
    #[must_use]
    pub fn with_stopping(mut self, rule: StoppingRule) -> Self {
        self.stopping = rule;
        self
    }

    /// Fixes the hypervolume reference point instead of deriving one from
    /// the first generation's front.
    #[must_use]
    pub fn with_reference_point(mut self, reference: Vec<f64>) -> Self {
        self.reference_point = Some(reference);
        self
    }

    /// Attaches a telemetry registry to the driver *and* the optimizer:
    /// each generation records a `phase.generation.*` span (plus a
    /// `phase.telemetry.*` span for front/hypervolume extraction on
    /// observed steps), and the optimizer records its own phase breakdown
    /// (variation, selection, migration, …). Purely observational — the
    /// determinism suite proves runs are bit-identical with and without a
    /// registry attached.
    #[must_use]
    pub fn with_metrics(mut self, registry: MetricsRegistry) -> Self {
        self.optimizer.set_metrics(registry.clone());
        self.metrics = Some(registry);
        self
    }

    /// Number of generations completed so far.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// The driven optimizer.
    pub fn optimizer(&self) -> &O {
        &self.optimizer
    }

    /// The current non-dominated front.
    pub fn front(&self) -> Vec<Individual> {
        self.optimizer.front()
    }

    /// `true` if the configured stopping rule fires on the current status.
    ///
    /// A safety net guards purely stagnation-based compositions (no
    /// generation or evaluation budget anywhere in the rule): stagnation
    /// never fires on NaN hypervolumes, so if the hypervolume stays
    /// unmeasurable for a whole stagnation window — e.g. a problem with
    /// more than three objectives — the run stops instead of spinning
    /// forever. Compose a budget rule via [`StoppingRule::any_of`] to keep
    /// explicit control.
    pub fn should_stop(&self) -> bool {
        let status = RunStatus {
            generation: self.generation,
            evaluations: self.optimizer.evaluations(),
            hypervolume_history: &self.hypervolume_history,
        };
        if self.stopping.should_stop(&status) {
            return true;
        }
        if !self.stopping.is_budget_bounded() {
            if let Some(window) = self.stopping.max_stagnation_window() {
                let history = &self.hypervolume_history;
                if window > 0
                    && history.len() > window
                    && history[history.len() - 1 - window..]
                        .iter()
                        .all(|h| h.is_nan())
                {
                    return true;
                }
            }
        }
        false
    }

    /// Runs one generation: step the optimizer, record the report, notify
    /// observers. Initializes the optimizer first when needed.
    pub fn step(&mut self) -> GenerationReport {
        self.optimizer.initialize(&self.problem);
        let started = Instant::now();
        self.optimizer.step(&self.problem);
        let wall_clock = started.elapsed();
        self.generation += 1;
        if let Some(metrics) = &self.metrics {
            metrics.record_phase("generation", wall_clock);
        }

        let telemetry_started = Instant::now();
        let front = self.optimizer.front();
        let objectives: Vec<&[f64]> = front.iter().map(|i| i.objectives.as_slice()).collect();
        if self.reference_point.is_none() {
            self.reference_point = derive_reference(&objectives);
        }
        let hypervolume = match &self.reference_point {
            Some(reference) if matches!(reference.len(), 2 | 3) => {
                metrics::hypervolume(&objectives, reference)
            }
            _ => f64::NAN,
        };
        self.hypervolume_history.push(hypervolume);
        if let Some(metrics) = &self.metrics {
            metrics.record_phase("telemetry", telemetry_started.elapsed());
        }

        let report = GenerationReport {
            generation: self.generation,
            evaluations: self.optimizer.evaluations(),
            front_size: front.len(),
            hypervolume,
            wall_clock,
        };
        for observer in &mut self.observers {
            observer.on_generation(&report);
        }
        report
    }

    /// Runs generations until the stopping rule fires, then returns the
    /// final non-dominated front.
    ///
    /// When no observer is attached and no stopping rule reads the
    /// hypervolume history, the per-generation telemetry (front extraction,
    /// hypervolume) is skipped entirely — those generations record no
    /// history entry — so an unobserved `run` costs no more than stepping
    /// the optimizer directly. The search trajectory is identical either
    /// way: telemetry is read-only.
    pub fn run(&mut self) -> Vec<Individual> {
        self.run_for(usize::MAX);
        self.optimizer.front()
    }

    /// Advances up to `generations` generations, stopping early if the
    /// stopping rule fires, and returns how many generations actually ran.
    ///
    /// This is the cheap way to drive part of a run before a
    /// [`checkpoint`](Driver::checkpoint): like [`Driver::run`] it skips
    /// per-generation telemetry when nothing consumes it, unlike a manual
    /// loop over [`Driver::step`] which always pays for a full report.
    pub fn run_for(&mut self, generations: usize) -> usize {
        self.optimizer.initialize(&self.problem);
        let wants_telemetry = !self.observers.is_empty() || self.stopping.needs_hypervolume();
        let mut completed = 0;
        while completed < generations && !self.should_stop() {
            if wants_telemetry {
                self.step();
            } else {
                self.step_untracked();
            }
            completed += 1;
        }
        completed
    }

    /// Advances one generation without computing the front or hypervolume.
    /// Nothing is appended to the hypervolume history: it holds one entry
    /// per generation driven *with* telemetry, so a stagnation window never
    /// spans generations whose hypervolume was simply not computed.
    fn step_untracked(&mut self) {
        self.optimizer.initialize(&self.problem);
        let started = Instant::now();
        self.optimizer.step(&self.problem);
        if let Some(metrics) = &self.metrics {
            metrics.record_phase("generation", started.elapsed());
        }
        self.generation += 1;
    }

    /// Captures everything needed to continue this run elsewhere.
    pub fn checkpoint(&self) -> RunCheckpoint {
        RunCheckpoint {
            generation: self.generation,
            optimizer: self.optimizer.state(),
            hypervolume_history: self.hypervolume_history.clone(),
            reference_point: self.reference_point.clone(),
        }
    }
}

/// Derives a frozen hypervolume reference point just beyond the nadir of a
/// front: per objective, the maximum value plus a 10% margin of the front's
/// span (or of the value's own magnitude when the front is degenerate).
/// Returns `None` for empty fronts or fronts with more than three
/// objectives.
fn derive_reference<P: AsRef<[f64]>>(objectives: &[P]) -> Option<Vec<f64>> {
    let first = objectives.first()?.as_ref();
    if !matches!(first.len(), 2 | 3) {
        return None;
    }
    let dim = first.len();
    let mut reference = Vec::with_capacity(dim);
    for m in 0..dim {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for point in objectives {
            let value = point.as_ref()[m];
            min = min.min(value);
            max = max.max(value);
        }
        if !min.is_finite() || !max.is_finite() {
            return None;
        }
        let margin = 0.1 * (max - min).max(max.abs()).max(1.0);
        reference.push(max + margin);
    }
    Some(reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HistoryObserver;
    use crate::problems::{Schaffer, Zdt1};
    use crate::{Nsga2, Nsga2Spec};

    fn small(seed: u64) -> Nsga2 {
        Nsga2::new(
            Nsga2Spec {
                population: 16,
                ..Default::default()
            },
            seed,
        )
    }

    #[test]
    fn run_respects_max_generations_and_reports_every_generation() {
        let history = HistoryObserver::new();
        let mut driver = Driver::new(small(1), &Schaffer)
            .with_observer(history.clone())
            .with_stopping(StoppingRule::MaxGenerations(6));
        let front = driver.run();
        assert!(!front.is_empty());
        assert_eq!(driver.generation(), 6);
        let reports = history.reports();
        assert_eq!(reports.len(), 6);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.generation, i + 1);
            assert!(report.front_size > 0);
            assert!(report.hypervolume.is_finite());
        }
        // Evaluations grow monotonically across reports.
        for pair in reports.windows(2) {
            assert!(pair[1].evaluations > pair[0].evaluations);
        }
    }

    #[test]
    fn max_evaluations_bounds_the_run() {
        let mut driver =
            Driver::new(small(2), &Schaffer).with_stopping(StoppingRule::MaxEvaluations(16 * 4));
        driver.run();
        // init (16) + 3 steps (48) reaches the 64-evaluation budget.
        assert_eq!(driver.generation(), 3);
    }

    #[test]
    fn stagnation_stops_a_converged_run() {
        let mut driver = Driver::new(small(3), &Schaffer).with_stopping(StoppingRule::any_of([
            StoppingRule::MaxGenerations(400),
            StoppingRule::HypervolumeStagnation {
                window: 8,
                epsilon: 1e-12,
            },
        ]));
        driver.run();
        assert!(
            driver.generation() < 400,
            "Schaffer should stagnate well before 400 generations"
        );
    }

    #[test]
    fn explicit_reference_point_is_used_verbatim() {
        let mut driver = Driver::new(small(4), &Schaffer)
            .with_reference_point(vec![30.0, 30.0])
            .with_stopping(StoppingRule::MaxGenerations(2));
        driver.step();
        driver.step();
        let checkpoint = driver.checkpoint();
        assert_eq!(checkpoint.reference_point, Some(vec![30.0, 30.0]));
        assert!(checkpoint.hypervolume_history.iter().all(|h| h.is_finite()));
    }

    #[test]
    fn unobserved_runs_skip_telemetry_but_match_observed_runs() {
        let stop = StoppingRule::MaxGenerations(5);
        let mut untracked = Driver::new(small(6), &Schaffer).with_stopping(stop.clone());
        let untracked_front = untracked.run();
        assert!(untracked.checkpoint().hypervolume_history.is_empty());
        assert_eq!(untracked.generation(), 5);

        let mut observed = Driver::new(small(6), &Schaffer)
            .with_observer(HistoryObserver::new())
            .with_stopping(stop);
        let observed_front = observed.run();
        assert!(observed
            .checkpoint()
            .hypervolume_history
            .iter()
            .all(|h| h.is_finite()));
        // Telemetry is read-only: the search trajectory is identical.
        assert_eq!(untracked_front, observed_front);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_mid_run() {
        let problem = Zdt1 { variables: 6 };
        let stop = StoppingRule::MaxGenerations(12);
        let unsplit = Driver::new(small(9), &problem)
            .with_stopping(stop.clone())
            .run();

        let mut first = Driver::new(small(9), &problem).with_stopping(stop.clone());
        for _ in 0..5 {
            first.step();
        }
        let resumed = Driver::resume(small(9), &problem, first.checkpoint())
            .expect("same configuration")
            .with_stopping(stop)
            .run();
        assert_eq!(unsplit, resumed);
    }

    #[test]
    fn stagnation_only_runs_terminate_when_hypervolume_is_unmeasurable() {
        // Four objectives: the driver can never derive a reference point,
        // every history entry is NaN, and stagnation alone would never
        // fire — the safety net must end the run after one NaN window.
        struct FourObjectives;
        impl crate::MultiObjectiveProblem for FourObjectives {
            fn num_variables(&self) -> usize {
                2
            }
            fn num_objectives(&self) -> usize {
                4
            }
            fn bounds(&self) -> Vec<(f64, f64)> {
                vec![(0.0, 1.0); 2]
            }
            fn evaluate(&self, x: &[f64]) -> Vec<f64> {
                vec![x[0], 1.0 - x[0], x[1], 1.0 - x[1]]
            }
        }
        let optimizer = Nsga2::new(
            Nsga2Spec {
                population: 8,
                ..Default::default()
            },
            1,
        );
        let mut driver =
            Driver::new(optimizer, &FourObjectives).with_stopping(StoppingRule::any_of([
                StoppingRule::HypervolumeStagnation {
                    window: 4,
                    epsilon: 1e-9,
                },
            ]));
        driver.run();
        assert_eq!(driver.generation(), 5, "one NaN window, then stop");
        assert!(driver
            .checkpoint()
            .hypervolume_history
            .iter()
            .all(|h| h.is_nan()));
    }

    #[test]
    fn run_for_advances_cheaply_and_respects_the_stopping_rule() {
        let mut driver =
            Driver::new(small(8), &Schaffer).with_stopping(StoppingRule::MaxGenerations(6));
        assert_eq!(driver.run_for(4), 4);
        assert!(driver.checkpoint().hypervolume_history.is_empty());
        // Only 2 of the requested 5 remain under the budget.
        assert_eq!(driver.run_for(5), 2);
        assert_eq!(driver.generation(), 6);
    }

    #[test]
    fn derive_reference_handles_edge_fronts() {
        assert_eq!(derive_reference::<Vec<f64>>(&[]), None);
        assert_eq!(derive_reference(&[vec![1.0; 4]]), None);
        let reference =
            derive_reference(&[vec![0.0, 10.0], vec![1.0, 5.0]]).expect("bi-objective front");
        assert!(reference[0] > 1.0 && reference[1] > 10.0);
        // Degenerate (single-point) fronts still get a positive margin.
        let degenerate = derive_reference(&[vec![0.0, 0.0]]).expect("front");
        assert!(degenerate.iter().all(|&r| r > 0.0));
    }
}

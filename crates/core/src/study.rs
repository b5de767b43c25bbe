//! The generic study facade: one configurable PMO2 driver for any problem.
//!
//! [`Study`] replaces the two copy-pasted study builders of earlier
//! revisions ([`crate::LeafDesignStudy`] and [`crate::GeobacterStudy`] are
//! now thin wrappers over it): it owns a
//! [`MultiObjectiveProblem`], builds the paper's archipelago from its
//! budget/migration/backend knobs, and drives it through the
//! [`pathway_moo::engine`] — so observers, early stopping and
//! checkpoint/resume compose with every problem without touching algorithm
//! internals.

use std::sync::Arc;

use pathway_moo::engine::{Driver, StoppingRule};
use pathway_moo::exec::Executor;
use pathway_moo::{
    Archipelago, ArchipelagoConfig, EvalBackend, Individual, MigrationTopology,
    MultiObjectiveProblem, Nsga2Config,
};

/// What a [`Study`] run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyOutcome {
    /// The merged non-dominated front across all islands.
    pub front: Vec<Individual>,
    /// Total number of candidate evaluations actually spent (initial
    /// populations included).
    pub evaluations: usize,
    /// Number of generations actually run (smaller than the configured
    /// budget when an extra stopping rule fired first).
    pub generations: usize,
}

/// An end-to-end PMO2 study over any [`MultiObjectiveProblem`].
///
/// The defaults are the paper's configuration: 2 NSGA-II islands with
/// broadcast migration every 200 generations at probability 0.5, and a
/// moderate budget (population 80, 400 generations).
///
/// # Example
///
/// ```
/// use pathway_core::prelude::*;
///
/// let study = Study::new(LeafRedesignProblem::new(Scenario::present_low_export()))
///     .with_budget(24, 30)
///     .with_migration(10, 0.5);
/// let outcome = study.run(3);
/// assert!(!outcome.front.is_empty());
/// assert_eq!(outcome.evaluations, 2 * 24 * (30 + 1));
/// ```
///
/// For observers, extra stopping rules or checkpoint/resume, drop down to
/// the driver:
///
/// ```
/// use pathway_core::prelude::*;
///
/// let study = Study::new(LeafRedesignProblem::new(Scenario::present_low_export()))
///     .with_budget(16, 40)
///     .with_migration(10, 0.5)
///     .with_stopping(StoppingRule::HypervolumeStagnation { window: 8, epsilon: 1e-6 });
/// let history = HistoryObserver::new();
/// let mut driver = study.driver(7).with_observer(history.clone());
/// let front = driver.run();
/// assert!(!front.is_empty());
/// assert_eq!(history.reports().len(), driver.generation());
/// ```
#[derive(Debug, Clone)]
pub struct Study<P> {
    problem: P,
    islands: usize,
    /// Per-island NSGA-II configuration. `population_size` and `backend`
    /// are set through the builder methods; `generations` is overridden by
    /// the study's own budget when the archipelago is built.
    island: Nsga2Config,
    generations: usize,
    migration_interval: usize,
    migration_probability: f64,
    extra_stopping: Option<StoppingRule>,
    reference_point: Option<Vec<f64>>,
    executor: Option<Arc<Executor>>,
}

impl<P: MultiObjectiveProblem> Study<P> {
    /// Creates a study over `problem` with the paper's PMO2 configuration
    /// and a moderate default budget.
    pub fn new(problem: P) -> Self {
        Study {
            problem,
            islands: 2,
            island: Nsga2Config {
                population_size: 80,
                ..Default::default()
            },
            generations: 400,
            migration_interval: 200,
            migration_probability: 0.5,
            extra_stopping: None,
            reference_point: None,
            executor: None,
        }
    }

    /// Overrides the per-island population size and total generation budget.
    /// The migration interval is clamped to the new budget.
    #[must_use]
    pub fn with_budget(mut self, population: usize, generations: usize) -> Self {
        self.island.population_size = population;
        self.generations = generations;
        self.migration_interval = self.migration_interval.min(generations.max(1));
        self
    }

    /// Overrides the number of islands.
    #[must_use]
    pub fn with_islands(mut self, islands: usize) -> Self {
        self.islands = islands;
        self
    }

    /// Overrides the migration interval and probability.
    #[must_use]
    pub fn with_migration(mut self, interval: usize, probability: f64) -> Self {
        self.migration_interval = interval;
        self.migration_probability = probability;
        self
    }

    /// Overrides the evaluation backend each island uses for its offspring
    /// batches. Results are bit-identical across backends for a fixed seed.
    /// The archipelago builds **one** persistent executor from this backend
    /// and shares it across every island for the lifetime of the run.
    #[must_use]
    pub fn with_backend(mut self, backend: EvalBackend) -> Self {
        self.island.backend = backend;
        self
    }

    /// Shares an existing evaluation [`Executor`] with every optimizer this
    /// study builds, instead of letting each build its own from the backend
    /// configuration. Useful when several studies (e.g. a parameter sweep)
    /// should share one worker pool. Executors never change results.
    #[must_use]
    pub fn with_executor(mut self, executor: Arc<Executor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Adds a stopping rule beside the generation budget — the run ends as
    /// soon as either fires. Call repeatedly to compose several rules.
    #[must_use]
    pub fn with_stopping(mut self, rule: StoppingRule) -> Self {
        self.extra_stopping = Some(match self.extra_stopping.take() {
            Some(existing) => StoppingRule::any_of([existing, rule]),
            None => rule,
        });
        self
    }

    /// Fixes the hypervolume reference point used by generation reports and
    /// stagnation detection (otherwise one is derived from the first
    /// generation's front).
    #[must_use]
    pub fn with_reference_point(mut self, reference: Vec<f64>) -> Self {
        self.reference_point = Some(reference);
        self
    }

    /// The problem under study.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// The generation budget.
    pub fn generations(&self) -> usize {
        self.generations
    }

    /// The archipelago configuration this study will run.
    pub fn archipelago_config(&self) -> ArchipelagoConfig {
        ArchipelagoConfig {
            islands: self.islands,
            island_config: Nsga2Config {
                generations: self.generations,
                ..self.island
            },
            migration_interval: self.migration_interval,
            migration_probability: self.migration_probability,
            topology: MigrationTopology::Broadcast,
        }
    }

    /// A fresh archipelago for this study, seeded deterministically (with
    /// the study's shared executor installed, when one was configured).
    pub fn optimizer(&self, seed: u64) -> Archipelago {
        let mut archipelago = Archipelago::new(self.archipelago_config(), seed);
        if let Some(executor) = &self.executor {
            archipelago.set_executor(Arc::clone(executor));
        }
        archipelago
    }

    /// A [`Driver`] over a fresh archipelago, with the study's generation
    /// budget (plus any [`Study::with_stopping`] rules) installed as the
    /// stopping rule. Attach observers or take checkpoints on the returned
    /// driver.
    pub fn driver(&self, seed: u64) -> Driver<&P, Archipelago> {
        let mut rules = vec![StoppingRule::MaxGenerations(self.generations)];
        if let Some(extra) = &self.extra_stopping {
            rules.push(extra.clone());
        }
        let mut driver = Driver::new(self.optimizer(seed), &self.problem)
            .with_stopping(StoppingRule::any_of(rules));
        if let Some(reference) = &self.reference_point {
            driver = driver.with_reference_point(reference.clone());
        }
        driver
    }

    /// Runs the study to completion with a deterministic seed.
    pub fn run(&self, seed: u64) -> StudyOutcome {
        let mut driver = self.driver(seed);
        let front = driver.run();
        StudyOutcome {
            front,
            evaluations: driver.optimizer().evaluations(),
            generations: driver.generation(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LeafRedesignProblem;
    use pathway_moo::engine::HistoryObserver;
    use pathway_moo::problems::Schaffer;
    use pathway_photosynthesis::Scenario;

    fn schaffer_study() -> Study<Schaffer> {
        Study::new(Schaffer)
            .with_budget(20, 15)
            .with_migration(5, 0.5)
    }

    #[test]
    fn run_reports_actual_budget_spent() {
        let outcome = schaffer_study().run(5);
        assert!(!outcome.front.is_empty());
        assert_eq!(outcome.generations, 15);
        assert_eq!(outcome.evaluations, 2 * 20 * (15 + 1));
    }

    #[test]
    fn study_matches_a_raw_archipelago_run() {
        let study = schaffer_study();
        let via_study = study.run(11);
        let via_archipelago = study.optimizer(11).run(&Schaffer);
        assert_eq!(via_study.front, via_archipelago);
    }

    #[test]
    fn extra_stopping_rules_end_the_run_early() {
        let outcome = schaffer_study()
            .with_stopping(StoppingRule::MaxEvaluations(2 * 20 * 3))
            .run(2);
        assert!(outcome.generations < 15);
        assert!(outcome.evaluations <= 2 * 20 * 4);
    }

    #[test]
    fn driver_exposes_observers_and_checkpoints() {
        let study = schaffer_study();
        let history = HistoryObserver::new();
        let mut driver = study.driver(9).with_observer(history.clone());
        driver.step();
        let checkpoint = driver.checkpoint();
        assert_eq!(checkpoint.generation, 1);
        assert_eq!(history.reports().len(), 1);
    }

    #[test]
    fn shared_executor_changes_nothing_but_the_pool() {
        let plain = schaffer_study().with_backend(EvalBackend::Serial).run(7);
        let pool = Executor::shared(EvalBackend::Threads(2));
        let pooled = schaffer_study().with_executor(pool).run(7);
        assert_eq!(plain.front, pooled.front);
        assert_eq!(plain.evaluations, pooled.evaluations);
    }

    #[test]
    fn leaf_problem_study_runs_end_to_end() {
        let study = Study::new(LeafRedesignProblem::new(Scenario::present_low_export()))
            .with_budget(12, 6)
            .with_migration(3, 0.5);
        let outcome = study.run(1);
        assert!(!outcome.front.is_empty());
        assert_eq!(outcome.front[0].objectives.len(), 2);
    }
}

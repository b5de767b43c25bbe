use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::engine::telemetry::MetricsRegistry;
use crate::engine::{EngineError, Nsga2State, Optimizer, OptimizerState, RngState};
use crate::exec::Executor;
use crate::individual::sample_within;
use crate::{
    fast_nondominated_sort_with, polynomial_mutation, sbx_crossover, tournament_select,
    EvalBackend, Individual, MultiObjectiveProblem, SbxScratch, SortScratch,
};

/// NSGA-II settings: what a spec's `[optimizer]` section says for
/// `kind = nsga2`, and what every archipelago island runs. The generation
/// budget is not here: the driver's stopping rule bounds the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nsga2Spec {
    /// Individuals kept each generation.
    pub population: usize,
    /// Probability of applying SBX crossover to a mating pair.
    pub crossover_probability: f64,
    /// SBX distribution index (η_c).
    pub eta_crossover: f64,
    /// Per-gene mutation probability; `None` (spelled `auto` in text form)
    /// uses the `1/n` convention.
    pub mutation_probability: Option<f64>,
    /// Polynomial-mutation distribution index (η_m).
    pub eta_mutation: f64,
    /// How offspring batches are evaluated. `Threads(n)` is bit-identical to
    /// `Serial` for a fixed seed; it only changes wall-clock time.
    pub backend: EvalBackend,
}

impl Default for Nsga2Spec {
    fn default() -> Self {
        Nsga2Spec {
            population: 100,
            crossover_probability: 0.9,
            eta_crossover: 15.0,
            mutation_probability: None,
            eta_mutation: 20.0,
            backend: EvalBackend::Serial,
        }
    }
}

/// The Non-dominated Sorting Genetic Algorithm II (Deb et al., 2002).
///
/// Derivative-free, elitist, with constrained-domination handling — the
/// island engine of the paper's PMO2 framework.
///
/// # Example
///
/// ```
/// use pathway_moo::engine::{Driver, StoppingRule};
/// use pathway_moo::{Nsga2, Nsga2Spec, problems::Zdt1};
///
/// let spec = Nsga2Spec { population: 40, ..Default::default() };
/// let front = Driver::new(Nsga2::new(spec, 1), &Zdt1 { variables: 6 })
///     .with_stopping(StoppingRule::MaxGenerations(60))
///     .run();
/// assert!(front.len() > 5);
/// ```
#[derive(Debug, Clone)]
pub struct Nsga2 {
    spec: Nsga2Spec,
    rng: StdRng,
    population: Vec<Individual>,
    scratch: SortScratch,
    /// SBX's reusable buffers; like `scratch`, never checkpointed.
    sbx_scratch: SbxScratch,
    /// Parents and offspring during environmental selection, empty between
    /// generations; kept for its allocation, never checkpointed.
    combined: Vec<Individual>,
    evaluations: usize,
    /// Lazily built from `spec.backend` on first use, or injected via
    /// [`Nsga2::set_executor`]. Archipelago islands never use theirs: the
    /// archipelago evaluates for them on its own executor. Not part of the
    /// run state: checkpoints never carry it and restoring never touches
    /// it.
    executor: Option<Arc<Executor>>,
    /// Telemetry sink for the per-generation phase breakdown. Like the
    /// executor: never checkpointed, never restored, never consulted by
    /// the search itself.
    metrics: Option<MetricsRegistry>,
}

impl Nsga2 {
    /// Creates a solver with a deterministic seed.
    pub fn new(spec: Nsga2Spec, seed: u64) -> Self {
        Nsga2 {
            spec,
            rng: StdRng::seed_from_u64(seed),
            population: Vec::new(),
            scratch: SortScratch::new(),
            sbx_scratch: SbxScratch::new(),
            combined: Vec::new(),
            evaluations: 0,
            executor: None,
            metrics: None,
        }
    }

    /// Installs a (usually shared) evaluation executor, replacing the one
    /// this solver would otherwise lazily build from its configured
    /// [`EvalBackend`]. The executor only changes where batches are
    /// evaluated, never what they evaluate to, so swapping executors
    /// mid-run — or resuming a checkpoint under a different executor —
    /// preserves bit-identical results.
    pub fn set_executor(&mut self, executor: Arc<Executor>) {
        self.executor = Some(executor);
    }

    /// The executor evaluating this solver's batches, building it from the
    /// configured backend on first use.
    fn executor(&mut self) -> Arc<Executor> {
        Arc::clone(
            self.executor
                .get_or_insert_with(|| Executor::shared(self.spec.backend)),
        )
    }

    /// Current population (empty before the first generation).
    pub fn population(&self) -> &[Individual] {
        &self.population
    }

    /// Replaces the current population, for tests that install a known
    /// population. Extra individuals are truncated on the next
    /// environmental selection. Ranks and crowding are recomputed
    /// immediately: the next `step`'s mating tournament reads those fields
    /// before any environmental selection runs, so stale or foreign
    /// bookkeeping on the injected individuals must not survive this call.
    #[cfg(test)]
    pub(crate) fn set_population(&mut self, population: Vec<Individual>) {
        self.population = population;
        self.refresh_ranks();
    }

    /// Appends migrant individuals to the current population without copying
    /// the residents. Extra individuals are truncated on the next
    /// environmental selection.
    pub fn inject_migrants<I: IntoIterator<Item = Individual>>(&mut self, migrants: I) {
        self.population.extend(migrants);
    }

    /// Re-runs non-dominated sorting and crowding assignment on the current
    /// population in place, so `rank`/`crowding` reflect its present
    /// composition. The archipelago calls this after injecting migrants;
    /// without it, tournament selection would read bookkeeping computed on
    /// the migrants' *source* island.
    pub fn refresh_ranks(&mut self) {
        let members = self.population.as_mut_slice();
        if members.is_empty() {
            return;
        }
        fast_nondominated_sort_with(members, &mut self.scratch);
        self.scratch.assign_crowding(members);
    }

    /// Samples the initial population's decision vectors on this solver's
    /// RNG stream, to be evaluated and then handed to [`Nsga2::install`].
    pub(crate) fn sample<P: MultiObjectiveProblem>(&mut self, problem: &P) -> Vec<Vec<f64>> {
        let bounds = problem.bounds();
        (0..self.spec.population)
            .map(|_| sample_within(&bounds, &mut self.rng))
            .collect()
    }

    /// Installs the evaluated initial population (the vectors
    /// [`Nsga2::sample`] drew, in order) and ranks it.
    pub(crate) fn install(&mut self, population: Vec<Individual>) {
        self.evaluations += population.len();
        self.population = population;
        self.refresh_ranks();
    }

    /// Mating and variation: tournament selection, SBX crossover and
    /// polynomial mutation on this solver's own RNG stream produce the full
    /// offspring batch, to be evaluated and then handed to
    /// [`Nsga2::select`]. Records the `variation` phase.
    pub(crate) fn breed<P: MultiObjectiveProblem>(&mut self, problem: &P) -> Vec<Vec<f64>> {
        let variation_started = Instant::now();
        let bounds = problem.bounds();
        let mutation_probability = self
            .spec
            .mutation_probability
            .unwrap_or(1.0 / problem.num_variables() as f64);
        let parents = &self.population;
        let mut children: Vec<Vec<f64>> = Vec::with_capacity(self.spec.population);
        while children.len() < self.spec.population {
            let a = tournament_select(parents, &mut self.rng);
            let b = tournament_select(parents, &mut self.rng);
            let (mut child_a, mut child_b) = if rand::Rng::gen_bool(
                &mut self.rng,
                self.spec.crossover_probability.clamp(0.0, 1.0),
            ) {
                sbx_crossover(
                    &parents[a].variables,
                    &parents[b].variables,
                    &bounds,
                    self.spec.eta_crossover,
                    &mut self.rng,
                    &mut self.sbx_scratch,
                )
            } else {
                (parents[a].variables.clone(), parents[b].variables.clone())
            };
            polynomial_mutation(
                &mut child_a,
                &bounds,
                mutation_probability,
                self.spec.eta_mutation,
                &mut self.rng,
            );
            polynomial_mutation(
                &mut child_b,
                &bounds,
                mutation_probability,
                self.spec.eta_mutation,
                &mut self.rng,
            );
            children.push(child_a);
            if children.len() < self.spec.population {
                children.push(child_b);
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.record_phase("variation", variation_started.elapsed());
        }
        children
    }

    /// Environmental selection on parents ∪ the evaluated offspring (the
    /// vectors [`Nsga2::breed`] produced, in order): (rank, crowding)
    /// truncation to the population size. Records the `selection` phase.
    ///
    /// Index-based: the parents and the offspring are moved into one reused
    /// buffer, the sort, the crowding pass and the survivor choice reuse the
    /// solver's [`SortScratch`], and the survivors are moved, never cloned,
    /// back into the population's own buffer. Once the buffers are warm the
    /// only allocation is the offspring batch itself.
    pub(crate) fn select(&mut self, offspring: Vec<Individual>) {
        self.evaluations += offspring.len();
        let selection_started = Instant::now();
        let mut survivors = std::mem::take(&mut self.population);
        let mut combined = std::mem::take(&mut self.combined);
        combined.append(&mut survivors);
        combined.extend(offspring);
        fast_nondominated_sort_with(&mut combined, &mut self.scratch);
        self.scratch.assign_crowding(&mut combined);
        let chosen = self
            .scratch
            .select_survivors(&combined, self.spec.population);
        survivors.extend(chosen.iter().map(|&i| std::mem::take(&mut combined[i])));
        combined.clear();
        self.combined = combined;
        self.population = survivors;
        if let Some(metrics) = &self.metrics {
            metrics.record_phase("selection", selection_started.elapsed());
        }
    }

    /// The rank-0 members, in population order.
    fn front_members(&self) -> impl Iterator<Item = &Individual> {
        self.population.iter().filter(|member| member.rank == 0)
    }

    /// Captures the solver's run state (RNG stream, population with its
    /// bookkeeping, evaluation odometer) as plain data.
    pub(crate) fn snapshot(&self) -> Nsga2State {
        Nsga2State {
            rng: RngState::capture(&self.rng),
            population: self.population.clone(),
            evaluations: self.evaluations,
        }
    }

    /// Restores a snapshot captured with [`Nsga2::snapshot`]. The population
    /// is installed verbatim (its `rank`/`crowding` fields were valid when
    /// captured), so no RNG draws happen and the restored solver continues
    /// the exact trajectory of the captured one.
    ///
    /// Snapshots taken between generations always hold exactly
    /// `population_size` members (or none, before initialization), so any
    /// other length means the snapshot came from a differently configured
    /// solver and is rejected.
    pub(crate) fn restore_snapshot(&mut self, state: Nsga2State) -> Result<(), EngineError> {
        if !state.population.is_empty() && state.population.len() != self.spec.population {
            return Err(EngineError::ConfigMismatch {
                detail: format!(
                    "snapshot holds {} individuals but this solver is configured for {}",
                    state.population.len(),
                    self.spec.population
                ),
            });
        }
        self.rng = state.rng.rebuild();
        self.population = state.population;
        self.evaluations = state.evaluations;
        Ok(())
    }
}

impl Optimizer for Nsga2 {
    /// Samples every decision vector first (one RNG stream), then evaluates
    /// the whole batch through the configured executor.
    fn initialize<P: MultiObjectiveProblem>(&mut self, problem: &P) {
        if !self.population.is_empty() {
            return;
        }
        let variables = self.sample(problem);
        let population = self.executor().evaluate_individuals(problem, variables);
        self.install(population);
    }

    /// Breeds the offspring, evaluates them in one batch, then selects the
    /// survivors. The archipelago runs the same three pieces, with one
    /// batch for all of its islands.
    fn step<P: MultiObjectiveProblem>(&mut self, problem: &P) {
        self.initialize(problem);
        let children = self.breed(problem);
        let offspring = self.executor().evaluate_individuals(problem, children);
        self.select(offspring);
    }

    fn population(&self) -> Vec<Individual> {
        self.population.clone()
    }

    /// Rank-0 members under constrained domination, read from the `rank`
    /// bookkeeping that `initialize`, `step` and `refresh_ranks` maintain,
    /// so only the front members themselves are cloned. After
    /// [`Nsga2::inject_migrants`] the ranks are stale until the next
    /// [`Nsga2::refresh_ranks`] (the archipelago always refreshes after
    /// injecting).
    fn front(&self) -> Vec<Individual> {
        self.front_members().cloned().collect()
    }

    fn front_objectives(&self) -> Vec<&[f64]> {
        self.front_members()
            .map(|member| member.objectives.as_slice())
            .collect()
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }

    fn state(&self) -> OptimizerState {
        OptimizerState::Nsga2(self.snapshot())
    }

    fn restore(&mut self, state: OptimizerState) -> Result<(), EngineError> {
        match state {
            OptimizerState::Nsga2(snapshot) => self.restore_snapshot(snapshot),
            other => Err(EngineError::StateMismatch {
                expected: "Nsga2",
                found: other.kind(),
            }),
        }
    }

    /// `step` then records the `variation` and `selection` phases.
    fn set_metrics(&mut self, registry: MetricsRegistry) {
        self.metrics = Some(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;
    use crate::engine::{Driver, StoppingRule};
    use crate::problems::{BinhKorn, Schaffer, Zdt1};

    fn small() -> Nsga2Spec {
        Nsga2Spec {
            population: 40,
            ..Default::default()
        }
    }

    /// The final front of `generations` generations from `seed`.
    fn run<P: MultiObjectiveProblem>(
        spec: Nsga2Spec,
        seed: u64,
        generations: usize,
        problem: &P,
    ) -> Vec<Individual> {
        Driver::new(Nsga2::new(spec, seed), problem)
            .with_stopping(StoppingRule::MaxGenerations(generations))
            .run()
    }

    #[test]
    fn schaffer_front_is_found() {
        let front = run(small(), 42, 60, &Schaffer);
        assert!(front.len() >= 10);
        for individual in &front {
            // Pareto set of the Schaffer problem is x in [0, 2].
            assert!(individual.variables[0] > -0.2 && individual.variables[0] < 2.2);
        }
    }

    #[test]
    fn front_members_do_not_dominate_each_other() {
        let front = run(small(), 3, 40, &Zdt1 { variables: 6 });
        for a in &front {
            for b in &front {
                assert!(!dominates(&a.objectives, &b.objectives) || a.objectives == b.objectives);
            }
        }
    }

    #[test]
    fn zdt1_converges_towards_the_true_front() {
        let spec = Nsga2Spec {
            population: 60,
            ..Default::default()
        };
        let front = run(spec, 7, 150, &Zdt1 { variables: 8 });
        // On the true front f2 = 1 - sqrt(f1); measure the mean gap.
        let mean_gap: f64 = front
            .iter()
            .map(|ind| (ind.objectives[1] - (1.0 - ind.objectives[0].sqrt())).abs())
            .sum::<f64>()
            / front.len() as f64;
        assert!(mean_gap < 0.25, "mean gap to the true front was {mean_gap}");
    }

    #[test]
    fn constrained_problem_yields_feasible_front() {
        let front = run(small(), 11, 80, &BinhKorn);
        assert!(!front.is_empty());
        for individual in &front {
            assert!(individual.is_feasible());
        }
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let a = run(small(), 99, 20, &Schaffer);
        let b = run(small(), 99, 20, &Schaffer);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.objectives, y.objectives);
        }
    }

    #[test]
    fn different_seeds_explore_differently() {
        let a = run(small(), 1, 10, &Zdt1 { variables: 6 });
        let b = run(small(), 2, 10, &Zdt1 { variables: 6 });
        assert_ne!(
            a.iter().map(|i| i.objectives.clone()).collect::<Vec<_>>(),
            b.iter().map(|i| i.objectives.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn step_keeps_population_size_constant() {
        let mut solver = Nsga2::new(small(), 5);
        solver.initialize(&Schaffer);
        assert_eq!(solver.population().len(), 40);
        solver.step(&Schaffer);
        assert_eq!(solver.population().len(), 40);
    }

    #[test]
    fn set_population_is_truncated_on_next_step() {
        let mut solver = Nsga2::new(small(), 5);
        solver.initialize(&Schaffer);
        let inflated = [solver.population(), solver.population()].concat();
        solver.set_population(inflated);
        solver.step(&Schaffer);
        assert_eq!(solver.population().len(), 40);
    }
}

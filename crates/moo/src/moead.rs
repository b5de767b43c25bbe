use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dominance::nondominated_mask;
use crate::engine::{EngineError, MoeadState, Optimizer, OptimizerState, RngState};
use crate::exec::Executor;
use crate::individual::sample_within;
use crate::{
    sbx_crossover, EvalBackend, Individual, MultiObjectiveProblem, PolynomialMutation, SbxScratch,
};

/// MOEA/D settings: what a spec's `[optimizer]` section says for
/// `kind = moead`. The generation budget is not here: the driver's stopping
/// rule bounds the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoeadSpec {
    /// Number of sub-problems (weight vectors), which is also the population
    /// size.
    pub population: usize,
    /// Neighbourhood size (number of closest weight vectors).
    pub neighborhood: usize,
    /// SBX distribution index.
    pub eta_crossover: f64,
    /// Polynomial-mutation distribution index.
    pub eta_mutation: f64,
    /// Per-gene mutation probability; `None` uses `1/n`.
    pub mutation_probability: Option<f64>,
    /// Backend that evaluates the initial population batch and each child.
    /// MOEA/D's generation loop updates sub-problems path-dependently, so
    /// each child is a one-candidate batch, which runs on the calling
    /// thread; only initialization spreads across a pool.
    pub backend: EvalBackend,
}

impl Default for MoeadSpec {
    fn default() -> Self {
        MoeadSpec {
            population: 100,
            neighborhood: 20,
            eta_crossover: 15.0,
            eta_mutation: 20.0,
            mutation_probability: None,
            backend: EvalBackend::Serial,
        }
    }
}

/// MOEA/D: multi-objective evolutionary algorithm based on decomposition
/// (Zhang & Li, 2007), with Tchebycheff aggregation.
///
/// This is the comparison baseline of the paper's Table 1. Only bi- and
/// tri-objective problems are supported, which covers everything the paper
/// evaluates.
///
/// The solver is step-driven through [`Optimizer`]:
/// [`initialize`](Optimizer::initialize) builds the weight vectors,
/// neighbourhoods and initial population, and [`step`](Optimizer::step)
/// advances one generation, so it is driven, observed, stopped and
/// checkpointed by a [`crate::engine::Driver`] exactly like NSGA-II. Every
/// candidate, the initial population and each child, is scored through
/// [`Executor::evaluate_batch`], as NSGA-II's are.
///
/// # Example
///
/// ```
/// use pathway_moo::engine::{Driver, StoppingRule};
/// use pathway_moo::{Moead, MoeadSpec, problems::Schaffer};
///
/// let spec = MoeadSpec { population: 40, ..Default::default() };
/// let front = Driver::new(Moead::new(spec, 3), &Schaffer)
///     .with_stopping(StoppingRule::MaxGenerations(50))
///     .run();
/// assert!(!front.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Moead {
    spec: MoeadSpec,
    rng: StdRng,
    /// Weight vectors, one per sub-problem. Empty until initialization;
    /// derived from the spec and the problem's objective count
    /// only, so they are rebuilt (not checkpointed) on restore.
    weights: Vec<Vec<f64>>,
    /// Per-sub-problem neighbourhoods (indices of the closest weights).
    neighborhoods: Vec<Vec<usize>>,
    /// One incumbent per sub-problem, in weight order.
    population: Vec<Individual>,
    /// Running ideal point `z*` over everything evaluated so far.
    ideal: Vec<f64>,
    evaluations: usize,
    /// Lazily built from `spec.backend` on first use, or injected via
    /// [`Moead::set_executor`]. Configuration, not run state.
    executor: Option<Arc<Executor>>,
    /// SBX's reusable buffers; not run state, never checkpointed.
    sbx_scratch: SbxScratch,
    /// SBX's second child, which MOEA/D computes and drops; reused across
    /// children. Like `sbx_scratch`, not run state.
    dropped_child: Vec<f64>,
}

impl Moead {
    /// Creates a solver with a deterministic seed.
    pub fn new(spec: MoeadSpec, seed: u64) -> Self {
        Moead {
            spec,
            rng: StdRng::seed_from_u64(seed),
            weights: Vec::new(),
            neighborhoods: Vec::new(),
            population: Vec::new(),
            ideal: Vec::new(),
            evaluations: 0,
            executor: None,
            sbx_scratch: SbxScratch::new(),
            dropped_child: Vec::new(),
        }
    }

    /// Installs a (usually shared) evaluation executor, replacing the one
    /// this solver would lazily build from its configured [`EvalBackend`].
    /// Executors never change results, only where batches run.
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

    /// Current population, one incumbent per sub-problem (empty before
    /// initialization).
    pub fn population(&self) -> &[Individual] {
        &self.population
    }

    /// Replaces the current population, for tests that install a known
    /// population. The ideal point is reset to the member-wise objective
    /// minimum of the new population.
    ///
    /// # Panics
    ///
    /// Panics if the solver is already initialized and `population` does not
    /// provide exactly one incumbent per weight vector.
    #[cfg(test)]
    pub(crate) fn set_population(&mut self, population: Vec<Individual>) {
        if !self.weights.is_empty() {
            assert_eq!(
                population.len(),
                self.weights.len(),
                "MOEA/D needs exactly one incumbent per weight vector"
            );
        }
        self.ideal = ideal_point(&population);
        self.population = population;
    }

    /// Uniformly spread weight vectors for 2 or 3 objectives.
    fn weight_vectors(&self, num_objectives: usize) -> Vec<Vec<f64>> {
        let n = self.spec.population.max(2);
        match num_objectives {
            2 => (0..n)
                .map(|i| {
                    let w = i as f64 / (n - 1) as f64;
                    vec![w, 1.0 - w]
                })
                .collect(),
            3 => {
                // Simplex-lattice design scaled to approximately n points.
                let mut weights = Vec::new();
                let h = ((2.0 * n as f64).sqrt() as usize).max(2);
                for i in 0..=h {
                    for j in 0..=(h - i) {
                        let k = h - i - j;
                        weights.push(vec![
                            i as f64 / h as f64,
                            j as f64 / h as f64,
                            k as f64 / h as f64,
                        ]);
                    }
                }
                weights
            }
            m => panic!("MOEA/D weight generation supports 2 or 3 objectives, got {m}"),
        }
    }

    fn tchebycheff(objectives: &[f64], weight: &[f64], ideal: &[f64]) -> f64 {
        objectives
            .iter()
            .zip(weight.iter())
            .zip(ideal.iter())
            .map(|((&f, &w), &z)| w.max(1e-6) * (f - z).abs())
            .fold(0.0, f64::max)
    }

    /// The front's members: the non-dominated, feasible subset of the
    /// current population (or of the whole population when no member is
    /// feasible), in population order, duplicates kept, members with a NaN
    /// objective left out.
    fn front_members(&self) -> Vec<&Individual> {
        let feasible: Vec<&Individual> = self
            .population
            .iter()
            .filter(|individual| individual.is_feasible())
            .collect();
        let pool = if feasible.is_empty() {
            self.population.iter().collect()
        } else {
            feasible
        };
        let objectives: Vec<&[f64]> = pool.iter().map(|i| i.objectives.as_slice()).collect();
        let mask = nondominated_mask(&objectives);
        pool.into_iter()
            .zip(mask)
            .filter(|(individual, keep)| *keep && !individual.objectives.iter().any(|v| v.is_nan()))
            .map(|(individual, _)| individual)
            .collect()
    }

    /// Captures the solver's run state as plain data. The weight vectors and
    /// neighbourhoods are derived data and deliberately not captured — they
    /// are rebuilt on the next [`initialize`](Optimizer::initialize).
    pub(crate) fn snapshot(&self) -> MoeadState {
        MoeadState {
            rng: RngState::capture(&self.rng),
            population: self.population.clone(),
            ideal: self.ideal.clone(),
            evaluations: self.evaluations,
        }
    }

    /// Restores a snapshot captured with [`Moead::snapshot`].
    ///
    /// The incumbent count must match this solver's weight-vector count.
    /// When the solver has not built its weights yet, the count it *would*
    /// build is derived from the configuration and the snapshot's objective
    /// dimension, so a mismatched checkpoint is rejected here instead of
    /// panicking on the next [`initialize`](Optimizer::initialize).
    pub(crate) fn restore_snapshot(&mut self, state: MoeadState) -> Result<(), EngineError> {
        let expected = if !self.weights.is_empty() {
            Some(self.weights.len())
        } else {
            match state.population.first().map(|i| i.objectives.len()) {
                Some(objectives @ (2 | 3)) => Some(self.weight_vectors(objectives).len()),
                Some(objectives) => {
                    return Err(EngineError::ConfigMismatch {
                        detail: format!(
                            "snapshot has {objectives}-objective incumbents; MOEA/D supports \
                             2 or 3 objectives"
                        ),
                    })
                }
                None => None,
            }
        };
        if let Some(expected) = expected {
            if !state.population.is_empty() && state.population.len() != expected {
                return Err(EngineError::ConfigMismatch {
                    detail: format!(
                        "snapshot has {} incumbents but this solver generates {} weight vectors",
                        state.population.len(),
                        expected
                    ),
                });
            }
        }
        self.rng = state.rng.rebuild();
        self.population = state.population;
        self.ideal = state.ideal;
        self.evaluations = state.evaluations;
        Ok(())
    }
}

/// Per-objective minimum over a set of individuals; empty for an empty set.
fn ideal_point(population: &[Individual]) -> Vec<f64> {
    let Some(first) = population.first() else {
        return Vec::new();
    };
    let mut ideal = vec![f64::INFINITY; first.objectives.len()];
    for individual in population {
        for (z, &f) in ideal.iter_mut().zip(&individual.objectives) {
            *z = z.min(f);
        }
    }
    ideal
}

impl Optimizer for Moead {
    /// Builds the weight vectors and neighbourhoods, then samples one
    /// individual per sub-problem and evaluates them in one batch.
    ///
    /// # Panics
    ///
    /// Panics if the problem has more than three objectives.
    fn initialize<P: MultiObjectiveProblem>(&mut self, problem: &P) {
        if self.weights.is_empty() {
            self.weights = self.weight_vectors(problem.num_objectives());
            let n = self.weights.len();
            let t = self.spec.neighborhood.min(n);
            self.neighborhoods = (0..n)
                .map(|i| {
                    let mut order: Vec<usize> = (0..n).collect();
                    order.sort_by(|&a, &b| {
                        let da: f64 = self.weights[i]
                            .iter()
                            .zip(&self.weights[a])
                            .map(|(x, y)| (x - y) * (x - y))
                            .sum();
                        let db: f64 = self.weights[i]
                            .iter()
                            .zip(&self.weights[b])
                            .map(|(x, y)| (x - y) * (x - y))
                            .sum();
                        da.partial_cmp(&db).expect("distances are finite")
                    });
                    order.into_iter().take(t).collect()
                })
                .collect();
        }
        if self.population.is_empty() {
            // One individual per sub-problem: sample every decision vector
            // first, then evaluate the batch through the executor.
            let bounds = problem.bounds();
            let initial_variables: Vec<Vec<f64>> = (0..self.weights.len())
                .map(|_| sample_within(&bounds, &mut self.rng))
                .collect();
            self.evaluations += initial_variables.len();
            self.population = self
                .executor()
                .evaluate_individuals(problem, initial_variables);
            self.ideal = ideal_point(&self.population);
        } else {
            assert_eq!(
                self.population.len(),
                self.weights.len(),
                "MOEA/D needs exactly one incumbent per weight vector"
            );
            if self.ideal.is_empty() {
                self.ideal = ideal_point(&self.population);
            }
        }
    }

    /// Every sub-problem in turn produces one child from its neighbourhood,
    /// and the child competes for the neighbouring incumbencies under
    /// Tchebycheff aggregation. Each child is scored as a one-candidate
    /// batch before the next is bred, because the next sub-problem's
    /// parents may be the incumbents it just replaced.
    fn step<P: MultiObjectiveProblem>(&mut self, problem: &P) {
        self.initialize(problem);
        let executor = self.executor();
        let bounds = problem.bounds();
        let mutation = PolynomialMutation::new(
            self.spec
                .mutation_probability
                .unwrap_or(1.0 / problem.num_variables() as f64),
            self.spec.eta_mutation,
        );
        let t = self.spec.neighborhood.min(self.weights.len());

        for k in 0..self.neighborhoods.len() {
            // Pick two parents from the neighbourhood.
            let pa = self.neighborhoods[k][self.rng.gen_range(0..t)];
            let pb = self.neighborhoods[k][self.rng.gen_range(0..t)];
            let mut child = vec![0.0; bounds.len()];
            self.dropped_child.resize(bounds.len(), 0.0);
            sbx_crossover(
                &self.population[pa].variables,
                &self.population[pb].variables,
                &bounds,
                self.spec.eta_crossover,
                &mut self.rng,
                &mut self.sbx_scratch,
                (&mut child, &mut self.dropped_child),
            );
            mutation.mutate(&mut child, &bounds, &mut self.rng);
            let child = executor
                .evaluate_individuals(problem, vec![child])
                .pop()
                .expect("one candidate in, one out");
            self.evaluations += 1;

            // Update the ideal point.
            for (z, &f) in self.ideal.iter_mut().zip(&child.objectives) {
                *z = z.min(f);
            }
            // Update neighbouring sub-problems. Infeasible children are
            // only allowed to replace more-violating incumbents.
            for &j in &self.neighborhoods[k] {
                let incumbent = &self.population[j];
                let replace = if child.violation > 0.0 || incumbent.violation > 0.0 {
                    child.violation < incumbent.violation
                } else {
                    Self::tchebycheff(&child.objectives, &self.weights[j], &self.ideal)
                        <= Self::tchebycheff(&incumbent.objectives, &self.weights[j], &self.ideal)
                };
                if replace {
                    self.population[j] = child.clone();
                }
            }
        }
    }

    fn population(&self) -> Vec<Individual> {
        self.population.clone()
    }

    /// The non-dominated, feasible subset of the current population (or of
    /// the whole population when no member is feasible).
    ///
    /// Plain Pareto dominance decides, in population order, with duplicates
    /// kept. Members with a NaN objective are left out.
    fn front(&self) -> Vec<Individual> {
        self.front_members().into_iter().cloned().collect()
    }

    fn front_objectives(&self) -> Vec<&[f64]> {
        self.front_members()
            .into_iter()
            .map(|individual| individual.objectives.as_slice())
            .collect()
    }

    fn evaluations(&self) -> usize {
        self.evaluations
    }

    fn state(&self) -> OptimizerState {
        OptimizerState::Moead(self.snapshot())
    }

    fn restore(&mut self, state: OptimizerState) -> Result<(), EngineError> {
        match state {
            OptimizerState::Moead(snapshot) => self.restore_snapshot(snapshot),
            other => Err(EngineError::StateMismatch {
                expected: "Moead",
                found: other.kind(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;
    use crate::engine::{Driver, StoppingRule};
    use crate::problems::{Dtlz2, Schaffer, Zdt1};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn small() -> MoeadSpec {
        MoeadSpec {
            population: 40,
            neighborhood: 10,
            ..Default::default()
        }
    }

    /// The final front of `generations` generations from `seed`.
    fn run<P: MultiObjectiveProblem>(
        seed: u64,
        generations: usize,
        problem: &P,
    ) -> Vec<Individual> {
        Driver::new(Moead::new(small(), seed), problem)
            .with_stopping(StoppingRule::MaxGenerations(generations))
            .run()
    }

    #[test]
    fn schaffer_front_is_covered() {
        let front = run(4, 60, &Schaffer);
        assert!(front.len() >= 5);
        for individual in &front {
            assert!(individual.variables[0] > -0.3 && individual.variables[0] < 2.3);
        }
    }

    #[test]
    fn front_is_mutually_nondominating() {
        let front = run(8, 40, &Zdt1 { variables: 6 });
        for a in &front {
            for b in &front {
                assert!(!dominates(&a.objectives, &b.objectives) || a.objectives == b.objectives);
            }
        }
    }

    #[test]
    fn three_objective_problem_is_supported() {
        let front = run(5, 30, &Dtlz2 { variables: 6 });
        assert!(!front.is_empty());
        assert_eq!(front[0].objectives.len(), 3);
    }

    #[test]
    fn tchebycheff_is_zero_at_the_ideal_point() {
        let value = Moead::tchebycheff(&[1.0, 2.0], &[0.5, 0.5], &[1.0, 2.0]);
        assert_eq!(value, 0.0);
        let worse = Moead::tchebycheff(&[2.0, 3.0], &[0.5, 0.5], &[1.0, 2.0]);
        assert!(worse > 0.0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let a = run(77, 15, &Schaffer);
        let b = run(77, 15, &Schaffer);
        assert_eq!(
            a.iter().map(|i| i.objectives.clone()).collect::<Vec<_>>(),
            b.iter().map(|i| i.objectives.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stepwise_run_matches_monolithic_run() {
        let monolithic = run(5, 12, &Schaffer);
        let mut stepped = Moead::new(small(), 5);
        stepped.initialize(&Schaffer);
        for _ in 0..12 {
            stepped.step(&Schaffer);
        }
        let front = stepped.front();
        assert_eq!(
            monolithic
                .iter()
                .map(|i| i.objectives.clone())
                .collect::<Vec<_>>(),
            front
                .iter()
                .map(|i| i.objectives.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn parity_accessors_expose_and_replace_the_population() {
        let mut solver = Moead::new(small(), 3);
        solver.initialize(&Schaffer);
        assert_eq!(solver.population().len(), 40);
        assert_eq!(solver.evaluations(), 40);
        let mut replacement = solver.population().to_vec();
        replacement.reverse();
        solver.set_population(replacement);
        assert_eq!(solver.population().len(), 40);
        solver.step(&Schaffer);
        assert_eq!(solver.evaluations(), 80);
    }

    #[test]
    #[should_panic(expected = "one incumbent per weight vector")]
    fn set_population_rejects_wrong_sizes_once_initialized() {
        let mut solver = Moead::new(small(), 0);
        solver.initialize(&Schaffer);
        solver.set_population(Vec::new());
    }

    /// Schaffer answered only through `evaluate_batch`, counting the
    /// candidates it sees; the per-candidate entry points panic.
    struct BatchOnly {
        seen: AtomicUsize,
    }

    impl MultiObjectiveProblem for BatchOnly {
        fn num_variables(&self) -> usize {
            1
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn bounds(&self) -> Vec<(f64, f64)> {
            Schaffer.bounds()
        }
        fn evaluate(&self, _: &[f64]) -> Vec<f64> {
            panic!("MOEA/D must evaluate through the executor's batches")
        }
        fn constraint_violation(&self, _: &[f64]) -> f64 {
            panic!("MOEA/D must evaluate through the executor's batches")
        }
        fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
            self.seen.fetch_add(xs.len(), Ordering::Relaxed);
            xs.iter().map(|x| (Schaffer.evaluate(x), 0.0)).collect()
        }
    }

    #[test]
    fn every_candidate_is_scored_through_evaluate_batch() {
        let problem = BatchOnly {
            seen: AtomicUsize::new(0),
        };
        let mut driver = Driver::new(Moead::new(small(), 6), &problem)
            .with_stopping(StoppingRule::MaxGenerations(5));
        assert!(!driver.run().is_empty());
        let evaluations = driver.optimizer().evaluations();
        assert_eq!(evaluations, 40 * 6);
        assert_eq!(problem.seen.load(Ordering::Relaxed), evaluations);
    }

    #[test]
    #[should_panic(expected = "supports 2 or 3 objectives")]
    fn too_many_objectives_panic() {
        struct FourObjectives;
        impl MultiObjectiveProblem for FourObjectives {
            fn num_variables(&self) -> usize {
                1
            }
            fn num_objectives(&self) -> usize {
                4
            }
            fn bounds(&self) -> Vec<(f64, f64)> {
                vec![(0.0, 1.0)]
            }
            fn evaluate(&self, x: &[f64]) -> Vec<f64> {
                vec![x[0]; 4]
            }
        }
        Moead::new(small(), 0).initialize(&FourObjectives);
    }
}

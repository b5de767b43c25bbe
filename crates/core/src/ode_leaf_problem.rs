//! The dynamic (ODE-backed) leaf-redesign problem.
//!
//! [`crate::LeafRedesignProblem`] scores a design with the *analytic*
//! uptake model; this module scores it with the full
//! [`pathway_photosynthesis::CalvinCycleOde`] driven to steady state — the
//! oracle the paper actually describes, and orders of magnitude more
//! expensive. Every solve starts cold, from the model's fixed initial
//! state, so a design's score is a pure function of the design: it does not
//! depend on which designs were scored before, in which order, on which
//! executor lane or in which process. What pays for the cold start is the
//! Newton step: the model supplies its exact Jacobian, from closed-form
//! partials, as a sparse part plus a rank-one free-phosphate term, which the
//! pseudo-transient solver solves by Sherman–Morrison over a static-pivot
//! sparse LU in minimum-fill order. That LU runs as straight-line code
//! compiled from the model's pattern (`pathway-photosynthesis`'s generated
//! `src/calvin_lu.rs`, bit for bit the interpreter it was emitted from).
//! The natural leaf takes 67 steps and 68 right-hand-side calls, one trial
//! per step. `tests/leaf_oracle_digest.rs` pins the objectives,
//! violations and `ode.*` counters of 300 designs.

use std::sync::atomic::{AtomicU64, Ordering};

use pathway_moo::engine::MetricsRegistry;
use pathway_moo::MultiObjectiveProblem;
use pathway_photosynthesis::{
    EnzymePartition, IntegrationStats, OdeError, OdeUptakeEvaluator, Scenario,
};

/// Constraint violation of a design whose steady-state solve never
/// settles: infeasible, so it never dominates a design that settled.
const UNSETTLED_VIOLATION: f64 = 1.0;

/// The registry names of [`OracleCounters`], in order.
const COUNTER_NAMES: [&str; 6] = [
    "ode.steps",
    "ode.rhs_evals",
    "ode.jacobians",
    "ode.newton_iters",
    "ode.dense_fallbacks",
    "ode.unsettled",
];

/// Cumulative oracle work, summed over every evaluated design (the repeated
/// solve in [`MultiObjectiveProblem::constraint_violation`] is not counted).
/// Each counter is a pure sum, so the totals do not depend on the order
/// lanes finish in.
#[derive(Debug, Default)]
struct OracleCounters([AtomicU64; COUNTER_NAMES.len()]);

impl OracleCounters {
    fn add(&self, stats: Option<&IntegrationStats>, settled: bool) {
        let work = stats.map_or([0; 5], |stats| {
            [
                stats.steps_attempted(),
                stats.rhs_evaluations,
                stats.jacobian_evaluations,
                stats.newton_iterations,
                stats.dense_fallbacks,
            ]
        });
        let unsettled = usize::from(!settled);
        for (counter, n) in self.0.iter().zip(work.into_iter().chain([unsettled])) {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        }
    }
}

impl Clone for OracleCounters {
    fn clone(&self) -> Self {
        OracleCounters(std::array::from_fn(|i| {
            AtomicU64::new(self.0[i].load(Ordering::Relaxed))
        }))
    }
}

/// The leaf-redesign problem evaluated through the dynamic ODE model.
///
/// Objectives (both minimized): `-uptake` (net CO₂ uptake of the ODE steady
/// state, µmol m⁻² s⁻¹) and `nitrogen` (total protein nitrogen, mg/l) — the
/// same trade-off as [`crate::LeafRedesignProblem`], with the analytic
/// steady state replaced by the ODE model's.
///
/// Every candidate is solved from the cold start with the
/// [`OdeUptakeEvaluator::fast`] settings. The score of a design is
/// therefore the same whoever asks, whenever: serial and pooled
/// evaluation, per-candidate and batched evaluation, and a run resumed in a
/// fresh process all agree bit for bit, which is why the spec registry
/// serves this problem as `leaf-design-ode`. The model is bistable
/// (between 1.2x and 1.3x natural), and the cold start picks the branch
/// the leaf reaches from its fixed initial state.
///
/// # Example
///
/// ```no_run
/// use pathway_core::OdeLeafRedesignProblem;
/// use pathway_moo::{problems, MultiObjectiveProblem};
/// use pathway_photosynthesis::Scenario;
///
/// let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
/// let natural = pathway_photosynthesis::EnzymePartition::natural();
/// let objectives = problem.evaluate(natural.capacities());
/// assert!(objectives[0] < 0.0); // positive uptake
/// ```
#[derive(Debug, Clone)]
pub struct OdeLeafRedesignProblem {
    scenario: Scenario,
    evaluator: OdeUptakeEvaluator,
    bounds: Vec<(f64, f64)>,
    counters: OracleCounters,
}

impl OdeLeafRedesignProblem {
    /// Creates the problem for a scenario with the default search box
    /// (0.02×–4× the natural capacities, matching
    /// [`crate::LeafRedesignProblem`]) and the
    /// [`OdeUptakeEvaluator::fast`] solver settings (tolerance `1e-8`, 400
    /// steps) — the right trade-off inside an optimization loop.
    pub fn new(scenario: Scenario) -> Self {
        OdeLeafRedesignProblem {
            scenario,
            evaluator: OdeUptakeEvaluator::fast(),
            bounds: EnzymePartition::bounds(0.02, 4.0),
            counters: OracleCounters::default(),
        }
    }

    /// Dumps the cumulative oracle counters into `registry`: the solver
    /// work summed over every design, settled or not (`ode.steps`,
    /// `ode.rhs_evals`, `ode.jacobians`, `ode.newton_iters`, and
    /// `ode.dense_fallbacks`, the structured Newton solves that fell back to
    /// dense pivoting), plus `ode.unsettled`, the designs that never
    /// settled. Call once when an invocation finishes.
    pub fn record_oracle_metrics(&self, registry: &MetricsRegistry) {
        for (name, counter) in COUNTER_NAMES.iter().zip(&self.counters.0) {
            registry.add(name, counter.load(Ordering::Relaxed));
        }
    }

    /// The scenario being optimized.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Solves one candidate from the cold start: its objectives and
    /// constraint violation. The solve's work goes into `counters`, if
    /// given.
    ///
    /// A design whose solve never settles within the step budget scores
    /// `[0.0, nitrogen]` with violation [`UNSETTLED_VIOLATION`], so it is
    /// infeasible: a pathway that does not settle fixes no carbon worth
    /// reporting, and scoring it as a feasible zero-uptake design would let
    /// it crowd the low-nitrogen end of the front.
    fn evaluate_one(&self, x: &[f64], counters: Option<&OracleCounters>) -> (Vec<f64>, f64) {
        let partition = EnzymePartition::new(x.to_vec());
        let nitrogen = partition.total_nitrogen();
        let (stats, scored) = match self.evaluator.steady_state(&partition, &self.scenario) {
            Ok((steady, uptake)) => (Some(steady.stats), (vec![-uptake, nitrogen], 0.0)),
            Err(error) => {
                let stats = match error {
                    OdeError::SteadyStateNotReached { stats, .. } => Some(stats),
                    _ => None,
                };
                (stats, (vec![0.0, nitrogen], UNSETTLED_VIOLATION))
            }
        };
        if let Some(counters) = counters {
            counters.add(stats.as_ref(), scored.1 == 0.0);
        }
        scored
    }
}

impl MultiObjectiveProblem for OdeLeafRedesignProblem {
    fn num_variables(&self) -> usize {
        pathway_photosynthesis::ENZYME_COUNT
    }

    fn num_objectives(&self) -> usize {
        2
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.bounds.clone()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.evaluate_one(x, Some(&self.counters)).0
    }

    /// Solves the candidate again for its violation, so a per-candidate
    /// caller pays two solves where [`evaluate_batch`](Self::evaluate_batch)
    /// pays one. The optimizers never call it: they score every candidate
    /// through the executor's batches. The repeated solve is not counted,
    /// so the oracle counters count each design once.
    fn constraint_violation(&self, x: &[f64]) -> f64 {
        self.evaluate_one(x, None).1
    }

    /// One solve per candidate, for its objectives and violation together.
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        xs.iter()
            .map(|x| self.evaluate_one(x, Some(&self.counters)))
            .collect()
    }

    fn name(&self) -> &str {
        "leaf-design-ode"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathway_moo::exec::Executor;
    use pathway_moo::EvalBackend;

    fn small_batch() -> Vec<Vec<f64>> {
        // Three designs that settle, on both sides of the model's bistable
        // range (1.2x-1.3x natural).
        let natural = EnzymePartition::natural();
        vec![
            natural.capacities().to_vec(),
            natural.scaled(1.1).capacities().to_vec(),
            natural.scaled(1.3).capacities().to_vec(),
        ]
    }

    fn counters(problem: &OdeLeafRedesignProblem) -> [Option<u64>; 6] {
        let registry = MetricsRegistry::new();
        problem.record_oracle_metrics(&registry);
        let snapshot = registry.snapshot();
        COUNTER_NAMES.map(|name| snapshot.counter(name))
    }

    #[test]
    fn batched_evaluation_matches_the_per_candidate_path_bit_for_bit() {
        let batched = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let itemwise = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let xs = small_batch();
        let batch = batched.evaluate_batch(&xs);
        for (x, (objectives, violation)) in xs.iter().zip(&batch) {
            assert_eq!(objectives, &itemwise.evaluate(x));
            assert_eq!(*violation, 0.0);
        }
    }

    #[test]
    fn repeated_generations_score_identically_under_serial_and_pooled_executors() {
        let serial_problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let pooled_problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let serial = Executor::serial();
        let pooled = Executor::new(EvalBackend::Threads(2));
        let xs = small_batch();
        let first = serial.evaluate_batch(&serial_problem, &xs);
        for generation in 0..3 {
            assert_eq!(
                serial.evaluate_batch(&serial_problem, &xs),
                first,
                "generation {generation} rescored differently"
            );
            assert_eq!(
                pooled.evaluate_batch(&pooled_problem, &xs),
                first,
                "pooled generation {generation} diverged"
            );
        }
    }

    #[test]
    fn oracle_counters_add_up_the_solver_work_of_every_design() {
        let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let xs = small_batch();
        problem.evaluate_batch(&xs);
        problem.evaluate_batch(&xs);
        let mut expected = [0u64; 6];
        for x in &xs {
            let (steady, _) = OdeUptakeEvaluator::fast()
                .steady_state(
                    &EnzymePartition::new(x.clone()),
                    &Scenario::present_low_export(),
                )
                .expect("settles");
            let s = steady.stats;
            for (total, n) in expected.iter_mut().zip([
                s.steps_attempted(),
                s.rhs_evaluations,
                s.jacobian_evaluations,
                s.newton_iterations,
                s.dense_fallbacks,
                0,
            ]) {
                *total += 2 * n as u64;
            }
        }
        assert_eq!(counters(&problem), expected.map(Some));
        assert!(expected[0] > 0);
    }

    #[test]
    fn a_design_that_never_settles_is_infeasible_and_never_dominates_a_feasible_one() {
        use pathway_moo::{constrained_dominates, Individual};

        let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let to_individuals = |xs: &[Vec<f64>], scored: Vec<(Vec<f64>, f64)>| -> Vec<Individual> {
            xs.iter()
                .zip(scored)
                .map(|(x, (objectives, violation))| {
                    Individual::from_evaluated(x.clone(), objectives, violation)
                })
                .collect()
        };
        let settling = small_batch();
        let feasible = to_individuals(&settling, problem.evaluate_batch(&settling));

        // A design from inside the search box (each enzyme at the given
        // multiple of natural) whose cold start stalls at scaled residual
        // 4.3e-3 and exhausts the 400-step budget of
        // `OdeUptakeEvaluator::fast`.
        let factors = [
            3.98, 2.33, 0.083, 1.92, 0.14, 3.78, 3.36, 1.19, 3.85, 0.61, 0.34, 2.75, 3.13, 3.26,
            3.39, 0.83, 3.17, 2.92, 2.95, 1.57, 0.082, 1.29, 3.90,
        ];
        let stalled = EnzymePartition::new(
            EnzymePartition::natural()
                .capacities()
                .iter()
                .zip(factors)
                .map(|(capacity, factor)| capacity * factor)
                .collect(),
        );
        let xs = vec![stalled.capacities().to_vec()];
        let unsettled = to_individuals(&xs, problem.evaluate_batch(&xs)).remove(0);
        assert_eq!(unsettled.objectives, vec![0.0, stalled.total_nitrogen()]);
        assert_eq!(unsettled.violation, UNSETTLED_VIOLATION);
        assert!(!unsettled.is_feasible());
        assert_eq!(problem.constraint_violation(&xs[0]), UNSETTLED_VIOLATION);
        for feasible in &feasible {
            assert!(feasible.is_feasible());
            assert!(!constrained_dominates(&unsettled, feasible));
            assert!(constrained_dominates(feasible, &unsettled));
        }

        // The counters count designs: the re-solve in `constraint_violation`
        // is not counted, and the stalled solve's 400 steps are.
        let [steps, .., unsettled_count] = counters(&problem);
        assert_eq!(unsettled_count, Some(1));
        assert!(steps.is_some_and(|steps| steps > 400), "{steps:?}");
    }

    #[test]
    fn oracle_work_counters_are_identical_under_serial_and_pooled_executors() {
        let counts = |executor: Executor| {
            let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
            let xs = small_batch();
            for _ in 0..3 {
                executor.evaluate_batch(&problem, &xs);
            }
            counters(&problem)
        };
        let serial = counts(Executor::serial());
        let pooled = counts(Executor::new(EvalBackend::Threads(2)));
        assert_eq!(serial, pooled);
        assert!(serial[0].is_some_and(|steps| steps > 0), "{serial:?}");
    }

    #[test]
    fn a_two_island_archipelago_is_identical_under_serial_and_pooled_executors() {
        use pathway_moo::engine::{Driver, StoppingRule};
        use pathway_moo::{Archipelago, ArchipelagoSpec, Nsga2Spec};
        use std::sync::Arc;

        let front_bits = |backend: EvalBackend| {
            let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
            let mut archipelago = Archipelago::new(
                ArchipelagoSpec {
                    islands: 2,
                    island: Nsga2Spec {
                        population: 8,
                        ..Default::default()
                    },
                    migration_interval: 2,
                    migration_probability: 1.0,
                    ..Default::default()
                },
                3,
            );
            archipelago.set_executor(Arc::new(Executor::new(backend)));
            let front = Driver::new(archipelago, &problem)
                .with_stopping(StoppingRule::MaxGenerations(4))
                .run();
            assert!(!front.is_empty());
            front
                .iter()
                .flat_map(|member| member.variables.iter().chain(&member.objectives))
                .map(|value| value.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(
            front_bits(EvalBackend::Serial),
            front_bits(EvalBackend::Threads(2))
        );
    }

    #[test]
    fn dimensions_and_name() {
        let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        assert_eq!(problem.num_variables(), 23);
        assert_eq!(problem.num_objectives(), 2);
        assert_eq!(problem.bounds().len(), 23);
        assert_eq!(problem.name(), "leaf-design-ode");
    }
}

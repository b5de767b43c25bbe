//! The ODE leaf oracle's lane-batched `evaluate_batch` against per-candidate
//! `evaluate`, bit for bit: objectives, violations and the summed `ode.*`
//! work counters.
//!
//! * Batches of 1 to 9 designs (an executor chunk holds at most 8) with the
//!   design that never settles at every position, evaluated directly and
//!   through the `Serial` and `Threads(2)` executors.
//! * The 3,000 random designs of the search box that
//!   `pathway-photosynthesis`'s `structured_newton.rs` solves (`Lcg(26)`),
//!   in one batch. CI runs this file in release too, where the lanes are
//!   vectorized.

use pathway_core::OdeLeafRedesignProblem;
use pathway_moo::engine::MetricsRegistry;
use pathway_moo::exec::Executor;
use pathway_moo::{EvalBackend, MultiObjectiveProblem};
use pathway_photosynthesis::{EnzymeKind, EnzymePartition, Scenario};

/// A tiny deterministic generator of uniforms in `[0, 1)`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

const COUNTERS: [&str; 6] = [
    "ode.steps",
    "ode.rhs_evals",
    "ode.jacobians",
    "ode.newton_iters",
    "ode.dense_fallbacks",
    "ode.unsettled",
];

fn counters(problem: &OdeLeafRedesignProblem) -> [Option<u64>; 6] {
    let registry = MetricsRegistry::new();
    problem.record_oracle_metrics(&registry);
    let snapshot = registry.snapshot();
    COUNTERS.map(|name| snapshot.counter(name))
}

/// The bits of every objective and violation.
fn bits(scored: &[(Vec<f64>, f64)]) -> Vec<u64> {
    scored
        .iter()
        .flat_map(|(objectives, violation)| {
            objectives.iter().chain([violation]).map(|v| v.to_bits())
        })
        .collect()
}

/// A design from inside the search box whose cold start stalls and
/// exhausts the 400-step budget.
fn stalled() -> Vec<f64> {
    let factors = [
        3.98, 2.33, 0.083, 1.92, 0.14, 3.78, 3.36, 1.19, 3.85, 0.61, 0.34, 2.75, 3.13, 3.26, 3.39,
        0.83, 3.17, 2.92, 2.95, 1.57, 0.082, 1.29, 3.90,
    ];
    EnzymePartition::natural()
        .capacities()
        .iter()
        .zip(factors)
        .map(|(capacity, factor)| capacity * factor)
        .collect()
}

/// Eight designs that settle in 14 to about 165 steps.
fn settling() -> Vec<Vec<f64>> {
    let natural = EnzymePartition::natural();
    [
        natural.scaled(3.5),
        natural.scaled(0.05),
        natural.clone(),
        natural.scaled(1.3),
        natural.scaled(1.2),
        natural.with_scaled(EnzymeKind::Rubisco, 0.1),
        natural.scaled(0.3),
        natural.scaled(2.0),
    ]
    .iter()
    .map(|partition| partition.capacities().to_vec())
    .collect()
}

#[test]
fn every_chunk_size_scores_as_per_candidate_calls_do() {
    let scenario = Scenario::present_low_export();
    let settling = settling();
    for n in 1..=9 {
        for position in 0..n {
            let mut xs = settling[..n - 1].to_vec();
            xs.insert(position, stalled());
            let itemwise = OdeLeafRedesignProblem::new(scenario);
            let expected: Vec<(Vec<f64>, f64)> = xs
                .iter()
                .map(|x| (itemwise.evaluate(x), itemwise.constraint_violation(x)))
                .collect();
            let expected_counters = counters(&itemwise);
            assert_eq!(expected_counters[5], Some(1), "one unsettled design");

            let direct = OdeLeafRedesignProblem::new(scenario);
            assert_eq!(bits(&direct.evaluate_batch(&xs)), bits(&expected));
            assert_eq!(counters(&direct), expected_counters);
            for backend in [EvalBackend::Serial, EvalBackend::Threads(2)] {
                let problem = OdeLeafRedesignProblem::new(scenario);
                let scored = Executor::new(backend).evaluate_batch(&problem, &xs);
                assert_eq!(
                    bits(&scored),
                    bits(&expected),
                    "{backend:?}, {n} designs, stalled at {position}"
                );
                assert_eq!(counters(&problem), expected_counters, "{backend:?}");
            }
        }
    }
}

#[test]
fn the_search_boxs_random_designs_score_as_per_candidate_calls_do() {
    let scenario = Scenario::present_low_export();
    let bounds = EnzymePartition::bounds(0.02, 4.0);
    let mut rng = Lcg(26);
    let xs: Vec<Vec<f64>> = (0..3000)
        .map(|_| {
            bounds
                .iter()
                .map(|&(low, high)| low + (high - low) * rng.next())
                .collect()
        })
        .collect();
    let itemwise = OdeLeafRedesignProblem::new(scenario);
    let expected: Vec<(Vec<f64>, f64)> = xs
        .iter()
        .map(|x| (itemwise.evaluate(x), itemwise.constraint_violation(x)))
        .collect();
    let batched = OdeLeafRedesignProblem::new(scenario);
    assert_eq!(bits(&batched.evaluate_batch(&xs)), bits(&expected));
    let expected_counters = counters(&itemwise);
    assert_eq!(counters(&batched), expected_counters);
    assert_eq!(expected_counters[5], Some(3), "the box's unsettled designs");
    assert_eq!(expected_counters[4], Some(0), "no dense fallback");
}

//! The lane-batched steady states (`OdeUptakeEvaluator::steady_states`)
//! against the scalar solve (`OdeUptakeEvaluator::steady_state`), design by
//! design, at each lane width: 1 (the scalar path), 2, and 4 (compiled for
//! AVX2, skipped with a line on stderr on a CPU without it).
//!
//! Batches of 1 to 9 designs mix fast, slow and bistable designs with one
//! that never settles, placed at every position, so lanes refill and hand
//! their last solves to the scalar path. Every state, residual, uptake and
//! work counter must keep its bits, and so must every unsettled design's
//! error.

use std::io::Write;

use pathway_ode::IntegrationStats;
use pathway_photosynthesis::{
    EnzymeKind, EnzymePartition, OdeError, OdeUptakeEvaluator, Scenario, SteadyState,
};

/// A design from inside the search box whose cold start stalls and
/// exhausts the 400-step budget of `OdeUptakeEvaluator::fast`.
fn stalled() -> EnzymePartition {
    let factors = [
        3.98, 2.33, 0.083, 1.92, 0.14, 3.78, 3.36, 1.19, 3.85, 0.61, 0.34, 2.75, 3.13, 3.26, 3.39,
        0.83, 3.17, 2.92, 2.95, 1.57, 0.082, 1.29, 3.90,
    ];
    EnzymePartition::new(
        EnzymePartition::natural()
            .capacities()
            .iter()
            .zip(factors)
            .map(|(capacity, factor)| capacity * factor)
            .collect(),
    )
}

/// Eight designs that settle, from 14 to about 165 steps, on both sides of
/// the bistable range (1.2x–1.3x natural).
fn settling() -> Vec<EnzymePartition> {
    let natural = EnzymePartition::natural();
    vec![
        natural.scaled(3.5),
        natural.scaled(0.05),
        natural.clone(),
        natural.scaled(1.3),
        natural.scaled(1.2),
        natural.with_scaled(EnzymeKind::Rubisco, 0.1),
        natural.scaled(0.3),
        natural.scaled(2.0),
    ]
}

/// Every bit of one design's outcome, and its work.
fn bits(outcome: &Result<(SteadyState, f64), OdeError>) -> (Vec<u64>, IntegrationStats) {
    match outcome {
        Ok((steady, uptake)) => {
            let mut words: Vec<u64> = steady.state.iter().map(|v| v.to_bits()).collect();
            words.extend([steady.residual.to_bits(), uptake.to_bits()]);
            (words, steady.stats)
        }
        Err(OdeError::SteadyStateNotReached { residual, stats }) => {
            (vec![u64::MAX, residual.to_bits()], *stats)
        }
        Err(other) => panic!("unexpected error {other}"),
    }
}

/// The widths this CPU runs.
fn widths() -> Vec<usize> {
    let evaluator = OdeUptakeEvaluator::fast();
    let scenario = Scenario::present_low_export();
    let runs = |lanes| {
        evaluator
            .steady_states_in_lanes(&[], &scenario, lanes)
            .is_some()
    };
    assert!(runs(1) && runs(2), "every CPU runs 1 and 2 lanes");
    assert!(!runs(3) && !runs(8), "no other width exists");
    if !runs(4) {
        let _ = writeln!(
            std::io::stderr(),
            "lane_batch: SKIPPED the 4-lane AVX2 instance: this CPU has no AVX2"
        );
        return vec![1, 2];
    }
    vec![1, 2, 4]
}

#[test]
fn every_width_solves_each_design_as_the_scalar_solve_does() {
    let evaluator = OdeUptakeEvaluator::fast();
    let scenario = Scenario::present_low_export();
    let settling = settling();
    let widths = widths();
    for n in 1..=9 {
        for position in 0..n {
            let mut batch: Vec<EnzymePartition> = settling[..n - 1].to_vec();
            batch.insert(position, stalled());
            let expected: Vec<_> = batch
                .iter()
                .map(|partition| bits(&evaluator.steady_state(partition, &scenario)))
                .collect();
            assert_eq!(expected[position].0[0], u64::MAX, "the stalled design");
            for &lanes in &widths {
                let solved = evaluator
                    .steady_states_in_lanes(&batch, &scenario, lanes)
                    .expect("the width runs");
                let found: Vec<_> = solved.iter().map(bits).collect();
                assert_eq!(
                    found, expected,
                    "{lanes} lanes, {n} designs, stalled at {position}"
                );
            }
        }
    }
}

/// The default width is the widest, and the summed work equals the scalar
/// solves' over a batch larger than any executor chunk.
#[test]
fn the_widest_width_sums_the_scalar_work() {
    let evaluator = OdeUptakeEvaluator::fast();
    let scenario = Scenario::present_low_export();
    let mut batch = settling();
    batch.extend(settling().iter().map(|p| p.scaled(0.9)));
    batch.insert(5, stalled());
    let total = |outcomes: Vec<(Vec<u64>, IntegrationStats)>| {
        outcomes.into_iter().fold([0; 6], |sum, (_, s)| {
            let work = [
                s.steps_accepted,
                s.steps_rejected,
                s.rhs_evaluations,
                s.jacobian_evaluations,
                s.newton_iterations,
                s.dense_fallbacks,
            ];
            std::array::from_fn(|i| sum[i] + work[i])
        })
    };
    let scalar = total(
        batch
            .iter()
            .map(|partition| bits(&evaluator.steady_state(partition, &scenario)))
            .collect(),
    );
    let batched = total(
        evaluator
            .steady_states(&batch, &scenario)
            .iter()
            .map(bits)
            .collect(),
    );
    assert_eq!(batched, scalar);
    assert!(scalar[0] > 400, "{scalar:?}");
}

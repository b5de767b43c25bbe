//! Cross-crate integration tests: the photosynthesis substrate viewed through
//! the public `pathway-core` API, and consistency between the analytic and the
//! ODE-based evaluators.

use pathway_core::prelude::*;
use pathway_photosynthesis::OdeUptakeEvaluator;

#[test]
fn analytic_and_ode_evaluators_agree_qualitatively() {
    let scenario = Scenario::present_low_export();
    let analytic = UptakeModel::new();
    let ode = OdeUptakeEvaluator::fast();

    // Compared above the ODE model's bistable range (1.2x-1.3x natural),
    // where both models sit on the high-uptake branch.
    let upscaled = EnzymePartition::natural().scaled(1.5);
    let starved = upscaled.with_scaled(EnzymeKind::Rubisco, 0.1);

    let analytic_upscaled = analytic.co2_uptake(&upscaled, &scenario);
    let analytic_starved = analytic.co2_uptake(&starved, &scenario);
    let ode_upscaled = ode
        .co2_uptake(&upscaled, &scenario)
        .expect("upscaled leaf settles");
    let ode_starved = ode
        .co2_uptake(&starved, &scenario)
        .expect("starved leaf settles");

    // Both evaluators agree that cutting Rubisco to 10% collapses uptake.
    assert!(analytic_starved < 0.5 * analytic_upscaled);
    assert!(ode_starved < 0.7 * ode_upscaled);

    // And both report positive uptake for the natural leaf.
    let natural = EnzymePartition::natural();
    let analytic_natural = analytic.co2_uptake(&natural, &scenario);
    let ode_natural = ode
        .co2_uptake(&natural, &scenario)
        .expect("natural leaf settles");
    assert!(analytic_natural > 0.0 && ode_natural > 0.0);
}

#[test]
fn ode_uptake_is_pinned_on_both_sides_of_the_bistable_range() {
    // The Calvin-cycle model is bistable between 1.2x and 1.3x natural: the
    // natural leaf's steady state is on the low branch, 1.3x on the high one.
    let scenario = Scenario::present_low_export();
    let ode = OdeUptakeEvaluator::fast();
    let natural = EnzymePartition::natural();
    let low = ode
        .co2_uptake(&natural, &scenario)
        .expect("natural settles");
    let high = ode
        .co2_uptake(&natural.scaled(1.3), &scenario)
        .expect("1.3x settles");
    assert!((low - 0.982).abs() < 5e-4, "natural uptake {low}");
    assert!((high - 18.33).abs() < 5e-3, "1.3x uptake {high}");
}

/// Tolerance of the pseudo-transient steady state against the solver it
/// replaced, run long enough to settle: a 10,000 s backward-Euler march at
/// h = 0.1 from the same start, the cold-start state or a warm one.
#[test]
fn pseudo_transient_uptake_matches_a_long_backward_euler_march() {
    use pathway_ode::{BackwardEuler, Integrator};
    use pathway_photosynthesis::CalvinCycleOde;

    let scenario = Scenario::present_low_export();
    let ode = OdeUptakeEvaluator::fast();
    let natural = EnzymePartition::natural();
    let designs = [
        ("natural", natural.clone()),
        ("0.5x", natural.scaled(0.5)),
        ("0.7x", natural.scaled(0.7)),
        ("1.3x", natural.scaled(1.3)),
        ("1.5x", natural.scaled(1.5)),
        ("Rubisco 10%", natural.with_scaled(EnzymeKind::Rubisco, 0.1)),
        (
            "SBPase+PRK 5%",
            natural
                .with_scaled(EnzymeKind::Sbpase, 0.05)
                .with_scaled(EnzymeKind::Prk, 0.05),
        ),
    ];
    for (name, design) in designs {
        let uptake = ode.co2_uptake(&design, &scenario).expect("settles");
        // `transient` marches backward Euler at the solver's step, 0.1.
        let marched = ode
            .transient(&design, &scenario, 10_000.0)
            .expect("the march completes");
        let reference = CalvinCycleOde::new(&design, &scenario).net_uptake(&marched);
        let relative = ((uptake - reference) / reference).abs();
        assert!(
            relative <= 1e-6,
            "{name}: pseudo-transient {uptake} vs march {reference} ({relative:e})"
        );
    }

    // Warm starts inside the bistable range (1.2x-1.3x natural) begin near a
    // Newton step, which close to a fold could reach the unstable middle
    // root. They must land on the stable root a march from the same state
    // reaches; from 1.2x's low-branch state 1.3x stays on the low branch
    // (0.83), although its cold start reaches the high one (18.33).
    for (target, source) in [(1.25, 1.3), (1.3, 1.2)] {
        let design = natural.scaled(target);
        let (parent, _) = ode
            .steady_state(&natural.scaled(source), &scenario)
            .expect("the parent settles");
        let (_, uptake) = ode
            .steady_state_from(&design, &scenario, parent.state.clone())
            .expect("the warm start settles");
        let model = CalvinCycleOde::new(&design, &scenario);
        let marched = BackwardEuler::new(0.1)
            .integrate(&model, 0.0, parent.state, 10_000.0)
            .expect("the march completes");
        let reference = model.net_uptake(&marched.state);
        let relative = ((uptake - reference) / reference).abs();
        assert!(
            relative <= 1e-6,
            "{target}x from {source}x: pseudo-transient {uptake} vs march {reference} \
             ({relative:e})"
        );
    }
}

#[test]
fn steady_state_step_counts_are_bounded() {
    let scenario = Scenario::present_low_export();
    let ode = OdeUptakeEvaluator::fast();
    let natural = EnzymePartition::natural();
    let (cold, _) = ode.steady_state(&natural, &scenario).expect("cold settles");
    let (nearby, _) = ode
        .steady_state(&natural.scaled(1.02), &scenario)
        .expect("1.02x settles");
    let (warm, _) = ode
        .steady_state_from(&natural, &scenario, nearby.state)
        .expect("warm settles");
    assert!(
        cold.stats.steps_attempted() <= 100,
        "cold: {:?}",
        cold.stats
    );
    assert!(warm.stats.steps_attempted() <= 5, "warm: {:?}", warm.stats);
}

#[test]
fn problem_objectives_are_consistent_with_the_substrate() {
    use pathway_moo::MultiObjectiveProblem;
    let scenario = Scenario::present_high_export();
    let problem = LeafRedesignProblem::new(scenario);
    let partition = EnzymePartition::natural().scaled(1.5);
    let objectives = problem.evaluate(partition.capacities());
    let direct_uptake = UptakeModel::new().co2_uptake(&partition, &scenario);
    assert!((objectives[0] + direct_uptake).abs() < 1e-9);
    assert!((objectives[1] - partition.total_nitrogen()).abs() < 1e-9);
}

#[test]
fn co2_fertilisation_shows_up_in_every_layer() {
    let model = UptakeModel::new();
    let natural = EnzymePartition::natural();
    let mut uptakes = Vec::new();
    for era in CarbonDioxideEra::ALL {
        let scenario = Scenario::new(era, TriosePhosphateExport::Low);
        uptakes.push(model.co2_uptake(&natural, &scenario));
    }
    assert!(uptakes[0] < uptakes[1] && uptakes[1] < uptakes[2]);
}

#[test]
fn nitrogen_accounting_matches_the_papers_operating_point() {
    let natural = EnzymePartition::natural();
    assert!((natural.total_nitrogen() - EnzymePartition::NATURAL_NITROGEN).abs() < 1.0);
    // Rubisco is the dominant nitrogen sink, consistent with its role as the
    // nitrogen reservoir the paper discusses.
    let breakdown = natural.nitrogen_breakdown();
    let rubisco_share = breakdown[EnzymeKind::Rubisco.index()] / natural.total_nitrogen();
    assert!(rubisco_share > 0.4 && rubisco_share < 0.8);
}

#[test]
fn uptake_model_soft_minimum_respects_every_ceiling() {
    let model = UptakeModel::new();
    let generous = EnzymePartition::natural().scaled(4.0);
    for scenario in Scenario::all() {
        let result = model.evaluate(&generous, &scenario);
        assert!(result.co2_uptake <= model.electron_transport_ceiling + 1e-9);
        assert!(result.co2_uptake <= scenario.export.uptake_ceiling() + 1e-9);
    }
}

//! End-to-end integration of the design workflow: PMO2 optimization, front
//! mining, candidate-B extraction and robustness screening through the public
//! `pathway-core` API.

use pathway_core::prelude::*;

/// Two islands of 30 over 60 generations, migrating every 20, in the CO2
/// era `era` at low export.
fn leaf_outcome(era: &str, seed: u64) -> LeafDesignOutcome {
    let spec = RunSpec::from_text(&format!(
        "pathway-spec v1\n[problem]\nname = leaf-design\nera = {era}\nexport = low\n\
         [optimizer]\nkind = archipelago\nislands = 2\npopulation = 30\n\
         migration_interval = 20\nmigration_probability = 0.5\n\
         [run]\nseed = {seed}\n[stop]\nmax_generations = 60\n"
    ))
    .expect("a valid spec");
    let problem = AnyProblem::from_spec(&spec.problem).expect("leaf-design resolves");
    let AnyProblem::LeafDesign(leaf) = &problem else {
        unreachable!("the spec names the leaf-design problem")
    };
    let mut driver = spec_driver(&spec, &problem, None, None).expect("fresh driver");
    let front = driver.run();
    LeafDesignOutcome::from_front(*leaf.scenario(), front, driver.optimizer().evaluations())
}

fn quick_outcome(seed: u64) -> LeafDesignOutcome {
    leaf_outcome("present", seed)
}

#[test]
fn the_front_is_a_genuine_trade_off_curve() {
    let outcome = quick_outcome(1);
    assert!(outcome.front.len() >= 5);
    // Sort by uptake; nitrogen must be non-decreasing along the sorted front
    // (otherwise one design would dominate another).
    let mut designs = outcome.front.clone();
    designs.sort_by(|a, b| a.uptake.partial_cmp(&b.uptake).unwrap());
    for pair in designs.windows(2) {
        assert!(
            pair[1].nitrogen >= pair[0].nitrogen - 1e-6,
            "front contains a dominated design"
        );
    }
}

#[test]
fn mined_selections_are_internally_consistent() {
    let outcome = quick_outcome(2);
    let max_uptake = outcome.max_uptake();
    let min_nitrogen = outcome.min_nitrogen();
    let knee = outcome.closest_to_ideal();
    assert!(max_uptake.uptake >= knee.uptake);
    assert!(min_nitrogen.nitrogen <= knee.nitrogen);
    // The knee lies between the extremes on both objectives.
    assert!(knee.uptake >= min_nitrogen.uptake - 1e-9);
    assert!(knee.nitrogen <= max_uptake.nitrogen + 1e-9);
}

#[test]
fn robustness_screening_returns_yields_within_range() {
    let outcome = quick_outcome(3);
    let selected = outcome.selected_designs(150, 10);
    for (design, yield_percent) in [
        &selected.closest_to_ideal,
        &selected.max_uptake,
        &selected.min_nitrogen,
        &selected.max_yield,
    ] {
        assert!((0.0..=100.0).contains(yield_percent));
        assert!(design.uptake > 0.0);
        assert!(design.nitrogen > 0.0);
    }
    // The max-yield pick is at least as robust as the knee by construction.
    assert!(selected.max_yield.1 >= selected.closest_to_ideal.1);
}

#[test]
fn partitions_on_the_front_stay_inside_the_search_box() {
    use pathway_moo::MultiObjectiveProblem;
    let outcome = quick_outcome(4);
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    let bounds = problem.bounds();
    for design in &outcome.front {
        for (value, (lower, upper)) in design.partition.capacities().iter().zip(&bounds) {
            assert!(value >= lower && value <= upper);
        }
    }
}

#[test]
fn reported_figures_of_merit_are_reproducible_per_seed() {
    let a = quick_outcome(9);
    let b = quick_outcome(9);
    assert_eq!(a.front.len(), b.front.len());
    assert!((a.max_uptake().uptake - b.max_uptake().uptake).abs() < 1e-12);
    assert!((a.min_nitrogen().nitrogen - b.min_nitrogen().nitrogen).abs() < 1e-12);
}

#[test]
fn different_scenarios_produce_different_fronts() {
    let present = quick_outcome(5);
    let future = leaf_outcome("future", 5);
    // Higher CO2 admits higher maximum uptake on the front.
    assert!(future.max_uptake().uptake > present.max_uptake().uptake * 0.9);
}

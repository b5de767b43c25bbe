//! Robustness screening of leaf designs: the ρ/Γ analysis of Section 2.3,
//! the paper's Table 2 and the Pareto surface of its Figure 3.
//!
//! The example compares the natural leaf with an aggressively tuned
//! maximum-uptake design, reporting the global yield Γ and the per-enzyme
//! local yields that reveal which enzymes make a design fragile. It then
//! mines the front of `examples/robustness_screening.spec` for the four
//! selected designs of Table 2, and scores 50 designs spread along the
//! front. Every yield uses the paper's setting, [`RobustnessOptions`]'s
//! default: 5,000 trials at ±10%, within 5% of the nominal uptake.
//!
//! Run with: `cargo run --release --example robustness_screening`
//!
//! The spec stacks a hypervolume-stagnation stopping rule on the
//! generation budget, so the search exits as soon as the front stops
//! improving.

use pathway_core::prelude::*;
use pathway_core::{render_table, SelectionRow};
use pathway_moo::robustness::{global_yield, local_yield, RobustnessOptions};

/// Designs spread along the front for the Figure 3 surface (and screened
/// for the most robust one in Table 2).
const SPREAD: usize = 50;

fn report(label: &str, partition: &EnzymePartition, problem: &LeafRedesignProblem) {
    let options = RobustnessOptions::default();
    let uptake = problem.uptake(partition.capacities());
    let global = global_yield(partition.capacities(), |x| problem.uptake(x), &options);
    let local = local_yield(partition.capacities(), |x| problem.uptake(x), &options);

    println!(
        "{label}: uptake {:.2} µmol/m²/s, nitrogen {:.0} mg/l, global yield {:.0}%",
        uptake,
        partition.total_nitrogen(),
        global.yield_percent()
    );
    // The three most fragile enzymes under single-enzyme perturbation.
    let mut per_enzyme: Vec<(&str, f64)> = EnzymeKind::ALL
        .iter()
        .map(|k| k.name())
        .zip(local.per_variable_yield.iter().copied())
        .collect();
    per_enzyme.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("yields are finite"));
    print!("  most sensitive enzymes:");
    for (name, yield_fraction) in per_enzyme.iter().take(3) {
        print!(" {name} ({:.0}%)", yield_fraction * 100.0);
    }
    println!();
}

fn main() {
    let spec =
        RunSpec::from_text(include_str!("robustness_screening.spec")).expect("the spec parses");
    let problem = AnyProblem::from_spec(&spec.problem).expect("the spec's problem resolves");
    let AnyProblem::LeafDesign(leaf) = &problem else {
        panic!("robustness_screening.spec describes a leaf-design run");
    };

    // 1. The natural leaf.
    report("natural leaf        ", &EnzymePartition::natural(), leaf);

    // 2. A hand-tuned maximum-uptake leaf: everything scaled up, which the
    //    paper finds to be less robust than interior trade-off points.
    let aggressive = EnzymePartition::natural().scaled(3.0);
    report("aggressive (3x) leaf", &aggressive, leaf);

    // 3. The PMO2 front, mined for the paper's Table 2.
    let mut driver = spec_driver(&spec, &problem, None, None).expect("a fresh driver");
    let front = driver.run();
    let outcome =
        LeafDesignOutcome::from_front(*leaf.scenario(), front, driver.optimizer().evaluations());
    println!();
    println!(
        "front of {} Pareto-optimal partitions ({} of {} budgeted generations used)",
        outcome.front.len(),
        driver.generation(),
        spec.stopping.max_generations
    );

    let trials = RobustnessOptions::default().global_trials;
    let selected = outcome.selected_designs(trials, SPREAD);
    let rows: Vec<Vec<String>> = [
        ("Closest-to-ideal", &selected.closest_to_ideal),
        ("Max CO2 Uptake", &selected.max_uptake),
        ("Min Nitrogen", &selected.min_nitrogen),
        ("Max Yield", &selected.max_yield),
    ]
    .iter()
    .map(|(name, (design, yield_percent))| {
        SelectionRow {
            selection: name.to_string(),
            co2_uptake: design.uptake,
            nitrogen: design.nitrogen,
            yield_percent: *yield_percent,
        }
        .cells()
    })
    .collect();
    println!();
    println!(
        "{}",
        render_table(&["Selection", "CO2 Uptake", "Nitrogen", "Yield %"], &rows)
    );

    // 4. Figure 3: robustness against both objectives along the front.
    println!("co2_uptake_umol_m2_s\tnitrogen_mg_l\trobustness_percent");
    for design in outcome.spread(SPREAD) {
        println!(
            "{:.4}\t{:.1}\t{:.1}",
            design.uptake,
            design.nitrogen,
            outcome.robustness_percent(design, trials)
        );
    }
}

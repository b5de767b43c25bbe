//! Quickstart: optimize the present-day leaf, mine the front, check robustness.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The study is `examples/quickstart.spec`, driven through [`spec_driver`]
//! one `step` at a time; every `log_every`-th generation's report (and
//! generation 1's) is logged to stderr.

use pathway_core::prelude::*;
use pathway_core::{render_table, SelectionRow};

/// Monte-Carlo trials behind each robustness yield of the selection table.
const ROBUSTNESS_TRIALS: usize = 1_000;

fn main() {
    let spec = RunSpec::from_text(include_str!("quickstart.spec")).expect("the spec parses");
    let problem = AnyProblem::from_spec(&spec.problem).expect("the spec's problem resolves");
    let AnyProblem::LeafDesign(leaf) = &problem else {
        panic!("quickstart.spec describes a leaf-design run");
    };
    let log_every = spec.log_every.expect("the spec sets log_every");
    let mut driver = spec_driver(&spec, &problem, None, None).expect("a fresh driver");
    while !driver.should_stop() {
        let report = driver.step();
        if report.generation == 1 || report.generation.is_multiple_of(log_every) {
            eprintln!(
                "[gen {:>5}] evals {:>8}  front {:>4}  hv {:.6e}  ({:.1?})",
                report.generation,
                report.evaluations,
                report.front_size,
                report.hypervolume,
                report.wall_clock
            );
        }
    }
    let front = driver.front();
    let outcome =
        LeafDesignOutcome::from_front(*leaf.scenario(), front, driver.optimizer().evaluations());

    println!(
        "PMO2 found {} Pareto-optimal leaf designs ({} evaluations over {} generations)",
        outcome.front.len(),
        outcome.evaluations,
        driver.generation()
    );
    println!(
        "natural leaf: uptake {:.3} µmol/m²/s at {:.0} mg/l nitrogen",
        Scenario::NATURAL_UPTAKE,
        EnzymePartition::NATURAL_NITROGEN
    );

    let selected = outcome.selected_designs(ROBUSTNESS_TRIALS, 20);
    let rows = [
        ("Closest-to-ideal", &selected.closest_to_ideal),
        ("Max CO2 Uptake", &selected.max_uptake),
        ("Min Nitrogen", &selected.min_nitrogen),
        ("Max Yield", &selected.max_yield),
    ];
    let table_rows: Vec<Vec<String>> = rows
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
        render_table(
            &["Selection", "CO2 Uptake", "Nitrogen", "Yield %"],
            &table_rows
        )
    );

    if let Some(candidate_b) = outcome.candidate_b(1.0) {
        println!(
            "candidate B keeps the natural uptake ({:.2}) at {:.0}% of the natural nitrogen",
            candidate_b.uptake,
            100.0 * candidate_b.nitrogen / EnzymePartition::NATURAL_NITROGEN
        );
    }
}

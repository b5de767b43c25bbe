//! Microbial fuel cell design: trade biomass growth against electron transfer
//! in the synthetic *Geobacter sulfurreducens* model (the paper's Section 3.2
//! and Figure 4).
//!
//! Run with: `cargo run --release --example microbial_fuel_cell`
//!
//! The search is `examples/microbial_fuel_cell.spec` at the paper's
//! 608-reaction scale. It is driven through [`spec_driver`] with a
//! checkpoint mid-run, to show that a split run reproduces the unsplit
//! trajectory bit for bit.

use pathway_core::prelude::*;
use pathway_core::render_table;

fn main() {
    let spec =
        RunSpec::from_text(include_str!("microbial_fuel_cell.spec")).expect("the spec parses");
    let problem = AnyProblem::from_spec(&spec.problem).expect("the spec's problem resolves");
    let AnyProblem::Geobacter(geobacter) = &problem else {
        panic!("microbial_fuel_cell.spec describes a geobacter run");
    };

    // Drive the first half, checkpoint, and resume — the resumed run is
    // bit-identical to driving straight through (the determinism suite
    // enforces this at every split point).
    let mut first_half = spec_driver(&spec, &problem, None, None).expect("a fresh driver");
    first_half.run_for(spec.stopping.max_generations / 2);
    let checkpoint = first_half.checkpoint();
    println!(
        "checkpoint at generation {} ({} evaluations so far)",
        checkpoint.generation,
        first_half.optimizer().evaluations(),
    );
    let front = spec_driver(&spec, &problem, None, Some(checkpoint))
        .expect("the checkpoint matches the spec")
        .run();
    let outcome = GeobacterOutcome::from_front(geobacter, &front, spec.seed)
        .expect("violation of a random guess is defined");

    println!(
        "multi-objective search: {} non-dominated flux distributions",
        outcome.front.len()
    );
    println!(
        "steady-state violation: random initial guess {:.3e}, best evolved {:.3e} ({}x reduction)",
        outcome.initial_violation,
        outcome.best_violation,
        (outcome.initial_violation / outcome.best_violation.max(1e-12)).round()
    );

    let labels = ["A", "B", "C", "D", "E"];
    let rows: Vec<Vec<String>> = outcome
        .labelled_points(labels.len())
        .iter()
        .zip(labels.iter())
        .map(|(point, label)| {
            vec![
                label.to_string(),
                format!("{:.2}", point.electron_production),
                format!("{:.3}", point.biomass_production),
                format!("{:.2e}", point.violation),
            ]
        })
        .collect();
    println!();
    println!(
        "{}",
        render_table(
            &[
                "Point",
                "Electron production",
                "Biomass production",
                "Violation"
            ],
            &rows
        )
    );
}

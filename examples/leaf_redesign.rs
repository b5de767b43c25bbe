//! Leaf redesign across all six environmental scenarios (three CO₂ eras ×
//! two triose-phosphate export regimes), the setting of the paper's Figure 1,
//! plus the per-enzyme re-engineering ratios of Figure 2.
//!
//! Run with: `cargo run --release --example leaf_redesign`
//!
//! Each scenario is one cell of `examples/leaf_redesign.sweep`, driven
//! through [`spec_driver`]; the sweep's threaded backend spreads each
//! offspring batch over worker threads (bit-identical to the serial
//! backend for a fixed seed).

use pathway_core::prelude::*;
use pathway_core::render_table;
use pathway_moo::engine::SweepSpec;

fn main() {
    let sweep =
        SweepSpec::from_text(include_str!("leaf_redesign.sweep")).expect("the sweep parses");
    let mut rows = Vec::new();
    let mut reference_outcome = None;

    for cell in sweep.cells() {
        let problem =
            AnyProblem::from_spec(&cell.spec.problem).expect("the cell's problem resolves");
        let AnyProblem::LeafDesign(leaf) = &problem else {
            panic!("leaf_redesign.sweep describes leaf-design runs");
        };
        let scenario = *leaf.scenario();
        let mut driver = spec_driver(&cell.spec, &problem, None, None).expect("a fresh driver");
        let front = driver.run();
        let outcome =
            LeafDesignOutcome::from_front(scenario, front, driver.optimizer().evaluations());
        let max_uptake = outcome.max_uptake();
        let min_nitrogen = outcome.min_nitrogen();
        rows.push(vec![
            scenario.to_string(),
            outcome.front.len().to_string(),
            format!("{:.2}", max_uptake.uptake),
            format!("{:.0}", max_uptake.nitrogen),
            format!("{:.2}", min_nitrogen.uptake),
            format!("{:.0}", min_nitrogen.nitrogen),
        ]);
        if scenario == Scenario::present_low_export() {
            reference_outcome = Some(outcome);
        }
    }

    println!(
        "{}",
        render_table(
            &[
                "Scenario",
                "Front size",
                "Max uptake",
                "N at max uptake",
                "Uptake at min N",
                "Min nitrogen",
            ],
            &rows
        )
    );

    // Figure 2: the candidate-B enzyme ratios for the reference scenario.
    let outcome = reference_outcome.expect("the sweep covers the present, low-export scenario");
    if let Some(candidate_b) = outcome.candidate_b(1.0) {
        println!(
            "candidate B: uptake {:.2} µmol/m²/s using {:.0} mg/l nitrogen ({:.0}% of natural)",
            candidate_b.uptake,
            candidate_b.nitrogen,
            100.0 * candidate_b.nitrogen / EnzymePartition::NATURAL_NITROGEN
        );
        println!("per-enzyme capacity relative to the natural leaf:");
        let ratios = candidate_b.partition.ratio_to_natural();
        for (kind, ratio) in EnzymeKind::ALL.iter().zip(ratios) {
            let bar_length = (ratio * 20.0).round().clamp(0.0, 60.0) as usize;
            println!(
                "  {:<24} {:>6.2}  {}",
                kind.name(),
                ratio,
                "#".repeat(bar_length)
            );
        }
    } else {
        println!("no candidate matched the natural uptake in this budget; increase generations");
    }
}

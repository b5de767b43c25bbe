//! Cross-crate integration tests for the Geobacter substrate: FBA, the flux
//! optimization problem and the multi-objective search working together.

use pathway_core::prelude::*;
use pathway_fba::{steady_state_violation, FluxPerturbation, FluxRepair};
use pathway_moo::engine::MetricsRegistry;
use pathway_moo::{Nsga2, Nsga2Config};

fn small_model() -> GeobacterModel {
    GeobacterModel::builder().reactions(80).seed(11).build()
}

#[test]
fn fba_extremes_bound_the_evolved_front() {
    let model = small_model();
    let max_biomass = model.max_biomass().expect("biomass FBA runs");
    let max_electron = model.max_electron().expect("electron FBA runs");

    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    let config = Nsga2Config {
        population_size: 40,
        generations: 40,
        ..Default::default()
    };
    let front = Nsga2::new(config, 5).run(&problem);
    assert!(!front.is_empty());
    // Evolved solutions are allowed a bounded steady-state violation
    // (0.035 · radius · reactions), so they may overshoot the exact-FBA optima
    // by a margin of that order, but not arbitrarily.
    let slack = 0.035 * 5.0 * model.model().num_reactions() as f64 + 0.5;
    for individual in &front {
        let solution = problem.decode(&individual.variables);
        assert!(solution.biomass_production <= max_biomass.objective_value + slack);
        assert!(solution.electron_production <= max_electron.objective_value + slack);
    }
}

#[test]
fn evolved_solutions_respect_the_pinned_atp_maintenance_flux() {
    let model = small_model();
    let atp_index = model.atp_maintenance_reaction();
    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    let config = Nsga2Config {
        population_size: 30,
        generations: 20,
        ..Default::default()
    };
    let front = Nsga2::new(config, 9).run(&problem);
    for individual in &front {
        assert!(
            (individual.variables[atp_index] - pathway_fba::geobacter::ATP_MAINTENANCE_FLUX).abs()
                < 1e-9,
            "the ATP maintenance flux must stay pinned at 0.45"
        );
    }
}

#[test]
fn repair_operator_improves_random_flux_vectors() {
    let model = small_model();
    let mut perturbation = FluxPerturbation::new(0.2, 5.0, 3);
    let repair = FluxRepair::default();
    let mut improved = 0;
    for _ in 0..10 {
        let mut fluxes = perturbation.random_vector(model.model());
        let before = steady_state_violation(model.model(), &fluxes).expect("dimensions match");
        let after = repair
            .repair(model.model(), &mut fluxes)
            .expect("repair runs");
        if after < before {
            improved += 1;
        }
    }
    assert!(
        improved >= 8,
        "repair only improved {improved}/10 random vectors"
    );
}

#[test]
fn study_violation_reduction_mirrors_the_paper() {
    // The paper reports the evolved solution violating the steady-state
    // constraint ~26x less than the initial guess. At reduced scale we only
    // require a clear order-of-magnitude style improvement.
    let seed = 13;
    let spec = RunSpec::from_text(&format!(
        "pathway-spec v1\n[problem]\nname = geobacter\nreactions = 80\nmodel_seed = {}\n\
         [optimizer]\nkind = archipelago\nislands = 2\npopulation = 40\n\
         migration_interval = 20\nmigration_probability = 0.5\n\
         [run]\nseed = {seed}\n[stop]\nmax_generations = 40\n",
        seed ^ 0x6E0B
    ))
    .expect("a valid spec");
    let AnyProblem::Geobacter(problem) =
        AnyProblem::from_spec(&spec.problem).expect("model builds")
    else {
        unreachable!("the spec names the geobacter problem")
    };
    let front = spec_driver(&spec, problem.as_ref(), None, None)
        .expect("fresh driver")
        .run();
    let outcome = GeobacterOutcome::from_front(&problem, &front, seed).expect("study runs");
    assert!(outcome.initial_violation > 0.0);
    assert!(outcome.best_violation < outcome.initial_violation / 5.0);
    // The labelled A-E points are ordered by decreasing biomass production.
    let labelled = outcome.labelled_points(5);
    for pair in labelled.windows(2) {
        assert!(pair[0].biomass_production >= pair[1].biomass_production);
    }
}

#[test]
fn biomass_and_electron_objectives_genuinely_conflict() {
    let model = small_model();
    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    let config = Nsga2Config {
        population_size: 40,
        generations: 40,
        ..Default::default()
    };
    let front = Nsga2::new(config, 21).run(&problem);
    let solutions: Vec<GeobacterSolution> = front
        .iter()
        .map(|individual| problem.decode(&individual.variables))
        .collect();
    let best_biomass = solutions
        .iter()
        .cloned()
        .max_by(|a, b| {
            a.biomass_production
                .partial_cmp(&b.biomass_production)
                .unwrap()
        })
        .unwrap();
    let best_electron = solutions
        .iter()
        .cloned()
        .max_by(|a, b| {
            a.electron_production
                .partial_cmp(&b.electron_production)
                .unwrap()
        })
        .unwrap();
    // If the front has more than one point, the two champions differ and the
    // electron champion pays in biomass (and vice versa).
    if solutions.len() > 1 {
        assert!(best_electron.biomass_production <= best_biomass.biomass_production + 1e-9);
        assert!(best_biomass.electron_production <= best_electron.electron_production + 1e-9);
    }
}

/// 64-bit FNV-1a over the little-endian bits of a flux vector.
fn flux_digest(fluxes: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in fluxes.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn paper_scale_reference_fluxes_are_bit_identical() {
    // The reference vector centres the search box of every Geobacter front;
    // pinning its bits keeps the committed fronts byte-identical across
    // solver changes.
    let model = GeobacterModel::builder().reactions(608).build();
    let problem = GeobacterFluxProblem::new(&model).expect("paper-scale model is feasible");
    assert_eq!(
        flux_digest(problem.reference_fluxes()),
        0x819a_a069_37bf_0fe2
    );
    // Both optima take 2,168 pivots, 2,167 of them in the shared phase 1.
    let registry = MetricsRegistry::new();
    problem.record_oracle_metrics(&registry);
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("oracle.fba.solves"), Some(2));
    assert_eq!(snapshot.counter("oracle.fba.pivots"), Some(2_169));
}

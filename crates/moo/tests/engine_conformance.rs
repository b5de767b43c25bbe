//! `Optimizer` trait conformance suite, run against every shipped
//! implementation (NSGA-II, MOEA/D, the PMO2 archipelago).
//!
//! The contract checked here is what `Driver` relies on:
//!
//! * `initialize` is idempotent and populates the population;
//! * `step` strictly increases the evaluation odometer;
//! * `front` is a mutually non-dominating subset of the population, and
//!   `front_objectives` is its objectives, in order, and what a
//!   `GenerationReport` counts;
//! * `state`/`restore` round-trip the full run state: a restored optimizer
//!   continues bit-identically.

use pathway_moo::engine::{Driver, EngineError, Optimizer, OptimizerSpec, OptimizerState};
use pathway_moo::problems::{BinhKorn, Schaffer, Zdt1};
use pathway_moo::MultiObjectiveProblem;
use pathway_moo::{
    dominates, Archipelago, ArchipelagoSpec, Individual, Moead, MoeadSpec, Nsga2, Nsga2Spec,
};

fn signature(front: &[Individual]) -> Vec<(Vec<f64>, Vec<f64>, f64)> {
    front
        .iter()
        .map(|i| (i.variables.clone(), i.objectives.clone(), i.violation))
        .collect()
}

fn nsga2() -> Nsga2 {
    Nsga2::new(
        Nsga2Spec {
            population: 20,
            ..Default::default()
        },
        7,
    )
}

fn moead() -> Moead {
    Moead::new(
        MoeadSpec {
            population: 20,
            neighborhood: 6,
            ..Default::default()
        },
        7,
    )
}

fn archipelago() -> Archipelago {
    Archipelago::new(
        ArchipelagoSpec {
            islands: 2,
            island: Nsga2Spec {
                population: 12,
                ..Default::default()
            },
            migration_interval: 2,
            migration_probability: 0.5,
            ..Default::default()
        },
        7,
    )
}

/// The shared conformance checks, generic over the optimizer under test.
fn conformance<O, F>(make: F)
where
    O: Optimizer,
    F: Fn() -> O,
{
    let problem = Schaffer;
    let mut optimizer = make();

    // Fresh optimizers are empty and have spent nothing.
    assert_eq!(optimizer.evaluations(), 0);
    assert!(optimizer.population().is_empty());
    assert!(optimizer.front().is_empty());

    // initialize populates and is idempotent.
    optimizer.initialize(&problem);
    let after_init = optimizer.evaluations();
    assert!(after_init > 0);
    let population = optimizer.population();
    assert!(!population.is_empty());
    optimizer.initialize(&problem);
    assert_eq!(
        optimizer.evaluations(),
        after_init,
        "initialize must be idempotent"
    );
    assert_eq!(optimizer.population().len(), population.len());

    // step strictly increases the evaluation odometer.
    let mut previous = after_init;
    for generation in 0..5 {
        optimizer.step(&problem);
        let now = optimizer.evaluations();
        assert!(
            now > previous,
            "step {generation} did not spend evaluations ({previous} -> {now})"
        );
        previous = now;
    }

    // The front is non-empty, mutually non-dominating, and drawn from the
    // population.
    let front = optimizer.front();
    assert!(!front.is_empty());
    for a in &front {
        for b in &front {
            assert!(
                !dominates(&a.objectives, &b.objectives) || a.objectives == b.objectives,
                "front members must not dominate each other"
            );
        }
    }
    let population = optimizer.population();
    for member in &front {
        assert!(
            population
                .iter()
                .any(|p| p.variables == member.variables && p.objectives == member.objectives),
            "every front member must come from the population"
        );
    }

    // state/restore round-trips bit for bit: a restored twin stays in
    // lock-step with the original.
    let snapshot = optimizer.state();
    let mut twin = make();
    twin.restore(snapshot)
        .expect("same-configuration restore succeeds");
    assert_eq!(twin.evaluations(), optimizer.evaluations());
    assert_eq!(signature(&twin.front()), signature(&optimizer.front()));
    for _ in 0..3 {
        optimizer.step(&problem);
        twin.step(&problem);
    }
    assert_eq!(signature(&twin.front()), signature(&optimizer.front()));
    assert_eq!(twin.evaluations(), optimizer.evaluations());
}

/// Every objective of every member, as bits.
fn objective_bits<P: AsRef<[f64]>>(points: &[P]) -> Vec<Vec<u64>> {
    points
        .iter()
        .map(|point| point.as_ref().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Drives `optimizer` on `problem` and checks after every generation that
/// `front_objectives` is the objectives of `front`, in order, and that the
/// report counts `front`'s members.
fn front_objectives_track_the_front<O: Optimizer + 'static>(
    optimizer: O,
    problem: impl MultiObjectiveProblem,
) {
    let mut driver = Driver::new(optimizer, problem);
    for _ in 0..12 {
        let report = driver.step();
        let front = driver.front();
        let objectives: Vec<&[f64]> = front.iter().map(|i| i.objectives.as_slice()).collect();
        assert_eq!(
            objective_bits(&driver.optimizer().front_objectives()),
            objective_bits(&objectives)
        );
        assert_eq!(report.front_size, front.len());
    }
}

#[test]
fn front_objectives_are_the_front_s_objectives_for_every_kind() {
    front_objectives_track_the_front(nsga2(), Zdt1 { variables: 6 });
    front_objectives_track_the_front(moead(), Zdt1 { variables: 6 });
    front_objectives_track_the_front(archipelago(), Zdt1 { variables: 6 });
    front_objectives_track_the_front(nsga2(), BinhKorn);
    front_objectives_track_the_front(moead(), BinhKorn);
    front_objectives_track_the_front(archipelago(), BinhKorn);
    for spec in [
        OptimizerSpec::Nsga2(Nsga2Spec {
            population: 20,
            ..Default::default()
        }),
        OptimizerSpec::Moead(MoeadSpec {
            population: 20,
            neighborhood: 6,
            ..Default::default()
        }),
        OptimizerSpec::Archipelago(ArchipelagoSpec {
            island: Nsga2Spec {
                population: 12,
                ..Default::default()
            },
            migration_interval: 2,
            ..Default::default()
        }),
    ] {
        front_objectives_track_the_front(spec.build(7), Schaffer);
    }
}

#[test]
fn nsga2_conforms_to_the_optimizer_contract() {
    conformance(nsga2);
}

#[test]
fn moead_conforms_to_the_optimizer_contract() {
    conformance(moead);
}

#[test]
fn archipelago_conforms_to_the_optimizer_contract() {
    conformance(archipelago);
}

#[test]
fn restore_rejects_foreign_snapshots() {
    let problem = Zdt1 { variables: 4 };
    let mut donor = nsga2();
    donor.initialize(&problem);
    let nsga2_state = donor.state();

    let mut wrong = moead();
    match wrong.restore(nsga2_state.clone()) {
        Err(EngineError::StateMismatch { expected, found }) => {
            assert_eq!(expected, "Moead");
            assert_eq!(found, "Nsga2");
        }
        other => panic!("expected a state mismatch, got {other:?}"),
    }

    let mut also_wrong = archipelago();
    assert!(also_wrong.restore(nsga2_state).is_err());
}

#[test]
fn restore_rejects_mismatched_island_counts() {
    let mut donor = archipelago();
    donor.initialize(&Schaffer);
    let state = donor.state();

    let mut three_islands = Archipelago::new(
        ArchipelagoSpec {
            islands: 3,
            island: Nsga2Spec {
                population: 12,
                ..Default::default()
            },
            migration_interval: 2,
            ..Default::default()
        },
        7,
    );
    match three_islands.restore(state) {
        Err(EngineError::ConfigMismatch { detail }) => {
            assert!(detail.contains("islands"), "unexpected detail: {detail}")
        }
        other => panic!("expected a config mismatch, got {other:?}"),
    }
}

#[test]
fn snapshots_are_plain_data() {
    let mut optimizer = archipelago();
    optimizer.initialize(&Schaffer);
    optimizer.step(&Schaffer);
    // The snapshot is inspectable plain data: islands, archives, counters.
    match optimizer.state() {
        OptimizerState::Archipelago(state) => {
            assert_eq!(state.islands.len(), 2);
            assert_eq!(state.archives.len(), 2);
            assert_eq!(state.generations_done, 1);
            let spent: usize = state.islands.iter().map(|i| i.evaluations).sum();
            assert_eq!(spent, optimizer.evaluations());
        }
        other => panic!(
            "archipelago must snapshot as Archipelago, got {}",
            other.kind()
        ),
    }
}

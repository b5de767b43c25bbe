//! Pins the bits of four archipelagos' final fronts: the paper's two-island
//! broadcast leaf search, a three-island ring on ZDT1, and two-island
//! Geobacter searches at a reduced reaction count and at the paper's 608
//! reactions. Each runs through at least
//! one migration, once on the serial executor and once on a two-lane pool;
//! both must land on the same digest. How the islands are scheduled (one
//! after another, spread across lanes, one batch or many) must never move a
//! bit of any front, so a change to the archipelago's stepping that does
//! fails here.

use std::sync::Arc;

use pathway_core::{GeobacterFluxProblem, LeafRedesignProblem};
use pathway_fba::geobacter::GeobacterModel;
use pathway_moo::engine::{Driver, Optimizer, StoppingRule};
use pathway_moo::exec::Executor;
use pathway_moo::problems::Zdt1;
use pathway_moo::{
    Archipelago, ArchipelagoSpec, EvalBackend, MigrationTopology, MultiObjectiveProblem, Nsga2Spec,
};
use pathway_photosynthesis::Scenario;

/// 64-bit FNV-1a over a stream of little-endian words.
fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// An archipelago and the number of generations to run it for.
fn config(
    islands: usize,
    population: usize,
    generations: usize,
    topology: MigrationTopology,
) -> (ArchipelagoSpec, usize) {
    let spec = ArchipelagoSpec {
        islands,
        island: Nsga2Spec {
            population,
            ..Default::default()
        },
        migration_interval: 4,
        // Every island takes part in every event, so each run below
        // migrates at generations 4 and 8 at least.
        migration_probability: 1.0,
        topology,
    };
    (spec, generations)
}

/// Runs the archipelago on `backend` and digests its final front: every
/// member's variables, objectives and violation, in front order, followed
/// by the evaluation count.
fn front_digest<P: MultiObjectiveProblem>(
    problem: &P,
    (spec, generations): (ArchipelagoSpec, usize),
    seed: u64,
    backend: EvalBackend,
) -> u64 {
    let mut archipelago = Archipelago::new(spec, seed);
    archipelago.set_executor(Arc::new(Executor::new(backend)));
    let mut driver =
        Driver::new(archipelago, problem).with_stopping(StoppingRule::MaxGenerations(generations));
    let front = driver.run();
    assert!(!front.is_empty());
    let mut words = Vec::new();
    for member in &front {
        words.extend(member.variables.iter().map(|v| v.to_bits()));
        words.extend(member.objectives.iter().map(|v| v.to_bits()));
        words.push(member.violation.to_bits());
    }
    words.push(driver.optimizer().evaluations() as u64);
    fnv1a64(words)
}

fn assert_digest<P: MultiObjectiveProblem>(
    problem: &P,
    config: (ArchipelagoSpec, usize),
    seed: u64,
    expected: u64,
) {
    for backend in [EvalBackend::Serial, EvalBackend::Threads(2)] {
        assert_eq!(
            front_digest(problem, config, seed, backend),
            expected,
            "{} front under {backend:?}",
            problem.name()
        );
    }
}

#[test]
fn two_island_broadcast_leaf_front_is_bit_identical() {
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    assert_digest(
        &problem,
        config(2, 20, 12, MigrationTopology::Broadcast),
        7,
        0x2611_db5e_cf22_08d9,
    );
}

#[test]
fn three_island_ring_zdt1_front_is_bit_identical() {
    assert_digest(
        &Zdt1 { variables: 8 },
        config(3, 16, 12, MigrationTopology::Ring),
        11,
        0x0f07_5a41_47b9_cbe0,
    );
}

#[test]
fn two_island_geobacter_front_is_bit_identical() {
    let model = GeobacterModel::builder().reactions(80).seed(11).build();
    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    assert_digest(
        &problem,
        config(2, 16, 10, MigrationTopology::Broadcast),
        5,
        0x906c_e033_6b86_780b,
    );
}

#[test]
fn two_island_paper_scale_geobacter_front_is_bit_identical() {
    // All 608 fluxes, as in the paper's Figure 4: SBX and mutation run over
    // 608 genes and every offspring batch goes through the fused CSR
    // residual-norm kernel in full and partial tiles.
    let model = GeobacterModel::paper_scale();
    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    assert_digest(
        &problem,
        config(2, 20, 6, MigrationTopology::Broadcast),
        13,
        0x5412_c6f8_155f_9117,
    );
}

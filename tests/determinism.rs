//! Determinism suite: `EvalBackend::Threads(n)` — which since the executor
//! refactor means a persistent worker pool — must reproduce
//! `EvalBackend::Serial` bit-for-bit for a fixed seed on every shipped
//! problem, and a `Driver` run split by checkpoint/resume at *any*
//! generation must reproduce the unsplit run bit-for-bit.
//!
//! Variation is RNG-driven and stays serial; only the objective oracle runs
//! on worker threads, and batch order is preserved, so parallel evaluation
//! may change wall-clock time but never the search trajectory. The
//! batch-amortized oracles keep the same contract: the Geobacter residual's
//! fused CSR residual-norm kernel is bit-identical to the per-candidate
//! path, and the ODE leaf oracle cold-starts every solve, so a design's
//! score does not depend on the search that came before it.
//! Checkpoints capture every bit of run state (populations, RNG streams,
//! migration archives, counters, the driver's hypervolume history), so a
//! resumed run continues the exact trajectory — executors are
//! configuration, not state, so a run may even resume under a different
//! worker count. CI runs this suite explicitly
//! (`cargo test -q -- determinism`) so any divergence is caught on every
//! push.

use std::sync::Arc;

use pathway_core::prelude::*;
use pathway_moo::problems::{Schaffer, Zdt1};
use pathway_photosynthesis::EnzymePartition;

/// Everything that defines an individual's identity, bit-for-bit.
fn signature(front: &[Individual]) -> Vec<(Vec<f64>, Vec<f64>, f64)> {
    front
        .iter()
        .map(|i| (i.variables.clone(), i.objectives.clone(), i.violation))
        .collect()
}

/// The final front of `generations` generations of `optimizer`.
fn front_after<P: MultiObjectiveProblem, O: Optimizer<P>>(
    optimizer: O,
    problem: P,
    generations: usize,
) -> Vec<Individual> {
    Driver::new(optimizer, problem)
        .with_stopping(StoppingRule::MaxGenerations(generations))
        .run()
}

fn nsga2_front<P: MultiObjectiveProblem>(
    problem: &P,
    backend: EvalBackend,
    seed: u64,
) -> Vec<Individual> {
    let spec = Nsga2Spec {
        population: 32,
        backend,
        ..Default::default()
    };
    front_after(Nsga2::new(spec, seed), problem, 25)
}

#[test]
fn determinism_threads_match_serial_on_schaffer() {
    for seed in [1, 7, 99] {
        let serial = signature(&nsga2_front(&Schaffer, EvalBackend::Serial, seed));
        for workers in [2, 4] {
            let threaded = signature(&nsga2_front(&Schaffer, EvalBackend::Threads(workers), seed));
            assert_eq!(
                threaded, serial,
                "Threads({workers}) diverged at seed {seed}"
            );
        }
    }
}

#[test]
fn determinism_threads_match_serial_on_zdt1() {
    let problem = Zdt1 { variables: 8 };
    for seed in [3, 11] {
        let serial = signature(&nsga2_front(&problem, EvalBackend::Serial, seed));
        for workers in [2, 3] {
            let threaded = signature(&nsga2_front(&problem, EvalBackend::Threads(workers), seed));
            assert_eq!(
                threaded, serial,
                "Threads({workers}) diverged at seed {seed}"
            );
        }
    }
}

#[test]
fn determinism_threads_match_serial_on_geobacter() {
    let model = GeobacterModel::builder().reactions(48).seed(5).build();
    let problem = GeobacterFluxProblem::new(&model).expect("small model is feasible");
    let spec = |backend| Nsga2Spec {
        population: 20,
        backend,
        ..Default::default()
    };
    let serial = signature(&front_after(
        Nsga2::new(spec(EvalBackend::Serial), 13),
        &problem,
        10,
    ));
    for workers in [2, 4] {
        let threaded = signature(&front_after(
            Nsga2::new(spec(EvalBackend::Threads(workers)), 13),
            &problem,
            10,
        ));
        assert_eq!(threaded, serial, "Threads({workers}) diverged on Geobacter");
    }
}

#[test]
fn determinism_archipelago_threads_match_serial() {
    let archipelago_spec = |backend| ArchipelagoSpec {
        islands: 2,
        island: Nsga2Spec {
            population: 24,
            backend,
            ..Default::default()
        },
        migration_interval: 5,
        migration_probability: 0.5,
        topology: MigrationTopology::Broadcast,
    };
    let serial = front_after(
        Archipelago::new(archipelago_spec(EvalBackend::Serial), 9),
        Schaffer,
        20,
    );
    let threaded = front_after(
        Archipelago::new(archipelago_spec(EvalBackend::Threads(2)), 9),
        Schaffer,
        20,
    );
    assert_eq!(signature(&threaded), signature(&serial));
}

// --- checkpoint/resume determinism -------------------------------------

/// The configuration under test: a 2-island archipelago with a short
/// migration interval, so split points land before, on and after migration
/// boundaries.
fn checkpoint_config(backend: EvalBackend) -> ArchipelagoSpec {
    ArchipelagoSpec {
        islands: 2,
        island: Nsga2Spec {
            population: 16,
            backend,
            ..Default::default()
        },
        migration_interval: 3,
        migration_probability: 0.5,
        topology: MigrationTopology::Broadcast,
    }
}

fn checkpoint_driver(
    backend: EvalBackend,
    seed: u64,
    problem: &Schaffer,
) -> Driver<&Schaffer, Archipelago> {
    Driver::new(Archipelago::new(checkpoint_config(backend), seed), problem)
}

fn split_run(
    backend: EvalBackend,
    seed: u64,
    total: usize,
    split_at: usize,
) -> Vec<(Vec<f64>, Vec<f64>, f64)> {
    let stop = StoppingRule::MaxGenerations(total);
    let mut first = checkpoint_driver(backend, seed, &Schaffer).with_stopping(stop.clone());
    first.run_for(split_at);
    let checkpoint = first.checkpoint();
    drop(first);
    let fresh = Archipelago::new(checkpoint_config(backend), seed);
    let mut resumed = Driver::resume(fresh, &Schaffer, checkpoint)
        .expect("checkpoint matches the configuration")
        .with_stopping(stop);
    signature(&resumed.run())
}

/// A driver run split at *every* generation must be bit-identical to the
/// unsplit run, for the serial and the threaded evaluation backend alike.
#[test]
fn determinism_checkpoint_split_at_every_generation() {
    let total = 8;
    for backend in [EvalBackend::Serial, EvalBackend::Threads(2)] {
        let unsplit = signature(
            &checkpoint_driver(backend, 17, &Schaffer)
                .with_stopping(StoppingRule::MaxGenerations(total))
                .run(),
        );
        assert!(!unsplit.is_empty());
        for split_at in 0..=total {
            let split = split_run(backend, 17, total, split_at);
            assert_eq!(
                split, unsplit,
                "{backend:?} diverged when split at generation {split_at}"
            );
        }
    }
}

/// A checkpoint taken with one backend must resume bit-identically under
/// the other: backend choice is not part of the run state.
#[test]
fn determinism_checkpoint_crosses_backends() {
    let total = 6;
    let unsplit = signature(
        &checkpoint_driver(EvalBackend::Serial, 23, &Schaffer)
            .with_stopping(StoppingRule::MaxGenerations(total))
            .run(),
    );
    let stop = StoppingRule::MaxGenerations(total);
    let mut first =
        checkpoint_driver(EvalBackend::Serial, 23, &Schaffer).with_stopping(stop.clone());
    first.run_for(3);
    let checkpoint = first.checkpoint();
    let threaded = Archipelago::new(checkpoint_config(EvalBackend::Threads(4)), 23);
    let mut resumed = Driver::resume(threaded, &Schaffer, checkpoint)
        .expect("checkpoint matches the configuration")
        .with_stopping(stop);
    assert_eq!(signature(&resumed.run()), unsplit);
}

/// NSGA-II driven standalone splits bit-identically as well (the
/// archipelago tests cover the island + migration state on top).
#[test]
fn determinism_checkpoint_nsga2_standalone() {
    let problem = Zdt1 { variables: 6 };
    let config = Nsga2Spec {
        population: 20,
        backend: EvalBackend::Threads(2),
        ..Default::default()
    };
    let stop = StoppingRule::MaxGenerations(10);
    let unsplit = signature(
        &Driver::new(Nsga2::new(config, 3), &problem)
            .with_stopping(stop.clone())
            .run(),
    );
    for split_at in [1, 5, 9] {
        let mut first = Driver::new(Nsga2::new(config, 3), &problem).with_stopping(stop.clone());
        first.run_for(split_at);
        let mut resumed = Driver::resume(Nsga2::new(config, 3), &problem, first.checkpoint())
            .expect("checkpoint matches the configuration")
            .with_stopping(stop.clone());
        assert_eq!(
            signature(&resumed.run()),
            unsplit,
            "NSGA-II diverged when split at generation {split_at}"
        );
    }
}

// --- persistent-executor determinism ------------------------------------

/// One shared worker pool, injected explicitly and reused across an entire
/// run, must reproduce the serial run bit for bit — at every checkpoint
/// split point. This is the pooled-executor variant of
/// `determinism_checkpoint_split_at_every_generation`: the *same* pool
/// instance serves the first half, the checkpoint, and the resumed half,
/// exactly like the `pathway` CLI's `--threads` does.
#[test]
fn determinism_pooled_executor_splits_reuse_one_pool() {
    let total = 8;
    let serial = signature(
        &checkpoint_driver(EvalBackend::Serial, 29, &Schaffer)
            .with_stopping(StoppingRule::MaxGenerations(total))
            .run(),
    );
    assert!(!serial.is_empty());
    let pool: Arc<Executor> = Executor::shared(EvalBackend::Threads(3));
    for split_at in 0..=total {
        let stop = StoppingRule::MaxGenerations(total);
        let mut first = Archipelago::new(checkpoint_config(EvalBackend::Serial), 29);
        first.set_executor(Arc::clone(&pool));
        let mut first = Driver::new(first, &Schaffer).with_stopping(stop.clone());
        first.run_for(split_at);
        let checkpoint = first.checkpoint();
        drop(first);
        let mut fresh = Archipelago::new(checkpoint_config(EvalBackend::Serial), 29);
        fresh.set_executor(Arc::clone(&pool));
        let mut resumed = Driver::resume(fresh, &Schaffer, checkpoint)
            .expect("checkpoint matches the configuration")
            .with_stopping(stop);
        assert_eq!(
            signature(&resumed.run()),
            serial,
            "pooled executor diverged from serial when split at generation {split_at}"
        );
    }
}

/// A shared pool injected into a plain NSGA-II run matches serial too (the
/// archipelago test above covers island sharing on top).
#[test]
fn determinism_pooled_executor_matches_serial_on_nsga2() {
    let problem = Zdt1 { variables: 8 };
    let spec = Nsga2Spec {
        population: 24,
        ..Default::default()
    };
    let serial = signature(&front_after(Nsga2::new(spec, 41), problem, 15));
    let pool = Executor::shared(EvalBackend::Threads(4));
    let mut pooled = Nsga2::new(spec, 41);
    pooled.set_executor(pool);
    assert_eq!(signature(&front_after(pooled, problem, 15)), serial);
}

// --- batched-oracle determinism -----------------------------------------

/// The Geobacter whole-batch residual (one sparse matrix × matrix product)
/// must be bit-identical to the per-candidate path it replaces.
#[test]
fn determinism_batched_geobacter_oracle_matches_per_candidate() {
    let model = GeobacterModel::builder().reactions(48).seed(5).build();
    let problem = GeobacterFluxProblem::new(&model).expect("small model is feasible");
    // A spread of candidates: the reference, perturbations, and a heavily
    // unbalanced vector that exceeds the violation tolerance.
    let mut xs = vec![problem.reference_fluxes().to_vec()];
    for (step, scale) in [(7usize, 0.25), (11, -0.5), (3, 2.0)] {
        let mut x = problem.reference_fluxes().to_vec();
        for value in x.iter_mut().step_by(step) {
            *value += scale;
        }
        xs.push(x);
    }
    let mut unbalanced = problem.reference_fluxes().to_vec();
    unbalanced[0] += 500.0;
    xs.push(unbalanced);

    let batched = problem.evaluate_batch(&xs);
    assert!(batched.iter().any(|(_, violation)| *violation > 0.0));
    for (x, (objectives, violation)) in xs.iter().zip(&batched) {
        assert_eq!(objectives, &problem.evaluate(x), "objectives diverged");
        assert_eq!(
            *violation,
            problem.constraint_violation(x),
            "violation diverged"
        );
    }
    // And through the executors: pooled chunking changes nothing.
    let serial = Executor::serial().evaluate_batch(&problem, &xs);
    let pooled = Executor::new(EvalBackend::Threads(2)).evaluate_batch(&problem, &xs);
    assert_eq!(serial, pooled);
}

/// The ODE leaf oracle is history-free: a fixed probe set scores bit for
/// bit the same on a fresh problem instance as on an instance that has just
/// run a 3-generation NSGA-II search, batched or one candidate at a time,
/// and the search itself is identical under `Serial` and `Threads(2)`.
#[test]
fn determinism_leaf_ode_oracle_is_history_free() {
    let natural = EnzymePartition::natural();
    // Both sides of the bistable range (1.2x-1.3x natural), inside it, and
    // far from every design the search visits first.
    let probes: Vec<Vec<f64>> = [0.3, 1.0, 1.2, 1.25, 1.3, 3.5]
        .iter()
        .map(|&factor| natural.scaled(factor).capacities().to_vec())
        .collect();
    let bits = |scored: &[(Vec<f64>, f64)]| -> Vec<u64> {
        scored
            .iter()
            .flat_map(|(objectives, violation)| objectives.iter().chain([violation]))
            .map(|value| value.to_bits())
            .collect()
    };
    let fresh = OdeLeafRedesignProblem::new(Scenario::present_low_export());
    let reference = bits(&Executor::serial().evaluate_batch(&fresh, &probes));

    let mut fronts = Vec::new();
    for backend in [EvalBackend::Serial, EvalBackend::Threads(2)] {
        let searched = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let spec = Nsga2Spec {
            population: 8,
            backend,
            ..Default::default()
        };
        fronts.push(signature(&front_after(Nsga2::new(spec, 5), &searched, 3)));
        let rescored = Executor::new(backend).evaluate_batch(&searched, &probes);
        assert_eq!(bits(&rescored), reference, "{backend:?} after a search");
        let one_at_a_time: Vec<(Vec<f64>, f64)> = probes
            .iter()
            .map(|x| (searched.evaluate(x), searched.constraint_violation(x)))
            .collect();
        assert_eq!(bits(&one_at_a_time), reference, "{backend:?} per candidate");
    }
    assert_eq!(fronts[0], fronts[1], "the pooled search diverged");
}

// --- work-stealing splitter determinism ---------------------------------

/// A deliberately skew-costed problem: low-index candidates burn far more
/// CPU than the rest, so fixed contiguous chunking would pin the expensive
/// head onto lane 0 while the other lanes drain and turn thief — exactly
/// the shape that exercises the executor's tail stealing. The objectives
/// are pure functions of the variables (the burn feeds into them), so any
/// steal schedule must still commit results by slot.
struct SkewedCost;

impl MultiObjectiveProblem for SkewedCost {
    fn num_variables(&self) -> usize {
        2
    }
    fn num_objectives(&self) -> usize {
        2
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        vec![(0.0, 64.0); 2]
    }
    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        let iterations = if x[0] < 8.0 { 60_000 } else { 100 };
        let mut acc = x[1];
        for i in 0..iterations {
            acc = (acc + i as f64 * 1e-9).sin().mul_add(0.5, x[1]);
        }
        vec![std::hint::black_box(acc), x[0] + x[1]]
    }
}

/// The index-stealing splitter must reproduce serial evaluation
/// byte-for-byte for *any* lane count on a workload skewed enough that
/// steals actually happen: results commit by slot, so the steal schedule
/// (which varies run to run) can never show in the output.
#[test]
fn determinism_stealing_splitter_is_slot_exact_for_any_lane_count() {
    let batch: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64, (i % 5) as f64]).collect();
    let serial = Executor::serial().evaluate_batch(&SkewedCost, &batch);
    let mut steals_seen = 0;
    for workers in [2, 3, 4, 6] {
        let pooled = Executor::new(EvalBackend::Threads(workers));
        let registry = pathway_moo::engine::MetricsRegistry::new();
        pooled.set_metrics(registry.clone());
        assert_eq!(
            pooled.evaluate_batch(&SkewedCost, &batch),
            serial,
            "Threads({workers}) diverged from serial under stealing"
        );
        steals_seen += registry.snapshot().counter("exec.steal_count").unwrap_or(0);
    }
    assert!(
        steals_seen > 0,
        "the skewed batch must trigger at least one steal across the lane sweep"
    );
}

/// MOEA/D splits bit-identically too: the ideal point and RNG stream are
/// part of the snapshot.
#[test]
fn determinism_checkpoint_moead_standalone() {
    let config = MoeadSpec {
        population: 24,
        neighborhood: 8,
        ..Default::default()
    };
    let stop = StoppingRule::MaxGenerations(8);
    let unsplit = signature(
        &Driver::new(Moead::new(config, 5), &Schaffer)
            .with_stopping(stop.clone())
            .run(),
    );
    for split_at in [2, 7] {
        let mut first = Driver::new(Moead::new(config, 5), &Schaffer).with_stopping(stop.clone());
        first.run_for(split_at);
        let mut resumed = Driver::resume(Moead::new(config, 5), &Schaffer, first.checkpoint())
            .expect("checkpoint matches the configuration")
            .with_stopping(stop.clone());
        assert_eq!(
            signature(&resumed.run()),
            unsplit,
            "MOEA/D diverged when split at generation {split_at}"
        );
    }
}

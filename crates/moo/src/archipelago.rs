use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dominance::merged_front;
use crate::engine::telemetry::MetricsRegistry;
use crate::engine::{ArchipelagoState, EngineError, Optimizer, OptimizerState, RngState};
use crate::exec::Executor;
use crate::{Individual, MultiObjectiveProblem, Nsga2, Nsga2Spec, ParetoArchive};

/// Topology describing which islands exchange migrants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MigrationTopology {
    /// Every island broadcasts to every other island (the paper's
    /// configuration).
    #[default]
    Broadcast,
    /// Each island sends only to its successor in a ring. Exports are
    /// passed neighbor-to-neighbor by ownership instead of cloned all-pairs,
    /// so a migration event costs `islands` buffer moves rather than the
    /// `islands²` individual copies of [`MigrationTopology::Broadcast`] —
    /// the scalable choice for wide archipelagos.
    Ring,
    /// No migration at all; equivalent to independent restarts. Used by the
    /// ablation bench.
    Isolated,
}

/// Archipelago (PMO2) settings: what a spec's `[optimizer]` section says
/// for `kind = archipelago`. The defaults are the paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchipelagoSpec {
    /// Number of islands (the paper uses 2).
    pub islands: usize,
    /// The NSGA-II settings every island runs. Its backend builds the one
    /// executor that breeds the islands and evaluates their offspring.
    pub island: Nsga2Spec,
    /// Generations between migration events (the paper uses 200).
    pub migration_interval: usize,
    /// Probability that an island participates in a given migration event
    /// (the paper uses 0.5).
    pub migration_probability: f64,
    /// Migration topology.
    pub topology: MigrationTopology,
}

impl Default for ArchipelagoSpec {
    fn default() -> Self {
        ArchipelagoSpec {
            islands: 2,
            island: Nsga2Spec::default(),
            migration_interval: 200,
            migration_probability: 0.5,
            topology: MigrationTopology::Broadcast,
        }
    }
}

/// The PMO2 archipelago: a pool of independently seeded NSGA-II islands that
/// periodically exchange non-dominated solutions.
///
/// The paper's reference configuration — two NSGA-II islands, all-to-all
/// (broadcast) migration every 200 generations with probability 0.5 — is the
/// default. The archipelago is step-driven: every [`Archipelago::step`]
/// advances each island by one generation, and a migration event fires
/// lazily at each epoch boundary — i.e. before the first step of each new
/// `migration_interval`-generation epoch, which reproduces the classic
/// "migrate between epochs, but not after the last one" schedule while
/// making the archipelago driveable and checkpointable at *any* generation
/// by a [`crate::engine::Driver`].
///
/// A generation runs in three stages on the archipelago's one
/// [`Executor`]: every island breeds its offspring as one task (its own
/// RNG stream, so on a pool the islands spread across lanes), all
/// offspring are evaluated in **one** batch, and every island then selects
/// its survivors. The archipelago spawns no threads of its own: with the
/// serial executor the islands run one after another on the calling
/// thread, and with `threads:<n>` they run in parallel on the pool.
/// Results are bit-identical for a given seed under every executor.
///
/// Migration exports are served incrementally from per-island
/// [`ParetoArchive`]s: at each migration event an island's current
/// non-dominated front (read straight from its rank bookkeeping, no
/// population clone or re-sort) is folded into its archive, and the archive
/// members — the island's best solutions across *all* epochs so far — are
/// what the other islands receive.
///
/// # Example
///
/// ```
/// use pathway_moo::engine::{Driver, StoppingRule};
/// use pathway_moo::{Archipelago, ArchipelagoSpec, Nsga2Spec, problems::Schaffer};
///
/// let spec = ArchipelagoSpec {
///     island: Nsga2Spec { population: 30, ..Default::default() },
///     migration_interval: 10,
///     ..Default::default()
/// };
/// let front = Driver::new(Archipelago::new(spec, 7), &Schaffer)
///     .with_stopping(StoppingRule::MaxGenerations(40))
///     .run();
/// assert!(!front.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Archipelago {
    spec: ArchipelagoSpec,
    islands: Vec<Nsga2>,
    archives: Vec<ParetoArchive>,
    migration_rng: StdRng,
    generations_done: usize,
    /// The executor that breeds the islands and evaluates their offspring,
    /// lazily built from `spec.island.backend` (or injected via
    /// [`Archipelago::set_executor`]). Configuration, not run state —
    /// never checkpointed.
    executor: Option<Arc<Executor>>,
    /// Telemetry sink for migration timings; forwarded to every island so
    /// their variation/selection phases land in the same registry. Like
    /// the executor: observational only, never checkpointed.
    metrics: Option<MetricsRegistry>,
}

impl Archipelago {
    /// Creates an archipelago with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec requests zero islands or a zero migration
    /// interval.
    pub fn new(spec: ArchipelagoSpec, seed: u64) -> Self {
        assert!(spec.islands > 0, "at least one island is required");
        assert!(
            spec.migration_interval > 0,
            "migration interval must be positive"
        );
        let islands: Vec<Nsga2> = (0..spec.islands)
            .map(|i| Nsga2::new(spec.island, seed.wrapping_add(1 + i as u64)))
            .collect();
        let archive_capacity = spec.island.population.max(1);
        Archipelago {
            spec,
            islands,
            archives: (0..spec.islands)
                .map(|_| ParetoArchive::new(archive_capacity))
                .collect(),
            migration_rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9)),
            generations_done: 0,
            executor: None,
            metrics: None,
        }
    }

    /// Installs a (usually shared) executor, replacing the pool that would
    /// otherwise be built lazily from `spec.island.backend`. The
    /// `pathway` CLI uses this to run a whole invocation — run or resume —
    /// on one pool. Executors only change where islands breed and
    /// candidates are evaluated, never the results.
    pub fn set_executor(&mut self, executor: Arc<Executor>) {
        self.executor = Some(executor);
    }

    /// The archipelago's executor, built from the island backend on first
    /// need, as every spec-driven launcher builds it: `threads:<n>` is `n`
    /// lanes for the whole archipelago. Cheap once installed.
    fn executor(&mut self) -> Arc<Executor> {
        Arc::clone(
            self.executor
                .get_or_insert_with(|| Executor::shared(self.spec.island.backend)),
        )
    }

    /// Performs one migration event according to the configured topology.
    ///
    /// Each island's export is its [`ParetoArchive`], refreshed with the
    /// island's current front first (the archive keeps the island's best
    /// feasible solutions across all epochs; if it is empty — e.g. every
    /// solution so far is infeasible — the current front is exported
    /// directly). Migrants are appended to the target populations in place
    /// (the residents are never copied), and every island that received
    /// migrants re-runs non-dominated sorting and crowding afterwards: the
    /// injected individuals carry `rank`/`crowding` computed on their
    /// *source* island, and the next generation's tournament selection reads
    /// those fields before any environmental selection runs.
    fn migrate(&mut self) {
        if matches!(self.spec.topology, MigrationTopology::Isolated) || self.islands.len() < 2 {
            return;
        }
        let migration_started = Instant::now();
        // Refresh each island's archive with its current front, then export
        // the archive members.
        let exports: Vec<Vec<Individual>> = self
            .islands
            .iter()
            .zip(self.archives.iter_mut())
            .map(|(island, archive)| {
                let current_front = island.front();
                // The archive can stay empty only if it was empty and every
                // candidate is infeasible; keep a fallback copy for exactly
                // that case instead of recomputing the front.
                let fallback = if archive.is_empty() {
                    current_front.clone()
                } else {
                    Vec::new()
                };
                archive.extend(current_front);
                if archive.is_empty() {
                    fallback
                } else {
                    archive.members().to_vec()
                }
            })
            .collect();

        let n = self.islands.len();
        let mut received = vec![false; n];
        let probability = self.spec.migration_probability.clamp(0.0, 1.0);
        match self.spec.topology {
            // Broadcast is inherently clone-heavy: every export is copied to
            // all n-1 other islands (n² individual copies in total).
            MigrationTopology::Broadcast => {
                for (source, export) in exports.iter().enumerate() {
                    if !self.migration_rng.gen_bool(probability) {
                        continue;
                    }
                    for (target, island) in self.islands.iter_mut().enumerate() {
                        if target == source {
                            continue;
                        }
                        island.inject_migrants(export.iter().cloned());
                        received[target] = true;
                    }
                }
            }
            // Each export has exactly one recipient (the ring successor), so
            // ownership of the export buffer is *moved* into the target
            // population — the only copies are the n archive reads above,
            // not the n² clones broadcast would pay.
            MigrationTopology::Ring => {
                for (source, export) in exports.into_iter().enumerate() {
                    if !self.migration_rng.gen_bool(probability) {
                        continue;
                    }
                    let target = (source + 1) % n;
                    self.islands[target].inject_migrants(export);
                    received[target] = true;
                }
            }
            MigrationTopology::Isolated => unreachable!("isolated returns early above"),
        }
        for (island, got_migrants) in self.islands.iter_mut().zip(received) {
            if got_migrants {
                island.refresh_ranks();
            }
        }
        if let Some(metrics) = &self.metrics {
            metrics.record_phase("migration", migration_started.elapsed());
        }
    }

    /// The merged front's members, borrowed from the islands (see
    /// [`Optimizer::front`]).
    fn front_members(&self) -> Vec<&Individual> {
        let candidates: Vec<&Individual> = self
            .islands
            .iter()
            .flat_map(|island| island.population().iter().filter(|m| m.rank == 0))
            .collect();
        merged_front(&candidates)
    }

    /// Captures the archipelago's run state (every island's snapshot, the
    /// migration archives and RNG, the generation counter) as plain data.
    pub(crate) fn snapshot(&self) -> ArchipelagoState {
        ArchipelagoState {
            islands: self.islands.iter().map(Nsga2::snapshot).collect(),
            archives: self
                .archives
                .iter()
                .map(|archive| archive.members().to_vec())
                .collect(),
            migration_rng: RngState::capture(&self.migration_rng),
            generations_done: self.generations_done,
        }
    }

    /// Restores a snapshot captured with [`Archipelago::snapshot`].
    pub(crate) fn restore_snapshot(&mut self, state: ArchipelagoState) -> Result<(), EngineError> {
        if state.islands.len() != self.islands.len() {
            return Err(EngineError::ConfigMismatch {
                detail: format!(
                    "snapshot has {} islands but this archipelago has {}",
                    state.islands.len(),
                    self.islands.len()
                ),
            });
        }
        if state.archives.len() != self.archives.len() {
            return Err(EngineError::ConfigMismatch {
                detail: format!(
                    "snapshot has {} archives but this archipelago has {}",
                    state.archives.len(),
                    self.archives.len()
                ),
            });
        }
        // Validate every island snapshot before touching any state, so a
        // rejected restore leaves the archipelago untouched.
        let expected = self.spec.island.population;
        for (index, snapshot) in state.islands.iter().enumerate() {
            if !snapshot.population.is_empty() && snapshot.population.len() != expected {
                return Err(EngineError::ConfigMismatch {
                    detail: format!(
                        "island {index} snapshot holds {} individuals but the islands are \
                         configured for {expected}",
                        snapshot.population.len()
                    ),
                });
            }
        }
        for (island, snapshot) in self.islands.iter_mut().zip(state.islands) {
            island
                .restore_snapshot(snapshot)
                .expect("island snapshots were validated above");
        }
        let capacity = self.spec.island.population.max(1);
        for (archive, members) in self.archives.iter_mut().zip(state.archives) {
            // Archive members are mutually non-dominated and feasible, so
            // re-inserting them in captured order reproduces the archive
            // bit for bit.
            let mut rebuilt = ParetoArchive::new(capacity);
            for member in members {
                rebuilt.insert(member);
            }
            *archive = rebuilt;
        }
        self.migration_rng = state.migration_rng.rebuild();
        self.generations_done = state.generations_done;
        Ok(())
    }
}

/// One archipelago stage over `islands`: each island produces its decision
/// vectors as one task through [`Executor::map_chunks`] (in island order on
/// the serial executor, spread across lanes on a pool), every island's
/// vectors are evaluated in **one** [`Executor::evaluate_batch`], and each
/// island gets its own evaluated share back, in order. Only an island's own
/// `produce` touches its RNG stream and evaluation commits by slot, so the
/// results are the same under every executor.
fn run_islands<P: MultiObjectiveProblem>(
    executor: &Executor,
    islands: Vec<&mut Nsga2>,
    problem: &P,
    produce: impl Fn(&mut Nsga2, &P) -> Vec<Vec<f64>> + Sync,
    commit: impl Fn(&mut Nsga2, Vec<Individual>),
) {
    // Each lock is taken once, by the one lane that claimed the island; it
    // only hands `&mut` islands through `map_chunks`' shared slice.
    let cells: Vec<Mutex<&mut Nsga2>> = islands.into_iter().map(Mutex::new).collect();
    let batches = executor.map_chunks(&cells, |chunk| {
        chunk
            .iter()
            .map(|cell| produce(&mut cell.lock().expect("island lock poisoned"), problem))
            .collect()
    });
    let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
    let variables = batches.into_iter().flatten().collect();
    let mut evaluated = executor
        .evaluate_individuals(problem, variables)
        .into_iter();
    for (cell, size) in cells.into_iter().zip(sizes) {
        let island = cell.into_inner().expect("island lock poisoned");
        commit(island, evaluated.by_ref().take(size).collect());
    }
}

impl Optimizer for Archipelago {
    /// Every island samples, one batch evaluates every sampled vector, and
    /// each island installs its share.
    fn initialize<P: MultiObjectiveProblem>(&mut self, problem: &P) {
        let executor = self.executor();
        let pending: Vec<&mut Nsga2> = self
            .islands
            .iter_mut()
            .filter(|island| island.population().is_empty())
            .collect();
        if !pending.is_empty() {
            run_islands(&executor, pending, problem, Nsga2::sample, Nsga2::install);
        }
    }

    /// Fires the migration event lazily at each epoch boundary first; then
    /// the islands breed, one batch evaluates every island's offspring,
    /// and each island selects.
    fn step<P: MultiObjectiveProblem>(&mut self, problem: &P) {
        self.initialize(problem);
        if self.generations_done > 0
            && self
                .generations_done
                .is_multiple_of(self.spec.migration_interval)
        {
            self.migrate();
        }
        let executor = self.executor();
        let islands = self.islands.iter_mut().collect();
        run_islands(&executor, islands, problem, Nsga2::breed, Nsga2::select);
        self.generations_done += 1;
    }

    fn population(&self) -> Vec<Individual> {
        self.islands
            .iter()
            .flat_map(|island| island.population().iter().cloned())
            .collect()
    }

    /// The merged non-dominated front across all islands' current
    /// populations, sorted by objectives and deduplicated (broadcast
    /// migration copies solutions between islands).
    ///
    /// Candidates are borrowed from the islands' rank-0 bookkeeping and
    /// filtered under Deb's feasibility rule: the feasible members that no
    /// feasible member Pareto-dominates if any member is feasible, else the
    /// members of least violation. For two finite objectives the filter and
    /// the ordering are one sort and one sweep (`O(k log k)`), otherwise a
    /// pairwise test and a sort. Only the surviving front members are
    /// cloned.
    fn front(&self) -> Vec<Individual> {
        self.front_members().into_iter().cloned().collect()
    }

    /// The same merge as [`front`](Optimizer::front), cloning nothing: this
    /// runs once per generation on observed [`crate::engine::Driver`] runs.
    fn front_objectives(&self) -> Vec<&[f64]> {
        self.front_members()
            .into_iter()
            .map(|member| member.objectives.as_slice())
            .collect()
    }

    /// Summed over the islands.
    fn evaluations(&self) -> usize {
        self.islands.iter().map(Nsga2::evaluations).sum()
    }

    fn state(&self) -> OptimizerState {
        OptimizerState::Archipelago(self.snapshot())
    }

    fn restore(&mut self, state: OptimizerState) -> Result<(), EngineError> {
        match state {
            OptimizerState::Archipelago(snapshot) => self.restore_snapshot(snapshot),
            other => Err(EngineError::StateMismatch {
                expected: "Archipelago",
                found: other.kind(),
            }),
        }
    }

    /// One registry for the archipelago and every island. Each island
    /// records its own `variation` and `selection` phases: on the serial
    /// executor the islands run one after another, so the phases add up to
    /// wall time; on a pool, islands that breed on different lanes overlap,
    /// and the summed phase times can exceed the generation's wall-clock.
    fn set_metrics(&mut self, registry: MetricsRegistry) {
        for island in &mut self.islands {
            island.set_metrics(registry.clone());
        }
        self.metrics = Some(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;
    use crate::engine::{Driver, StoppingRule};
    use crate::metrics;
    use crate::problems::{Schaffer, Zdt1};
    use crate::EvalBackend;

    fn spec(islands: usize, interval: usize) -> ArchipelagoSpec {
        ArchipelagoSpec {
            islands,
            island: Nsga2Spec {
                population: 30,
                ..Default::default()
            },
            migration_interval: interval,
            migration_probability: 0.5,
            topology: MigrationTopology::Broadcast,
        }
    }

    /// The final front of `generations` generations from `seed`.
    fn run<P: MultiObjectiveProblem>(
        spec: ArchipelagoSpec,
        seed: u64,
        generations: usize,
        problem: &P,
    ) -> Vec<Individual> {
        Driver::new(Archipelago::new(spec, seed), problem)
            .with_stopping(StoppingRule::MaxGenerations(generations))
            .run()
    }

    #[test]
    fn pmo2_finds_the_schaffer_front() {
        let front = run(spec(2, 10), 42, 40, &Schaffer);
        assert!(front.len() >= 10);
        for individual in &front {
            assert!(individual.variables[0] > -0.3 && individual.variables[0] < 2.3);
        }
    }

    #[test]
    fn merged_front_is_mutually_nondominating_and_deduplicated() {
        let front = run(spec(3, 10), 5, 30, &Zdt1 { variables: 6 });
        for a in &front {
            for b in &front {
                assert!(!dominates(&a.objectives, &b.objectives) || a.objectives == b.objectives);
            }
        }
        for i in 1..front.len() {
            assert_ne!(front[i - 1].objectives, front[i].objectives);
        }
    }

    #[test]
    fn seeded_runs_are_reproducible_despite_threads() {
        let a = run(spec(2, 5), 9, 20, &Schaffer);
        let b = run(spec(2, 5), 9, 20, &Schaffer);
        assert_eq!(
            a.iter().map(|i| i.objectives.clone()).collect::<Vec<_>>(),
            b.iter().map(|i| i.objectives.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn stepwise_run_matches_monolithic_run() {
        let monolithic = run(spec(2, 4), 31, 15, &Schaffer);
        let mut stepped = Archipelago::new(spec(2, 4), 31);
        stepped.initialize(&Schaffer);
        for _ in 0..15 {
            stepped.step(&Schaffer);
        }
        assert_eq!(stepped.generations_done, 15);
        assert_eq!(
            monolithic
                .iter()
                .map(|i| i.objectives.clone())
                .collect::<Vec<_>>(),
            stepped
                .front()
                .iter()
                .map(|i| i.objectives.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn migration_improves_over_isolated_islands_on_zdt1() {
        let problem = Zdt1 { variables: 12 };
        let base = spec(2, 15);
        let isolated = ArchipelagoSpec {
            topology: MigrationTopology::Isolated,
            ..base
        };
        let reference = [1.1, 1.1];
        // Average over a few seeds to keep the comparison statistically stable.
        let mut hv_migration = 0.0;
        let mut hv_isolated = 0.0;
        for seed in 0..3 {
            let with_migration = run(base, seed, 60, &problem);
            let without = run(isolated, seed, 60, &problem);
            hv_migration += metrics::hypervolume(
                &with_migration
                    .iter()
                    .map(|i| i.objectives.clone())
                    .collect::<Vec<_>>(),
                &reference,
            );
            hv_isolated += metrics::hypervolume(
                &without
                    .iter()
                    .map(|i| i.objectives.clone())
                    .collect::<Vec<_>>(),
                &reference,
            );
        }
        // Migration should not hurt; allow a small tolerance for stochastic noise.
        assert!(
            hv_migration >= hv_isolated - 0.05,
            "migration hv {hv_migration} fell well below isolated hv {hv_isolated}"
        );
    }

    #[test]
    fn ring_topology_runs() {
        let ring = ArchipelagoSpec {
            topology: MigrationTopology::Ring,
            ..spec(3, 5)
        };
        let front = run(ring, 3, 20, &Schaffer);
        assert!(!front.is_empty());
    }

    #[test]
    fn ring_migration_moves_exports_to_the_successor_only() {
        // Probability 1 so every island participates in the event.
        let ring = ArchipelagoSpec {
            islands: 3,
            island: Nsga2Spec {
                population: 10,
                ..Default::default()
            },
            migration_interval: 4,
            migration_probability: 1.0,
            topology: MigrationTopology::Ring,
        };
        let mut archipelago = Archipelago::new(ring, 17);
        archipelago.initialize(&Schaffer);
        for _ in 0..4 {
            archipelago.step(&Schaffer);
        }
        // The next step fires the lazy epoch-boundary migration.
        archipelago.migrate();
        // Every island exported its archive to exactly one successor, so
        // each population grew by its predecessor's archive size.
        for (index, island) in archipelago.islands.iter().enumerate() {
            let predecessor = (index + 2) % 3;
            let expected = 10 + archipelago.archives[predecessor].len();
            assert_eq!(
                island.population().len(),
                expected,
                "island {index} should hold its residents plus island {predecessor}'s archive"
            );
        }
    }

    #[test]
    fn ring_runs_are_deterministic() {
        let ring = ArchipelagoSpec {
            topology: MigrationTopology::Ring,
            ..spec(3, 4)
        };
        let a = run(ring, 11, 18, &Schaffer);
        let b = run(ring, 11, 18, &Schaffer);
        assert_eq!(a, b);
    }

    #[test]
    fn every_island_is_evaluated_in_one_batch_per_generation() {
        let population = 12;
        for topology in [
            MigrationTopology::Broadcast,
            MigrationTopology::Ring,
            MigrationTopology::Isolated,
        ] {
            for backend in [EvalBackend::Serial, EvalBackend::Threads(2)] {
                let executor = Arc::new(Executor::new(backend));
                executor.set_metrics(MetricsRegistry::new());
                let three = ArchipelagoSpec {
                    islands: 3,
                    island: Nsga2Spec {
                        population,
                        ..Default::default()
                    },
                    migration_interval: 2,
                    migration_probability: 1.0,
                    topology,
                };
                let mut archipelago = Archipelago::new(three, 4);
                archipelago.set_executor(Arc::clone(&executor));
                let counters = || {
                    let snapshot = executor.metrics().expect("registry attached").snapshot();
                    (
                        snapshot.counter("exec.batches"),
                        snapshot.counter("exec.candidates"),
                    )
                };
                archipelago.initialize(&Schaffer);
                assert_eq!(
                    counters(),
                    (Some(1), Some(3 * population as u64)),
                    "{topology:?} initialize under {backend:?}"
                );
                // Five steps cross two migration events.
                for generation in 1..=5u64 {
                    archipelago.step(&Schaffer);
                    assert_eq!(
                        counters(),
                        (
                            Some(1 + generation),
                            Some((1 + generation) * 3 * population as u64)
                        ),
                        "{topology:?} step {generation} under {backend:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_lazy_executor_has_the_lanes_the_island_backend_names() {
        for (backend, lanes) in [(EvalBackend::Serial, 1), (EvalBackend::Threads(3), 3)] {
            let mut archipelago = Archipelago::new(
                ArchipelagoSpec {
                    island: Nsga2Spec {
                        population: 8,
                        backend,
                        ..Default::default()
                    },
                    ..spec(2, 5)
                },
                1,
            );
            archipelago.initialize(&Schaffer);
            let executor = archipelago.executor.as_ref().expect("built by initialize");
            assert_eq!(executor.workers(), lanes, "{backend:?}");
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_front_matches_the_pairwise_merge(seed in 0u64..u64::MAX) {
            use crate::front_reference::{
                pairwise_archipelago_front, population_bits, random_cloud, CLOUDS_PER_CASE,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..CLOUDS_PER_CASE {
                let islands = rng.gen_range(1..4usize);
                let mut archipelago = Archipelago::new(spec(islands, 1), seed);
                // Deal the cloud round-robin onto the islands; a quarter of
                // the members are not rank 0 and must be ignored.
                let mut populations = vec![Vec::new(); islands];
                for (index, mut member) in random_cloud(&mut rng).into_iter().enumerate() {
                    member.rank = usize::from(rng.gen_range(0..4u32) == 0);
                    populations[index % islands].push(member);
                }
                for (island, population) in archipelago.islands.iter_mut().zip(populations) {
                    island.inject_migrants(population);
                }
                let candidates: Vec<&Individual> = archipelago
                    .islands
                    .iter()
                    .flat_map(|island| island.population().iter().filter(|m| m.rank == 0))
                    .collect();
                proptest::prop_assert_eq!(
                    population_bits(&archipelago.front()),
                    population_bits(&pairwise_archipelago_front(&candidates))
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one island")]
    fn zero_islands_panics() {
        let _ = Archipelago::new(
            ArchipelagoSpec {
                islands: 0,
                ..Default::default()
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "migration interval must be positive")]
    fn zero_interval_panics() {
        let _ = Archipelago::new(
            ArchipelagoSpec {
                migration_interval: 0,
                ..Default::default()
            },
            0,
        );
    }
}

//! One study: set up a workload, search, checkpoint, write the front —
//! what a `pathway run` user waits for — timed from the benchmark's side
//! of each layer's public API.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pathway_core::sweep::{render_front, write_front_file};
use pathway_core::{AnyProblem, OdeLeafRedesignProblem};
use pathway_moo::engine::{
    AnyOptimizer, CheckpointStore, Driver, MetricsRegistry, MetricsSnapshot, OptimizerSpec, RunSpec,
};
use pathway_moo::exec::Executor;
use pathway_moo::{EvalBackend, Individual, MultiObjectiveProblem};
use pathway_photosynthesis::Scenario;

use crate::host::{Span, Stamp};
use crate::oracle::Counted;
use crate::workload::{Size, Workload};

/// What one study measured.
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// Ledger key of the study: workload and spec hash (the spec carries
    /// the seed and the size).
    pub key: String,
    /// Problem construction, executor start-up, checkpoint store and
    /// driver assembly.
    pub setup: Span,
    /// Set-up, search, checkpoints and the final front write.
    pub total: Span,
    /// Initial population plus every generation, excluding checkpoints.
    pub search: Span,
    /// Each generation step, as the driver's caller sees it.
    pub generations: Vec<Span>,
    /// The host's slowdown around the study (see [`crate::calib`]), set by
    /// the caller; 1 until then.
    pub slowdown: f64,
    /// Oracle evaluations this process attempted.
    pub attempted: u64,
    /// Evaluations that failed (see [`Counted`]).
    pub failed: u64,
    /// The final non-dominated front.
    pub front: Vec<Individual>,
    /// The front in the bit-exact `--front-out` format.
    pub front_text: String,
    /// Hypervolume of the front against the workload's reference point.
    pub front_hv: f64,
    /// That reference point.
    pub reference: Vec<f64>,
    /// Wall time of each checkpoint save, including the final one.
    pub save_ms: Vec<f64>,
    /// Size of each checkpoint file written.
    pub checkpoint_bytes: Vec<u64>,
    /// Reading the latest checkpoint back and rebuilding the driver.
    pub resume_ms: Option<f64>,
    /// Layer figures, for traced studies only.
    pub layers: Option<Layers>,
}

/// Per-layer figures of one traced study, read from the program's own
/// `MetricsRegistry` and from the benchmark's oracle wrapper.
#[derive(Debug, Clone)]
pub struct Layers {
    /// Generations the figures cover (the initial population excluded).
    pub generations: usize,
    /// Evaluation lanes of the executor.
    pub lanes: usize,
    /// Populations stepped side by side each generation (1 unless the
    /// optimizer is an archipelago).
    pub islands: usize,
    /// Summed phase time per generation, by phase name, in milliseconds.
    /// Island phases are summed over islands.
    pub phase_ms: BTreeMap<&'static str, f64>,
    /// Summed timed oracle calls per generation, in milliseconds.
    pub oracle_busy_ms: f64,
    /// Per-candidate oracle times over the whole study, in microseconds.
    pub eval_us: Vec<f64>,
    /// Executor and oracle counters over the whole study.
    pub counters: BTreeMap<String, u64>,
    /// Median time a pooled lane job waited in the queue, in microseconds.
    pub queue_wait_us_p50: f64,
}

/// The phases of one population's generation step, summed over islands.
const ISLAND_PHASES: [&str; 4] = ["variation", "prepare_batch", "eval", "selection"];

/// The phases the engine records per generation.
pub const PHASES: [&str; 7] = [
    "variation",
    "prepare_batch",
    "eval",
    "selection",
    "migration",
    "telemetry",
    "generation",
];

/// Runs one study of `workload` at `size`, working in `dir` (emptied
/// first). With `trace` the program's metrics registry is attached and the
/// oracle is timed.
///
/// # Errors
///
/// A description of the first set-up, checkpoint or front-write failure.
pub fn run_study(
    workload: Workload,
    seed: u64,
    size: &Size,
    trace: bool,
    dir: &Path,
) -> Result<StudyOutcome, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let started = Stamp::now();
    let spec = workload.spec(seed, size);
    let key = format!("{}/{:016x}", workload.name(), spec.content_hash());
    let grain = trace.then(|| workload.grain());
    let zero_fails = workload.zero_uptake_fails();
    let mut outcome = match workload {
        Workload::LeafOde => {
            let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
            let problem = Counted::new(problem, zero_fails, grain);
            drive(started, &spec, size, &problem, dir, trace, |p, r| {
                p.inner().record_oracle_metrics(r)
            })
        }
        Workload::Geobacter608 | Workload::LeafAnalytic => {
            let problem = AnyProblem::from_spec(&spec.problem).map_err(|e| e.to_string())?;
            let problem = Counted::new(problem, zero_fails, grain);
            drive(started, &spec, size, &problem, dir, trace, |p, r| {
                p.inner().record_oracle_metrics(r)
            })
        }
    }?;
    outcome.key = key;
    Ok(outcome)
}

fn since_ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

fn drive<P: MultiObjectiveProblem>(
    started: Stamp,
    spec: &RunSpec,
    size: &Size,
    problem: &Counted<P>,
    dir: &Path,
    trace: bool,
    record_oracle: impl Fn(&Counted<P>, &MetricsRegistry),
) -> Result<StudyOutcome, String> {
    let backend = if size.lanes > 1 {
        EvalBackend::Threads(size.lanes)
    } else {
        EvalBackend::Serial
    };
    let executor = Executor::shared(backend);
    let registry = trace.then(MetricsRegistry::new);
    if let Some(registry) = &registry {
        executor.set_metrics(registry.clone());
    }
    let store = if spec.checkpoint_every > 0 {
        Some(CheckpointStore::create(dir.join("checkpoints"), spec).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut optimizer = spec.build_optimizer();
    optimizer.set_executor(Arc::clone(&executor));
    let driver = Driver::new(optimizer, problem).with_reference_point(
        spec.reference_point
            .clone()
            .expect("workload specs fix one"),
    );
    let mut driver = assemble(driver, spec, registry.as_ref());
    let setup = started.span();

    let search_started = Stamp::now();
    driver.run_for(0);
    let mut search = search_started.span();
    let after_init = registry.as_ref().map(MetricsRegistry::snapshot);
    let busy_after_init = problem.tally().busy_ms();

    let mut generations = Vec::with_capacity(size.generations);
    let mut save_ms = Vec::new();
    let mut checkpoint_bytes = Vec::new();
    let mut resume_ms = None;
    let mut save = |driver: &Driver<&Counted<P>, AnyOptimizer>| -> Result<(), String> {
        if let Some(store) = &store {
            let saving = Instant::now();
            let path = store
                .save(&driver.checkpoint())
                .map_err(|e| e.to_string())?;
            save_ms.push(since_ms(saving));
            checkpoint_bytes.push(file_len(&path)?);
        }
        Ok(())
    };
    while driver.generation() < size.generations {
        if size.resume_at == Some(driver.generation()) && resume_ms.is_none() {
            let resuming = Instant::now();
            driver = resume(spec, problem, &executor, store.as_ref(), registry.as_ref())?;
            resume_ms = Some(since_ms(resuming));
        }
        let stepping = Stamp::now();
        driver.step();
        let step = stepping.span();
        search += step;
        generations.push(step);
        if spec.checkpoint_every > 0 && driver.generation() % spec.checkpoint_every == 0 {
            save(&driver)?;
        }
    }
    let layers = registry.as_ref().map(|registry| {
        record_oracle(problem, registry);
        layers(
            after_init
                .as_ref()
                .expect("snapshot taken with the registry"),
            &registry.snapshot(),
            generations.len(),
            size.lanes,
            match &spec.optimizer {
                OptimizerSpec::Archipelago(archipelago) => archipelago.islands,
                _ => 1,
            },
            problem.tally().busy_ms() - busy_after_init,
            problem.tally().samples_us(),
        )
    });
    if driver.generation() % spec.checkpoint_every.max(1) != 0 {
        save(&driver)?;
    }
    let front = driver.front();
    let front_path = dir.join("front.front");
    write_front_file(&front_path, &front).map_err(|e| format!("{}: {e}", front_path.display()))?;
    let total = started.span();
    if trace && resume_ms.is_none() && store.is_some() {
        // A workload that never resumes still has its read path probed
        // once, from its final checkpoint, outside the study's time.
        let resuming = Instant::now();
        resume(spec, problem, &executor, store.as_ref(), registry.as_ref())?;
        resume_ms = Some(since_ms(resuming));
    }

    let objectives: Vec<Vec<f64>> = front.iter().map(|i| i.objectives.clone()).collect();
    let front_hv = if objectives.iter().flatten().all(|v| v.is_finite()) {
        pathway_moo::metrics::hypervolume(
            &objectives,
            spec.reference_point.as_deref().unwrap_or(&[]),
        )
    } else {
        f64::NAN
    };
    Ok(StudyOutcome {
        key: String::new(),
        setup,
        total,
        search,
        generations,
        slowdown: 1.0,
        attempted: problem.tally().attempted(),
        failed: problem.tally().failed(),
        front_text: render_front(&front),
        front,
        front_hv,
        reference: spec.reference_point.clone().unwrap_or_default(),
        save_ms,
        checkpoint_bytes,
        resume_ms,
        layers,
    })
}

/// Attaches what every driver of a study carries: the spec's stopping rule
/// and, when traced, the metrics registry.
fn assemble<'p, P: MultiObjectiveProblem>(
    driver: Driver<&'p Counted<P>, AnyOptimizer>,
    spec: &RunSpec,
    registry: Option<&MetricsRegistry>,
) -> Driver<&'p Counted<P>, AnyOptimizer> {
    let driver = driver.with_stopping(spec.stopping_rule());
    match registry {
        Some(registry) => driver.with_metrics(registry.clone()),
        None => driver,
    }
}

/// Drops the running driver's state on the floor and continues from the
/// latest checkpoint file on disk, as `pathway resume` would.
fn resume<'p, P: MultiObjectiveProblem>(
    spec: &RunSpec,
    problem: &'p Counted<P>,
    executor: &Arc<Executor>,
    store: Option<&CheckpointStore>,
    registry: Option<&MetricsRegistry>,
) -> Result<Driver<&'p Counted<P>, AnyOptimizer>, String> {
    let store = store.ok_or("a resuming workload must checkpoint")?;
    let latest: PathBuf = store
        .latest()
        .map_err(|e| e.to_string())?
        .ok_or("no checkpoint to resume from")?;
    let stored = CheckpointStore::load_matching(&latest, spec).map_err(|e| e.to_string())?;
    let mut optimizer = spec.build_optimizer();
    optimizer.set_executor(Arc::clone(executor));
    let driver =
        Driver::resume(optimizer, problem, stored.checkpoint).map_err(|e| e.to_string())?;
    Ok(assemble(driver, spec, registry))
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn counter(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.counter(name).unwrap_or(0)
}

fn layers(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    generations: usize,
    lanes: usize,
    islands: usize,
    oracle_busy_ms: f64,
    eval_us: Vec<f64>,
) -> Layers {
    let per_generation = generations.max(1) as f64;
    let phase_ms = PHASES
        .iter()
        .map(|&phase| {
            let name = format!("phase.{phase}.us");
            let us = counter(after, &name) - counter(before, &name);
            (phase, us as f64 / 1e3 / per_generation)
        })
        .collect();
    let counters = after
        .metrics
        .keys()
        .filter(|name| !name.starts_with("phase.") && !name.contains("_us"))
        .filter_map(|name| after.counter(name).map(|value| (name.clone(), value)))
        .collect();
    let queue_wait_us_p50 = after
        .histogram("exec.queue_wait_us")
        .map_or(0.0, |h| histogram_median(&h.bounds, &h.counts));
    Layers {
        generations,
        lanes,
        islands,
        phase_ms,
        oracle_busy_ms: oracle_busy_ms / per_generation,
        eval_us,
        counters,
        queue_wait_us_p50,
    }
}

/// Median of a fixed-bucket histogram, interpolated linearly inside the
/// bucket that holds it (the overflow bucket reads as its lower bound).
fn histogram_median(bounds: &[f64], counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let half = total as f64 / 2.0;
    let mut below = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        if count > 0 && (below + count) as f64 >= half {
            let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
            let Some(&upper) = bounds.get(i) else {
                return lower;
            };
            return lower + (upper - lower) * (half - below as f64) / count as f64;
        }
        below += count;
    }
    bounds.last().copied().unwrap_or(0.0)
}

impl Layers {
    /// Phase self time per generation, in milliseconds.
    pub fn phase(&self, name: &str) -> f64 {
        self.phase_ms.get(name).copied().unwrap_or(0.0)
    }

    /// The layer self times of a generation over its wall time as the
    /// driver's caller measured it, under the two extreme models of how
    /// the islands overlap: `(parallel, serial)`. Both add the self times
    /// spent once per generation (migration, and the driver's telemetry:
    /// front extraction and hypervolume) to the island phases, which count
    /// divided by the island count when the islands run fully in parallel
    /// and whole when they run one after another. With one population the
    /// two agree; when the self times account for the wall time, the
    /// parallel figure is at most 1 and the serial one at least 1.
    pub fn coverage(&self, gen_wall_ms: f64) -> (f64, f64) {
        let island: f64 = ISLAND_PHASES.iter().map(|p| self.phase(p)).sum();
        let once = self.phase("migration") + self.phase("telemetry");
        (
            (once + island / self.islands.max(1) as f64) / gen_wall_ms,
            (once + island) / gen_wall_ms,
        )
    }

    /// Island phase time (variation, prepare, evaluation, selection, summed
    /// over islands) per millisecond of the generation step spent outside
    /// migration. 1 for a single population whose step is fully covered by
    /// its phases; up to the island count when islands run fully in
    /// parallel; below either when the step spends time no phase records,
    /// such as spawning the island threads.
    pub fn island_overlap(&self) -> f64 {
        let island: f64 = ISLAND_PHASES.iter().map(|p| self.phase(p)).sum();
        let span = self.phase("generation") - self.phase("migration");
        if span > 0.0 {
            island / span
        } else {
            0.0
        }
    }

    /// Oracle busy time over the lane capacity evaluation calls were
    /// offered: the evaluation phase's wall time (summed over islands)
    /// times the executor's lanes.
    pub fn lane_util(&self) -> f64 {
        let capacity = self.phase("eval") * self.lanes as f64;
        if capacity > 0.0 {
            self.oracle_busy_ms / capacity
        } else {
            0.0
        }
    }

    /// A counter by its registry name (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers(islands: usize, phases: &[(&'static str, f64)]) -> Layers {
        Layers {
            generations: 1,
            lanes: 1,
            islands,
            phase_ms: phases.iter().copied().collect(),
            oracle_busy_ms: 0.0,
            eval_us: Vec::new(),
            counters: BTreeMap::new(),
            queue_wait_us_p50: 0.0,
        }
    }

    #[test]
    fn coverage_brackets_the_wall_time_between_parallel_and_serial_islands() {
        let phases = [
            ("variation", 1.0),
            ("eval", 4.0),
            ("selection", 1.0),
            ("migration", 0.5),
            ("telemetry", 0.5),
        ];
        // One population: both models count the phases once.
        assert_eq!(layers(1, &phases).coverage(7.0), (1.0, 1.0));
        // Two islands: 6 ms of island phases are 3 ms when fully parallel.
        assert_eq!(layers(2, &phases).coverage(4.0), (1.0, 1.75));
        // Wall time no phase accounts for lowers both figures.
        let (parallel, serial) = layers(1, &phases).coverage(14.0);
        assert!(parallel < 0.9 && serial < 0.9);
    }
}

//! The dynamic (ODE-backed) leaf-redesign problem with warm-started
//! steady-state evaluation.
//!
//! [`crate::LeafRedesignProblem`] scores a design with the *analytic*
//! uptake model; this module scores it with the full
//! [`pathway_photosynthesis::CalvinCycleOde`] driven to steady state — the
//! oracle the paper actually describes, and orders of magnitude more
//! expensive. The batch-level amortization that makes it cheaper inside
//! an optimization loop: each candidate's steady-state solve is
//! **warm-started** from the steady state of the nearest already-evaluated
//! design in a bounded library spanning *all* previous generations, so
//! consecutive generations (whose offspring cluster around their parents)
//! start a few Newton steps from their root instead of at the cold-start
//! state (about 3 steps against 65 for the natural leaf). The
//! library is indexed by a static k-d tree over capacity space, rebuilt
//! once per commit, so each lookup costs `O(log n)` expected instead of a
//! linear scan over every design ever settled.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::RwLock;

use pathway_linalg::Vector;
use pathway_moo::engine::MetricsRegistry;
use pathway_moo::MultiObjectiveProblem;
use pathway_photosynthesis::{
    EnzymePartition, IntegrationStats, OdeError, OdeUptakeEvaluator, Scenario,
};

/// Constraint violation of a design whose steady-state solve never
/// settles: infeasible, so it never dominates a design that settled.
const UNSETTLED_VIOLATION: f64 = 1.0;

/// Upper bound on the warm-start library. Generous enough to hold several
/// generations of a typical population (60–200 designs) while keeping the
/// worst-case rebuild and memory footprint fixed.
const MAX_WARM_START_POOL: usize = 512;

/// One settled design in the warm-start library.
#[derive(Debug, Clone)]
struct WarmEntry {
    capacities: Vec<f64>,
    state: Vector,
    /// The commit epoch that produced this steady state; newer stamps win
    /// deduplication and survive eviction longer.
    stamp: u64,
}

/// A node of the static k-d tree over the committed entries. Children are
/// indices into [`WarmStartPool::nodes`].
#[derive(Debug, Clone, Copy)]
struct KdNode {
    entry: usize,
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
}

/// The library of parent steady states candidate evaluations warm-start
/// from.
///
/// `committed` is the frozen library every evaluation reads — a bounded,
/// deduplicated union of every previously committed generation, indexed by
/// the k-d tree in `nodes`; `pending` collects the steady states of the
/// batch currently being evaluated. The hand-over happens in
/// [`MultiObjectiveProblem::prepare_batch`] — once per *whole* batch,
/// before any chunk is evaluated — which is the linchpin of the determinism
/// story (see the type-level docs below).
#[derive(Debug, Default)]
struct WarmStartPool {
    committed: Vec<WarmEntry>,
    /// Static k-d tree over `committed`, rebuilt by every non-empty commit.
    nodes: Vec<KdNode>,
    root: Option<usize>,
    pending: Vec<(Vec<f64>, Vector)>,
    /// Bumped by every commit. `evaluate_batch` snapshots it when a chunk
    /// starts and re-checks it before recording results: a mismatch means a
    /// *concurrent* `prepare_batch` (a second, independent driver sharing
    /// this instance) swapped the pool mid-batch — the batch's warm starts
    /// were scheduling-dependent, so the run's determinism contract is
    /// already broken and we fail loudly instead of silently diverging.
    epoch: u64,
    /// When set, commits discard `pending` instead of merging it: the
    /// library is pinned to its current contents. See
    /// [`OdeLeafRedesignProblem::freeze_warm_start_pool`].
    frozen: bool,
}

impl WarmStartPool {
    /// Folds `pending` into the bounded committed library and rebuilds the
    /// k-d index. The result is a pure function of the *multiset* of
    /// commits so far — entries are stamped with the commit epoch, merged
    /// in a canonical (capacities, newest-first) order, deduplicated
    /// keeping the freshest steady state per design, and evicted
    /// oldest-generation-first (lexicographic capacities breaking ties
    /// within a generation) once the library exceeds
    /// [`MAX_WARM_START_POOL`]. Worker scheduling never shows: the sort
    /// erases `pending`'s arrival order.
    fn commit(&mut self) {
        self.epoch += 1;
        if self.frozen {
            self.pending.clear();
            return;
        }
        if self.pending.is_empty() {
            return;
        }
        let stamp = self.epoch;
        let mut entries = std::mem::take(&mut self.committed);
        entries.extend(self.pending.drain(..).map(|(capacities, state)| WarmEntry {
            capacities,
            state,
            stamp,
        }));
        // Newest stamp first within equal capacities, so the dedup keeps
        // the freshest steady state for a re-evaluated design.
        entries.sort_by(|a, b| {
            lex_cmp(&a.capacities, &b.capacities).then_with(|| b.stamp.cmp(&a.stamp))
        });
        entries.dedup_by(|a, b| lex_cmp(&a.capacities, &b.capacities) == Ordering::Equal);
        if entries.len() > MAX_WARM_START_POOL {
            entries.sort_by(|a, b| {
                b.stamp
                    .cmp(&a.stamp)
                    .then_with(|| lex_cmp(&a.capacities, &b.capacities))
            });
            entries.truncate(MAX_WARM_START_POOL);
            entries.sort_by(|a, b| lex_cmp(&a.capacities, &b.capacities));
        }
        self.committed = entries;
        self.rebuild_tree();
    }

    fn rebuild_tree(&mut self) {
        self.nodes.clear();
        self.nodes.reserve(self.committed.len());
        let mut indices: Vec<usize> = (0..self.committed.len()).collect();
        self.root = build_subtree(&self.committed, &mut indices, 0, &mut self.nodes);
    }

    /// The committed entry nearest to `x`: minimal squared Euclidean
    /// distance in capacity space, ties broken towards the
    /// lexicographically smallest capacities. That minimum is unique under
    /// the `(distance, lex)` total order (committed capacities are
    /// distinct), so the answer depends only on the library *set*, never on
    /// the tree layout or traversal order.
    fn nearest(&self, x: &[f64]) -> Option<&WarmEntry> {
        let root = self.root?;
        let mut best: Option<(usize, f64)> = None;
        self.nearest_in(root, x, &mut best);
        best.map(|(entry, _)| &self.committed[entry])
    }

    fn nearest_in(&self, node: usize, x: &[f64], best: &mut Option<(usize, f64)>) {
        let KdNode {
            entry,
            axis,
            left,
            right,
        } = self.nodes[node];
        let capacities = &self.committed[entry].capacities;
        let distance = squared_distance(capacities, x);
        let better = match best {
            None => true,
            Some((incumbent, incumbent_distance)) => match distance.total_cmp(incumbent_distance) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => {
                    lex_cmp(capacities, &self.committed[*incumbent].capacities) == Ordering::Less
                }
            },
        };
        if better {
            *best = Some((entry, distance));
        }
        let gap = x[axis] - capacities[axis];
        let (near, far) = if gap < 0.0 {
            (left, right)
        } else {
            (right, left)
        };
        if let Some(child) = near {
            self.nearest_in(child, x, best);
        }
        if let Some(child) = far {
            let best_distance = best.expect("best was set at this node").1;
            // Visit the far side on plane-distance *ties* (`<=`): an
            // equal-distance entry there must still compete, or the
            // lexicographic tie-break would depend on the tree layout
            // instead of the library set.
            if gap * gap <= best_distance {
                self.nearest_in(child, x, best);
            }
        }
    }
}

/// Builds a balanced k-d subtree over `indices` (indices into `entries`),
/// appending nodes to `nodes` and returning the subtree root. The split
/// axis cycles with depth; the median is chosen under the total order
/// (axis coordinate, then full lexicographic capacities), so the layout is
/// a pure function of the entry set.
fn build_subtree(
    entries: &[WarmEntry],
    indices: &mut [usize],
    depth: usize,
    nodes: &mut Vec<KdNode>,
) -> Option<usize> {
    let (&first, _) = indices.split_first()?;
    let axis = depth % entries[first].capacities.len();
    indices.sort_by(|&a, &b| {
        entries[a].capacities[axis]
            .total_cmp(&entries[b].capacities[axis])
            .then_with(|| lex_cmp(&entries[a].capacities, &entries[b].capacities))
    });
    let median = indices.len() / 2;
    let entry = indices[median];
    let (left_half, rest) = indices.split_at_mut(median);
    let right_half = &mut rest[1..];
    let left = build_subtree(entries, left_half, depth + 1, nodes);
    let right = build_subtree(entries, right_half, depth + 1, nodes);
    nodes.push(KdNode {
        entry,
        axis,
        left,
        right,
    });
    Some(nodes.len() - 1)
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// The leaf-redesign problem evaluated through the dynamic ODE model, with
/// nearest-parent warm starts.
///
/// Objectives (both minimized): `-uptake` (net CO₂ uptake of the ODE steady
/// state, µmol m⁻² s⁻¹) and `nitrogen` (total protein nitrogen, mg/l) — the
/// same trade-off as [`crate::LeafRedesignProblem`], with the analytic
/// steady state replaced by the ODE model's.
///
/// # Warm starts and determinism
///
/// The warm-start library holds the steady states of **every** previous
/// generation (bounded, deduplicated, newest-first eviction), committed in
/// [`MultiObjectiveProblem::prepare_batch`] and frozen while the current
/// batch is evaluated. Every candidate then picks its start state as a pure
/// function of `(candidate, frozen library)` — nearest settled design by
/// Euclidean distance in capacity space via a static k-d tree, ties broken
/// by lexicographic comparison of the design's capacities — so chunked,
/// pooled evaluation is bit-identical to serial evaluation of the same
/// batch, and the commit itself sorts the collected states by content,
/// which makes the library independent of the order worker threads
/// finished in. `tests/determinism.rs` enforces both.
///
/// What the warm start is **not**: a pure function of the candidate alone.
/// Results depend on the evaluation history of this problem *instance*, so
/// two optimizers must share one instance (or both start fresh) to agree
/// bit-for-bit, and a checkpoint resumed in a fresh process re-converges
/// from a cold pool rather than reproducing the original trajectory
/// bit-identically. That is why this problem is deliberately **not** in the
/// spec registry of [`crate::PROBLEM_CATALOG`] — the `pathway` CLI promises
/// bit-identical cross-process resume, which a process-local cache cannot
/// honor. For the same reason, drive this problem with **NSGA-II** or the
/// **archipelago**: each evaluates a whole generation's offspring — every
/// island's, for the archipelago — through one
/// [`pathway_moo::exec::Executor::evaluate_batch`] call, so `prepare_batch`
/// runs once per generation. What one instance cannot serve is two
/// independent drivers at once: their interleaved `prepare_batch` commits
/// against one shared pool would be scheduling-dependent — the problem
/// detects a commit landing mid-batch and **panics** with a diagnostic
/// rather than letting the run silently diverge. MOEA/D is *correct* but
/// slower: it evaluates its children one at a time through
/// [`MultiObjectiveProblem::evaluate`] and
/// [`MultiObjectiveProblem::constraint_violation`], one solve each, which
/// read the committed pool without ever refreshing it, so after the
/// initial batch every candidate cold-starts.
///
/// # Example
///
/// ```no_run
/// use pathway_core::OdeLeafRedesignProblem;
/// use pathway_moo::{problems, MultiObjectiveProblem};
/// use pathway_photosynthesis::Scenario;
///
/// let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
/// let natural = pathway_photosynthesis::EnzymePartition::natural();
/// let objectives = problem.evaluate(natural.capacities());
/// assert!(objectives[0] < 0.0); // positive uptake
/// ```
#[derive(Debug)]
pub struct OdeLeafRedesignProblem {
    scenario: Scenario,
    evaluator: OdeUptakeEvaluator,
    bounds: Vec<(f64, f64)>,
    pool: RwLock<WarmStartPool>,
    counters: OracleCounters,
}

/// Cumulative oracle work, summed over every evaluated design (the repeated
/// solve in [`MultiObjectiveProblem::constraint_violation`] is not counted).
/// Each counter is a pure sum, so the totals do not depend on the order
/// lanes finish in.
#[derive(Debug, Default)]
struct OracleCounters {
    /// Designs whose solve started from a parent steady state.
    warm_starts: AtomicU64,
    /// Designs whose solve started from the cold-start state.
    cold_starts: AtomicU64,
    /// Designs whose solve never settled.
    unsettled: AtomicU64,
    steps: AtomicU64,
    rhs_evals: AtomicU64,
    jacobians: AtomicU64,
    newton_iters: AtomicU64,
}

impl OracleCounters {
    fn add_work(&self, stats: &IntegrationStats) {
        let add = |counter: &AtomicU64, n: usize| {
            counter.fetch_add(n as u64, AtomicOrdering::Relaxed);
        };
        add(&self.steps, stats.steps_attempted());
        add(&self.rhs_evals, stats.rhs_evaluations);
        add(&self.jacobians, stats.jacobian_evaluations);
        add(&self.newton_iters, stats.newton_iterations);
    }
}

impl OdeLeafRedesignProblem {
    /// Creates the problem for a scenario with the default search box
    /// (0.02×–4× the natural capacities, matching
    /// [`crate::LeafRedesignProblem`]) and the
    /// [`OdeUptakeEvaluator::fast`] solver settings (tolerance `1e-8`, 400
    /// steps) — the right trade-off inside an optimization loop; use
    /// [`OdeLeafRedesignProblem::with_evaluator`] for tighter tolerances.
    pub fn new(scenario: Scenario) -> Self {
        OdeLeafRedesignProblem {
            scenario,
            evaluator: OdeUptakeEvaluator::fast(),
            bounds: EnzymePartition::bounds(0.02, 4.0),
            pool: RwLock::new(WarmStartPool::default()),
            counters: OracleCounters::default(),
        }
    }

    /// Dumps the cumulative oracle counters into `registry`: the start
    /// split `oracle.ode.warm_starts` and `oracle.ode.cold_starts` (the hit
    /// rate `warm / (warm + cold)` is the amortization the module docs
    /// describe), and the solver work summed over every design, settled or
    /// not: `ode.steps`, `ode.rhs_evals`, `ode.jacobians`,
    /// `ode.newton_iters`, plus `ode.unsettled`, the designs that never
    /// settled. Call once when an invocation finishes.
    pub fn record_oracle_metrics(&self, registry: &MetricsRegistry) {
        let c = &self.counters;
        for (name, counter) in [
            ("oracle.ode.warm_starts", &c.warm_starts),
            ("oracle.ode.cold_starts", &c.cold_starts),
            ("ode.steps", &c.steps),
            ("ode.rhs_evals", &c.rhs_evals),
            ("ode.jacobians", &c.jacobians),
            ("ode.newton_iters", &c.newton_iters),
            ("ode.unsettled", &c.unsettled),
        ] {
            registry.add(name, counter.load(AtomicOrdering::Relaxed));
        }
    }

    /// Overrides the steady-state evaluator (step, tolerance, budget).
    #[must_use]
    pub fn with_evaluator(mut self, evaluator: OdeUptakeEvaluator) -> Self {
        self.evaluator = evaluator;
        self
    }

    /// Overrides the search box as multiples of the natural capacities.
    #[must_use]
    pub fn with_bounds(mut self, lower_factor: f64, upper_factor: f64) -> Self {
        self.bounds = EnzymePartition::bounds(lower_factor, upper_factor);
        self
    }

    /// The scenario being optimized.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Pins the warm-start library to its current committed contents:
    /// every later [`MultiObjectiveProblem::prepare_batch`] still bumps the
    /// epoch (so the concurrent-driver guard keeps working) but discards
    /// the batch's settled states instead of merging them. Use this to
    /// re-score designs against a *fixed* parent library — replaying a
    /// front, or benchmarking the evaluator on a reproducible warm/cold
    /// cost profile that does not drift as the library absorbs new parents.
    pub fn freeze_warm_start_pool(&self) {
        self.pool
            .write()
            .expect("warm-start pool lock poisoned")
            .frozen = true;
    }

    /// Number of parent steady states currently committed for warm starts.
    pub fn warm_start_pool_size(&self) -> usize {
        self.pool
            .read()
            .expect("warm-start pool lock poisoned")
            .committed
            .len()
    }

    /// The nearest committed design's steady state, or `None` for a cold
    /// library. Deterministic for a given library *set*: squared Euclidean
    /// distance in capacity space, ties broken towards the lexicographically
    /// smallest capacities ([`WarmStartPool::nearest`]).
    fn warm_start(&self, x: &[f64]) -> Option<Vector> {
        let pool = self.pool.read().expect("warm-start pool lock poisoned");
        pool.nearest(x).map(|entry| entry.state.clone())
    }

    /// Evaluates one candidate against the frozen pool: objectives,
    /// constraint violation and the settled steady state.
    ///
    /// A design whose solve never settles within the step budget scores
    /// `[0.0, nitrogen]` with violation [`UNSETTLED_VIOLATION`], so it is
    /// infeasible and never enters the pool: a pathway that does not settle
    /// fixes no carbon worth reporting, and scoring it as a feasible
    /// zero-uptake design would let it crowd the low-nitrogen end of the
    /// front.
    ///
    /// The solve's work goes into `counters`.
    fn evaluate_one(
        &self,
        x: &[f64],
        counters: &OracleCounters,
    ) -> (Vec<f64>, f64, Option<Vector>) {
        let partition = EnzymePartition::new(x.to_vec());
        let nitrogen = partition.total_nitrogen();
        let solved = match self.warm_start(x) {
            Some(y0) => {
                counters.warm_starts.fetch_add(1, AtomicOrdering::Relaxed);
                self.evaluator
                    .steady_state_from(&partition, &self.scenario, y0)
            }
            None => {
                counters.cold_starts.fetch_add(1, AtomicOrdering::Relaxed);
                self.evaluator.steady_state(&partition, &self.scenario)
            }
        };
        match solved {
            Ok((steady, uptake)) => {
                counters.add_work(&steady.stats);
                (vec![-uptake, nitrogen], 0.0, Some(steady.state))
            }
            Err(error) => {
                if let OdeError::SteadyStateNotReached { stats, .. } = &error {
                    counters.add_work(stats);
                }
                counters.unsettled.fetch_add(1, AtomicOrdering::Relaxed);
                (vec![0.0, nitrogen], UNSETTLED_VIOLATION, None)
            }
        }
    }
}

/// Lexicographic total order on capacity vectors (shorter is smaller on a
/// shared prefix). Used only for deterministic tie-breaks and pool sorting.
fn lex_cmp(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

impl MultiObjectiveProblem for OdeLeafRedesignProblem {
    fn num_variables(&self) -> usize {
        pathway_photosynthesis::ENZYME_COUNT
    }

    fn num_objectives(&self) -> usize {
        2
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.bounds.clone()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.evaluate_one(x, &self.counters).0
    }

    /// Solves the candidate again for its violation: a per-candidate caller
    /// (MOEA/D's children) pays two solves, a batch caller one. The repeated
    /// solve counts into a throwaway set, so the oracle counters count
    /// each design once.
    fn constraint_violation(&self, x: &[f64]) -> f64 {
        self.evaluate_one(x, &OracleCounters::default()).1
    }

    /// Evaluates the batch against the frozen parent pool and collects the
    /// settled steady states as `pending` parents for the *next* batch.
    /// Chunk-safe: reads only frozen state, and the unordered `pending`
    /// appends are normalized (sorted by content) at the next
    /// [`MultiObjectiveProblem::prepare_batch`].
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        let epoch = self
            .pool
            .read()
            .expect("warm-start pool lock poisoned")
            .epoch;
        let mut results = Vec::with_capacity(xs.len());
        let mut settled: Vec<(Vec<f64>, Vector)> = Vec::with_capacity(xs.len());
        for x in xs {
            let (objectives, violation, steady) = self.evaluate_one(x, &self.counters);
            if let Some(state) = steady {
                settled.push((x.clone(), state));
            }
            results.push((objectives, violation));
        }
        let mut pool = self.pool.write().expect("warm-start pool lock poisoned");
        assert_eq!(
            pool.epoch, epoch,
            "OdeLeafRedesignProblem: prepare_batch committed while a batch was still \
             evaluating — this problem instance is being driven by two independent \
             optimizers at once, which makes warm starts scheduling-dependent; give each \
             optimizer its own instance"
        );
        pool.pending.extend(settled);
        results
    }

    /// Folds the previous batch's steady states into the bounded parent
    /// library and rebuilds its k-d index (`WarmStartPool::commit`).
    /// Runs once per whole batch (before any chunk), so every chunk of the
    /// incoming batch sees the same frozen library; the canonical merge
    /// order makes the library a pure function of the commit history,
    /// independent of worker scheduling. Every prepare bumps the epoch —
    /// even a no-op commit — so that a *second* driver's prepare
    /// interleaving with a batch in flight trips the guard in
    /// `evaluate_batch` from the very first generation, not only once the
    /// library is non-empty.
    fn prepare_batch(&self, _xs: &[Vec<f64>]) {
        self.pool
            .write()
            .expect("warm-start pool lock poisoned")
            .commit();
    }

    fn name(&self) -> &str {
        "leaf-design-ode"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathway_moo::exec::Executor;
    use pathway_moo::EvalBackend;

    fn small_batch() -> Vec<Vec<f64>> {
        // Three designs that settle, on both sides of the model's bistable
        // range (1.2x-1.3x natural).
        let natural = EnzymePartition::natural();
        vec![
            natural.capacities().to_vec(),
            natural.scaled(1.1).capacities().to_vec(),
            natural.scaled(1.3).capacities().to_vec(),
        ]
    }

    #[test]
    fn batched_evaluation_matches_the_per_candidate_path_bit_for_bit() {
        let batched = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let itemwise = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let xs = small_batch();
        let batch = batched.evaluate_batch(&xs);
        for (x, (objectives, violation)) in xs.iter().zip(&batch) {
            assert_eq!(objectives, &itemwise.evaluate(x));
            assert_eq!(*violation, 0.0);
        }
    }

    #[test]
    fn frozen_pool_discards_new_parents_but_keeps_serving_the_old_ones() {
        let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let xs = small_batch();
        problem.prepare_batch(&xs);
        problem.evaluate_batch(&xs);
        problem.prepare_batch(&xs);
        let committed = problem.warm_start_pool_size();
        assert!(committed > 0, "the settling designs were committed");

        problem.freeze_warm_start_pool();
        let novel = vec![EnzymePartition::natural().scaled(1.2).capacities().to_vec()];
        let frozen_scores = problem.evaluate_batch(&novel);
        problem.prepare_batch(&novel);
        assert_eq!(
            problem.warm_start_pool_size(),
            committed,
            "a frozen library must not absorb newly settled parents"
        );
        // The pinned library still serves warm starts, so re-scoring is
        // reproducible batch over batch.
        assert_eq!(problem.evaluate_batch(&novel), frozen_scores);
    }

    #[test]
    fn prepare_commits_parents_and_freezes_them_for_the_next_batch() {
        let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let xs = small_batch();
        assert_eq!(problem.warm_start_pool_size(), 0);
        problem.prepare_batch(&xs);
        let first = problem.evaluate_batch(&xs);
        assert_eq!(
            problem.warm_start_pool_size(),
            0,
            "pending is not committed yet"
        );
        problem.prepare_batch(&xs);
        assert_eq!(problem.warm_start_pool_size(), xs.len());
        // Identical designs warm-started from their own steady states still
        // produce finite, sensible objectives.
        let second = problem.evaluate_batch(&xs);
        for ((first_obj, _), (second_obj, _)) in first.iter().zip(&second) {
            assert!(first_obj[0] < 0.0 && second_obj[0] < 0.0, "positive uptake");
            assert_eq!(first_obj[1], second_obj[1], "nitrogen is exact");
        }
    }

    #[test]
    fn warm_started_generations_are_identical_under_serial_and_pooled_executors() {
        let serial_problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let pooled_problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let serial = Executor::serial();
        let pooled = Executor::new(EvalBackend::Threads(2));
        let xs = small_batch();
        for generation in 0..3 {
            let a = serial.evaluate_batch(&serial_problem, &xs);
            let b = pooled.evaluate_batch(&pooled_problem, &xs);
            assert_eq!(a, b, "generation {generation} diverged");
        }
        assert_eq!(
            serial_problem.warm_start_pool_size(),
            pooled_problem.warm_start_pool_size()
        );
    }

    #[test]
    fn oracle_counters_split_cold_and_warm_starts() {
        let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let xs = small_batch();
        problem.prepare_batch(&xs);
        problem.evaluate_batch(&xs); // cold pool: every start is cold
        problem.prepare_batch(&xs);
        problem.evaluate_batch(&xs); // committed parents: every start is warm
        let registry = MetricsRegistry::new();
        problem.record_oracle_metrics(&registry);
        let snapshot = registry.snapshot();
        assert_eq!(
            snapshot.counter("oracle.ode.cold_starts"),
            Some(xs.len() as u64)
        );
        assert_eq!(
            snapshot.counter("oracle.ode.warm_starts"),
            Some(xs.len() as u64)
        );
    }

    #[test]
    fn a_design_that_never_settles_is_infeasible_and_never_dominates_a_feasible_one() {
        use pathway_moo::{constrained_dominates, Individual};
        use pathway_photosynthesis::EnzymeKind;

        let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        let natural = EnzymePartition::natural();
        let to_individuals = |xs: &[Vec<f64>], scored: Vec<(Vec<f64>, f64)>| -> Vec<Individual> {
            xs.iter()
                .zip(scored)
                .map(|(x, (objectives, violation))| {
                    Individual::from_evaluated(x.clone(), objectives, violation)
                })
                .collect()
        };
        // Cold starts: all three settle and enter the warm-start library.
        let settling = small_batch();
        let feasible = to_individuals(&settling, problem.evaluate_batch(&settling));
        problem.prepare_batch(&settling);
        assert_eq!(problem.warm_start_pool_size(), 3);

        // FBP aldolase at 2% of natural, warm-started from the natural
        // leaf's steady state, stalls at scaled residual 5.2e-3 and exhausts
        // the 400-step budget of `OdeUptakeEvaluator::fast`. (Its cold start
        // settles.)
        let starved = natural.with_scaled(EnzymeKind::FbpAldolase, 0.02);
        let xs = vec![starved.capacities().to_vec()];
        let unsettled = to_individuals(&xs, problem.evaluate_batch(&xs)).remove(0);
        assert_eq!(unsettled.objectives, vec![0.0, starved.total_nitrogen()]);
        assert_eq!(unsettled.violation, UNSETTLED_VIOLATION);
        assert!(!unsettled.is_feasible());
        assert_eq!(problem.constraint_violation(&xs[0]), UNSETTLED_VIOLATION);
        for feasible in &feasible {
            assert!(feasible.is_feasible());
            assert!(!constrained_dominates(&unsettled, feasible));
            assert!(constrained_dominates(feasible, &unsettled));
        }
        // The unsettled design never enters the warm-start library.
        problem.prepare_batch(&xs);
        assert_eq!(problem.warm_start_pool_size(), 3);

        // The counters count designs: the re-solve in `constraint_violation`
        // is not counted.
        let registry = MetricsRegistry::new();
        problem.record_oracle_metrics(&registry);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("ode.unsettled"), Some(1));
        assert_eq!(snapshot.counter("oracle.ode.warm_starts"), Some(1));
        assert_eq!(snapshot.counter("oracle.ode.cold_starts"), Some(3));
    }

    #[test]
    fn oracle_work_counters_are_identical_under_serial_and_pooled_executors() {
        let counts = |executor: Executor| {
            let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
            let xs = small_batch();
            for _ in 0..3 {
                executor.evaluate_batch(&problem, &xs);
            }
            let registry = MetricsRegistry::new();
            problem.record_oracle_metrics(&registry);
            let snapshot = registry.snapshot();
            [
                "oracle.ode.warm_starts",
                "oracle.ode.cold_starts",
                "ode.steps",
                "ode.rhs_evals",
                "ode.jacobians",
                "ode.newton_iters",
                "ode.unsettled",
            ]
            .map(|name| snapshot.counter(name))
        };
        let serial = counts(Executor::serial());
        let pooled = counts(Executor::new(EvalBackend::Threads(2)));
        assert_eq!(serial, pooled);
        assert!(serial[2].is_some_and(|steps| steps > 0), "{serial:?}");
    }

    #[test]
    fn a_two_island_archipelago_is_identical_under_serial_and_pooled_executors() {
        use pathway_moo::{Archipelago, ArchipelagoConfig, Nsga2Config};
        use std::sync::Arc;

        // One instance per run: the warm-start library is history. The
        // archipelago evaluates both islands' offspring in one batch, so
        // `prepare_batch` runs once per generation and the epoch guard
        // never trips, under either executor.
        let front_bits = |backend: EvalBackend| {
            let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
            let mut archipelago = Archipelago::new(
                ArchipelagoConfig {
                    islands: 2,
                    island_config: Nsga2Config {
                        population_size: 8,
                        generations: 4,
                        ..Default::default()
                    },
                    migration_interval: 2,
                    migration_probability: 1.0,
                    ..Default::default()
                },
                3,
            );
            archipelago.set_executor(Arc::new(Executor::new(backend)));
            let front = archipelago.run(&problem);
            assert!(!front.is_empty());
            assert!(problem.warm_start_pool_size() > 0);
            front
                .iter()
                .flat_map(|member| member.variables.iter().chain(&member.objectives))
                .map(|value| value.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(
            front_bits(EvalBackend::Serial),
            front_bits(EvalBackend::Threads(2))
        );
    }

    #[test]
    fn dimensions_and_name() {
        let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
        assert_eq!(problem.num_variables(), 23);
        assert_eq!(problem.num_objectives(), 2);
        assert_eq!(problem.bounds().len(), 23);
        assert_eq!(problem.name(), "leaf-design-ode");
    }

    /// Reference nearest-neighbour: the linear scan the k-d tree replaced,
    /// with the same `(distance, lex)` tie-break.
    fn linear_nearest<'a>(entries: &'a [WarmEntry], x: &[f64]) -> Option<&'a WarmEntry> {
        let mut best: Option<(&'a WarmEntry, f64)> = None;
        for entry in entries {
            let distance = squared_distance(&entry.capacities, x);
            let better = match &best {
                None => true,
                Some((incumbent, incumbent_distance)) => {
                    match distance.total_cmp(incumbent_distance) {
                        Ordering::Less => true,
                        Ordering::Greater => false,
                        Ordering::Equal => {
                            lex_cmp(&entry.capacities, &incumbent.capacities) == Ordering::Less
                        }
                    }
                }
            };
            if better {
                best = Some((entry, distance));
            }
        }
        best.map(|(entry, _)| entry)
    }

    /// A tiny deterministic LCG; coordinates land on a coarse grid so that
    /// distance ties (which exercise the lexicographic tie-break and the
    /// `<=` far-side visit) actually occur.
    fn lcg_coord(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) % 8) as f64 * 0.5
    }

    #[test]
    fn kd_nearest_matches_the_linear_scan_reference_exactly() {
        let dims = 5;
        let mut seed = 42u64;
        let mut pool = WarmStartPool::default();
        for i in 0..200 {
            let capacities: Vec<f64> = (0..dims).map(|_| lcg_coord(&mut seed)).collect();
            pool.pending.push((capacities, Vector::filled(1, i as f64)));
        }
        pool.commit();
        assert!(pool.committed.len() > 100, "grid collisions stay rare-ish");
        assert_eq!(pool.nodes.len(), pool.committed.len());
        for _ in 0..200 {
            let query: Vec<f64> = (0..dims).map(|_| lcg_coord(&mut seed)).collect();
            let from_tree = pool.nearest(&query).expect("library is non-empty");
            let from_scan = linear_nearest(&pool.committed, &query).unwrap();
            assert_eq!(
                from_tree.capacities, from_scan.capacities,
                "query {query:?}"
            );
            assert_eq!(from_tree.state[0], from_scan.state[0]);
        }
    }

    #[test]
    fn library_retains_parents_across_generations_and_prefers_fresh_duplicates() {
        let mut pool = WarmStartPool::default();
        pool.pending.push((vec![1.0, 0.0], Vector::filled(1, 1.0)));
        pool.commit();
        pool.pending.push((vec![0.0, 1.0], Vector::filled(1, 2.0)));
        // The same design re-settled in a later generation.
        pool.pending.push((vec![1.0, 0.0], Vector::filled(1, 3.0)));
        pool.commit();
        // The old wholesale-replacement pool would have dropped nothing here,
        // but a third commit with fresh designs used to forget generation 1;
        // the library keeps both generations, deduplicated.
        assert_eq!(pool.committed.len(), 2);
        let fresh = pool.nearest(&[1.0, 0.0]).unwrap();
        assert_eq!(fresh.stamp, 2, "dedup keeps the newest steady state");
        assert_eq!(fresh.state[0], 3.0);
        let retained = pool.nearest(&[0.0, 1.0]).unwrap();
        assert_eq!(retained.state[0], 2.0);
        pool.pending.push((vec![5.0, 5.0], Vector::filled(1, 4.0)));
        pool.commit();
        assert_eq!(
            pool.committed.len(),
            3,
            "generation 1 survives generation 3"
        );
    }

    #[test]
    fn pool_is_bounded_and_evicts_the_oldest_generations_first() {
        let mut pool = WarmStartPool::default();
        for i in 0..MAX_WARM_START_POOL {
            pool.pending.push((vec![i as f64], Vector::filled(1, 0.0)));
        }
        pool.commit();
        for i in 0..10 {
            pool.pending
                .push((vec![-(1.0 + i as f64)], Vector::filled(1, 1.0)));
        }
        pool.commit();
        assert_eq!(pool.committed.len(), MAX_WARM_START_POOL);
        assert_eq!(pool.nodes.len(), MAX_WARM_START_POOL);
        let newest = pool.committed.iter().filter(|e| e.stamp == 2).count();
        assert_eq!(newest, 10, "the whole fresh generation survives eviction");
    }

    #[test]
    fn lex_cmp_is_a_total_order_with_length_tiebreak() {
        assert_eq!(lex_cmp(&[1.0, 2.0], &[1.0, 3.0]), Ordering::Less);
        assert_eq!(lex_cmp(&[2.0], &[1.0, 9.0]), Ordering::Greater);
        assert_eq!(lex_cmp(&[1.0], &[1.0, 0.0]), Ordering::Less);
        assert_eq!(lex_cmp(&[1.0, 2.0], &[1.0, 2.0]), Ordering::Equal);
    }
}

//! Batched offspring evaluation: persistent pool vs per-batch scoped
//! threads vs serial, and whole-batch oracle kernels vs per-candidate maps.
//!
//! Two claims this bench exists to demonstrate:
//!
//! 1. **The persistent executor pool beats per-batch scoped spawning.**
//!    Evaluating one Geobacter candidate is a sparse steady-state residual —
//!    microseconds of work — so the ~10 µs/thread cost of re-spawning scoped
//!    threads every batch used to eat most of the parallel speedup (and all
//!    of it for small batches). The pool pays thread creation once per run:
//!    `executor_pool` should match or beat `scoped_threads` at every batch
//!    size, most visibly in the `small_batch` group.
//! 2. **The whole-batch residual beats per-candidate mapping.** The batched
//!    `GeobacterFluxProblem::evaluate_batch` scores an entire offspring
//!    batch with one sparse matrix × dense matrix product; `mapped_oracle`
//!    forces the per-candidate default path over the same problem. Both are
//!    bit-identical; only the traversal count differs.
//! 3. **Tail stealing beats fixed chunks on skewed batches.** A real ODE
//!    leaf batch where a run of candidates costs far more than the rest
//!    (they solve from a distant parent; the rest restart from their own
//!    steady states in a frozen parent library) starves
//!    fixed chunking — one lane grinds while the other idles. The
//!    executor's index-stealing splitter rebalances the tail and stays
//!    bit-identical to serial (`tests/determinism.rs` proves the slot
//!    commit), so `executor_pool_stealing` should clearly beat
//!    `scoped_fixed_chunks` in the `skewed_stealing` group.
//!
//! Set `PATHWAY_BENCH_PROFILE=quick` (CI does) for a reduced model and
//! sample count that still exercises every code path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_bench::scoped_evaluate_batch;
use pathway_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(reactions, population, sample_size)` — paper scale by default, reduced
/// under `PATHWAY_BENCH_PROFILE=quick`.
fn profile() -> (usize, usize, usize) {
    match std::env::var("PATHWAY_BENCH_PROFILE").as_deref() {
        Ok("quick") => (96, 32, 5),
        _ => (608, 100, 10),
    }
}

fn candidates(problem: &GeobacterFluxProblem, count: usize) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(42);
    let bounds = problem.bounds();
    (0..count)
        .map(|_| {
            bounds
                .iter()
                .map(|&(lower, upper)| {
                    if upper > lower {
                        rng.gen_range(lower..=upper)
                    } else {
                        lower
                    }
                })
                .collect()
        })
        .collect()
}

/// Forces the default per-candidate `evaluate_batch` over a problem that
/// overrides it: delegates everything *except* the batched entry point.
struct MappedOracle<'p>(&'p GeobacterFluxProblem);

impl MultiObjectiveProblem for MappedOracle<'_> {
    fn num_variables(&self) -> usize {
        self.0.num_variables()
    }
    fn num_objectives(&self) -> usize {
        self.0.num_objectives()
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        self.0.bounds()
    }
    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.0.evaluate(x)
    }
    fn constraint_violation(&self, x: &[f64]) -> f64 {
        self.0.constraint_violation(x)
    }
    fn name(&self) -> &str {
        "geobacter-flux-mapped"
    }
}

/// Pool vs scoped vs serial on a population-sized batch (the acceptance
/// case: the 608-reaction model at pop 100), and on a deliberately small
/// batch where per-batch thread spawning is pure overhead.
fn bench_executors(c: &mut Criterion) {
    let (reactions, population, samples) = profile();
    let model = GeobacterModel::builder().reactions(reactions).build();
    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");

    for (group_name, batch_len) in [
        ("batch_eval", population),
        ("batch_eval_small", (population / 12).max(4)),
    ] {
        let batch = candidates(&problem, batch_len);
        let mut group = c.benchmark_group(group_name);
        group.sample_size(samples);
        let case = format!("geobacter_pop{batch_len}");
        group.bench_function(BenchmarkId::new(&case, "serial"), |b| {
            let serial = Executor::serial();
            b.iter(|| serial.evaluate_batch(&problem, &batch).len())
        });
        for workers in [2usize, 4] {
            group.bench_function(
                BenchmarkId::new(&case, format!("scoped_threads{workers}")),
                |b| b.iter(|| scoped_evaluate_batch(&problem, &batch, workers).len()),
            );
            group.bench_function(
                BenchmarkId::new(&case, format!("executor_pool{workers}")),
                |b| {
                    // Built once, fed every iteration — the whole point.
                    let pool = Executor::new(EvalBackend::Threads(workers));
                    b.iter(|| pool.evaluate_batch(&problem, &batch).len())
                },
            );
        }
        group.finish();
    }
}

/// The fused CSR residual-norm kernel over the whole batch vs the
/// per-candidate map it replaced, on identical candidates (results are
/// bit-identical; this measures the kernel only).
fn bench_oracle_amortization(c: &mut Criterion) {
    let (reactions, population, samples) = profile();
    let model = GeobacterModel::builder().reactions(reactions).build();
    let problem = GeobacterFluxProblem::new(&model).expect("problem builds");
    let batch = candidates(&problem, population);

    let mut group = c.benchmark_group("oracle");
    // One oracle call is ~100-300µs; more samples cost little and keep the
    // comparison stable on noisy shared machines.
    group.sample_size(samples * 4);
    let case = format!("geobacter_residual_pop{population}");
    group.bench_function(BenchmarkId::new(&case, "batched_fused"), |b| {
        b.iter(|| problem.evaluate_batch(&batch).len())
    });
    group.bench_function(BenchmarkId::new(&case, "mapped_per_candidate"), |b| {
        let mapped = MappedOracle(&problem);
        b.iter(|| mapped.evaluate_batch(&batch).len())
    });
    group.finish();
}

/// The expensive design of [`skewed_leaf_batch`]: a 0.02x-scaled pathway,
/// far from every committed parent.
fn expensive_leaf_design() -> Vec<f64> {
    EnzymePartition::natural()
        .scaled(0.02)
        .capacities()
        .to_vec()
}

/// A batch whose expensive candidates ([`expensive_leaf_design`], kept out
/// of the parent library, so each solves from the natural leaf's steady
/// state in ~56 steps) sit in the middle of lane 0's fixed-chunk half,
/// surrounded by cheap designs that warm-start from their own committed
/// steady states (no step at all). The placement spans the later claim
/// blocks of lane 0's range, which is exactly the work a tail thief can
/// take over.
fn skewed_leaf_batch(batch_len: usize) -> Vec<Vec<f64>> {
    let natural = EnzymePartition::natural();
    (0..batch_len)
        .map(|i| {
            if (batch_len / 8..3 * batch_len / 8).contains(&i) {
                expensive_leaf_design()
            } else {
                natural.scaled(1.0 + 0.02 * i as f64).capacities().to_vec()
            }
        })
        .collect()
}

/// Settles the cheap designs of the batch once cold, commits them as the
/// parent library, then freezes it: every timed iteration sees the same
/// cheap-vs-expensive cost split, because the frozen library neither
/// absorbs the expensive designs nor drifts between samples.
fn warmed_leaf_problem(batch: &[Vec<f64>]) -> OdeLeafRedesignProblem {
    let expensive = expensive_leaf_design();
    let cheap: Vec<Vec<f64>> = batch.iter().filter(|x| **x != expensive).cloned().collect();
    let problem = OdeLeafRedesignProblem::new(Scenario::present_low_export());
    problem.prepare_batch(&cheap);
    problem.evaluate_batch(&cheap);
    problem.prepare_batch(&cheap);
    problem.freeze_warm_start_pool();
    problem
}

/// Fixed chunks vs the index-stealing splitter on the skewed ODE batch,
/// both on two workers. Fixed chunking pins the expensive run to lane 0
/// (wall clock ≈ the loaded lane); the splitter lets lane 1 steal the
/// expensive tail once its own cheap half drains. Results are bit-identical
/// either way — this group measures scheduling only, so the gap needs two
/// physical cores to show (on one core both collapse to the serial total).
fn bench_skewed_stealing(c: &mut Criterion) {
    let (_, population, samples) = profile();
    let batch_len = if population <= 32 { 32 } else { 64 };
    let batch = skewed_leaf_batch(batch_len);

    let mut group = c.benchmark_group("skewed_stealing");
    group.sample_size(samples);
    let case = format!("ode_leaf_pop{batch_len}");
    group.bench_function(BenchmarkId::new(&case, "scoped_fixed_chunks2"), |b| {
        let problem = warmed_leaf_problem(&batch);
        b.iter(|| scoped_evaluate_batch(&problem, &batch, 2).len())
    });
    group.bench_function(BenchmarkId::new(&case, "executor_pool_stealing2"), |b| {
        let problem = warmed_leaf_problem(&batch);
        let pool = Executor::new(EvalBackend::Threads(2));
        b.iter(|| pool.evaluate_batch(&problem, &batch).len())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_executors,
    bench_oracle_amortization,
    bench_skewed_stealing
);
criterion_main!(benches);

//! Fast non-dominated sort and crowding-assignment cost versus population
//! size, and NSGA-II's whole environmental selection on the population
//! shape of the `leaf-analytic` search.
//!
//! `alloc` goes through the convenience wrappers (fresh scratch + copied-out
//! fronts each call, a fresh index buffer per crowding call, which sorts
//! every front once per objective); `scratch` reuses a [`SortScratch`]
//! across calls the way `Nsga2` does every generation — including crowding
//! assignment via [`SortScratch::assign_crowding`], which reads
//! bi-objective fronts from the sort's own order — performing no per-call
//! allocations once the buffers are warm.
//!
//! The golden-ratio points of `nondominated_sort` and `crowding_assignment`
//! fall into many small fronts. A search's population does not:
//! `selection/leaf_island_200` evolves a two-island `leaf-analytic`
//! archipelago (2 × 100 leaf designs, broadcast migration every 10
//! generations) and concatenates the islands' populations, the size of one
//! island's parents plus offspring: mostly rank 0, with the copies
//! migration leaves. It times what `Nsga2` runs on that each generation:
//! the sort, the crowding pass and the choice of 100 survivors.
//!
//! Set `PATHWAY_BENCH_PROFILE=quick` (CI does) for a shorter evolution and
//! fewer samples that still exercise every code path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_core::LeafRedesignProblem;
use pathway_moo::engine::{Driver, StoppingRule};
use pathway_moo::{
    assign_crowding_distance, fast_nondominated_sort, fast_nondominated_sort_with, Archipelago,
    ArchipelagoSpec, Individual, Nsga2Spec, Optimizer, SortScratch,
};
use pathway_photosynthesis::Scenario;

/// `(generations evolved before timing the selection, sample_size)` —
/// reduced under `PATHWAY_BENCH_PROFILE=quick`.
fn profile() -> (usize, usize) {
    match std::env::var("PATHWAY_BENCH_PROFILE").as_deref() {
        Ok("quick") => (20, 5),
        _ => (150, 20),
    }
}

fn synthetic_population(size: usize) -> Vec<Individual> {
    (0..size)
        .map(|i| {
            let x = (i as f64 * 0.618_033_988_75).fract();
            let y = (i as f64 * 0.414_213_562_37).fract();
            Individual {
                variables: vec![x, y],
                objectives: vec![x, y],
                violation: 0.0,
                rank: usize::MAX,
                crowding: 0.0,
            }
        })
        .collect()
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("nondominated_sort");
    group.sample_size(20);
    for &size in &[100usize, 200, 400] {
        group.bench_with_input(BenchmarkId::new("alloc", size), &size, |b, &size| {
            let mut population = synthetic_population(size);
            b.iter(|| fast_nondominated_sort(&mut population).len());
        });
        group.bench_with_input(BenchmarkId::new("scratch", size), &size, |b, &size| {
            let mut population = synthetic_population(size);
            let mut scratch = SortScratch::new();
            b.iter(|| {
                fast_nondominated_sort_with(&mut population, &mut scratch);
                scratch.num_fronts()
            });
        });
    }
    group.finish();
}

fn bench_crowding(c: &mut Criterion) {
    let mut group = c.benchmark_group("crowding_assignment");
    group.sample_size(20);
    for &size in &[100usize, 200, 400] {
        group.bench_with_input(BenchmarkId::new("alloc", size), &size, |b, &size| {
            let mut population = synthetic_population(size);
            let fronts = fast_nondominated_sort(&mut population);
            b.iter(|| {
                for front in &fronts {
                    assign_crowding_distance(&mut population, front);
                }
                population.len()
            });
        });
        group.bench_with_input(BenchmarkId::new("scratch", size), &size, |b, &size| {
            let mut population = synthetic_population(size);
            let mut scratch = SortScratch::new();
            fast_nondominated_sort_with(&mut population, &mut scratch);
            b.iter(|| {
                scratch.assign_crowding(&mut population);
                population.len()
            });
        });
    }
    group.finish();
}

/// Both islands' populations of an evolved `leaf-analytic` archipelago.
fn evolved_leaf_population(generations: usize) -> Vec<Individual> {
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    let archipelago = Archipelago::new(
        ArchipelagoSpec {
            island: Nsga2Spec {
                population: 100,
                ..Default::default()
            },
            migration_interval: 10,
            ..Default::default()
        },
        1,
    );
    let mut driver =
        Driver::new(archipelago, &problem).with_stopping(StoppingRule::MaxGenerations(generations));
    driver.run();
    driver.optimizer().population()
}

fn bench_selection(c: &mut Criterion) {
    let (generations, sample_size) = profile();
    let mut population = evolved_leaf_population(generations);
    let mut scratch = SortScratch::new();
    let mut group = c.benchmark_group("selection");
    group.sample_size(sample_size);
    group.bench_function(BenchmarkId::new("leaf_island", population.len()), |b| {
        b.iter(|| {
            fast_nondominated_sort_with(&mut population, &mut scratch);
            scratch.assign_crowding(&mut population);
            scratch.select_survivors(&population, 100).len()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sort, bench_crowding, bench_selection);
criterion_main!(benches);

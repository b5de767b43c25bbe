//! Hypervolume indicator cost versus front size, in 2 and 3 dimensions, and
//! the per-generation front extraction of the `leaf-analytic` shape.
//!
//! `front_extraction/2x100` evolves a two-island archipelago of 100 leaf
//! designs (23 genes each) and then times what an observed generation adds:
//! merging the islands' rank-0 members into one front, and that front's
//! hypervolume.
//!
//! Set `PATHWAY_BENCH_PROFILE=quick` (CI does) for smaller fronts, a shorter
//! evolution and fewer samples that still exercise every code path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_core::LeafRedesignProblem;
use pathway_moo::engine::{Driver, StoppingRule};
use pathway_moo::metrics::hypervolume;
use pathway_moo::{Archipelago, ArchipelagoSpec, Nsga2Spec};
use pathway_photosynthesis::Scenario;

/// `(front sizes, generations evolved before timing the front, sample_size)`
/// — reduced under `PATHWAY_BENCH_PROFILE=quick`.
fn profile() -> (&'static [usize], usize, usize) {
    match std::env::var("PATHWAY_BENCH_PROFILE").as_deref() {
        Ok("quick") => (&[100], 20, 5),
        _ => (&[100, 400, 800], 150, 20),
    }
}

fn synthetic_front_2d(size: usize) -> Vec<Vec<f64>> {
    (0..size)
        .map(|i| {
            let f1 = i as f64 / size as f64;
            vec![f1, 1.0 - f1.sqrt()]
        })
        .collect()
}

fn synthetic_front_3d(size: usize) -> Vec<Vec<f64>> {
    (0..size)
        .map(|i| {
            let t = i as f64 / size as f64;
            let phi = t * std::f64::consts::FRAC_PI_2;
            vec![phi.cos() * 0.9, phi.sin() * 0.9, t]
        })
        .collect()
}

fn bench_hypervolume(c: &mut Criterion) {
    let (sizes, _, sample_size) = profile();
    let mut group = c.benchmark_group("hypervolume");
    group.sample_size(sample_size);
    for &size in sizes {
        let front2 = synthetic_front_2d(size);
        group.bench_with_input(BenchmarkId::new("2d", size), &front2, |b, front| {
            b.iter(|| hypervolume(front, &[1.1, 1.1]));
        });
        let front3 = synthetic_front_3d(size);
        group.bench_with_input(BenchmarkId::new("3d", size), &front3, |b, front| {
            b.iter(|| hypervolume(front, &[1.1, 1.1, 1.1]));
        });
    }
    group.finish();
}

fn bench_front_extraction(c: &mut Criterion) {
    let (_, generations, sample_size) = profile();
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
    // Table 1's reference point for the leaf objectives (-uptake, nitrogen).
    let reference = [0.0, 833_320.0];
    let mut group = c.benchmark_group("front_extraction");
    group.sample_size(sample_size);
    group.bench_function("2x100", |b| {
        b.iter(|| {
            let front = driver.front();
            let objectives: Vec<&[f64]> = front.iter().map(|i| i.objectives.as_slice()).collect();
            hypervolume(&objectives, &reference)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_hypervolume, bench_front_extraction);
criterion_main!(benches);

//! Cost of a single NSGA-II generation on the leaf-redesign problem as a
//! function of the population size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_core::prelude::*;

fn bench_nsga2_generation(c: &mut Criterion) {
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    let mut group = c.benchmark_group("nsga2_generation");
    group.sample_size(10);
    for &population in &[25usize, 50, 100] {
        group.bench_with_input(
            BenchmarkId::from_parameter(population),
            &population,
            |b, &population| {
                b.iter(|| {
                    let mut solver = Nsga2::new(
                        Nsga2Spec {
                            population,
                            ..Default::default()
                        },
                        7,
                    );
                    solver.initialize(&problem);
                    solver.step(&problem);
                    solver.population().len()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_nsga2_generation);
criterion_main!(benches);

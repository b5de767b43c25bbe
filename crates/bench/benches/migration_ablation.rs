//! Migration ablation: quality (hypervolume) and cost of PMO2 with broadcast
//! migration, ring migration and no migration at all, at a fixed budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_core::prelude::*;
use pathway_moo::metrics::hypervolume;

fn run_with_topology(topology: MigrationTopology, problem: &LeafRedesignProblem) -> f64 {
    let spec = ArchipelagoSpec {
        islands: 2,
        island: Nsga2Spec {
            population: 24,
            ..Default::default()
        },
        migration_interval: 10,
        migration_probability: 0.5,
        topology,
    };
    let front = Driver::new(Archipelago::new(spec, 5), problem)
        .with_stopping(StoppingRule::MaxGenerations(30))
        .run();
    let matrix: Vec<Vec<f64>> = front.iter().map(|i| i.objectives.clone()).collect();
    let normalized: Vec<Vec<f64>> = matrix
        .iter()
        .map(|p| {
            vec![
                p[0] / 45.0 + 1.0,
                p[1] / (4.0 * EnzymePartition::NATURAL_NITROGEN),
            ]
        })
        .collect();
    hypervolume(&normalized, &[1.0, 1.0])
}

fn bench_migration_ablation(c: &mut Criterion) {
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    let mut group = c.benchmark_group("migration_ablation");
    group.sample_size(10);
    for (name, topology) in [
        ("broadcast", MigrationTopology::Broadcast),
        ("ring", MigrationTopology::Ring),
        ("isolated", MigrationTopology::Isolated),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &topology,
            |b, &topology| {
                b.iter(|| run_with_topology(topology, &problem));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_migration_ablation);
criterion_main!(benches);

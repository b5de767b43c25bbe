//! PMO2 time versus island count (1, 2, 4) at a fixed per-island budget, on
//! the serial executor and on a two-lane pool.
//!
//! Every generation the islands breed as one executor task each and all of
//! their offspring are evaluated in one batch, so islands run in parallel
//! only through a pooled executor: `serial/<islands>` runs them one after
//! another on the calling thread, `threads2/<islands>` spreads breeding and
//! evaluation over two lanes. Each backend's executor is built once and
//! reused by every sample.
//!
//! Set `PATHWAY_BENCH_PROFILE=quick` (CI does) for smaller islands, a
//! shorter evolution and fewer samples that still exercise every code path.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_core::prelude::*;

/// `(population per island, generations, sample_size)` — reduced under
/// `PATHWAY_BENCH_PROFILE=quick`.
fn profile() -> (usize, usize, usize) {
    match std::env::var("PATHWAY_BENCH_PROFILE").as_deref() {
        Ok("quick") => (24, 10, 5),
        _ => (100, 40, 10),
    }
}

fn bench_archipelago_scaling(c: &mut Criterion) {
    let (population, generations, sample_size) = profile();
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    let mut group = c.benchmark_group("archipelago_scaling");
    group.sample_size(sample_size);
    for (name, backend) in [
        ("serial", EvalBackend::Serial),
        ("threads2", EvalBackend::Threads(2)),
    ] {
        let executor = Arc::new(Executor::new(backend));
        for islands in [1usize, 2, 4] {
            group.bench_with_input(BenchmarkId::new(name, islands), &islands, |b, &islands| {
                b.iter(|| {
                    let spec = ArchipelagoSpec {
                        islands,
                        island: Nsga2Spec {
                            population,
                            ..Default::default()
                        },
                        migration_interval: 10,
                        migration_probability: 0.5,
                        topology: MigrationTopology::Broadcast,
                    };
                    let mut archipelago = Archipelago::new(spec, 3);
                    archipelago.set_executor(Arc::clone(&executor));
                    Driver::new(archipelago, &problem)
                        .with_stopping(StoppingRule::MaxGenerations(generations))
                        .run()
                        .len()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_archipelago_scaling);
criterion_main!(benches);

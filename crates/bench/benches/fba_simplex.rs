//! Flux balance analysis solve time versus synthetic Geobacter model size.
//!
//! `max_biomass` times one solve. `set_up_pair` times the two solves the
//! Geobacter problem makes at set-up (maximum biomass and maximum electron
//! production): `shared` is one `maximize_reactions` call, which runs the
//! simplex phase 1 once for both objectives; `separate` is two
//! `maximize_reaction` calls. Both return bit-identical optima, so `shared`
//! should cost about one phase 1 less than `separate`.
//!
//! Set `PATHWAY_BENCH_PROFILE=quick` (CI does) for smaller models and fewer
//! samples that still exercise every code path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_fba::geobacter::GeobacterModel;
use pathway_fba::FluxBalanceAnalysis;

/// `(reaction counts, sample_size)` — up to paper scale by default, reduced
/// under `PATHWAY_BENCH_PROFILE=quick`.
fn profile() -> (&'static [usize], usize) {
    match std::env::var("PATHWAY_BENCH_PROFILE").as_deref() {
        Ok("quick") => (&[152, 304], 3),
        _ => (&[152, 304, 608], 10),
    }
}

fn bench_fba(c: &mut Criterion) {
    let (sizes, sample_size) = profile();
    let mut group = c.benchmark_group("fba_simplex");
    group.sample_size(sample_size);
    for &reactions in sizes {
        let model = GeobacterModel::builder().reactions(reactions).build();
        let fba = FluxBalanceAnalysis::new(model.model());
        let objectives = [model.biomass_reaction(), model.electron_reaction()];
        group.bench_function(BenchmarkId::new("max_biomass", reactions), |b| {
            b.iter(|| {
                model
                    .max_biomass()
                    .expect("biomass FBA is feasible")
                    .objective_value
            });
        });
        group.bench_function(BenchmarkId::new("set_up_pair/shared", reactions), |b| {
            b.iter(|| {
                fba.maximize_reactions(&objectives)
                    .expect("both FBA objectives are feasible")
            });
        });
        group.bench_function(BenchmarkId::new("set_up_pair/separate", reactions), |b| {
            b.iter(|| {
                objectives.map(|reaction| {
                    fba.maximize_reaction(reaction)
                        .expect("both FBA objectives are feasible")
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fba);
criterion_main!(benches);

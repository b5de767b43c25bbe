//! Cost of one photosynthesis uptake evaluation: the fast analytic
//! steady-state model versus the full ODE steady-state solve (fast preset).

use criterion::{criterion_group, criterion_main, Criterion};
use pathway_photosynthesis::{EnzymePartition, OdeUptakeEvaluator, Scenario, UptakeModel};

fn bench_uptake_evaluation(c: &mut Criterion) {
    let natural = EnzymePartition::natural();
    let scenario = Scenario::present_low_export();

    let mut group = c.benchmark_group("uptake_evaluation");
    group.sample_size(20);
    group.bench_function("analytic_steady_state", |b| {
        let model = UptakeModel::new();
        b.iter(|| model.co2_uptake(&natural, &scenario));
    });
    group.bench_function("ode_steady_state_fast", |b| {
        let evaluator = OdeUptakeEvaluator::fast();
        b.iter(|| evaluator.co2_uptake(&natural, &scenario).expect("settles"));
    });
    group.finish();
}

criterion_group!(benches, bench_uptake_evaluation);
criterion_main!(benches);

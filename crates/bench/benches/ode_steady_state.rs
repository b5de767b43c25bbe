//! Cost of one photosynthesis uptake evaluation: the fast analytic
//! steady-state model versus the full ODE steady-state solve (fast preset),
//! and the ODE's Newton step in its two forms: the Calvin-cycle model's
//! exact structured Jacobian `S + u·gᵀ` (closed-form partials in one pass,
//! Sherman–Morrison over a static-pivot sparse LU in minimum-fill order,
//! compiled to straight-line code in `pathway-photosynthesis`)
//! against the dense forward-difference Jacobian with a partial-pivoting
//! LU, both for one step and for a whole cold-start solve. The
//! `batch_of_8` group times one executor chunk of eight cold designs, a
//! skewed mix, through the ODE leaf oracle's lane-batched `evaluate_batch`
//! (four designs per Newton step on a CPU with AVX2, two otherwise),
//! through its two-lane instance, and through eight `evaluate` calls.

use criterion::{criterion_group, criterion_main, Criterion};
use pathway_core::OdeLeafRedesignProblem;
use pathway_linalg::{LuDecomposition, Matrix, Vector};
use pathway_moo::MultiObjectiveProblem;
use pathway_ode::{Jacobian, OdeSystem, PseudoTransient};
use pathway_photosynthesis::{
    CalvinCycleOde, EnzymeKind, EnzymePartition, OdeUptakeEvaluator, Scenario, UptakeModel,
    POOL_COUNT,
};

/// The Calvin-cycle model without its Jacobian hook: the solver falls back
/// to the dense forward-difference default.
struct DenseJacobian<'a>(&'a CalvinCycleOde);

impl OdeSystem for DenseJacobian<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn rhs(&self, t: f64, y: &Vector, dydt: &mut Vector) {
        self.0.rhs(t, y, dydt);
    }
    fn project(&self, t: f64, y: &mut Vector) {
        self.0.project(t, y);
    }
}

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
    group.bench_function("ode_steady_state_fast_dense_jacobian", |b| {
        // The solver settings of `OdeUptakeEvaluator::fast`.
        let solver = PseudoTransient::new(0.1, 1e-8, 400);
        let model = CalvinCycleOde::new(&natural, &scenario);
        b.iter(|| {
            solver
                .solve(&DenseJacobian(&model), model.initial_state())
                .expect("settles")
        });
    });
    group.finish();
}

/// One Newton step `(I/dt − J) δ = f` at the natural leaf's cold-start
/// state, Jacobian included, at `dt = 1`.
fn bench_newton_step(c: &mut Criterion) {
    let model = CalvinCycleOde::new(&EnzymePartition::natural(), &Scenario::present_low_export());
    let y = model.initial_state();
    let mut f = Vector::zeros(POOL_COUNT);
    model.rhs(0.0, &y, &mut f);
    let mut delta = Vector::zeros(POOL_COUNT);

    let mut group = c.benchmark_group("newton_step");
    group.sample_size(20);
    group.bench_function("structured_sherman_morrison", |b| {
        let mut jacobian = Jacobian::new(POOL_COUNT);
        b.iter(|| {
            model.jacobian(0.0, &y, &f, &mut jacobian);
            let structured = jacobian
                .as_sparse_plus_rank_one_mut()
                .expect("the model's hook fills the structured form");
            assert!(structured.solve(1.0, &f, &mut delta), "static pivots hold");
        });
    });
    group.bench_function("dense_partial_pivoting", |b| {
        let mut jacobian = Jacobian::new(POOL_COUNT);
        let mut newton = Matrix::zeros(POOL_COUNT, POOL_COUNT);
        let mut lu = LuDecomposition::new(&Matrix::identity(POOL_COUNT)).expect("identity");
        b.iter(|| {
            jacobian.difference_dense(&model, 0.0, &y, &f);
            jacobian.assemble(1.0, 1.0, &mut newton);
            lu.refactor(&newton).expect("nonsingular");
            lu.solve_into(&f, &mut delta).expect("factored");
        });
    });
    group.finish();
}

/// Eight cold designs whose solves take from 14 to about 165 steps: one
/// executor chunk (`CLAIM_BLOCK`) of the leaf search.
fn skewed_eight() -> Vec<EnzymePartition> {
    let natural = EnzymePartition::natural();
    vec![
        natural.scaled(0.05),
        natural.scaled(3.5),
        natural.clone(),
        natural.scaled(1.3),
        natural.scaled(0.3),
        natural.with_scaled(EnzymeKind::Rubisco, 0.1),
        natural.scaled(2.0),
        natural.scaled(1.2),
    ]
}

fn bench_batch_of_8(c: &mut Criterion) {
    let scenario = Scenario::present_low_export();
    let partitions = skewed_eight();
    let xs: Vec<Vec<f64>> = partitions
        .iter()
        .map(|partition| partition.capacities().to_vec())
        .collect();
    let problem = OdeLeafRedesignProblem::new(scenario);

    let mut group = c.benchmark_group("batch_of_8");
    group.sample_size(20);
    group.bench_function("evaluate_batch", |b| {
        b.iter(|| problem.evaluate_batch(&xs));
    });
    group.bench_function("two_lanes", |b| {
        let evaluator = OdeUptakeEvaluator::fast();
        b.iter(|| {
            evaluator
                .steady_states_in_lanes(&partitions, &scenario, 2)
                .expect("every CPU runs two lanes")
        });
    });
    group.bench_function("evaluate_each", |b| {
        b.iter(|| xs.iter().map(|x| problem.evaluate(x)).collect::<Vec<_>>());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_uptake_evaluation,
    bench_newton_step,
    bench_batch_of_8
);
criterion_main!(benches);

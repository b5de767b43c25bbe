//! The Calvin-cycle model's structured Newton step, pinned against the dense
//! path it replaces in [`pathway_ode::PseudoTransient`]:
//!
//! * its exact Jacobian `S + u·gᵀ` against central differences of the
//!   right-hand side, and its sparsity pattern against every non-zero those
//!   differences find;
//! * the Sherman–Morrison step against a dense partial-pivoting LU of the
//!   same assembled matrix;
//! * the pattern's minimum-fill LU and the right-hand-side calls one
//!   accepted step costs;
//! * the steady uptake over random designs of the search box against the
//!   solve with the dense forward-difference Jacobian.
//!
//! The states cover both branches of the bistable range (1.2x–1.3x
//! natural), pools clamped to exactly 0, and free phosphate on its floor.

use pathway_linalg::{LuDecomposition, Matrix, Vector};
use pathway_ode::{BackwardEuler, Jacobian, OdeSystem, PseudoTransient};
use pathway_photosynthesis::{
    CalvinCycleOde, EnzymeKind, EnzymePartition, MetabolitePool, OdeError, OdeUptakeEvaluator,
    Scenario, POOL_COUNT,
};

/// A tiny deterministic generator of uniforms in `[0, 1)`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The model of each design and the states its Jacobian is checked at: 72
/// in all. Each design contributes its cold-start state, a transient state
/// (a 2 s backward-Euler march) and its steady state, plus three random
/// perturbations of those: one with two pools clamped to exactly 0, one
/// with every phosphate-carrying pool scaled until free phosphate sits on
/// its floor, one plain.
fn models_and_states() -> Vec<(&'static str, CalvinCycleOde, Vec<Vector>)> {
    let scenario = Scenario::present_low_export();
    let natural = EnzymePartition::natural();
    let evaluator = OdeUptakeEvaluator::fast();
    let designs = [
        ("natural (low branch)", natural.clone()),
        ("1.2x (low branch)", natural.scaled(1.2)),
        ("1.3x (high branch)", natural.scaled(1.3)),
        ("0.3x", natural.scaled(0.3)),
        ("3.5x", natural.scaled(3.5)),
        ("Rubisco 10%", natural.with_scaled(EnzymeKind::Rubisco, 0.1)),
    ];
    let mut rng = Lcg(2011);
    designs
        .into_iter()
        .map(|(name, design)| {
            let model = CalvinCycleOde::new(&design, &scenario);
            let (steady, _) = evaluator
                .steady_state(&design, &scenario)
                .expect("the design settles");
            let transient = BackwardEuler::new(0.01)
                .integrate(&model, 0.0, model.initial_state(), 2.0)
                .unwrap_or_else(|e| panic!("{name}: the march fails: {e}"))
                .state;
            let mut states = vec![model.initial_state(), transient, steady.state];
            for base in states.clone() {
                let jitter = |rng: &mut Lcg| -> Vector {
                    base.iter().map(|&c| c * (0.8 + 0.4 * rng.next())).collect()
                };
                let mut zeroed = jitter(&mut rng);
                zeroed[(rng.next() * POOL_COUNT as f64) as usize] = 0.0;
                zeroed[(rng.next() * POOL_COUNT as f64) as usize] = 0.0;
                let mut floored = jitter(&mut rng);
                for pool in MetabolitePool::ALL {
                    if pool.phosphate_groups() > 0.0 {
                        floored[pool.index()] = floored[pool.index()] * 3.0 + 2.0;
                    }
                }
                states.extend([zeroed, floored, jitter(&mut rng)]);
            }
            (name, model, states)
        })
        .collect()
}

fn rhs(model: &CalvinCycleOde, y: &Vector) -> Vector {
    let mut f = Vector::zeros(POOL_COUNT);
    model.rhs(0.0, y, &mut f);
    f
}

/// The Jacobian `S + u·gᵀ` the model's hook fills, assembled densely.
fn structured(model: &CalvinCycleOde, y: &Vector, f: &Vector) -> (Jacobian, Matrix) {
    let mut jacobian = Jacobian::new(POOL_COUNT);
    model.jacobian(0.0, y, f, &mut jacobian);
    let mut j = Matrix::zeros(POOL_COUNT, POOL_COUNT);
    jacobian.assemble(0.0, -1.0, &mut j);
    (jacobian, j)
}

/// Column `col` of the Jacobian by central differences with step
/// `h = 1e-5 · (1 + |y_j|)`. Where `y_j < h` the column is the one-sided
/// second-order difference `(−3f(y) + 4f(y + h) − f(y + 2h)) / 2h`
/// instead, which never straddles the clamp at 0: the right derivative, as
/// the exact Jacobian takes it there.
fn difference_column(model: &CalvinCycleOde, y: &Vector, col: usize) -> Vector {
    let h = 1e-5 * (1.0 + y[col].abs());
    let at = |offset: f64| {
        let mut moved = y.clone();
        moved[col] = y[col] + offset;
        rhs(model, &moved)
    };
    let (ahead, behind) = (at(h), at(-h));
    let (base, ahead2) = (rhs(model, y), at(2.0 * h));
    (0..POOL_COUNT)
        .map(|row| {
            if y[col] < h {
                (4.0 * (ahead[row] - base[row]) - (ahead2[row] - base[row])) / (2.0 * h)
            } else {
                (ahead[row] - behind[row]) / (2.0 * h)
            }
        })
        .collect()
}

/// The exact `S + u·gᵀ` agrees with central differences of the right-hand
/// side entry by entry to `1e-6 · (1 + |J_ij|)` (measured worst case
/// 2.3e-7, the differences' own truncation error), and every non-zero the differences find lies in the pattern of
/// `S` or in the rank-one block. (The forward difference with `h = 1e-7`
/// that the model used before is itself off by 2e-5 at (18, 23), the
/// cytosolic FBPase's F2,6BP inhibition, far beyond this tolerance.)
#[test]
fn exact_jacobian_matches_central_differences() {
    let pattern = CalvinCycleOde::jacobian_pattern();
    let mut checked = 0;
    let mut floored = 0;
    for (name, model, states) in models_and_states() {
        for (k, y) in states.iter().enumerate() {
            let f = rhs(&model, y);
            let (mut jacobian, j) = structured(&model, y, &f);
            let (_, u, g) = jacobian
                .as_sparse_plus_rank_one_mut()
                .expect("the hook fills the structured form")
                .parts_mut();
            if g.iter().all(|&gj| gj == 0.0) {
                floored += 1;
            }
            for col in 0..POOL_COUNT {
                let column = difference_column(&model, y, col);
                for row in 0..POOL_COUNT {
                    let (expected, found) = (column[row], j[(row, col)]);
                    let error = (expected - found).abs() / (1.0 + expected.abs());
                    assert!(
                        error <= 1e-6,
                        "{name} state {k} entry ({row}, {col}): central {expected} vs {found}"
                    );
                    assert!(
                        expected == 0.0
                            || pattern.slot(row, col).is_some()
                            || (u[row] != 0.0 && g[col] != 0.0),
                        "{name} state {k}: non-zero ({row}, {col}) outside the pattern"
                    );
                }
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 72);
    assert!(floored >= 18, "free phosphate floored at {floored} states");
}

/// The Sherman–Morrison step agrees with a dense partial-pivoting LU of the
/// same assembled matrix `I/dt − S − u·gᵀ` to `1e-11` relative in the max
/// norm (measured worst case 1.3e-13), for `dt` from 0.1 to 1e6 at every
/// state, and its static pivots hold at every one.
#[test]
fn sherman_morrison_step_matches_dense_lu_of_the_assembled_matrix() {
    for (name, model, states) in models_and_states() {
        for (k, y) in states.iter().enumerate() {
            let f = rhs(&model, y);
            let (mut jacobian, _) = structured(&model, y, &f);
            for dt in [0.1, 1.0, 1e2, 1e6] {
                let mut newton = Matrix::zeros(POOL_COUNT, POOL_COUNT);
                jacobian.assemble(1.0 / dt, 1.0, &mut newton);
                let dense = LuDecomposition::new(&newton)
                    .and_then(|lu| lu.solve(&f))
                    .expect("the Newton matrix is nonsingular");
                let mut delta = Vector::zeros(POOL_COUNT);
                let held = jacobian
                    .as_sparse_plus_rank_one_mut()
                    .expect("structured form")
                    .solve(1.0 / dt, &f, &mut delta);
                assert!(held, "{name} state {k} dt {dt}: static pivots degraded");
                let error = delta
                    .iter()
                    .zip(dense.iter())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                assert!(
                    error <= 1e-11 * dense.norm_inf(),
                    "{name} state {k} dt {dt}: error {error:e} against {:e}",
                    dense.norm_inf()
                );
            }
        }
    }
}

/// The pattern, its minimum-fill LU, and what one accepted step costs: the
/// exact Jacobian makes no right-hand-side call, so a solve without
/// rejections makes `1 + steps` of them, the initial residual and one trial
/// per step (25 per step plus one with the dense Jacobian).
#[test]
fn every_accepted_step_costs_one_rhs_call() {
    let pattern = CalvinCycleOde::jacobian_pattern();
    assert_eq!(pattern.nnz(), 63);
    // In state-vector order the LU had 117 non-zeros and 123 updates.
    assert_eq!(pattern.lu_nnz(), 74);
    assert_eq!(pattern.update_flops(), 24);

    let scenario = Scenario::present_low_export();
    let natural = EnzymePartition::natural();
    for factor in [1.0, 1.3, 0.3] {
        let (steady, _) = OdeUptakeEvaluator::fast()
            .steady_state(&natural.scaled(factor), &scenario)
            .expect("settles");
        let stats = steady.stats;
        assert_eq!(stats.steps_rejected, 0, "{factor}x: {stats:?}");
        assert_eq!(stats.jacobian_evaluations, stats.steps_accepted);
        assert_eq!(stats.dense_fallbacks, 0, "{factor}x: {stats:?}");
        assert_eq!(
            stats.rhs_evaluations,
            1 + stats.steps_accepted,
            "{factor}x: {stats:?}"
        );
    }
}

/// The Calvin-cycle model without its Jacobian hook: the solver falls back
/// to the dense forward-difference default.
struct DenseJacobian(CalvinCycleOde);

impl OdeSystem for DenseJacobian {
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

/// Over 3,000 random designs of the leaf problems' search box (every
/// enzyme uniform in 0.02x–4x natural), the oracle's steady uptake agrees
/// with the same solve on the dense forward-difference Jacobian to `2e-7`
/// relative (measured worst case 6.3e-8), and both leave the same
/// designs unsettled. The static pivots of the minimum-fill order hold at
/// every step of every solve: no dense fallback.
#[test]
fn steady_uptake_matches_the_dense_difference_jacobian_over_random_designs() {
    let scenario = Scenario::present_low_export();
    let evaluator = OdeUptakeEvaluator::fast();
    // The settings of `OdeUptakeEvaluator::fast`.
    let reference = PseudoTransient::new(0.1, 1e-8, 400);
    let bounds = EnzymePartition::bounds(0.02, 4.0);
    let mut rng = Lcg(26);
    let (mut unsettled, mut fallbacks) = (0, 0);
    for design in 0..3000 {
        let partition = EnzymePartition::new(
            bounds
                .iter()
                .map(|&(low, high)| low + (high - low) * rng.next())
                .collect(),
        );
        let exact = evaluator.steady_state(&partition, &scenario);
        fallbacks += match &exact {
            Ok((steady, _)) => steady.stats.dense_fallbacks,
            Err(OdeError::SteadyStateNotReached { stats, .. }) => stats.dense_fallbacks,
            Err(err) => panic!("design {design}: {err}"),
        };
        let model = DenseJacobian(CalvinCycleOde::new(&partition, &scenario));
        let dense = reference
            .solve(&model, model.0.initial_state())
            .map(|steady| model.0.net_uptake(&steady.state));
        match (exact, dense) {
            (Ok((_, exact)), Ok(dense)) => {
                let error = (exact - dense).abs() / dense.abs().max(1e-3);
                assert!(error <= 2e-7, "design {design}: {exact} vs {dense}");
            }
            (Err(_), Err(_)) => unsettled += 1,
            (exact, dense) => panic!("design {design}: {exact:?} vs {dense:?}"),
        }
    }
    assert_eq!(unsettled, 3, "the search box's unsettled designs");
    assert_eq!(fallbacks, 0);
}

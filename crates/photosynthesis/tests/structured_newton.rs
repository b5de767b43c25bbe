//! The Calvin-cycle model's structured Newton step, pinned against the dense
//! path it replaces in [`pathway_ode::PseudoTransient`]:
//!
//! * its Jacobian `S + u·gᵀ` against the full forward-difference Jacobian,
//!   and its sparsity pattern against every non-zero that Jacobian has;
//! * the Sherman–Morrison step against a dense partial-pivoting LU of the
//!   same assembled matrix;
//! * the right-hand-side calls one accepted step costs.
//!
//! The states cover both branches of the bistable range (1.2x–1.3x
//! natural), pools clamped to exactly 0, and free phosphate on its floor.

use pathway_linalg::{LuDecomposition, Matrix, Vector};
use pathway_ode::{BackwardEuler, Jacobian, OdeSystem};
use pathway_photosynthesis::{
    CalvinCycleOde, EnzymeKind, EnzymePartition, MetabolitePool, OdeUptakeEvaluator, Scenario,
    POOL_COUNT,
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

/// `S + u·gᵀ` agrees with the full forward-difference Jacobian entry by
/// entry to `1e-6 · (1 + |J_ij|)`, and every non-zero of the full Jacobian
/// lies in the pattern of `S` or in the rank-one block. Both difference
/// each pool with the same step, so they differ only in how the phosphate
/// dependence is differenced: the measured worst case is 2.7e-7, in the
/// RuBP column near the phosphate floor, where `Pi / (Pi + 1)` curves most.
#[test]
fn structured_jacobian_matches_full_forward_differences() {
    let pattern = CalvinCycleOde::jacobian_pattern();
    let mut checked = 0;
    let mut floored = 0;
    for (name, model, states) in models_and_states() {
        for (k, y) in states.iter().enumerate() {
            let f = rhs(&model, y);
            let mut dense = Jacobian::new(POOL_COUNT);
            dense.difference_dense(&model, 0.0, y, &f);
            let mut full = Matrix::zeros(POOL_COUNT, POOL_COUNT);
            dense.assemble(0.0, -1.0, &mut full);
            let (mut jacobian, j) = structured(&model, y, &f);
            let (u, g) = jacobian
                .as_sparse_plus_rank_one_mut()
                .expect("the hook fills the structured form")
                .rank_one_mut();
            if g.iter().all(|&gj| gj == 0.0) {
                floored += 1;
            }
            for row in 0..POOL_COUNT {
                for col in 0..POOL_COUNT {
                    let (expected, found) = (full[(row, col)], j[(row, col)]);
                    assert!(
                        (expected - found).abs() <= 1e-6 * (1.0 + expected.abs()),
                        "{name} state {k} entry ({row}, {col}): full {expected} vs {found}"
                    );
                    assert!(
                        expected == 0.0
                            || pattern.contains(row, col)
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
/// norm (measured worst case 2.1e-13), for `dt` from 0.1 to 1e6 at every
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

/// The pattern found by probing the model, and what one accepted step
/// costs: 5 column groups plus one phosphate difference for the Jacobian,
/// plus the trial, so a solve without rejections makes `1 + 7 · steps`
/// right-hand-side calls (25 per step plus one with the dense Jacobian).
#[test]
fn every_accepted_step_costs_seven_rhs_calls() {
    let pattern = CalvinCycleOde::jacobian_pattern();
    assert_eq!(pattern.nnz(), 63);
    assert_eq!(pattern.groups().len(), 5);
    assert_eq!(pattern.lu_nnz(), 117);
    assert_eq!(pattern.update_flops(), 123);

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
            1 + 7 * stats.steps_accepted,
            "{factor}x: {stats:?}"
        );
    }
}

//! The Calvin-cycle model's compiled static-pivot LU (`src/calvin_lu.rs`)
//! against the interpreter it was emitted from
//! (`JacobianPattern::interpret_factor` and `interpret_substitute`):
//!
//! * the committed file is the one the reactions emit now;
//! * on random `S`, `u`, `g` and right-hand sides, with diagonals from 1e-3
//!   to 1e3, the compiled factor (every `L + U` entry of its compact
//!   storage and every inverse pivot), both triangular solves and the
//!   whole Sherman–Morrison step equal the interpreter's bit for bit;
//! * both refuse the same factorizations: a pivot under `1e-13`, a
//!   multiplier above 100, a NaN;
//! * the kernel's 2- and 4-lane instances (the latter compiled for AVX2)
//!   give every lane the 1-lane instance's and the interpreter's result:
//!   the same refusal flag, and when the pivots hold, the same bits, with
//!   other lanes refusing or not.

use std::io::Write;

use pathway_linalg::Vector;
use pathway_ode::{Jacobian, JacobianPattern, LaneLu};
use pathway_photosynthesis::{CalvinCycleOde, CalvinLu, POOL_COUNT};
use proptest::prelude::*;

/// The command the drift test names, as the file's header quotes it.
const REGENERATE: &str = "cargo run -p pathway-photosynthesis --example emit_calvin_lu";

#[test]
fn the_committed_kernel_is_the_one_the_reactions_emit() {
    let committed = include_str!("../src/calvin_lu.rs");
    assert!(
        committed.contains(REGENERATE),
        "the header names the command"
    );
    assert!(
        CalvinCycleOde::emit_compiled_lu() == committed,
        "src/calvin_lu.rs is stale (the reactions or the emitter changed): \
         regenerate it with `{REGENERATE}`"
    );
}

fn pattern() -> &'static JacobianPattern {
    let pattern = CalvinCycleOde::jacobian_pattern();
    assert!(pattern.compiled_lu().is_some(), "the kernel is attached");
    pattern
}

/// One factorization and solve pair: whether the pivots held, and the bits
/// of the LU storage, the inverse pivots and both solutions when they did.
#[derive(Debug, PartialEq)]
enum Outcome {
    Refused,
    Held {
        lu: Vec<u64>,
        inverse_pivots: Vec<u64>,
        a: Vec<u64>,
        b: Vec<u64>,
    },
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Factors `diagonal·I − S` and solves for `a` and `b`, compiled or
/// interpreted.
fn run(compiled: bool, diagonal: f64, values: &[f64], a: &[f64], b: &[f64]) -> Outcome {
    let pattern = pattern();
    let kernel = pattern.compiled_lu().expect("attached");
    let positions = pattern.lu_positions();
    let mut lu = vec![0.0; POOL_COUNT * POOL_COUNT];
    let mut compact = vec![0.0; positions.len()];
    let mut inverse_pivots = vec![0.0; POOL_COUNT];
    let held = if compiled {
        (kernel.factor)(diagonal, values, &mut compact, &mut inverse_pivots)
    } else {
        pattern.interpret_factor(diagonal, values, &mut lu, &mut inverse_pivots)
    };
    if !held {
        return Outcome::Refused;
    }
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    if compiled {
        (kernel.substitute)(&compact, &inverse_pivots, &mut a, &mut b);
    } else {
        pattern.interpret_substitute(&lu, &inverse_pivots, &mut a, &mut b);
        compact = positions.iter().map(|&p| lu[p]).collect();
    }
    Outcome::Held {
        lu: bits(&compact),
        inverse_pivots: bits(&inverse_pivots),
        a: bits(&a),
        b: bits(&b),
    }
}

/// Random inputs: every value of `S` log-uniform in magnitude over
/// 1e-3..1e3 with a random sign (the diagonal negative, as a decaying
/// pool's is), `u`, `g` and the right-hand side likewise.
struct Inputs {
    values: Vec<f64>,
    u: Vec<f64>,
    g: Vec<f64>,
    rhs: Vec<f64>,
}

impl Inputs {
    fn draw(seed: u64) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut signed = move || {
            let word = next();
            let unit = (word >> 11) as f64 / (1u64 << 53) as f64;
            let magnitude = 10f64.powf(6.0 * unit - 3.0);
            if word & 1 == 0 {
                magnitude
            } else {
                -magnitude
            }
        };
        let pattern = pattern();
        let mut values: Vec<f64> = (0..pattern.nnz()).map(|_| signed()).collect();
        for i in 0..POOL_COUNT {
            let slot = pattern.slot(i, i).expect("the diagonal is in the pattern");
            values[slot] = -values[slot].abs();
        }
        let mut vector = || (0..POOL_COUNT).map(|_| signed()).collect::<Vec<f64>>();
        Inputs {
            values,
            u: vector(),
            g: vector(),
            rhs: vector(),
        }
    }

    fn run(&self, compiled: bool, diagonal: f64) -> Outcome {
        run(compiled, diagonal, &self.values, &self.u, &self.rhs)
    }

    /// Makes the factorization at `diagonal` fail a check, by `poison`: 1
    /// a pivot that starts at exactly zero, 2 an off-diagonal entry large
    /// enough to make its multiplier, if it is one, exceed 100, 3 a NaN
    /// anywhere in `S`; 0 leaves the inputs as they are.
    fn poison(&mut self, poison: usize, at: usize, diagonal: f64) {
        let pattern = pattern();
        match poison {
            1 => {
                let slot = pattern.slot(at % POOL_COUNT, at % POOL_COUNT).unwrap();
                self.values[slot] = diagonal;
            }
            2 => {
                let slots = off_diagonal_slots();
                self.values[slots[at % slots.len()]] *= 1e5;
            }
            3 => self.values[at % pattern.nnz()] = f64::NAN,
            _ => {}
        }
    }
}

/// Factors and solves `L` inputs at once, one per lane, through the
/// kernel's `L`-lane instance: each lane's outcome.
#[inline(always)]
fn run_lanes<const L: usize>(inputs: &[Inputs], diagonals: &[f64]) -> Vec<Outcome> {
    let lane = |x: &dyn Fn(&Inputs) -> &[f64], n: usize| -> Vec<[f64; L]> {
        (0..n)
            .map(|i| std::array::from_fn(|j| x(&inputs[j])[i]))
            .collect()
    };
    let values = lane(&|inputs| &inputs.values, pattern().nnz());
    let mut a = lane(&|inputs| &inputs.u, POOL_COUNT);
    let mut b = lane(&|inputs| &inputs.rhs, POOL_COUNT);
    let mut lu = vec![[0.0; L]; pattern().lu_nnz()];
    let mut inverse_pivots = vec![[0.0; L]; POOL_COUNT];
    let diagonal = std::array::from_fn(|j| diagonals[j]);
    let held = CalvinLu::factor(diagonal, &values, &mut lu, &mut inverse_pivots);
    CalvinLu::substitute(&lu, &inverse_pivots, &mut a, &mut b);
    let column = |x: &[[f64; L]], j: usize| bits(&x.iter().map(|x| x[j]).collect::<Vec<_>>());
    (0..L)
        .map(|j| match held[j] {
            false => Outcome::Refused,
            true => Outcome::Held {
                lu: column(&lu, j),
                inverse_pivots: column(&inverse_pivots, j),
                a: column(&a, j),
                b: column(&b, j),
            },
        })
        .collect()
}

/// The 4-lane instance compiled for AVX2, as the lane-batched solve runs it.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_four_lanes_avx2(inputs: &[Inputs], diagonals: &[f64]) -> Vec<Outcome> {
    run_lanes::<4>(inputs, diagonals)
}

/// Whether this CPU runs the AVX2 instance; if not, says so on stderr, past
/// the test harness's capture, so a skipped check does not read as a pass.
fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return true;
    }
    let _ = writeln!(
        std::io::stderr(),
        "compiled_lu: SKIPPED the 4-lane AVX2 instance: this CPU has no AVX2"
    );
    false
}

/// The off-diagonal slots of `S`.
fn off_diagonal_slots() -> Vec<usize> {
    let pattern = pattern();
    (0..POOL_COUNT)
        .flat_map(|i| {
            (0..POOL_COUNT)
                .filter(move |&j| j != i)
                .map(move |j| (i, j))
        })
        .filter_map(|(i, j)| pattern.slot(i, j))
        .collect()
}

/// `SparsePlusRankOne::solve` on the compiled pattern, against the
/// interpreter's `z` and `w` and the Sherman–Morrison correction written
/// out here: the same `δ` bits, or the same refusal.
fn assert_the_step_is_the_interpreters(inputs: &Inputs, diagonal: f64) {
    let pattern = pattern();
    let mut jacobian = Jacobian::new(POOL_COUNT);
    let structured = jacobian.sparse_plus_rank_one(pattern);
    let (values, u, g) = structured.parts_mut();
    values.copy_from_slice(&inputs.values);
    u.as_mut_slice().copy_from_slice(&inputs.u);
    g.as_mut_slice().copy_from_slice(&inputs.g);
    let rhs = Vector::from(inputs.rhs.clone());
    let mut delta = Vector::zeros(POOL_COUNT);
    let held = structured.solve(diagonal, &rhs, &mut delta);

    let expected = match inputs.run(false, diagonal) {
        Outcome::Refused => None,
        Outcome::Held { a, b, .. } => {
            let z = Vector::from(a.into_iter().map(f64::from_bits).collect::<Vec<_>>());
            let mut w = Vector::from(b.into_iter().map(f64::from_bits).collect::<Vec<_>>());
            let g = Vector::from(inputs.g.clone());
            let (gz, gw) = (g.dot(&z).unwrap(), g.dot(&w).unwrap());
            let denominator = 1.0 - gz;
            (denominator.is_finite() && denominator.abs() >= 1e-8 * gz.abs().max(1.0)).then(|| {
                let scale = gw / denominator;
                for (d, &z) in w.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    *d += scale * z;
                }
                bits(w.as_slice())
            })
        }
    };
    assert_eq!(held.then(|| bits(delta.as_slice())), expected);
}

proptest! {
    #[test]
    fn the_compiled_lu_is_the_interpreter_bit_for_bit(
        seed in 0u64..u64::MAX,
        log_diagonal in -3.0f64..3.0,
        poison in 0usize..4,
        at in 0usize..1_000,
    ) {
        let mut inputs = Inputs::draw(seed);
        let diagonal = 10f64.powf(log_diagonal);
        inputs.poison(poison, at, diagonal);
        let compiled = inputs.run(true, diagonal);
        prop_assert_eq!(&compiled, &inputs.run(false, diagonal));
        assert_the_step_is_the_interpreters(&inputs, diagonal);
    }

    /// Four lanes of independent inputs, each poisoned or not by its own
    /// two bits of `poisons`, so some lanes fail a check while others hold.
    #[test]
    fn every_lane_of_the_lane_kernel_is_the_scalar_one_bit_for_bit(
        seed in 0u64..u64::MAX,
        log_diagonal in -3.0f64..3.0,
        poisons in 0usize..256,
        at in 0usize..1_000,
    ) {
        let diagonals: Vec<f64> =
            (0..4).map(|j| 10f64.powf(log_diagonal + 0.5 * j as f64 - 0.75)).collect();
        let inputs: Vec<Inputs> = (0..4)
            .map(|j| {
                let mut inputs = Inputs::draw(seed.wrapping_add(j as u64));
                inputs.poison((poisons >> (2 * j)) & 3, at + 7 * j, diagonals[j]);
                inputs
            })
            .collect();
        let scalar: Vec<Outcome> = (0..4)
            .map(|j| {
                let one = inputs[j].run(true, diagonals[j]);
                assert_eq!(one, inputs[j].run(false, diagonals[j]), "lane {j}");
                one
            })
            .collect();
        prop_assert_eq!(&run_lanes::<2>(&inputs, &diagonals), &scalar[..2]);
        prop_assert_eq!(&run_lanes::<2>(&inputs[2..], &diagonals[2..]), &scalar[2..]);
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            // SAFETY: `avx2` found the feature on this CPU.
            let four = unsafe { run_four_lanes_avx2(&inputs, &diagonals) };
            prop_assert_eq!(&four, &scalar);
        }
        #[cfg(not(target_arch = "x86_64"))]
        avx2();
    }
}

/// Lanes that refuse and lanes that hold side by side, by construction:
/// the mixed case the proptest meets only by chance.
#[test]
fn a_lane_that_refuses_leaves_the_others_bit_for_bit() {
    let diagonals = [0.5, 2.0, 30.0, 400.0];
    let mut inputs: Vec<Inputs> = (0..4).map(|j| Inputs::draw(40 + j)).collect();
    // Every value small against the diagonal: every pivot and multiplier
    // holds, until a lane is poisoned.
    for inputs in &mut inputs {
        for value in &mut inputs.values {
            *value *= 1e-4;
        }
    }
    for poison in 1..4 {
        for refusing in 0..4 {
            let mut inputs: Vec<Inputs> = inputs
                .iter()
                .map(|inputs| Inputs {
                    values: inputs.values.clone(),
                    u: inputs.u.clone(),
                    g: inputs.g.clone(),
                    rhs: inputs.rhs.clone(),
                })
                .collect();
            // The first position where the poison makes the lane refuse
            // (a huge off-diagonal entry refuses only as a multiplier, a
            // zeroed pivot only if no update moves it off zero).
            let clean = Inputs {
                values: inputs[refusing].values.clone(),
                u: inputs[refusing].u.clone(),
                g: inputs[refusing].g.clone(),
                rhs: inputs[refusing].rhs.clone(),
            };
            (0..1_000)
                .find(|&at| {
                    let lane = &mut inputs[refusing];
                    lane.values.clone_from(&clean.values);
                    if poison == 2 {
                        let slots = off_diagonal_slots();
                        lane.values[slots[at % slots.len()]] = 1e9;
                    } else {
                        lane.poison(poison, at, diagonals[refusing]);
                    }
                    inputs[refusing].run(false, diagonals[refusing]) == Outcome::Refused
                })
                .expect("some position refuses");
            let scalar: Vec<Outcome> = (0..4).map(|j| inputs[j].run(true, diagonals[j])).collect();
            let refused: Vec<bool> = scalar.iter().map(|o| *o == Outcome::Refused).collect();
            assert_eq!(
                refused.iter().filter(|&&r| r).count(),
                1,
                "{poison} {refused:?}"
            );
            assert!(refused[refusing]);
            for (j, outcome) in scalar.iter().enumerate() {
                assert_eq!(outcome, &inputs[j].run(false, diagonals[j]));
            }
            assert_eq!(run_lanes::<2>(&inputs, &diagonals), scalar[..2]);
            assert_eq!(run_lanes::<2>(&inputs[2..], &diagonals[2..]), scalar[2..]);
            #[cfg(target_arch = "x86_64")]
            if avx2() {
                // SAFETY: `avx2` found the feature on this CPU.
                let four = unsafe { run_four_lanes_avx2(&inputs, &diagonals) };
                assert_eq!(four, scalar, "poison {poison} in lane {refusing}");
            }
        }
    }
}

/// Each refusal, constructed so it must happen, is the interpreter's too,
/// on both sides of its threshold.
#[test]
fn both_forms_refuse_the_same_factorizations() {
    let pattern = pattern();
    let zero = vec![0.0; POOL_COUNT];
    let ones = vec![1.0; POOL_COUNT];
    let agree = |diagonal: f64, values: &[f64]| {
        let compiled = run(true, diagonal, values, &ones, &zero);
        assert_eq!(compiled, run(false, diagonal, values, &ones, &zero));
        compiled != Outcome::Refused
    };
    // `S = −I`, shifted by `d = 0`: every pivot is 1.
    let mut identity = vec![0.0; pattern.nnz()];
    for i in 0..POOL_COUNT {
        identity[pattern.slot(i, i).unwrap()] = -1.0;
    }
    assert!(agree(0.0, &identity));

    // A pivot of `1 − S_ii` for each pool in turn: under `1e-13`, or just
    // above it. With `S` diagonal, no update reaches a pivot.
    for i in 0..POOL_COUNT {
        let slot = pattern.slot(i, i).unwrap();
        for (s, holds) in [(1.0, false), (1.0 - 5e-14, false), (1.0 - 2e-13, true)] {
            let mut values = identity.clone();
            values[slot] = s;
            assert_eq!(agree(1.0, &values), holds, "pool {i}, S_ii = {s}");
        }
    }

    // One off-diagonal entry `x` in turn: its multiplier, where it is one,
    // is `−x` against a unit pivot.
    let mut multipliers = 0;
    for slot in off_diagonal_slots() {
        let mut values = identity.clone();
        values[slot] = 100.0;
        assert!(agree(0.0, &values), "a multiplier of 100 holds");
        values[slot] = 100.5;
        if !agree(0.0, &values) {
            multipliers += 1;
        }
    }
    assert!(multipliers > 0, "some off-diagonal entry is a multiplier");

    // A NaN on the diagonal of `S`, or as the shift, reaches its pivot.
    for i in 0..POOL_COUNT {
        let mut values = identity.clone();
        values[pattern.slot(i, i).unwrap()] = f64::NAN;
        assert!(!agree(0.0, &values), "NaN at pool {i}");
    }
    assert!(!agree(f64::NAN, &identity));
}

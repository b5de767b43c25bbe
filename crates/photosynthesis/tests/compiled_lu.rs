//! The Calvin-cycle model's compiled static-pivot LU (`src/calvin_lu.rs`)
//! against the interpreter it was emitted from
//! (`JacobianPattern::interpret_factor` and `interpret_substitute`):
//!
//! * the committed file is the one the reactions emit now;
//! * on random `S`, `u`, `g` and right-hand sides, with diagonals from 1e-3
//!   to 1e3, the compiled factor (every `L + U` position and inverse
//!   pivot), both triangular solves and the whole Sherman–Morrison step
//!   equal the interpreter's bit for bit;
//! * both refuse the same factorizations: a pivot under `1e-13`, a
//!   multiplier above 100, a NaN.

use pathway_linalg::Vector;
use pathway_ode::{Jacobian, JacobianPattern};
use pathway_photosynthesis::{CalvinCycleOde, POOL_COUNT};
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
    let mut lu = vec![0.0; POOL_COUNT * POOL_COUNT];
    let mut inverse_pivots = vec![0.0; POOL_COUNT];
    let held = if compiled {
        (kernel.factor)(diagonal, values, &mut lu, &mut inverse_pivots)
    } else {
        pattern.interpret_factor(diagonal, values, &mut lu, &mut inverse_pivots)
    };
    if !held {
        return Outcome::Refused;
    }
    let (mut a, mut b) = (a.to_vec(), b.to_vec());
    if compiled {
        (kernel.substitute)(&lu, &inverse_pivots, &mut a, &mut b);
    } else {
        pattern.interpret_substitute(&lu, &inverse_pivots, &mut a, &mut b);
    }
    Outcome::Held {
        lu: bits(&lu),
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
        let pattern = pattern();
        match poison {
            // A pivot that starts at exactly zero.
            1 => {
                let slot = pattern.slot(at % POOL_COUNT, at % POOL_COUNT).unwrap();
                inputs.values[slot] = diagonal;
            }
            // An off-diagonal entry large enough to make its multiplier,
            // if it is one, exceed 100.
            2 => {
                let slots = off_diagonal_slots();
                inputs.values[slots[at % slots.len()]] *= 1e5;
            }
            // A NaN anywhere in `S`.
            3 => inputs.values[at % pattern.nnz()] = f64::NAN,
            _ => {}
        }
        let compiled = inputs.run(true, diagonal);
        prop_assert_eq!(&compiled, &inputs.run(false, diagonal));
        assert_the_step_is_the_interpreters(&inputs, diagonal);
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

//! Several independent solves of one system, stepped in lockstep: one solve
//! per element ("lane") of `[f64; L]`.
//!
//! Every operation here applies the scalar operation to each lane in turn,
//! in the scalar code's order. Rust never contracts a multiply and an add
//! into a fused one, so lane `j` of a result has the bits the scalar code
//! computes from lane `j` of its inputs, whatever `L` is and whichever
//! instruction set the lanes compile to. The scalar code is the `L = 1`
//! instance of the same functions.
//!
//! The compiled static-pivot LU ([`LaneLu`], emitted by
//! [`crate::JacobianPattern::emit_compiled_lu`]) is written in these
//! operations, and [`SparsePlusRankOneLanes`] solves `L` Newton systems
//! `(d·I − S − u·gᵀ) δ = r` with it. A check that fails in one lane (a
//! pivot, a multiplier, a Sherman–Morrison denominator) clears that lane's
//! flag in a mask and leaves the other lanes' results as they are.
//!
//! Everything here is `#[inline(always)]` and written as plain loops over
//! the lanes (no `array::map` or `array::from_fn`, whose closures may stay
//! out of line), so an instance called from a function compiled for a
//! wider instruction set is compiled for it too.

use std::marker::PhantomData;

use crate::JacobianPattern;

/// Smallest Sherman–Morrison denominator `|1 − gᵀz|` accepted, relative to
/// `max(1, |gᵀz|)`. Below it the rank-one correction cancels most of its
/// own digits, and the dense fallback is the accurate path.
const MIN_DENOMINATOR: f64 = 1e-8;

/// A numeric static-pivot LU compiled to straight-line code over `L` lanes:
/// what [`crate::JacobianPattern::emit_compiled_lu`] emits. Each function
/// runs the operations of [`JacobianPattern::interpret_factor`] and
/// [`JacobianPattern::interpret_substitute`] in their order, lane by lane,
/// so every lane's results are the interpreter's bit for bit.
/// [`crate::CompiledLu::of`] wraps the `L = 1` instance for the scalar
/// solve.
pub trait LaneLu {
    /// A digest of the symbolic LU the kernel was emitted from: the pivot
    /// order, every list of operations and the pivot thresholds.
    const FINGERPRINT: u64;

    /// Factors `diagonal·I − S` of every lane: the contract of
    /// [`JacobianPattern::interpret_factor`], with lane `j` of each slice
    /// one design's, and `lu` the compact storage of `L + U`
    /// ([`JacobianPattern::lu_positions`]). Returns, per lane, whether its
    /// pivots and multipliers held; a lane that failed a check is left
    /// unspecified.
    fn factor<const L: usize>(
        diagonal: [f64; L],
        values: &[[f64; L]],
        lu: &mut [[f64; L]],
        inverse_pivots: &mut [[f64; L]],
    ) -> [bool; L];

    /// Solves `L U x = a` and `L U x = b` in place in every lane: the
    /// contract of [`JacobianPattern::interpret_substitute`].
    fn substitute<const L: usize>(
        lu: &[[f64; L]],
        inverse_pivots: &[[f64; L]],
        a: &mut [[f64; L]],
        b: &mut [[f64; L]],
    );
}

/// `−a`, per lane.
#[inline(always)]
pub fn neg<const L: usize>(mut a: [f64; L]) -> [f64; L] {
    for a in &mut a {
        *a = -*a;
    }
    a
}

/// `a + b`, per lane.
#[inline(always)]
pub fn add<const L: usize>(mut a: [f64; L], b: [f64; L]) -> [f64; L] {
    for (a, b) in a.iter_mut().zip(b) {
        *a += b;
    }
    a
}

/// `a · b`, per lane.
#[inline(always)]
pub fn mul<const L: usize>(mut a: [f64; L], b: [f64; L]) -> [f64; L] {
    for (a, b) in a.iter_mut().zip(b) {
        *a *= b;
    }
    a
}

/// `1 / a`, per lane.
#[inline(always)]
pub fn recip<const L: usize>(mut a: [f64; L]) -> [f64; L] {
    for a in &mut a {
        *a = 1.0 / *a;
    }
    a
}

/// `a − b · c`, per lane: the update `a −= b · c`.
#[inline(always)]
pub fn sub_mul<const L: usize>(mut a: [f64; L], b: [f64; L], c: [f64; L]) -> [f64; L] {
    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
        *a -= b * c;
    }
    a
}

/// Clears `held[j]` where pivot `j` is NaN or under `min` in magnitude
/// (`|p| ≥ min` is false for a NaN).
#[inline(always)]
pub fn hold_pivot<const L: usize>(held: &mut [bool; L], pivot: [f64; L], min: f64) {
    for (held, pivot) in held.iter_mut().zip(pivot) {
        *held &= pivot.abs() >= min;
    }
}

/// Clears `held[j]` where multiplier `j` is NaN or above `max` in
/// magnitude (`|l| ≤ max` is false for a NaN).
#[inline(always)]
pub fn hold_multiplier<const L: usize>(held: &mut [bool; L], l: [f64; L], max: f64) {
    for (held, l) in held.iter_mut().zip(l) {
        *held &= l.abs() <= max;
    }
}

/// The value `Iterator::sum` starts from, so a lane's fold adds its terms
/// to the same first value as the scalar `sum` does.
#[inline(always)]
pub fn sum_identity() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// `‖x‖∞` of every lane, folded in the order of
/// [`pathway_linalg::Vector::norm_inf`].
#[inline(always)]
pub fn norms_inf<const L: usize>(x: &[[f64; L]]) -> [f64; L] {
    let mut norms = [0.0_f64; L];
    for x in x {
        for (norm, x) in norms.iter_mut().zip(x) {
            *norm = norm.max(x.abs());
        }
    }
    norms
}

/// Whether every entry of each lane is finite.
#[inline(always)]
pub fn all_finite<const L: usize>(x: &[[f64; L]]) -> [bool; L] {
    let mut finite = [true; L];
    for x in x {
        for (finite, x) in finite.iter_mut().zip(x) {
            *finite &= x.is_finite();
        }
    }
    finite
}

/// The Sherman–Morrison correction `δ = w + z · gᵀw / (1 − gᵀz)` in place
/// of `w`, per lane, with `gᵀz` and `gᵀw` folded in the order of
/// [`pathway_linalg::Vector::dot`]. Returns, per lane, whether the
/// denominator held: finite and at least `1e-8 · max(1, |gᵀz|)` in
/// magnitude. A lane whose denominator failed is left unspecified.
#[inline(always)]
pub(crate) fn sherman_morrison<const L: usize>(
    g: &[[f64; L]],
    z: &[[f64; L]],
    w: &mut [[f64; L]],
) -> [bool; L] {
    let (mut gz, mut gw) = ([sum_identity(); L], [sum_identity(); L]);
    for ((g, z), w) in g.iter().zip(z).zip(w.iter()) {
        for j in 0..L {
            gz[j] += g[j] * z[j];
            gw[j] += g[j] * w[j];
        }
    }
    let mut held = [true; L];
    let mut scale = [0.0; L];
    for j in 0..L {
        let denominator = 1.0 - gz[j];
        held[j] =
            denominator.is_finite() && denominator.abs() >= MIN_DENOMINATOR * gz[j].abs().max(1.0);
        scale[j] = gw[j] / denominator;
    }
    for (w, z) in w.iter_mut().zip(z) {
        for j in 0..L {
            w[j] += scale[j] * z[j];
        }
    }
    held
}

/// The values of `S` and the factors `u` and `g` of every lane, as
/// [`SparsePlusRankOneLanes::parts_mut`] lends them.
pub type LaneParts<'a, const L: usize> =
    (&'a mut [[f64; L]], &'a mut [[f64; L]], &'a mut [[f64; L]]);

/// `L` Jacobians `J = S + u·gᵀ` on one [`JacobianPattern`], lane `j` of
/// each entry one design's, solved together by the compiled LU `K`: the
/// lane form of [`crate::SparsePlusRankOne`].
#[derive(Debug, Clone)]
pub struct SparsePlusRankOneLanes<K, const L: usize> {
    values: Vec<[f64; L]>,
    u: Vec<[f64; L]>,
    g: Vec<[f64; L]>,
    lu: Vec<[f64; L]>,
    inverse_pivots: Vec<[f64; L]>,
    kernel: PhantomData<K>,
}

impl<K: LaneLu, const L: usize> SparsePlusRankOneLanes<K, L> {
    /// Zeroed storage for `pattern`.
    ///
    /// # Panics
    ///
    /// If `K` was emitted from another pattern (its fingerprint differs).
    pub fn new(pattern: &JacobianPattern) -> Self {
        assert_eq!(
            K::FINGERPRINT,
            pattern.fingerprint(),
            "the lane kernel was emitted from another pattern"
        );
        let dim = pattern.dim();
        SparsePlusRankOneLanes {
            values: vec![[0.0; L]; pattern.nnz()],
            u: vec![[0.0; L]; dim],
            g: vec![[0.0; L]; dim],
            lu: vec![[0.0; L]; pattern.lu_nnz()],
            inverse_pivots: vec![[0.0; L]; dim],
            kernel: PhantomData,
        }
    }

    /// The values of `S` (indexed by [`JacobianPattern::slot`]) and the
    /// rank-one factors `u` and `g`, for the system to fill lane by lane.
    pub fn parts_mut(&mut self) -> LaneParts<'_, L> {
        (&mut self.values, &mut self.u, &mut self.g)
    }

    /// Solves `(diagonal·I − S − u·gᵀ) δ = rhs` into `delta` in every lane,
    /// by the operations of [`crate::SparsePlusRankOne::solve`]. Returns,
    /// per lane, whether the static pivots and the denominator held; a lane
    /// that failed is left unspecified, and its solve continues on the
    /// scalar path. `u` is solved in place (it becomes `z = M⁻¹u`), so the
    /// Jacobian is filled again before the next solve.
    #[inline(always)]
    pub fn solve(
        &mut self,
        diagonal: [f64; L],
        rhs: &[[f64; L]],
        delta: &mut [[f64; L]],
    ) -> [bool; L] {
        let mut held = K::factor(
            diagonal,
            &self.values,
            &mut self.lu,
            &mut self.inverse_pivots,
        );
        delta.copy_from_slice(rhs);
        K::substitute(&self.lu, &self.inverse_pivots, &mut self.u, delta);
        let corrected = sherman_morrison(&self.g, &self.u, delta);
        for (held, corrected) in held.iter_mut().zip(corrected) {
            *held &= corrected;
        }
        held
    }
}

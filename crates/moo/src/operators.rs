//! Variation and selection operators used by NSGA-II, MOEA/D and PMO2.

use pathway_linalg::elementary::{ln_1p, ln_parts, pow, KernelInstance, SplitExponent};
use rand::Rng;

use crate::{constrained_dominates, Individual};

/// Reusable buffers for [`sbx_crossover`]: the crossing genes of each chunk
/// of 64, and per crossing gene its spread `u` (then its β). They grow to
/// the longest genome crossed and are reused across calls; `Nsga2` and
/// `Moead` each keep one. They hold no run state: a checkpoint never
/// carries them, and a fresh scratch gives the same children.
#[derive(Debug, Clone, Default)]
pub struct SbxScratch {
    /// Slot `w`: bit `j` is set when gene `64w + j` crosses.
    crossing: Vec<u64>,
    /// Slot `k`: the spread `u` of the `k`-th crossing gene, then its β.
    betas: Vec<f64>,
}

impl SbxScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        SbxScratch::default()
    }
}

/// Simulated binary crossover (SBX; Deb & Agrawal 1995) of two parent
/// decision vectors, written into two caller-owned children.
///
/// Overwrites every gene of `children`: each gene is crossed with
/// probability 0.5 (otherwise copied from its parent), using the
/// distribution index `eta_c` (larger values produce children closer to
/// their parents). Crossed genes are clamped to `bounds`. The children's
/// previous contents are never read, so a recycled genome breeds the same
/// child as a fresh one.
///
/// # Draw contract
///
/// Over `n` genes it first draws `⌈n/64⌉` coin words with `next_u64`,
/// always; bit `j` of word `w` is the coin of gene `64w + j`, and the high
/// bits of the last word past gene `n − 1` are ignored. Gene `i` crosses
/// when its coin is set and the parents are unequal and differ by at least
/// 1e-14, or either is NaN; equal infinities are copied. Then it reads one
/// spread word per crossing gene, in gene order, as `u = next_f64()`. A
/// call reads `⌈n/64⌉` words plus one per crossing gene.
///
/// A crossing gene's spread factor is `β = (2u)^(1/(η+1))` for `u ≤ ½` and
/// `β = (1 / (2(1 − u)))^(1/(η+1))` above, computed as
/// `exp(±ln(2u or 2(1 − u)) / (η + 1))` by one branch-free `ln`/`exp`
/// kernel over all crossing genes ([`pathway_linalg::elementary`]'s `pow`,
/// from fdlibm's `e_log.c` and `e_exp.c` polynomials), for `eta_c ≥ 0`. It is exact at `u = 0` (β = 0) and
/// `u = ½` (β = 1), and within 1 ulp of `powf` from η = 0.5 up (the
/// module's tests pin the bound per η).
///
/// # Vector kernels
///
/// The differing genes are found 8 at a time, and the kernel runs 4 spreads
/// at a time with a scalar tail, in an instance compiled for AVX2 on a CPU
/// that has it (picked at run time; [`KernelInstance`], and
/// [`sbx_differ_mask`] and [`sbx_spread_factors`] run one by name). Every lane runs the
/// scalar kernel's `+ − × ÷` and bit operations in their order, and no
/// instance enables FMA, so no product is fused into a sum: each β is the
/// scalar kernel's, bit for bit, on every CPU.
///
/// # Panics
///
/// Panics if the parents, the children or the bounds have inconsistent
/// lengths, or if a crossing gene's bounds have `lower > upper` or a NaN
/// end.
pub fn sbx_crossover<R: Rng>(
    parent_a: &[f64],
    parent_b: &[f64],
    bounds: &[(f64, f64)],
    eta_c: f64,
    rng: &mut R,
    scratch: &mut SbxScratch,
    (child_a, child_b): (&mut [f64], &mut [f64]),
) {
    assert_eq!(
        parent_a.len(),
        parent_b.len(),
        "parents must have equal length"
    );
    assert_eq!(
        parent_a.len(),
        bounds.len(),
        "one bound per variable is required"
    );
    assert!(
        child_a.len() == parent_a.len() && child_b.len() == parent_a.len(),
        "each child must have one gene per parent gene"
    );
    let kernels = KernelInstance::widest();
    let SbxScratch { crossing, betas } = scratch;

    // The crossing genes of each chunk of 64 are its coin word's set bits
    // among the genes whose parents differ.
    crossing.clear();
    crossing.extend(
        parent_a
            .chunks(64)
            .zip(parent_b.chunks(64))
            .map(|(chunk_a, chunk_b)| sbx_differ_mask(kernels, chunk_a, chunk_b) & rng.next_u64()),
    );
    let crossings = crossing.iter().map(|mask| mask.count_ones() as usize).sum();

    betas.clear();
    betas.extend((0..crossings).map(|_| rng.next_f64()));
    sbx_spread_factors(kernels, betas, eta_c);

    child_a.copy_from_slice(parent_a);
    child_b.copy_from_slice(parent_b);
    let mut betas = betas.iter();
    for (w, &mask) in crossing.iter().enumerate() {
        let mut mask = mask;
        while mask != 0 {
            let i = 64 * w + mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let beta = betas.next().expect("one spread per crossing gene");
            let (x1, x2) = (parent_a[i], parent_b[i]);
            let (lower, upper) = bounds[i];
            child_a[i] = (0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)).clamp(lower, upper);
            child_b[i] = (0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)).clamp(lower, upper);
        }
    }
}

/// The differ mask of up to 64 gene pairs, in the instance `kernels`: bit
/// `j` is set when the parents' genes `j` are to be crossed (they are
/// unequal and differ by at least 1e-14, or either is NaN). Every instance
/// gives the same mask.
///
/// # Panics
///
/// Panics if the chunks have unequal lengths or more than 64 genes, or if
/// this CPU does not run the instance.
pub fn sbx_differ_mask(kernels: KernelInstance, chunk_a: &[f64], chunk_b: &[f64]) -> u64 {
    assert!(
        chunk_a.len() == chunk_b.len() && chunk_a.len() <= 64,
        "a chunk is at most 64 gene pairs"
    );
    assert!(
        kernels.runs(),
        "this CPU does not run the {kernels:?} instance"
    );
    match kernels {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runs` accepted AVX2 only on a CPU that has it.
        KernelInstance::Avx2 => unsafe { differ_mask_avx2(chunk_a, chunk_b) },
        _ => differ_mask_packed(chunk_a, chunk_b),
    }
}

/// Replaces each spread `u ∈ [0, 1)` of `spreads` with its spread factor β
/// at the distribution index `eta_c ≥ 0`, as [`sbx_crossover`] computes it,
/// in the instance `kernels`. Every instance gives the same bits.
///
/// # Panics
///
/// Panics if this CPU does not run the instance.
pub fn sbx_spread_factors(kernels: KernelInstance, spreads: &mut [f64], eta_c: f64) {
    let exponent = spread_exponent(eta_c);
    assert!(
        kernels.runs(),
        "this CPU does not run the {kernels:?} instance"
    );
    match kernels {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `runs` accepted AVX2 only on a CPU that has it.
        KernelInstance::Avx2 => unsafe { spread_factors_avx2(spreads, exponent) },
        _ => spread_factors_chunks(spreads, exponent),
    }
}

/// [`differ_mask_packed`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn differ_mask_avx2(chunk_a: &[f64], chunk_b: &[f64]) -> u64 {
    differ_mask_packed(chunk_a, chunk_b)
}

/// [`spread_factors_chunks`] compiled for AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn spread_factors_avx2(spreads: &mut [f64], exponent: SplitExponent) {
    spread_factors_chunks(spreads, exponent)
}

/// The differ mask of up to 64 gene pairs: every pair's [`differ`] flag
/// as one byte, then each group of 8 flags packed into 8 bits with one
/// multiply (flag `j` of a group lands on bit `56 + j` of the product, and
/// no lower partial product carries into that byte). The flags past the
/// chunk's last gene stay 0, so a partial group packs as a full one.
#[inline(always)]
fn differ_mask_packed(chunk_a: &[f64], chunk_b: &[f64]) -> u64 {
    let mut flags = [0u8; 64];
    for ((flag, &x1), &x2) in flags.iter_mut().zip(chunk_a).zip(chunk_b) {
        *flag = differ(x1, x2) as u8;
    }
    let mut mask = 0;
    for (g, group) in flags.chunks_exact(8).enumerate() {
        let bytes = u64::from_le_bytes(group.try_into().expect("a group is 8 flags"));
        mask |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    mask
}

/// The spread factor of every spread, in fixed chunks of 4 lanes, then the
/// last 1–3 one by one.
#[inline(always)]
fn spread_factors_chunks(spreads: &mut [f64], exponent: SplitExponent) {
    let mut chunks = spreads.chunks_exact_mut(4);
    for chunk in &mut chunks {
        let lanes: &mut [f64; 4] = chunk.try_into().expect("a chunk is 4 spreads");
        *lanes = [
            spread_factor(lanes[0], exponent),
            spread_factor(lanes[1], exponent),
            spread_factor(lanes[2], exponent),
            spread_factor(lanes[3], exponent),
        ];
    }
    for u in chunks.into_remainder() {
        *u = spread_factor(*u, exponent);
    }
}

/// 1 when two parent genes are to be crossed (they are unequal and differ
/// by at least 1e-14, or either is NaN), else 0. The equality test keeps
/// equal infinities, whose difference is NaN, from crossing into NaN.
#[inline(always)]
fn differ(x1: f64, x2: f64) -> u64 {
    u64::from((x1 == x2) | ((x1 - x2).abs() < 1e-14)) ^ 1
}

/// The spread exponent `1 / (η + 1)` of SBX's and polynomial mutation's
/// perturbations at the distribution index `eta`.
fn spread_exponent(eta: f64) -> SplitExponent {
    SplitExponent::new(1.0 / (eta + 1.0))
}

/// SBX's spread factor β for the spread `u ∈ [0, 1)`: `(2u)^x` for
/// `u ≤ ½` and `(2(1 − u))^(−x)` above, at `x = 1 / (η + 1)` for `η ≥ 0`,
/// through the `ln`/`exp` kernel's [`pow`]; both bases are exact, and
/// `|x · ln(base)|` is at most 36 (the smallest base is `2⁻⁵²`).
/// Branch-free, so a loop over many genes overlaps. `u = 0` gives exactly 0
/// and `u = ½` exactly 1.
#[inline(always)]
fn spread_factor(u: f64, exponent: SplitExponent) -> f64 {
    let low = u <= 0.5;
    let base = if low { 2.0 * u } else { 2.0 * (1.0 - u) };
    let sign = if low { 1.0 } else { -1.0 };
    let beta = pow(base, exponent.times_sign(sign));
    if base == 0.0 {
        0.0
    } else {
        beta
    }
}

/// Polynomial mutation with distribution index `eta_m`; each gene mutates with
/// probability `mutation_probability` (clamped to `[0, 1]`) and stays within
/// `bounds`.
///
/// # Draw contract
///
/// With `p = mutation_probability.clamp(0, 1)`, the mutated genes are found
/// by skip sampling: the gap to the next one is drawn instead of one coin
/// per gene.
///
/// - `p = 0` draws nothing.
/// - `p = 1` draws no gaps: every gene is selected.
/// - `0 < p < 1`: with `ln(1 − p)` computed once, each gap is
///   `G = ⌊ln(1 − next_f64()) / ln(1 − p)⌋` (the argument lies in `(0, 1]`,
///   so `G ≥ 0` is geometric: `P(G ≥ k) = (1 − p)^k`). From gene `i`, the
///   next selected gene is `i + G`. A gap that reaches past the last gene
///   ends the call, and that gap draw is the call's last; after the last
///   gene is selected no further gap is drawn. The gap is compared as an
///   `f64` with the genes left before it is converted, so a huge or
///   infinite gap cannot overflow.
///
/// A selected gene whose bounds have positive width draws one perturbation
/// word `u` (as `next_f64()`) and moves by `delta · (upper − lower)`, then is
/// clamped; a zero-width gene draws no perturbation word. A call over `n`
/// genes reads about `2np + 1` words.
///
/// # Kernel
///
/// Every transcendental goes through the `ln`/`exp` kernel of
/// [`pathway_linalg::elementary`], not libm: `ln(1 − p)` is its `ln_1p`, a
/// gap's logarithm the sum of its `ln_parts`, and `delta` is
/// `(2u)^(1/(η+1)) − 1` below `u = ½` and `1 − (2(1 − u))^(1/(η+1))` from
/// it, through its `pow` as SBX's spread factor is (0 at `u = 0`). The
/// module's tests pin each piece within its stated ulps of `ln_1p`, `ln`
/// and `powf`.
///
/// A breed that mutates many children at one probability and index builds
/// one [`PolynomialMutation`] and calls [`PolynomialMutation::mutate`] per
/// child, so `ln(1 − p)` and `1 / (η + 1)` are computed once per breed;
/// the children and the words read are this function's.
///
/// # Panics
///
/// Panics if `x` and `bounds` have different lengths, if
/// `mutation_probability` is NaN, or if a selected gene's bounds have a NaN
/// end.
pub fn polynomial_mutation<R: Rng>(
    x: &mut [f64],
    bounds: &[(f64, f64)],
    mutation_probability: f64,
    eta_m: f64,
    rng: &mut R,
) {
    PolynomialMutation::new(mutation_probability, eta_m).mutate(x, bounds, rng);
}

/// [`polynomial_mutation`] at one probability and distribution index, with
/// what a call derives from them computed once: the clamped probability,
/// `ln(1 − p)` and the spread exponent `1 / (η + 1)`.
#[derive(Debug, Clone, Copy)]
pub struct PolynomialMutation {
    p: f64,
    log_q: f64,
    exponent: SplitExponent,
}

impl PolynomialMutation {
    /// Polynomial mutation with probability `mutation_probability` per gene
    /// (clamped to `[0, 1]`) and distribution index `eta_m`.
    ///
    /// # Panics
    ///
    /// Panics if `mutation_probability` is NaN.
    pub fn new(mutation_probability: f64, eta_m: f64) -> Self {
        let p = mutation_probability.clamp(0.0, 1.0);
        assert!(
            !p.is_nan(),
            "gen_bool probability {p} is outside [0.0, 1.0]"
        );
        PolynomialMutation {
            p,
            log_q: ln_1p(-p),
            exponent: spread_exponent(eta_m),
        }
    }

    /// Mutates `x` within `bounds`, as [`polynomial_mutation`] does, bit for
    /// bit and word for word.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `bounds` have different lengths, or if a selected
    /// gene's bounds have a NaN end.
    pub fn mutate<R: Rng>(&self, x: &mut [f64], bounds: &[(f64, f64)], rng: &mut R) {
        assert_eq!(x.len(), bounds.len(), "one bound per variable is required");
        let PolynomialMutation { p, log_q, exponent } = *self;
        if p == 1.0 {
            for (xi, &bound) in x.iter_mut().zip(bounds) {
                perturb(xi, bound, exponent, rng);
            }
        } else if p > 0.0 {
            let mut i = 0;
            while i < x.len() {
                let gap = ln_of_unit_complement(rng.next_f64()) / log_q;
                if gap >= (x.len() - i) as f64 {
                    break;
                }
                i += gap as usize;
                perturb(&mut x[i], bounds[i], exponent, rng);
                i += 1;
            }
        }
    }
}

/// `ln(1 − u)` for `u ∈ [0, 1)`, the sum of the kernel's `ln_parts` (exact
/// at `u = 0`).
#[inline(always)]
fn ln_of_unit_complement(u: f64) -> f64 {
    let (k_ln2, rest) = ln_parts(1.0 - u);
    k_ln2 + rest
}

/// Polynomial mutation's move for the perturbation word `u ∈ [0, 1)` at the
/// spread `exponent` (`1 / (eta_m + 1)`): `(2u)^x − 1` below ½ (−1 at
/// `u = 0`) and `1 − (2(1 − u))^x` from it (0 at `u = ½`).
#[inline(always)]
fn perturbation(u: f64, exponent: SplitExponent) -> f64 {
    if u < 0.5 {
        let base = 2.0 * u;
        let power = pow(base, exponent);
        (if base == 0.0 { 0.0 } else { power }) - 1.0
    } else {
        1.0 - pow(2.0 * (1.0 - u), exponent)
    }
}

/// Moves one selected gene by a polynomial perturbation of spread `exponent`
/// (`1 / (eta_m + 1)`) within `(lower, upper)`; a gene whose bounds have no
/// positive width stays and draws nothing.
fn perturb<R: Rng>(xi: &mut f64, (lower, upper): (f64, f64), exponent: SplitExponent, rng: &mut R) {
    let range = upper - lower;
    if range <= 0.0 {
        return;
    }
    let delta = perturbation(rng.next_f64(), exponent);
    *xi = (*xi + delta * range).clamp(lower, upper);
}

/// Binary tournament selection on (constrained domination, crowding distance).
///
/// Picks two random members and returns the index of the preferred one: the
/// dominating individual wins; if neither dominates, the better rank wins;
/// within a rank, the larger crowding distance wins. An *exact* crowding tie
/// (common when both contestants carry the infinite boundary distance) is
/// broken by a coin flip from the caller's RNG — a `>=` tie-break would
/// deterministically favor the first-sampled index and bias the selection
/// pressure.
///
/// # Panics
///
/// Panics if `population` is empty.
pub fn tournament_select<R: Rng>(population: &[Individual], rng: &mut R) -> usize {
    assert!(!population.is_empty(), "population must not be empty");
    let a = rng.gen_range(0..population.len());
    let b = rng.gen_range(0..population.len());
    let ind_a = &population[a];
    let ind_b = &population[b];
    if constrained_dominates(ind_a, ind_b) {
        a
    } else if constrained_dominates(ind_b, ind_a) {
        b
    } else if ind_a.rank != ind_b.rank {
        if ind_a.rank < ind_b.rank {
            a
        } else {
            b
        }
    } else if ind_a.crowding > ind_b.crowding {
        a
    } else if ind_b.crowding > ind_a.crowding {
        b
    } else if rng.gen_bool(0.5) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::reference::crossover;
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn bounds(n: usize) -> Vec<(f64, f64)> {
        vec![(0.0, 1.0); n]
    }

    #[test]
    fn sbx_children_stay_in_bounds_and_near_parents() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = SbxScratch::new();
        let a = vec![0.2, 0.8, 0.5];
        let b = vec![0.3, 0.1, 0.5];
        for _ in 0..200 {
            let (c1, c2) = crossover(&a, &b, &bounds(3), 15.0, &mut rng, &mut scratch);
            for child in [&c1, &c2] {
                for &value in child {
                    assert!((0.0..=1.0).contains(&value));
                }
            }
            // A gene identical in both parents is inherited unchanged.
            assert_eq!(c1[2], 0.5);
            assert_eq!(c2[2], 0.5);
        }
    }

    #[test]
    fn sbx_with_high_eta_keeps_children_close() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = SbxScratch::new();
        let a = vec![0.4];
        let b = vec![0.6];
        let mut max_spread: f64 = 0.0;
        for _ in 0..500 {
            let (c1, _) = crossover(&a, &b, &bounds(1), 100.0, &mut rng, &mut scratch);
            max_spread = max_spread.max((c1[0] - 0.5).abs());
        }
        assert!(max_spread < 0.3);
    }

    /// `u` as `next_f64` builds it from `word`.
    pub(super) fn unit(word: u64) -> f64 {
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The spread factor as `powf` computed it before the kernel.
    pub(super) fn powf_spread_factor(u: f64, eta: f64) -> f64 {
        let base = if u <= 0.5 {
            2.0 * u
        } else {
            1.0 / (2.0 * (1.0 - u))
        };
        base.powf(1.0 / (eta + 1.0))
    }

    /// The kernel's worst distance from `powf` per η, in ulps. Below
    /// η = 0.5 it can reach 2 ulps: `powf`'s base `1 / (2(1 − u))` is
    /// rounded, and at an exponent near 1 that rounding reaches β whole.
    /// Every committed spec runs at the default η = 15.
    pub(super) const SPREAD_ULPS: [(f64, u64); 8] = [
        (0.01, 2),
        (0.5, 1),
        (1.0, 1),
        (5.0, 1),
        (15.0, 1),
        (20.0, 1),
        (100.0, 1),
        (1e6, 1),
    ];

    #[test]
    fn the_spread_kernel_is_within_its_stated_ulps_of_powf() {
        let mut rng = StdRng::seed_from_u64(2_032);
        let mut words: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        // `u` of 0, ½ and either side of it, and the 10,000 smallest and
        // largest, where `|ln(base)|` is largest.
        words.extend([0, 1 << 63, (1 << 63) - (1 << 11), (1 << 63) + (1 << 11)]);
        words.extend((1..10_000u64).flat_map(|k| [k << 11, u64::MAX - ((k - 1) << 11)]));
        for (eta, ulps) in SPREAD_ULPS {
            let exponent = spread_exponent(eta);
            for &word in &words {
                let u = unit(word);
                let (beta, expected) = (spread_factor(u, exponent), powf_spread_factor(u, eta));
                let distance = beta.to_bits().abs_diff(expected.to_bits());
                assert!(
                    beta.is_finite() && distance <= ulps,
                    "η {eta}, u {u}: β {beta:e} is {distance} ulps from {expected:e}"
                );
            }
        }
    }

    /// Polynomial mutation's kernel pieces, each against the libm call it
    /// replaced: its power `(2u)^(1/(η+1))` or `(2(1 − u))^(1/(η+1))`
    /// against `powf` within 1 ulp at every η (both bases are exact, so
    /// unlike SBX's `powf` reference no rounded reciprocal widens the
    /// bound), a gap's `ln(1 − u)` against `ln` within 1 ulp, and
    /// `ln(1 − p)` against `ln_1p` within 2 ulps.
    #[test]
    fn the_mutation_kernels_are_within_their_stated_ulps_of_libm() {
        let mut rng = StdRng::seed_from_u64(2_039);
        let mut words: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();
        words.extend([0, 1 << 63, (1 << 63) - (1 << 11), (1 << 63) + (1 << 11)]);
        words.extend((1..10_000u64).flat_map(|k| [k << 11, u64::MAX - ((k - 1) << 11)]));
        let ulps = |a: f64, b: f64| a.to_bits().abs_diff(b.to_bits());
        for (eta, _) in SPREAD_ULPS {
            let exponent = spread_exponent(eta);
            for &word in &words {
                let u = unit(word);
                let base = if u < 0.5 { 2.0 * u } else { 2.0 * (1.0 - u) };
                if base == 0.0 {
                    assert_eq!(perturbation(u, exponent), -1.0);
                    continue;
                }
                let (power, expected) = (pow(base, exponent), base.powf(1.0 / (eta + 1.0)));
                assert!(
                    ulps(power, expected) <= 1,
                    "η {eta}, u {u}: power {power:e} against powf's {expected:e}"
                );
            }
        }
        for &word in &words {
            let u = unit(word);
            let (ln, expected) = (ln_of_unit_complement(u), (1.0 - u).ln());
            assert!(
                ulps(ln, expected) <= 1,
                "u {u}: ln(1 − u) {ln:e} against {expected:e}"
            );
        }
        let mut probabilities: Vec<f64> = words.iter().map(|&word| unit(word)).collect();
        probabilities.extend([1.0 / 608.0, 1.0 / 23.0, f64::from_bits(1), 1e-300, 1e-17]);
        for p in probabilities.into_iter().filter(|&p| p > 0.0) {
            let (ln, expected) = (ln_1p(-p), (-p).ln_1p());
            assert!(
                ulps(ln, expected) <= 2,
                "p {p:e}: ln(1 − p) {ln:e} against {expected:e}"
            );
        }
    }

    #[test]
    fn the_spread_kernel_is_exact_at_its_edges() {
        for eta in [1e-9, 0.5, 1.0, 15.0, 100.0, 1e9] {
            let exponent = spread_exponent(eta);
            assert_eq!(spread_factor(0.0, exponent).to_bits(), 0.0f64.to_bits());
            assert_eq!(spread_factor(0.5, exponent), 1.0);
            // The largest `u` is 1 − 2⁻⁵³: its base is 2⁵² exactly.
            let largest = unit(u64::MAX);
            assert_eq!(1.0 / (2.0 * (1.0 - largest)), 2f64.powi(52));
            let beta = spread_factor(largest, exponent);
            assert!(beta.is_finite() && beta >= 1.0, "η {eta}: β {beta}");
            let expected = 2f64.powf(52.0 / (eta + 1.0));
            assert!((beta - expected).abs() <= 4.0 * f64::EPSILON * expected);
        }
    }

    #[test]
    fn mutation_respects_bounds_and_probability_zero_is_identity() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut x = vec![0.5, 0.5];
        polynomial_mutation(&mut x, &bounds(2), 0.0, 20.0, &mut rng);
        assert_eq!(x, vec![0.5, 0.5]);
        for _ in 0..200 {
            polynomial_mutation(&mut x, &bounds(2), 1.0, 20.0, &mut rng);
            for &value in &x {
                assert!((0.0..=1.0).contains(&value));
            }
        }
    }

    #[test]
    fn mutation_skips_degenerate_bounds() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut x = vec![0.45];
        polynomial_mutation(&mut x, &[(0.45, 0.45)], 1.0, 20.0, &mut rng);
        assert_eq!(x[0], 0.45);
    }

    #[test]
    #[should_panic(expected = "gen_bool probability NaN is outside [0.0, 1.0]")]
    fn mutation_with_a_nan_probability_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        polynomial_mutation(&mut [0.5], &bounds(1), f64::NAN, 20.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "either was NaN")]
    fn mutation_of_a_gene_with_a_nan_bound_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        polynomial_mutation(&mut [0.5], &[(f64::NAN, 1.0)], 1.0, 20.0, &mut rng);
    }

    #[test]
    fn tournament_prefers_dominating_and_less_crowded() {
        let good = Individual {
            variables: vec![],
            objectives: vec![0.0, 0.0],
            violation: 0.0,
            rank: 0,
            crowding: 1.0,
        };
        let bad = Individual {
            variables: vec![],
            objectives: vec![1.0, 1.0],
            violation: 0.0,
            rank: 1,
            crowding: 0.1,
        };
        let population = vec![good, bad];
        let mut rng = StdRng::seed_from_u64(2);
        let mut wins_for_good = 0;
        for _ in 0..200 {
            if tournament_select(&population, &mut rng) == 0 {
                wins_for_good += 1;
            }
        }
        // The good individual can only lose when it is not drawn at all.
        assert!(wins_for_good > 140);
    }

    #[test]
    fn exact_crowding_ties_are_broken_by_a_coin_flip() {
        // Two incomparable individuals on the same rank with identical
        // (infinite) crowding: neither may be deterministically favored.
        let template = Individual {
            variables: vec![],
            objectives: vec![0.0, 1.0],
            violation: 0.0,
            rank: 0,
            crowding: f64::INFINITY,
        };
        let mut other = template.clone();
        other.objectives = vec![1.0, 0.0];
        let population = vec![template, other];
        let mut rng = StdRng::seed_from_u64(17);
        let mut wins_for_first = 0;
        for _ in 0..2_000 {
            if tournament_select(&population, &mut rng) == 0 {
                wins_for_first += 1;
            }
        }
        // Under the old `>=` tie-break the first-sampled index always won,
        // giving ~75% to index 0 (it wins all ties plus the (0,0) draws).
        assert!(
            (800..1_200).contains(&wins_for_first),
            "tie-breaking is biased: index 0 won {wins_for_first}/2000"
        );
    }

    #[test]
    #[should_panic(expected = "population must not be empty")]
    fn tournament_on_empty_population_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = tournament_select(&[], &mut rng);
    }
}

#[cfg(test)]
mod reference {
    //! SBX is pinned by its draw contract: scripted word sources assert the
    //! children's bits and the words read at the edges of its coin words
    //! (n = 0, 1, 63, 64, 65 and 608; a chunk with no differing genes; the
    //! last chunk's high bits; NaN and infinite parents), and a plain
    //! gene-by-gene reference of the same contract, on the same kernel, must
    //! match it bit for bit, children and generator state, on random parents
    //! that mix genes inside their bounds, genes equal in both parents, genes
    //! within 1e-14 of each other (on both sides of the cut and exactly on
    //! it), genes outside their bounds and zero-width bounds. A seeded test
    //! checks the crossing counts against Binomial(d, ½) over `d` differing
    //! genes and the spread factors against SBX's distribution.
    //!
    //! Polynomial mutation is pinned by its draw contract too: scripted
    //! word sources assert the children's bits and the words read at each
    //! edge of the skip sampling (no draw at `p = 0`, no gap at `p = 1`,
    //! gaps of 0, of the genes left and past them, zero-width genes,
    //! clamped probabilities), and a seeded test checks the mutated-gene
    //! counts against Binomial(n, p) and their positions against uniform.

    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    use super::{polynomial_mutation, sbx_crossover, spread_exponent, spread_factor, SbxScratch};
    use pathway_linalg::elementary::{ln_1p, ln_parts, pow, SplitExponent};
    use proptest::prelude::*;

    /// [`sbx_crossover`]'s draw contract, gene by gene: all coin words
    /// first, then a spread word at each crossing gene in turn.
    fn reference_sbx_crossover<R: Rng>(
        parent_a: &[f64],
        parent_b: &[f64],
        bounds: &[(f64, f64)],
        eta_c: f64,
        rng: &mut R,
    ) -> (Vec<f64>, Vec<f64>) {
        let n = parent_a.len();
        let coins: Vec<u64> = (0..n.div_ceil(64)).map(|_| rng.next_u64()).collect();
        let mut child_a = parent_a.to_vec();
        let mut child_b = parent_b.to_vec();
        for i in 0..n {
            if (coins[i / 64] >> (i % 64)) & 1 == 0 {
                continue;
            }
            let (x1, x2) = (parent_a[i], parent_b[i]);
            if x1 == x2 || (x1 - x2).abs() < 1e-14 {
                continue;
            }
            let beta = spread_factor(rng.next_f64(), spread_exponent(eta_c));
            let c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
            let c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
            let (lower, upper) = bounds[i];
            child_a[i] = c1.clamp(lower, upper);
            child_b[i] = c2.clamp(lower, upper);
        }
        (child_a, child_b)
    }

    /// [`sbx_crossover`] into children that held stale values (NaN), which
    /// it returns.
    pub(super) fn crossover<R: Rng>(
        parent_a: &[f64],
        parent_b: &[f64],
        bounds: &[(f64, f64)],
        eta_c: f64,
        rng: &mut R,
        scratch: &mut SbxScratch,
    ) -> (Vec<f64>, Vec<f64>) {
        let n = parent_a.len();
        let (mut child_a, mut child_b) = (vec![f64::NAN; n], vec![f64::NAN; n]);
        sbx_crossover(
            parent_a,
            parent_b,
            bounds,
            eta_c,
            rng,
            scratch,
            (&mut child_a, &mut child_b),
        );
        (child_a, child_b)
    }

    /// Random parents and bounds of `n` genes that hit every branch of SBX.
    fn random_case(rng: &mut StdRng, n: usize) -> (Vec<f64>, Vec<f64>, Vec<(f64, f64)>) {
        let mut parent_a = Vec::with_capacity(n);
        let mut parent_b = Vec::with_capacity(n);
        let mut bounds = Vec::with_capacity(n);
        for _ in 0..n {
            let lower = rng.gen_range(-100.0..100.0);
            let upper = if rng.gen_bool(0.15) {
                lower
            } else {
                lower + rng.gen_range(1e-6..200.0)
            };
            let inside = |rng: &mut StdRng| {
                if upper > lower {
                    rng.gen_range(lower..upper)
                } else {
                    lower
                }
            };
            let x1 = inside(rng);
            let (x1, x2) = match rng.gen_range(0..7u32) {
                0 => (x1, x1),
                1 => (x1, x1 + rng.gen_range(-1e-14..1e-14)),
                2 => (x1, x1 + rng.gen_range(-3e-14..3e-14)),
                // Exactly 1e-14 apart: on the cut, so the gene crosses.
                3 => (0.0, 1e-14),
                4 => (x1, x1 + rng.gen_range(-1.0..1.0) * (upper - lower + 1.0)),
                _ => (x1, inside(rng)),
            };
            parent_a.push(x1);
            parent_b.push(x2);
            bounds.push((lower, upper));
        }
        (parent_a, parent_b, bounds)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn prop_sbx_matches_the_gene_by_gene_reference(seed in 0u64..u64::MAX) {
            let mut cases = StdRng::seed_from_u64(seed);
            let n = match cases.gen_range(0..10u32) {
                0 => 608,
                1 => [63, 64, 65, 128, 129][cases.gen_range(0..5usize)],
                _ => cases.gen_range(0..200),
            };
            let (parent_a, parent_b, bounds) = random_case(&mut cases, n);
            let eta = [0.0, 0.5, 1.0, 2.0, 5.0, 15.0, 20.0, 100.0, cases.gen_range(0.0..200.0)]
                [cases.gen_range(0..9usize)];
            let mut rng = StdRng::seed_from_u64(cases.gen());
            let mut reference_rng = rng.clone();
            let mut scratch = SbxScratch::new();
            // The children are written in place over the last call's.
            let (mut a, mut b) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            for _ in 0..4 {
                sbx_crossover(
                    &parent_a,
                    &parent_b,
                    &bounds,
                    eta,
                    &mut rng,
                    &mut scratch,
                    (&mut a, &mut b),
                );
                let (ref_a, ref_b) =
                    reference_sbx_crossover(&parent_a, &parent_b, &bounds, eta, &mut reference_rng);
                prop_assert_eq!(bits(&a), bits(&ref_a));
                prop_assert_eq!(bits(&b), bits(&ref_b));
                prop_assert_eq!(rng.state(), reference_rng.state());
            }
        }
    }

    /// A scripted word source that counts the words read, so two runs can
    /// be compared on where they leave the stream.
    struct Script {
        words: Vec<u64>,
        read: usize,
    }

    impl Script {
        fn new(words: Vec<u64>) -> Self {
            Script { words, read: 0 }
        }
    }

    impl RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            let word = self.words[self.read];
            self.read += 1;
            word
        }
    }

    /// Bounds wide enough that no child is clamped.
    fn wide(n: usize) -> Vec<(f64, f64)> {
        vec![(-1e300, 1e300); n]
    }

    /// SBX at η = 15 on a script of `words`: asserts that every word was
    /// read, and that the children are the parents with each
    /// `(gene, spread word)` of `crossings` crossed, bit for bit.
    fn assert_sbx_on_script(
        parent_a: &[f64],
        parent_b: &[f64],
        words: &[u64],
        crossings: &[(usize, u64)],
        scratch: &mut SbxScratch,
        case: &str,
    ) {
        let bounds = wide(parent_a.len());
        let mut expected_a = parent_a.to_vec();
        let mut expected_b = parent_b.to_vec();
        for &(i, word) in crossings {
            let beta = spread_factor(
                (word >> 11) as f64 / (1u64 << 53) as f64,
                spread_exponent(15.0),
            );
            let (x1, x2) = (parent_a[i], parent_b[i]);
            expected_a[i] = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
            expected_b[i] = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
        }
        // Reading past the script panics on its index.
        let mut rng = Script::new(words.to_vec());
        let (a, b) = crossover(parent_a, parent_b, &bounds, 15.0, &mut rng, scratch);
        assert_eq!(bits(&a), bits(&expected_a), "{case}: first child");
        assert_eq!(bits(&b), bits(&expected_b), "{case}: second child");
        assert_eq!(rng.read, words.len(), "{case}: words read");
    }

    /// A spread word for gene `i`: both arms of the base, `u` of 0, exactly
    /// ½ (the word `1 << 63`) and just on either side of it, and the
    /// largest `u`.
    fn spread(i: usize) -> u64 {
        match i % 7 {
            0 => 1 << 63,
            1 => (1 << 63) - (1 << 11),
            2 => (1 << 63) + (1 << 11),
            3 => 0x0123_4567_89ab_cdef,
            4 => 0,
            5 => u64::MAX,
            _ => 0xfedc_ba98_7654_3210,
        }
    }

    /// Parents of `n` genes that differ at every gene.
    fn differing(n: usize) -> (Vec<f64>, Vec<f64>) {
        (0..n).map(|i| (i as f64 * 0.25, -1.0 - i as f64)).unzip()
    }

    /// The script and the crossings when the genes of `crossing` cross:
    /// the coin words, then a spread word per crossing gene.
    fn script(n: usize, crossing: &[usize]) -> (Vec<u64>, Vec<(usize, u64)>) {
        let mut words = vec![0u64; n.div_ceil(64)];
        for &i in crossing {
            words[i / 64] |= 1 << (i % 64);
        }
        let crossings: Vec<(usize, u64)> = crossing.iter().map(|&i| (i, spread(i))).collect();
        words.extend(crossings.iter().map(|&(_, word)| word));
        (words, crossings)
    }

    #[test]
    fn sbx_reads_one_coin_word_per_64_genes_then_one_spread_per_crossing_gene() {
        // One scratch for every case, longest genome first: what an earlier
        // call left in the buffers must not leak into a later one.
        let mut scratch = SbxScratch::new();
        for n in [608, 65, 64, 63, 1, 0] {
            let (parent_a, parent_b) = differing(n);
            let all: Vec<usize> = (0..n).collect();
            for (name, crossing) in [
                ("every gene", all.clone()),
                ("no gene", vec![]),
                (
                    "even genes",
                    all.iter().copied().filter(|i| i % 2 == 0).collect(),
                ),
                (
                    "odd genes",
                    all.iter().copied().filter(|i| i % 2 == 1).collect(),
                ),
                ("the last gene", all.last().copied().into_iter().collect()),
                ("the first gene", all.first().copied().into_iter().collect()),
            ] {
                let (words, crossings) = script(n, &crossing);
                assert_sbx_on_script(
                    &parent_a,
                    &parent_b,
                    &words,
                    &crossings,
                    &mut scratch,
                    &format!("n {n}, {name} crossing"),
                );
            }
            // Every coin set, but the parents are equal: no spread is read.
            assert_sbx_on_script(
                &parent_a,
                &parent_a,
                &vec![u64::MAX; n.div_ceil(64)],
                &[],
                &mut scratch,
                &format!("n {n}, equal parents"),
            );
        }
    }

    #[test]
    fn a_chunk_with_no_differing_genes_still_reads_its_coin_word() {
        // Genes 64..128 are equal in both parents; the spreads of chunk 2
        // follow those of chunk 0 with no word between them.
        let n = 150;
        let (parent_a, mut parent_b) = differing(n);
        parent_b[64..128].copy_from_slice(&parent_a[64..128]);
        let crossing: Vec<usize> = (0..64).chain(128..n).filter(|i| i % 3 != 1).collect();
        let (mut words, crossings) = script(n, &crossing);
        words[1] = u64::MAX;
        let mut scratch = SbxScratch::new();
        assert_sbx_on_script(
            &parent_a,
            &parent_b,
            &words,
            &crossings,
            &mut scratch,
            "chunk 1 equal",
        );
    }

    #[test]
    fn the_last_chunks_high_bits_are_ignored() {
        let mut scratch = SbxScratch::new();
        for n in [1, 63, 65, 100, 608] {
            let (parent_a, parent_b) = differing(n);
            let crossing: Vec<usize> = (0..n).filter(|i| i % 5 != 2).collect();
            let (mut words, crossings) = script(n, &crossing);
            // Set every bit past gene `n − 1` of the last coin word.
            let last = n.div_ceil(64) - 1;
            let used = n - 64 * last;
            if used < 64 {
                words[last] |= u64::MAX << used;
            }
            assert_sbx_on_script(
                &parent_a,
                &parent_b,
                &words,
                &crossings,
                &mut scratch,
                &format!("n {n}, high bits set"),
            );
        }
    }

    #[test]
    fn non_finite_parents_cross_as_in_the_reference() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        // A NaN gene crosses, and so does an infinity against a finite
        // value or the other infinity; equal parents, infinite ones too, are
        // copied.
        let pairs = [
            (nan, 0.5),
            (0.5, nan),
            (nan, nan),
            (inf, 0.5),
            (-inf, 0.5),
            (inf, inf),
            (-inf, -inf),
            (inf, -inf),
            (0.5, 0.5),
        ];
        let mut scratch = SbxScratch::new();
        for (first, &(x1, x2)) in pairs.iter().enumerate() {
            // The pairs in turn, starting from each, so each one lands on
            // the last gene once.
            let (parent_a, parent_b): (Vec<f64>, Vec<f64>) = (0..pairs.len())
                .map(|i| pairs[(first + i) % pairs.len()])
                .unzip();
            for coins in [u64::MAX, 0x5555_5555_5555_5555, 0] {
                let words: Vec<u64> = [coins]
                    .into_iter()
                    .chain((0..pairs.len()).map(spread))
                    .collect();
                let bounds = wide(pairs.len());
                let mut rng = Script::new(words.clone());
                let mut reference_rng = Script::new(words);
                let (a, b) = crossover(&parent_a, &parent_b, &bounds, 15.0, &mut rng, &mut scratch);
                let (ref_a, ref_b) = reference_sbx_crossover(
                    &parent_a,
                    &parent_b,
                    &bounds,
                    15.0,
                    &mut reference_rng,
                );
                let case = format!("from ({x1}, {x2}), coins {coins:#x}");
                assert_eq!(bits(&a), bits(&ref_a), "{case}: first child");
                assert_eq!(bits(&b), bits(&ref_b), "{case}: second child");
                assert_eq!(rng.read, reference_rng.read, "{case}: words read");
                // Every unequal pair crosses when its coin is set.
                let set = (0..pairs.len()).filter(|&i| (coins >> i) & 1 == 1);
                let crossing = set.filter(|&i| parent_a[i] != parent_b[i]);
                assert_eq!(rng.read, 1 + crossing.count(), "{case}: crossing genes");
                // Equal infinities are copied, never crossed into NaN.
                for i in 0..pairs.len() {
                    if parent_a[i].is_infinite() && parent_a[i] == parent_b[i] {
                        assert_eq!(a[i].to_bits(), parent_a[i].to_bits(), "{case}: gene {i}");
                        assert_eq!(b[i].to_bits(), parent_b[i].to_bits(), "{case}: gene {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn moead_one_child_use_matches_the_reference() {
        // MOEA/D keeps the first child of each crossover; the second
        // child's genes are still computed but dropped.
        let mut cases = StdRng::seed_from_u64(47);
        let mut scratch = SbxScratch::new();
        for n in [23, 608] {
            let (parent_a, parent_b, bounds) = random_case(&mut cases, n);
            let mut rng = StdRng::seed_from_u64(cases.gen());
            let mut reference_rng = rng.clone();
            for _ in 0..20 {
                let (child, _) =
                    crossover(&parent_a, &parent_b, &bounds, 20.0, &mut rng, &mut scratch);
                let (reference, _) = reference_sbx_crossover(
                    &parent_a,
                    &parent_b,
                    &bounds,
                    20.0,
                    &mut reference_rng,
                );
                assert_eq!(bits(&child), bits(&reference));
                assert_eq!(rng.state(), reference_rng.state());
            }
        }
    }

    /// A generator that counts the words it yields.
    struct Counting {
        rng: StdRng,
        read: usize,
    }

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.read += 1;
            self.rng.next_u64()
        }
    }

    #[test]
    fn crossing_counts_are_binomial_and_spread_factors_follow_sbx() {
        // 608 genes, 444 of them (73%) differing, at x1 = 1 and x2 = −1, so
        // a crossing gene's first child is its β (to rounding).
        let (n, d, calls) = (608, 444, 4_000);
        let parent_a = vec![1.0; n];
        let parent_b: Vec<f64> = (0..n).map(|i| if i < d { -1.0 } else { 1.0 }).collect();
        let bounds = wide(n);
        for eta in [2.0, 15.0] {
            let mut rng = Counting {
                rng: StdRng::seed_from_u64(2_032),
                read: 0,
            };
            let mut scratch = SbxScratch::new();
            let mut counts = Vec::with_capacity(calls);
            let mut betas = Vec::new();
            for _ in 0..calls {
                let before = rng.read;
                let (child, _) =
                    crossover(&parent_a, &parent_b, &bounds, eta, &mut rng, &mut scratch);
                counts.push((rng.read - before - n.div_ceil(64)) as f64);
                betas.extend(child[..d].iter().filter(|&&c| c != 1.0));
                assert!(child[d..].iter().all(|&c| c == 1.0));
            }
            // Mean and variance within four standard errors of
            // Binomial(d, ½)'s.
            let c = calls as f64;
            let mean = counts.iter().sum::<f64>() / c;
            let variance = counts.iter().map(|k| (k - mean).powi(2)).sum::<f64>() / (c - 1.0);
            let (expected_mean, expected_variance) = (d as f64 / 2.0, d as f64 / 4.0);
            let mean_error = 4.0 * (expected_variance / c).sqrt();
            assert!(
                (mean - expected_mean).abs() <= mean_error,
                "η {eta}: mean {mean} against {expected_mean} ± {mean_error}"
            );
            let variance_error = 4.0 * expected_variance * (2.0 / c).sqrt();
            assert!(
                (variance - expected_variance).abs() <= variance_error,
                "η {eta}: variance {variance} against {expected_variance} ± {variance_error}"
            );
            // Kolmogorov–Smirnov against SBX's CDF, at the 0.1% level.
            let cdf = |beta: f64| {
                if beta <= 1.0 {
                    0.5 * beta.powf(eta + 1.0)
                } else {
                    1.0 - 0.5 * beta.powf(-(eta + 1.0))
                }
            };
            betas.sort_by(f64::total_cmp);
            let m = betas.len() as f64;
            let distance = betas
                .iter()
                .enumerate()
                .map(|(i, &beta)| {
                    let f = cdf(beta);
                    (f - i as f64 / m).max((i + 1) as f64 / m - f)
                })
                .fold(0.0, f64::max);
            let bound = 1.95 / m.sqrt();
            assert!(
                distance <= bound,
                "η {eta}: KS distance {distance} over {m} spreads, bound {bound}"
            );
        }
    }

    /// [`polynomial_mutation`]'s move of one selected gene of positive width
    /// on the perturbation word `word`, as the gene-by-gene loop wrote it,
    /// with the kernel's `pow` in place of `powf`.
    fn moved(x: f64, (lower, upper): (f64, f64), eta_m: f64, word: u64) -> f64 {
        let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let exponent = SplitExponent::new(1.0 / (eta_m + 1.0));
        let delta = if u == 0.0 {
            -1.0
        } else if u < 0.5 {
            pow(2.0 * u, exponent) - 1.0
        } else {
            1.0 - pow(2.0 * (1.0 - u), exponent)
        };
        (x + delta * (upper - lower)).clamp(lower, upper)
    }

    /// A word whose gap at probability `p` is `gap`: `1 − u` is
    /// `(1 − p)^(gap + ½)`, halfway between the cuts of `gap` and `gap + 1`.
    fn gap_word(p: f64, gap: usize) -> u64 {
        let u = 1.0 - (1.0 - p).powf(gap as f64 + 0.5);
        let top = (u * (1u64 << 53) as f64) as u64;
        assert!(top < 1 << 53, "gap {gap} is beyond the word at p {p}");
        top << 11
    }

    /// Perturbation words: `u` of 0 (the gene moves to its lower bound),
    /// below ½, exactly ½ and above it, so both arms of `delta` are read.
    const PERTURB: [u64; 4] = [0, 0x3456_789a_bcde_f012, 1 << 63, 0xedcb_a987_6543_2100];

    /// Mutates `x` on a script of `words` (η = 20) and asserts that every
    /// word was read and that the children are `x` with each `(gene, word)`
    /// of `moves` applied, bit for bit.
    fn assert_mutation_on_script(
        x: &[f64],
        bounds: &[(f64, f64)],
        p: f64,
        words: &[u64],
        moves: &[(usize, u64)],
        case: &str,
    ) {
        let mut expected = x.to_vec();
        for &(gene, word) in moves {
            expected[gene] = moved(x[gene], bounds[gene], 20.0, word);
        }
        let mut child = x.to_vec();
        // Reading past the script panics on its index.
        let mut rng = Script::new(words.to_vec());
        polynomial_mutation(&mut child, bounds, p, 20.0, &mut rng);
        assert_eq!(bits(&child), bits(&expected), "{case}: children");
        assert_eq!(rng.read, words.len(), "{case}: words read");
    }

    /// Eight genes in `[-1, 3]`, one of them (gene 5) of zero width.
    fn contract_case() -> (Vec<f64>, Vec<(f64, f64)>) {
        let x = vec![0.25, -0.75, 1.5, 2.875, 0.0, 0.45, -1.0, 3.0];
        let mut bounds = vec![(-1.0, 3.0); 8];
        bounds[5] = (0.45, 0.45);
        (x, bounds)
    }

    #[test]
    fn mutation_at_probability_zero_reads_nothing() {
        let (x, bounds) = contract_case();
        for p in [0.0, -0.0] {
            assert_mutation_on_script(&x, &bounds, p, &[], &[], &format!("p {p}"));
        }
    }

    /// At `p = 1` on [`contract_case`]: the script of one perturbation word
    /// per positive-width gene, and the moves it makes.
    fn every_gene_script() -> (Vec<u64>, Vec<(usize, u64)>) {
        let genes = [0, 1, 2, 3, 4, 6, 7];
        let words: Vec<u64> = (0..genes.len()).map(|k| PERTURB[k % 4]).collect();
        let moves = genes.into_iter().zip(words.clone()).collect();
        (words, moves)
    }

    #[test]
    fn mutation_at_probability_one_reads_one_word_per_positive_width_gene() {
        let (x, bounds) = contract_case();
        let (words, moves) = every_gene_script();
        assert_mutation_on_script(&x, &bounds, 1.0, &words, &moves, "p 1");
    }

    #[test]
    fn a_first_gap_past_the_last_gene_ends_the_call_after_one_word() {
        let (x, bounds) = contract_case();
        // The largest word, and first gaps of exactly the genes left, one
        // more and many more.
        for p in [1.0 / 608.0, 0.01, 0.25, 0.5] {
            let mut words = vec![u64::MAX];
            if p < 0.5 {
                words.extend([gap_word(p, 8), gap_word(p, 9), gap_word(p, 100)]);
            }
            for word in words {
                assert_mutation_on_script(
                    &x,
                    &bounds,
                    p,
                    &[word],
                    &[],
                    &format!("p {p}, {word:#x}"),
                );
            }
        }
    }

    #[test]
    fn gaps_of_zero_the_genes_left_and_one_more() {
        let (x, bounds) = contract_case();
        let p = 0.25;
        let gap = |g| gap_word(p, g);
        // Gaps of 0: genes 0, 1 and 2 in turn; then 3 to gene 6; then a gap
        // of exactly the genes left (one), or one more, ends the call.
        for last in [1, 2] {
            assert_mutation_on_script(
                &x,
                &bounds,
                p,
                &[
                    gap(0),
                    PERTURB[0],
                    gap(0),
                    PERTURB[1],
                    gap(0),
                    PERTURB[2],
                    gap(3),
                    PERTURB[3],
                    gap(last),
                ],
                &[
                    (0, PERTURB[0]),
                    (1, PERTURB[1]),
                    (2, PERTURB[2]),
                    (6, PERTURB[3]),
                ],
                &format!("gaps 0, 0, 0, 3, then {last}"),
            );
        }
        // A gap of one less than the genes left selects the last gene, and
        // no gap is drawn after it.
        assert_mutation_on_script(
            &x,
            &bounds,
            p,
            &[gap(7), PERTURB[1]],
            &[(7, PERTURB[1])],
            "the last gene first",
        );
        assert_mutation_on_script(
            &x,
            &bounds,
            p,
            &[gap(3), PERTURB[2], gap(3), PERTURB[3]],
            &[(3, PERTURB[2]), (7, PERTURB[3])],
            "genes 3 and 7",
        );
        // Gaps exactly on an integer: at p = ½, `1 − u = 2⁻ᵏ` gives exactly
        // k. A gap of 3 selects gene 3; then 4, exactly the genes left, ends
        // the call; so does 8 as the first gap.
        let exact = |k: u32| {
            let word = ((1u64 << 53) - (1 << (53 - k))) << 11;
            let u = (word >> 11) as f64 / (1u64 << 53) as f64;
            let (k_ln2, rest) = ln_parts(1.0 - u);
            assert_eq!((k_ln2 + rest) / ln_1p(-0.5), f64::from(k));
            word
        };
        assert_mutation_on_script(
            &x,
            &bounds,
            0.5,
            &[exact(3), PERTURB[1], exact(4)],
            &[(3, PERTURB[1])],
            "exact gaps 3, then 4",
        );
        assert_mutation_on_script(
            &x,
            &bounds,
            0.5,
            &[exact(8)],
            &[],
            "an exact first gap of 8",
        );
        // The largest word reads the gap at `1 − u = 2⁻⁵³`: 127 at p = 0.25,
        // and 1 just below p = 1.
        assert_mutation_on_script(
            &[0.5; 128],
            &[(0.0, 1.0); 128],
            p,
            &[u64::MAX, 0],
            &[(127, 0)],
            "gap 127",
        );
        assert_mutation_on_script(
            &[0.5; 2],
            &[(0.0, 1.0); 2],
            1.0 - f64::EPSILON,
            &[u64::MAX, 0],
            &[(1, 0)],
            "gap 1 at 1 − ε",
        );
    }

    #[test]
    fn a_selected_zero_width_gene_reads_no_perturbation_word() {
        let (x, bounds) = contract_case();
        for p in [0.01, 0.25, 0.5] {
            assert_mutation_on_script(
                &x,
                &bounds,
                p,
                &[gap_word(p, 5), gap_word(p, 0), PERTURB[1], gap_word(p, 1)],
                &[(6, PERTURB[1])],
                &format!("p {p}, gene 5 then 6"),
            );
        }
    }

    #[test]
    fn subnormal_and_out_of_range_probabilities_clamp() {
        let (x, bounds) = contract_case();
        // The smallest subnormal: `ln(1 − p)` is `−p`, and every word but
        // `u = 0` gives an infinite gap, which ends the call and is never
        // converted.
        let tiny = f64::from_bits(1);
        assert_eq!(ln_1p(-tiny), -tiny);
        for word in [1 << 11, PERTURB[1], PERTURB[2], u64::MAX] {
            assert_mutation_on_script(&x, &bounds, tiny, &[word], &[], &format!("{word:#x}"));
        }
        // `u = 0` makes the argument 1 and the gap 0, at any `p`.
        assert_mutation_on_script(
            &x,
            &bounds,
            tiny,
            &[0, PERTURB[3], u64::MAX],
            &[(0, PERTURB[3])],
            "u = 0",
        );
        // Above 1 clamps to 1, and below 0 to 0.
        let (words, moves) = every_gene_script();
        for p in [1.0 + f64::EPSILON, 1.5, 1e300, f64::INFINITY] {
            assert_mutation_on_script(&x, &bounds, p, &words, &moves, &format!("p {p}"));
        }
        for p in [-tiny, -0.25, -1e300, f64::NEG_INFINITY] {
            assert_mutation_on_script(&x, &bounds, p, &[], &[], &format!("p {p}"));
        }
    }

    /// Counts mutated genes over `calls` seeded calls at `n` genes in
    /// `[0, 1]` from 0.5 (a mutated gene moves unless `u` is exactly ½).
    /// Returns the per-call counts and the per-position hit counts.
    fn mutation_counts(n: usize, p: f64, calls: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let bounds = vec![(0.0, 1.0); n];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = vec![0.5; n];
        let mut per_call = Vec::with_capacity(calls);
        let mut per_position = vec![0; n];
        for _ in 0..calls {
            polynomial_mutation(&mut x, &bounds, p, 20.0, &mut rng);
            let mut count = 0;
            for (hits, xi) in per_position.iter_mut().zip(x.iter_mut()) {
                if *xi != 0.5 {
                    *hits += 1;
                    count += 1;
                    *xi = 0.5;
                }
            }
            per_call.push(count);
        }
        (per_call, per_position)
    }

    #[test]
    fn mutated_gene_counts_follow_the_binomial_and_positions_are_uniform() {
        for n in [23usize, 608] {
            for p in [1.0 / n as f64, 0.1, 0.5] {
                let calls = if n == 23 { 40_000 } else { 8_000 };
                let (per_call, per_position) = mutation_counts(n, p, calls, 2_029);
                let c = calls as f64;
                let mean = per_call.iter().sum::<usize>() as f64 / c;
                let variance = per_call
                    .iter()
                    .map(|&k| (k as f64 - mean).powi(2))
                    .sum::<f64>()
                    / (c - 1.0);
                let (expected_mean, expected_variance) = (n as f64 * p, n as f64 * p * (1.0 - p));
                // Four standard errors of the mean and of the variance (the
                // binomial's excess kurtosis is below 1 here).
                let mean_error = 4.0 * (expected_variance / c).sqrt();
                assert!(
                    (mean - expected_mean).abs() <= mean_error,
                    "n {n}, p {p}: mean {mean} against {expected_mean} ± {mean_error}"
                );
                let variance_error = 4.0 * expected_variance * (3.0 / c).sqrt();
                assert!(
                    (variance - expected_variance).abs() <= variance_error,
                    "n {n}, p {p}: variance {variance} against {expected_variance} ± {variance_error}"
                );
                // Each position is hit Binomial(calls, p) times, independently.
                let chi_squared: f64 = per_position
                    .iter()
                    .map(|&hits| (hits as f64 - c * p).powi(2) / (c * p * (1.0 - p)))
                    .sum();
                let (df, spread) = (n as f64, 4.0 * (2.0 * n as f64).sqrt());
                assert!(
                    (chi_squared - df).abs() <= spread,
                    "n {n}, p {p}: χ² {chi_squared} over {n} positions"
                );
            }
        }
    }
}

#[cfg(test)]
mod kernels {
    //! Every compiled instance of SBX's vector kernels gives the scalar
    //! kernel's bits: the spread kernel (4 lanes, then a scalar tail of 1–3)
    //! against [`spread_factor`] gene by gene, and the packed differ mask
    //! (groups of 8) against the per-gene [`differ`] fold. Without AVX2 the
    //! AVX2 instance is skipped, with a SKIPPED line on stderr.

    use std::io::Write;

    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    use super::tests::{powf_spread_factor, unit, SPREAD_ULPS};
    use super::{
        differ, sbx_differ_mask, sbx_spread_factors, spread_exponent, spread_factor, KernelInstance,
    };

    /// The instances this CPU runs.
    fn instances() -> Vec<KernelInstance> {
        assert!(
            KernelInstance::Portable.runs(),
            "every CPU runs the portable instance"
        );
        if !KernelInstance::Avx2.runs() {
            let _ = writeln!(
                std::io::stderr(),
                "operators: SKIPPED the 4-lane AVX2 kernel instance: this CPU has no AVX2"
            );
            return vec![KernelInstance::Portable];
        }
        vec![KernelInstance::Portable, KernelInstance::Avx2]
    }

    /// The widest `powf` distance the module's table states at `eta`: its
    /// row at the largest η not above `eta`, or its first row below it.
    fn powf_ulps(eta: f64) -> u64 {
        SPREAD_ULPS
            .iter()
            .rev()
            .find(|&&(at, _)| at <= eta)
            .unwrap_or(&SPREAD_ULPS[0])
            .1
    }

    #[test]
    fn every_spread_kernel_instance_gives_the_scalar_kernels_bits() {
        let mut rng = StdRng::seed_from_u64(2_037);
        let mut spreads: Vec<f64> = (0..1_000_000).map(|_| unit(rng.next_u64())).collect();
        // `u` of 0, 2⁻⁵³, ½, the next `f64` above ½, and 1 − 2⁻⁵³, each
        // at every lane of a chunk and of a tail.
        let edges = [
            0.0,
            f64::EPSILON / 2.0,
            0.5,
            0.5f64.next_up(),
            1.0 - f64::EPSILON / 2.0,
        ];
        for k in 0..9 {
            spreads.extend(edges.iter().cycle().skip(k).take(edges.len()));
        }
        let instances = instances();
        for eta in [0.0, 0.5, 15.0, 20.0, 100.0] {
            let exponent = spread_exponent(eta);
            let ulps = powf_ulps(eta);
            let expected: Vec<f64> = spreads
                .iter()
                .map(|&u| spread_factor(u, exponent))
                .collect();
            for (&u, &beta) in spreads.iter().zip(&expected) {
                let reference = powf_spread_factor(u, eta);
                let distance = beta.to_bits().abs_diff(reference.to_bits());
                assert!(
                    beta.is_finite() && distance <= ulps,
                    "η {eta}, u {u}: β {beta:e} is {distance} ulps from powf's {reference:e}"
                );
            }
            for &kernels in &instances {
                // Calls of 1 to 9 spreads in turn, so every tail of 1–3
                // lanes and every lane of a chunk sees every kind of `u`.
                let mut betas = spreads.clone();
                let mut start = 0;
                for length in (1..=9).cycle() {
                    let end = (start + length).min(betas.len());
                    sbx_spread_factors(kernels, &mut betas[start..end], eta);
                    start = end;
                    if start == betas.len() {
                        break;
                    }
                }
                for ((&u, &beta), &scalar) in spreads.iter().zip(&betas).zip(&expected) {
                    assert_eq!(
                        beta.to_bits(),
                        scalar.to_bits(),
                        "{kernels:?}, η {eta}, u {u}: β {beta:e} against the scalar {scalar:e}"
                    );
                }
            }
        }
    }

    /// Gene pairs at every edge of the differ predicate.
    fn edge_pair(rng: &mut StdRng) -> (f64, f64) {
        let (inf, nan, cut) = (f64::INFINITY, f64::NAN, 1e-14);
        let x: f64 = rng.gen_range(-1.0..1.0);
        let pair = match rng.gen_range(0..16u32) {
            0 => (nan, x),
            1 => (x, nan),
            2 => (nan, nan),
            3 => (inf, inf),
            4 => (-inf, -inf),
            5 => (inf, -inf),
            6 => (inf, x),
            7 => (-0.0, 0.0),
            8 => (0.0, -0.0),
            // Exactly 1e-14 apart (crosses), and its neighbours.
            9 => (0.0, cut),
            10 => (0.0, cut.next_down()),
            11 => (cut.next_up(), 0.0),
            12 => (x, x),
            13 => (x, x + rng.gen_range(-2e-14..2e-14)),
            _ => (x, rng.gen_range(-1.0..1.0)),
        };
        if rng.gen_bool(0.5) {
            pair
        } else {
            (pair.1, pair.0)
        }
    }

    #[test]
    fn every_packed_differ_mask_instance_gives_the_per_gene_fold() {
        let mut rng = StdRng::seed_from_u64(2_038);
        let instances = instances();
        for n in 1..=130 {
            for _ in 0..40 {
                let (parent_a, parent_b): (Vec<f64>, Vec<f64>) =
                    (0..n).map(|_| edge_pair(&mut rng)).unzip();
                for (chunk_a, chunk_b) in parent_a.chunks(64).zip(parent_b.chunks(64)) {
                    let fold = chunk_a
                        .iter()
                        .zip(chunk_b)
                        .enumerate()
                        .fold(0, |mask, (j, (&x1, &x2))| mask | differ(x1, x2) << j);
                    for &kernels in &instances {
                        let mask = sbx_differ_mask(kernels, chunk_a, chunk_b);
                        assert_eq!(
                            mask, fold,
                            "{kernels:?}, n {n}: {mask:#x} against the fold's {fold:#x}"
                        );
                    }
                }
            }
        }
    }
}

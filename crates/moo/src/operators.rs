//! Variation and selection operators used by NSGA-II, MOEA/D and PMO2.

use rand::Rng;

use crate::{constrained_dominates, Individual};

/// Reusable buffers for [`sbx_crossover`]: per crossing gene its index, and
/// its spread `u` (then its β). They grow to the longest genome crossed and
/// are reused across calls; `Nsga2` and `Moead` each keep one. They hold no
/// run state: a checkpoint never carries them, and a fresh scratch gives the
/// same children.
#[derive(Debug, Clone, Default)]
pub struct SbxScratch {
    /// Slot `k`: the index of the `k`-th crossing gene.
    genes: Vec<usize>,
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
/// decision vectors.
///
/// Returns two children; each gene is crossed with probability 0.5 (otherwise
/// copied), using the distribution index `eta_c` (larger values produce
/// children closer to their parents). Children are clamped to `bounds`.
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
/// kernel over all crossing genes (fdlibm's `e_log.c` and `e_exp.c`
/// polynomials), for `eta_c ≥ 0`. It is exact at `u = 0` (β = 0) and
/// `u = ½` (β = 1), and within 1 ulp of `powf` from η = 0.5 up (the
/// module's tests pin the bound per η).
///
/// # Panics
///
/// Panics if the parents or bounds have inconsistent lengths, or if a
/// crossing gene's bounds have `lower > upper` or a NaN end.
pub fn sbx_crossover<R: Rng>(
    parent_a: &[f64],
    parent_b: &[f64],
    bounds: &[(f64, f64)],
    eta_c: f64,
    rng: &mut R,
    scratch: &mut SbxScratch,
) -> (Vec<f64>, Vec<f64>) {
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
    let SbxScratch { genes, betas } = scratch;

    // The crossing genes of each chunk of 64 are its coin word's set bits
    // among the genes whose parents differ.
    genes.clear();
    for (w, (chunk_a, chunk_b)) in parent_a.chunks(64).zip(parent_b.chunks(64)).enumerate() {
        let coins = rng.next_u64();
        let mut crossing = chunk_a
            .iter()
            .zip(chunk_b)
            .enumerate()
            .fold(0, |mask, (j, (&x1, &x2))| mask | differ(x1, x2) << j)
            & coins;
        while crossing != 0 {
            genes.push(64 * w + crossing.trailing_zeros() as usize);
            crossing &= crossing - 1;
        }
    }

    let exponent = SpreadExponent::new(eta_c);
    betas.clear();
    betas.extend(genes.iter().map(|_| rng.next_f64()));
    for beta in betas.iter_mut() {
        *beta = spread_factor(*beta, exponent);
    }

    let mut child_a = parent_a.to_vec();
    let mut child_b = parent_b.to_vec();
    for (&i, &beta) in genes.iter().zip(betas.iter()) {
        let (x1, x2) = (parent_a[i], parent_b[i]);
        let (lower, upper) = bounds[i];
        child_a[i] = (0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)).clamp(lower, upper);
        child_b[i] = (0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)).clamp(lower, upper);
    }
    (child_a, child_b)
}

/// 1 when two parent genes are to be crossed (they are unequal and differ
/// by at least 1e-14, or either is NaN), else 0. The equality test keeps
/// equal infinities, whose difference is NaN, from crossing into NaN.
fn differ(x1: f64, x2: f64) -> u64 {
    u64::from((x1 == x2) | ((x1 - x2).abs() < 1e-14)) ^ 1
}

/// SBX's spread exponent `1 / (η + 1)`, and its split into a high part of
/// 10 significant bits and the rest, so that the high part times
/// `k · LN2_HI` is exact.
#[derive(Debug, Clone, Copy)]
struct SpreadExponent {
    full: f64,
    hi: f64,
    lo: f64,
}

impl SpreadExponent {
    fn new(eta_c: f64) -> Self {
        let full = 1.0 / (eta_c + 1.0);
        let hi = f64::from_bits(full.to_bits() & !((1 << 43) - 1));
        SpreadExponent {
            full,
            hi,
            lo: full - hi,
        }
    }
}

/// SBX's spread factor β for the spread `u ∈ [0, 1)`: `e^(x · ln 2u)` for
/// `u ≤ ½` and `e^(−x · ln 2(1 − u))` above, at `x = 1 / (η + 1)` for
/// `η ≥ 0`; both bases are exact. The product `±x · ln(base)` is carried to
/// `exp` as a sum of two terms, so its rounding does not grow with the
/// magnitude of `ln(base)` (up to 36 for the smallest base, `2⁻⁵²`).
/// Branch-free, so a loop over many genes overlaps. `u = 0` gives exactly 0
/// and `u = ½` exactly 1.
fn spread_factor(u: f64, exponent: SpreadExponent) -> f64 {
    let low = u <= 0.5;
    let base = if low { 2.0 * u } else { 2.0 * (1.0 - u) };
    let sign = if low { 1.0 } else { -1.0 };
    let (k_ln2, rest) = ln_parts(base);
    let hi = sign * (exponent.hi * k_ln2);
    let lo = sign * (exponent.lo * k_ln2 + exponent.full * rest);
    let beta = exp_sum(hi, lo);
    if base == 0.0 {
        0.0
    } else {
        beta
    }
}

/// `ln 2`, split so that `k · LN2_HI` is exact for `|k| < 2¹¹` (fdlibm).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `ln x` for a positive normal `x` as `(k · LN2_HI, rest)`, the first term
/// exact: fdlibm's `e_log.c` in the branch-free form of FreeBSD's
/// `k_log.h`. With `x = 2ᵏ(1 + f)` and `1 + f` in `[√2/2, √2)`, `rest` is
/// `k · LN2_LO + ln(1 + f)` from a degree-14 polynomial in
/// `s = f / (2 + f)`, within 1 ulp. Any other input gives finite parts.
fn ln_parts(x: f64) -> (f64, f64) {
    const LG: [f64; 7] = [
        f64::from_bits(0x3fe5_5555_5555_5593),
        f64::from_bits(0x3fd9_9999_9997_fa04),
        f64::from_bits(0x3fd2_4924_9422_9359),
        f64::from_bits(0x3fcc_71c5_1d8e_78af),
        f64::from_bits(0x3fc7_4664_96cb_03de),
        f64::from_bits(0x3fc3_9a09_d078_c69f),
        f64::from_bits(0x3fc2_f112_df3e_5244),
    ];
    // Offset the high word so that mantissas from √2/2 carry into the next
    // binade; the biased exponent is then `k + 1023`, and the mantissa is
    // moved back to start at √2/2.
    let bits = x.to_bits().wrapping_add(0x0009_5f62_0000_0000);
    // `k` as an `f64` through the `2⁵²` bias, exact and branch-free.
    let k = f64::from_bits(0x4330_0000_0000_0000 | bits >> 52) - (4_503_599_627_370_496.0 + 1023.0);
    let f = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) + 0x3fe6_a09e_0000_0000) - 1.0;
    let half_f2 = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let odd = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let even = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let rest = f - (half_f2 - (s * (half_f2 + (even + odd)) + k * LN2_LO));
    (k * LN2_HI, rest)
}

/// `e^(hi + lo)` for `|hi + lo| ≤ 708` and `|lo|` well below 1, fdlibm's
/// `e_exp.c` without its branches: `hi + lo = k ln 2 + r` with `k` rounded
/// to nearest and `|r| ≤ ½ ln 2`, a degree-5 rational form in `r`, then
/// `2ᵏ` from its bits. `hi − k · LN2_HI` is exact where it matters (for
/// `k ≠ 0`, when `hi` is a 53-bit product as [`spread_factor`] forms it),
/// so `lo` refines the argument below `hi`'s last bit. Error within 1 ulp.
fn exp_sum(hi: f64, lo: f64) -> f64 {
    const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);
    const P: [f64; 5] = [
        f64::from_bits(0x3fc5_5555_5555_553e),
        f64::from_bits(0xbf66_c16c_16be_bd93),
        f64::from_bits(0x3f11_566a_af25_de2c),
        f64::from_bits(0xbebb_bd41_c5d2_6bf1),
        f64::from_bits(0x3e66_3769_72be_a4d0),
    ];
    // Adding 1.5 · 2⁵² rounds `x / ln 2` to an integer `k` held in the low
    // bits of the sum.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    let shifted = (hi + lo) * INV_LN2 + SHIFT;
    let k = shifted - SHIFT;
    let r_hi = hi - k * LN2_HI;
    let r_lo = k * LN2_LO - lo;
    let r = r_hi - r_lo;
    let r2 = r * r;
    let c = r - r2 * (P[0] + r2 * (P[1] + r2 * (P[2] + r2 * (P[3] + r2 * P[4]))));
    let y = 1.0 - ((r_lo - (r * c) / (2.0 - c)) - r_hi);
    let scale = shifted
        .to_bits()
        .wrapping_sub(SHIFT.to_bits())
        .wrapping_add(1023)
        << 52;
    y * f64::from_bits(scale)
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
/// - `0 < p < 1`: `ln(1 − p)` is computed once per call as
///   `(-p).ln_1p()`, and each gap is `G = ⌊ln(1 − next_f64()) / ln(1 − p)⌋`
///   (the argument lies in `(0, 1]`, so `G ≥ 0` is geometric:
///   `P(G ≥ k) = (1 − p)^k`). From gene `i`, the next selected gene is
///   `i + G`. A gap that reaches past the last gene ends the call, and that
///   gap draw is the call's last; after the last gene is selected no further
///   gap is drawn. The gap is compared as an `f64` with the genes left
///   before it is converted, so a huge or infinite gap cannot overflow.
///
/// A selected gene whose bounds have positive width draws one perturbation
/// word `u` (as `next_f64()`) and moves by `delta · (upper − lower)`, then is
/// clamped; a zero-width gene draws no perturbation word. A call over `n`
/// genes reads about `2np + 1` words.
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
    assert_eq!(x.len(), bounds.len(), "one bound per variable is required");
    let p = mutation_probability.clamp(0.0, 1.0);
    assert!(
        !p.is_nan(),
        "gen_bool probability {p} is outside [0.0, 1.0]"
    );
    let exponent = 1.0 / (eta_m + 1.0);
    if p == 1.0 {
        for (xi, &bound) in x.iter_mut().zip(bounds) {
            perturb(xi, bound, exponent, rng);
        }
    } else if p > 0.0 {
        let log_q = (-p).ln_1p();
        let mut i = 0;
        while i < x.len() {
            let gap = (1.0 - rng.next_f64()).ln() / log_q;
            if gap >= (x.len() - i) as f64 {
                break;
            }
            i += gap as usize;
            perturb(&mut x[i], bounds[i], exponent, rng);
            i += 1;
        }
    }
}

/// Moves one selected gene by a polynomial perturbation of spread `exponent`
/// (`1 / (eta_m + 1)`) within `(lower, upper)`; a gene whose bounds have no
/// positive width stays and draws nothing.
fn perturb<R: Rng>(xi: &mut f64, (lower, upper): (f64, f64), exponent: f64, rng: &mut R) {
    let range = upper - lower;
    if range <= 0.0 {
        return;
    }
    let u = rng.next_f64();
    let delta = if u < 0.5 {
        (2.0 * u).powf(exponent) - 1.0
    } else {
        1.0 - (2.0 * (1.0 - u)).powf(exponent)
    };
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
            let (c1, c2) = sbx_crossover(&a, &b, &bounds(3), 15.0, &mut rng, &mut scratch);
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
            let (c1, _) = sbx_crossover(&a, &b, &bounds(1), 100.0, &mut rng, &mut scratch);
            max_spread = max_spread.max((c1[0] - 0.5).abs());
        }
        assert!(max_spread < 0.3);
    }

    /// `u` as `next_f64` builds it from `word`.
    fn unit(word: u64) -> f64 {
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The spread factor as `powf` computed it before the kernel.
    fn powf_spread_factor(u: f64, eta: f64) -> f64 {
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
    const SPREAD_ULPS: [(f64, u64); 8] = [
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
            let exponent = SpreadExponent::new(eta);
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

    #[test]
    fn the_spread_kernel_is_exact_at_its_edges() {
        for eta in [1e-9, 0.5, 1.0, 15.0, 100.0, 1e9] {
            let exponent = SpreadExponent::new(eta);
            assert_eq!(spread_factor(0.0, exponent).to_bits(), 0.0f64.to_bits());
            assert_eq!(spread_factor(0.5, exponent), 1.0);
            // The largest `u` is 1 − 2⁻⁵³: its base is 2⁵² exactly.
            let largest = unit(u64::MAX);
            assert_eq!(1.0 / (2.0 * (1.0 - largest)), 2f64.powi(52));
            let beta = spread_factor(largest, exponent);
            assert!(beta.is_finite() && beta >= 1.0, "η {eta}: β {beta}");
            let expected = 2f64.powf(52.0 * exponent.full);
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

    use super::{polynomial_mutation, sbx_crossover, spread_factor, SbxScratch, SpreadExponent};
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
            let beta = spread_factor(rng.next_f64(), SpreadExponent::new(eta_c));
            let c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
            let c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
            let (lower, upper) = bounds[i];
            child_a[i] = c1.clamp(lower, upper);
            child_b[i] = c2.clamp(lower, upper);
        }
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
            for _ in 0..4 {
                let (a, b) =
                    sbx_crossover(&parent_a, &parent_b, &bounds, eta, &mut rng, &mut scratch);
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
                SpreadExponent::new(15.0),
            );
            let (x1, x2) = (parent_a[i], parent_b[i]);
            expected_a[i] = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
            expected_b[i] = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
        }
        // Reading past the script panics on its index.
        let mut rng = Script::new(words.to_vec());
        let (a, b) = sbx_crossover(parent_a, parent_b, &bounds, 15.0, &mut rng, scratch);
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
                let (a, b) =
                    sbx_crossover(&parent_a, &parent_b, &bounds, 15.0, &mut rng, &mut scratch);
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
                    sbx_crossover(&parent_a, &parent_b, &bounds, 20.0, &mut rng, &mut scratch);
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
                    sbx_crossover(&parent_a, &parent_b, &bounds, eta, &mut rng, &mut scratch);
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
    /// on the perturbation word `word`, as the gene-by-gene loop wrote it.
    fn moved(x: f64, (lower, upper): (f64, f64), eta_m: f64, word: u64) -> f64 {
        let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let delta = if u < 0.5 {
            (2.0 * u).powf(1.0 / (eta_m + 1.0)) - 1.0
        } else {
            1.0 - (2.0 * (1.0 - u)).powf(1.0 / (eta_m + 1.0))
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
            assert_eq!((1.0 - u).ln() / (-0.5f64).ln_1p(), f64::from(k));
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
        assert_eq!((-tiny).ln_1p(), -tiny);
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

//! Elementary functions without libm: `ln x`, `ln(1 + x)` and `xʸ` from
//! fdlibm's `e_log.c` and `e_exp.c` polynomials, branch-free, so a loop over
//! many values overlaps and vectorizes, and every CPU and C library gives
//! the same bits.
//!
//! The search's every transcendental goes through this module: SBX's spread
//! factors and polynomial mutation's perturbations and gaps (`pathway-moo`),
//! and the analytic leaf model's co-limitation soft minimum
//! (`pathway-photosynthesis`). A vector kernel built on them comes in a
//! portable and an AVX2 instance, picked at run time ([`KernelInstance`]);
//! no instance enables FMA, so every lane runs the scalar code's
//! `+ − × ÷` and bit operations in their order and gives its bits.
//!
//! # Example
//!
//! ```
//! use pathway_linalg::elementary::{ln_parts, pow, SplitExponent};
//!
//! let root = pow(2.0, SplitExponent::new(0.5));
//! assert!((root - 2f64.sqrt()).abs() <= f64::EPSILON);
//! let (k_ln2, rest) = ln_parts(8.0);
//! assert!((k_ln2 + rest - 3.0 * std::f64::consts::LN_2).abs() <= 4.0 * f64::EPSILON);
//! ```

/// A compiled instance of a vector kernel built on this module's
/// functions. Callers run the widest one this CPU has; every instance
/// gives the same bits, and naming one lets tests and benchmarks pin it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelInstance {
    /// Compiled for the baseline target, at whatever width its vectors
    /// have.
    Portable,
    /// The same code compiled for AVX2 (4 `f64` lanes), without FMA.
    Avx2,
}

impl KernelInstance {
    /// The widest instance this CPU runs.
    pub fn widest() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return KernelInstance::Avx2;
        }
        KernelInstance::Portable
    }

    /// Whether this CPU runs this instance.
    pub fn runs(self) -> bool {
        self == KernelInstance::Portable || KernelInstance::widest() == KernelInstance::Avx2
    }
}

/// An exponent `y` of [`pow`], split into a high part of 10 significant
/// bits and the rest, so that the high part times `k · LN2_HI` is exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitExponent {
    full: f64,
    hi: f64,
    lo: f64,
}

impl SplitExponent {
    /// Splits the exponent `y` (finite).
    pub fn new(y: f64) -> Self {
        let hi = f64::from_bits(y.to_bits() & !((1 << 43) - 1));
        SplitExponent {
            full: y,
            hi,
            lo: y - hi,
        }
    }

    /// The exponent times `sign`, which is 1 or −1. Exact, so
    /// `pow(x, e.times_sign(-1.0))` is `pow`'s `x^(−y)`, and a vector kernel
    /// can pick the sign per lane without a branch.
    #[inline(always)]
    pub fn times_sign(self, sign: f64) -> Self {
        SplitExponent {
            full: sign * self.full,
            hi: sign * self.hi,
            lo: sign * self.lo,
        }
    }
}

/// `ln 2`, split so that `k · LN2_HI` is exact for `|k| < 2¹¹` (fdlibm).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `ln x` for a positive normal `x` as `(k · LN2_HI, rest)`, the first term
/// exact: fdlibm's `e_log.c` in the branch-free form of FreeBSD's
/// `k_log.h`. With `x = 2ᵏ(1 + f)` and `1 + f` in `[√2/2, √2)`, `rest` is
/// `k · LN2_LO + ln(1 + f)` from a degree-14 polynomial in
/// `s = f / (2 + f)`. Their sum is within 1 ulp of `ln x`; it is exact
/// (0) at `x = 1`. Any other input gives finite parts.
#[inline(always)]
pub fn ln_parts(x: f64) -> (f64, f64) {
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

/// `ln(1 + x)` for `−1 < x ≤ 1`: `ln u` of the rounded `u = 1 + x` through
/// [`ln_parts`], plus the rounding's share `(x − (u − 1)) / u` (exact
/// numerator: `u − 1` and the difference are Fast2Sum's). Within 2 ulps of
/// `ln_1p`, and `x` itself wherever `1 + x` rounds to 1, so a subnormal `x`
/// stays exact. Branch-free.
#[inline(always)]
pub fn ln_1p(x: f64) -> f64 {
    let u = 1.0 + x;
    let (k_ln2, rest) = ln_parts(u);
    k_ln2 + (rest + (x - (u - 1.0)) / u)
}

/// `e^(hi + lo)` for `|hi + lo| ≤ 708` and `|lo|` well below 1, fdlibm's
/// `e_exp.c` without its branches: `hi + lo = k ln 2 + r` with `k` rounded
/// to nearest and `|r| ≤ ½ ln 2`, a degree-5 rational form in `r`, then
/// `2ᵏ` from its bits. `hi − k · LN2_HI` is exact where it matters (for
/// `k ≠ 0`, when `hi` is a 53-bit product as [`pow`] forms it), so `lo`
/// refines the argument below `hi`'s last bit. Error within 1 ulp; a `lo`
/// of a few units (as [`pow`] forms it for `|y| > 1`) rounds the reduced
/// argument's two parts at their own magnitude and costs a few ulps more.
#[inline(always)]
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

/// `x^y` for a positive normal `x` and `|y · ln x| ≤ 708`, as
/// `e^(y · ln x)`: the product is carried to `exp` as a sum of two terms
/// ([`SplitExponent`]'s high part times `k · LN2_HI` exactly, then the
/// rest), so its rounding does not grow with `|ln x|`. Exact at `x = 1`
/// (1). Branch-free; the accuracy against `powf` per use is pinned by its
/// callers' tests: within 1 ulp for SBX's and mutation's
/// `(2u)^(1/(η+1))` from η = 0.5 up, and the analytic leaf model's uptake,
/// a soft minimum of `r⁻¹⁰` terms under a `−1/10` root, within 3 ulps.
#[inline(always)]
pub fn pow(x: f64, y: SplitExponent) -> f64 {
    let (k_ln2, rest) = ln_parts(x);
    exp_sum(y.hi * k_ln2, y.lo * k_ln2 + y.full * rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A SplitMix64 stream of `f64`s in `[0, 1)`.
    fn units(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn ln_parts_sum_to_within_one_ulp_of_ln() {
        // Log-uniform over the normal range, plus powers of two and the
        // neighbours of 1 and of the √2 split.
        let mut xs: Vec<f64> = units(1, 200_000)
            .into_iter()
            .map(|t| 2f64.powf(-1020.0 + 2040.0 * t))
            .collect();
        xs.extend((-1022..1023).map(|k| 2f64.powi(k)));
        xs.extend([
            1.0,
            1f64.next_up(),
            1f64.next_down(),
            2f64.sqrt(),
            0.5f64.sqrt(),
        ]);
        for x in xs {
            let (k_ln2, rest) = ln_parts(x);
            let ln = k_ln2 + rest;
            assert!(
                ulps(ln, x.ln()) <= 1,
                "x {x:e}: {ln:e} against {:e}",
                x.ln()
            );
        }
        assert_eq!(ln_parts(1.0), (0.0, 0.0));
    }

    #[test]
    fn ln_1p_is_within_two_ulps_of_libm_and_exact_where_one_plus_x_is_one() {
        let mut xs: Vec<f64> = units(2, 200_000)
            .into_iter()
            .map(|t| -(2f64.powf(-60.0 * t)))
            .collect();
        xs.extend(units(3, 100_000).into_iter().map(|t| 2f64.powf(-60.0 * t)));
        xs.extend([1.0, 0.5, -0.5, 1.0 - f64::EPSILON, -(1.0 - f64::EPSILON)]);
        for x in xs {
            let value = ln_1p(x);
            assert!(
                ulps(value, x.ln_1p()) <= 2,
                "x {x:e}: {value:e} against {:e}",
                x.ln_1p()
            );
        }
        for x in [f64::from_bits(1), -f64::from_bits(1), 1e-300, -1e-17, 0.0] {
            assert_eq!(ln_1p(x).to_bits(), x.to_bits(), "x {x:e}");
        }
    }

    #[test]
    fn pow_is_exact_at_one_and_within_two_ulps_of_powf_across_its_range() {
        for y in [-10.0, -0.1, 1.0 / 16.0, 1.0, 1e6] {
            assert_eq!(pow(1.0, SplitExponent::new(y)), 1.0);
        }
        // Bases log-uniform over the normal range, at exponents that keep
        // `|y · ln x|` within 708.
        let bases: Vec<f64> = units(4, 100_000)
            .into_iter()
            .map(|t| 2f64.powf(-1020.0 + 2040.0 * t))
            .collect();
        for y in [0.5, -0.5, 1.0 / 16.0, -0.1, 0.25] {
            let exponent = SplitExponent::new(y);
            for &x in &bases {
                let (value, expected) = (pow(x, exponent), x.powf(y));
                assert!(
                    ulps(value, expected) <= 2,
                    "{x:e}^{y}: {value:e} against {expected:e}"
                );
            }
        }
    }

    #[test]
    fn negating_a_split_exponent_negates_each_part() {
        for y in [1.0 / 16.0, 0.1, 10.0] {
            let negated = SplitExponent::new(y).times_sign(-1.0);
            assert_eq!(negated, SplitExponent::new(-y));
            assert_eq!(SplitExponent::new(y).times_sign(1.0), SplitExponent::new(y));
        }
    }

    #[test]
    fn the_widest_instance_runs() {
        assert!(KernelInstance::Portable.runs());
        assert!(KernelInstance::widest().runs());
    }
}

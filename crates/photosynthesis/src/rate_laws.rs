//! Rate laws for the enzyme-catalysed reactions of the Calvin-cycle model,
//! each with its partial derivatives beside it.
//!
//! All concentrations are in mmol/l and all rates in mmol/(l·s). Every rate
//! law clamps negative substrate concentrations to zero so that transient
//! negative excursions during integration do not produce negative rates in the
//! wrong direction. Each derivative is the right derivative of that clamp:
//! 0 for a negative concentration, the law's own slope from 0 up.
//!
//! Every law computes its value first and then selects 0 where a guard
//! holds, with no early return, so a loop over several designs at once
//! compiles to vector selects. The value a guard discards is never
//! returned, so the results are those of testing the guards first.
//!
//! # Example
//!
//! ```
//! use pathway_photosynthesis::rate_laws;
//!
//! // Rubisco-like carboxylation at saturating substrate runs near Vmax,
//! // where the rate barely moves with the substrate.
//! let v = rate_laws::michaelis_menten(100.0, 2.0, 50.0);
//! assert!(v > 95.0 && v <= 100.0);
//! assert!(rate_laws::michaelis_menten_derivative(100.0, 2.0, 50.0) < 0.1);
//! ```

/// Irreversible single-substrate Michaelis–Menten kinetics:
/// `v = Vmax · S / (Km + S)`.
///
/// # Example
///
/// ```
/// use pathway_photosynthesis::rate_laws::michaelis_menten;
///
/// assert_eq!(michaelis_menten(10.0, 2.0, 2.0), 5.0); // half-saturation at S = Km
/// assert_eq!(michaelis_menten(10.0, 2.0, 0.0), 0.0);
/// ```
#[inline(always)]
pub fn michaelis_menten(vmax: f64, km: f64, substrate: f64) -> f64 {
    let s = substrate.max(0.0);
    let v = vmax * s / (km + s);
    if km + s <= 0.0 {
        0.0
    } else {
        v
    }
}

/// `∂v/∂S` of [`michaelis_menten`]: `Vmax · Km / (Km + S)²` for `S ≥ 0`,
/// and 0 for `S < 0`.
#[inline(always)]
pub fn michaelis_menten_derivative(vmax: f64, km: f64, substrate: f64) -> f64 {
    let denom = km + substrate;
    let slope = vmax * km / (denom * denom);
    if (substrate < 0.0) | (denom <= 0.0) {
        0.0
    } else {
        slope
    }
}

/// Two-substrate (ordered) Michaelis–Menten kinetics:
/// `v = Vmax · A·B / ((Kma + A)(Kmb + B))`.
#[inline(always)]
pub fn michaelis_menten_two_substrates(
    vmax: f64,
    km_a: f64,
    substrate_a: f64,
    km_b: f64,
    substrate_b: f64,
) -> f64 {
    let a = substrate_a.max(0.0);
    let b = substrate_b.max(0.0);
    let denom = (km_a + a) * (km_b + b);
    let v = vmax * a * b / denom;
    if denom <= 0.0 {
        0.0
    } else {
        v
    }
}

/// `(∂v/∂A, ∂v/∂B)` of [`michaelis_menten_two_substrates`]: each factor
/// `X / (Kmx + X)` differentiates as a one-substrate law, the other held;
/// a negative substrate contributes 0 to both.
#[inline(always)]
pub fn michaelis_menten_two_substrates_gradient(
    vmax: f64,
    km_a: f64,
    substrate_a: f64,
    km_b: f64,
    substrate_b: f64,
) -> (f64, f64) {
    let a = substrate_a.max(0.0);
    let b = substrate_b.max(0.0);
    let (da, db) = (km_a + a, km_b + b);
    let degenerate = da * db <= 0.0;
    let d_a = vmax * km_a * b / (da * da * db);
    let d_b = vmax * a * km_b / (da * db * db);
    (
        if degenerate | (substrate_a < 0.0) {
            0.0
        } else {
            d_a
        },
        if degenerate | (substrate_b < 0.0) {
            0.0
        } else {
            d_b
        },
    )
}

/// Michaelis–Menten kinetics with a competitive inhibitor:
/// `v = Vmax · S / (Km (1 + I/Ki) + S)`.
#[inline(always)]
pub fn competitive_inhibition(vmax: f64, km: f64, substrate: f64, inhibitor: f64, ki: f64) -> f64 {
    let s = substrate.max(0.0);
    let i = inhibitor.max(0.0);
    let km_eff = km * (1.0 + i / ki.max(f64::MIN_POSITIVE));
    michaelis_menten(vmax, km_eff, s)
}

/// `(∂v/∂S, ∂v/∂I)` of [`competitive_inhibition`]: with the apparent
/// `Km' = Km (1 + I/Ki)`, `∂v/∂S = Vmax · Km' / (Km' + S)²` and
/// `∂v/∂I = −Vmax · S · (Km/Ki) / (Km' + S)²`; a negative concentration
/// contributes 0.
#[inline(always)]
pub fn competitive_inhibition_gradient(
    vmax: f64,
    km: f64,
    substrate: f64,
    inhibitor: f64,
    ki: f64,
) -> (f64, f64) {
    let s = substrate.max(0.0);
    let i = inhibitor.max(0.0);
    let ki = ki.max(f64::MIN_POSITIVE);
    let km_eff = km * (1.0 + i / ki);
    let d_s = michaelis_menten_derivative(vmax, km_eff, s);
    let denom = km_eff + s;
    let d_i = -vmax * s * (km / ki) / (denom * denom);
    (
        if substrate < 0.0 { 0.0 } else { d_s },
        if (inhibitor < 0.0) | (denom <= 0.0) {
            0.0
        } else {
            d_i
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The central difference of `f` at `x`, one-sided from 0 up, as the
    /// right derivative of the clamp is.
    fn central(f: impl Fn(f64) -> f64, x: f64) -> f64 {
        let h = 1e-6 * (1.0 + x);
        if x < h {
            (f(x + h) - f(x)) / h
        } else {
            (f(x + h) - f(x - h)) / (2.0 * h)
        }
    }

    /// Agreement to `1e-6` relative to the larger slope.
    fn close(exact: f64, difference: f64) -> bool {
        (exact - difference).abs() <= 1e-6 * (1.0 + exact.abs().max(difference.abs()))
    }

    #[test]
    fn derivatives_at_zero_are_the_right_derivatives() {
        // Half saturation's slope is Vmax / (4 Km); at 0 it is Vmax / Km.
        assert_eq!(michaelis_menten_derivative(8.0, 2.0, 2.0), 1.0);
        assert_eq!(michaelis_menten_derivative(8.0, 2.0, 0.0), 4.0);
        // With B absent, A's slope is 0 and B's is Vmax · A / ((Ka + A) Kb).
        let (d_a, d_b) = michaelis_menten_two_substrates_gradient(10.0, 1.0, 1.0, 2.0, 0.0);
        assert_eq!((d_a, d_b), (0.0, 2.5));
        // Without substrate the inhibitor has nothing to slow.
        let (d_s, d_i) = competitive_inhibition_gradient(10.0, 1.0, 0.0, 5.0, 1.0);
        assert_eq!((d_s, d_i), (10.0 / 6.0, 0.0));
    }

    #[test]
    fn michaelis_menten_limits() {
        // Zero substrate gives zero rate; saturating substrate approaches Vmax.
        assert_eq!(michaelis_menten(7.0, 1.0, 0.0), 0.0);
        assert!(michaelis_menten(7.0, 1.0, 1e6) > 6.99);
        // Half saturation at S = Km.
        assert!((michaelis_menten(8.0, 2.0, 2.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn negative_substrate_is_clamped() {
        assert_eq!(michaelis_menten(5.0, 1.0, -3.0), 0.0);
        assert_eq!(
            michaelis_menten_two_substrates(5.0, 1.0, -3.0, 1.0, 2.0),
            0.0
        );
        assert_eq!(competitive_inhibition(5.0, 1.0, -3.0, 1.0, 1.0), 0.0);
    }

    #[test]
    fn two_substrate_rate_needs_both_substrates() {
        assert_eq!(
            michaelis_menten_two_substrates(10.0, 1.0, 0.0, 1.0, 5.0),
            0.0
        );
        assert_eq!(
            michaelis_menten_two_substrates(10.0, 1.0, 5.0, 1.0, 0.0),
            0.0
        );
        let v = michaelis_menten_two_substrates(10.0, 1.0, 100.0, 1.0, 100.0);
        assert!(v > 9.5);
    }

    #[test]
    fn competitive_inhibition_raises_apparent_km() {
        let uninhibited = competitive_inhibition(10.0, 1.0, 1.0, 0.0, 1.0);
        let inhibited = competitive_inhibition(10.0, 1.0, 1.0, 5.0, 1.0);
        assert!(inhibited < uninhibited);
        // At saturating substrate the competitive inhibitor loses its grip.
        let saturated = competitive_inhibition(10.0, 1.0, 1e6, 5.0, 1.0);
        assert!(saturated > 9.9);
    }

    proptest! {
        #[test]
        fn prop_mm_monotone_in_substrate(vmax in 0.1f64..100.0, km in 0.01f64..10.0, s in 0.0f64..100.0) {
            let v1 = michaelis_menten(vmax, km, s);
            let v2 = michaelis_menten(vmax, km, s + 1.0);
            prop_assert!(v2 >= v1);
            prop_assert!(v1 >= 0.0 && v1 <= vmax);
        }

        #[test]
        fn prop_mm_bounded_by_vmax(vmax in 0.1f64..100.0, km in 0.01f64..10.0, s in 0.0f64..1e6) {
            prop_assert!(michaelis_menten(vmax, km, s) <= vmax);
        }

        #[test]
        fn prop_mm_derivative_matches_central_differences(
            vmax in 0.1f64..100.0,
            km in 0.01f64..10.0,
            s in 0.0f64..100.0,
        ) {
            let central = central(|x| michaelis_menten(vmax, km, x), s);
            let exact = michaelis_menten_derivative(vmax, km, s);
            prop_assert!(close(exact, central), "{exact} vs {central}");
        }

        #[test]
        fn prop_two_substrate_gradient_matches_central_differences(
            vmax in 0.1f64..100.0,
            km_a in 0.01f64..10.0,
            a in 0.0f64..100.0,
            km_b in 0.01f64..10.0,
            b in 0.0f64..100.0,
        ) {
            let (d_a, d_b) = michaelis_menten_two_substrates_gradient(vmax, km_a, a, km_b, b);
            let c_a = central(|x| michaelis_menten_two_substrates(vmax, km_a, x, km_b, b), a);
            let c_b = central(|x| michaelis_menten_two_substrates(vmax, km_a, a, km_b, x), b);
            prop_assert!(close(d_a, c_a), "{d_a} vs {c_a}");
            prop_assert!(close(d_b, c_b), "{d_b} vs {c_b}");
        }

        #[test]
        fn prop_inhibition_gradient_matches_central_differences(
            vmax in 0.1f64..100.0,
            km in 0.01f64..10.0,
            s in 0.0f64..100.0,
            i in 0.0f64..100.0,
            ki in 0.01f64..10.0,
        ) {
            let (d_s, d_i) = competitive_inhibition_gradient(vmax, km, s, i, ki);
            let c_s = central(|x| competitive_inhibition(vmax, km, x, i, ki), s);
            let c_i = central(|x| competitive_inhibition(vmax, km, s, x, ki), i);
            prop_assert!(close(d_s, c_s), "{d_s} vs {c_s}");
            prop_assert!(close(d_i, c_i), "{d_i} vs {c_i}");
        }

        #[test]
        fn prop_derivatives_vanish_below_zero(
            vmax in 0.1f64..100.0,
            km in 0.01f64..10.0,
            s in 0.0f64..100.0,
            negative in -100.0f64..-1e-12,
        ) {
            prop_assert_eq!(michaelis_menten_derivative(vmax, km, negative), 0.0);
            let (d_a, d_b) = michaelis_menten_two_substrates_gradient(vmax, km, negative, km, s);
            prop_assert_eq!((d_a, d_b), (0.0, 0.0));
            let (d_s, d_i) = competitive_inhibition_gradient(vmax, km, negative, s, 0.1);
            prop_assert_eq!((d_s, d_i), (0.0, 0.0));
            prop_assert_eq!(competitive_inhibition_gradient(vmax, km, s, negative, 0.1).1, 0.0);
        }

        #[test]
        fn prop_inhibition_never_accelerates(
            vmax in 0.1f64..100.0,
            km in 0.01f64..10.0,
            s in 0.0f64..100.0,
            i in 0.0f64..100.0,
            ki in 0.01f64..10.0,
        ) {
            let base = michaelis_menten(vmax, km, s);
            prop_assert!(competitive_inhibition(vmax, km, s, i, ki) <= base + 1e-12);
        }
    }
}

//! Rate laws for the enzyme-catalysed reactions of the Calvin-cycle model.
//!
//! All concentrations are in mmol/l and all rates in mmol/(l·s). Every rate
//! law clamps negative substrate concentrations to zero so that transient
//! negative excursions during integration do not produce negative rates in the
//! wrong direction.

/// Irreversible single-substrate Michaelis–Menten kinetics:
/// `v = Vmax · S / (Km + S)`.
///
/// # Example
///
/// ```
/// use pathway_kinetics::rate_laws::michaelis_menten;
///
/// assert_eq!(michaelis_menten(10.0, 2.0, 2.0), 5.0); // half-saturation at S = Km
/// assert_eq!(michaelis_menten(10.0, 2.0, 0.0), 0.0);
/// ```
pub fn michaelis_menten(vmax: f64, km: f64, substrate: f64) -> f64 {
    let s = substrate.max(0.0);
    if km + s <= 0.0 {
        return 0.0;
    }
    vmax * s / (km + s)
}

/// Two-substrate (ordered) Michaelis–Menten kinetics:
/// `v = Vmax · A·B / ((Kma + A)(Kmb + B))`.
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
    if denom <= 0.0 {
        return 0.0;
    }
    vmax * a * b / denom
}

/// Michaelis–Menten kinetics with a competitive inhibitor:
/// `v = Vmax · S / (Km (1 + I/Ki) + S)`.
pub fn competitive_inhibition(vmax: f64, km: f64, substrate: f64, inhibitor: f64, ki: f64) -> f64 {
    let s = substrate.max(0.0);
    let i = inhibitor.max(0.0);
    let km_eff = km * (1.0 + i / ki.max(f64::MIN_POSITIVE));
    michaelis_menten(vmax, km_eff, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

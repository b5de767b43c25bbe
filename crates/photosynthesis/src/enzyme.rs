use std::fmt;

/// Stable identifier of an enzyme within a model.
///
/// Models assign indices in their own enzyme tables; the newtype keeps those
/// indices from being confused with metabolite or reaction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnzymeId(pub usize);

impl fmt::Display for EnzymeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "enzyme#{}", self.0)
    }
}

/// Kinetic constants of an enzyme-catalysed reaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KineticConstants {
    /// Turnover number k_cat in 1/s (substrate molecules per active site per second).
    pub k_cat: f64,
    /// Michaelis constant K_m in mmol/l for the primary substrate.
    pub k_m: f64,
}

impl KineticConstants {
    /// Creates a constant set.
    ///
    /// # Panics
    ///
    /// Panics if either constant is not strictly positive and finite.
    pub fn new(k_cat: f64, k_m: f64) -> Self {
        assert!(k_cat.is_finite() && k_cat > 0.0, "k_cat must be positive");
        assert!(k_m.is_finite() && k_m > 0.0, "K_m must be positive");
        KineticConstants { k_cat, k_m }
    }

    /// Maximum catalytic rate `Vmax = k_cat * [E]` for an enzyme concentration
    /// in mmol/l; the result is in mmol/(l·s). The models take their Vmax
    /// from a partition's capacities instead, so only the tests ask.
    #[cfg(test)]
    fn vmax(&self, enzyme_concentration: f64) -> f64 {
        self.k_cat * enzyme_concentration
    }
}

/// A catalytic protein of a metabolic model.
///
/// The protein-nitrogen accounting of the paper needs the molecular weight and
/// the turnover number: the nitrogen invested in sustaining a catalytic
/// capacity `v` scales as `v · MW / k_cat` (a slow, heavy enzyme is expensive).
///
/// # Example
///
/// ```
/// use pathway_photosynthesis::{Enzyme, KineticConstants};
///
/// let rubisco = Enzyme::new("Rubisco", KineticConstants::new(3.5, 10.9), 550_000.0)
///     .with_nitrogen_fraction(0.16);
/// assert_eq!(rubisco.name(), "Rubisco");
/// assert!(rubisco.nitrogen_per_catalytic_unit() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Enzyme {
    name: String,
    constants: KineticConstants,
    /// Molecular weight in g/mol.
    molecular_weight: f64,
    /// Mass fraction of nitrogen in the protein (defaults to 0.16, the
    /// canonical protein nitrogen content).
    nitrogen_fraction: f64,
}

impl Enzyme {
    /// Canonical nitrogen mass fraction of protein.
    pub const DEFAULT_NITROGEN_FRACTION: f64 = 0.16;

    /// Creates an enzyme record.
    ///
    /// # Panics
    ///
    /// Panics if `molecular_weight` is not strictly positive and finite.
    pub fn new(
        name: impl Into<String>,
        constants: KineticConstants,
        molecular_weight: f64,
    ) -> Self {
        assert!(
            molecular_weight.is_finite() && molecular_weight > 0.0,
            "molecular weight must be positive"
        );
        Enzyme {
            name: name.into(),
            constants,
            molecular_weight,
            nitrogen_fraction: Self::DEFAULT_NITROGEN_FRACTION,
        }
    }

    /// Overrides the nitrogen mass fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    #[must_use]
    pub fn with_nitrogen_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "nitrogen fraction must be in (0, 1]"
        );
        self.nitrogen_fraction = fraction;
        self
    }

    /// Human-readable name (e.g. `"SBPase"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Nitrogen mass (mg) tied up per unit of catalytic capacity
    /// (mmol substrate · l⁻¹ · s⁻¹), following the paper's accounting
    /// `[Enzyme]·MW / k_cat` scaled by the protein nitrogen fraction.
    pub fn nitrogen_per_catalytic_unit(&self) -> f64 {
        self.nitrogen_fraction * self.molecular_weight / self.constants.k_cat
    }
}

impl fmt::Display for Enzyme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (k_cat {:.3} 1/s, K_m {:.3} mM, MW {:.0} g/mol)",
            self.name, self.constants.k_cat, self.constants.k_m, self.molecular_weight
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kinetic_constants_accessors() {
        let k = KineticConstants::new(10.0, 0.5);
        assert_eq!(k.vmax(2.0), 20.0);
    }

    #[test]
    #[should_panic(expected = "k_cat must be positive")]
    fn zero_kcat_panics() {
        let _ = KineticConstants::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "K_m must be positive")]
    fn negative_km_panics() {
        let _ = KineticConstants::new(1.0, -1.0);
    }

    #[test]
    fn enzyme_nitrogen_accounting() {
        let e = Enzyme::new("SBPase", KineticConstants::new(20.0, 0.1), 80_000.0);
        // 0.16 * 80000 / 20 = 640 mg nitrogen per catalytic unit.
        assert!((e.nitrogen_per_catalytic_unit() - 640.0).abs() < 1e-9);
    }

    #[test]
    fn heavier_or_slower_enzymes_cost_more_nitrogen() {
        let light = Enzyme::new("fast", KineticConstants::new(100.0, 1.0), 50_000.0);
        let heavy = Enzyme::new("slow", KineticConstants::new(3.0, 1.0), 550_000.0);
        assert!(heavy.nitrogen_per_catalytic_unit() > light.nitrogen_per_catalytic_unit());
    }

    #[test]
    fn nitrogen_fraction_override() {
        let e =
            Enzyme::new("x", KineticConstants::new(1.0, 1.0), 1000.0).with_nitrogen_fraction(0.5);
        assert!((e.nitrogen_per_catalytic_unit() - 500.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "nitrogen fraction must be in (0, 1]")]
    fn invalid_nitrogen_fraction_panics() {
        let _ =
            Enzyme::new("x", KineticConstants::new(1.0, 1.0), 1000.0).with_nitrogen_fraction(1.5);
    }

    #[test]
    fn display_contains_name_and_constants() {
        let e = Enzyme::new("PRK", KineticConstants::new(5.0, 0.2), 90_000.0);
        let s = format!("{e}");
        assert!(s.contains("PRK"));
        assert!(s.contains("90000"));
        assert_eq!(format!("{}", EnzymeId(3)), "enzyme#3");
    }

    proptest! {
        #[test]
        fn prop_vmax_is_linear_in_concentration(
            k_cat in 0.1f64..100.0,
            conc in 0.0f64..10.0,
        ) {
            let k = KineticConstants::new(k_cat, 1.0);
            prop_assert!((k.vmax(2.0 * conc) - 2.0 * k.vmax(conc)).abs() < 1e-9);
        }
    }
}

use std::fmt;
use std::ops::Index;
use std::sync::LazyLock;

use crate::nitrogen;

use crate::enzymes::{EnzymeKind, ENZYME_COUNT};

/// The nitrogen accounting of the 23 enzymes, built once: the per-enzyme
/// cost `MW/k_cat` of one unit of capacity, and the calibration factor that
/// maps the surrogate's raw `Σ cost·capacity` sum onto the paper's reported
/// total of 208 330 mg/l for the natural leaf (see `DESIGN.md`,
/// "Substitutions").
struct NitrogenAccounting {
    costs: [f64; ENZYME_COUNT],
    scale: f64,
}

static NITROGEN: LazyLock<NitrogenAccounting> = LazyLock::new(|| {
    let costs = EnzymeKind::ALL.map(|kind| kind.to_enzyme().nitrogen_per_catalytic_unit());
    let natural = EnzymeKind::ALL.map(EnzymeKind::natural_capacity);
    let raw = nitrogen::total_from_costs(&costs, &natural);
    NitrogenAccounting {
        costs,
        scale: EnzymePartition::NATURAL_NITROGEN / raw,
    }
});

/// A 23-dimensional enzyme partition: the catalytic capacity (Vmax, µmol m⁻²
/// s⁻¹) assigned to each enzyme of the C3 carbon-metabolism model.
///
/// This is the decision vector of the paper's leaf-redesign problem. The
/// natural leaf is [`EnzymePartition::natural`]; candidate re-engineered
/// leaves are obtained by scaling individual enzymes (the paper's Figure 2
/// reports exactly those per-enzyme ratios).
///
/// # Example
///
/// ```
/// use pathway_photosynthesis::{EnzymeKind, EnzymePartition};
///
/// let natural = EnzymePartition::natural();
/// let engineered = natural.with_scaled(EnzymeKind::Rubisco, 0.5);
/// assert!(engineered.total_nitrogen() < natural.total_nitrogen());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnzymePartition {
    capacities: Vec<f64>,
}

impl EnzymePartition {
    /// Total protein nitrogen of the natural leaf in mg/l, as reported in the
    /// paper (Figure 1: "Oper. Nitrogen Conc.: 208330 ± 10% mg l⁻¹").
    pub const NATURAL_NITROGEN: f64 = 208_330.0;

    /// Creates a partition from explicit capacities.
    ///
    /// # Panics
    ///
    /// Panics if `capacities.len() != ENZYME_COUNT` or any value is negative
    /// or non-finite.
    pub fn new(capacities: Vec<f64>) -> Self {
        assert_eq!(
            capacities.len(),
            ENZYME_COUNT,
            "an enzyme partition has exactly {ENZYME_COUNT} entries"
        );
        assert!(
            capacities.iter().all(|c| c.is_finite() && *c >= 0.0),
            "capacities must be finite and non-negative"
        );
        EnzymePartition { capacities }
    }

    /// The natural (unengineered) leaf partition.
    pub fn natural() -> Self {
        EnzymePartition::new(
            EnzymeKind::ALL
                .iter()
                .map(|kind| kind.natural_capacity())
                .collect(),
        )
    }

    /// Capacity of one enzyme.
    pub fn capacity(&self, kind: EnzymeKind) -> f64 {
        self.capacities[kind.index()]
    }

    /// All capacities in Figure 2 order.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Returns a copy with one enzyme's capacity replaced.
    #[must_use]
    pub fn with_capacity(&self, kind: EnzymeKind, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "capacity must be finite and non-negative"
        );
        let mut capacities = self.capacities.clone();
        capacities[kind.index()] = capacity;
        EnzymePartition { capacities }
    }

    /// Returns a copy with one enzyme's capacity multiplied by `factor`.
    #[must_use]
    pub fn with_scaled(&self, kind: EnzymeKind, factor: f64) -> Self {
        self.with_capacity(kind, self.capacity(kind) * factor)
    }

    /// Returns a copy with every capacity multiplied by `factor`.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be non-negative"
        );
        EnzymePartition::new(self.capacities.iter().map(|c| c * factor).collect())
    }

    /// Total protein nitrogen of the partition in mg/l, following the paper's
    /// `Σ xᵢ·MWᵢ/k_catᵢ` accounting calibrated so that the natural leaf sums
    /// to [`EnzymePartition::NATURAL_NITROGEN`].
    pub fn total_nitrogen(&self) -> f64 {
        nitrogen::total_from_costs(&NITROGEN.costs, &self.capacities) * NITROGEN.scale
    }

    /// Per-enzyme nitrogen breakdown in mg/l (same calibration as
    /// [`EnzymePartition::total_nitrogen`]).
    pub fn nitrogen_breakdown(&self) -> Vec<f64> {
        let NitrogenAccounting { costs, scale } = &*NITROGEN;
        costs
            .iter()
            .zip(&self.capacities)
            .map(|(cost, capacity)| cost * capacity.max(0.0) * scale)
            .collect()
    }

    /// Per-enzyme ratio of this partition to the natural one, i.e. the bars of
    /// the paper's Figure 2.
    pub fn ratio_to_natural(&self) -> Vec<f64> {
        EnzymeKind::ALL
            .iter()
            .map(|kind| self.capacity(*kind) / kind.natural_capacity())
            .collect()
    }

    /// Search-space bounds used by the optimizers: each capacity may range
    /// from `lower_factor` to `upper_factor` times its natural value.
    ///
    /// The paper observes re-engineered candidates staying roughly within
    /// 0.05×–2× of the natural concentration; the leaf problems search a
    /// wider 0.02×–4× box so that those candidates are interior points.
    pub fn bounds(lower_factor: f64, upper_factor: f64) -> Vec<(f64, f64)> {
        assert!(lower_factor >= 0.0 && upper_factor > lower_factor);
        EnzymeKind::ALL
            .iter()
            .map(|kind| {
                let natural = kind.natural_capacity();
                (natural * lower_factor, natural * upper_factor)
            })
            .collect()
    }
}

impl Index<EnzymeKind> for EnzymePartition {
    type Output = f64;

    fn index(&self, kind: EnzymeKind) -> &f64 {
        &self.capacities[kind.index()]
    }
}

impl From<EnzymePartition> for Vec<f64> {
    fn from(partition: EnzymePartition) -> Self {
        partition.capacities
    }
}

impl fmt::Display for EnzymePartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "enzyme partition (total N {:.0} mg/l):",
            self.total_nitrogen()
        )?;
        for kind in EnzymeKind::ALL {
            writeln!(f, "  {:<24} {:>10.3}", kind.name(), self.capacity(kind))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn natural_partition_matches_the_papers_nitrogen_budget() {
        let natural = EnzymePartition::natural();
        assert!((natural.total_nitrogen() - EnzymePartition::NATURAL_NITROGEN).abs() < 1.0);
    }

    #[test]
    fn nitrogen_breakdown_sums_to_total() {
        let natural = EnzymePartition::natural();
        let sum: f64 = natural.nitrogen_breakdown().iter().sum();
        assert!((sum - natural.total_nitrogen()).abs() < 1e-6);
    }

    #[test]
    fn rubisco_dominates_the_natural_nitrogen_budget() {
        let natural = EnzymePartition::natural();
        let breakdown = natural.nitrogen_breakdown();
        let rubisco = breakdown[EnzymeKind::Rubisco.index()];
        assert!(rubisco > 0.5 * natural.total_nitrogen());
    }

    #[test]
    fn ratio_to_natural_is_one_for_the_natural_leaf() {
        let natural = EnzymePartition::natural();
        for ratio in natural.ratio_to_natural() {
            assert!((ratio - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn with_scaled_changes_only_one_enzyme() {
        let natural = EnzymePartition::natural();
        let engineered = natural.with_scaled(EnzymeKind::Sbpase, 2.0);
        for kind in EnzymeKind::ALL {
            let expected = if kind == EnzymeKind::Sbpase { 2.0 } else { 1.0 };
            let ratio = engineered.capacity(kind) / natural.capacity(kind);
            assert!((ratio - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn halving_rubisco_frees_a_large_share_of_nitrogen() {
        let natural = EnzymePartition::natural();
        let engineered = natural.with_scaled(EnzymeKind::Rubisco, 0.5);
        let saved = natural.total_nitrogen() - engineered.total_nitrogen();
        assert!(saved / natural.total_nitrogen() > 0.25);
    }

    #[test]
    fn scaled_partition_scales_nitrogen_linearly() {
        let natural = EnzymePartition::natural();
        let doubled = natural.scaled(2.0);
        assert!((doubled.total_nitrogen() - 2.0 * natural.total_nitrogen()).abs() < 1e-6);
    }

    #[test]
    fn bounds_contain_the_natural_partition() {
        let natural = EnzymePartition::natural();
        let bounds = EnzymePartition::bounds(0.02, 4.0);
        assert_eq!(bounds.len(), ENZYME_COUNT);
        for (capacity, (lower, upper)) in natural.capacities().iter().zip(bounds.iter()) {
            assert!(capacity >= lower && capacity <= upper);
        }
    }

    #[test]
    #[should_panic(expected = "exactly 23 entries")]
    fn wrong_length_panics() {
        let _ = EnzymePartition::new(vec![1.0; 5]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_capacity_panics() {
        let mut caps = vec![1.0; ENZYME_COUNT];
        caps[0] = -1.0;
        let _ = EnzymePartition::new(caps);
    }

    #[test]
    fn indexing_and_conversion() {
        let natural = EnzymePartition::natural();
        assert_eq!(natural[EnzymeKind::Rubisco], 40.0);
        let raw: Vec<f64> = natural.clone().into();
        assert_eq!(raw.len(), ENZYME_COUNT);
        let display = format!("{natural}");
        assert!(display.contains("Rubisco"));
    }

    proptest! {
        #[test]
        fn prop_nitrogen_is_monotone_in_every_enzyme(
            index in 0usize..ENZYME_COUNT,
            factor in 1.0f64..5.0,
        ) {
            let natural = EnzymePartition::natural();
            let kind = EnzymeKind::from_index(index);
            let increased = natural.with_scaled(kind, factor);
            prop_assert!(increased.total_nitrogen() >= natural.total_nitrogen());
        }
    }
}

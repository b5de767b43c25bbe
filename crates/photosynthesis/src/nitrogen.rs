//! Protein-nitrogen accounting.
//!
//! The paper's leaf-redesign problem minimizes the total protein nitrogen the
//! leaf has to invest to sustain a set of enzyme activities. Following the
//! caption of Figure 2, the nitrogen of a partition `x` is
//! `Σ_i x_i · MW_i / k_cat,i` scaled by the protein nitrogen mass fraction —
//! fast, light enzymes are cheap; slow, heavy ones (Rubisco) dominate the
//! budget.

use crate::Enzyme;

/// Total protein nitrogen (mg/l) required to sustain the catalytic capacities
/// in `capacities` (mmol·l⁻¹·s⁻¹ per enzyme, i.e. the Vmax of each step).
///
/// # Panics
///
/// Panics if the two slices have different lengths.
///
/// # Example
///
/// ```
/// use pathway_photosynthesis::{Enzyme, KineticConstants, nitrogen};
///
/// let enzymes = vec![
///     Enzyme::new("Rubisco", KineticConstants::new(3.5, 10.9), 550_000.0),
///     Enzyme::new("SBPase", KineticConstants::new(20.0, 0.1), 80_000.0),
/// ];
/// let n = nitrogen::total_nitrogen(&enzymes, &[1.0, 0.5]);
/// assert!(n > 0.0);
/// ```
pub fn total_nitrogen(enzymes: &[Enzyme], capacities: &[f64]) -> f64 {
    assert_eq!(
        enzymes.len(),
        capacities.len(),
        "one catalytic capacity per enzyme is required"
    );
    enzymes
        .iter()
        .zip(capacities.iter())
        .map(|(enzyme, &capacity)| enzyme.nitrogen_per_catalytic_unit() * capacity.max(0.0))
        .sum()
}

/// [`total_nitrogen`] over precomputed per-enzyme costs, with
/// `costs[i] = enzymes[i].nitrogen_per_catalytic_unit()`.
///
/// The terms and their summation order are those of [`total_nitrogen`], so
/// the result is bit-identical; an oracle that evaluates many partitions of
/// one enzyme set computes the costs once and calls this.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn total_from_costs(costs: &[f64], capacities: &[f64]) -> f64 {
    assert_eq!(
        costs.len(),
        capacities.len(),
        "one catalytic capacity per enzyme is required"
    );
    costs
        .iter()
        .zip(capacities.iter())
        .map(|(&cost, &capacity)| cost * capacity.max(0.0))
        .sum()
}

/// Per-enzyme nitrogen breakdown (mg/l), same ordering as the inputs.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn nitrogen_breakdown(enzymes: &[Enzyme], capacities: &[f64]) -> Vec<f64> {
    assert_eq!(
        enzymes.len(),
        capacities.len(),
        "one catalytic capacity per enzyme is required"
    );
    enzymes
        .iter()
        .zip(capacities.iter())
        .map(|(enzyme, &capacity)| enzyme.nitrogen_per_catalytic_unit() * capacity.max(0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KineticConstants;
    use proptest::prelude::*;

    fn sample_enzymes() -> Vec<Enzyme> {
        vec![
            Enzyme::new("Rubisco", KineticConstants::new(3.5, 10.9), 550_000.0),
            Enzyme::new("SBPase", KineticConstants::new(20.0, 0.1), 80_000.0),
            Enzyme::new("PRK", KineticConstants::new(200.0, 0.05), 90_000.0),
        ]
    }

    #[test]
    fn total_is_sum_of_breakdown() {
        let enzymes = sample_enzymes();
        let caps = [1.0, 2.0, 0.5];
        let breakdown = nitrogen_breakdown(&enzymes, &caps);
        let total = total_nitrogen(&enzymes, &caps);
        assert!((breakdown.iter().sum::<f64>() - total).abs() < 1e-9);
    }

    #[test]
    fn rubisco_dominates_the_budget_at_equal_capacity() {
        let enzymes = sample_enzymes();
        let breakdown = nitrogen_breakdown(&enzymes, &[1.0, 1.0, 1.0]);
        assert!(breakdown[0] > breakdown[1]);
        assert!(breakdown[0] > breakdown[2]);
    }

    #[test]
    fn negative_capacities_do_not_produce_negative_nitrogen() {
        let enzymes = sample_enzymes();
        assert_eq!(total_nitrogen(&enzymes, &[-1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "one catalytic capacity per enzyme")]
    fn mismatched_lengths_panic() {
        let enzymes = sample_enzymes();
        let _ = total_nitrogen(&enzymes, &[1.0]);
    }

    proptest! {
        #[test]
        fn prop_total_nitrogen_is_monotone(
            c0 in 0.0f64..10.0,
            c1 in 0.0f64..10.0,
            c2 in 0.0f64..10.0,
            extra in 0.0f64..5.0,
        ) {
            let enzymes = sample_enzymes();
            let base = total_nitrogen(&enzymes, &[c0, c1, c2]);
            let more = total_nitrogen(&enzymes, &[c0 + extra, c1, c2]);
            prop_assert!(more >= base);
        }

        #[test]
        fn prop_total_from_costs_is_bit_identical_to_total_nitrogen(
            c0 in -1.0f64..10.0,
            c1 in 0.0f64..10.0,
            c2 in 0.0f64..1e6,
        ) {
            let enzymes = sample_enzymes();
            let costs: Vec<f64> = enzymes.iter().map(Enzyme::nitrogen_per_catalytic_unit).collect();
            let capacities = [c0, c1, c2];
            prop_assert_eq!(
                total_from_costs(&costs, &capacities).to_bits(),
                total_nitrogen(&enzymes, &capacities).to_bits()
            );
        }

        #[test]
        fn prop_total_nitrogen_is_homogeneous(
            c0 in 0.0f64..10.0,
            c1 in 0.0f64..10.0,
            k in 0.0f64..4.0,
        ) {
            let enzymes = &sample_enzymes()[..2];
            let base = total_nitrogen(enzymes, &[c0, c1]);
            let scaled = total_nitrogen(enzymes, &[k * c0, k * c1]);
            prop_assert!((scaled - k * base).abs() < 1e-6 * (1.0 + base));
        }
    }
}

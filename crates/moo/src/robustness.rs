//! Robustness analysis (Section 2.3 of the paper).
//!
//! Robustness is the persistence of a system property under perturbation. For
//! an enzyme partition `x̄` and a property function `f` (the CO₂ uptake), the
//! paper defines:
//!
//! * the robustness condition `ρ(x̄, x̄*, f, ε) = 1` iff `|f(x̄) − f(x̄*)| ≤ ε`
//!   (Equation 3), where `x̄*` is a perturbed copy and `ε` is a percentage of
//!   the nominal value;
//! * the yield `Γ(x̄, f, ε)` — the fraction of a Monte-Carlo ensemble `T` of
//!   perturbed copies that satisfies `ρ` (Equation 4).
//!
//! The ensembles follow the paper's protocol: a **global** analysis perturbs
//! every variable simultaneously (5·10³ trials by default) and a **local**
//! analysis perturbs one variable at a time (200 trials per variable), both
//! with a maximum perturbation of ±10% and ε = 5% of the nominal value.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Settings of a robustness analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessOptions {
    /// Maximum relative perturbation per variable (the paper uses 0.10).
    pub perturbation: f64,
    /// Robustness threshold ε as a fraction of the nominal property value
    /// (the paper uses 0.05).
    pub epsilon_fraction: f64,
    /// Ensemble size for the global analysis (the paper uses 5000).
    pub global_trials: usize,
    /// Trials per variable for the local analysis (the paper uses 200).
    pub local_trials: usize,
    /// RNG seed so analyses are reproducible.
    pub seed: u64,
}

impl Default for RobustnessOptions {
    fn default() -> Self {
        RobustnessOptions {
            perturbation: 0.10,
            epsilon_fraction: 0.05,
            global_trials: 5_000,
            local_trials: 200,
            seed: 0xB10_C0DE,
        }
    }
}

/// Result of a robustness (yield) analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessReport {
    /// Nominal property value `f(x̄)`.
    pub nominal: f64,
    /// Yield Γ in `[0, 1]`: fraction of perturbed copies within ε of nominal.
    pub yield_fraction: f64,
    /// Number of trials evaluated.
    pub trials: usize,
    /// Per-variable yields (only populated by the local analysis).
    pub per_variable_yield: Vec<f64>,
}

impl RobustnessReport {
    /// Yield expressed as a percentage, as reported in the paper's Table 2.
    pub fn yield_percent(&self) -> f64 {
        self.yield_fraction * 100.0
    }
}

/// The robustness condition ρ (Equation 3): `1` if the perturbed property
/// value stays within `epsilon` of the nominal value, else `0`.
fn robustness_condition(nominal: f64, perturbed: f64, epsilon: f64) -> u8 {
    u8::from((nominal - perturbed).abs() <= epsilon)
}

/// Global robustness analysis: every variable of `x` is perturbed
/// simultaneously by a uniform factor in `[1 - perturbation, 1 + perturbation]`
/// and the yield Γ (Equation 4) is estimated over the ensemble.
///
/// `property` maps a decision vector to the scalar property of interest (the
/// CO₂ uptake in the paper).
pub fn global_yield<F>(x: &[f64], property: F, options: &RobustnessOptions) -> RobustnessReport
where
    F: Fn(&[f64]) -> f64,
{
    let nominal = property(x);
    let epsilon = options.epsilon_fraction * nominal.abs();
    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut robust = 0usize;
    let mut perturbed = x.to_vec();
    for _ in 0..options.global_trials {
        for (value, &original) in perturbed.iter_mut().zip(x.iter()) {
            let factor = 1.0 + rng.gen_range(-options.perturbation..=options.perturbation);
            *value = original * factor;
        }
        let value = property(&perturbed);
        robust += robustness_condition(nominal, value, epsilon) as usize;
    }
    RobustnessReport {
        nominal,
        yield_fraction: robust as f64 / options.global_trials.max(1) as f64,
        trials: options.global_trials,
        per_variable_yield: Vec::new(),
    }
}

/// Local robustness analysis: one variable at a time is perturbed
/// (`local_trials` times each); the report contains both the per-variable
/// yields and their mean as the overall yield.
pub fn local_yield<F>(x: &[f64], property: F, options: &RobustnessOptions) -> RobustnessReport
where
    F: Fn(&[f64]) -> f64,
{
    let nominal = property(x);
    let epsilon = options.epsilon_fraction * nominal.abs();
    let mut rng = StdRng::seed_from_u64(options.seed.wrapping_add(1));
    let mut per_variable_yield = Vec::with_capacity(x.len());
    let mut perturbed = x.to_vec();
    for variable in 0..x.len() {
        let mut robust = 0usize;
        for _ in 0..options.local_trials {
            let factor = 1.0 + rng.gen_range(-options.perturbation..=options.perturbation);
            perturbed[variable] = x[variable] * factor;
            let value = property(&perturbed);
            robust += robustness_condition(nominal, value, epsilon) as usize;
        }
        perturbed[variable] = x[variable];
        per_variable_yield.push(robust as f64 / options.local_trials.max(1) as f64);
    }
    let mean_yield = if per_variable_yield.is_empty() {
        0.0
    } else {
        per_variable_yield.iter().sum::<f64>() / per_variable_yield.len() as f64
    };
    RobustnessReport {
        nominal,
        yield_fraction: mean_yield,
        trials: options.local_trials * x.len(),
        per_variable_yield,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(global: usize, local: usize) -> RobustnessOptions {
        RobustnessOptions {
            global_trials: global,
            local_trials: local,
            ..Default::default()
        }
    }

    #[test]
    fn rho_matches_equation_3() {
        assert_eq!(robustness_condition(100.0, 104.9, 5.0), 1);
        assert_eq!(robustness_condition(100.0, 105.1, 5.0), 0);
        assert_eq!(robustness_condition(100.0, 95.0, 5.0), 1);
    }

    #[test]
    fn a_flat_property_is_perfectly_robust() {
        let report = global_yield(&[1.0, 2.0, 3.0], |_| 42.0, &options(500, 50));
        assert_eq!(report.yield_fraction, 1.0);
        assert_eq!(report.nominal, 42.0);
        assert_eq!(report.trials, 500);
    }

    #[test]
    fn a_knife_edge_property_is_fragile() {
        // The property jumps by 100% for any perturbation of x[0].
        let property = |x: &[f64]| if (x[0] - 1.0).abs() < 1e-12 { 1.0 } else { 2.0 };
        let report = global_yield(&[1.0, 1.0], property, &options(500, 50));
        assert!(report.yield_fraction < 0.05);
    }

    #[test]
    fn smooth_property_yield_reflects_sensitivity() {
        // f = 10 + x0: a ±10% perturbation of x0=10 moves f by ±1 out of 20,
        // i.e. ±5%; roughly half the trials fall inside the ε = 5% band...
        // actually |Δf| ≤ 1 = ε exactly, so every trial is robust.
        let gentle = global_yield(&[10.0], |x: &[f64]| 10.0 + x[0], &options(2000, 50));
        assert!(gentle.yield_fraction > 0.99);
        // f = x0 alone: a ±10% perturbation moves f by up to ±10% > 5%,
        // and the yield drops to about one half.
        let steep = global_yield(&[10.0], |x: &[f64]| x[0], &options(2000, 50));
        assert!(steep.yield_fraction > 0.3 && steep.yield_fraction < 0.7);
    }

    #[test]
    fn local_analysis_identifies_the_sensitive_variable() {
        // Only x[0] matters; x[1] is inert.
        let property = |x: &[f64]| 10.0 * x[0];
        let report = local_yield(&[1.0, 1.0], property, &options(100, 400));
        assert_eq!(report.per_variable_yield.len(), 2);
        assert!(report.per_variable_yield[1] > 0.99);
        assert!(report.per_variable_yield[0] < report.per_variable_yield[1]);
        assert_eq!(report.trials, 800);
    }

    #[test]
    fn yield_percent_is_scaled() {
        let report = RobustnessReport {
            nominal: 1.0,
            yield_fraction: 0.67,
            trials: 100,
            per_variable_yield: vec![],
        };
        assert!((report.yield_percent() - 67.0).abs() < 1e-12);
    }

    #[test]
    fn analyses_are_reproducible_for_a_fixed_seed() {
        let property = |x: &[f64]| x.iter().sum::<f64>();
        let a = global_yield(&[1.0, 2.0], property, &options(300, 50));
        let b = global_yield(&[1.0, 2.0], property, &options(300, 50));
        assert_eq!(a.yield_fraction, b.yield_fraction);
    }

    #[test]
    fn default_options_match_the_paper_protocol() {
        let defaults = RobustnessOptions::default();
        assert_eq!(defaults.perturbation, 0.10);
        assert_eq!(defaults.epsilon_fraction, 0.05);
        assert_eq!(defaults.global_trials, 5_000);
        assert_eq!(defaults.local_trials, 200);
    }
}

//! A synthetic genome-scale model of *Geobacter sulfurreducens*.
//!
//! The paper optimizes the 608 reaction fluxes of the Mahadevan et al. (2006)
//! reconstruction. That reconstruction is not redistributable, so this module
//! generates a deterministic synthetic stand-in with the same dimensions and
//! the same structural features the experiment exercises:
//!
//! * an acetate uptake bound that limits the available carbon and electrons,
//! * an electron-transfer (Fe(III) reduction) flux — the paper's *electron
//!   production* objective,
//! * a biomass reaction — the paper's *biomass production* objective — that
//!   competes with electron transfer for carbon and reducing equivalents,
//! * an ATP maintenance flux pinned at 0.45 mmol/gDW/h,
//! * hundreds of mass-balanced, reversible internal reactions providing the
//!   redundancy a genome-scale network has.
//!
//! The calibration reproduces the *shape* of the paper's Figure 4: maximum
//! biomass production around 0.30 h⁻¹, electron production around 155–165
//! mmol/gDW/h near that optimum, and a trade-off slope of roughly 160 units of
//! electron production per unit of biomass production.

use pathway_linalg::Bound;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{FbaError, FluxBalanceAnalysis, MetabolicModel};

/// Default number of reactions, matching the Mahadevan et al. reconstruction.
pub const GEOBACTER_REACTIONS: usize = 608;

/// ATP maintenance flux the paper keeps fixed (mmol/gDW/h).
pub const ATP_MAINTENANCE_FLUX: f64 = 0.45;

/// Acetate uptake bound (mmol/gDW/h), the main carbon/electron limit.
const ACETATE_UPTAKE_LIMIT: f64 = 25.8;

/// Ammonium uptake bound (mmol/gDW/h).
const AMMONIUM_UPTAKE_LIMIT: f64 = 0.3;

/// Builder for [`GeobacterModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeobacterBuilder {
    reactions: usize,
    seed: u64,
}

impl Default for GeobacterBuilder {
    fn default() -> Self {
        GeobacterBuilder {
            reactions: GEOBACTER_REACTIONS,
            seed: 0x6E0B,
        }
    }
}

impl GeobacterBuilder {
    /// Sets the total number of reactions (backbone + synthetic redundancy).
    ///
    /// # Panics
    ///
    /// Panics if fewer than 16 reactions are requested (the backbone needs
    /// room).
    #[must_use]
    pub fn reactions(mut self, reactions: usize) -> Self {
        assert!(
            reactions >= 16,
            "the synthetic model needs at least 16 reactions"
        );
        self.reactions = reactions;
        self
    }

    /// Sets the seed of the deterministic redundancy generator.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the synthetic model.
    pub fn build(self) -> GeobacterModel {
        let mut builder = MetabolicModel::builder("geobacter-sulfurreducens-synthetic");

        // Boundary species.
        let ac_ext = builder.add_metabolite("ac_ext", true);
        let fe3_ext = builder.add_metabolite("fe3_ext", true);
        let nh4_ext = builder.add_metabolite("nh4_ext", true);
        let biomass_ext = builder.add_metabolite("biomass_ext", true);
        let sink_ext = builder.add_metabolite("sink_ext", true);

        // Core internal species.
        let acetate = builder.add_metabolite("ac_c", false);
        let nadh = builder.add_metabolite("nadh_c", false);
        let atp = builder.add_metabolite("atp_c", false);
        let nh4 = builder.add_metabolite("nh4_c", false);

        // Backbone reactions.
        builder.add_reaction(
            "acetate_uptake",
            &[(ac_ext, -1.0), (acetate, 1.0)],
            Bound::interval(0.0, ACETATE_UPTAKE_LIMIT),
        );
        builder.add_reaction(
            "ammonium_uptake",
            &[(nh4_ext, -1.0), (nh4, 1.0)],
            Bound::interval(0.0, AMMONIUM_UPTAKE_LIMIT),
        );
        builder.add_reaction(
            "acetate_oxidation",
            &[(acetate, -1.0), (nadh, 8.0)],
            Bound::interval(0.0, 1000.0),
        );
        let electron = builder.add_reaction(
            "electron_transfer",
            &[(nadh, -1.0), (fe3_ext, 1.0)],
            Bound::interval(0.0, 1000.0),
        );
        builder.add_reaction(
            "atp_synthesis",
            &[(nadh, -1.0), (atp, 2.0)],
            Bound::interval(0.0, 1000.0),
        );
        let atp_maintenance = builder.add_reaction(
            "atp_maintenance",
            &[(atp, -1.0), (sink_ext, 1.0)],
            Bound::fixed(ATP_MAINTENANCE_FLUX),
        );
        let biomass = builder.add_reaction(
            "biomass",
            &[
                (acetate, -20.0),
                (nh4, -1.0),
                (atp, -2.0),
                (biomass_ext, 1.0),
            ],
            Bound::interval(0.0, 10.0),
        );

        // Synthetic redundancy: extra internal metabolites connected by
        // reversible, mass-balanced reactions. Zero flux is always feasible,
        // so they enlarge the flux space without breaking the backbone.
        let backbone_reactions = 7;
        let extra_reactions = self.reactions.saturating_sub(backbone_reactions);
        let extra_metabolites = ((extra_reactions * 4) / 5).max(4);
        let mut rng = StdRng::seed_from_u64(self.seed);
        // The synthetic redundancy lives on its own metabolite pool: every
        // generated reaction converts extra metabolites 1:1 (or 2:2), so it is
        // mass-conserving and cannot synthesize carbon, nitrogen, redox power
        // or ATP out of nothing — the backbone calibration stays intact while
        // the flux space still grows to genome scale.
        let mut extra_pool = Vec::with_capacity(extra_metabolites);
        for i in 0..extra_metabolites {
            extra_pool.push(builder.add_metabolite(format!("met_{i:04}"), false));
        }
        for i in 0..extra_reactions {
            let pairs = if rng.gen_bool(0.3) { 2 } else { 1 };
            let mut stoichiometry = Vec::with_capacity(2 * pairs);
            let mut used = std::collections::HashSet::new();
            for k in 0..(2 * pairs) {
                let met = loop {
                    let candidate = extra_pool[rng.gen_range(0..extra_pool.len())];
                    if used.insert(candidate) {
                        break candidate;
                    }
                };
                let sign = if k < pairs { -1.0 } else { 1.0 };
                stoichiometry.push((met, sign));
            }
            builder.add_reaction(
                format!("rxn_{i:04}"),
                &stoichiometry,
                Bound::interval(-1000.0, 1000.0),
            );
        }

        let model = builder
            .build()
            .expect("the synthetic Geobacter backbone is always valid");
        GeobacterModel {
            model,
            biomass_reaction: biomass,
            electron_reaction: electron,
            atp_maintenance_reaction: atp_maintenance,
        }
    }
}

/// The synthetic *G. sulfurreducens* model together with the indices of the
/// fluxes the experiments care about.
#[derive(Debug, Clone, PartialEq)]
pub struct GeobacterModel {
    model: MetabolicModel,
    biomass_reaction: usize,
    electron_reaction: usize,
    atp_maintenance_reaction: usize,
}

impl GeobacterModel {
    /// Starts a builder with the paper-scale defaults (608 reactions).
    pub fn builder() -> GeobacterBuilder {
        GeobacterBuilder::default()
    }

    /// Builds the default paper-scale model.
    pub fn paper_scale() -> Self {
        GeobacterBuilder::default().build()
    }

    /// The underlying stoichiometric model.
    pub fn model(&self) -> &MetabolicModel {
        &self.model
    }

    /// Consumes the wrapper and returns the underlying model.
    pub fn into_model(self) -> MetabolicModel {
        self.model
    }

    /// Index of the biomass production flux.
    pub fn biomass_reaction(&self) -> usize {
        self.biomass_reaction
    }

    /// Index of the electron production (Fe(III) reduction) flux.
    pub fn electron_reaction(&self) -> usize {
        self.electron_reaction
    }

    /// Index of the pinned ATP maintenance flux.
    pub fn atp_maintenance_reaction(&self) -> usize {
        self.atp_maintenance_reaction
    }

    /// Runs FBA maximizing biomass production.
    ///
    /// # Errors
    ///
    /// Propagates LP failures.
    pub fn max_biomass(&self) -> Result<crate::FbaSolution, FbaError> {
        FluxBalanceAnalysis::new(&self.model).maximize_reaction(self.biomass_reaction)
    }

    /// Runs FBA maximizing electron production.
    ///
    /// # Errors
    ///
    /// Propagates LP failures.
    pub fn max_electron(&self) -> Result<crate::FbaSolution, FbaError> {
        FluxBalanceAnalysis::new(&self.model).maximize_reaction(self.electron_reaction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> GeobacterModel {
        GeobacterModel::builder().reactions(96).build()
    }

    #[test]
    fn model_has_the_requested_dimensions() {
        let model = small_model();
        assert_eq!(model.model().num_reactions(), 96);
        assert!(model.model().num_metabolites() > 50);
        let full = GeobacterModel::builder()
            .reactions(GEOBACTER_REACTIONS)
            .build();
        assert_eq!(full.model().num_reactions(), 608);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = GeobacterModel::builder().reactions(64).seed(7).build();
        let b = GeobacterModel::builder().reactions(64).seed(7).build();
        assert_eq!(a, b);
        let c = GeobacterModel::builder().reactions(64).seed(8).build();
        assert_ne!(a, c);
    }

    #[test]
    fn atp_maintenance_is_pinned_at_the_papers_value() {
        let model = small_model();
        let bounds = model.model().flux_bounds();
        let pinned = bounds[model.atp_maintenance_reaction()];
        assert_eq!(pinned.lower, ATP_MAINTENANCE_FLUX);
        assert_eq!(pinned.upper, ATP_MAINTENANCE_FLUX);
    }

    #[test]
    fn named_reactions_resolve() {
        let model = small_model();
        assert_eq!(
            model.model().reaction_index("biomass"),
            Some(model.biomass_reaction())
        );
        assert_eq!(
            model.model().reaction_index("electron_transfer"),
            Some(model.electron_reaction())
        );
    }

    #[test]
    fn fba_reaches_paper_scale_biomass_and_electron_levels() {
        let model = small_model();
        let biomass = model.max_biomass().expect("biomass FBA must be feasible");
        // Biomass is capped by the ammonium uptake bound of 0.3.
        assert!(
            biomass.objective_value > 0.25 && biomass.objective_value < 0.35,
            "max biomass was {}",
            biomass.objective_value
        );
        let electron = model.max_electron().expect("electron FBA must be feasible");
        // All acetate electrons minus the maintenance drain: about 8 * 25.8.
        assert!(
            electron.objective_value > 150.0 && electron.objective_value < 220.0,
            "max electron production was {}",
            electron.objective_value
        );
    }

    #[test]
    fn biomass_and_electron_production_trade_off() {
        let model = small_model();
        let max_biomass = model.max_biomass().unwrap();
        let max_electron = model.max_electron().unwrap();
        let electron_at_max_biomass = max_biomass.fluxes[model.electron_reaction()];
        let biomass_at_max_electron = max_electron.fluxes[model.biomass_reaction()];
        // Maximizing one objective sacrifices the other.
        assert!(electron_at_max_biomass <= max_electron.objective_value + 1e-6);
        assert!(biomass_at_max_electron <= max_biomass.objective_value + 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least 16 reactions")]
    fn too_few_reactions_panics() {
        let _ = GeobacterModel::builder().reactions(4);
    }
}

use pathway_linalg::{simplex, LinearProgram, Objective};

use crate::{FbaError, MetabolicModel};

/// Result of a flux balance analysis solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FbaSolution {
    /// Optimal value of the objective flux.
    pub objective_value: f64,
    /// The full flux vector (one entry per reaction, model order).
    pub fluxes: Vec<f64>,
    /// Number of simplex pivots used, phase 1 included.
    pub iterations: usize,
    /// The phase-1 (feasibility) pivots within `iterations`, shared by every
    /// solution of one [`FluxBalanceAnalysis::maximize_reactions`] call.
    pub phase1_iterations: usize,
}

/// Flux balance analysis over a [`MetabolicModel`]: maximize one reaction
/// flux subject to the steady-state constraint `S·v = 0` and the
/// per-reaction bounds, exactly the LP the COBRA toolbox solves.
///
/// # Example
///
/// ```
/// use pathway_fba::{FluxBalanceAnalysis, geobacter::GeobacterModel};
///
/// # fn main() -> Result<(), pathway_fba::FbaError> {
/// let model = GeobacterModel::builder().reactions(96).build().into_model();
/// let fba = FluxBalanceAnalysis::new(&model);
/// let biomass = model.reaction_index("biomass").expect("biomass reaction exists");
/// let solution = fba.maximize_reaction(biomass)?;
/// assert_eq!(solution.fluxes.len(), model.num_reactions());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FluxBalanceAnalysis<'a> {
    model: &'a MetabolicModel,
}

impl<'a> FluxBalanceAnalysis<'a> {
    /// Creates an analysis bound to a model.
    pub fn new(model: &'a MetabolicModel) -> Self {
        FluxBalanceAnalysis { model }
    }

    /// The steady-state program to maximize, without an objective.
    fn build_program(&self) -> LinearProgram {
        let n = self.model.num_reactions();
        let mut lp = LinearProgram::new(n, Objective::Maximize);
        for (i, bound) in self.model.flux_bounds().into_iter().enumerate() {
            lp.set_bound(i, bound).expect("model bounds are valid");
        }
        let s = self.model.stoichiometric_matrix();
        for row in 0..s.rows() {
            let coefficients: Vec<(usize, f64)> = s.row_entries(row).collect();
            if !coefficients.is_empty() {
                lp.add_equal(&coefficients, 0.0)
                    .expect("stoichiometric coefficients reference valid reactions");
            }
        }
        lp
    }

    /// The objective `v[reaction]`.
    fn flux_objective(&self, reaction: usize) -> Result<Vec<f64>, FbaError> {
        let n = self.model.num_reactions();
        if reaction >= n {
            return Err(FbaError::DimensionMismatch {
                expected: n,
                found: reaction,
            });
        }
        let mut objective = vec![0.0; n];
        objective[reaction] = 1.0;
        Ok(objective)
    }

    /// Maximizes each objective over the steady-state program, sharing one
    /// phase 1.
    fn optimize(&self, objectives: &[Vec<f64>]) -> Result<Vec<FbaSolution>, FbaError> {
        let lp = self.build_program();
        simplex::solve_many(&lp, objectives)?
            .into_iter()
            .map(|solution| {
                let solution = solution?;
                Ok(FbaSolution {
                    objective_value: solution.objective_value,
                    fluxes: solution.variables,
                    iterations: solution.iterations,
                    phase1_iterations: solution.phase1_iterations,
                })
            })
            .collect()
    }

    /// Maximizes the flux through `objective_reaction`.
    ///
    /// # Errors
    ///
    /// Returns an error if the reaction index is out of range or the LP is
    /// infeasible/unbounded.
    pub fn maximize_reaction(&self, objective_reaction: usize) -> Result<FbaSolution, FbaError> {
        let mut solutions = self.maximize_reactions(&[objective_reaction])?;
        Ok(solutions.remove(0))
    }

    /// Maximizes the flux through each reaction of `objective_reactions` in
    /// turn, building the program once and sharing one simplex phase 1. Each
    /// solution is bit-identical to
    /// [`maximize_reaction`](FluxBalanceAnalysis::maximize_reaction) of the
    /// same reaction.
    ///
    /// # Errors
    ///
    /// Same as [`FluxBalanceAnalysis::maximize_reaction`], for any of the
    /// reactions.
    pub fn maximize_reactions(
        &self,
        objective_reactions: &[usize],
    ) -> Result<Vec<FbaSolution>, FbaError> {
        let objectives = objective_reactions
            .iter()
            .map(|&reaction| self.flux_objective(reaction))
            .collect::<Result<Vec<_>, _>>()?;
        self.optimize(&objectives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_models::toy_model;

    #[test]
    fn toy_biomass_is_limited_by_uptake() {
        let model = toy_model();
        let fba = FluxBalanceAnalysis::new(&model);
        let biomass = model.reaction_index("biomass").unwrap();
        let solution = fba.maximize_reaction(biomass).unwrap();
        assert!((solution.objective_value - 10.0).abs() < 1e-6);
        // At the optimum the whole uptake is converted, nothing leaks.
        let leak = model.reaction_index("leak").unwrap();
        assert!(solution.fluxes[leak].abs() < 1e-6);
    }

    #[test]
    fn steady_state_holds_at_the_optimum() {
        let model = toy_model();
        let fba = FluxBalanceAnalysis::new(&model);
        let solution = fba
            .maximize_reaction(model.reaction_index("biomass").unwrap())
            .unwrap();
        let s = model.stoichiometric_matrix();
        let v = pathway_linalg::Vector::from(solution.fluxes.clone());
        let residual = s.mat_vec(&v).unwrap();
        assert!(residual.norm_inf() < 1e-6);
    }

    #[test]
    fn pinning_a_reaction_propagates_to_the_solution() {
        let mut model = toy_model();
        model.pin_reaction("leak", 0.45).unwrap();
        let fba = FluxBalanceAnalysis::new(&model);
        let solution = fba
            .maximize_reaction(model.reaction_index("biomass").unwrap())
            .unwrap();
        let leak = model.reaction_index("leak").unwrap();
        assert!((solution.fluxes[leak] - 0.45).abs() < 1e-6);
        // Biomass loses exactly the pinned leak.
        assert!((solution.objective_value - 9.55).abs() < 1e-6);
    }

    #[test]
    fn maximizing_several_reactions_matches_separate_solves() {
        let model = toy_model();
        let fba = FluxBalanceAnalysis::new(&model);
        let reactions = [
            model.reaction_index("biomass").unwrap(),
            model.reaction_index("leak").unwrap(),
        ];
        let together = fba.maximize_reactions(&reactions).unwrap();
        assert_eq!(together.len(), 2);
        for (solution, &reaction) in together.iter().zip(&reactions) {
            assert_eq!(*solution, fba.maximize_reaction(reaction).unwrap());
            assert_eq!(solution.phase1_iterations, together[0].phase1_iterations);
        }
        assert!(matches!(
            fba.maximize_reactions(&[reactions[0], 99]),
            Err(FbaError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn invalid_reaction_index_is_rejected() {
        let model = toy_model();
        let fba = FluxBalanceAnalysis::new(&model);
        assert!(matches!(
            fba.maximize_reaction(99),
            Err(FbaError::DimensionMismatch { .. })
        ));
    }
}

use pathway_linalg::elementary::KernelInstance;
use pathway_moo::MultiObjectiveProblem;
use pathway_photosynthesis::{EnzymePartition, Scenario, UptakeModel};

/// The paper's leaf-redesign problem: choose the catalytic capacities of the
/// 23 carbon-metabolism enzymes so that CO₂ uptake is maximized while the
/// protein-nitrogen investment is minimized.
///
/// Objectives (both minimized, as required by the optimizer):
///
/// 1. `-uptake` — negated CO₂ uptake in µmol m⁻² s⁻¹;
/// 2. `nitrogen` — total protein nitrogen in mg/l.
///
/// # Example
///
/// ```
/// use pathway_core::LeafRedesignProblem;
/// use pathway_moo::MultiObjectiveProblem;
/// use pathway_photosynthesis::{EnzymePartition, Scenario};
///
/// let problem = LeafRedesignProblem::new(Scenario::present_low_export());
/// let natural = problem.evaluate(EnzymePartition::natural().capacities());
/// assert!(natural[0] < 0.0);       // uptake is positive, so -uptake is negative
/// assert!(natural[1] > 100_000.0); // the natural leaf invests ~208 g/l of nitrogen
/// ```
#[derive(Debug, Clone)]
pub struct LeafRedesignProblem {
    scenario: Scenario,
    model: UptakeModel,
    bounds: Vec<(f64, f64)>,
}

impl LeafRedesignProblem {
    /// Creates the problem for a scenario with the default search box
    /// (0.02×–4× the natural capacity of each enzyme, comfortably containing
    /// the 0.05×–2× range the paper's candidates occupy).
    pub fn new(scenario: Scenario) -> Self {
        LeafRedesignProblem {
            scenario,
            model: UptakeModel::new(),
            bounds: EnzymePartition::bounds(0.02, 4.0),
        }
    }

    /// Overrides the search box as multiples of the natural capacities.
    #[must_use]
    pub fn with_bounds(mut self, lower_factor: f64, upper_factor: f64) -> Self {
        self.bounds = EnzymePartition::bounds(lower_factor, upper_factor);
        self
    }

    /// The scenario being optimized.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// CO₂ uptake of a decision vector (convenience for reports).
    pub fn uptake(&self, x: &[f64]) -> f64 {
        self.model
            .co2_uptake(&EnzymePartition::new(x.to_vec()), &self.scenario)
    }

    /// Protein nitrogen of a decision vector (convenience for reports).
    pub fn nitrogen(&self, x: &[f64]) -> f64 {
        EnzymePartition::new(x.to_vec()).total_nitrogen()
    }
}

impl MultiObjectiveProblem for LeafRedesignProblem {
    fn num_variables(&self) -> usize {
        pathway_photosynthesis::ENZYME_COUNT
    }

    fn num_objectives(&self) -> usize {
        2
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.bounds.clone()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        let partition = EnzymePartition::new(x.to_vec());
        let result = self.model.evaluate(&partition, &self.scenario);
        vec![-result.co2_uptake, result.nitrogen]
    }

    /// Every candidate's objectives as [`MultiObjectiveProblem::evaluate`]
    /// gives them, bit for bit: the uptakes through
    /// [`UptakeModel::co2_uptakes`] (tiles of 8 in the widest instance
    /// this CPU runs) and the nitrogen from each candidate's slice in place,
    /// with [`EnzymePartition::new`]'s checks and panics.
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        let uptakes = self
            .model
            .co2_uptakes(KernelInstance::widest(), xs, &self.scenario);
        xs.iter()
            .zip(uptakes)
            .map(|(x, uptake)| (vec![-uptake, EnzymePartition::total_nitrogen_of(x)], 0.0))
            .collect()
    }

    fn name(&self) -> &str {
        "leaf-redesign"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathway_photosynthesis::EnzymeKind;

    #[test]
    fn dimensions_match_the_paper() {
        let problem = LeafRedesignProblem::new(Scenario::present_low_export());
        assert_eq!(problem.num_variables(), 23);
        assert_eq!(problem.num_objectives(), 2);
        assert_eq!(problem.bounds().len(), 23);
        assert_eq!(problem.name(), "leaf-redesign");
    }

    #[test]
    fn natural_leaf_evaluates_to_the_operating_point() {
        let problem = LeafRedesignProblem::new(Scenario::present_low_export());
        let natural = EnzymePartition::natural();
        let objectives = problem.evaluate(natural.capacities());
        assert!((-objectives[0] - problem.uptake(natural.capacities())).abs() < 1e-12);
        assert!((objectives[1] - EnzymePartition::NATURAL_NITROGEN).abs() < 1.0);
    }

    #[test]
    fn cutting_rubisco_cuts_both_objectives() {
        let problem = LeafRedesignProblem::new(Scenario::present_low_export());
        let natural = EnzymePartition::natural();
        let lean = natural.with_scaled(EnzymeKind::Rubisco, 0.4);
        let natural_obj = problem.evaluate(natural.capacities());
        let lean_obj = problem.evaluate(lean.capacities());
        // Less Rubisco: less nitrogen (objective 2 improves) but less uptake
        // (objective 1, the negated uptake, worsens) — a genuine trade-off.
        assert!(lean_obj[1] < natural_obj[1]);
        assert!(lean_obj[0] > natural_obj[0]);
    }

    #[test]
    fn custom_bounds_are_respected() {
        let problem =
            LeafRedesignProblem::new(Scenario::present_low_export()).with_bounds(0.5, 2.0);
        assert_ne!(
            LeafRedesignProblem::new(Scenario::present_low_export()).bounds(),
            problem.bounds()
        );
        let bounds = problem.bounds();
        let natural = EnzymePartition::natural();
        for (i, (lower, upper)) in bounds.iter().enumerate() {
            let nat = natural.capacities()[i];
            assert!((lower - nat * 0.5).abs() < 1e-9);
            assert!((upper - nat * 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn batched_evaluation_matches_itemwise_calls() {
        let problem = LeafRedesignProblem::new(Scenario::present_low_export());
        let natural = EnzymePartition::natural();
        let lean = natural.with_scaled(EnzymeKind::Rubisco, 0.5);
        let xs = vec![natural.capacities().to_vec(), lean.capacities().to_vec()];
        let batch = problem.evaluate_batch(&xs);
        for (x, (objectives, violation)) in xs.iter().zip(&batch) {
            assert_eq!(objectives, &problem.evaluate(x));
            assert_eq!(*violation, 0.0);
        }
    }

    #[test]
    fn problem_is_unconstrained() {
        let problem = LeafRedesignProblem::new(Scenario::present_low_export());
        assert_eq!(
            problem.constraint_violation(EnzymePartition::natural().capacities()),
            0.0
        );
    }
}

use pathway_moo::robustness::{global_yield, RobustnessOptions};
use pathway_moo::{mining, Individual};
use pathway_photosynthesis::{EnzymePartition, Scenario};

use crate::{GeobacterFluxProblem, GeobacterSolution, LeafRedesignProblem};

/// A re-engineered leaf design: enzyme partition plus its evaluated
/// objectives.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafDesign {
    /// Enzyme partition (catalytic capacities of the 23 enzymes).
    pub partition: EnzymePartition,
    /// Net CO₂ uptake in µmol m⁻² s⁻¹.
    pub uptake: f64,
    /// Total protein nitrogen in mg/l.
    pub nitrogen: f64,
}

/// The four automatically selected designs of the paper's Table 2, each with
/// its robustness yield.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedLeafDesigns {
    /// The design closest to the ideal point, with its yield in percent.
    pub closest_to_ideal: (LeafDesign, f64),
    /// The design with the maximum CO₂ uptake, with its yield in percent.
    pub max_uptake: (LeafDesign, f64),
    /// The design with the minimum nitrogen, with its yield in percent.
    pub min_nitrogen: (LeafDesign, f64),
    /// The screened design with the maximum yield, with its yield in percent.
    pub max_yield: (LeafDesign, f64),
}

/// Result of a leaf-redesign run, built from its front with
/// [`LeafDesignOutcome::from_front`].
#[derive(Debug, Clone)]
pub struct LeafDesignOutcome {
    /// The scenario that was optimized.
    pub scenario: Scenario,
    /// Pareto-optimal leaf designs found by PMO2.
    pub front: Vec<LeafDesign>,
    /// Total number of candidate evaluations spent (population × generations ×
    /// islands), for the paper's "1.83% of the partitions explored" style
    /// statistics.
    pub evaluations: usize,
}

impl LeafDesignOutcome {
    /// Decodes the front of a run over the [`LeafRedesignProblem`] into
    /// leaf designs: objective 0 is the negated CO₂ uptake, objective 1 the
    /// protein nitrogen.
    pub fn from_front(scenario: Scenario, front: Vec<Individual>, evaluations: usize) -> Self {
        let designs = front
            .into_iter()
            .map(|individual| LeafDesign {
                uptake: -individual.objectives[0],
                nitrogen: individual.objectives[1],
                partition: EnzymePartition::new(individual.variables),
            })
            .collect();
        LeafDesignOutcome {
            scenario,
            front: designs,
            evaluations,
        }
    }

    /// The design with the highest CO₂ uptake.
    ///
    /// # Panics
    ///
    /// Panics if the front is empty.
    pub fn max_uptake(&self) -> &LeafDesign {
        self.front
            .iter()
            .max_by(|a, b| a.uptake.partial_cmp(&b.uptake).expect("uptake is finite"))
            .expect("the front is non-empty")
    }

    /// The design with the lowest nitrogen investment.
    ///
    /// # Panics
    ///
    /// Panics if the front is empty.
    pub fn min_nitrogen(&self) -> &LeafDesign {
        self.front
            .iter()
            .min_by(|a, b| {
                a.nitrogen
                    .partial_cmp(&b.nitrogen)
                    .expect("nitrogen is finite")
            })
            .expect("the front is non-empty")
    }

    /// The design closest to the ideal point (normalized objectives).
    ///
    /// # Panics
    ///
    /// Panics if the front is empty.
    pub fn closest_to_ideal(&self) -> &LeafDesign {
        let objectives: Vec<Vec<f64>> = self
            .front
            .iter()
            .map(|d| vec![-d.uptake, d.nitrogen])
            .collect();
        let index = mining::closest_to_ideal(&objectives).expect("the front is non-empty");
        &self.front[index]
    }

    /// The paper's candidate **B**: the design that preserves (at least)
    /// `fraction` of the natural uptake with the smallest nitrogen investment.
    /// Returns `None` if no front member reaches that uptake.
    pub fn candidate_b(&self, fraction: f64) -> Option<&LeafDesign> {
        let target = Scenario::NATURAL_UPTAKE * fraction;
        self.front
            .iter()
            .filter(|d| d.uptake >= target)
            .min_by(|a, b| {
                a.nitrogen
                    .partial_cmp(&b.nitrogen)
                    .expect("nitrogen is finite")
            })
    }

    /// `count` designs spread equally along the front (by uptake), the set the
    /// paper scores for the Figure 3 Pareto surface.
    pub fn spread(&self, count: usize) -> Vec<&LeafDesign> {
        let objectives: Vec<Vec<f64>> = self
            .front
            .iter()
            .map(|d| vec![-d.uptake, d.nitrogen])
            .collect();
        mining::equally_spaced(&objectives, count)
            .into_iter()
            .map(|i| &self.front[i])
            .collect()
    }

    /// Robustness yield Γ (in percent) of one design: the fraction of
    /// Monte-Carlo perturbations (±10% per enzyme) whose uptake stays within
    /// 5% of the design's nominal uptake.
    pub fn robustness_percent(&self, design: &LeafDesign, trials: usize) -> f64 {
        let problem = LeafRedesignProblem::new(self.scenario);
        let options = RobustnessOptions {
            global_trials: trials,
            ..Default::default()
        };
        let report = global_yield(
            design.partition.capacities(),
            |x| problem.uptake(x),
            &options,
        );
        report.yield_percent()
    }

    /// Builds the paper's Table 2: the three automatically selected designs
    /// plus the most robust design among `screen_count` spread candidates.
    ///
    /// # Panics
    ///
    /// Panics if the front is empty.
    pub fn selected_designs(&self, trials: usize, screen_count: usize) -> SelectedLeafDesigns {
        let closest = self.closest_to_ideal().clone();
        let max_uptake = self.max_uptake().clone();
        let min_nitrogen = self.min_nitrogen().clone();
        let closest_yield = self.robustness_percent(&closest, trials);
        let max_uptake_yield = self.robustness_percent(&max_uptake, trials);
        let min_nitrogen_yield = self.robustness_percent(&min_nitrogen, trials);

        let mut best_yield = (closest.clone(), closest_yield);
        for design in self.spread(screen_count) {
            let yield_percent = self.robustness_percent(design, trials);
            if yield_percent > best_yield.1 {
                best_yield = (design.clone(), yield_percent);
            }
        }
        SelectedLeafDesigns {
            closest_to_ideal: (closest, closest_yield),
            max_uptake: (max_uptake, max_uptake_yield),
            min_nitrogen: (min_nitrogen, min_nitrogen_yield),
            max_yield: best_yield,
        }
    }
}

/// Result of a Geobacter flux run, built from its front with
/// [`GeobacterOutcome::from_front`].
#[derive(Debug, Clone)]
pub struct GeobacterOutcome {
    /// Pareto-optimal flux designs (electron production, biomass production,
    /// violation).
    pub front: Vec<GeobacterSolution>,
    /// Steady-state violation of a random flux vector of the same dimension,
    /// the paper's "initial guess" reference (order 10⁶ at paper scale).
    pub initial_violation: f64,
    /// Smallest steady-state violation on the reported front.
    pub best_violation: f64,
}

impl GeobacterOutcome {
    /// Decodes the front of a run over `problem` into flux designs and
    /// measures the paper's "initial guess" reference: the violation of a
    /// random vector in the model's raw flux bounds, drawn with `seed`.
    ///
    /// # Errors
    ///
    /// Propagates the violation computation's dimension check.
    pub fn from_front(
        problem: &GeobacterFluxProblem,
        front: &[Individual],
        seed: u64,
    ) -> Result<Self, pathway_fba::FbaError> {
        let random_guess = pathway_fba::random_flux_vector(problem.model(), 10.0, seed);
        let initial_violation =
            pathway_fba::steady_state_violation(problem.model(), &random_guess)?;
        let front: Vec<GeobacterSolution> = front
            .iter()
            .map(|individual| problem.decode(&individual.variables))
            .collect();
        let best_violation = front
            .iter()
            .map(|s| s.violation)
            .fold(f64::INFINITY, f64::min);
        Ok(GeobacterOutcome {
            front,
            initial_violation,
            best_violation,
        })
    }

    /// The `count` best trade-off points ordered by decreasing biomass, i.e.
    /// the paper's A–E labels in Figure 4.
    pub fn labelled_points(&self, count: usize) -> Vec<GeobacterSolution> {
        let mut sorted = self.front.clone();
        sorted.sort_by(|a, b| {
            b.biomass_production
                .partial_cmp(&a.biomass_production)
                .expect("fluxes are finite")
        });
        sorted.into_iter().take(count).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec_driver, AnyProblem};
    use pathway_moo::engine::{Optimizer, RunSpec};

    /// A two-island archipelago spec (broadcast migration at probability
    /// 0.5) over `problem`, the given budget and the given backend.
    fn archipelago_spec(
        problem: &str,
        population: usize,
        generations: usize,
        migration_interval: usize,
        seed: u64,
        backend: &str,
    ) -> RunSpec {
        RunSpec::from_text(&format!(
            "pathway-spec v1\n[problem]\n{problem}\n\
             [optimizer]\nkind = archipelago\nislands = 2\npopulation = {population}\n\
             migration_interval = {migration_interval}\nmigration_probability = 0.5\n\
             backend = {backend}\n[run]\nseed = {seed}\n\
             [stop]\nmax_generations = {generations}\n"
        ))
        .expect("a valid spec")
    }

    fn leaf_outcome(spec: &RunSpec) -> LeafDesignOutcome {
        let problem = AnyProblem::from_spec(&spec.problem).expect("leaf-design resolves");
        let mut driver = spec_driver(spec, &problem, None, None).expect("fresh driver");
        let front = driver.run();
        let evaluations = driver.optimizer().evaluations();
        LeafDesignOutcome::from_front(Scenario::present_low_export(), front, evaluations)
    }

    fn present_low(population: usize, generations: usize, interval: usize, seed: u64) -> RunSpec {
        archipelago_spec(
            "name = leaf-design\nera = present\nexport = low",
            population,
            generations,
            interval,
            seed,
            "serial",
        )
    }

    fn quick_study(seed: u64) -> LeafDesignOutcome {
        leaf_outcome(&present_low(24, 30, 10, seed))
    }

    #[test]
    fn study_produces_a_trade_off_front() {
        let outcome = quick_study(3);
        assert!(
            outcome.front.len() >= 5,
            "front only had {} designs",
            outcome.front.len()
        );
        let max_uptake = outcome.max_uptake();
        let min_nitrogen = outcome.min_nitrogen();
        assert!(max_uptake.uptake > min_nitrogen.uptake);
        assert!(max_uptake.nitrogen > min_nitrogen.nitrogen);
        assert!(outcome.evaluations > 0);
    }

    #[test]
    fn optimized_designs_beat_the_natural_leaf() {
        let outcome = leaf_outcome(&present_low(30, 80, 20, 11));
        // The paper reports uptake raised from 15.5 to well above 30 at higher
        // nitrogen; even a small budget should clear the natural uptake.
        assert!(outcome.max_uptake().uptake > Scenario::NATURAL_UPTAKE);
        // And some design should save nitrogen versus the natural leaf.
        assert!(outcome.min_nitrogen().nitrogen < EnzymePartition::NATURAL_NITROGEN);
    }

    #[test]
    fn candidate_b_preserves_uptake_with_less_nitrogen() {
        let outcome = leaf_outcome(&present_low(40, 120, 30, 17));
        let candidate = outcome
            .candidate_b(0.95)
            .expect("some design preserves at least 95% of the natural uptake");
        assert!(candidate.uptake >= Scenario::NATURAL_UPTAKE * 0.95);
        assert!(candidate.nitrogen < EnzymePartition::NATURAL_NITROGEN);
    }

    #[test]
    fn selected_designs_cover_the_papers_table_2_rows() {
        let outcome = quick_study(5);
        let selected = outcome.selected_designs(100, 8);
        assert!(selected.max_uptake.0.uptake >= selected.min_nitrogen.0.uptake);
        assert!(selected.min_nitrogen.0.nitrogen <= selected.closest_to_ideal.0.nitrogen);
        for (_, yield_percent) in [
            &selected.closest_to_ideal,
            &selected.max_uptake,
            &selected.min_nitrogen,
            &selected.max_yield,
        ] {
            assert!((0.0..=100.0).contains(yield_percent));
        }
        assert!(selected.max_yield.1 >= selected.closest_to_ideal.1);
    }

    #[test]
    fn threaded_backend_reproduces_the_serial_study_bit_for_bit() {
        let serial = quick_study(3);
        let threaded = leaf_outcome(&archipelago_spec(
            "name = leaf-design\nera = present\nexport = low",
            24,
            30,
            10,
            3,
            "threads:2",
        ));
        assert_eq!(serial.front, threaded.front);
        assert_eq!(serial.evaluations, threaded.evaluations);
    }

    #[test]
    fn spread_returns_the_requested_number_of_designs() {
        let outcome = quick_study(9);
        let spread = outcome.spread(5);
        assert!(spread.len() <= 5);
        assert!(!spread.is_empty());
    }

    #[test]
    fn geobacter_study_finds_near_steady_state_trade_offs() {
        let seed = 2;
        let spec = archipelago_spec(
            &format!(
                "name = geobacter\nreactions = 48\nmodel_seed = {}",
                seed ^ 0x6E0B
            ),
            30,
            30,
            15,
            seed,
            "serial",
        );
        let AnyProblem::Geobacter(problem) =
            AnyProblem::from_spec(&spec.problem).expect("small geobacter model builds")
        else {
            unreachable!("the spec names the geobacter problem")
        };
        let front = spec_driver(&spec, problem.as_ref(), None, None)
            .expect("fresh driver")
            .run();
        let outcome = GeobacterOutcome::from_front(&problem, &front, seed)
            .expect("small geobacter study must run");
        assert!(!outcome.front.is_empty());
        // The evolved solutions violate the steady-state constraint far less
        // than a random initial guess (the paper reports a ~26x reduction).
        assert!(outcome.best_violation < outcome.initial_violation / 5.0);
        let labelled = outcome.labelled_points(5);
        assert!(!labelled.is_empty());
        assert!(labelled[0].biomass_production >= labelled.last().unwrap().biomass_production);
    }
}

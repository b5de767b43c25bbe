use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pathway_fba::geobacter::GeobacterModel;
use pathway_fba::{
    steady_state_violation, steady_state_violation_batch, FluxBalanceAnalysis, MetabolicModel,
};
use pathway_moo::engine::MetricsRegistry;
use pathway_moo::MultiObjectiveProblem;

/// Cumulative oracle-call counters, shared across clones of a problem (an
/// `Arc` inside the problem) so that per-chunk clones handed to worker
/// threads all feed one tally.
#[derive(Debug, Default)]
struct OracleStats {
    /// Full FBA (simplex) solves — two at construction for the reference
    /// distribution, none on the evaluation path.
    fba_solves: AtomicU64,
    /// Simplex pivots of those solves: their shared phase 1 once, plus each
    /// objective's phase 2.
    fba_pivots: AtomicU64,
    /// Batched steady-state kernel calls (one fused residual-norm pass per
    /// batch).
    batch_kernels: AtomicU64,
    /// Candidates scored through the steady-state oracle.
    candidates: AtomicU64,
}

/// A candidate solution of the Geobacter flux problem, decoded back into the
/// quantities the paper reports (Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct GeobacterSolution {
    /// Electron production flux (mmol/gDW/h).
    pub electron_production: f64,
    /// Biomass production flux (1/h).
    pub biomass_production: f64,
    /// Steady-state violation ‖S·x‖ of the flux vector.
    pub violation: f64,
}

/// The paper's *Geobacter sulfurreducens* problem: perturb the genome-scale
/// flux vector to simultaneously maximize electron production and biomass
/// production while preferring steady-state solutions.
///
/// Decision variables are the full flux vector (608 reactions at paper scale).
/// The search box is centred on a steady-state reference distribution (the
/// midpoint of the max-biomass and max-electron FBA optima) so that candidate
/// solutions start out close to feasibility, mirroring the paper's
/// initial-guess-plus-perturbation search; the constraint violation reported
/// to the optimizer is the amount of steady-state residual exceeding the
/// configured tolerance, which makes the algorithm "reward less violating
/// solutions" exactly as Section 3.2 describes.
#[derive(Debug, Clone)]
pub struct GeobacterFluxProblem {
    model: MetabolicModel,
    biomass_reaction: usize,
    electron_reaction: usize,
    reference: Vec<f64>,
    bounds: Vec<(f64, f64)>,
    violation_tolerance: f64,
    oracle: Arc<OracleStats>,
}

impl GeobacterFluxProblem {
    /// Builds the problem from a synthetic Geobacter model.
    ///
    /// The default exploration radius is ±5 mmol/gDW/h around the reference
    /// distribution and the violation tolerance scales with the model size
    /// (`0.035 · radius · reactions`), mirroring the paper's search that
    /// *prefers* steady-state solutions without ever reaching an exact
    /// steady state.
    ///
    /// # Errors
    ///
    /// Propagates FBA failures while computing the reference flux distribution.
    pub fn new(geobacter: &GeobacterModel) -> Result<Self, pathway_fba::FbaError> {
        let radius = 5.0;
        let tolerance = 0.035 * radius * geobacter.model().num_reactions() as f64;
        Self::with_exploration(geobacter, radius, tolerance)
    }

    /// Builds the problem with an explicit per-flux exploration radius around
    /// the reference distribution and an explicit violation tolerance.
    ///
    /// # Errors
    ///
    /// Propagates FBA failures while computing the reference flux distribution.
    pub fn with_exploration(
        geobacter: &GeobacterModel,
        radius: f64,
        violation_tolerance: f64,
    ) -> Result<Self, pathway_fba::FbaError> {
        let model = geobacter.model().clone();
        let fba = FluxBalanceAnalysis::new(&model);
        let optima =
            fba.maximize_reactions(&[geobacter.biomass_reaction(), geobacter.electron_reaction()])?;
        let (max_biomass, max_electron) = (&optima[0], &optima[1]);
        let reference: Vec<f64> = max_biomass
            .fluxes
            .iter()
            .zip(max_electron.fluxes.iter())
            .map(|(a, b)| 0.5 * (a + b))
            .collect();
        let flux_bounds = model.flux_bounds();
        let bounds: Vec<(f64, f64)> = reference
            .iter()
            .zip(flux_bounds.iter())
            .map(|(&r, b)| {
                let lower = (r - radius).max(b.lower);
                let upper = (r + radius).min(b.upper);
                if lower <= upper {
                    (lower, upper)
                } else {
                    (b.lower, b.upper)
                }
            })
            .collect();
        let oracle = Arc::new(OracleStats::default());
        oracle.fba_solves.fetch_add(2, Ordering::Relaxed);
        // The two optima share one phase 1: count its pivots once.
        let pivots =
            max_biomass.iterations + max_electron.iterations - max_biomass.phase1_iterations;
        oracle
            .fba_pivots
            .fetch_add(pivots as u64, Ordering::Relaxed);
        Ok(GeobacterFluxProblem {
            biomass_reaction: geobacter.biomass_reaction(),
            electron_reaction: geobacter.electron_reaction(),
            model,
            reference,
            bounds,
            violation_tolerance,
            oracle,
        })
    }

    /// Dumps the cumulative oracle counters into `registry` as
    /// `oracle.fba.solves`, `oracle.fba.pivots`, `oracle.fba.batch_kernels`
    /// and `oracle.fba.candidates`. Call once when an invocation finishes —
    /// the counts are totals since construction, shared by every clone of
    /// this problem.
    pub fn record_oracle_metrics(&self, registry: &MetricsRegistry) {
        registry.add(
            "oracle.fba.solves",
            self.oracle.fba_solves.load(Ordering::Relaxed),
        );
        registry.add(
            "oracle.fba.pivots",
            self.oracle.fba_pivots.load(Ordering::Relaxed),
        );
        registry.add(
            "oracle.fba.batch_kernels",
            self.oracle.batch_kernels.load(Ordering::Relaxed),
        );
        registry.add(
            "oracle.fba.candidates",
            self.oracle.candidates.load(Ordering::Relaxed),
        );
    }

    /// The reference (steady-state) flux distribution the search box is
    /// centred on.
    pub fn reference_fluxes(&self) -> &[f64] {
        &self.reference
    }

    /// Decodes a decision vector into the reported quantities.
    pub fn decode(&self, x: &[f64]) -> GeobacterSolution {
        GeobacterSolution {
            electron_production: x[self.electron_reaction],
            biomass_production: x[self.biomass_reaction],
            violation: steady_state_violation(&self.model, x).unwrap_or(f64::INFINITY),
        }
    }

    /// The underlying stoichiometric model.
    pub fn model(&self) -> &MetabolicModel {
        &self.model
    }
}

impl MultiObjectiveProblem for GeobacterFluxProblem {
    fn num_variables(&self) -> usize {
        self.model.num_reactions()
    }

    fn num_objectives(&self) -> usize {
        2
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.bounds.clone()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        vec![-x[self.electron_reaction], -x[self.biomass_reaction]]
    }

    /// Whole-batch oracle: the objectives are plain flux reads, and the
    /// steady-state residual norms of the batch come from the fused CSR
    /// kernel ([`steady_state_violation_batch`]) instead of one sparse
    /// mat-vec per candidate — the sparse structure of `S` is traversed
    /// once per 8-candidate tile. Bit-identical to the per-candidate path, so batched runs
    /// keep the serial/threaded determinism contract.
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        let reactions = self.model.num_reactions();
        self.oracle
            .candidates
            .fetch_add(xs.len() as u64, Ordering::Relaxed);
        if xs.is_empty() || xs.iter().any(|x| x.len() != reactions) {
            // Mis-sized candidates score INFINITY violation per candidate in
            // the itemwise path; fall back to it rather than failing the
            // whole batch.
            return xs
                .iter()
                .map(|x| (self.evaluate(x), self.constraint_violation(x)))
                .collect();
        }
        self.oracle.batch_kernels.fetch_add(1, Ordering::Relaxed);
        let residuals = steady_state_violation_batch(&self.model, xs)
            .expect("candidate lengths were checked above");
        xs.iter()
            .zip(residuals)
            .map(|(x, residual)| {
                (
                    self.evaluate(x),
                    (residual - self.violation_tolerance).max(0.0),
                )
            })
            .collect()
    }

    fn constraint_violation(&self, x: &[f64]) -> f64 {
        let violation = steady_state_violation(&self.model, x).unwrap_or(f64::INFINITY);
        (violation - self.violation_tolerance).max(0.0)
    }

    fn name(&self) -> &str {
        "geobacter-flux"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> GeobacterFluxProblem {
        let model = GeobacterModel::builder().reactions(64).build();
        GeobacterFluxProblem::new(&model).expect("small model is feasible")
    }

    #[test]
    fn dimensions_follow_the_model() {
        let problem = small_problem();
        assert_eq!(problem.num_variables(), 64);
        assert_eq!(problem.num_objectives(), 2);
        assert_eq!(problem.bounds().len(), 64);
        assert_eq!(problem.name(), "geobacter-flux");
    }

    #[test]
    fn reference_distribution_is_nearly_steady_state() {
        let problem = small_problem();
        let violation =
            steady_state_violation(problem.model(), problem.reference_fluxes()).unwrap();
        assert!(violation < 1e-6);
    }

    #[test]
    fn reference_is_inside_the_search_box() {
        let problem = small_problem();
        for (value, (lower, upper)) in problem.reference_fluxes().iter().zip(problem.bounds()) {
            assert!(*value >= lower - 1e-9 && *value <= upper + 1e-9);
        }
    }

    #[test]
    fn objectives_are_negated_fluxes() {
        let problem = small_problem();
        let x = problem.reference_fluxes().to_vec();
        let objectives = problem.evaluate(&x);
        let decoded = problem.decode(&x);
        assert!((objectives[0] + decoded.electron_production).abs() < 1e-12);
        assert!((objectives[1] + decoded.biomass_production).abs() < 1e-12);
    }

    #[test]
    fn violation_is_zero_at_the_reference_and_grows_with_imbalance() {
        let problem = small_problem();
        let reference = problem.reference_fluxes().to_vec();
        assert_eq!(problem.constraint_violation(&reference), 0.0);
        let mut unbalanced = reference.clone();
        unbalanced[0] += 50.0;
        assert!(problem.constraint_violation(&unbalanced) > 0.0);
    }

    #[test]
    fn batched_evaluation_matches_itemwise_calls() {
        let problem = small_problem();
        let mut unbalanced = problem.reference_fluxes().to_vec();
        unbalanced[0] += 50.0;
        let xs = vec![problem.reference_fluxes().to_vec(), unbalanced];
        let batch = problem.evaluate_batch(&xs);
        for (x, (objectives, violation)) in xs.iter().zip(&batch) {
            assert_eq!(objectives, &problem.evaluate(x));
            assert_eq!(*violation, problem.constraint_violation(x));
        }
        assert!(batch[1].1 > 0.0);
    }

    #[test]
    fn mid_scale_problem_scales_to_hundreds_of_fluxes() {
        let model = GeobacterModel::builder().reactions(200).build();
        let problem = GeobacterFluxProblem::new(&model).expect("mid-scale model is feasible");
        assert_eq!(problem.num_variables(), 200);
    }

    #[test]
    fn oracle_counters_are_shared_by_clones_and_count_batches() {
        let problem = small_problem();
        let clone = problem.clone();
        let xs = vec![problem.reference_fluxes().to_vec(); 3];
        clone.evaluate_batch(&xs);
        let registry = MetricsRegistry::new();
        problem.record_oracle_metrics(&registry);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("oracle.fba.solves"), Some(2));
        // One shared phase 1 plus the phase 2 of each objective.
        let model = GeobacterModel::builder().reactions(64).build();
        let optima = FluxBalanceAnalysis::new(model.model())
            .maximize_reactions(&[model.biomass_reaction(), model.electron_reaction()])
            .unwrap();
        let phase1 = optima[0].phase1_iterations;
        let pivots = optima[0].iterations + optima[1].iterations - phase1;
        assert!(pivots > phase1);
        assert_eq!(snapshot.counter("oracle.fba.pivots"), Some(pivots as u64));
        assert_eq!(snapshot.counter("oracle.fba.batch_kernels"), Some(1));
        assert_eq!(snapshot.counter("oracle.fba.candidates"), Some(3));
    }

    /// The full 608-reaction problem of Figure 4. The workspace builds
    /// `pathway-linalg`/`pathway-fba` with `opt-level = 2` even in dev, the
    /// simplex stores only the non-basic columns, and the two set-up solves
    /// share one simplex phase 1, so construction takes about half a second
    /// under `cargo test` (2-vCPU host).
    #[test]
    fn paper_scale_problem_has_608_variables() {
        let model = GeobacterModel::builder().reactions(608).build();
        let problem = GeobacterFluxProblem::new(&model).expect("paper-scale model is feasible");
        assert_eq!(problem.num_variables(), 608);
    }
}

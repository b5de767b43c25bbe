//! The problem registry: from declarative [`ProblemSpec`]s to live problems.
//!
//! A [`pathway_moo::engine::RunSpec`] describes its problem as plain data (a
//! name plus string parameters); this module resolves that description into
//! an [`AnyProblem`] — one concrete type covering every problem the
//! workspace ships, so spec-driven code (the `pathway` CLI, sweeps, the
//! study daemon) never needs to be generic over the problem. [`spec_driver`]
//! turns a spec plus a problem into a ready [`Driver`]; [`crate::Job`] adds
//! the checkpoint store around it.
//!
//! [`PROBLEM_CATALOG`] is the authoritative list of registry names and their
//! parameters; `pathway list-problems` prints it.
//!
//! # Example
//!
//! ```
//! use pathway_core::{spec_driver, AnyProblem};
//! use pathway_moo::engine::{ProblemSpec, RunSpec};
//!
//! let spec = RunSpec {
//!     problem: ProblemSpec::named("schaffer"),
//!     stopping: pathway_moo::engine::StoppingSpec { max_generations: 5, ..Default::default() },
//!     ..Default::default()
//! };
//! let problem = AnyProblem::from_spec(&spec.problem).unwrap();
//! let front = spec_driver(&spec, &problem, None, None).unwrap().run();
//! assert!(!front.is_empty());
//! ```

use std::sync::Arc;

use pathway_fba::geobacter::GeobacterModel;
use pathway_moo::engine::{
    AnyOptimizer, Driver, EngineError, MetricsRegistry, ProblemSpec, RunCheckpoint, RunSpec,
    SpecError,
};
use pathway_moo::exec::Executor;
use pathway_moo::problems::{BinhKorn, Dtlz2, Schaffer, Zdt1, Zdt2};
use pathway_moo::MultiObjectiveProblem;
use pathway_photosynthesis::{CarbonDioxideEra, Scenario, TriosePhosphateExport};

use crate::{GeobacterFluxProblem, LeafRedesignProblem, OdeLeafRedesignProblem};

/// One registry entry: a problem name, what it is, and its parameters.
#[derive(Debug, Clone, Copy)]
pub struct ProblemInfo {
    /// Registry name used in `[problem] name = ...`.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    /// `(parameter, description)` pairs accepted in the `[problem]` section.
    pub params: &'static [(&'static str, &'static str)],
}

/// Every problem the registry can build, with its accepted parameters.
pub const PROBLEM_CATALOG: &[ProblemInfo] = &[
    ProblemInfo {
        name: "leaf-design",
        summary: "C3 leaf redesign: maximize CO2 uptake, minimize protein nitrogen (23 enzymes)",
        params: &[
            ("era", "CO2 era: past | present | future (default present)"),
            ("export", "triose-phosphate export: low | high (default low)"),
            ("lower_factor", "search box lower bound as a multiple of natural capacity (default 0.02)"),
            ("upper_factor", "search box upper bound as a multiple of natural capacity (default 4)"),
        ],
    },
    ProblemInfo {
        name: "leaf-design-ode",
        summary: "C3 leaf redesign scored at the steady state of the Calvin-cycle ODE, the paper's own oracle (23 enzymes)",
        params: &[
            ("era", "CO2 era: past | present | future (default present)"),
            ("export", "triose-phosphate export: low | high (default low)"),
        ],
    },
    ProblemInfo {
        name: "geobacter",
        summary: "Geobacter sulfurreducens flux redesign: maximize electron + biomass production near steady state",
        params: &[
            ("reactions", "model size in reactions (default 64; the paper uses 608)"),
            ("model_seed", "seed of the synthetic model generator (default 28171)"),
            ("radius", "per-flux exploration radius around the reference distribution (default 5)"),
        ],
    },
    ProblemInfo {
        name: "schaffer",
        summary: "Schaffer's bi-objective benchmark, Pareto set x in [0, 2]",
        params: &[],
    },
    ProblemInfo {
        name: "zdt1",
        summary: "ZDT1 benchmark with a convex front",
        params: &[("variables", "decision variables (default 30)")],
    },
    ProblemInfo {
        name: "zdt2",
        summary: "ZDT2 benchmark with a concave front",
        params: &[("variables", "decision variables (default 30)")],
    },
    ProblemInfo {
        name: "binh-korn",
        summary: "Binh & Korn's constrained benchmark (exercises constrained domination)",
        params: &[],
    },
    ProblemInfo {
        name: "dtlz2",
        summary: "DTLZ2 tri-objective benchmark with a spherical front",
        params: &[("variables", "decision variables (default 7)")],
    },
];

/// Any problem the workspace ships, behind one concrete
/// [`MultiObjectiveProblem`] type.
///
/// Built from a [`ProblemSpec`] by [`AnyProblem::from_spec`]; every method
/// delegates to the wrapped problem, so optimizers and drivers treat an
/// `AnyProblem` exactly like the problem it wraps.
#[derive(Debug, Clone)]
pub enum AnyProblem {
    /// The paper's C3 leaf redesign problem.
    LeafDesign(LeafRedesignProblem),
    /// The leaf redesign problem scored on the Calvin-cycle ODE steady
    /// state, the paper's own oracle.
    LeafDesignOde(OdeLeafRedesignProblem),
    /// The paper's Geobacter flux problem (boxed: it carries the whole
    /// metabolic model).
    Geobacter(Box<GeobacterFluxProblem>),
    /// Schaffer's benchmark.
    Schaffer(Schaffer),
    /// The ZDT1 benchmark.
    Zdt1(Zdt1),
    /// The ZDT2 benchmark.
    Zdt2(Zdt2),
    /// Binh & Korn's constrained benchmark.
    BinhKorn(BinhKorn),
    /// The DTLZ2 tri-objective benchmark.
    Dtlz2(Dtlz2),
}

impl AnyProblem {
    /// Resolves a problem description against the registry.
    ///
    /// # Errors
    ///
    /// [`SpecError::Field`] for unknown names, unknown parameters, unusable
    /// parameter values, and model-construction failures.
    pub fn from_spec(spec: &ProblemSpec) -> Result<Self, SpecError> {
        let info = PROBLEM_CATALOG
            .iter()
            .find(|info| info.name == spec.name)
            .ok_or_else(|| {
                let known: Vec<&str> = PROBLEM_CATALOG.iter().map(|info| info.name).collect();
                SpecError::field(
                    "problem.name",
                    format!(
                        "unknown problem '{}' (known problems: {})",
                        spec.name,
                        known.join(", ")
                    ),
                )
            })?;
        for key in spec.params.keys() {
            if !info.params.iter().any(|(name, _)| name == key) {
                return Err(SpecError::field(
                    format!("problem.{key}"),
                    format!("problem '{}' accepts no parameter '{key}'", spec.name),
                ));
            }
        }
        match spec.name.as_str() {
            "leaf-design" => {
                let mut problem = LeafRedesignProblem::new(leaf_scenario(spec)?);
                let lower_param = spec.parsed_param::<f64>("lower_factor")?;
                let upper_param = spec.parsed_param::<f64>("upper_factor")?;
                if lower_param.is_some() || upper_param.is_some() {
                    let lower = lower_param.unwrap_or(0.02);
                    let upper = upper_param.unwrap_or(4.0);
                    if !(lower.is_finite() && upper.is_finite() && 0.0 < lower && lower < upper) {
                        // Blame the key(s) the spec actually set.
                        let field = match (lower_param, upper_param) {
                            (Some(_), None) => "problem.lower_factor",
                            (None, Some(_)) => "problem.upper_factor",
                            _ => "problem.lower_factor/upper_factor",
                        };
                        return Err(SpecError::field(
                            field,
                            format!(
                                "bounds factors must satisfy 0 < lower < upper \
                                 (got lower {lower}, upper {upper})"
                            ),
                        ));
                    }
                    problem = problem.with_bounds(lower, upper);
                }
                Ok(AnyProblem::LeafDesign(problem))
            }
            "leaf-design-ode" => Ok(AnyProblem::LeafDesignOde(OdeLeafRedesignProblem::new(
                leaf_scenario(spec)?,
            ))),
            "geobacter" => {
                let reactions = spec.parsed_param::<usize>("reactions")?.unwrap_or(64);
                let model_seed = spec.parsed_param::<u64>("model_seed")?.unwrap_or(0x6E0B);
                let model = GeobacterModel::builder()
                    .reactions(reactions)
                    .seed(model_seed)
                    .build();
                let problem = match spec.parsed_param::<f64>("radius")? {
                    None => GeobacterFluxProblem::new(&model),
                    Some(radius) => {
                        let tolerance = 0.035 * radius * model.model().num_reactions() as f64;
                        GeobacterFluxProblem::with_exploration(&model, radius, tolerance)
                    }
                };
                problem
                    .map(Box::new)
                    .map(AnyProblem::Geobacter)
                    .map_err(|err| {
                        SpecError::field(
                            "problem",
                            format!("geobacter model construction failed: {err}"),
                        )
                    })
            }
            "schaffer" => Ok(AnyProblem::Schaffer(Schaffer)),
            "zdt1" => {
                let variables = spec.parsed_param("variables")?.unwrap_or(30);
                Ok(AnyProblem::Zdt1(Zdt1 { variables }))
            }
            "zdt2" => {
                let variables = spec.parsed_param("variables")?.unwrap_or(30);
                Ok(AnyProblem::Zdt2(Zdt2 { variables }))
            }
            "binh-korn" => Ok(AnyProblem::BinhKorn(BinhKorn)),
            "dtlz2" => {
                let variables = spec.parsed_param("variables")?.unwrap_or(7);
                Ok(AnyProblem::Dtlz2(Dtlz2 { variables }))
            }
            _ => unreachable!("catalog lookup succeeded above"),
        }
    }

    /// Dumps the problem's cumulative oracle counters (if it keeps any)
    /// into `registry`: the Geobacter problem reports its `oracle.fba.*`
    /// tallies and the ODE leaf problem its `ode.*` solver work; the
    /// analytic and benchmark problems have no expensive oracle and record
    /// nothing. Call once when an invocation finishes.
    pub fn record_oracle_metrics(&self, registry: &MetricsRegistry) {
        match self {
            AnyProblem::Geobacter(problem) => problem.record_oracle_metrics(registry),
            AnyProblem::LeafDesignOde(problem) => problem.record_oracle_metrics(registry),
            _ => {}
        }
    }

    fn inner(&self) -> &dyn MultiObjectiveProblem {
        match self {
            AnyProblem::LeafDesign(p) => p,
            AnyProblem::LeafDesignOde(p) => p,
            AnyProblem::Geobacter(p) => p.as_ref(),
            AnyProblem::Schaffer(p) => p,
            AnyProblem::Zdt1(p) => p,
            AnyProblem::Zdt2(p) => p,
            AnyProblem::BinhKorn(p) => p,
            AnyProblem::Dtlz2(p) => p,
        }
    }
}

impl MultiObjectiveProblem for AnyProblem {
    fn num_variables(&self) -> usize {
        self.inner().num_variables()
    }
    fn num_objectives(&self) -> usize {
        self.inner().num_objectives()
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner().bounds()
    }
    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.inner().evaluate(x)
    }
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        self.inner().evaluate_batch(xs)
    }
    fn prepare_batch(&self, xs: &[Vec<f64>]) {
        self.inner().prepare_batch(xs);
    }
    fn constraint_violation(&self, x: &[f64]) -> f64 {
        self.inner().constraint_violation(x)
    }
    fn name(&self) -> &str {
        self.inner().name()
    }
}

/// The scenario of a leaf problem from its `era` and `export` params.
fn leaf_scenario(spec: &ProblemSpec) -> Result<Scenario, SpecError> {
    let era = match spec.params.get("era").map(String::as_str) {
        None | Some("present") => CarbonDioxideEra::Present,
        Some("past") => CarbonDioxideEra::Past,
        Some("future") => CarbonDioxideEra::Future,
        Some(other) => {
            return Err(SpecError::field(
                "problem.era",
                format!("unknown era '{other}' (expected past, present or future)"),
            ))
        }
    };
    let export = match spec.params.get("export").map(String::as_str) {
        None | Some("low") => TriosePhosphateExport::Low,
        Some("high") => TriosePhosphateExport::High,
        Some(other) => {
            return Err(SpecError::field(
                "problem.export",
                format!("unknown export regime '{other}' (expected low or high)"),
            ))
        }
    };
    Ok(Scenario::new(era, export))
}

/// Cross-checks the spec fields whose validity depends on the *resolved*
/// problem — which `RunSpec::validate` alone cannot see. Currently: a
/// configured reference point must have exactly one component per
/// objective, otherwise hypervolume computation would panic mid-run.
///
/// # Errors
///
/// [`SpecError::Field`] naming the offending field.
pub fn validate_spec_against_problem(
    spec: &RunSpec,
    problem: &AnyProblem,
) -> Result<(), SpecError> {
    if let Some(reference) = &spec.reference_point {
        let objectives = problem.num_objectives();
        if reference.len() != objectives {
            return Err(SpecError::field(
                "run.reference_point",
                format!(
                    "has {} components but problem '{}' has {objectives} objectives",
                    reference.len(),
                    problem.name()
                ),
            ));
        }
    }
    Ok(())
}

/// Builds the [`Driver`] for a spec — the one driver factory behind
/// `pathway run`/`resume`, every sweep cell and every daemon job.
///
/// `problem` is borrowed (`&problem`) or owned (an [`AnyProblem`], for a
/// self-contained driver). `executor`, when given, replaces the spec's own
/// backend, so a launcher can run every driver on **one** worker pool;
/// executors never change results. `checkpoint`, when given, is continued
/// bit-identically, and the spec's reference point applies only when the
/// checkpoint carries none. The spec's stopping rule is attached; progress
/// output (the spec's `log_every`) is the caller's business.
///
/// Call [`validate_spec_against_problem`] first when the spec comes from
/// untrusted input — a reference point of the wrong dimension panics once
/// telemetry computes a hypervolume — and check that a checkpoint belongs
/// to the spec
/// ([`StoredCheckpoint::ensure_matches`](pathway_moo::engine::StoredCheckpoint::ensure_matches)).
///
/// # Errors
///
/// [`EngineError`] when the checkpointed state does not fit the spec's
/// optimizer. A fresh driver never fails.
pub fn spec_driver<P: MultiObjectiveProblem>(
    spec: &RunSpec,
    problem: P,
    executor: Option<Arc<Executor>>,
    checkpoint: Option<RunCheckpoint>,
) -> Result<Driver<P, AnyOptimizer>, EngineError> {
    let mut optimizer = spec.build_optimizer();
    if let Some(executor) = executor {
        optimizer.set_executor(executor);
    }
    let has_reference = checkpoint
        .as_ref()
        .is_some_and(|checkpoint| checkpoint.reference_point.is_some());
    let driver = match checkpoint {
        Some(checkpoint) => Driver::resume(optimizer, problem, checkpoint)?,
        None => Driver::new(optimizer, problem),
    };
    let mut driver = driver.with_stopping(spec.stopping_rule());
    if !has_reference {
        if let Some(reference) = &spec.reference_point {
            driver = driver.with_reference_point(reference.clone());
        }
    }
    Ok(driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathway_moo::engine::{ArchipelagoSpec, Nsga2Spec, Optimizer, OptimizerSpec, StoppingSpec};
    use pathway_moo::{Archipelago, EvalBackend};

    fn schaffer_spec(seed: u64, generations: usize) -> RunSpec {
        RunSpec {
            problem: ProblemSpec::named("schaffer"),
            optimizer: OptimizerSpec::Nsga2(Nsga2Spec {
                population: 16,
                ..Default::default()
            }),
            seed,
            stopping: StoppingSpec {
                max_generations: generations,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn catalog_resolves_every_entry() {
        for info in PROBLEM_CATALOG {
            // geobacter at default size solves two LPs; shrink it.
            let spec = if info.name == "geobacter" {
                ProblemSpec::named(info.name).with_param("reactions", "24")
            } else {
                ProblemSpec::named(info.name)
            };
            let problem = AnyProblem::from_spec(&spec)
                .unwrap_or_else(|err| panic!("catalog entry '{}' failed: {err}", info.name));
            assert!(problem.num_variables() > 0, "{}", info.name);
            assert!(problem.num_objectives() >= 2, "{}", info.name);
            assert_eq!(problem.bounds().len(), problem.num_variables());
        }
    }

    #[test]
    fn unknown_names_and_params_are_field_errors() {
        let err = AnyProblem::from_spec(&ProblemSpec::named("nope")).unwrap_err();
        assert!(err.to_string().contains("known problems"), "{err}");
        let err = AnyProblem::from_spec(&ProblemSpec::named("zdt1").with_param("dimension", "4"))
            .unwrap_err();
        assert!(err.to_string().contains("dimension"), "{err}");
        let err =
            AnyProblem::from_spec(&ProblemSpec::named("leaf-design").with_param("era", "jurassic"))
                .unwrap_err();
        assert!(err.to_string().contains("jurassic"), "{err}");
    }

    #[test]
    fn problem_params_shape_the_problem() {
        let zdt1 = AnyProblem::from_spec(&ProblemSpec::named("zdt1").with_param("variables", "9"))
            .unwrap();
        assert_eq!(zdt1.num_variables(), 9);
        let leaf = AnyProblem::from_spec(&ProblemSpec::named("leaf-design")).unwrap();
        assert_eq!(leaf.num_variables(), 23);
        let ode = AnyProblem::from_spec(
            &ProblemSpec::named("leaf-design-ode")
                .with_param("era", "future")
                .with_param("export", "high"),
        )
        .unwrap();
        let AnyProblem::LeafDesignOde(ode) = &ode else {
            panic!("leaf-design-ode resolves to the ODE problem")
        };
        assert_eq!(
            ode.scenario(),
            &Scenario::new(CarbonDioxideEra::Future, TriosePhosphateExport::High)
        );
        // The search box of the ODE problem is fixed.
        let err = AnyProblem::from_spec(
            &ProblemSpec::named("leaf-design-ode").with_param("lower_factor", "0.1"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("lower_factor"), "{err}");
    }

    #[test]
    fn spec_driver_runs_and_resumes_bit_identically() {
        let spec = schaffer_spec(5, 12);
        let problem = AnyProblem::from_spec(&spec.problem).unwrap();
        let unsplit = spec_driver(&spec, &problem, None, None).unwrap().run();

        let mut first = spec_driver(&spec, &problem, None, None).unwrap();
        for _ in 0..4 {
            first.step();
        }
        let resumed = spec_driver(&spec, &problem, None, Some(first.checkpoint()))
            .expect("same spec")
            .run();
        assert_eq!(unsplit, resumed);
    }

    #[test]
    fn reference_point_dimension_is_checked_against_the_problem() {
        let mut spec = schaffer_spec(1, 5);
        spec.reference_point = Some(vec![30.0, 30.0, 30.0]);
        let problem = AnyProblem::from_spec(&spec.problem).unwrap();
        let err = validate_spec_against_problem(&spec, &problem).unwrap_err();
        assert!(err.to_string().contains("reference_point"), "{err}");
        assert!(err.to_string().contains("2 objectives"), "{err}");
        spec.reference_point = Some(vec![30.0, 30.0]);
        validate_spec_against_problem(&spec, &problem).expect("matching dimension");
    }

    /// Two Schaffer islands of 20, 15 generations, migration every 5.
    fn schaffer_archipelago(seed: u64) -> RunSpec {
        RunSpec {
            problem: ProblemSpec::named("schaffer"),
            optimizer: OptimizerSpec::Archipelago(ArchipelagoSpec {
                island: Nsga2Spec {
                    population: 20,
                    ..Default::default()
                },
                migration_interval: 5,
                ..Default::default()
            }),
            seed,
            stopping: StoppingSpec {
                max_generations: 15,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn run_reports_actual_budget_spent() {
        let spec = schaffer_archipelago(5);
        let mut driver = spec_driver(&spec, Schaffer, None, None).unwrap();
        assert!(!driver.run().is_empty());
        assert_eq!(driver.generation(), 15);
        assert_eq!(driver.optimizer().evaluations(), 2 * 20 * (15 + 1));
    }

    #[test]
    fn study_matches_a_raw_archipelago_run() {
        let spec = schaffer_archipelago(11);
        let via_spec = spec_driver(&spec, Schaffer, None, None).unwrap().run();
        let OptimizerSpec::Archipelago(archipelago) = &spec.optimizer else {
            unreachable!("an archipelago spec")
        };
        let mut raw = Archipelago::new(*archipelago, 11);
        raw.initialize(&Schaffer);
        for _ in 0..15 {
            raw.step(&Schaffer);
        }
        assert_eq!(via_spec, raw.front());
    }

    #[test]
    fn extra_stopping_rules_end_the_run_early() {
        let mut spec = schaffer_archipelago(2);
        spec.stopping.max_evaluations = Some(2 * 20 * 3);
        let mut driver = spec_driver(&spec, Schaffer, None, None).unwrap();
        driver.run();
        assert!(driver.generation() < 15);
        assert!(driver.optimizer().evaluations() <= 2 * 20 * 4);
    }

    #[test]
    fn driver_exposes_reports_and_checkpoints() {
        let mut driver = spec_driver(&schaffer_archipelago(9), Schaffer, None, None).unwrap();
        let report = driver.step();
        let checkpoint = driver.checkpoint();
        assert_eq!(report.generation, 1);
        assert_eq!(checkpoint.generation, 1);
        assert_eq!(
            checkpoint.hypervolume_history,
            vec![report.hypervolume],
            "the checkpoint carries the reported hypervolume"
        );
    }

    #[test]
    fn shared_executor_changes_nothing_but_the_pool() {
        let spec = schaffer_archipelago(7);
        let mut plain = spec_driver(&spec, Schaffer, None, None).unwrap();
        let pool = Executor::shared(EvalBackend::Threads(2));
        let mut pooled = spec_driver(&spec, Schaffer, Some(pool), None).unwrap();
        assert_eq!(plain.run(), pooled.run());
        assert_eq!(
            plain.optimizer().evaluations(),
            pooled.optimizer().evaluations()
        );
    }

    #[test]
    fn leaf_problem_study_runs_end_to_end() {
        let mut spec = schaffer_archipelago(1);
        spec.problem = ProblemSpec::named("leaf-design").with_param("export", "low");
        spec.optimizer = OptimizerSpec::Archipelago(ArchipelagoSpec {
            island: Nsga2Spec {
                population: 12,
                ..Default::default()
            },
            migration_interval: 3,
            ..Default::default()
        });
        spec.stopping.max_generations = 6;
        let problem = AnyProblem::from_spec(&spec.problem).unwrap();
        let front = spec_driver(&spec, &problem, None, None).unwrap().run();
        assert!(!front.is_empty());
        assert_eq!(front[0].objectives.len(), 2);
    }

    #[test]
    fn resume_rejects_a_mismatched_optimizer_shape() {
        let spec = schaffer_spec(5, 12);
        let problem = AnyProblem::from_spec(&spec.problem).unwrap();
        let mut driver = spec_driver(&spec, &problem, None, None).unwrap();
        driver.step();
        let checkpoint = driver.checkpoint();
        let different = RunSpec {
            optimizer: OptimizerSpec::Moead(Default::default()),
            ..schaffer_spec(5, 12)
        };
        assert!(spec_driver(&different, &problem, None, Some(checkpoint)).is_err());
    }
}

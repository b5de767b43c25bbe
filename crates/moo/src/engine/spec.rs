//! Declarative, serializable run descriptions.
//!
//! A [`RunSpec`] is a *plain-data* description of everything a run needs —
//! problem, optimizer (with full configuration), seed, stopping rules,
//! checkpoint cadence and observer sinks — so a run can be stored in a file,
//! shipped between processes, hashed, diffed and launched without writing
//! Rust code. The workspace is vendored-deps-only, so the spec ships its own
//! small text codec instead of serde: [`RunSpec::to_text`] emits a canonical
//! sectioned key/value document and [`RunSpec::from_text`] parses it back
//! with line- and field-level errors ([`SpecError`]).
//!
//! The codec round-trips exactly: `from_text(to_text(spec)) == spec` for
//! every valid spec (enforced by property tests), and
//! [`RunSpec::content_hash`] — an FNV-1a hash of the canonical text — gives
//! checkpoints a cheap way to detect that a resume was attempted against a
//! *different* spec (see [`crate::engine::CheckpointStore`]).
//!
//! The spec's problem description ([`ProblemSpec`]) is deliberately just a
//! name plus a string parameter map: this crate only knows synthetic
//! benchmarks, while the paper-level problems (leaf design, Geobacter) live
//! downstream. A problem registry (e.g. `pathway-core`'s `AnyProblem`)
//! resolves the description into a live [`MultiObjectiveProblem`].
//!
//! # Example
//!
//! ```
//! use pathway_moo::engine::RunSpec;
//!
//! let text = "\
//! pathway-spec v1
//!
//! [problem]
//! name = zdt1
//! variables = 12
//!
//! [optimizer]
//! kind = archipelago
//! islands = 2
//! population = 40
//! topology = ring
//!
//! [run]
//! seed = 7
//!
//! [stop]
//! max_generations = 30
//! ";
//! let spec = RunSpec::from_text(text).unwrap();
//! assert_eq!(spec.seed, 7);
//! // The canonical rendering round-trips bit for bit.
//! assert_eq!(RunSpec::from_text(&spec.to_text()).unwrap(), spec);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::engine::store::CheckpointRetention;
use crate::engine::telemetry::MetricsRegistry;
use crate::engine::{EngineError, Optimizer, OptimizerState, StoppingRule};
use crate::exec::Executor;
use crate::{
    Archipelago, ArchipelagoConfig, EvalBackend, Individual, MigrationTopology, Moead, MoeadConfig,
    MultiObjectiveProblem, Nsga2, Nsga2Config,
};

/// The header line every spec document starts with.
pub const SPEC_HEADER: &str = "pathway-spec v1";

/// 64-bit FNV-1a hash, used for spec content hashes and checkpoint
/// checksums. Stable across platforms and releases — it is part of the
/// persisted checkpoint format.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Error raised while parsing, validating or resolving a [`RunSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The text could not be parsed. `line` is 1-based.
    Parse {
        /// 1-based line number the error was detected on.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A structurally valid spec carries an unusable value, or the problem
    /// description could not be resolved by the registry.
    Field {
        /// Dotted path of the offending field, e.g. `optimizer.population`.
        field: String,
        /// What is wrong with it.
        message: String,
    },
}

impl SpecError {
    pub(crate) fn parse(line: usize, message: impl Into<String>) -> Self {
        SpecError::Parse {
            line,
            message: message.into(),
        }
    }

    /// Convenience constructor for field-level errors (used by problem
    /// registries resolving a [`ProblemSpec`] as well as by validation).
    pub fn field(field: impl Into<String>, message: impl Into<String>) -> Self {
        SpecError::Field {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse { line, message } => write!(f, "spec line {line}: {message}"),
            SpecError::Field { field, message } => write!(f, "spec field {field}: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// A problem description: a registry name plus string-valued parameters.
///
/// The spec layer treats problems as opaque data; a downstream registry
/// turns the name/params into a live [`MultiObjectiveProblem`] and reports
/// unknown names or bad parameters as [`SpecError::Field`] errors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProblemSpec {
    /// Registry name, e.g. `leaf-design`, `geobacter`, `zdt1`.
    pub name: String,
    /// Problem parameters, canonically ordered by key. Values are kept as
    /// strings so registries can parse them however they like.
    pub params: BTreeMap<String, String>,
}

impl ProblemSpec {
    /// Creates a parameterless problem description.
    pub fn named(name: impl Into<String>) -> Self {
        ProblemSpec {
            name: name.into(),
            params: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a parameter.
    #[must_use]
    pub fn with_param(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.params.insert(key.into(), value.into());
        self
    }

    /// Looks up a parameter and parses it with `FromStr`, reporting failures
    /// as field-level errors under `problem.<key>`. Returns `Ok(None)` when
    /// the parameter is absent.
    pub fn parsed_param<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, SpecError> {
        match self.params.get(key) {
            None => Ok(None),
            Some(raw) => raw.parse::<T>().map(Some).map_err(|_| {
                SpecError::field(format!("problem.{key}"), format!("invalid value '{raw}'"))
            }),
        }
    }
}

/// NSGA-II settings carried by a spec (the serializable face of
/// [`Nsga2Config`]; the generation budget lives in [`StoppingSpec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Spec {
    /// Individuals kept each generation.
    pub population: usize,
    /// Probability of applying SBX crossover to a mating pair.
    pub crossover_probability: f64,
    /// SBX distribution index (η_c).
    pub eta_crossover: f64,
    /// Per-gene mutation probability; `None` (spelled `auto` in text form)
    /// uses the `1/n` convention.
    pub mutation_probability: Option<f64>,
    /// Polynomial-mutation distribution index (η_m).
    pub eta_mutation: f64,
    /// How offspring batches are evaluated.
    pub backend: EvalBackend,
}

impl Default for Nsga2Spec {
    fn default() -> Self {
        let config = Nsga2Config::default();
        Nsga2Spec {
            population: config.population_size,
            crossover_probability: config.crossover_probability,
            eta_crossover: config.eta_crossover,
            mutation_probability: config.mutation_probability,
            eta_mutation: config.eta_mutation,
            backend: config.backend,
        }
    }
}

impl Nsga2Spec {
    /// The equivalent algorithm configuration, with the given generation
    /// budget filled in.
    pub fn config(&self, generations: usize) -> Nsga2Config {
        Nsga2Config {
            population_size: self.population,
            generations,
            crossover_probability: self.crossover_probability,
            eta_crossover: self.eta_crossover,
            mutation_probability: self.mutation_probability,
            eta_mutation: self.eta_mutation,
            backend: self.backend,
        }
    }
}

/// MOEA/D settings carried by a spec (the serializable face of
/// [`MoeadConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MoeadSpec {
    /// Number of sub-problems (= population size).
    pub population: usize,
    /// Neighbourhood size.
    pub neighborhood: usize,
    /// SBX distribution index.
    pub eta_crossover: f64,
    /// Polynomial-mutation distribution index.
    pub eta_mutation: f64,
    /// Per-gene mutation probability; `None` uses `1/n`.
    pub mutation_probability: Option<f64>,
    /// Backend used for the initial population batch.
    pub backend: EvalBackend,
}

impl Default for MoeadSpec {
    fn default() -> Self {
        let config = MoeadConfig::default();
        MoeadSpec {
            population: config.population_size,
            neighborhood: config.neighborhood_size,
            eta_crossover: config.eta_crossover,
            eta_mutation: config.eta_mutation,
            mutation_probability: config.mutation_probability,
            backend: config.backend,
        }
    }
}

impl MoeadSpec {
    /// The equivalent algorithm configuration, with the given generation
    /// budget filled in.
    pub fn config(&self, generations: usize) -> MoeadConfig {
        MoeadConfig {
            population_size: self.population,
            generations,
            neighborhood_size: self.neighborhood,
            eta_crossover: self.eta_crossover,
            eta_mutation: self.eta_mutation,
            mutation_probability: self.mutation_probability,
            backend: self.backend,
        }
    }
}

/// Archipelago (PMO2) settings carried by a spec: the island NSGA-II
/// settings plus the migration knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchipelagoSpec {
    /// Number of islands.
    pub islands: usize,
    /// Per-island NSGA-II settings.
    pub island: Nsga2Spec,
    /// Generations between migration events.
    pub migration_interval: usize,
    /// Probability an island participates in a migration event.
    pub migration_probability: f64,
    /// Migration topology.
    pub topology: MigrationTopology,
}

impl Default for ArchipelagoSpec {
    fn default() -> Self {
        let config = ArchipelagoConfig::default();
        ArchipelagoSpec {
            islands: config.islands,
            island: Nsga2Spec::default(),
            migration_interval: config.migration_interval,
            migration_probability: config.migration_probability,
            topology: config.topology,
        }
    }
}

impl ArchipelagoSpec {
    /// The equivalent algorithm configuration, with the given generation
    /// budget filled in.
    pub fn config(&self, generations: usize) -> ArchipelagoConfig {
        ArchipelagoConfig {
            islands: self.islands,
            island_config: self.island.config(generations),
            migration_interval: self.migration_interval,
            migration_probability: self.migration_probability,
            topology: self.topology,
        }
    }
}

/// Which optimizer a spec runs, with its full configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerSpec {
    /// A single NSGA-II population.
    Nsga2(Nsga2Spec),
    /// MOEA/D with Tchebycheff decomposition.
    Moead(MoeadSpec),
    /// The PMO2 archipelago of NSGA-II islands.
    Archipelago(ArchipelagoSpec),
}

impl Default for OptimizerSpec {
    /// The paper's default algorithm: the archipelago.
    fn default() -> Self {
        OptimizerSpec::Archipelago(ArchipelagoSpec::default())
    }
}

impl OptimizerSpec {
    /// Spec-text name of the optimizer kind.
    pub fn kind(&self) -> &'static str {
        match self {
            OptimizerSpec::Nsga2(_) => "nsga2",
            OptimizerSpec::Moead(_) => "moead",
            OptimizerSpec::Archipelago(_) => "archipelago",
        }
    }

    /// The evaluation backend this optimizer description carries (for the
    /// archipelago: the per-island backend). Spec-driven launchers use this
    /// to build one [`Executor`] for a whole run.
    pub fn backend(&self) -> EvalBackend {
        match self {
            OptimizerSpec::Nsga2(spec) => spec.backend,
            OptimizerSpec::Moead(spec) => spec.backend,
            OptimizerSpec::Archipelago(spec) => spec.island.backend,
        }
    }

    /// Builds a fresh optimizer from this description.
    ///
    /// `generations` fills the config's (engine-ignored, but kept coherent)
    /// generation field; the driver's stopping rule is what actually bounds
    /// the run.
    pub fn build(&self, seed: u64, generations: usize) -> AnyOptimizer {
        match self {
            OptimizerSpec::Nsga2(spec) => {
                AnyOptimizer::Nsga2(Box::new(Nsga2::new(spec.config(generations), seed)))
            }
            OptimizerSpec::Moead(spec) => {
                AnyOptimizer::Moead(Box::new(Moead::new(spec.config(generations), seed)))
            }
            OptimizerSpec::Archipelago(spec) => AnyOptimizer::Archipelago(Box::new(
                Archipelago::new(spec.config(generations), seed),
            )),
        }
    }
}

/// Stopping rules in serializable form. `max_generations` is mandatory so
/// every spec-described run is budget-bounded by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingSpec {
    /// Hard generation budget.
    pub max_generations: usize,
    /// Optional evaluation budget.
    pub max_evaluations: Option<usize>,
    /// Optional hypervolume-stagnation rule as `(window, epsilon)`.
    pub stagnation: Option<(usize, f64)>,
}

impl Default for StoppingSpec {
    fn default() -> Self {
        StoppingSpec {
            max_generations: 250,
            max_evaluations: None,
            stagnation: None,
        }
    }
}

impl StoppingSpec {
    /// The composed engine stopping rule.
    pub fn rule(&self) -> StoppingRule {
        let mut rules = vec![StoppingRule::MaxGenerations(self.max_generations)];
        if let Some(budget) = self.max_evaluations {
            rules.push(StoppingRule::MaxEvaluations(budget));
        }
        if let Some((window, epsilon)) = self.stagnation {
            rules.push(StoppingRule::HypervolumeStagnation { window, epsilon });
        }
        if rules.len() == 1 {
            rules.pop().expect("one rule")
        } else {
            StoppingRule::any_of(rules)
        }
    }
}

/// A complete, serializable run description.
///
/// See the `pathway_moo::engine` spec documentation for the text format and the
/// round-trip / hashing guarantees.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSpec {
    /// What to optimize.
    pub problem: ProblemSpec,
    /// Which algorithm to run, fully configured.
    pub optimizer: OptimizerSpec,
    /// Seed for the run's RNG streams.
    pub seed: u64,
    /// Write a durable checkpoint every this many generations; `0` means
    /// only at the end of the run. Consumed by the `pathway` CLI.
    pub checkpoint_every: usize,
    /// Which checkpoints to keep on disk (`checkpoint_keep_last` /
    /// `checkpoint_keep_every` in text form); `None` keeps all of them.
    /// Consumed by [`crate::engine::CheckpointStore`].
    pub retention: Option<CheckpointRetention>,
    /// Fixed hypervolume reference point; `None` derives one from the first
    /// generation's front.
    pub reference_point: Option<Vec<f64>>,
    /// When to stop.
    pub stopping: StoppingSpec,
    /// Log a progress line every this many generations (`None` = quiet).
    pub log_every: Option<usize>,
}

impl RunSpec {
    /// The composed engine stopping rule for this run.
    pub fn stopping_rule(&self) -> StoppingRule {
        self.stopping.rule()
    }

    /// Builds a fresh optimizer for this run.
    pub fn build_optimizer(&self) -> AnyOptimizer {
        self.optimizer
            .build(self.seed, self.stopping.max_generations)
    }

    /// FNV-1a hash of the canonical text rendering. Two specs have equal
    /// hashes iff their canonical forms are byte-identical, which is what
    /// checkpoint resume uses to reject a divergent spec.
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.to_text().as_bytes())
    }

    /// Semantic validation beyond what parsing enforces. `to_text` output of
    /// a validated spec always re-parses.
    ///
    /// # Errors
    ///
    /// Returns the first offending field as a [`SpecError::Field`].
    pub fn validate(&self) -> Result<(), SpecError> {
        validate_token("problem.name", &self.problem.name)?;
        for (key, value) in &self.problem.params {
            validate_token(&format!("problem.{key}"), key)?;
            // 'name' is the problem's own key in the text form; a param by
            // that name would render as a duplicate 'name =' line that no
            // parser accepts.
            if key == "name" {
                return Err(SpecError::field(
                    "problem.name",
                    "'name' is reserved for the problem name and cannot be a parameter",
                ));
            }
            // '#' starts a comment in the text form, so a value containing
            // one would re-parse truncated — silently changing the spec and
            // its content hash.
            if value.chars().any(|c| c.is_control()) || value.contains('#') || value != value.trim()
            {
                return Err(SpecError::field(
                    format!("problem.{key}"),
                    "parameter values must be single-line, trimmed and free of '#'",
                ));
            }
        }
        match &self.optimizer {
            OptimizerSpec::Nsga2(spec) => validate_nsga2("optimizer", spec)?,
            OptimizerSpec::Moead(spec) => {
                validate_count("optimizer.population", spec.population)?;
                validate_probability(
                    "optimizer.mutation_probability",
                    spec.mutation_probability.unwrap_or(0.0),
                )?;
                validate_positive("optimizer.eta_crossover", spec.eta_crossover)?;
                validate_positive("optimizer.eta_mutation", spec.eta_mutation)?;
                validate_count("optimizer.neighborhood", spec.neighborhood)?;
            }
            OptimizerSpec::Archipelago(spec) => {
                validate_count("optimizer.islands", spec.islands)?;
                validate_count("optimizer.migration_interval", spec.migration_interval)?;
                validate_probability(
                    "optimizer.migration_probability",
                    spec.migration_probability,
                )?;
                validate_nsga2("optimizer", &spec.island)?;
            }
        }
        if let Some(reference) = &self.reference_point {
            if reference.is_empty() || reference.iter().any(|v| !v.is_finite()) {
                return Err(SpecError::field(
                    "run.reference_point",
                    "must be a non-empty list of finite numbers",
                ));
            }
        }
        validate_count("stop.max_generations", self.stopping.max_generations)?;
        if let Some((window, epsilon)) = self.stopping.stagnation {
            validate_count("stop.stagnation_window", window)?;
            if !epsilon.is_finite() {
                return Err(SpecError::field(
                    "stop.stagnation_epsilon",
                    "must be finite",
                ));
            }
        }
        if let Some(retention) = &self.retention {
            validate_count("run.checkpoint_keep_last", retention.keep_last)?;
        }
        if let Some(every) = self.log_every {
            validate_count("observe.log_every", every)?;
        }
        Ok(())
    }

    /// Renders the canonical text form. Parsing it back yields an equal
    /// spec; hashing it yields [`RunSpec::content_hash`].
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(SPEC_HEADER);
        out.push_str("\n\n[problem]\n");
        push_kv(&mut out, "name", &self.problem.name);
        for (key, value) in &self.problem.params {
            push_kv(&mut out, key, value);
        }

        out.push_str("\n[optimizer]\n");
        push_kv(&mut out, "kind", self.optimizer.kind());
        match &self.optimizer {
            OptimizerSpec::Nsga2(spec) => push_nsga2(&mut out, spec),
            OptimizerSpec::Moead(spec) => {
                push_kv(&mut out, "population", &spec.population.to_string());
                push_kv(&mut out, "neighborhood", &spec.neighborhood.to_string());
                push_kv(&mut out, "eta_crossover", &spec.eta_crossover.to_string());
                push_kv(&mut out, "eta_mutation", &spec.eta_mutation.to_string());
                push_kv(
                    &mut out,
                    "mutation_probability",
                    &render_auto(spec.mutation_probability),
                );
                push_kv(&mut out, "backend", &render_backend(spec.backend));
            }
            OptimizerSpec::Archipelago(spec) => {
                push_kv(&mut out, "islands", &spec.islands.to_string());
                push_nsga2(&mut out, &spec.island);
                push_kv(
                    &mut out,
                    "migration_interval",
                    &spec.migration_interval.to_string(),
                );
                push_kv(
                    &mut out,
                    "migration_probability",
                    &spec.migration_probability.to_string(),
                );
                push_kv(&mut out, "topology", render_topology(spec.topology));
            }
        }

        out.push_str("\n[run]\n");
        push_kv(&mut out, "seed", &self.seed.to_string());
        push_kv(
            &mut out,
            "checkpoint_every",
            &self.checkpoint_every.to_string(),
        );
        if let Some(retention) = &self.retention {
            push_kv(
                &mut out,
                "checkpoint_keep_last",
                &retention.keep_last.to_string(),
            );
            if retention.keep_every > 0 {
                push_kv(
                    &mut out,
                    "checkpoint_keep_every",
                    &retention.keep_every.to_string(),
                );
            }
        }
        if let Some(reference) = &self.reference_point {
            let joined = reference
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(", ");
            push_kv(&mut out, "reference_point", &joined);
        }

        out.push_str("\n[stop]\n");
        push_kv(
            &mut out,
            "max_generations",
            &self.stopping.max_generations.to_string(),
        );
        if let Some(budget) = self.stopping.max_evaluations {
            push_kv(&mut out, "max_evaluations", &budget.to_string());
        }
        if let Some((window, epsilon)) = self.stopping.stagnation {
            push_kv(&mut out, "stagnation_window", &window.to_string());
            push_kv(&mut out, "stagnation_epsilon", &epsilon.to_string());
        }

        if let Some(every) = self.log_every {
            out.push_str("\n[observe]\n");
            push_kv(&mut out, "log_every", &every.to_string());
        }
        out
    }

    /// Parses a spec document.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError::Parse`] with the 1-based line number for
    /// syntax problems, unknown sections/keys, duplicate keys and malformed
    /// values, or a [`SpecError::Field`] when the parsed spec fails
    /// [`RunSpec::validate`].
    pub fn from_text(text: &str) -> Result<Self, SpecError> {
        let document = Document::parse(text)?;
        let spec = interpret(&document)?;
        spec.validate()?;
        Ok(spec)
    }
}

fn validate_nsga2(prefix: &str, spec: &Nsga2Spec) -> Result<(), SpecError> {
    validate_count(&format!("{prefix}.population"), spec.population)?;
    validate_probability(
        &format!("{prefix}.crossover_probability"),
        spec.crossover_probability,
    )?;
    validate_probability(
        &format!("{prefix}.mutation_probability"),
        spec.mutation_probability.unwrap_or(0.0),
    )?;
    validate_positive(&format!("{prefix}.eta_crossover"), spec.eta_crossover)?;
    validate_positive(&format!("{prefix}.eta_mutation"), spec.eta_mutation)
}

fn validate_token(field: &str, value: &str) -> Result<(), SpecError> {
    let valid = !value.is_empty()
        && value
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_');
    if valid {
        Ok(())
    } else {
        Err(SpecError::field(
            field,
            format!("'{value}' is not a lowercase [a-z0-9_-] token"),
        ))
    }
}

fn validate_count(field: &str, value: usize) -> Result<(), SpecError> {
    if value == 0 {
        Err(SpecError::field(field, "must be at least 1"))
    } else {
        Ok(())
    }
}

fn validate_probability(field: &str, value: f64) -> Result<(), SpecError> {
    if (0.0..=1.0).contains(&value) {
        Ok(())
    } else {
        Err(SpecError::field(field, "must be a probability in [0, 1]"))
    }
}

fn validate_positive(field: &str, value: f64) -> Result<(), SpecError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(SpecError::field(field, "must be a positive finite number"))
    }
}

fn push_kv(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    out.push_str(" = ");
    out.push_str(value);
    out.push('\n');
}

fn push_nsga2(out: &mut String, spec: &Nsga2Spec) {
    push_kv(out, "population", &spec.population.to_string());
    push_kv(
        out,
        "crossover_probability",
        &spec.crossover_probability.to_string(),
    );
    push_kv(out, "eta_crossover", &spec.eta_crossover.to_string());
    push_kv(
        out,
        "mutation_probability",
        &render_auto(spec.mutation_probability),
    );
    push_kv(out, "eta_mutation", &spec.eta_mutation.to_string());
    push_kv(out, "backend", &render_backend(spec.backend));
}

fn render_auto(value: Option<f64>) -> String {
    match value {
        None => "auto".to_string(),
        Some(v) => v.to_string(),
    }
}

fn render_backend(backend: EvalBackend) -> String {
    match backend {
        EvalBackend::Serial => "serial".to_string(),
        EvalBackend::Threads(n) => format!("threads:{n}"),
    }
}

fn render_topology(topology: MigrationTopology) -> &'static str {
    match topology {
        MigrationTopology::Broadcast => "broadcast",
        MigrationTopology::Ring => "ring",
        MigrationTopology::Isolated => "isolated",
    }
}

/// One parsed `key = value` line.
struct Entry {
    line: usize,
    key: String,
    value: String,
}

/// The raw sectioned document: section name → entries, in file order.
struct Document {
    sections: Vec<(String, Vec<Entry>)>,
}

pub(crate) const KNOWN_SECTIONS: [&str; 5] = ["problem", "optimizer", "run", "stop", "observe"];

impl Document {
    fn parse(text: &str) -> Result<Self, SpecError> {
        let mut lines = text.lines().enumerate();
        // The first significant line must be the header.
        let mut header_seen = false;
        let mut sections: Vec<(String, Vec<Entry>)> = Vec::new();
        let mut current: Option<usize> = None;
        for (index, raw) in &mut lines {
            let line_no = index + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if !header_seen {
                if line != SPEC_HEADER {
                    return Err(SpecError::parse(
                        line_no,
                        format!("expected header '{SPEC_HEADER}', found '{line}'"),
                    ));
                }
                header_seen = true;
                continue;
            }
            if let Some(name) = line.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']') else {
                    return Err(SpecError::parse(line_no, "unterminated section header"));
                };
                let name = name.trim();
                if !KNOWN_SECTIONS.contains(&name) {
                    return Err(SpecError::parse(
                        line_no,
                        format!(
                            "unknown section '[{name}]' (expected one of [problem], \
                             [optimizer], [run], [stop], [observe])"
                        ),
                    ));
                }
                if sections.iter().any(|(existing, _)| existing == name) {
                    return Err(SpecError::parse(
                        line_no,
                        format!("duplicate section '[{name}]'"),
                    ));
                }
                sections.push((name.to_string(), Vec::new()));
                current = Some(sections.len() - 1);
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(SpecError::parse(
                    line_no,
                    format!("expected 'key = value', found '{line}'"),
                ));
            };
            let key = key.trim().to_string();
            let value = value.trim().to_string();
            if key.is_empty() {
                return Err(SpecError::parse(line_no, "empty key"));
            }
            let Some(section) = current else {
                return Err(SpecError::parse(
                    line_no,
                    format!("key '{key}' appears before any [section]"),
                ));
            };
            let entries = &mut sections[section].1;
            if entries.iter().any(|entry| entry.key == key) {
                return Err(SpecError::parse(
                    line_no,
                    format!("duplicate key '{key}' in [{}]", sections[section].0),
                ));
            }
            sections[section].1.push(Entry {
                line: line_no,
                key,
                value,
            });
        }
        if !header_seen {
            return Err(SpecError::parse(
                1,
                format!("missing header '{SPEC_HEADER}'"),
            ));
        }
        Ok(Document { sections })
    }

    fn section(&self, name: &str) -> Option<&[Entry]> {
        self.sections
            .iter()
            .find(|(section, _)| section == name)
            .map(|(_, entries)| entries.as_slice())
    }
}

pub(crate) fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(at) => &line[..at],
        None => line,
    }
}

/// Typed accessor over one section's entries that tracks which keys were
/// consumed, so leftovers can be reported as unknown keys with their line.
struct Section<'d> {
    name: &'static str,
    entries: &'d [Entry],
    consumed: Vec<bool>,
}

impl<'d> Section<'d> {
    fn new(name: &'static str, entries: &'d [Entry]) -> Self {
        Section {
            name,
            entries,
            consumed: vec![false; entries.len()],
        }
    }

    fn take(&mut self, key: &str) -> Option<&'d Entry> {
        for (index, entry) in self.entries.iter().enumerate() {
            if entry.key == key {
                self.consumed[index] = true;
                return Some(entry);
            }
        }
        None
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, SpecError> {
        match self.take(key) {
            None => Ok(None),
            Some(entry) => entry.value.parse::<T>().map(Some).map_err(|_| {
                SpecError::parse(
                    entry.line,
                    format!("invalid value '{}' for '{key}'", entry.value),
                )
            }),
        }
    }

    fn finish(self) -> Result<(), SpecError> {
        for (entry, consumed) in self.entries.iter().zip(&self.consumed) {
            if !consumed {
                return Err(SpecError::parse(
                    entry.line,
                    format!("unknown key '{}' in [{}]", entry.key, self.name),
                ));
            }
        }
        Ok(())
    }
}

fn interpret(document: &Document) -> Result<RunSpec, SpecError> {
    // [problem]
    let entries = document
        .section("problem")
        .ok_or_else(|| SpecError::parse(1, "missing [problem] section"))?;
    let mut problem = ProblemSpec::default();
    for entry in entries {
        if entry.key == "name" {
            problem.name = entry.value.clone();
        } else {
            problem
                .params
                .insert(entry.key.clone(), entry.value.clone());
        }
    }
    if problem.name.is_empty() {
        return Err(SpecError::parse(
            entries.first().map_or(1, |e| e.line),
            "[problem] must set 'name'",
        ));
    }

    // [optimizer]
    let entries = document
        .section("optimizer")
        .ok_or_else(|| SpecError::parse(1, "missing [optimizer] section"))?;
    let mut section = Section::new("optimizer", entries);
    let kind = section.take("kind").ok_or_else(|| {
        SpecError::parse(
            entries.first().map_or(1, |e| e.line),
            "[optimizer] must set 'kind'",
        )
    })?;
    let optimizer = match kind.value.as_str() {
        "nsga2" => OptimizerSpec::Nsga2(take_nsga2(&mut section)?),
        "moead" => {
            let mut spec = MoeadSpec::default();
            if let Some(v) = section.take_parsed("population")? {
                spec.population = v;
            }
            if let Some(v) = section.take_parsed("neighborhood")? {
                spec.neighborhood = v;
            }
            if let Some(v) = section.take_parsed("eta_crossover")? {
                spec.eta_crossover = v;
            }
            if let Some(v) = section.take_parsed("eta_mutation")? {
                spec.eta_mutation = v;
            }
            if let Some(entry) = section.take("mutation_probability") {
                spec.mutation_probability = parse_auto(entry)?;
            }
            if let Some(entry) = section.take("backend") {
                spec.backend = parse_backend(entry)?;
            }
            OptimizerSpec::Moead(spec)
        }
        "archipelago" => {
            let mut spec = ArchipelagoSpec::default();
            if let Some(v) = section.take_parsed("islands")? {
                spec.islands = v;
            }
            spec.island = take_nsga2(&mut section)?;
            if let Some(v) = section.take_parsed("migration_interval")? {
                spec.migration_interval = v;
            }
            if let Some(v) = section.take_parsed("migration_probability")? {
                spec.migration_probability = v;
            }
            if let Some(entry) = section.take("topology") {
                spec.topology = match entry.value.as_str() {
                    "broadcast" => MigrationTopology::Broadcast,
                    "ring" => MigrationTopology::Ring,
                    "isolated" => MigrationTopology::Isolated,
                    other => {
                        return Err(SpecError::parse(
                            entry.line,
                            format!(
                                "unknown topology '{other}' (expected broadcast, ring or isolated)"
                            ),
                        ))
                    }
                };
            }
            OptimizerSpec::Archipelago(spec)
        }
        other => {
            return Err(SpecError::parse(
                kind.line,
                format!("unknown optimizer kind '{other}' (expected nsga2, moead or archipelago)"),
            ))
        }
    };
    section.finish()?;

    // [run]
    let mut seed = 0u64;
    let mut checkpoint_every = 0usize;
    let mut retention = None;
    let mut reference_point = None;
    if let Some(entries) = document.section("run") {
        let mut section = Section::new("run", entries);
        if let Some(v) = section.take_parsed("seed")? {
            seed = v;
        }
        if let Some(v) = section.take_parsed("checkpoint_every")? {
            checkpoint_every = v;
        }
        let keep_last: Option<usize> = section.take_parsed("checkpoint_keep_last")?;
        let keep_every_line = section.take("checkpoint_keep_every").map(|e| e.line);
        let keep_every: Option<usize> = section.take_parsed("checkpoint_keep_every")?;
        retention = match (keep_last, keep_every) {
            (Some(keep_last), keep_every) => Some(CheckpointRetention {
                keep_last,
                keep_every: keep_every.unwrap_or(0),
            }),
            (None, None) => None,
            (None, Some(_)) => {
                return Err(SpecError::parse(
                    keep_every_line.expect("the key was just taken"),
                    "checkpoint_keep_every requires checkpoint_keep_last",
                ))
            }
        };
        if let Some(entry) = section.take("reference_point") {
            let mut values = Vec::new();
            for part in entry.value.split(',') {
                let value: f64 = part.trim().parse().map_err(|_| {
                    SpecError::parse(
                        entry.line,
                        format!("invalid reference point component '{}'", part.trim()),
                    )
                })?;
                values.push(value);
            }
            reference_point = Some(values);
        }
        section.finish()?;
    }

    // [stop]
    let mut stopping = StoppingSpec::default();
    if let Some(entries) = document.section("stop") {
        let mut section = Section::new("stop", entries);
        if let Some(v) = section.take_parsed("max_generations")? {
            stopping.max_generations = v;
        }
        stopping.max_evaluations = section.take_parsed("max_evaluations")?;
        let window: Option<usize> = section.take_parsed("stagnation_window")?;
        let epsilon: Option<f64> = section.take_parsed("stagnation_epsilon")?;
        stopping.stagnation = match (window, epsilon) {
            (Some(window), Some(epsilon)) => Some((window, epsilon)),
            (None, None) => None,
            _ => {
                return Err(SpecError::parse(
                    entries.first().map_or(1, |e| e.line),
                    "stagnation_window and stagnation_epsilon must be set together",
                ))
            }
        };
        section.finish()?;
    }

    // [observe]
    let mut log_every = None;
    if let Some(entries) = document.section("observe") {
        let mut section = Section::new("observe", entries);
        log_every = section.take_parsed("log_every")?;
        section.finish()?;
    }

    Ok(RunSpec {
        problem,
        optimizer,
        seed,
        checkpoint_every,
        retention,
        reference_point,
        stopping,
        log_every,
    })
}

fn take_nsga2(section: &mut Section<'_>) -> Result<Nsga2Spec, SpecError> {
    let mut spec = Nsga2Spec::default();
    if let Some(v) = section.take_parsed("population")? {
        spec.population = v;
    }
    if let Some(v) = section.take_parsed("crossover_probability")? {
        spec.crossover_probability = v;
    }
    if let Some(v) = section.take_parsed("eta_crossover")? {
        spec.eta_crossover = v;
    }
    if let Some(entry) = section.take("mutation_probability") {
        spec.mutation_probability = parse_auto(entry)?;
    }
    if let Some(v) = section.take_parsed("eta_mutation")? {
        spec.eta_mutation = v;
    }
    if let Some(entry) = section.take("backend") {
        spec.backend = parse_backend(entry)?;
    }
    Ok(spec)
}

fn parse_auto(entry: &Entry) -> Result<Option<f64>, SpecError> {
    if entry.value == "auto" {
        Ok(None)
    } else {
        entry.value.parse::<f64>().map(Some).map_err(|_| {
            SpecError::parse(
                entry.line,
                format!(
                    "invalid value '{}' for '{}' (expected 'auto' or a number)",
                    entry.value, entry.key
                ),
            )
        })
    }
}

fn parse_backend(entry: &Entry) -> Result<EvalBackend, SpecError> {
    if entry.value == "serial" {
        return Ok(EvalBackend::Serial);
    }
    if let Some(count) = entry.value.strip_prefix("threads:") {
        let workers: usize = count
            .parse()
            .map_err(|_| SpecError::parse(entry.line, format!("invalid thread count '{count}'")))?;
        return Ok(EvalBackend::Threads(workers));
    }
    Err(SpecError::parse(
        entry.line,
        format!(
            "unknown backend '{}' (expected serial or threads:<n>)",
            entry.value
        ),
    ))
}

/// Any of the shipped optimizers behind one concrete type, so spec-driven
/// code (the `pathway` CLI, `pathway-core`'s factories) can hold a
/// [`crate::engine::Driver`] without being generic over the optimizer kind.
#[derive(Debug, Clone)]
pub enum AnyOptimizer {
    /// A single NSGA-II population.
    Nsga2(Box<Nsga2>),
    /// MOEA/D with Tchebycheff decomposition.
    Moead(Box<Moead>),
    /// The PMO2 archipelago.
    Archipelago(Box<Archipelago>),
}

impl AnyOptimizer {
    /// Spec-text name of the wrapped optimizer kind.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyOptimizer::Nsga2(_) => "nsga2",
            AnyOptimizer::Moead(_) => "moead",
            AnyOptimizer::Archipelago(_) => "archipelago",
        }
    }

    /// Cumulative candidate evaluations spent so far. Inherent (rather than
    /// only via [`Optimizer`]) because the trait method needs a problem type
    /// annotation the caller may not have at hand.
    pub fn evaluations(&self) -> usize {
        match self {
            AnyOptimizer::Nsga2(inner) => inner.evaluations(),
            AnyOptimizer::Moead(inner) => inner.evaluations(),
            AnyOptimizer::Archipelago(inner) => inner.evaluations(),
        }
    }

    /// Installs a (usually shared) evaluation [`Executor`] on the wrapped
    /// optimizer — for the archipelago, the one its islands breed and
    /// evaluate on. Spec-driven launchers (the `pathway` CLI) use this to
    /// run a whole invocation, resume included, on one persistent worker
    /// pool instead of letting each optimizer build its own. Executors
    /// never change results, only where batches are evaluated.
    pub fn set_executor(&mut self, executor: Arc<Executor>) {
        match self {
            AnyOptimizer::Nsga2(inner) => inner.set_executor(executor),
            AnyOptimizer::Moead(inner) => inner.set_executor(executor),
            AnyOptimizer::Archipelago(inner) => inner.set_executor(executor),
        }
    }

    /// Attaches a telemetry registry to the wrapped optimizer — for the
    /// archipelago, to every island. Observational only, like
    /// [`set_executor`](AnyOptimizer::set_executor). MOEA/D evaluates its
    /// children inline per sub-problem rather than in phased batches, so
    /// it records no optimizer-level phases; executor- and driver-level
    /// spans still cover it.
    pub fn set_metrics(&mut self, registry: MetricsRegistry) {
        match self {
            AnyOptimizer::Nsga2(inner) => inner.set_metrics(registry),
            AnyOptimizer::Moead(_) => {}
            AnyOptimizer::Archipelago(inner) => inner.set_metrics(registry),
        }
    }
}

impl<P: MultiObjectiveProblem> Optimizer<P> for AnyOptimizer {
    fn initialize(&mut self, problem: &P) {
        match self {
            AnyOptimizer::Nsga2(inner) => Optimizer::<P>::initialize(inner.as_mut(), problem),
            AnyOptimizer::Moead(inner) => Optimizer::<P>::initialize(inner.as_mut(), problem),
            AnyOptimizer::Archipelago(inner) => Optimizer::<P>::initialize(inner.as_mut(), problem),
        }
    }

    fn step(&mut self, problem: &P) {
        match self {
            AnyOptimizer::Nsga2(inner) => Optimizer::<P>::step(inner.as_mut(), problem),
            AnyOptimizer::Moead(inner) => Optimizer::<P>::step(inner.as_mut(), problem),
            AnyOptimizer::Archipelago(inner) => Optimizer::<P>::step(inner.as_mut(), problem),
        }
    }

    fn population(&self) -> Vec<Individual> {
        match self {
            AnyOptimizer::Nsga2(inner) => Optimizer::<P>::population(inner.as_ref()),
            AnyOptimizer::Moead(inner) => Optimizer::<P>::population(inner.as_ref()),
            AnyOptimizer::Archipelago(inner) => Optimizer::<P>::population(inner.as_ref()),
        }
    }

    fn front(&self) -> Vec<Individual> {
        match self {
            AnyOptimizer::Nsga2(inner) => Optimizer::<P>::front(inner.as_ref()),
            AnyOptimizer::Moead(inner) => Optimizer::<P>::front(inner.as_ref()),
            AnyOptimizer::Archipelago(inner) => Optimizer::<P>::front(inner.as_ref()),
        }
    }

    fn evaluations(&self) -> usize {
        match self {
            AnyOptimizer::Nsga2(inner) => Optimizer::<P>::evaluations(inner.as_ref()),
            AnyOptimizer::Moead(inner) => Optimizer::<P>::evaluations(inner.as_ref()),
            AnyOptimizer::Archipelago(inner) => Optimizer::<P>::evaluations(inner.as_ref()),
        }
    }

    fn state(&self) -> OptimizerState {
        match self {
            AnyOptimizer::Nsga2(inner) => Optimizer::<P>::state(inner.as_ref()),
            AnyOptimizer::Moead(inner) => Optimizer::<P>::state(inner.as_ref()),
            AnyOptimizer::Archipelago(inner) => Optimizer::<P>::state(inner.as_ref()),
        }
    }

    fn restore(&mut self, state: OptimizerState) -> Result<(), EngineError> {
        match self {
            AnyOptimizer::Nsga2(inner) => Optimizer::<P>::restore(inner.as_mut(), state),
            AnyOptimizer::Moead(inner) => Optimizer::<P>::restore(inner.as_mut(), state),
            AnyOptimizer::Archipelago(inner) => Optimizer::<P>::restore(inner.as_mut(), state),
        }
    }

    fn set_metrics(&mut self, registry: MetricsRegistry) {
        AnyOptimizer::set_metrics(self, registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Schaffer;

    fn sample_spec() -> RunSpec {
        RunSpec {
            problem: ProblemSpec::named("zdt1").with_param("variables", "12"),
            optimizer: OptimizerSpec::Archipelago(ArchipelagoSpec {
                islands: 2,
                island: Nsga2Spec {
                    population: 24,
                    backend: EvalBackend::Threads(2),
                    ..Default::default()
                },
                migration_interval: 10,
                migration_probability: 0.5,
                topology: MigrationTopology::Ring,
            }),
            seed: 42,
            checkpoint_every: 5,
            retention: Some(CheckpointRetention {
                keep_last: 3,
                keep_every: 10,
            }),
            reference_point: Some(vec![1.1, 1.1]),
            stopping: StoppingSpec {
                max_generations: 30,
                max_evaluations: Some(10_000),
                stagnation: Some((8, 1e-9)),
            },
            log_every: Some(10),
        }
    }

    #[test]
    fn canonical_text_round_trips() {
        let spec = sample_spec();
        let text = spec.to_text();
        let reparsed = RunSpec::from_text(&text).expect("canonical text parses");
        assert_eq!(reparsed, spec);
        assert_eq!(reparsed.content_hash(), spec.content_hash());
    }

    #[test]
    fn minimal_spec_fills_defaults() {
        let text =
            format!("{SPEC_HEADER}\n[problem]\nname = schaffer\n[optimizer]\nkind = nsga2\n");
        let spec = RunSpec::from_text(&text).expect("minimal spec");
        assert_eq!(spec.problem.name, "schaffer");
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.stopping.max_generations, 250);
        assert!(matches!(spec.optimizer, OptimizerSpec::Nsga2(_)));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!(
            "# leading comment\n{SPEC_HEADER}\n\n[problem] # trailing\nname = schaffer # the name\n\n[optimizer]\nkind = moead\n"
        );
        let spec = RunSpec::from_text(&text).expect("commented spec");
        assert!(matches!(spec.optimizer, OptimizerSpec::Moead(_)));
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let text = format!("{SPEC_HEADER}\n[problem]\nname = schaffer\n[optimizer]\nkind = nsga2\npopulation = many\n");
        match RunSpec::from_text(&text) {
            Err(SpecError::Parse { line, message }) => {
                assert_eq!(line, 6);
                assert!(message.contains("population"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_keys_sections_and_duplicates_are_rejected() {
        let bad_key = format!("{SPEC_HEADER}\n[problem]\nname = schaffer\n[optimizer]\nkind = nsga2\ntopolgy = ring\n");
        assert!(matches!(
            RunSpec::from_text(&bad_key),
            Err(SpecError::Parse { line: 6, .. })
        ));
        let bad_section = format!("{SPEC_HEADER}\n[problems]\nname = schaffer\n");
        assert!(matches!(
            RunSpec::from_text(&bad_section),
            Err(SpecError::Parse { line: 2, .. })
        ));
        let duplicate =
            format!("{SPEC_HEADER}\n[problem]\nname = a\nname = b\n[optimizer]\nkind = nsga2\n");
        assert!(matches!(
            RunSpec::from_text(&duplicate),
            Err(SpecError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn missing_header_is_line_one() {
        assert!(matches!(
            RunSpec::from_text("[problem]\nname = x\n"),
            Err(SpecError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            RunSpec::from_text(""),
            Err(SpecError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn validation_rejects_out_of_range_fields() {
        let mut spec = sample_spec();
        spec.reference_point = Some(vec![f64::NAN]);
        assert!(matches!(spec.validate(), Err(SpecError::Field { .. })));
        let mut spec = sample_spec();
        if let OptimizerSpec::Archipelago(arch) = &mut spec.optimizer {
            arch.migration_probability = 1.5;
        }
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("migration_probability"), "{err}");
    }

    #[test]
    fn comment_chars_in_param_values_and_zero_log_every_are_rejected() {
        // A '#' inside a value would re-parse truncated, silently changing
        // the spec and its hash — validation must refuse it up front.
        let mut spec = sample_spec();
        spec.problem = ProblemSpec::named("zdt1").with_param("variables", "12 # twelve");
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains('#'), "{err}");

        // log_every = 0 would mean "never" to a modulo check but "every
        // generation" to LogObserver; reject it instead of guessing.
        let mut spec = sample_spec();
        spec.log_every = Some(0);
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("log_every"), "{err}");

        // A param literally keyed 'name' would render as a duplicate
        // 'name =' line that from_text rejects.
        let mut spec = sample_spec();
        spec.problem = ProblemSpec::named("zdt1").with_param("name", "zdt2");
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
    }

    #[test]
    fn retention_keys_parse_validate_and_round_trip() {
        // keep_every without keep_last is a parse error.
        let text = format!(
            "{SPEC_HEADER}\n[problem]\nname = schaffer\n[optimizer]\nkind = nsga2\n[run]\ncheckpoint_keep_every = 10\n"
        );
        match RunSpec::from_text(&text) {
            Err(SpecError::Parse { line, message }) => {
                assert!(message.contains("checkpoint_keep_last"), "{message}");
                assert_eq!(line, 7, "the error must point at the offending key");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
        // keep_last alone round-trips with keep_every defaulting to 0.
        let text = format!(
            "{SPEC_HEADER}\n[problem]\nname = schaffer\n[optimizer]\nkind = nsga2\n[run]\ncheckpoint_keep_last = 5\n"
        );
        let spec = RunSpec::from_text(&text).expect("keep_last alone is valid");
        assert_eq!(
            spec.retention,
            Some(CheckpointRetention {
                keep_last: 5,
                keep_every: 0
            })
        );
        assert_eq!(RunSpec::from_text(&spec.to_text()).unwrap(), spec);
        // keep_last must be at least 1: the newest checkpoint is what
        // resume needs.
        let mut spec = sample_spec();
        spec.retention = Some(CheckpointRetention {
            keep_last: 0,
            keep_every: 10,
        });
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("checkpoint_keep_last"), "{err}");
    }

    #[test]
    fn stagnation_keys_must_come_together() {
        let text = format!(
            "{SPEC_HEADER}\n[problem]\nname = schaffer\n[optimizer]\nkind = nsga2\n[stop]\nstagnation_window = 5\n"
        );
        assert!(RunSpec::from_text(&text).is_err());
    }

    #[test]
    fn content_hash_tracks_meaningful_changes() {
        let spec = sample_spec();
        let mut tweaked = spec.clone();
        tweaked.seed = 43;
        assert_ne!(spec.content_hash(), tweaked.content_hash());
        // Formatting noise does not change the hash: parsing normalizes.
        let noisy = spec.to_text().replace(" = ", "   =   ");
        let reparsed = RunSpec::from_text(&noisy).expect("noisy spec parses");
        assert_eq!(reparsed.content_hash(), spec.content_hash());
    }

    #[test]
    fn build_optimizer_matches_kind_and_runs() {
        let mut spec = sample_spec();
        spec.stopping.max_generations = 3;
        let mut optimizer = spec.build_optimizer();
        assert!(matches!(optimizer, AnyOptimizer::Archipelago(_)));
        Optimizer::<Schaffer>::initialize(&mut optimizer, &Schaffer);
        Optimizer::<Schaffer>::step(&mut optimizer, &Schaffer);
        assert!(Optimizer::<Schaffer>::evaluations(&optimizer) > 0);
        assert!(!Optimizer::<Schaffer>::front(&optimizer).is_empty());
    }

    #[test]
    fn any_optimizer_state_round_trips_through_restore() {
        let spec = RunSpec {
            optimizer: OptimizerSpec::Nsga2(Nsga2Spec {
                population: 12,
                ..Default::default()
            }),
            ..sample_spec()
        };
        let mut a = spec.build_optimizer();
        Optimizer::<Schaffer>::step(&mut a, &Schaffer);
        let state = Optimizer::<Schaffer>::state(&a);
        let mut b = spec.build_optimizer();
        Optimizer::<Schaffer>::restore(&mut b, state).expect("same configuration");
        Optimizer::<Schaffer>::step(&mut a, &Schaffer);
        Optimizer::<Schaffer>::step(&mut b, &Schaffer);
        assert_eq!(
            Optimizer::<Schaffer>::front(&a),
            Optimizer::<Schaffer>::front(&b)
        );
        // Kind mismatch is rejected.
        let mut moead = OptimizerSpec::Moead(MoeadSpec::default()).build(1, 5);
        let err = Optimizer::<Schaffer>::restore(&mut moead, Optimizer::<Schaffer>::state(&a))
            .unwrap_err();
        assert!(matches!(err, EngineError::StateMismatch { .. }));
    }
}

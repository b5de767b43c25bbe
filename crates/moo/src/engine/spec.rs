//! Declarative, serializable run descriptions.
//!
//! A [`RunSpec`] is a *plain-data* description of everything a run needs —
//! problem, optimizer (with full configuration), seed, stopping rules,
//! checkpoint cadence and progress cadence — so a run can be stored in a file,
//! shipped between processes, hashed, diffed and launched without writing
//! Rust code. The workspace is vendored-deps-only, so the spec ships its own
//! small text codec instead of serde: [`RunSpec::to_text`] emits a canonical
//! sectioned key/value document and [`RunSpec::from_text`] parses it back
//! with line- and field-level errors ([`SpecError`]).
//!
//! Each key is declared once, as a row of its section's table: its name and
//! how its text reads into, renders from and checks its field. `[optimizer]`
//! has one table per kind (the archipelago's islands reuse NSGA-II's rows);
//! `[run]`, `[stop]` and `[observe]` have one each. Parsing, rendering,
//! [`RunSpec::validate`] and a sweep's cells all go through the tables, and
//! a table's row order is the canonical key order. The codec round-trips
//! exactly, `from_text(to_text(spec)) == spec` (property-tested), and
//! [`RunSpec::content_hash`], an FNV-1a hash of the canonical text, lets a
//! checkpoint refuse a resume against a *different* spec (see
//! [`crate::engine::CheckpointStore`]).
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
use std::fmt::{self, Write as _};
use std::sync::Arc;

use crate::engine::store::CheckpointRetention;
use crate::engine::telemetry::MetricsRegistry;
use crate::engine::{EngineError, Optimizer, OptimizerState, StoppingRule};
use crate::exec::Executor;
use crate::{
    Archipelago, ArchipelagoSpec, EvalBackend, Individual, MigrationTopology, Moead, MoeadSpec,
    MultiObjectiveProblem, Nsga2, Nsga2Spec,
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

/// Binds `$keys` to the key table of `$optimizer`'s kind and `$spec` to
/// its description, and evaluates `$body` for whichever kind it is.
macro_rules! with_kind {
    ($optimizer:expr, |$keys:ident, $spec:ident| $body:expr) => {
        match $optimizer {
            OptimizerSpec::Nsga2($spec) => {
                let $keys = &NSGA2[..];
                $body
            }
            OptimizerSpec::Moead($spec) => {
                let $keys = &MOEAD[..];
                $body
            }
            OptimizerSpec::Archipelago($spec) => {
                let $keys = &ARCHIPELAGO[..];
                $body
            }
        }
    };
}

impl OptimizerSpec {
    /// The default description of every kind.
    fn kinds() -> [OptimizerSpec; 3] {
        [
            OptimizerSpec::Nsga2(Nsga2Spec::default()),
            OptimizerSpec::Moead(MoeadSpec::default()),
            OptimizerSpec::Archipelago(ArchipelagoSpec::default()),
        ]
    }

    /// The default description of the kind named `kind` (its spec-text
    /// name), or the error for a kind no optimizer has.
    fn default_for(kind: &str) -> Result<OptimizerSpec, String> {
        let kinds = OptimizerSpec::kinds();
        let unknown = || {
            let expected = kinds.each_ref().map(OptimizerSpec::kind).join(", ");
            format!("unknown optimizer kind '{kind}' (expected one of {expected})")
        };
        kinds
            .iter()
            .find(|spec| spec.kind() == kind)
            .cloned()
            .ok_or_else(unknown)
    }

    /// This description switched to kind `kind`: that kind's defaults, with
    /// the value of every key the two kinds' tables share carried over.
    fn retarget(&self, kind: &str) -> Result<OptimizerSpec, String> {
        let mut next = OptimizerSpec::default_for(kind)?;
        let mut text = String::new();
        with_kind!(self, |from, old| with_kind!(&mut next, |to, new| {
            for key in to {
                text.clear();
                if find(from, key.name).is_some_and(|row| (row.write)(old, &mut text)) {
                    (key.read)(new, &text).expect("a rendered value reads back");
                }
            }
        }));
        Ok(next)
    }

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

    /// Builds a fresh optimizer from this description. The driver's
    /// stopping rule, not the optimizer, bounds the run.
    pub fn build(&self, seed: u64) -> AnyOptimizer {
        match *self {
            OptimizerSpec::Nsga2(spec) => AnyOptimizer::Nsga2(Box::new(Nsga2::new(spec, seed))),
            OptimizerSpec::Moead(spec) => AnyOptimizer::Moead(Box::new(Moead::new(spec, seed))),
            OptimizerSpec::Archipelago(spec) => {
                AnyOptimizer::Archipelago(Box::new(Archipelago::new(spec, seed)))
            }
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
    fn rule(&self) -> StoppingRule {
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
        self.optimizer.build(self.seed)
    }

    /// FNV-1a hash of the canonical text rendering. Two specs have equal
    /// hashes iff their canonical forms are byte-identical, which is what
    /// checkpoint resume uses to reject a divergent spec.
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.to_text().as_bytes())
    }

    /// Semantic validation beyond what parsing enforces: the problem's
    /// tokens, then each key's check from its table row. `to_text` output of
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
            if key == PROBLEM_NAME {
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
        with_kind!(&self.optimizer, |keys, o| check_keys(OPTIMIZER, keys, o))?;
        TABLES
            .iter()
            .try_for_each(|(section, keys)| check_keys(section, keys, self))
    }

    /// Renders the canonical text form: each section's keys that are set, in
    /// table order. Parsing it back yields an equal spec; hashing it yields
    /// [`RunSpec::content_hash`].
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(SPEC_HEADER);
        out.push_str("\n\n[problem]\n");
        push_kv(&mut out, PROBLEM_NAME, &self.problem.name);
        for (key, value) in &self.problem.params {
            push_kv(&mut out, key, value);
        }
        out.push_str("\n[optimizer]\n");
        push_kv(&mut out, OPTIMIZER_KIND, self.optimizer.kind());
        with_kind!(&self.optimizer, |keys, o| write_keys(&mut out, keys, o));
        for (section, keys) in &TABLES {
            // A section with no key set (`[observe]` when quiet) is left out.
            let start = out.len();
            out.push_str("\n[");
            out.push_str(section);
            out.push_str("]\n");
            if !write_keys(&mut out, keys, self) {
                out.truncate(start);
            }
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
        RunSpec::read(&Document::parse(text, SPEC_HEADER, None)?)
    }

    /// The validated spec a document's spec sections describe.
    pub(super) fn read(document: &Document) -> Result<Self, SpecError> {
        let required = |section: &str, key: &str| {
            let entries = document.section(section);
            let line = entries.first().map_or(1, |entry| entry.line);
            let set = entries.iter().find(|e| e.key == key && !e.value.is_empty());
            set.ok_or_else(|| SpecError::parse(line, format!("[{section}] must set '{key}'")))
        };
        required(PROBLEM, PROBLEM_NAME)?;
        let kind = required(OPTIMIZER, OPTIMIZER_KIND)?;
        let optimizer = OptimizerSpec::default_for(&kind.value)
            .map_err(|message| SpecError::parse(kind.line, message))?;
        let base = RunSpec {
            optimizer,
            ..RunSpec::default()
        };
        let (lines, assignments): (Vec<usize>, Vec<_>) = section_names()
            .flat_map(|name| document.section(name).iter().map(move |e| (name, e)))
            .map(|(name, e)| (e.line, (name, &*e.key, &*e.value)))
            .unzip();
        let spec = base
            .apply(&assignments)
            .map_err(|(at, err)| SpecError::parse(lines[at], err))?;
        spec.validate()?;
        Ok(spec)
    }

    /// This spec with `(section, key, text)` assignments written over it
    /// through the tables, `[optimizer] kind` first (the kind decides which
    /// keys the others may set), not yet validated. The spec reader and the
    /// sweep's cell builder both come here. An error carries the index of
    /// the offending assignment.
    pub(super) fn apply(
        &self,
        assignments: &[(&str, &str, &str)],
    ) -> Result<Self, (usize, String)> {
        let mut spec = self.clone();
        for kind_pass in [true, false] {
            for (at, &(section, key, text)) in assignments.iter().enumerate() {
                if ((section, key) == (OPTIMIZER, OPTIMIZER_KIND)) == kind_pass {
                    spec.assign(section, key, text).map_err(|err| (at, err))?;
                }
            }
        }
        // The two cross-key rules no row can state: a key that is set needs
        // the other one set, by an assignment or by this spec.
        let assigned = |row: &Key<RunSpec>| {
            let named = |&(section, key, _): &(&str, &str, &str)| {
                key == row.name && table(section).is_some()
            };
            assignments.iter().position(named)
        };
        let ([_, _, last, every, _], [_, _, window, epsilon]) = (&RUN, &STOP);
        for (key, needs) in [(every, last), (window, epsilon), (epsilon, window)] {
            let needed = assigned(needs).is_some() || (needs.write)(self, &mut String::new());
            if let Some(at) = assigned(key).filter(|_| !needed) {
                return Err((at, format!("{} requires {}", key.name, needs.name)));
            }
        }
        Ok(spec)
    }

    /// Writes the text value of `[section] key` into this spec through the
    /// key's table row. `[problem]`'s keys are its name and its parameters;
    /// `[optimizer] kind` switches the kind.
    fn assign(&mut self, section: &str, key: &str, text: &str) -> Result<(), String> {
        match (section, key) {
            (PROBLEM, PROBLEM_NAME) => self.problem.name = text.to_string(),
            (PROBLEM, _) => drop(self.problem.params.insert(key.into(), text.into())),
            (OPTIMIZER, OPTIMIZER_KIND) if text == self.optimizer.kind() => {}
            (OPTIMIZER, OPTIMIZER_KIND) => self.optimizer = self.optimizer.retarget(text)?,
            (OPTIMIZER, _) => {
                with_kind!(&mut self.optimizer, |keys, o| set_key(keys, o, key, text))?
            }
            _ => set_key(table(section).unwrap_or_default(), self, key, text)?,
        }
        Ok(())
    }
}

/// The `[problem]` key that names the problem; its other keys are the
/// problem's parameters.
const PROBLEM_NAME: &str = "name";
/// The `[optimizer]` key that selects the kind, and so the table of the
/// section's other keys.
const OPTIMIZER_KIND: &str = "kind";
const PROBLEM: &str = "problem";
const OPTIMIZER: &str = "optimizer";

/// The sections after `[problem]` and `[optimizer]`: fixed tables over the
/// [`RunSpec`], in canonical order.
static TABLES: [(&str, &[Key<RunSpec>]); 3] =
    [("run", &RUN), ("stop", &STOP), ("observe", &OBSERVE)];

fn table(section: &str) -> Option<&'static [Key<RunSpec>]> {
    let (_, keys) = TABLES.iter().find(|(name, _)| *name == section)?;
    Some(keys)
}

/// Every section of a spec, in canonical order.
pub(super) fn section_names() -> impl Iterator<Item = &'static str> {
    let fixed = TABLES.iter().map(|(name, _)| *name);
    [PROBLEM, OPTIMIZER].into_iter().chain(fixed)
}

/// Whether a spec can set `[section] key`: any token is a problem key (its
/// name or a parameter); an optimizer key is the kind or a key of some
/// kind's table. `None` when there is no such section.
pub(super) fn has_key(section: &str, key: &str) -> Option<bool> {
    let kind_has = |o: &OptimizerSpec| with_kind!(o, |keys, _o| find(keys, key).is_some());
    match section {
        PROBLEM => Some(is_token(key)),
        OPTIMIZER => Some(key == OPTIMIZER_KIND || OptimizerSpec::kinds().iter().any(kind_has)),
        _ => table(section).map(|keys| find(keys, key).is_some()),
    }
}

/// How a field's value reads from and renders to spec text; with a row's
/// check, the field's type makes up the key's value kind.
trait Text: Sized {
    /// The value `text` spells, or a hint at what a valid text looks like.
    fn parse(text: &str) -> Result<Self, String>;
    fn render(&self, out: &mut String);
}

/// Numbers read and render as themselves.
macro_rules! number_text {
    ($($number:ty),+) => {$(
        impl Text for $number {
            fn parse(text: &str) -> Result<Self, String> {
                text.parse().map_err(|_| String::new())
            }

            fn render(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )+};
}

number_text!(usize, u64, f64);

/// A mutation probability: `auto` (`None`: one over the gene count) or a
/// number.
impl Text for Option<f64> {
    fn parse(text: &str) -> Result<Self, String> {
        let number = || {
            text.parse()
                .map_err(|_| " (expected 'auto' or a number)".into())
        };
        (text != "auto").then(number).transpose()
    }

    fn render(&self, out: &mut String) {
        match self {
            None => out.push_str("auto"),
            Some(probability) => probability.render(out),
        }
    }
}

impl Text for EvalBackend {
    fn parse(text: &str) -> Result<Self, String> {
        match text.strip_prefix("threads:").map(str::parse) {
            _ if text == "serial" => Ok(EvalBackend::Serial),
            Some(Ok(workers)) => Ok(EvalBackend::Threads(workers)),
            _ => Err(" (expected serial or threads:<n>)".into()),
        }
    }

    fn render(&self, out: &mut String) {
        match self {
            EvalBackend::Serial => out.push_str("serial"),
            EvalBackend::Threads(workers) => {
                out.push_str("threads:");
                workers.render(out);
            }
        }
    }
}

/// Every migration topology, by its spec-text name.
const TOPOLOGIES: [(&str, MigrationTopology); 3] = [
    ("broadcast", MigrationTopology::Broadcast),
    ("ring", MigrationTopology::Ring),
    ("isolated", MigrationTopology::Isolated),
];

impl Text for MigrationTopology {
    fn parse(text: &str) -> Result<Self, String> {
        let named = TOPOLOGIES.iter().find(|(name, _)| *name == text);
        let names = || TOPOLOGIES.map(|(name, _)| name).join(", ");
        named
            .map(|&(_, topology)| topology)
            .ok_or_else(|| format!(" (expected one of {})", names()))
    }

    fn render(&self, out: &mut String) {
        let named = TOPOLOGIES.iter().find(|(_, topology)| topology == self);
        out.push_str(named.expect("every topology has a name").0);
    }
}

/// A reference point: numbers separated by commas.
impl Text for Vec<f64> {
    fn parse(text: &str) -> Result<Self, String> {
        let numbers = text.split(',').map(|part| part.trim().parse().ok());
        numbers
            .collect::<Option<_>>()
            .ok_or_else(|| " (expected numbers and commas)".into())
    }

    fn render(&self, out: &mut String) {
        for (at, value) in self.iter().enumerate() {
            out.push_str(if at == 0 { "" } else { ", " });
            value.render(out);
        }
    }
}

/// The checks of the value kinds: a predicate on the field, and the message
/// for a value that fails it. A kind with no check (a count that may be 0,
/// a backend, a topology) uses [`any`].
macro_rules! checks {
    ($($check:ident($value:ident: &$field:ty) $valid:expr, $message:literal;)+) => {$(
        fn $check($value: &$field) -> Result<(), &'static str> {
            if $valid { Ok(()) } else { Err($message) }
        }
    )+};
}

checks! {
    count(n: &usize) *n > 0, "must be at least 1";
    probability(p: &f64) (0.0..=1.0).contains(p), "must be a probability in [0, 1]";
    positive(x: &f64) x.is_finite() && *x > 0.0, "must be a positive finite number";
    finite(x: &f64) x.is_finite(), "must be finite";
    point(p: &[f64]) !p.is_empty() && p.iter().all(|x| x.is_finite()), "must be a non-empty list of finite numbers";
    seed(s: &u64) i64::try_from(*s).is_ok(), "must be at most 9223372036854775807";
}

/// `auto` (`None`) or a probability.
fn auto(value: &Option<f64>) -> Result<(), &'static str> {
    value.as_ref().map_or(Ok(()), probability)
}

fn any<T>(_: &T) -> Result<(), &'static str> {
    Ok(())
}

/// One row of a section's table: a key's name and how its text reads into,
/// renders from (`false`: an optional key, unset) and checks its field.
struct Key<S> {
    name: &'static str,
    read: fn(&mut S, &str) -> Result<(), String>,
    write: fn(&S, &mut String) -> bool,
    check: fn(&S) -> Result<(), &'static str>,
}

/// The row of key `$name` on the field `spec.$path`, checked by `$check`.
/// An `optional` key's field is an `Option`, left out of the text when
/// `None`; a key on `$field of $group or $open` is a field of an optional
/// group, left out when the group is `None` and opened as `$open`.
macro_rules! key {
    ($name:literal, $check:ident, $($path:ident).+) => {
        Key {
            name: $name,
            read: |spec, text| Text::parse(text).map(|value| spec.$($path).+ = value),
            write: |spec, out| { spec.$($path).+.render(out); true },
            check: |spec| $check(&spec.$($path).+),
        }
    };
    (optional $name:literal, $check:ident, $($path:ident).+) => {
        Key {
            name: $name,
            read: |spec, text| Text::parse(text).map(|value| spec.$($path).+ = Some(value)),
            write: |spec, out| spec.$($path).+.as_ref().map(|value| value.render(out)).is_some(),
            check: |spec| spec.$($path).+.as_ref().map_or(Ok(()), |value| $check(value)),
        }
    };
    ($name:literal, $check:ident, $field:tt of $($group:ident).+ or $open:expr) => {
        Key {
            name: $name,
            read: |spec, text| {
                Text::parse(text).map(|value| spec.$($group).+.get_or_insert($open).$field = value)
            },
            write: |spec, out| spec.$($group).+.map(|group| group.$field.render(out)).is_some(),
            check: |spec| spec.$($group).+.map_or(Ok(()), |group| $check(&group.$field)),
        }
    };
}

/// NSGA-II's rows on the population at `spec.$island` (or the spec itself),
/// between `$before` and `$after`: NSGA-II's table, and the archipelago's.
macro_rules! nsga2_keys {
    ($($island:ident)?; [$($before:expr),*]; [$($after:expr),*]) => {
        [
            $($before,)*
            key!("population", count, $($island.)? population),
            key!("crossover_probability", probability, $($island.)? crossover_probability),
            key!("eta_crossover", positive, $($island.)? eta_crossover),
            key!("mutation_probability", auto, $($island.)? mutation_probability),
            key!("eta_mutation", positive, $($island.)? eta_mutation),
            key!("backend", any, $($island.)? backend),
            $($after),*
        ]
    };
}

static NSGA2: [Key<Nsga2Spec>; 6] = nsga2_keys!(; []; []);

static MOEAD: [Key<MoeadSpec>; 6] = [
    key!("population", count, population),
    key!("neighborhood", count, neighborhood),
    key!("eta_crossover", positive, eta_crossover),
    key!("eta_mutation", positive, eta_mutation),
    key!("mutation_probability", auto, mutation_probability),
    key!("backend", any, backend),
];

static ARCHIPELAGO: [Key<ArchipelagoSpec>; 10] = nsga2_keys!(
    island;
    [key!("islands", count, islands)];
    [
        key!("migration_interval", count, migration_interval),
        key!("migration_probability", probability, migration_probability),
        key!("topology", any, topology)
    ]
);

/// A retention or stagnation key alone opens its group with a placeholder,
/// which the cross-key rules in [`RunSpec::apply`] see completed.
static RUN: [Key<RunSpec>; 5] = [
    key!("seed", seed, seed),
    key!("checkpoint_every", any, checkpoint_every),
    key!("checkpoint_keep_last", count, keep_last of retention or NO_RETENTION),
    Key {
        name: "checkpoint_keep_every",
        read: |spec, text| {
            let retention = spec.retention.get_or_insert(NO_RETENTION);
            Text::parse(text).map(|value| retention.keep_every = value)
        },
        // Written only when modular keeps are on.
        write: |spec, out| match spec.retention.map_or(0, |kept| kept.keep_every) {
            0 => false,
            every => {
                every.render(out);
                true
            }
        },
        check: |_| Ok(()),
    },
    key!(optional "reference_point", point, reference_point),
];

static STOP: [Key<RunSpec>; 4] = [
    key!("max_generations", count, stopping.max_generations),
    key!(optional "max_evaluations", any, stopping.max_evaluations),
    key!("stagnation_window", count, 0 of stopping.stagnation or (0, 0.0)),
    key!("stagnation_epsilon", finite, 1 of stopping.stagnation or (0, 0.0)),
];

static OBSERVE: [Key<RunSpec>; 1] = [key!(optional "log_every", count, log_every)];

/// The retention policy a lone retention key opens.
const NO_RETENTION: CheckpointRetention = CheckpointRetention {
    keep_last: 0,
    keep_every: 0,
};

fn find<'k, S>(keys: &'k [Key<S>], key: &str) -> Option<&'k Key<S>> {
    keys.iter().find(|row| row.name == key)
}

/// Reads `text` into `spec` through the row of `keys` named `key`.
fn set_key<S>(keys: &[Key<S>], spec: &mut S, key: &str, text: &str) -> Result<(), String> {
    let row = find(keys, key).ok_or_else(|| format!("unknown key '{key}'"))?;
    (row.read)(spec, text).map_err(|hint| format!("invalid value '{text}' for '{key}'{hint}"))
}

/// Writes `key = value` for every key of `keys` set on `spec`, in row
/// order; `false` when none is.
fn write_keys<S>(out: &mut String, keys: &[Key<S>], spec: &S) -> bool {
    let mut any = false;
    for key in keys {
        let start = out.len();
        out.push_str(key.name);
        out.push_str(" = ");
        if (key.write)(spec, out) {
            out.push('\n');
            any = true;
        } else {
            out.truncate(start);
        }
    }
    any
}

fn check_keys<S>(section: &str, keys: &[Key<S>], spec: &S) -> Result<(), SpecError> {
    let field = |key: &Key<S>| format!("{section}.{}", key.name);
    keys.iter()
        .try_for_each(|key| (key.check)(spec).map_err(|err| SpecError::field(field(key), err)))
}

fn is_token(value: &str) -> bool {
    let token_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_';
    !value.is_empty() && value.chars().all(token_char)
}

fn validate_token(field: &str, value: &str) -> Result<(), SpecError> {
    if is_token(value) {
        Ok(())
    } else {
        Err(SpecError::field(
            field,
            format!("'{value}' is not a lowercase [a-z0-9_-] token"),
        ))
    }
}

fn push_kv(out: &mut String, key: &str, value: &str) {
    out.push_str(key);
    out.push_str(" = ");
    out.push_str(value);
    out.push('\n');
}

/// One parsed `key = value` line.
pub(super) struct Entry {
    pub(super) line: usize,
    pub(super) key: String,
    pub(super) value: String,
}

/// A sectioned document as read: section name → entries, in file order.
pub(super) struct Document {
    sections: Vec<(String, Vec<Entry>)>,
}

impl Document {
    /// Reads a document headed `header` with the spec's sections, plus
    /// `extra` (a sweep's `[sweep]`), whose keys the caller checks.
    pub(super) fn parse(
        text: &str,
        header: &str,
        extra: Option<&'static str>,
    ) -> Result<Self, SpecError> {
        let mut lines = significant_lines(text);
        match lines.next() {
            Some((_, line)) if line == header => {}
            Some((at, line)) => {
                let message = format!("expected header '{header}', found '{line}'");
                return Err(SpecError::parse(at, message));
            }
            None => return Err(SpecError::parse(1, format!("missing header '{header}'"))),
        }
        let mut sections: Vec<(String, Vec<Entry>)> = Vec::new();
        for (line_no, line) in lines {
            let fail = |message: String| Err(SpecError::parse(line_no, message));
            if let Some(name) = line.strip_prefix('[') {
                let Some(name) = name.strip_suffix(']').map(str::trim) else {
                    return fail("unterminated section header".into());
                };
                let known: Vec<&str> = section_names().chain(extra).collect();
                if !known.contains(&name) {
                    let known = known.join("], [");
                    return fail(format!(
                        "unknown section '[{name}]' (expected one of [{known}])"
                    ));
                }
                if sections.iter().any(|(existing, _)| existing == name) {
                    return fail(format!("duplicate section '[{name}]'"));
                }
                sections.push((name.to_string(), Vec::new()));
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return fail(format!("expected 'key = value', found '{line}'"));
            };
            let (key, value) = (key.trim().to_string(), value.trim().to_string());
            if key.is_empty() {
                return fail("empty key".into());
            }
            let Some((section, entries)) = sections.last_mut() else {
                return fail(format!("key '{key}' appears before any [section]"));
            };
            if Some(section.as_str()) != extra && entries.iter().any(|entry| entry.key == key) {
                return fail(format!("duplicate key '{key}' in [{section}]"));
            }
            let line = line_no;
            entries.push(Entry { line, key, value });
        }
        Ok(Document { sections })
    }

    /// The entries of section `name`; none when the document lacks it.
    pub(super) fn section(&self, name: &str) -> &[Entry] {
        let section = self.sections.iter().find(|(section, _)| section == name);
        section.map_or(&[], |(_, entries)| entries)
    }
}

/// The 1-based number and text of every line that is not blank once its
/// `#` comment is cut.
pub(super) fn significant_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let lines = text.lines().map(strip_comment).map(str::trim).enumerate();
    lines
        .filter(|(_, line)| !line.is_empty())
        .map(|(at, line)| (at + 1, line))
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(at) => &line[..at],
        None => line,
    }
}

/// Any of the shipped optimizers behind one concrete type, so spec-driven
/// code (the `pathway` CLI, `pathway-core`'s factories) can hold a
/// [`crate::engine::Driver`] without being generic over the optimizer kind.
///
/// Its [`Optimizer`] impl forwards every method to the wrapped kind. MOEA/D
/// keeps the trait's no-op [`set_metrics`](Optimizer::set_metrics): it has
/// no optimizer-level phases, and the executor's and driver's spans cover
/// its evaluations.
#[derive(Debug, Clone)]
pub enum AnyOptimizer {
    /// A single NSGA-II population.
    Nsga2(Box<Nsga2>),
    /// MOEA/D with Tchebycheff decomposition.
    Moead(Box<Moead>),
    /// The PMO2 archipelago.
    Archipelago(Box<Archipelago>),
}

/// Evaluates `$body` with `$inner` bound to the wrapped optimizer,
/// whichever kind it is.
macro_rules! each_kind {
    ($optimizer:expr, |$inner:ident| $body:expr) => {
        match $optimizer {
            AnyOptimizer::Nsga2($inner) => $body,
            AnyOptimizer::Moead($inner) => $body,
            AnyOptimizer::Archipelago($inner) => $body,
        }
    };
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

    /// Installs a (usually shared) evaluation [`Executor`] on the wrapped
    /// optimizer — for the archipelago, the one its islands breed and
    /// evaluate on. Spec-driven launchers (the `pathway` CLI) use this to
    /// run a whole invocation, resume included, on one persistent worker
    /// pool instead of letting each optimizer build its own. Executors
    /// never change results, only where batches are evaluated.
    pub fn set_executor(&mut self, executor: Arc<Executor>) {
        each_kind!(self, |inner| inner.set_executor(executor))
    }
}

impl Optimizer for AnyOptimizer {
    fn initialize<P: MultiObjectiveProblem>(&mut self, problem: &P) {
        each_kind!(self, |inner| inner.initialize(problem))
    }

    fn step<P: MultiObjectiveProblem>(&mut self, problem: &P) {
        each_kind!(self, |inner| inner.step(problem))
    }

    fn population(&self) -> Vec<Individual> {
        // A path call: `inner.population()` would pick the kinds' borrowed
        // inherent views.
        each_kind!(self, |inner| Optimizer::population(inner.as_ref()))
    }

    fn front(&self) -> Vec<Individual> {
        each_kind!(self, |inner| inner.front())
    }

    fn front_objectives(&self) -> Vec<&[f64]> {
        each_kind!(self, |inner| inner.front_objectives())
    }

    fn evaluations(&self) -> usize {
        each_kind!(self, |inner| inner.evaluations())
    }

    fn state(&self) -> OptimizerState {
        each_kind!(self, |inner| inner.state())
    }

    fn restore(&mut self, state: OptimizerState) -> Result<(), EngineError> {
        each_kind!(self, |inner| inner.restore(state))
    }

    fn set_metrics(&mut self, registry: MetricsRegistry) {
        each_kind!(self, |inner| inner.set_metrics(registry))
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
        // generation" to a reader; reject it instead of guessing.
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
        // The error points at the key that is set, not at the section's
        // first entry.
        for (lone, at) in [
            ("stagnation_window = 5", 9),
            ("stagnation_epsilon = 0.1", 9),
        ] {
            let text = format!(
                "{SPEC_HEADER}\n[problem]\nname = schaffer\n[optimizer]\nkind = nsga2\n[stop]\n\
                 max_generations = 4\nmax_evaluations = 100\n{lone}\n"
            );
            match RunSpec::from_text(&text) {
                Err(SpecError::Parse { line, message }) => {
                    assert_eq!(line, at, "{lone}");
                    assert!(message.contains("requires stagnation_"), "{message}");
                }
                other => panic!("expected a parse error, got {other:?}"),
            }
        }
    }

    /// README's "Spec field reference" table lists exactly the keys of the
    /// tables, section by section: `[problem] name` (its other keys are
    /// parameters), `[optimizer] kind` with every kind's keys, and the
    /// fixed tables.
    #[test]
    fn the_readme_field_reference_lists_exactly_the_tables_keys() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("the repository README");
        let table = readme
            .split("### Spec field reference")
            .nth(1)
            .expect("the field reference heading");
        let mut listed = std::collections::BTreeSet::new();
        for row in table.lines().skip_while(|line| !line.starts_with('|')) {
            let Some(cells) = row.strip_prefix("| `[") else {
                if row.starts_with("|---") || row.starts_with("| section") {
                    continue;
                }
                break;
            };
            let (section, rest) = cells.split_once("]` | ").expect("a section cell");
            let keys = rest.split(" | ").next().expect("a key cell");
            for key in keys
                .split(" / ")
                .filter_map(|key| key.strip_prefix('`')?.strip_suffix('`'))
            {
                listed.insert((section.to_string(), key.to_string()));
            }
        }
        let mut declared = std::collections::BTreeSet::new();
        let mut declare =
            |section: &str, key: &str| declared.insert((section.to_string(), key.to_string()));
        declare(PROBLEM, PROBLEM_NAME);
        declare(OPTIMIZER, OPTIMIZER_KIND);
        for kind in OptimizerSpec::kinds() {
            with_kind!(&kind, |keys, _o| keys.iter().for_each(|key| {
                declare(OPTIMIZER, key.name);
            }));
        }
        for (section, keys) in &TABLES {
            keys.iter().for_each(|key| {
                declare(section, key.name);
            });
        }
        assert_eq!(listed, declared);
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
        optimizer.initialize(&Schaffer);
        optimizer.step(&Schaffer);
        assert!(optimizer.evaluations() > 0);
        assert!(!optimizer.front().is_empty());
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
        a.step(&Schaffer);
        let state = a.state();
        let mut b = spec.build_optimizer();
        b.restore(state).expect("same configuration");
        a.step(&Schaffer);
        b.step(&Schaffer);
        assert_eq!(a.front(), b.front());
        // Kind mismatch is rejected.
        let mut moead = OptimizerSpec::Moead(MoeadSpec::default()).build(1);
        let err = moead.restore(a.state()).unwrap_err();
        assert!(matches!(err, EngineError::StateMismatch { .. }));
    }
}

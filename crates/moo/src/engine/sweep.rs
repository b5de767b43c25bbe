//! Grid sweeps: one [`RunSpec`] template plus axes, expanded into cells.
//!
//! The paper's contribution is a *comparison* — methods run across
//! scenarios, configurations and seeds — so the unit of benchmarking here
//! is not a single run but a grid. A sweep document is an ordinary spec
//! file with two changes: the header reads `pathway-sweep v1` instead of
//! `pathway-spec v1`, and one extra `[sweep]` section lists the axes:
//!
//! ```text
//! pathway-sweep v1
//!
//! [sweep]
//! optimizer.kind = nsga2 | moead
//! problem.name   = schaffer | zdt1
//! run.seed       = 1 | 2 | 3
//!
//! [problem]
//! name = schaffer
//!
//! [optimizer]
//! kind = nsga2
//! population = 24
//!
//! [run]
//! seed = 1
//!
//! [stop]
//! max_generations = 60
//! ```
//!
//! Every axis names a spec key as `<section>.<key>` (an axis on no key is
//! refused at its line) and lists its values separated by `|`. The
//! cartesian product of the axes, **last** axis fastest like an odometer,
//! yields the cells. A cell is a clone of the template with its axis values
//! written over it through the spec's own key tables (`RunSpec::apply`),
//! then validated: a spec the engine would accept from a file. Cell errors
//! name the field and the cell's coordinates. Expansion is a pure function
//! of the sweep text, which lets a results ledger skip completed cells by
//! `(index, spec hash)` and a killed sweep resume bit-identically.
//!
//! An `optimizer.kind` axis applies first, wherever it is declared, since
//! the kind decides which keys the other axes may set. The cell gets that
//! kind's defaults plus the template's value of every key the two kinds'
//! tables share (`population`, `eta_*`, `mutation_probability`, `backend`;
//! NSGA-II and the archipelago also share `crossover_probability`). A
//! template's `islands` or `neighborhood` reaches only its own kind's
//! cells, while an *axis* on a key the cell's kind lacks is an error.

use super::spec::{
    fnv1a64, has_key, section_names, significant_lines, Document, RunSpec, SpecError, SPEC_HEADER,
};

/// The header line every sweep document starts with.
pub const SWEEP_HEADER: &str = "pathway-sweep v1";

/// The section of a sweep document that lists its axes.
const SWEEP_SECTION: &str = "sweep";

/// Expansion guard: a sweep larger than this is almost certainly a typo
/// (an axis pasted twice, a seed range fat-fingered) and would grind a
/// laptop for days; the parser refuses it up front.
pub const MAX_SWEEP_CELLS: usize = 4096;

/// One sweep axis: a dotted spec field and the values it ranges over.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepAxis {
    /// Dotted spec field, e.g. `run.seed` or `optimizer.population`.
    pub field: String,
    /// The values this axis takes, in declaration order, as raw spec text.
    pub values: Vec<String>,
}

/// One cell of the expanded grid: its index, the axis values that produced
/// it, and the fully validated [`RunSpec`] it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position in odometer order (last axis fastest), 0-based.
    pub index: usize,
    /// `(field, value)` per axis, in axis declaration order.
    pub coordinates: Vec<(String, String)>,
    /// The cell's concrete run spec (template + substitutions).
    pub spec: RunSpec,
}

impl SweepCell {
    /// The cell's canonical directory/file stem, e.g. `cell-0007`.
    pub fn label(&self) -> String {
        format!("cell-{:04}", self.index)
    }

    /// Human-readable coordinates, e.g. `problem.name=zdt1 run.seed=2`.
    pub fn coordinates_string(&self) -> String {
        let coordinates = self
            .coordinates
            .iter()
            .map(|(field, value)| format!("{field}={value}"));
        coordinates.collect::<Vec<_>>().join(" ")
    }
}

/// A parsed sweep: the run template, the axes to expand over it, and the
/// validated cells they expand into.
///
/// See the `pathway sweep` section of the repository README for the text
/// format (or the example at the top of this source file). Like [`RunSpec`], a
/// sweep has a canonical rendering ([`to_text`](SweepSpec::to_text)), an
/// exact round-trip, and an FNV-1a [`content_hash`](SweepSpec::content_hash)
/// over the canonical text that ledgers use to refuse mixing results from
/// different sweeps. The grid is expanded once, when the text is parsed,
/// and a sweep cannot be changed afterwards, so its cells always describe
/// its template and axes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The base run description every cell starts from.
    template: RunSpec,
    /// The axes, in declaration order.
    axes: Vec<SweepAxis>,
    /// Every cell of the grid, in odometer order (last axis fastest).
    cells: Vec<SweepCell>,
}

impl SweepSpec {
    /// Parses a sweep document and expands and validates the *entire*
    /// grid, so a bad combination is reported here, not miles into a run.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] at the line of a malformed axis or one on no
    /// spec key, [`SpecError::Field`] when the grid exceeds
    /// [`MAX_SWEEP_CELLS`] or a cell is not a valid spec (naming its
    /// coordinates and the field), and whatever the template raises.
    pub fn from_text(text: &str) -> Result<Self, SpecError> {
        let document = Document::parse(text, SWEEP_HEADER, Some(SWEEP_SECTION))?;
        let mut axes: Vec<SweepAxis> = Vec::new();
        for entry in document.section(SWEEP_SECTION) {
            let (line, field) = (entry.line, entry.key.clone());
            let fail =
                |problem: &str| Err(SpecError::parse(line, format!("axis '{field}' {problem}")));
            validate_axis_field(line, &field)?;
            if axes.iter().any(|axis| axis.field == field) {
                return fail("is a duplicate sweep axis");
            }
            let values: Vec<String> = entry
                .value
                .split('|')
                .map(|part| part.trim().to_string())
                .collect();
            if values.iter().any(String::is_empty) {
                return fail("has an empty value");
            }
            if values
                .iter()
                .any(|value| value.chars().any(char::is_control))
            {
                return fail("value contains a control character");
            }
            axes.push(SweepAxis { field, values });
        }
        if axes.is_empty() {
            let message = "a sweep needs a [sweep] section with at least one axis";
            return Err(SpecError::parse(1, message));
        }
        let template = RunSpec::read(&document)?;
        let cells = expand(&template, &axes)?;
        Ok(SweepSpec {
            template,
            axes,
            cells,
        })
    }

    /// The base run description every cell starts from.
    pub fn template(&self) -> &RunSpec {
        &self.template
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[SweepAxis] {
        &self.axes
    }

    /// Every cell of the grid, validated, in odometer order (last axis
    /// fastest).
    pub fn cells(&self) -> &[SweepCell] {
        &self.cells
    }

    /// The canonical text rendering: sweep header, `[sweep]` axes in
    /// declaration order, then the template's canonical sections.
    /// `from_text(to_text())` reproduces the sweep exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(SWEEP_HEADER);
        out.push_str("\n\n[sweep]\n");
        for axis in &self.axes {
            out.push_str(&format!("{} = {}\n", axis.field, axis.values.join(" | ")));
        }
        let template = self.template.to_text();
        let body = template
            .strip_prefix(SPEC_HEADER)
            .expect("canonical template text starts with the spec header");
        out.push('\n');
        out.push_str(body.trim_start_matches('\n'));
        out
    }

    /// FNV-1a hash of the canonical text — the sweep's identity. Ledgers
    /// record it and refuse rows from a different sweep.
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.to_text().as_bytes())
    }
}

/// Expands the grid of `axes` over `template` in odometer order (last axis
/// fastest), validating every cell.
///
/// # Errors
///
/// [`SpecError::Field`] when the grid exceeds [`MAX_SWEEP_CELLS`] or a cell
/// is not a valid spec (naming its coordinates and the field).
fn expand(template: &RunSpec, axes: &[SweepAxis]) -> Result<Vec<SweepCell>, SpecError> {
    let total: usize = axes.iter().map(|axis| axis.values.len()).product();
    if total > MAX_SWEEP_CELLS {
        return Err(SpecError::field(
            "sweep",
            format!("grid has {total} cells; the cap is {MAX_SWEEP_CELLS}"),
        ));
    }
    (0..total)
        .map(|index| cell(template, axes, index))
        .collect()
}

/// Cell `index`: its coordinates in odometer order, and the template with
/// their values applied (the kind first) and validated.
fn cell(template: &RunSpec, axes: &[SweepAxis], index: usize) -> Result<SweepCell, SpecError> {
    let mut remainder = index;
    let mut coordinates = vec![(String::new(), String::new()); axes.len()];
    for (slot, axis) in axes.iter().enumerate().rev() {
        let value = &axis.values[remainder % axis.values.len()];
        coordinates[slot] = (axis.field.clone(), value.clone());
        remainder /= axis.values.len();
    }
    let mut cell = SweepCell {
        index,
        coordinates,
        spec: RunSpec::default(),
    };
    let assignments: Vec<(&str, &str, &str)> = cell
        .coordinates
        .iter()
        .map(|(field, value)| {
            let (section, key) = field.split_once('.').expect("axis fields are validated");
            (section, key, value.as_str())
        })
        .collect();
    let spec = template.apply(&assignments);
    let spec = spec.map_err(|(at, err)| SpecError::field(&cell.coordinates[at].0, err));
    cell.spec = spec
        .and_then(|spec| spec.validate().map(|()| spec))
        .map_err(|err| {
            let coordinates = cell.coordinates_string();
            let message = format!("({coordinates}) does not form a valid spec: {err}");
            SpecError::field(format!("sweep cell {index}"), message)
        })?;
    Ok(cell)
}

/// Detects a sweep document without parsing it: the first significant
/// (non-blank, non-comment) line is the sweep header. Used by `inspect`-like
/// front-ends to route a file to the right codec.
pub fn is_sweep_text(text: &str) -> bool {
    significant_lines(text).next().map(|(_, line)| line) == Some(SWEEP_HEADER)
}

/// Refuses an axis that names no key of the spec's tables, at its line.
fn validate_axis_field(line: usize, field: &str) -> Result<(), SpecError> {
    let fail = |problem: String| Err(SpecError::parse(line, format!("axis '{field}' {problem}")));
    let Some((section, key)) = field.split_once('.') else {
        return fail("must be '<section>.<key>', e.g. 'run.seed'".into());
    };
    match has_key(section, key) {
        Some(true) => Ok(()),
        Some(false) => fail(format!("names no key of [{section}]")),
        None => {
            let known = section_names().collect::<Vec<_>>().join(", ");
            fail(format!(
                "names unknown section '{section}' (known: {known})"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEEP: &str = "\
pathway-sweep v1

# method x scenario x seed
[sweep]
problem.name = schaffer | zdt1
run.seed = 1 | 2 | 3

[problem]
name = schaffer

[optimizer]
kind = nsga2
population = 16

[run]
seed = 1
checkpoint_every = 2

[stop]
max_generations = 6
";

    #[test]
    fn parses_axes_and_template() {
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        assert_eq!(sweep.axes.len(), 2);
        assert_eq!(sweep.axes[0].field, "problem.name");
        assert_eq!(sweep.axes[0].values, vec!["schaffer", "zdt1"]);
        assert_eq!(sweep.axes[1].values, vec!["1", "2", "3"]);
        assert_eq!(sweep.cells().len(), 6);
        assert_eq!(sweep.template.problem.name, "schaffer");
        assert_eq!(sweep.template.checkpoint_every, 2);
    }

    #[test]
    fn expansion_is_odometer_ordered_last_axis_fastest() {
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        let cells = sweep.cells();
        assert_eq!(cells.len(), 6);
        let coords: Vec<String> = cells.iter().map(SweepCell::coordinates_string).collect();
        assert_eq!(coords[0], "problem.name=schaffer run.seed=1");
        assert_eq!(coords[1], "problem.name=schaffer run.seed=2");
        assert_eq!(coords[3], "problem.name=zdt1 run.seed=1");
        assert_eq!(cells[4].spec.problem.name, "zdt1");
        assert_eq!(cells[4].spec.seed, 2);
        assert_eq!(cells[2].label(), "cell-0002");
    }

    #[test]
    fn cell_specs_differ_only_in_the_substituted_fields() {
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        let cells = sweep.cells();
        for cell in cells {
            assert_eq!(cell.spec.checkpoint_every, 2);
            assert_eq!(cell.spec.stopping.max_generations, 6);
        }
        let hashes: std::collections::BTreeSet<u64> =
            cells.iter().map(|cell| cell.spec.content_hash()).collect();
        assert_eq!(hashes.len(), cells.len(), "cells must have distinct hashes");
    }

    #[test]
    fn round_trips_through_canonical_text() {
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        let reparsed = SweepSpec::from_text(&sweep.to_text()).unwrap();
        assert_eq!(sweep, reparsed);
        assert_eq!(sweep.content_hash(), reparsed.content_hash());
        // Canonical text is a fixed point.
        assert_eq!(sweep.to_text(), reparsed.to_text());
    }

    #[test]
    fn patching_inserts_missing_keys_and_sections() {
        let sweep = SweepSpec::from_text(
            "pathway-sweep v1\n\n[sweep]\nobserve.log_every = 1 | 2\n\n\
             [problem]\nname = schaffer\n\n[optimizer]\nkind = nsga2\n\n\
             [run]\nseed = 7\n\n[stop]\nmax_generations = 4\n",
        )
        .unwrap();
        let cells = sweep.cells();
        assert_eq!(cells[0].spec.log_every, Some(1));
        assert_eq!(cells[1].spec.log_every, Some(2));
    }

    #[test]
    fn detects_sweep_documents() {
        assert!(is_sweep_text(SWEEP));
        assert!(is_sweep_text("\n# comment\npathway-sweep v1\n"));
        assert!(!is_sweep_text("pathway-spec v1\n"));
        assert!(!is_sweep_text(""));
    }

    #[test]
    fn rejects_malformed_sweeps() {
        // Wrong header.
        assert!(SweepSpec::from_text("pathway-spec v1\n[sweep]\nrun.seed = 1\n").is_err());
        // No axes at all.
        let err = SweepSpec::from_text(
            "pathway-sweep v1\n[problem]\nname = schaffer\n\
             [optimizer]\nkind = nsga2\n[stop]\nmax_generations = 4\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least one axis"), "{err}");
        // Duplicate axis.
        let err = SweepSpec::from_text(
            "pathway-sweep v1\n[sweep]\nrun.seed = 1 | 2\nrun.seed = 3\n\
             [problem]\nname = schaffer\n[optimizer]\nkind = nsga2\n\
             [stop]\nmax_generations = 4\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("duplicate sweep axis"), "{err}");
        // Unknown section in an axis field.
        let err = SweepSpec::from_text(
            "pathway-sweep v1\n[sweep]\nbogus.seed = 1\n\
             [problem]\nname = schaffer\n[optimizer]\nkind = nsga2\n\
             [stop]\nmax_generations = 4\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown section"), "{err}");
        // Empty axis value.
        let err = SweepSpec::from_text(
            "pathway-sweep v1\n[sweep]\nrun.seed = 1 | | 3\n\
             [problem]\nname = schaffer\n[optimizer]\nkind = nsga2\n\
             [stop]\nmax_generations = 4\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("empty value"), "{err}");
    }

    #[test]
    fn a_cell_that_fails_validation_names_its_coordinates() {
        // population = 0 fails spec validation; the sweep error must say
        // which cell produced it, not just bubble the field error.
        let err = SweepSpec::from_text(
            "pathway-sweep v1\n\n[sweep]\noptimizer.population = 16 | 0\n\n\
             [problem]\nname = schaffer\n\n[optimizer]\nkind = nsga2\n\n\
             [run]\nseed = 1\n\n[stop]\nmax_generations = 4\n",
        )
        .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("optimizer.population=0"), "{message}");
        assert!(message.contains("sweep cell 1"), "{message}");
        // A lone stagnation key breaks a cross-key rule; the error names the
        // field and the cell, never a line of text the user did not write.
        let err = SweepSpec::from_text(
            "pathway-sweep v1\n\n[sweep]\nstop.stagnation_window = 5\n\n\
             [problem]\nname = schaffer\n\n[optimizer]\nkind = nsga2\n\n\
             [run]\nseed = 1\n\n[stop]\nmax_generations = 4\n",
        )
        .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("sweep cell 0"), "{message}");
        assert!(message.contains("(stop.stagnation_window=5)"), "{message}");
        assert!(
            message.contains("field stop.stagnation_window"),
            "{message}"
        );
        assert!(!message.contains("line"), "{message}");
    }

    /// A kind axis applies first wherever it is declared: shared keys reach
    /// every cell in both orders, and an axis on a key the cell's kind has
    /// no row for fails with the cell's coordinates in both orders.
    #[test]
    fn a_kind_axis_applies_first_in_either_order() {
        let sweep = |axes: &str| {
            SweepSpec::from_text(&format!(
                "pathway-sweep v1\n\n[sweep]\n{axes}\n[problem]\nname = schaffer\n\n\
                 [optimizer]\nkind = nsga2\n\n[stop]\nmax_generations = 4\n"
            ))
        };
        let kind = "optimizer.kind = nsga2 | moead";
        let population = "optimizer.population = 10 | 20";
        let cell_specs = |axes: &str| -> std::collections::BTreeSet<String> {
            let sweep = sweep(axes).expect("a valid grid");
            sweep
                .cells()
                .iter()
                .map(|cell| cell.spec.to_text())
                .collect()
        };
        let specs = cell_specs(&format!("{population}\n{kind}"));
        assert_eq!(specs.len(), 4, "four distinct cells");
        assert_eq!(specs, cell_specs(&format!("{kind}\n{population}")));

        let kind = "optimizer.kind = nsga2 | archipelago";
        let islands = "optimizer.islands = 2 | 3";
        for axes in [format!("{islands}\n{kind}"), format!("{kind}\n{islands}")] {
            let message = sweep(&axes).unwrap_err().to_string();
            assert!(message.contains("optimizer.kind=nsga2"), "{message}");
            assert!(message.contains("optimizer.islands=2"), "{message}");
            assert!(message.contains("field optimizer.islands"), "{message}");
        }
    }

    #[test]
    fn an_axis_on_no_key_is_refused_at_its_line() {
        let err = SweepSpec::from_text(
            "pathway-sweep v1\n\n[sweep]\noptimizer.topolgy = ring\n\n\
             [problem]\nname = schaffer\n\n[optimizer]\nkind = archipelago\n",
        )
        .unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 4, .. }), "{err:?}");
    }

    #[test]
    fn a_kind_axis_rebuilds_the_optimizer_section_per_cell() {
        // A non-default value for every optimizer key of every kind. Which
        // keys a kind accepts is asked of the spec parser itself.
        const VALUES: [(&str, &str); 11] = [
            ("islands", "3"),
            ("population", "20"),
            ("neighborhood", "7"),
            ("crossover_probability", "0.8"),
            ("eta_crossover", "11"),
            ("mutation_probability", "0.05"),
            ("eta_mutation", "9"),
            ("backend", "threads:2"),
            ("migration_interval", "13"),
            ("migration_probability", "0.25"),
            ("topology", "ring"),
        ];
        const KINDS: [&str; 3] = ["nsga2", "moead", "archipelago"];
        let spec_text = |kind: &str, keys: &[(&str, &str)]| {
            let lines: String = keys.iter().map(|(k, v)| format!("{k} = {v}\n")).collect();
            format!(
                "{SPEC_HEADER}\n\n[problem]\nname = schaffer\n\n[optimizer]\nkind = {kind}\n\
                 {lines}\n[run]\nseed = 1\n\n[stop]\nmax_generations = 4\n"
            )
        };
        let accepted = |kind: &str| -> Vec<(&str, &str)> {
            VALUES
                .into_iter()
                .filter(|&pair| RunSpec::from_text(&spec_text(kind, &[pair])).is_ok())
                .collect()
        };
        for (key, _) in VALUES {
            assert!(
                KINDS
                    .iter()
                    .any(|kind| accepted(kind).iter().any(|(k, _)| *k == key)),
                "no kind accepts {key}"
            );
        }
        for from in KINDS {
            let template = spec_text(from, &accepted(from));
            for to in KINDS {
                // The template spells out every key its kind accepts; the
                // cell keeps exactly the ones the target kind accepts too,
                // and the target's defaults fill in the rest.
                let sweep = SweepSpec::from_text(&template.replacen(
                    SPEC_HEADER,
                    &format!("{SWEEP_HEADER}\n\n[sweep]\noptimizer.kind = {to}\n"),
                    1,
                ))
                .unwrap_or_else(|err| panic!("{from} -> {to}: {err}"));
                let cells = sweep.cells();
                let shared: Vec<(&str, &str)> = accepted(from)
                    .into_iter()
                    .filter(|pair| accepted(to).contains(pair))
                    .collect();
                let expected = RunSpec::from_text(&spec_text(to, &shared)).expect("valid");
                assert_eq!(
                    cells[0].spec.optimizer, expected.optimizer,
                    "{from} -> {to}"
                );
            }
        }
    }

    #[test]
    fn an_unknown_kind_value_still_fails_with_coordinates() {
        let err = SweepSpec::from_text(
            "pathway-sweep v1\n\n[sweep]\noptimizer.kind = nsga2 | simplex\n\n\
             [problem]\nname = schaffer\n\n[optimizer]\nkind = nsga2\n\n\
             [run]\nseed = 1\n\n[stop]\nmax_generations = 4\n",
        )
        .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("optimizer.kind=simplex"), "{message}");
    }

    #[test]
    fn refuses_grids_over_the_cell_cap() {
        // 17^4 = 83521 > 4096.
        let axis = (1..=17)
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(" | ");
        let text = format!(
            "pathway-sweep v1\n\n[sweep]\nrun.seed = {axis}\noptimizer.population = {axis}\n\
             optimizer.eta_crossover = {axis}\nstop.max_generations = {axis}\n\n\
             [problem]\nname = schaffer\n\n[optimizer]\nkind = nsga2\n\n\
             [run]\nseed = 1\n\n[stop]\nmax_generations = 4\n"
        );
        let err = SweepSpec::from_text(&text).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn single_value_axes_pin_a_field() {
        let sweep = SweepSpec::from_text(
            "pathway-sweep v1\n\n[sweep]\nrun.seed = 42\n\n\
             [problem]\nname = schaffer\n\n[optimizer]\nkind = nsga2\n\n\
             [run]\nseed = 1\n\n[stop]\nmax_generations = 4\n",
        )
        .unwrap();
        let cells = sweep.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].spec.seed, 42);
    }
}

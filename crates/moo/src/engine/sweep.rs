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
//! Every axis names a spec field as `<section>.<key>` and lists its values
//! separated by `|`. The cartesian product of the axes (the **last** axis
//! varies fastest, like an odometer) yields the grid's cells; each cell is
//! the template with the axis values substituted in, re-parsed and
//! re-validated through the ordinary [`RunSpec`] codec, so a cell can never
//! be a spec the engine would not accept from a file.
//!
//! Expansion is deterministic: cell indices, coordinates and per-cell spec
//! hashes are a pure function of the sweep text. That is what lets a
//! results ledger skip completed cells by `(index, spec hash)` alone and
//! lets a killed sweep resume bit-identically.
//!
//! `optimizer.kind` gets one special rule. A naive line substitution would
//! leave the template's kind-specific keys behind — an nsga2 template
//! carries `crossover_probability`, which moead rejects — so a kind axis
//! *rebuilds* the `[optimizer]` section: `kind = <value>` first, then only
//! the keys the target kind accepts (the keys of its default's canonical
//! text), carried over from the template in order. Shared keys
//! (`population`, `eta_crossover`, `eta_mutation`,
//! `mutation_probability`, `backend`) therefore apply to every cell, while
//! a kind-specific key such as `islands` or `neighborhood` reaches only
//! the cells of the kind that understands it.

use super::spec::{
    fnv1a64, strip_comment, OptimizerSpec, RunSpec, SpecError, KNOWN_SECTIONS, SPEC_HEADER,
};

/// The header line every sweep document starts with.
pub const SWEEP_HEADER: &str = "pathway-sweep v1";

/// Expansion guard: a sweep larger than this is almost certainly a typo
/// (an axis pasted twice, a seed range fat-fingered) and would grind a
/// laptop for days; the parser refuses it up front.
pub const MAX_SWEEP_CELLS: usize = 4096;

/// One sweep axis: a dotted spec field and the values it ranges over.
#[derive(Debug, Clone, PartialEq, Eq)]
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
        self.coordinates
            .iter()
            .map(|(field, value)| format!("{field}={value}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// A parsed sweep: the run template and the axes to expand over it.
///
/// See the `pathway sweep` section of the repository README for the text
/// format (or the example at the top of this source file). Like [`RunSpec`], a
/// sweep has a canonical rendering ([`to_text`](SweepSpec::to_text)), an
/// exact round-trip, and an FNV-1a [`content_hash`](SweepSpec::content_hash)
/// over the canonical text that ledgers use to refuse mixing results from
/// different sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// The base run description every cell starts from.
    pub template: RunSpec,
    /// The axes, in declaration order.
    pub axes: Vec<SweepAxis>,
}

impl SweepSpec {
    /// Parses a sweep document and validates the *entire* grid: every cell
    /// is expanded and pushed through [`RunSpec::from_text`], so a bad
    /// combination is reported here, not miles into a run.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] with the offending line for malformed axis
    /// syntax, [`SpecError::Field`] for a cell whose substituted spec does
    /// not validate, plus everything the template itself can raise.
    pub fn from_text(text: &str) -> Result<Self, SpecError> {
        let mut template_lines: Vec<String> = Vec::new();
        let mut axes: Vec<SweepAxis> = Vec::new();
        let mut header_seen = false;
        let mut sweep_seen = false;
        let mut in_sweep = false;
        for (index, raw) in text.lines().enumerate() {
            let line_no = index + 1;
            let significant = strip_comment(raw).trim();
            if !header_seen {
                if significant.is_empty() {
                    template_lines.push(raw.to_string());
                    continue;
                }
                if significant != SWEEP_HEADER {
                    return Err(SpecError::parse(
                        line_no,
                        format!("expected header '{SWEEP_HEADER}', found '{significant}'"),
                    ));
                }
                header_seen = true;
                // The template sees an ordinary spec header on the same
                // line, keeping every later line number accurate.
                template_lines.push(SPEC_HEADER.to_string());
                continue;
            }
            if significant.starts_with('[') && significant.ends_with(']') {
                if significant == "[sweep]" {
                    if sweep_seen {
                        return Err(SpecError::parse(line_no, "duplicate [sweep] section"));
                    }
                    sweep_seen = true;
                    in_sweep = true;
                    // Blank, not removed: line numbers in template errors
                    // must keep pointing at the original file.
                    template_lines.push(String::new());
                    continue;
                }
                in_sweep = false;
                template_lines.push(raw.to_string());
                continue;
            }
            if !in_sweep {
                template_lines.push(raw.to_string());
                continue;
            }
            template_lines.push(String::new());
            if significant.is_empty() {
                continue;
            }
            let Some((field, value)) = significant.split_once('=') else {
                return Err(SpecError::parse(
                    line_no,
                    "expected '<section>.<key> = value | value | ...'",
                ));
            };
            let field = field.trim();
            validate_axis_field(line_no, field)?;
            if axes.iter().any(|axis| axis.field == field) {
                return Err(SpecError::parse(
                    line_no,
                    format!("duplicate sweep axis '{field}'"),
                ));
            }
            let mut values = Vec::new();
            for part in value.split('|') {
                let part = part.trim();
                if part.is_empty() {
                    return Err(SpecError::parse(
                        line_no,
                        format!("axis '{field}' has an empty value"),
                    ));
                }
                if part.chars().any(char::is_control) {
                    return Err(SpecError::parse(
                        line_no,
                        format!("axis '{field}' value contains a control character"),
                    ));
                }
                values.push(part.to_string());
            }
            axes.push(SweepAxis {
                field: field.to_string(),
                values,
            });
        }
        if !header_seen {
            return Err(SpecError::parse(
                1,
                format!("expected header '{SWEEP_HEADER}'"),
            ));
        }
        if axes.is_empty() {
            return Err(SpecError::parse(
                1,
                "a sweep needs a [sweep] section with at least one axis",
            ));
        }
        let template = RunSpec::from_text(&template_lines.join("\n"))?;
        let sweep = SweepSpec { template, axes };
        sweep.expand()?; // every cell must form a valid spec
        Ok(sweep)
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

    /// Number of cells in the grid (product of the axis lengths).
    pub fn cell_count(&self) -> usize {
        self.axes.iter().map(|axis| axis.values.len()).product()
    }

    /// Expands the full grid in odometer order (last axis fastest). Every
    /// returned cell carries a validated [`RunSpec`].
    ///
    /// # Errors
    ///
    /// [`SpecError::Field`] when the grid exceeds [`MAX_SWEEP_CELLS`] or a
    /// substituted cell does not form a valid spec (the message names the
    /// cell's coordinates).
    pub fn expand(&self) -> Result<Vec<SweepCell>, SpecError> {
        let total = self.cell_count();
        if total > MAX_SWEEP_CELLS {
            return Err(SpecError::field(
                "sweep",
                format!("grid has {total} cells; the cap is {MAX_SWEEP_CELLS}"),
            ));
        }
        let base = self.template.to_text();
        let mut cells = Vec::with_capacity(total);
        for index in 0..total {
            let mut remainder = index;
            let mut coordinates = vec![(String::new(), String::new()); self.axes.len()];
            for (slot, axis) in self.axes.iter().enumerate().rev() {
                let pick = remainder % axis.values.len();
                remainder /= axis.values.len();
                coordinates[slot] = (axis.field.clone(), axis.values[pick].clone());
            }
            let mut text = base.clone();
            for (field, value) in &coordinates {
                text = if field == "optimizer.kind" {
                    patch_optimizer_kind(&text, value)
                } else {
                    patch_field(&text, field, value)
                };
            }
            let spec = RunSpec::from_text(&text).map_err(|err| {
                let where_ = coordinates
                    .iter()
                    .map(|(field, value)| format!("{field}={value}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                SpecError::field(
                    format!("sweep cell {index}"),
                    format!("({where_}) does not form a valid spec: {err}"),
                )
            })?;
            cells.push(SweepCell {
                index,
                coordinates,
                spec,
            });
        }
        Ok(cells)
    }
}

/// Detects a sweep document without parsing it: the first significant
/// (non-blank, non-comment) line is the sweep header. Used by `inspect`-like
/// front-ends to route a file to the right codec.
pub fn is_sweep_text(text: &str) -> bool {
    text.lines()
        .map(|line| strip_comment(line).trim())
        .find(|line| !line.is_empty())
        == Some(SWEEP_HEADER)
}

fn validate_axis_field(line: usize, field: &str) -> Result<(), SpecError> {
    let Some((section, key)) = field.split_once('.') else {
        return Err(SpecError::parse(
            line,
            format!("axis '{field}' must be '<section>.<key>', e.g. 'run.seed'"),
        ));
    };
    if !KNOWN_SECTIONS.contains(&section) {
        return Err(SpecError::parse(
            line,
            format!(
                "axis '{field}' names unknown section '{section}' (known: {})",
                KNOWN_SECTIONS.join(", ")
            ),
        ));
    }
    let key_ok = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-');
    if !key_ok {
        return Err(SpecError::parse(
            line,
            format!("axis '{field}' has an invalid key '{key}'"),
        ));
    }
    Ok(())
}

/// The line range of `[section]`'s entries in `lines` (after its header,
/// up to the next section header), or `None` when the section is absent.
fn section_range(lines: &[String], section: &str) -> Option<std::ops::Range<usize>> {
    let header = format!("[{section}]");
    let start = lines.iter().position(|line| line.trim() == header)? + 1;
    let end = lines[start..]
        .iter()
        .position(|line| line.trim_start().starts_with('['))
        .map_or(lines.len(), |offset| start + offset);
    Some(start..end)
}

/// Substitutes `value` for `<section>.<key>` in canonical spec text:
/// replaces the existing `key = ...` line in that section, inserts one
/// right under the section header, or appends the whole section when the
/// template does not carry it (e.g. `[observe]`).
fn patch_field(text: &str, field: &str, value: &str) -> String {
    let (section, key) = field.split_once('.').expect("axis field is validated");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let Some(range) = section_range(&lines, section) else {
        lines.push(String::new());
        lines.push(format!("[{section}]"));
        lines.push(format!("{key} = {value}"));
        return lines.join("\n") + "\n";
    };
    let start = range.start;
    for line in &mut lines[range] {
        if let Some((existing_key, _)) = line.split_once('=') {
            if existing_key.trim() == key {
                *line = format!("{key} = {value}");
                return lines.join("\n") + "\n";
            }
        }
    }
    lines.insert(start, format!("{key} = {value}"));
    lines.join("\n") + "\n"
}

/// The key of a `key = value` line, if it is one.
fn line_key(line: &str) -> Option<&str> {
    line.split_once('=').map(|(key, _)| key.trim())
}

/// Applies an `optimizer.kind` axis value: rebuilds the `[optimizer]`
/// section as `kind = <value>` followed by the existing keys the target
/// kind accepts, in their existing order. A kind accepts the keys of its
/// default description's canonical text, which spells out every key its
/// parser reads. The other keys are dropped — the cell base is the
/// template's *canonical* text, which spells out every kind-specific
/// default, so keeping them would make every cross-kind cell fail
/// validation. An unknown kind falls back to plain substitution, and the
/// spec parser reports it with the cell's coordinates.
fn patch_optimizer_kind(text: &str, value: &str) -> String {
    let Some(optimizer) = OptimizerSpec::default_for(value) else {
        return patch_field(text, "optimizer.kind", value);
    };
    let defaults: Vec<String> = RunSpec {
        optimizer,
        ..RunSpec::default()
    }
    .to_text()
    .lines()
    .map(str::to_string)
    .collect();
    let range = section_range(&defaults, "optimizer").expect("canonical text has [optimizer]");
    let accepted: Vec<&str> = defaults[range]
        .iter()
        .filter_map(|line| line_key(line))
        .collect();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let Some(range) = section_range(&lines, "optimizer") else {
        return patch_field(text, "optimizer.kind", value);
    };
    let mut section = vec![format!("kind = {value}")];
    for line in &lines[range.clone()] {
        if line_key(line).is_some_and(|key| key != "kind" && accepted.contains(&key)) {
            section.push(line.clone());
        }
    }
    section.push(String::new());
    lines.splice(range, section);
    lines.join("\n") + "\n"
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
        assert_eq!(sweep.cell_count(), 6);
        assert_eq!(sweep.template.problem.name, "schaffer");
        assert_eq!(sweep.template.checkpoint_every, 2);
    }

    #[test]
    fn expansion_is_odometer_ordered_last_axis_fastest() {
        let sweep = SweepSpec::from_text(SWEEP).unwrap();
        let cells = sweep.expand().unwrap();
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
        let cells = sweep.expand().unwrap();
        for cell in &cells {
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
        let cells = sweep.expand().unwrap();
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
                let cells = sweep.expand().expect("every cell validates");
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
        let cells = sweep.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].spec.seed, 42);
    }
}

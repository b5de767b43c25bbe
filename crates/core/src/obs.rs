//! Profile artifacts: the JSON projection of a telemetry
//! [`MetricsSnapshot`] plus its schema validator.
//!
//! The split mirrors the sweep ledger: plain-data metrics live upstream in
//! `pathway_moo::engine::telemetry`, while this module owns the
//! `profile.json` rendering (via [`crate::jsonlite`]), the atomic writer
//! behind `pathway run/sweep --profile-out`, and
//! [`validate_profile_json`] — the checker CI runs against freshly
//! emitted profiles, live `pathway metrics` snapshots, and the committed
//! `BENCH_profile.json` alike.
//!
//! # Schema (format `pathway-profile`, version 1)
//!
//! ```json
//! {
//!   "format": "pathway-profile",
//!   "version": 1,
//!   "source": "run" | "sweep" | "serve",
//!   "label": "<spec path, sweep dir, or daemon name>",
//!   "generations": 150,
//!   "evaluations": 18120,
//!   "wall_ms": 742,
//!   "phases":     [{"name": "eval", "calls": 302, "total_us": 501233}, ...],
//!   "counters":   [{"name": "exec.batches", "value": 302}, ...],
//!   "gauges":     [{"name": "exec.lanes", "value": 2.0}, ...],
//!   "histograms": [{"name": "exec.chunk_us", "bounds": [...],
//!                   "counts": [...], "count": 604, "sum": 431002.5}, ...]
//! }
//! ```
//!
//! `phases` folds the `phase.<name>.us` / `phase.<name>.calls` counter
//! pairs the span timers record; the remaining counters stay in
//! `counters`. All four arrays are sorted by name. Phase totals are CPU
//! time: on a pooled executor the archipelago's islands breed on separate
//! lanes at once, so sub-phase totals can legitimately exceed the
//! `generation` phase's wall-clock total — [`check_phase_balance`]
//! therefore applies a deliberately generous tolerance instead of
//! expecting an exact partition.

use std::collections::BTreeMap;
use std::path::Path;

use pathway_moo::engine::store::atomic_write;
use pathway_moo::engine::telemetry::{Metric, MetricsSnapshot};

use crate::jsonlite::JsonValue;

/// `format` tag of every profile document.
pub const PROFILE_FORMAT: &str = "pathway-profile";

/// Current profile schema version.
pub const PROFILE_VERSION: i64 = 1;

/// The `source` values a valid profile may carry.
pub const PROFILE_SOURCES: [&str; 3] = ["run", "sweep", "serve"];

/// Everything a profile document records besides the metrics themselves.
#[derive(Debug, Clone)]
pub struct ProfileData<'a> {
    /// Which surface produced the profile: `run`, `sweep` or `serve`.
    pub source: &'a str,
    /// Human-readable origin (spec path, sweep out-dir, daemon name).
    pub label: &'a str,
    /// Generations this invocation completed (for `serve`: across jobs).
    pub generations: u64,
    /// Candidate evaluations this invocation spent.
    pub evaluations: u64,
    /// Wall-clock of the invocation (for `serve`: daemon uptime).
    pub wall_ms: u64,
    /// The merged telemetry snapshot.
    pub snapshot: &'a MetricsSnapshot,
}

/// Saturating `u64` → JSON integer.
fn int(value: u64) -> JsonValue {
    JsonValue::Int(i64::try_from(value).unwrap_or(i64::MAX))
}

/// Renders a profile document. Deterministic: arrays are sorted by name
/// and every field is derived from the inputs alone.
pub fn profile_json(data: &ProfileData) -> JsonValue {
    // Fold the phase.<name>.us / phase.<name>.calls counter pairs.
    let mut phases: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, metric) in &data.snapshot.metrics {
        match metric {
            Metric::Counter(value) => {
                let phase_part = name
                    .strip_prefix("phase.")
                    .and_then(|rest| rest.rsplit_once('.'));
                match phase_part {
                    Some((phase, "us")) => phases.entry(phase.to_string()).or_default().1 = *value,
                    Some((phase, "calls")) => {
                        phases.entry(phase.to_string()).or_default().0 = *value;
                    }
                    _ => counters.push(JsonValue::object([
                        ("name", JsonValue::string(name.clone())),
                        ("value", int(*value)),
                    ])),
                }
            }
            Metric::Gauge(value) if value.is_finite() => gauges.push(JsonValue::object([
                ("name", JsonValue::string(name.clone())),
                ("value", JsonValue::Number(*value)),
            ])),
            Metric::Gauge(_) => {}
            Metric::Histogram(histogram) => histograms.push(JsonValue::object([
                ("name", JsonValue::string(name.clone())),
                (
                    "bounds",
                    JsonValue::Array(
                        histogram
                            .bounds
                            .iter()
                            .map(|b| JsonValue::Number(*b))
                            .collect(),
                    ),
                ),
                (
                    "counts",
                    JsonValue::Array(histogram.counts.iter().map(|c| int(*c)).collect()),
                ),
                ("count", int(histogram.count)),
                ("sum", JsonValue::Number(histogram.sum())),
            ])),
        }
    }
    let phases = phases
        .into_iter()
        .map(|(name, (calls, total_us))| {
            JsonValue::object([
                ("name", JsonValue::string(name)),
                ("calls", int(calls)),
                ("total_us", int(total_us)),
            ])
        })
        .collect();
    JsonValue::object([
        ("format", JsonValue::string(PROFILE_FORMAT)),
        ("version", JsonValue::Int(PROFILE_VERSION)),
        ("source", JsonValue::string(data.source)),
        ("label", JsonValue::string(data.label)),
        ("generations", int(data.generations)),
        ("evaluations", int(data.evaluations)),
        ("wall_ms", int(data.wall_ms)),
        ("phases", JsonValue::Array(phases)),
        ("counters", JsonValue::Array(counters)),
        ("gauges", JsonValue::Array(gauges)),
        ("histograms", JsonValue::Array(histograms)),
    ])
}

/// Writes a profile, pretty-printed with a trailing newline, atomically
/// ([`atomic_write`]) — a crash never leaves a truncated profile behind.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_profile_file(path: &Path, data: &ProfileData) -> std::io::Result<()> {
    atomic_write(path, profile_json(data).to_pretty().as_bytes())
}

/// One folded phase of a validated profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Phase name (`generation`, `eval`, `variation`, …).
    pub name: String,
    /// How many spans were recorded.
    pub calls: u64,
    /// Total recorded time, microseconds (CPU time across threads).
    pub total_us: u64,
}

/// What [`validate_profile_json`] found in a healthy profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileCheck {
    /// The profile's `source` tag.
    pub source: String,
    /// The profile's `label`.
    pub label: String,
    /// Generations recorded.
    pub generations: u64,
    /// Evaluations recorded.
    pub evaluations: u64,
    /// Wall-clock milliseconds recorded.
    pub wall_ms: u64,
    /// The folded phase table, in document order.
    pub phases: Vec<PhaseEntry>,
}

/// Validates a `profile.json` document against the schema: format and
/// version tags, a known `source`, non-negative totals, well-formed phase
/// entries, and internally consistent histograms (ascending finite
/// bounds, `counts` one longer than `bounds`, bucket counts summing to
/// `count`). Purely structural — use [`check_phase_balance`] on the
/// result for the timing-consistency check.
///
/// # Errors
///
/// Every problem found, as one human-readable string each.
pub fn validate_profile_json(text: &str) -> Result<ProfileCheck, Vec<String>> {
    let mut problems = Vec::new();
    let document = match JsonValue::parse(text) {
        Ok(document) => document,
        Err(err) => return Err(vec![format!("not valid JSON: {err}")]),
    };
    if document.get("format").and_then(JsonValue::as_str) != Some(PROFILE_FORMAT) {
        problems.push(format!("'format' must be \"{PROFILE_FORMAT}\""));
    }
    if document.get("version").and_then(JsonValue::as_i64) != Some(PROFILE_VERSION) {
        problems.push(format!("'version' must be {PROFILE_VERSION}"));
    }
    let source = document
        .get("source")
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
        .to_string();
    if !PROFILE_SOURCES.contains(&source.as_str()) {
        problems.push(format!("'source' must be one of {PROFILE_SOURCES:?}"));
    }
    let label = match document.get("label").and_then(JsonValue::as_str) {
        Some(label) => label.to_string(),
        None => {
            problems.push("'label' must be a string".to_string());
            String::new()
        }
    };
    let mut non_negative = |key: &str| match document.get(key).and_then(JsonValue::as_i64) {
        Some(value) if value >= 0 => value as u64,
        _ => {
            problems.push(format!("'{key}' must be a non-negative integer"));
            0
        }
    };
    let generations = non_negative("generations");
    let evaluations = non_negative("evaluations");
    let wall_ms = non_negative("wall_ms");

    let mut phases = Vec::new();
    match document.get("phases").and_then(JsonValue::as_array) {
        Some(entries) => {
            for (at, entry) in entries.iter().enumerate() {
                let name = entry.get("name").and_then(JsonValue::as_str);
                let calls = entry.get("calls").and_then(JsonValue::as_i64);
                let total_us = entry.get("total_us").and_then(JsonValue::as_i64);
                match (name, calls, total_us) {
                    (Some(name), Some(calls), Some(total_us))
                        if !name.is_empty() && calls > 0 && total_us >= 0 =>
                    {
                        phases.push(PhaseEntry {
                            name: name.to_string(),
                            calls: calls as u64,
                            total_us: total_us as u64,
                        });
                    }
                    _ => problems.push(format!(
                        "phase {at}: needs a non-empty 'name', positive 'calls' and \
                         non-negative 'total_us'"
                    )),
                }
            }
        }
        None => problems.push("'phases' must be an array".to_string()),
    }

    let named_value =
        |section: &str, problems: &mut Vec<String>, check: &dyn Fn(&JsonValue) -> bool| {
            match document.get(section).and_then(JsonValue::as_array) {
                Some(entries) => {
                    for (at, entry) in entries.iter().enumerate() {
                        if entry
                            .get("name")
                            .and_then(JsonValue::as_str)
                            .is_none_or(str::is_empty)
                        {
                            problems.push(format!("{section} {at}: needs a non-empty 'name'"));
                        }
                        match entry.get("value") {
                            Some(value) if check(value) => {}
                            _ => problems.push(format!("{section} {at}: bad 'value'")),
                        }
                    }
                }
                None => problems.push(format!("'{section}' must be an array")),
            }
        };
    named_value("counters", &mut problems, &|value| {
        value.as_i64().is_some_and(|v| v >= 0)
    });
    named_value("gauges", &mut problems, &|value| {
        value.as_f64().is_some_and(f64::is_finite)
    });

    match document.get("histograms").and_then(JsonValue::as_array) {
        Some(entries) => {
            for (at, entry) in entries.iter().enumerate() {
                if entry
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .is_none_or(str::is_empty)
                {
                    problems.push(format!("histogram {at}: needs a non-empty 'name'"));
                }
                let bounds: Option<Vec<f64>> = entry
                    .get("bounds")
                    .and_then(JsonValue::as_array)
                    .map(|values| values.iter().filter_map(JsonValue::as_f64).collect());
                let counts: Option<Vec<i64>> = entry
                    .get("counts")
                    .and_then(JsonValue::as_array)
                    .map(|values| values.iter().filter_map(JsonValue::as_i64).collect());
                let (Some(bounds), Some(counts)) = (bounds, counts) else {
                    problems.push(format!(
                        "histogram {at}: needs numeric 'bounds' and 'counts' arrays"
                    ));
                    continue;
                };
                if bounds.iter().any(|b| !b.is_finite())
                    || bounds.windows(2).any(|pair| pair[0] >= pair[1])
                {
                    problems.push(format!(
                        "histogram {at}: 'bounds' must be finite and strictly ascending"
                    ));
                }
                if counts.len() != bounds.len() + 1 {
                    problems.push(format!(
                        "histogram {at}: 'counts' must hold bounds+1 buckets \
                         (got {} for {} bounds)",
                        counts.len(),
                        bounds.len()
                    ));
                }
                if counts.iter().any(|c| *c < 0) {
                    problems.push(format!("histogram {at}: negative bucket count"));
                }
                let total: i64 = counts.iter().sum();
                if entry.get("count").and_then(JsonValue::as_i64) != Some(total) {
                    problems.push(format!(
                        "histogram {at}: 'count' must equal the sum of 'counts'"
                    ));
                }
                if !entry
                    .get("sum")
                    .and_then(JsonValue::as_f64)
                    .is_some_and(f64::is_finite)
                {
                    problems.push(format!("histogram {at}: 'sum' must be a finite number"));
                }
            }
        }
        None => problems.push("'histograms' must be an array".to_string()),
    }

    if problems.is_empty() {
        Ok(ProfileCheck {
            source,
            label,
            generations,
            evaluations,
            wall_ms,
            phases,
        })
    } else {
        Err(problems)
    }
}

/// Checks that the sub-phase timings are plausible against the
/// `generation` phase total: their sum must land within a generous
/// multiplicative window (at least 1/8× and at most 16× the generation
/// total). The window is wide on purpose — sub-phases overlap (executor
/// spans run *inside* a generation) and, on a pooled executor, archipelago
/// islands breed on separate lanes at once (CPU time > wall time).
/// `checkpoint_write` is excluded from the sum: it is the one phase
/// recorded *outside* the generation span (the CLI and the serve scheduler
/// both checkpoint between generations) and it is fsync-bound, so its cost
/// has no relation to compute time. Profiles without a non-zero
/// `generation` phase (e.g. an idle daemon) pass trivially.
///
/// # Errors
///
/// A human-readable message naming the totals that disagree.
pub fn check_phase_balance(check: &ProfileCheck) -> Result<(), String> {
    let generation_us = check
        .phases
        .iter()
        .find(|phase| phase.name == "generation")
        .map_or(0, |phase| phase.total_us);
    if generation_us == 0 {
        return Ok(());
    }
    let others_us: u64 = check
        .phases
        .iter()
        .filter(|phase| phase.name != "generation" && phase.name != "checkpoint_write")
        .map(|phase| phase.total_us)
        .sum();
    if others_us < generation_us / 8 {
        return Err(format!(
            "sub-phase timings sum to {others_us}µs, under 1/8 of the \
             generation total {generation_us}µs — phases are not being recorded"
        ));
    }
    if others_us > generation_us.saturating_mul(16) {
        return Err(format!(
            "sub-phase timings sum to {others_us}µs, over 16× the generation \
             total {generation_us}µs — timings are implausible"
        ));
    }
    Ok(())
}

/// Phases whose old-side total is below this many microseconds are
/// reported by [`diff_profiles`] but never *gated* by
/// [`check_profile_regression`]: at sub-millisecond totals the ratio is
/// dominated by timer granularity and scheduling noise, not by code.
pub const REGRESSION_MIN_PHASE_US: u64 = 1_000;

/// One phase's before/after comparison in a [`ProfileDiff`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Phase name.
    pub name: String,
    /// Old-side total (µs); `None` when the phase is absent there.
    pub old_total_us: Option<u64>,
    /// New-side total (µs); `None` when the phase is absent there.
    pub new_total_us: Option<u64>,
    /// Old-side per-evaluation cost (µs/eval); `None` when the phase or an
    /// evaluation count is missing.
    pub old_per_eval_us: Option<f64>,
    /// New-side per-evaluation cost (µs/eval).
    pub new_per_eval_us: Option<f64>,
    /// New/old cost ratio — per-evaluation when both sides record
    /// evaluations (so profiles of different lengths compare fairly), raw
    /// totals otherwise; `None` unless the phase exists on both sides with
    /// a positive old cost.
    pub ratio: Option<f64>,
}

/// What [`diff_profiles`] computed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiff {
    /// Evaluations recorded by the old profile.
    pub old_evaluations: u64,
    /// Evaluations recorded by the new profile.
    pub new_evaluations: u64,
    /// Per-phase deltas over the *union* of phase names, sorted by name.
    pub phases: Vec<PhaseDelta>,
}

/// Compares two validated profiles phase by phase. Costs are normalized
/// per evaluation whenever both profiles record evaluation counts, so a
/// 150-generation baseline and a 10-generation smoke run still compare
/// like for like; with a missing count the raw totals are compared
/// directly. Deterministic: output order is the sorted union of phase
/// names.
pub fn diff_profiles(old: &ProfileCheck, new: &ProfileCheck) -> ProfileDiff {
    let fold = |check: &ProfileCheck| -> BTreeMap<String, u64> {
        check
            .phases
            .iter()
            .map(|phase| (phase.name.clone(), phase.total_us))
            .collect()
    };
    let old_phases = fold(old);
    let new_phases = fold(new);
    let per_eval = |total_us: u64, evaluations: u64| {
        (evaluations > 0).then(|| total_us as f64 / evaluations as f64)
    };
    let mut names: Vec<&String> = old_phases.keys().chain(new_phases.keys()).collect();
    names.sort();
    names.dedup();
    let phases = names
        .into_iter()
        .map(|name| {
            let old_total_us = old_phases.get(name).copied();
            let new_total_us = new_phases.get(name).copied();
            let old_per_eval_us = old_total_us.and_then(|us| per_eval(us, old.evaluations));
            let new_per_eval_us = new_total_us.and_then(|us| per_eval(us, new.evaluations));
            let ratio = match (old_per_eval_us, new_per_eval_us) {
                (Some(before), Some(after)) if before > 0.0 => Some(after / before),
                _ => match (old_total_us, new_total_us) {
                    (Some(before), Some(after)) if before > 0 => Some(after as f64 / before as f64),
                    _ => None,
                },
            };
            PhaseDelta {
                name: name.clone(),
                old_total_us,
                new_total_us,
                old_per_eval_us,
                new_per_eval_us,
                ratio,
            }
        })
        .collect();
    ProfileDiff {
        old_evaluations: old.evaluations,
        new_evaluations: new.evaluations,
        phases,
    }
}

/// Gates a [`ProfileDiff`] against a regression `threshold` (a new/old
/// cost ratio; `4.0` is a sensible CI default — generous enough to absorb
/// a baseline measured on different hardware, tight enough to catch a
/// kernel regressing by an order of magnitude). Gated phases are those
/// with a computable ratio, an old-side total of at least
/// [`REGRESSION_MIN_PHASE_US`], and a name other than `checkpoint_write`
/// (fsync-bound, unrelated to compute).
///
/// # Errors
///
/// One line per regressed phase, joined with `; `.
pub fn check_profile_regression(diff: &ProfileDiff, threshold: f64) -> Result<(), String> {
    assert!(
        threshold.is_finite() && threshold > 0.0,
        "regression threshold must be positive and finite"
    );
    let regressions: Vec<String> = diff
        .phases
        .iter()
        .filter(|delta| delta.name != "checkpoint_write")
        .filter(|delta| {
            delta
                .old_total_us
                .is_some_and(|us| us >= REGRESSION_MIN_PHASE_US)
        })
        .filter_map(|delta| {
            let ratio = delta.ratio?;
            (ratio > threshold).then(|| {
                format!(
                    "phase '{}' regressed {:.2}x (threshold {:.2}x)",
                    delta.name, ratio, threshold
                )
            })
        })
        .collect();
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(regressions.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathway_moo::engine::telemetry::MetricsRegistry;

    fn sample_profile_text() -> String {
        let registry = MetricsRegistry::new();
        registry.add("exec.batches", 4);
        registry.add("exec.candidates", 240);
        registry.add("phase.generation.us", 1000);
        registry.add("phase.generation.calls", 4);
        registry.add("phase.eval.us", 700);
        registry.add("phase.eval.calls", 4);
        registry.add("phase.variation.us", 200);
        registry.add("phase.variation.calls", 4);
        registry.set_gauge("exec.lanes", 2.0);
        registry.observe("exec.chunk_us", &[10.0, 100.0], 5.0);
        registry.observe("exec.chunk_us", &[10.0, 100.0], 50.0);
        let snapshot = registry.snapshot();
        profile_json(&ProfileData {
            source: "run",
            label: "examples/quickstart.spec",
            generations: 4,
            evaluations: 240,
            wall_ms: 12,
            snapshot: &snapshot,
        })
        .to_pretty()
    }

    #[test]
    fn round_trip_through_the_validator() {
        let text = sample_profile_text();
        let check = validate_profile_json(&text).expect("valid profile");
        assert_eq!(check.source, "run");
        assert_eq!(check.label, "examples/quickstart.spec");
        assert_eq!(check.generations, 4);
        assert_eq!(check.evaluations, 240);
        assert_eq!(check.wall_ms, 12);
        assert_eq!(check.phases.len(), 3);
        let generation = check
            .phases
            .iter()
            .find(|phase| phase.name == "generation")
            .expect("generation phase folded from its counter pair");
        assert_eq!(generation.calls, 4);
        assert_eq!(generation.total_us, 1000);
        check_phase_balance(&check).expect("balanced phases");

        // The rendering is stable: re-rendering the same snapshot is
        // byte-identical.
        assert_eq!(text, sample_profile_text());
    }

    #[test]
    fn corrupted_profiles_are_rejected() {
        let text = sample_profile_text();
        assert!(validate_profile_json("{not json").is_err());
        let wrong_format = text.replace("pathway-profile", "pathway-ledger");
        assert!(validate_profile_json(&wrong_format).is_err());
        let wrong_version = text.replace("\"version\": 1", "\"version\": 99");
        assert!(validate_profile_json(&wrong_version).is_err());
        let bad_source = text.replace("\"run\"", "\"walk\"");
        assert!(validate_profile_json(&bad_source).is_err());
        let negative = text.replace("\"generations\": 4", "\"generations\": -4");
        assert!(validate_profile_json(&negative).is_err());
        // Histogram bucket counts must sum to 'count'.
        let miscounted = text.replace("\"count\": 2", "\"count\": 7");
        assert!(validate_profile_json(&miscounted).is_err());
        // Dropping a section entirely is caught too.
        let no_phases = text.replace("\"phases\"", "\"not_phases\"");
        assert!(validate_profile_json(&no_phases).is_err());
    }

    #[test]
    fn phase_balance_flags_missing_and_implausible_timings() {
        let phase = |name: &str, total_us: u64| PhaseEntry {
            name: name.to_string(),
            calls: 1,
            total_us,
        };
        let check = |phases: Vec<PhaseEntry>| ProfileCheck {
            source: "run".to_string(),
            label: String::new(),
            generations: 1,
            evaluations: 1,
            wall_ms: 1,
            phases,
        };
        // No generation phase at all: trivially balanced (idle daemon).
        check_phase_balance(&check(vec![phase("eval", 100)])).expect("no baseline");
        // Sub-phases missing: flagged.
        assert!(
            check_phase_balance(&check(vec![phase("generation", 8000), phase("eval", 10)]))
                .is_err()
        );
        // Sub-phases wildly over: flagged.
        assert!(
            check_phase_balance(&check(vec![phase("generation", 10), phase("eval", 1000)]))
                .is_err()
        );
        // Concurrency headroom: sums above the generation total pass.
        check_phase_balance(&check(vec![
            phase("generation", 1000),
            phase("eval", 1800),
            phase("variation", 300),
        ]))
        .expect("concurrent islands may exceed wall-clock");
        // checkpoint_write is out-of-generation and fsync-bound: even a
        // slow disk must not trip the balance window.
        check_phase_balance(&check(vec![
            phase("generation", 200),
            phase("eval", 150),
            phase("checkpoint_write", 500_000),
        ]))
        .expect("checkpoint writes are excluded from the balance");
    }

    fn check_with(evaluations: u64, phases: &[(&str, u64)]) -> ProfileCheck {
        ProfileCheck {
            source: "run".to_string(),
            label: "test".to_string(),
            generations: 1,
            evaluations,
            wall_ms: 1,
            phases: phases
                .iter()
                .map(|&(name, total_us)| PhaseEntry {
                    name: name.to_string(),
                    calls: 1,
                    total_us,
                })
                .collect(),
        }
    }

    #[test]
    fn diff_normalizes_per_evaluation_across_different_run_lengths() {
        // Same per-eval cost at 10x the evaluations: ratio 1.0.
        let old = check_with(100, &[("eval", 50_000)]);
        let new = check_with(1000, &[("eval", 500_000)]);
        let diff = diff_profiles(&old, &new);
        assert_eq!(diff.old_evaluations, 100);
        assert_eq!(diff.new_evaluations, 1000);
        let eval = &diff.phases[0];
        assert_eq!(eval.name, "eval");
        assert_eq!(eval.old_per_eval_us, Some(500.0));
        assert_eq!(eval.new_per_eval_us, Some(500.0));
        assert_eq!(eval.ratio, Some(1.0));
        check_profile_regression(&diff, 1.01).expect("no regression at equal cost");
    }

    #[test]
    fn diff_covers_the_union_of_phases_and_falls_back_to_raw_totals() {
        let old = check_with(0, &[("eval", 4_000), ("variation", 1_000)]);
        let new = check_with(0, &[("eval", 2_000), ("migration", 500)]);
        let diff = diff_profiles(&old, &new);
        let names: Vec<&str> = diff.phases.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["eval", "migration", "variation"]);
        let eval = &diff.phases[0];
        // No evaluation counts: raw-total ratio.
        assert_eq!(eval.old_per_eval_us, None);
        assert_eq!(eval.ratio, Some(0.5));
        // One-sided phases carry no ratio and never gate.
        assert_eq!(diff.phases[1].ratio, None);
        assert_eq!(diff.phases[2].ratio, None);
        check_profile_regression(&diff, 4.0).expect("one-sided phases pass");
    }

    #[test]
    fn regression_gate_fires_on_large_ratios_but_ignores_noise_phases() {
        // A 5x regression on a substantial phase trips a 4x threshold.
        let old = check_with(100, &[("eval", 100_000)]);
        let new = check_with(100, &[("eval", 500_000)]);
        let err = check_profile_regression(&diff_profiles(&old, &new), 4.0)
            .expect_err("5x regression must fail the 4x gate");
        assert!(err.contains("'eval'"), "message names the phase: {err}");
        assert!(check_profile_regression(&diff_profiles(&old, &new), 5.5).is_ok());

        // Sub-millisecond phases are reported but not gated.
        let old = check_with(100, &[("tiny", REGRESSION_MIN_PHASE_US - 1)]);
        let new = check_with(100, &[("tiny", 900_000)]);
        let diff = diff_profiles(&old, &new);
        assert!(diff.phases[0].ratio.is_some(), "delta is still reported");
        check_profile_regression(&diff, 4.0).expect("noise floor filters the gate");

        // checkpoint_write is fsync-bound and never gated.
        let old = check_with(100, &[("checkpoint_write", 100_000)]);
        let new = check_with(100, &[("checkpoint_write", 900_000)]);
        check_profile_regression(&diff_profiles(&old, &new), 4.0)
            .expect("checkpoint_write is exempt");
    }

    #[test]
    fn profile_file_write_is_atomic_and_valid() {
        let dir = std::env::temp_dir().join(format!("pathway-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("profile.json");
        let registry = MetricsRegistry::new();
        registry.add("phase.generation.us", 10);
        registry.add("phase.generation.calls", 1);
        registry.add("phase.eval.us", 8);
        registry.add("phase.eval.calls", 1);
        let snapshot = registry.snapshot();
        write_profile_file(
            &path,
            &ProfileData {
                source: "run",
                label: "test",
                generations: 1,
                evaluations: 10,
                wall_ms: 1,
                snapshot: &snapshot,
            },
        )
        .expect("profile written");
        let text = std::fs::read_to_string(&path).expect("profile readable");
        validate_profile_json(&text).expect("written profile validates");
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

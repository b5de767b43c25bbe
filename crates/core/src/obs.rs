//! Profile artifacts: the `pathway-profile` document a telemetry
//! [`MetricsSnapshot`] folds into.
//!
//! The split mirrors the sweep ledger: plain-data metrics live upstream in
//! `pathway_moo::engine::telemetry`, while this module owns [`Profile`], the
//! one typed description of the document. Its field tables render it
//! ([`Profile::to_json`]) and read it back ([`Profile::from_json`]), so each
//! key is spelled once. Reading is the check CI runs against freshly
//! emitted profiles, live `pathway metrics` snapshots, and the committed
//! `BENCH_profile.json` alike; [`write_profile_file`] is the atomic writer
//! behind `pathway run/sweep --profile-out`.
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
//! `counters`. All four arrays are sorted by name. A histogram's bounds are
//! finite and strictly ascending, it has one bucket more than bounds (the
//! overflow), and its `count` is the sum of its buckets. Phase totals are
//! CPU time: on a pooled executor the archipelago's islands breed on
//! separate lanes at once, so sub-phase totals can legitimately exceed the
//! `generation` phase's wall-clock total — [`check_phase_balance`]
//! therefore applies a deliberately generous tolerance instead of
//! expecting an exact partition.

use std::collections::BTreeMap;
use std::path::Path;

use pathway_moo::engine::store::atomic_write;
use pathway_moo::engine::telemetry::{Metric, MetricsSnapshot};

use crate::field;
use crate::jsonlite::{
    int, read_record, write_list, write_record, Field, JsonValue, Kind, COUNT, FINITE, NAME,
    POSITIVE, TEXT,
};

/// `format` tag of every profile document.
pub const PROFILE_FORMAT: &str = "pathway-profile";

/// Current profile schema version.
pub const PROFILE_VERSION: i64 = 1;

/// The `source` values a valid profile may carry.
pub const PROFILE_SOURCES: [&str; 3] = ["run", "sweep", "serve"];

/// A `pathway-profile` document: the invocation it describes and the
/// telemetry it recorded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Which surface produced the profile: `run`, `sweep` or `serve`.
    pub source: String,
    /// Human-readable origin (spec path, sweep out-dir, daemon name).
    pub label: String,
    /// Generations this invocation completed (for `serve`: across jobs).
    pub generations: u64,
    /// Candidate evaluations this invocation spent.
    pub evaluations: u64,
    /// Wall-clock of the invocation (for `serve`: daemon uptime).
    pub wall_ms: u64,
    /// The folded phase table, sorted by name.
    pub phases: Vec<Phase>,
    /// Counters other than phase timers, sorted by name.
    pub counters: Vec<Named<u64>>,
    /// Finite gauges, sorted by name.
    pub gauges: Vec<Named<f64>>,
    /// Histograms, sorted by name.
    pub histograms: Vec<Histogram>,
}

/// One folded phase of a profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phase {
    /// Phase name (`generation`, `eval`, `variation`, …).
    pub name: String,
    /// How many spans were recorded.
    pub calls: u64,
    /// Total recorded time, microseconds (CPU time across threads).
    pub total_us: u64,
}

/// One named value of a profile: a counter (`u64`) or a finite gauge
/// (`f64`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Named<T> {
    /// The metric's name.
    pub name: String,
    /// Its value.
    pub value: T,
}

/// One histogram of a profile; its `count` is the sum of `counts`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// Histogram name.
    pub name: String,
    /// Finite, strictly ascending upper bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts, one more than `bounds` (the overflow bucket).
    pub counts: Vec<u64>,
    /// Sum of the finite observed values.
    pub sum: f64,
}

/// A profile's `source`.
const SOURCE: Kind<String> = Kind {
    expected: "one of \"run\", \"sweep\" or \"serve\"",
    write: TEXT.write,
    read: |value| {
        let source = value
            .as_str()
            .filter(|source| PROFILE_SOURCES.contains(source));
        source.map(str::to_string)
    },
};

/// A histogram's bucket bounds.
const BOUNDS: Kind<Vec<f64>> = Kind {
    expected: "an array of finite, strictly ascending numbers",
    write: |bounds| write_list(bounds, FINITE),
    read: |value| {
        let bounds: Vec<f64> = value
            .as_array()?
            .iter()
            .map(FINITE.read)
            .collect::<Option<_>>()?;
        bounds
            .windows(2)
            .all(|pair| pair[0] < pair[1])
            .then_some(bounds)
    },
};

/// The `pathway-profile` document's fields, in document order.
pub static PROFILE: [Field<Profile>; 11] = [
    field!("format" = |_| JsonValue::string(PROFILE_FORMAT)),
    field!("version" = |_| JsonValue::Int(PROFILE_VERSION)),
    field!("source": SOURCE => source),
    field!("label": TEXT => label),
    field!("generations": COUNT => generations),
    field!("evaluations": COUNT => evaluations),
    field!("wall_ms": COUNT => wall_ms),
    field!("phases": [PHASE] => phases),
    field!("counters": [COUNTER] => counters),
    field!("gauges": [GAUGE] => gauges),
    field!("histograms": [HISTOGRAM] => histograms),
];

static PHASE: [Field<Phase>; 3] = [
    field!("name": NAME => name),
    field!("calls": POSITIVE => calls),
    field!("total_us": COUNT => total_us),
];

static COUNTER: [Field<Named<u64>>; 2] = [
    field!("name": NAME => name),
    field!("value": COUNT => value),
];

static GAUGE: [Field<Named<f64>>; 2] = [
    field!("name": NAME => name),
    field!("value": FINITE => value),
];

static HISTOGRAM: [Field<Histogram>; 5] = [
    field!("name": NAME => name),
    field!("bounds": BOUNDS => bounds),
    Field {
        key: "counts",
        write: |histogram| Some(write_list(&histogram.counts, COUNT)),
        read: Some(|histogram, fields, key| {
            histogram.counts = fields.list(key, COUNT);
            let buckets = histogram.bounds.len() + 1;
            if histogram.counts.len() != buckets {
                fields.problem(
                    key,
                    format_args!("expected {buckets} buckets, one per bound and the overflow"),
                );
            }
        }),
    },
    field!("count" = |histogram: &Histogram| int(histogram.counts.iter().sum::<u64>())),
    field!("sum": FINITE => sum),
];

impl Profile {
    /// The metrics of `snapshot`, folded into a profile whose header
    /// (source, label and totals) is left for the caller to fill.
    /// Deterministic: arrays are sorted by name.
    pub fn from_snapshot(snapshot: &MetricsSnapshot) -> Profile {
        let mut profile = Profile::default();
        // Fold the phase.<name>.us / phase.<name>.calls counter pairs.
        let mut phases: BTreeMap<&str, Phase> = BTreeMap::new();
        for (name, metric) in &snapshot.metrics {
            match metric {
                Metric::Counter(value) => {
                    let phase_part = name
                        .strip_prefix("phase.")
                        .and_then(|rest| rest.rsplit_once('.'));
                    match phase_part {
                        Some((phase, "us")) => phases.entry(phase).or_default().total_us = *value,
                        Some((phase, "calls")) => phases.entry(phase).or_default().calls = *value,
                        _ => profile.counters.push(Named {
                            name: name.clone(),
                            value: *value,
                        }),
                    }
                }
                Metric::Gauge(value) if value.is_finite() => profile.gauges.push(Named {
                    name: name.clone(),
                    value: *value,
                }),
                Metric::Gauge(_) => {}
                Metric::Histogram(histogram) => profile.histograms.push(Histogram {
                    name: name.clone(),
                    bounds: histogram.bounds.clone(),
                    counts: histogram.counts.clone(),
                    sum: histogram.sum(),
                }),
            }
        }
        profile.phases = phases
            .into_iter()
            .map(|(name, phase)| Phase {
                name: name.to_string(),
                ..phase
            })
            .collect();
        profile
    }

    /// Renders the profile document.
    pub fn to_json(&self) -> JsonValue {
        write_record(self, &PROFILE)
    }

    /// Reads a profile document back: the format and version tags, a
    /// known `source`, non-negative totals, well-formed phase, counter and
    /// gauge entries, and internally consistent histograms. Purely
    /// structural — use [`check_phase_balance`] on the result for the
    /// timing-consistency check.
    ///
    /// # Errors
    ///
    /// Every problem found, each naming the path of its field.
    pub fn from_json(document: &JsonValue) -> Result<Profile, Vec<String>> {
        read_record(document, &PROFILE)
    }
}

/// Writes a profile, pretty-printed with a trailing newline, atomically
/// ([`atomic_write`]) — a crash never leaves a truncated profile behind.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_profile_file(path: &Path, profile: &Profile) -> std::io::Result<()> {
    atomic_write(path, profile.to_json().to_pretty().as_bytes())
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
pub fn check_phase_balance(check: &Profile) -> Result<(), String> {
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
pub fn diff_profiles(old: &Profile, new: &Profile) -> ProfileDiff {
    let fold = |check: &Profile| -> BTreeMap<String, u64> {
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
        Profile {
            source: "run".to_string(),
            label: "examples/quickstart.spec".to_string(),
            generations: 4,
            evaluations: 240,
            wall_ms: 12,
            ..Profile::from_snapshot(&snapshot)
        }
        .to_json()
        .to_pretty()
    }

    /// The profile `text` holds, or every problem with it.
    fn parse(text: &str) -> Result<Profile, Vec<String>> {
        let document = JsonValue::parse(text).map_err(|err| vec![err.to_string()])?;
        Profile::from_json(&document)
    }

    #[test]
    fn round_trip_through_the_validator() {
        let text = sample_profile_text();
        let check = parse(&text).expect("valid profile");
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

        // The rendering is stable: re-rendering the same snapshot, or the
        // profile read back, is byte-identical.
        assert_eq!(text, sample_profile_text());
        assert_eq!(check.to_json().to_pretty(), text);
    }

    /// The profile `sample_profile_text` renders, pinned byte for byte.
    const SAMPLE_PROFILE: &str = r#"{
  "format": "pathway-profile",
  "version": 1,
  "source": "run",
  "label": "examples/quickstart.spec",
  "generations": 4,
  "evaluations": 240,
  "wall_ms": 12,
  "phases": [
    {
      "name": "eval",
      "calls": 4,
      "total_us": 700
    },
    {
      "name": "generation",
      "calls": 4,
      "total_us": 1000
    },
    {
      "name": "variation",
      "calls": 4,
      "total_us": 200
    }
  ],
  "counters": [
    {
      "name": "exec.batches",
      "value": 4
    },
    {
      "name": "exec.candidates",
      "value": 240
    }
  ],
  "gauges": [
    {
      "name": "exec.lanes",
      "value": 2.0
    }
  ],
  "histograms": [
    {
      "name": "exec.chunk_us",
      "bounds": [
        10.0,
        100.0
      ],
      "counts": [
        1,
        1,
        0
      ],
      "count": 2,
      "sum": 55.0
    }
  ]
}
"#;

    #[test]
    fn a_snapshot_renders_the_pinned_profile() {
        assert_eq!(sample_profile_text(), SAMPLE_PROFILE);
    }

    #[test]
    fn corrupted_profiles_are_rejected() {
        let text = sample_profile_text();
        assert!(parse("{not json").is_err());
        let wrong_format = text.replace("pathway-profile", "pathway-ledger");
        assert!(parse(&wrong_format).is_err());
        let wrong_version = text.replace("\"version\": 1", "\"version\": 99");
        assert!(parse(&wrong_version).is_err());
        let bad_source = text.replace("\"run\"", "\"walk\"");
        assert!(parse(&bad_source).is_err());
        let negative = text.replace("\"generations\": 4", "\"generations\": -4");
        assert!(parse(&negative).is_err());
        // Histogram bucket counts must sum to 'count'.
        let miscounted = text.replace("\"count\": 2", "\"count\": 7");
        assert!(parse(&miscounted).is_err());
        // Dropping a section entirely is caught too.
        let no_phases = text.replace("\"phases\"", "\"not_phases\"");
        assert!(parse(&no_phases).is_err());
    }

    #[test]
    fn phase_balance_flags_missing_and_implausible_timings() {
        let phase = |name: &str, total_us: u64| Phase {
            name: name.to_string(),
            calls: 1,
            total_us,
        };
        let check = |phases: Vec<Phase>| Profile {
            source: "run".to_string(),
            generations: 1,
            evaluations: 1,
            wall_ms: 1,
            phases,
            ..Profile::default()
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

    fn check_with(evaluations: u64, phases: &[(&str, u64)]) -> Profile {
        Profile {
            source: "run".to_string(),
            label: "test".to_string(),
            generations: 1,
            evaluations,
            wall_ms: 1,
            phases: phases
                .iter()
                .map(|&(name, total_us)| Phase {
                    name: name.to_string(),
                    calls: 1,
                    total_us,
                })
                .collect(),
            ..Profile::default()
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
            &Profile {
                source: "run".to_string(),
                label: "test".to_string(),
                generations: 1,
                evaluations: 10,
                wall_ms: 1,
                ..Profile::from_snapshot(&snapshot)
            },
        )
        .expect("profile written");
        let text = std::fs::read_to_string(&path).expect("profile readable");
        parse(&text).expect("written profile validates");
        assert!(!path.with_extension("json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! One benchmark run: repeated studies of one workload filling the time
//! budget, the correctness checks, and the metrics.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use pathway_core::jsonlite::JsonValue;

use crate::calib;
use crate::host::{self, Host, Span};
use crate::ledger::{self, Ledger};
use crate::probe::{self, ProbeReport};
use crate::stats;
use crate::study::{run_study, Layers, StudyOutcome};
use crate::workload::{search_seed, Size, Workload};

/// End-to-end metrics: `(name, unit)`, as `BENCHMARK.json` lists them.
/// Times are process CPU time calibrated by the host's slowdown (see
/// [`crate::calib`] and `perfbench/README.md`); their wall-clock twins and
/// the tail percentiles are in the result document ([`UNGATED`]).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("total_cpu_s", "s"),
    ("evals_per_cpu_s", "1/s"),
    ("gen_cpu_ms_p50", "ms"),
    ("front_hv", "hv"),
    ("eval_ok_frac", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`, as `BENCHMARK.json`
/// lists them.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("fba.solve_ms", "ms"),
    ("fba.simplex_pivots", "count"),
    ("fba.violation_batch_us", "us"),
    ("fba.violation_batch_flops", "count"),
    ("moo.engine.variation_ms", "ms"),
    ("moo.engine.selection_ms", "ms"),
    ("moo.engine.migration_ms", "ms"),
    ("moo.engine.telemetry_ms", "ms"),
    ("moo.engine.generation_ms", "ms"),
    ("moo.engine.phase_coverage", "ratio"),
    ("moo.engine.island_overlap", "ratio"),
    ("moo.exec.eval_wall_ms", "ms"),
    ("moo.exec.oracle_busy_ms", "ms"),
    ("moo.exec.lane_util", "ratio"),
    ("moo.exec.steals", "count"),
    ("moo.exec.idle_lane_turns", "count"),
    ("moo.exec.queue_wait_us_p50", "us"),
    ("core.oracle.eval_us_p50", "us"),
    ("core.oracle.eval_us_p98", "us"),
    ("core.oracle.prepare_ms", "ms"),
    ("core.oracle.attempted", "count"),
    ("core.oracle.failed", "count"),
    ("core.ode_leaf.warm_start_ratio", "ratio"),
    ("ode.cold.steps", "count"),
    ("ode.cold.rhs_evals", "count"),
    ("ode.cold.jacobians", "count"),
    ("ode.cold.newton_iters", "count"),
    ("ode.cold_ms", "ms"),
    ("ode.warm.steps", "count"),
    ("ode.warm.rhs_evals", "count"),
    ("ode.warm.jacobians", "count"),
    ("ode.warm.newton_iters", "count"),
    ("ode.warm_ms", "ms"),
    ("linalg.lu_factor_ns", "ns"),
    ("linalg.lu_solve_ns", "ns"),
    ("photosynthesis.rhs_ns", "ns"),
    ("moo.store.save_ms_p50", "ms"),
    ("moo.store.bytes_per_checkpoint", "bytes"),
    ("moo.store.resume_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("moo.engine.generations", "count"),
    ("eval_fail_frac", "ratio"),
];

/// Figures the result document reports without a bound: the wall-clock
/// twins of the end-to-end times, and the 90th percentile of generation
/// time on both clocks, which on a host losing vCPU time to other guests
/// follows the host more than the program.
pub const UNGATED: [(&str, &str); 6] = [
    ("setup_wall_s", "s"),
    ("total_s", "s"),
    ("evals_per_s", "1/s"),
    ("gen_ms_p50", "ms"),
    ("gen_ms_p90", "ms"),
    ("gen_cpu_ms_p90", "ms"),
];

/// How far the layer self times may stray from a generation's wall time
/// before the traced run fails its balance check (see
/// [`Layers::coverage`]).
pub const COVERAGE_TOLERANCE: f64 = 0.10;

/// The name of the traced run's balance check.
pub const BALANCE_CHECK: &str = "layer self times account for each generation's wall time";

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct Request {
    /// The workload.
    pub workload: Workload,
    /// Seed of the search (the workload's only input that varies).
    pub seed: u64,
    /// Measurement budget: it sets how many studies run, at the workload's
    /// nominal study time, so every run of a workload does the same work.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Study size; [`Workload::full_size`] unless a test shrinks it.
    pub size: Size,
    /// Directory for checkpoints, fronts and the exact-counter ledger.
    pub state_dir: PathBuf,
}

/// One metric value with its unit and the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Why not, when it did not.
    pub detail: String,
}

/// The result document of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The request.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// Traced or not.
    pub trace: bool,
    /// The host fingerprint.
    pub host: Host,
    /// Studies attempted.
    pub attempted: u64,
    /// Studies that panicked or returned an error.
    pub failed: u64,
    /// The metrics of this mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Every correctness check made.
    pub checks: Vec<Check>,
    /// Failed evaluations over attempted evaluations, all studies.
    pub eval_fail_frac: f64,
    /// The [`UNGATED`] figures (untraced runs only).
    pub ungated: Vec<Metric>,
}

impl Report {
    /// Every check held and no study failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The full result document as one JSON line.
    pub fn document(&self) -> JsonValue {
        let with_samples = |metrics: &[Metric]| {
            JsonValue::object(metrics.iter().map(|m| {
                (
                    m.name,
                    JsonValue::object([
                        ("value", host::number(m.value)),
                        ("unit", JsonValue::string(m.unit)),
                        ("samples", JsonValue::Int(m.samples as i64)),
                    ]),
                )
            }))
        };
        let checks = self.checks.iter().map(|c| {
            JsonValue::object([
                ("name", JsonValue::string(&c.name)),
                ("ok", JsonValue::Bool(c.ok)),
                ("detail", JsonValue::string(&c.detail)),
            ])
        });
        JsonValue::object([
            ("document", JsonValue::string("perfbench-result")),
            ("workload", JsonValue::string(self.workload.name())),
            ("seed", JsonValue::Int(self.seed as i64)),
            ("trace", JsonValue::Bool(self.trace)),
            ("host", self.host.to_json()),
            ("studies", JsonValue::Int(self.attempted as i64)),
            ("failed_studies", JsonValue::Int(self.failed as i64)),
            ("eval_fail_frac", host::number(self.eval_fail_frac)),
            ("metrics", with_samples(&self.metrics)),
            ("ungated", with_samples(&self.ungated)),
            ("checks", JsonValue::Array(checks.collect())),
        ])
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// of this mode with its value and unit.
    pub fn result_line(&self) -> JsonValue {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                JsonValue::object([
                    ("value", host::number(m.value)),
                    ("unit", JsonValue::string(m.unit)),
                ]),
            )
        });
        JsonValue::object([
            ("correct", JsonValue::Bool(self.correct())),
            ("attempted", JsonValue::Int(self.attempted as i64)),
            ("failed", JsonValue::Int(self.failed as i64)),
            ("metrics", JsonValue::object(metrics)),
        ])
    }
}

/// Runs the request: the studies that fill the budget (traced runs
/// alternate untraced and traced studies, to measure tracing overhead),
/// then the probes of a traced run, the checks and the metrics.
pub fn run(request: &Request) -> Report {
    let workload = request.workload;
    let size = &request.size;
    let host = Host::probe(size.lanes);
    let work = request.state_dir.join("work").join(workload.name());
    // Untraced runs make whole cycles of trajectories; traced runs make
    // pairs of an untraced and a traced study of one trajectory, to
    // measure tracing overhead.
    let trajectories = size.trajectories.max(1);
    let per_study = size.nominal_study_s.max(1e-3);
    let studies = if request.trace {
        let pairs = (request.seconds / (2.0 * per_study)).round() as usize;
        2 * pairs.clamp(1, trajectories)
    } else {
        let cycles = (request.seconds / (per_study * trajectories as f64)).round() as usize;
        trajectories * cycles.max(1)
    };

    let mut plain: Vec<StudyOutcome> = Vec::new();
    let mut traced: Vec<StudyOutcome> = Vec::new();
    let mut checks = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut slowdown = calib::slowdown();
    for index in 0..studies {
        let trace_this = request.trace && index % 2 == 1;
        let trajectory = if request.trace { index / 2 } else { index } % trajectories;
        let seed = search_seed(request.seed, trajectory);
        attempted += 1;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            run_study(workload, seed, size, trace_this, &work)
        }));
        let before = slowdown;
        slowdown = calib::slowdown();
        let calibrated = |mut study: StudyOutcome| {
            study.slowdown = (before + slowdown) / 2.0;
            study
        };
        match outcome {
            Ok(Ok(study)) if trace_this => traced.push(calibrated(study)),
            Ok(Ok(study)) => plain.push(calibrated(study)),
            Ok(Err(message)) => {
                failed += 1;
                checks.push(fail(format!("study {attempted}"), message));
            }
            Err(payload) => {
                failed += 1;
                checks.push(fail(format!("study {attempted}"), panic_message(&payload)));
            }
        }
        if failed > 0 {
            break; // studies are deterministic: a failure would repeat
        }
    }
    let _ = std::fs::remove_dir_all(&work);

    let all: Vec<&StudyOutcome> = plain.iter().chain(&traced).collect();
    let evaluations: u64 = all.iter().map(|s| s.attempted).sum();
    let eval_failures: u64 = all.iter().map(|s| s.failed).sum();
    let eval_fail_frac = eval_failures as f64 / evaluations.max(1) as f64;

    if !workload.zero_uptake_fails() {
        // Only the ODE oracle has a failure mode (an integration that
        // never settles); a failed evaluation anywhere else is a bug.
        check(
            &mut checks,
            "no evaluation failed",
            eval_failures == 0,
            || format!("{eval_failures} of {evaluations} evaluations failed"),
        );
    }

    let build = ledger::build_id().unwrap_or_else(|e| {
        checks.push(fail("build identity read".into(), e.to_string()));
        "unknown".into()
    });
    let mut ledger = Ledger::open(
        &request
            .state_dir
            .join(format!("exact-counters-{build}.json")),
    );
    check_studies(size, &all, &mut ledger, &mut checks);
    let metrics = if request.trace {
        let probes = run_probes(workload, size, &mut checks);
        let metrics = layer_metrics(&plain, &traced, &probes, eval_fail_frac, &mut checks);
        for m in metrics
            .iter()
            .filter(|m| m.unit == "count" || m.unit == "bytes")
        {
            // Probe counts do not depend on the seed; a study's counts do.
            // Steals and idle turns follow the scheduler and never repeat.
            let key = if probes.counts.contains_key(m.name) {
                format!("probe/{}", m.name)
            } else if m.name.starts_with("moo.exec.") || m.samples == 0 {
                continue;
            } else if let Some(study) = traced.first() {
                format!("{}/{}", study.key, m.name)
            } else {
                continue;
            };
            ledger_check(&mut ledger, &key, &m.value.to_string(), &mut checks);
        }
        metrics
    } else {
        end_to_end_metrics(&plain, eval_fail_frac)
    };
    if let Err(e) = ledger.save() {
        checks.push(fail("exact-counter ledger written".into(), e.to_string()));
    }
    Report {
        workload,
        seed: request.seed,
        trace: request.trace,
        host,
        attempted,
        failed,
        metrics,
        checks,
        eval_fail_frac,
        ungated: if request.trace {
            Vec::new()
        } else {
            ungated_metrics(&plain)
        },
    }
}

fn fail(name: String, detail: String) -> Check {
    Check {
        name,
        ok: false,
        detail,
    }
}

fn check(checks: &mut Vec<Check>, name: &str, ok: bool, detail: impl FnOnce() -> String) {
    checks.push(Check {
        name: name.to_string(),
        ok,
        detail: if ok { String::new() } else { detail() },
    });
}

fn ledger_check(ledger: &mut Ledger, key: &str, value: &str, checks: &mut Vec<Check>) {
    let previous = ledger.check(key, value);
    check(
        checks,
        &format!("{key} repeats across runs"),
        previous.is_none(),
        || format!("now {value}, earlier {}", previous.unwrap_or_default()),
    );
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".into())
}

/// Front validity, determinism within the run and across runs, and the
/// workload's own invariants.
fn check_studies(
    size: &Size,
    studies: &[&StudyOutcome],
    ledger: &mut Ledger,
    checks: &mut Vec<Check>,
) {
    let mut every = |name: &str, holds: &dyn Fn(&StudyOutcome) -> bool| {
        let broken: Vec<String> = (1..)
            .zip(studies)
            .filter(|(_, study)| !holds(study))
            .map(|(i, _)| i.to_string())
            .collect();
        check(
            checks,
            &format!("every study: {name}"),
            broken.is_empty(),
            || format!("broken in studies {}", broken.join(", ")),
        );
    };
    every("front is non-empty", &|s| !s.front.is_empty());
    every("front is finite", &|s| {
        s.front.iter().all(|m| {
            m.violation.is_finite()
                && m.objectives
                    .iter()
                    .chain(&m.variables)
                    .all(|v| v.is_finite())
        })
    });
    every("front is mutually non-dominated", &|s| {
        s.front.iter().all(|x| {
            !s.front
                .iter()
                .any(|y| pathway_moo::constrained_dominates(y, x))
        })
    });
    every("front hypervolume is positive", &|s| {
        s.front_hv.is_finite() && s.front_hv > 0.0
    });
    every("ran every generation", &|s| {
        s.generations.len() == size.generations
    });
    if size.resume_at.is_some() {
        every("resumed from its own checkpoint file", &|s| {
            s.resume_ms.is_some()
        });
    }
    let mut keys: Vec<&str> = studies.iter().map(|s| s.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let group: Vec<&&StudyOutcome> = studies.iter().filter(|s| s.key == key).collect();
        let first = group[0];
        let same = group.iter().all(|s| {
            s.front_text == first.front_text
                && s.attempted == first.attempted
                && s.failed == first.failed
        });
        check(
            checks,
            &format!("{key}: studies of one seed give byte-identical fronts and equal counts"),
            same,
            || "a study diverged (traced and untraced studies must agree too)".into(),
        );
        ledger_check(
            ledger,
            &format!("{key}/front"),
            &ledger::digest(first.front_text.as_bytes()),
            checks,
        );
        ledger_check(
            ledger,
            &format!("{key}/evaluations"),
            &format!("{}/{}", first.failed, first.attempted),
            checks,
        );
    }
}

/// A metric; a value that could not be measured (a run whose studies all
/// failed, a layer the workload bypasses) reads 0.
fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        samples,
    }
}

/// Every generation's time on one clock, in milliseconds.
fn generation_ms(studies: &[StudyOutcome], clock: &Clock) -> Vec<f64> {
    studies
        .iter()
        .flat_map(|s| s.generations.iter().map(|g| clock(s, g) * 1e3))
        .collect()
}

/// Reads one interval of a study in seconds: wall, raw CPU, or CPU
/// calibrated to the host's nominal speed.
type Clock = dyn Fn(&StudyOutcome, &Span) -> f64;

fn wall(_: &StudyOutcome, span: &Span) -> f64 {
    span.wall
}

fn calibrated_cpu(study: &StudyOutcome, span: &Span) -> f64 {
    span.cpu / study.slowdown
}

/// Set-up, total, throughput, median and 90th-percentile generation
/// figures on one clock, as `(value, samples)`: medians over studies,
/// percentiles over generations.
fn timing(studies: &[StudyOutcome], clock: &Clock) -> [(f64, usize); 5] {
    let n = studies.len();
    let setup: Vec<f64> = studies.iter().map(|s| clock(s, &s.setup)).collect();
    let total: Vec<f64> = studies.iter().map(|s| clock(s, &s.total)).collect();
    let rate: Vec<f64> = studies
        .iter()
        .map(|s| s.attempted as f64 / clock(s, &s.search))
        .collect();
    let gens = generation_ms(studies, clock);
    [
        (stats::median(&setup), n),
        (stats::median(&total), n),
        (stats::median(&rate), n),
        (stats::median(&gens), gens.len()),
        (stats::quantile(&gens, 0.9), gens.len()),
    ]
}

fn named(names: &[(&'static str, &'static str)], values: &[(f64, usize)]) -> Vec<Metric> {
    names
        .iter()
        .zip(values)
        .map(|(&(name, unit), &(value, samples))| metric(name, unit, value, samples))
        .collect()
}

fn ungated_metrics(studies: &[StudyOutcome]) -> Vec<Metric> {
    let mut values = timing(studies, &wall).to_vec();
    values.push(timing(studies, &calibrated_cpu)[4]);
    named(&UNGATED, &values)
}

fn end_to_end_metrics(studies: &[StudyOutcome], eval_fail_frac: f64) -> Vec<Metric> {
    let n = studies.len();
    let reference = studies
        .first()
        .map(|s| s.reference.clone())
        .unwrap_or_default();
    let merged: Vec<Vec<f64>> = studies
        .iter()
        .flat_map(|s| s.front.iter().map(|m| m.objectives.clone()))
        .collect();
    let merged_hv = if merged.is_empty() {
        f64::NAN
    } else {
        pathway_moo::metrics::hypervolume(&merged, &reference)
    };
    let mut values = timing(studies, &calibrated_cpu)[..4].to_vec();
    values.extend([
        (merged_hv, n),
        (1.0 - eval_fail_frac, n),
        (host::peak_rss_mb(), 1),
    ]);
    named(&END_TO_END, &values)
}

/// The kernel probes a traced run makes: the ODE, LU, right-hand-side and
/// CSR kernels are cheap and run on every workload; the two simplex solves
/// cost as much as `geobacter-608`'s set-up and run on that workload only.
fn run_probes(workload: Workload, size: &Size, checks: &mut Vec<Check>) -> ProbeReport {
    let mut report = ProbeReport::default();
    let reactions = if size.reactions > 0 {
        size.reactions
    } else {
        608
    };
    let model = probe::geobacter_model(reactions);
    let results = [
        ("ode probe", probe::ode(&mut report)),
        ("lu probe", probe::lu(&mut report)),
        (
            "violation-batch probe",
            probe::violation_batch(&mut report, &model),
        ),
        (
            "simplex probe",
            if workload == Workload::Geobacter608 {
                probe::fba_solves(&mut report, &model)
            } else {
                Ok(())
            },
        ),
    ];
    probe::rhs(&mut report);
    for (name, result) in results {
        check(checks, name, result.is_ok(), || {
            result.err().unwrap_or_default()
        });
    }
    check(
        checks,
        "probe counts repeat within the run",
        report.unstable.is_empty(),
        || report.unstable.join(", "),
    );
    report
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn layer_metrics(
    plain: &[StudyOutcome],
    traced: &[StudyOutcome],
    probes: &ProbeReport,
    eval_fail_frac: f64,
    checks: &mut Vec<Check>,
) -> Vec<Metric> {
    let layers: Vec<(&StudyOutcome, &Layers)> = traced
        .iter()
        .filter_map(|s| s.layers.as_ref().map(|l| (s, l)))
        .collect();
    let n = layers.len();
    let per_layer =
        |f: &dyn Fn(&StudyOutcome, &Layers) -> f64| mean(layers.iter().map(|(s, l)| f(s, l)));
    let phase = |name: &'static str| per_layer(&|_, l| l.phase(name));
    let counter = |name: &str| layers.first().map_or(0.0, |(_, l)| l.counter(name) as f64);
    let coverage =
        |s: &StudyOutcome, l: &Layers| l.coverage(mean(s.generations.iter().map(|g| g.wall * 1e3)));
    let unbalanced: Vec<String> = layers
        .iter()
        .map(|&(s, l)| coverage(s, l))
        .filter(|&(parallel, serial)| {
            parallel > 1.0 + COVERAGE_TOLERANCE || serial < 1.0 - COVERAGE_TOLERANCE
        })
        .map(|(parallel, serial)| format!("{parallel:.3} in parallel, {serial:.3} in series"))
        .collect();
    check(checks, BALANCE_CHECK, unbalanced.is_empty(), || {
        format!(
            "self times over step wall time: {}; tolerance ±{COVERAGE_TOLERANCE}",
            unbalanced.join("; ")
        )
    });
    let warm = counter("oracle.ode.warm_starts");
    let cold = counter("oracle.ode.cold_starts");
    let eval_us: Vec<f64> = layers.iter().flat_map(|(_, l)| l.eval_us.clone()).collect();
    let saves: Vec<f64> = traced.iter().flat_map(|s| s.save_ms.clone()).collect();
    let bytes: Vec<f64> = traced
        .iter()
        .flat_map(|s| s.checkpoint_bytes.iter().map(|&b| b as f64))
        .collect();
    let total = |studies: &[StudyOutcome]| {
        let totals: Vec<f64> = studies
            .iter()
            .map(|s| calibrated_cpu(s, &s.total))
            .collect();
        stats::median(&totals)
    };
    let (traced_total, plain_total) = (total(traced), total(plain));
    let time = |name: &str| probes.times.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| probes.counts.get(name).copied().unwrap_or(0) as f64;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = match name {
                "moo.engine.variation_ms" => (phase("variation"), n),
                "moo.engine.selection_ms" => (phase("selection"), n),
                "moo.engine.migration_ms" => (phase("migration"), n),
                "moo.engine.telemetry_ms" => (phase("telemetry"), n),
                "moo.engine.generation_ms" => (phase("generation"), n),
                "moo.engine.phase_coverage" => (per_layer(&|s, l| coverage(s, l).0), n),
                "moo.engine.island_overlap" => (per_layer(&|_, l| l.island_overlap()), n),
                "moo.engine.generations" => (per_layer(&|_, l| l.generations as f64), n),
                "moo.exec.eval_wall_ms" => (phase("eval"), n),
                "moo.exec.oracle_busy_ms" => (per_layer(&|_, l| l.oracle_busy_ms), n),
                "moo.exec.lane_util" => (per_layer(&|_, l| l.lane_util()), n),
                "moo.exec.steals" => (counter("exec.steal_count"), n),
                "moo.exec.idle_lane_turns" => (counter("exec.idle_lane_turns"), n),
                "moo.exec.queue_wait_us_p50" => (per_layer(&|_, l| l.queue_wait_us_p50), n),
                "core.oracle.eval_us_p50" => (stats::median(&eval_us), eval_us.len()),
                "core.oracle.eval_us_p98" => (stats::quantile(&eval_us, 0.98), eval_us.len()),
                "core.oracle.prepare_ms" => (phase("prepare_batch"), n),
                "core.oracle.attempted" => {
                    (layers.first().map_or(0.0, |(s, _)| s.attempted as f64), n)
                }
                "core.oracle.failed" => (layers.first().map_or(0.0, |(s, _)| s.failed as f64), n),
                "core.ode_leaf.warm_start_ratio" => (
                    if warm + cold > 0.0 {
                        warm / (warm + cold)
                    } else {
                        0.0
                    },
                    n,
                ),
                "moo.store.save_ms_p50" => (
                    if saves.is_empty() {
                        0.0
                    } else {
                        stats::median(&saves)
                    },
                    saves.len(),
                ),
                "moo.store.bytes_per_checkpoint" => (mean(bytes.iter().copied()), bytes.len()),
                "moo.store.resume_ms" => {
                    let resumes: Vec<f64> = traced.iter().filter_map(|s| s.resume_ms).collect();
                    (mean(resumes.iter().copied()), resumes.len())
                }
                "trace_overhead_frac" => {
                    (traced_total / plain_total - 1.0, traced.len() + plain.len())
                }
                "eval_fail_frac" => (eval_fail_frac, n),
                _ if unit == "count" => (count(name), 1),
                _ => (time(name), 1),
            };
            metric(name, unit, value, samples)
        })
        .collect()
}

/// The state directory a run from the root of a checkout uses: next to
/// the build, so nothing outside the checkout is touched.
pub fn default_state_dir() -> PathBuf {
    Path::new(".bench_build").join("perfbench")
}

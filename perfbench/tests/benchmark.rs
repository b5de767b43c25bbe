//! The benchmark's own checks, at reduced size: every metric is printed
//! with its unit, exact counters repeat, a resumed study equals an
//! uninterrupted one, and the pooled front equals the serial one.

use std::path::PathBuf;

use pathway_core::jsonlite::JsonValue;
use pathway_perfbench::bench::{self, Request, BALANCE_CHECK, END_TO_END, PER_LAYER};
use pathway_perfbench::probe::{self, ProbeReport};
use pathway_perfbench::study::run_study;
use pathway_perfbench::workload::{Size, Workload};

/// A study small enough for a debug-build test.
fn small(workload: Workload) -> Size {
    let mut size = workload.full_size();
    size.population = 12;
    size.generations = 6;
    size.trajectories = 2;
    match workload {
        Workload::LeafOde => size.population = 8,
        Workload::Geobacter608 => {
            size.reactions = 64;
            size.checkpoint_every = 3;
        }
        Workload::LeafAnalytic => {
            size.checkpoint_every = 2;
            size.resume_at = Some(4);
        }
    }
    size
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request(workload: Workload, trace: bool, state_dir: PathBuf) -> Request {
    Request {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: small(workload),
        state_dir,
    }
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key| {
                m.get(key)
                    .and_then(JsonValue::as_str)
                    .expect("field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(report: &bench::Report) -> Vec<(String, String)> {
    let line = JsonValue::parse(&report.result_line().to_compact()).expect("result line parses");
    let JsonValue::Object(metrics) = line.get("metrics").expect("metrics").clone() else {
        panic!("metrics is an object");
    };
    metrics
        .into_iter()
        .map(|(name, value)| {
            assert!(
                value.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name}"
            );
            let unit = value.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name, unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    let as_owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(as_owned(&END_TO_END), declared("end_to_end"));
    assert_eq!(as_owned(&PER_LAYER), declared("per_layer"));
    for workload in Workload::ALL {
        for trace in [false, true] {
            let dir = scratch(&format!("metrics-{}-{trace}", workload.name()));
            let report = bench::run(&request(workload, trace, dir));
            // At this size an archipelago generation lasts microseconds,
            // mostly spawning island threads, which no phase records; its
            // balance check speaks to full-size generations only.
            let exempt = |name: &str| workload != Workload::LeafOde && name == BALANCE_CHECK;
            let failed: Vec<_> = report
                .checks
                .iter()
                .filter(|c| !c.ok && !exempt(&c.name))
                .collect();
            assert!(
                report.failed == 0 && failed.is_empty(),
                "{} trace={trace}: {failed:?}",
                workload.name()
            );
            if trace && workload == Workload::LeafOde {
                assert!(report.checks.iter().any(|c| c.name == BALANCE_CHECK));
            }
            let expected = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            assert_eq!(printed(&report), as_owned(expected), "{}", workload.name());
            let document = report.document().to_compact();
            for key in ["\"host\"", "\"rustc\"", "\"load_average\"", "\"seed\":7"] {
                assert!(document.contains(key), "{key} missing from {document}");
            }
        }
    }
}

#[test]
fn exact_counters_repeat_across_probes_and_runs() {
    let model = probe::geobacter_model(64);
    let counts = || {
        let mut report = ProbeReport::default();
        probe::ode(&mut report).expect("natural leaf settles");
        probe::lu(&mut report).expect("well-conditioned");
        probe::violation_batch(&mut report, &model).expect("sized batch");
        probe::fba_solves(&mut report, &model).expect("feasible model");
        assert!(report.unstable.is_empty(), "{:?}", report.unstable);
        report.counts
    };
    assert_eq!(counts(), counts());

    // The second traced run checks every exact counter of the first one
    // through the ledger both share.
    let dir = scratch("ledger-repeat");
    for run in 1..=2 {
        let report = bench::run(&request(Workload::LeafOde, true, dir.clone()));
        let failed: Vec<_> = report.checks.iter().filter(|c| !c.ok).collect();
        assert!(report.correct(), "run {run}: {failed:?}");
        assert!(report.checks.iter().any(|c| c
            .name
            .ends_with("core.oracle.attempted repeats across runs")));
    }
}

#[test]
fn a_resumed_leaf_analytic_front_is_byte_identical_to_an_uninterrupted_run() {
    let resumed_size = small(Workload::LeafAnalytic);
    let uninterrupted_size = Size {
        resume_at: None,
        ..resumed_size.clone()
    };
    let dir = scratch("resume");
    let resumed = run_study(Workload::LeafAnalytic, 3, &resumed_size, false, &dir).unwrap();
    let plain = run_study(Workload::LeafAnalytic, 3, &uninterrupted_size, false, &dir).unwrap();
    assert!(resumed.resume_ms.is_some());
    assert!(plain.resume_ms.is_none());
    assert!(!plain.front.is_empty());
    assert_eq!(resumed.front_text, plain.front_text);
}

#[test]
fn the_pooled_front_equals_the_serial_front_on_a_small_geobacter_model() {
    let pooled_size = small(Workload::Geobacter608);
    let serial_size = Size {
        lanes: 1,
        ..pooled_size.clone()
    };
    let dir = scratch("pooled-serial");
    let pooled = run_study(Workload::Geobacter608, 5, &pooled_size, true, &dir).unwrap();
    let serial = run_study(Workload::Geobacter608, 5, &serial_size, false, &dir).unwrap();
    assert!(!serial.front.is_empty());
    assert_eq!(pooled.front_text, serial.front_text);
}

#[test]
fn a_failing_study_is_counted_and_reported_without_a_crash() {
    let mut request = request(Workload::LeafAnalytic, false, scratch("failing"));
    // Resuming before the first checkpoint was written fails.
    request.size.resume_at = Some(1);
    let report = bench::run(&request);
    assert_eq!(report.failed, 1);
    assert!(!report.correct());
    let line = report.result_line().to_compact();
    assert!(
        line.contains("\"correct\":false") && line.contains("\"failed\":1"),
        "{line}"
    );
}

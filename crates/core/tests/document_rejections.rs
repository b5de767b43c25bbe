//! The malformed-document tables of the two JSON documents the workspace
//! writes and reads back: the `pathway-profile` telemetry profile and the
//! `pathway-bench-sweep` ledger (`BENCH_sweep.json`). Each row breaks one
//! field of a valid document and names the field the rejection must point
//! at; `pathway profile-check` and `pathway ledger-check` make the same
//! rejections.

use pathway_core::jsonlite::JsonValue;
use pathway_core::obs::Profile;
use pathway_core::sweep::LedgerDocument;

/// Every problem the profile reader finds in `text`, or none.
fn profile_problems(text: &str) -> Vec<String> {
    let document = JsonValue::parse(text).unwrap_or_else(|err| panic!("not JSON: {err}: {text}"));
    Profile::from_json(&document).err().unwrap_or_default()
}

/// Every problem the ledger reader finds in `text`, or none.
fn ledger_problems(text: &str) -> Vec<String> {
    let document = JsonValue::parse(text).unwrap_or_else(|err| panic!("not JSON: {err}: {text}"));
    LedgerDocument::from_json(&document)
        .err()
        .unwrap_or_default()
}

/// A valid profile: two phases, a counter, a gauge and a histogram.
const PROFILE: &str = r#"{
  "format": "pathway-profile",
  "version": 1,
  "source": "run",
  "label": "examples/quickstart.spec",
  "generations": 4,
  "evaluations": 240,
  "wall_ms": 12,
  "phases": [
    {"name": "eval", "calls": 4, "total_us": 700},
    {"name": "generation", "calls": 4, "total_us": 1000}
  ],
  "counters": [{"name": "exec.batches", "value": 4}],
  "gauges": [{"name": "exec.lanes", "value": 2.0}],
  "histograms": [
    {"name": "exec.chunk_us", "bounds": [10.0, 100.0], "counts": [1, 1, 0], "count": 2, "sum": 55.0}
  ]
}"#;

/// A valid ledger of a two-cell grid: one cell complete, one never run.
const LEDGER: &str = r#"{
  "format": "pathway-bench-sweep",
  "version": 1,
  "sweep_hash": "0x00000000deadbeef",
  "cells_total": 2,
  "cells_complete": 1,
  "axes": [{"field": "run.seed", "values": ["1", "2"]}],
  "cells": [
    {"cell": 0, "spec_hash": "0x0123456789abcdef", "coordinates": {"run.seed": "1"},
     "problem": "schaffer", "method": "nsga2", "seed": 1, "status": "complete",
     "generations": 4, "evaluations": 48, "front_size": 9, "hypervolume": 612.5,
     "wall_ms": 3, "unix": 1754600000},
    {"cell": 1, "spec_hash": "0x0123456789abcdee", "coordinates": {"run.seed": "2"},
     "problem": "schaffer", "method": "nsga2", "seed": 2, "status": "never",
     "generations": null, "evaluations": null, "front_size": null, "hypervolume": null}
  ],
  "summary": [
    {"scenario": "schaffer", "global_front_size": 9, "reference_point": [4.4, 4.4],
     "methods": [{"method": "nsga2", "cells": 1, "front_size": 9, "hypervolume": 12.5, "coverage": 1.0}]}
  ]
}"#;

/// One malformed document: the text a valid document's `from` becomes, and
/// the field a problem must name.
struct Broken {
    from: &'static str,
    to: &'static str,
    field: &'static str,
}

const fn broken(from: &'static str, to: &'static str, field: &'static str) -> Broken {
    Broken { from, to, field }
}

/// Profiles with one field broken. A non-finite histogram bound has no
/// JSON spelling (the parser refuses `1e999`), so no row holds one.
const MALFORMED_PROFILES: [Broken; 30] = [
    // The header.
    broken(r#""pathway-profile""#, r#""pathway-ledger""#, "format"),
    broken(r#""version": 1"#, r#""version": 2"#, "version"),
    broken(r#""version": 1"#, r#""version": "1""#, "version"),
    broken(r#""source": "run""#, r#""source": "walk""#, "source"),
    broken(
        r#""label": "examples/quickstart.spec""#,
        r#""label": 7"#,
        "label",
    ),
    broken(r#""generations": 4"#, r#""generations": -4"#, "generations"),
    broken(
        r#""evaluations": 240"#,
        r#""evaluations": 2.5"#,
        "evaluations",
    ),
    broken(r#""wall_ms": 12"#, r#""wall_ms": -1"#, "wall_ms"),
    // Phase entries.
    broken(r#"{"name": "eval""#, r#"{"name": """#, "name"),
    broken(
        r#""calls": 4, "total_us": 700"#,
        r#""calls": 0, "total_us": 700"#,
        "calls",
    ),
    broken(r#""total_us": 700"#, r#""total_us": -700"#, "total_us"),
    broken(r#", "total_us": 1000"#, "", "total_us"),
    // Counter and gauge entries.
    broken(r#"{"name": "exec.batches""#, r#"{"name": """#, "name"),
    broken(r#""value": 4}"#, r#""value": -4}"#, "value"),
    broken(r#""value": 4}"#, r#""value": 4.5}"#, "value"),
    broken(r#""value": 2.0}"#, r#""value": "fast"}"#, "value"),
    broken(r#"{"name": "exec.lanes", "#, "{", "name"),
    // Histogram entries.
    broken(r#""name": "exec.chunk_us""#, r#""name": """#, "name"),
    broken(
        r#""bounds": [10.0, 100.0]"#,
        r#""bounds": [100.0, 10.0]"#,
        "bounds",
    ),
    broken(
        r#""bounds": [10.0, 100.0]"#,
        r#""bounds": [10.0, 10.0]"#,
        "bounds",
    ),
    broken(r#""bounds": [10.0, 100.0]"#, r#""bounds": 10.0"#, "bounds"),
    broken(r#""counts": [1, 1, 0]"#, r#""counts": [1, 1]"#, "counts"),
    broken(r#""counts": [1, 1, 0]"#, r#""counts": [-1, 3, 0]"#, "count"),
    broken(r#""count": 2"#, r#""count": 3"#, "count"),
    broken(r#""sum": 55.0"#, r#""sum": null"#, "sum"),
    broken(r#", "sum": 55.0"#, "", "sum"),
    // A missing section.
    broken(r#""phases""#, r#""phase_list""#, "phases"),
    broken(r#""counters""#, r#""counter_list""#, "counters"),
    broken(r#""gauges""#, r#""gauge_list""#, "gauges"),
    broken(r#""histograms""#, r#""histogram_list""#, "histograms"),
];

/// Ledgers with one field broken.
const MALFORMED_LEDGERS: [Broken; 32] = [
    // The header and the hash shape.
    broken(r#""pathway-bench-sweep""#, r#""pathway-profile""#, "format"),
    broken(r#""version": 1"#, r#""version": 0"#, "version"),
    broken(r#""0x00000000deadbeef""#, r#""0xdeadbeef""#, "sweep_hash"),
    broken(
        r#""0x00000000deadbeef""#,
        r#""0000000000deadbeef""#,
        "sweep_hash",
    ),
    broken(
        r#""0x00000000deadbeef""#,
        r#""0x00000000deadbeeg""#,
        "sweep_hash",
    ),
    // The axes.
    broken(
        r#"[{"field": "run.seed", "values": ["1", "2"]}]"#,
        "[]",
        "axes",
    ),
    broken(r#"{"field": "run.seed", "#, "{", "field"),
    broken(r#""values": ["1", "2"]"#, r#""values": []"#, "values"),
    broken(r#""values": ["1", "2"]"#, r#""values": ["1", 2]"#, "value"),
    // The cell count against the cells and the axes.
    broken(r#""cells_total": 2"#, r#""cells_total": 3"#, "cells_total"),
    broken(
        r#""values": ["1", "2"]"#,
        r#""values": ["1", "2", "3"]"#,
        "axes",
    ),
    broken(r#""cells": ["#, r#""cell_list": ["#, "cells"),
    // Each cell's identity.
    broken(r#""cell": 1,"#, r#""cell": 0,"#, "cell"),
    broken(r#""0x0123456789abcdee""#, r#""0x0123""#, "spec_hash"),
    broken(
        r#""coordinates": {"run.seed": "1"}"#,
        r#""coordinates": "run.seed=1""#,
        "coordinates",
    ),
    broken(
        r#"{"run.seed": "1"}"#,
        r#"{"run.seed": "1", "problem.name": "zdt1"}"#,
        "coordinates",
    ),
    broken(r#""status": "complete""#, r#""status": "done""#, "status"),
    // A complete cell's fields.
    broken(
        r#""generations": 4"#,
        r#""generations": 4.5"#,
        "generations",
    ),
    broken(
        r#""evaluations": 48"#,
        r#""evaluations": null"#,
        "evaluations",
    ),
    broken(
        r#""front_size": 9, "hypervolume": 612.5"#,
        r#""front_size": -9, "hypervolume": 612.5"#,
        "front_size",
    ),
    broken(r#""wall_ms": 3, "#, "", "wall_ms"),
    broken(r#""unix": 1754600000"#, r#""unix": "now""#, "unix"),
    broken(
        r#""hypervolume": 612.5"#,
        r#""hypervolume": "big""#,
        "hypervolume",
    ),
    // A cell that never ran.
    broken(
        r#""generations": null"#,
        r#""generations": 4"#,
        "generations",
    ),
    broken(
        r#""hypervolume": null"#,
        r#""hypervolume": 1.0"#,
        "hypervolume",
    ),
    broken(
        r#""cells_complete": 1"#,
        r#""cells_complete": 2"#,
        "cells_complete",
    ),
    // The summary.
    broken(
        r#""methods": [{"method": "nsga2", "cells": 1, "front_size": 9, "hypervolume": 12.5, "coverage": 1.0}]"#,
        r#""methods": []"#,
        "methods",
    ),
    broken(r#""coverage": 1.0"#, r#""coverage": 1.5"#, "coverage"),
    broken(r#""coverage": 1.0"#, r#""coverage": -0.5"#, "coverage"),
    broken(r#""coverage": 1.0"#, r#""coverage": null"#, "coverage"),
    broken(
        r#""hypervolume": 12.5"#,
        r#""hypervolume": "x""#,
        "hypervolume",
    ),
    broken(r#""summary""#, r#""scenarios""#, "summary"),
];

/// Applies each row to `valid` and asserts the reader rejects the result
/// with a problem that names the row's field.
fn assert_rejections(valid: &str, rows: &[Broken], problems: fn(&str) -> Vec<String>) {
    assert_eq!(problems(valid), Vec::<String>::new(), "the valid document");
    for row in rows {
        assert_eq!(
            valid.matches(row.from).count(),
            1,
            "{:?} is ambiguous",
            row.from
        );
        let text = valid.replacen(row.from, row.to, 1);
        let found = problems(&text);
        assert!(
            found.iter().any(|problem| problem.contains(row.field)),
            "{:?} -> {:?}: no problem names '{}': {found:?}",
            row.from,
            row.to,
            row.field
        );
    }
}

#[test]
fn malformed_profiles_are_rejected_at_their_field() {
    assert_rejections(PROFILE, &MALFORMED_PROFILES, profile_problems);
}

#[test]
fn malformed_ledgers_are_rejected_at_their_field() {
    assert_rejections(LEDGER, &MALFORMED_LEDGERS, ledger_problems);
}

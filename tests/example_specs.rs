//! The committed specs and sweeps under `examples/` are the only
//! description of the paper's studies, so every one of them (every cell of
//! a sweep included) must parse and resolve against the problem registry.

use std::path::Path;

use pathway_core::{validate_spec_against_problem, AnyProblem};
use pathway_moo::engine::{RunSpec, SweepSpec};

#[test]
fn every_committed_spec_and_sweep_cell_resolves() {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut paths: Vec<_> = std::fs::read_dir(&examples)
        .expect("the examples directory exists")
        .map(|entry| entry.expect("a readable entry").path())
        .collect();
    paths.sort();
    let (mut specs, mut sweeps) = (0, 0);
    for path in paths {
        let name = path.display().to_string();
        let cells = match path.extension().and_then(|ext| ext.to_str()) {
            Some("spec") => {
                specs += 1;
                let text = std::fs::read_to_string(&path).expect("a readable spec");
                vec![RunSpec::from_text(&text).unwrap_or_else(|err| panic!("{name}: {err}"))]
            }
            Some("sweep") => {
                sweeps += 1;
                let text = std::fs::read_to_string(&path).expect("a readable sweep");
                SweepSpec::from_text(&text)
                    .and_then(|sweep| sweep.expand())
                    .unwrap_or_else(|err| panic!("{name}: {err}"))
                    .into_iter()
                    .map(|cell| cell.spec)
                    .collect()
            }
            _ => continue,
        };
        for spec in cells {
            let problem =
                AnyProblem::from_spec(&spec.problem).unwrap_or_else(|err| panic!("{name}: {err}"));
            validate_spec_against_problem(&spec, &problem)
                .unwrap_or_else(|err| panic!("{name}: {err}"));
        }
    }
    assert!(specs >= 3, "found {specs} specs");
    assert!(sweeps >= 4, "found {sweeps} sweeps");
}

//! The committed specs and sweeps under `examples/` are the only
//! description of the paper's studies, so every one of them (every cell of
//! a sweep included) must parse and resolve against the problem registry,
//! and its canonical text must not move: a changed default would silently
//! change every study that leaves the key out, and every spec hash that
//! checkpoints and ledgers carry.

use std::path::Path;

use pathway_core::{validate_spec_against_problem, AnyProblem};
use pathway_moo::engine::{RunSpec, SweepSpec};

/// Every committed spec and every sweep cell, in file-name then cell order,
/// each with the name of its file.
fn committed_specs() -> Vec<(String, RunSpec)> {
    let examples = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut paths: Vec<_> = std::fs::read_dir(&examples)
        .expect("the examples directory exists")
        .map(|entry| entry.expect("a readable entry").path())
        .collect();
    paths.sort();
    let (mut specs, mut sweeps) = (0, 0);
    let mut all = Vec::new();
    for path in paths {
        let name = path
            .file_name()
            .expect("a file")
            .to_string_lossy()
            .into_owned();
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
        all.extend(cells.into_iter().map(|spec| (name.clone(), spec)));
    }
    assert!(specs >= 3, "found {specs} specs");
    assert!(sweeps >= 4, "found {sweeps} sweeps");
    all
}

#[test]
fn every_committed_spec_and_sweep_cell_resolves() {
    for (name, spec) in committed_specs() {
        let problem =
            AnyProblem::from_spec(&spec.problem).unwrap_or_else(|err| panic!("{name}: {err}"));
        validate_spec_against_problem(&spec, &problem)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
    }
}

/// One FNV-1a digest over the `content_hash` (the hash of the canonical
/// text) of every committed spec and sweep cell. Adding, removing or
/// editing an example moves it on purpose; moving a default, a key's
/// rendering or the key order must not, because checkpoints and ledgers
/// identify their specs by these hashes.
#[test]
fn the_canonical_text_of_every_committed_spec_is_pinned() {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for (_, spec) in committed_specs() {
        for byte in spec.content_hash().to_le_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        digest, 0xe263_696d_c1f9_0241,
        "canonical-text digest {digest:#018x}"
    );
}

//! The committed JSON documents read into their typed descriptions and
//! render back byte for byte: a field the description lost, or one it
//! renders differently, fails here.

use std::path::Path;

use pathway_core::jsonlite::JsonValue;
use pathway_core::obs::Profile;
use pathway_core::sweep::LedgerDocument;

/// The text of `relative`, a path from the workspace root.
fn committed(relative: &str) -> (String, JsonValue) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join(relative))
        .unwrap_or_else(|err| panic!("{relative}: {err}"));
    let document = JsonValue::parse(&text).unwrap_or_else(|err| panic!("{relative}: {err}"));
    (text, document)
}

#[test]
fn committed_profiles_round_trip_byte_for_byte() {
    for relative in ["BENCH_profile.json", "BENCH_profile_sweep.json"] {
        let (text, document) = committed(relative);
        let profile = Profile::from_json(&document)
            .unwrap_or_else(|problems| panic!("{relative}: {problems:?}"));
        assert_eq!(profile.to_json().to_pretty(), text, "{relative}");
    }
}

#[test]
fn committed_ledgers_round_trip_byte_for_byte() {
    for relative in ["BENCH_sweep.json", "results/table1/BENCH_sweep.json"] {
        let (text, document) = committed(relative);
        let ledger = LedgerDocument::from_json(&document)
            .unwrap_or_else(|problems| panic!("{relative}: {problems:?}"));
        assert_eq!(ledger.to_json().to_pretty(), text, "{relative}");
    }
}

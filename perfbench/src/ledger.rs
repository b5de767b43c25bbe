//! Exact counters remembered across runs of one build in one checkout.
//!
//! Work counts (ODE steps, simplex pivots, flops, failed evaluations of a
//! seed, checkpoint sizes, front digests) are deterministic, so a later run
//! of the same build must reproduce every count an earlier one recorded
//! under the same key. Keys of seed-dependent counts carry the workload and
//! seed. A change to the program may change any count, so each build keeps
//! a ledger of its own (see [`build_id`]).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use pathway_core::jsonlite::JsonValue;

/// The counters recorded so far, backed by a JSON file.
#[derive(Debug)]
pub struct Ledger {
    path: PathBuf,
    entries: BTreeMap<String, String>,
}

impl Ledger {
    /// Opens the ledger at `path` (empty when the file does not exist or
    /// does not parse: a damaged ledger only loses history).
    pub fn open(path: &Path) -> Ledger {
        let entries = std::fs::read_to_string(path)
            .ok()
            .and_then(|text| JsonValue::parse(&text).ok())
            .and_then(|doc| match doc {
                JsonValue::Object(fields) => Some(
                    fields
                        .into_iter()
                        .filter_map(|(k, v)| v.as_str().map(|v| (k, v.to_string())))
                        .collect(),
                ),
                _ => None,
            })
            .unwrap_or_default();
        Ledger {
            path: path.to_path_buf(),
            entries,
        }
    }

    /// Records `value` under `key`; returns the earlier value when it
    /// differs (the count did not repeat).
    pub fn check(&mut self, key: &str, value: &str) -> Option<String> {
        match self.entries.get(key) {
            Some(previous) if previous != value => Some(previous.clone()),
            Some(_) => None,
            None => {
                self.entries.insert(key.to_string(), value.to_string());
                None
            }
        }
    }

    /// Writes the ledger back atomically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save(&self) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let doc = JsonValue::object(
            self.entries
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::string(v))),
        );
        let tmp = self.path.with_extension("tmp");
        std::fs::write(&tmp, doc.to_pretty())?;
        std::fs::rename(&tmp, &self.path)
    }
}

/// The identity of the running build: a digest of this executable, which
/// links the benchmark and the whole program it measures.
///
/// # Errors
///
/// Propagates a failure to locate or read the executable.
pub fn build_id() -> std::io::Result<String> {
    let bytes = std::fs::read(std::env::current_exe()?)?;
    Ok(digest(&bytes))
}

/// FNV-1a digest of a byte string, for comparing fronts by content.
pub fn digest(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_must_repeat_across_reopenings() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        let path = dir.join("ledger.json");
        let mut ledger = Ledger::open(&path);
        assert_eq!(ledger.check("ode.cold.steps", "5004"), None);
        ledger.save().unwrap();
        let mut reopened = Ledger::open(&path);
        assert_eq!(reopened.check("ode.cold.steps", "5004"), None);
        assert_eq!(
            reopened.check("ode.cold.steps", "5005"),
            Some("5004".to_string())
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn the_build_id_is_stable_within_a_build() {
        let id = build_id().unwrap();
        assert_eq!(id.len(), 16);
        assert_eq!(build_id().unwrap(), id);
    }
}

//! The benchmark of the paper's three workloads: `leaf-ode`,
//! `geobacter-608` and `leaf-analytic` (see `perfbench/README.md`).
//!
//! One run repeats studies of one workload for a time budget and reports
//! either the end-to-end metrics (untraced) or the per-layer metrics
//! (traced: the program's metrics registry attached, the oracle timed, and
//! kernel probes called directly). Every run checks its own outputs.

pub mod bench;
pub mod calib;
pub mod host;
pub mod ledger;
pub mod oracle;
pub mod probe;
pub mod stats;
pub mod study;
pub mod workload;

//! Host-speed calibration: a fixed loop owned by the benchmark, timed next
//! to every study, so that the host's speed of the moment can be divided
//! out of the study's CPU times.
//!
//! The reference host's speed drifts by a third within a minute (turbo
//! frequency and vCPU time shared with other guests), far more than the
//! program changes a benchmark exists to catch. The loop is plain
//! arithmetic over a cache-resident buffer, with no call into the program,
//! so no change to the program can change what it measures.

use std::hint::black_box;

use crate::host::Stamp;
use crate::stats;

/// CPU seconds one `reference_loop_s` takes on the reference host when it
/// runs at full speed; the scale the calibrated times are expressed in.
const NOMINAL_REFERENCE_S: f64 = 0.018;

/// Loops timed at each calibration point; their median is used.
const REPEATS: usize = 3;

/// Runs the reference loop once and returns the CPU seconds it took.
fn reference_loop_s() -> f64 {
    const ROUNDS: usize = 400;
    let started = Stamp::now();
    let mut buffer = vec![0.0f64; 16 * 1024];
    let mut x = 0.5f64;
    for round in 0..ROUNDS {
        for (i, slot) in buffer.iter_mut().enumerate() {
            x = x * 0.999_999 + (i + round) as f64 * 1e-9;
            *slot = *slot * 0.5 + x / (x + 1.3);
        }
        black_box(&mut buffer);
    }
    black_box(x);
    started.span().cpu
}

/// How much slower than nominal the host runs right now: the median of a
/// few reference loops over their nominal time.
pub fn slowdown() -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| reference_loop_s()).collect();
    stats::median(&samples) / NOMINAL_REFERENCE_S
}

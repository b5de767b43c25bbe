//! Failure accounting and (when traced) per-candidate timing around a
//! workload's oracle, kept entirely on the benchmark side of the
//! [`MultiObjectiveProblem`] boundary.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pathway_moo::MultiObjectiveProblem;

/// How a traced oracle call is timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grain {
    /// Time each claimed chunk as one `evaluate_batch` call and charge each
    /// candidate the chunk's mean. Used for oracles that amortize work
    /// across a batch (the Geobacter CSR kernel, the analytic leaf model),
    /// where splitting the chunk would change what is measured.
    Chunk,
    /// Call the oracle once per candidate. Used for the ODE leaf oracle,
    /// whose batch path is a plain per-candidate loop, so per-candidate
    /// cost (warm start, cold start, never settles) stays visible.
    Candidate,
}

/// Counts of one study's oracle calls.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    busy_ns: AtomicU64,
    samples_us: Mutex<Vec<f64>>,
}

impl Tally {
    /// Candidate evaluations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Candidate evaluations that failed (see [`Counted`]).
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Summed wall time of the timed oracle calls, in milliseconds (traced
    /// studies only).
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Per-candidate oracle times in microseconds (traced studies only).
    pub fn samples_us(&self) -> Vec<f64> {
        self.samples_us.lock().expect("sample lock").clone()
    }

    fn record(&self, elapsed_ns: u64, candidates: usize) {
        self.busy_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
        let per_candidate = elapsed_ns as f64 / 1e3 / candidates.max(1) as f64;
        let mut samples = self.samples_us.lock().expect("sample lock");
        samples.extend(std::iter::repeat_n(per_candidate, candidates));
    }
}

/// A workload's problem with failure accounting.
///
/// An evaluation fails when the oracle panics (every candidate of the
/// panicking call counts), when it returns a non-finite objective or
/// violation, or — with `zero_uptake_fails` — when the first objective is
/// exactly zero, which is how the ODE leaf oracle encodes an integration
/// that never settled.
pub struct Counted<P> {
    inner: P,
    tally: Tally,
    zero_uptake_fails: bool,
    trace: Option<Grain>,
}

impl<P: MultiObjectiveProblem> Counted<P> {
    /// Wraps `inner`; `trace` selects per-call timing (or none).
    pub fn new(inner: P, zero_uptake_fails: bool, trace: Option<Grain>) -> Self {
        Counted {
            inner,
            tally: Tally::default(),
            zero_uptake_fails,
            trace,
        }
    }

    /// The wrapped problem.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The counts so far.
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    fn timed(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        let timed_call = |chunk: &[Vec<f64>]| {
            let started = Instant::now();
            let result = self.inner.evaluate_batch(chunk);
            let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.tally.record(elapsed, chunk.len());
            result
        };
        match self.trace {
            None => self.inner.evaluate_batch(xs),
            Some(Grain::Chunk) => timed_call(xs),
            Some(Grain::Candidate) => xs
                .iter()
                .flat_map(|x| timed_call(std::slice::from_ref(x)))
                .collect(),
        }
    }

    fn is_failure(&self, objectives: &[f64], violation: f64) -> bool {
        !violation.is_finite()
            || objectives.iter().any(|v| !v.is_finite())
            || (self.zero_uptake_fails && objectives.first() == Some(&0.0))
    }
}

impl<P: MultiObjectiveProblem> MultiObjectiveProblem for Counted<P> {
    fn num_variables(&self) -> usize {
        self.inner.num_variables()
    }

    fn num_objectives(&self) -> usize {
        self.inner.num_objectives()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner.bounds()
    }

    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        self.inner.evaluate(x)
    }

    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        let count = xs.len() as u64;
        self.tally.attempted.fetch_add(count, Ordering::Relaxed);
        let results = match panic::catch_unwind(AssertUnwindSafe(|| self.timed(xs))) {
            Ok(results) => results,
            Err(payload) => {
                self.tally.failed.fetch_add(count, Ordering::Relaxed);
                panic::resume_unwind(payload)
            }
        };
        let failed = results
            .iter()
            .filter(|(objectives, violation)| self.is_failure(objectives, *violation))
            .count() as u64;
        self.tally.failed.fetch_add(failed, Ordering::Relaxed);
        results
    }

    fn prepare_batch(&self, xs: &[Vec<f64>]) {
        self.inner.prepare_batch(xs);
    }

    fn constraint_violation(&self, x: &[f64]) -> f64 {
        self.inner.constraint_violation(x)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathway_moo::problems::Schaffer;

    struct Faulty;

    impl MultiObjectiveProblem for Faulty {
        fn num_variables(&self) -> usize {
            1
        }
        fn num_objectives(&self) -> usize {
            2
        }
        fn bounds(&self) -> Vec<(f64, f64)> {
            vec![(-1.0, 1.0)]
        }
        fn evaluate(&self, x: &[f64]) -> Vec<f64> {
            assert!(x[0] < 0.9, "oracle blew up");
            if x[0] < 0.0 {
                vec![f64::NAN, 1.0]
            } else {
                vec![x[0], 1.0]
            }
        }
    }

    #[test]
    fn non_finite_zero_uptake_and_panics_count_as_failures() {
        let counted = Counted::new(Faulty, true, Some(Grain::Candidate));
        counted.evaluate_batch(&[vec![-0.5], vec![0.0], vec![0.5]]);
        assert_eq!(counted.tally().attempted(), 3);
        assert_eq!(counted.tally().failed(), 2, "NaN and exact zero");
        let panicked = panic::catch_unwind(AssertUnwindSafe(|| {
            counted.evaluate_batch(&[vec![0.95], vec![0.95]])
        }));
        assert!(panicked.is_err());
        assert_eq!(counted.tally().attempted(), 5);
        assert_eq!(counted.tally().failed(), 4);
        assert_eq!(counted.tally().samples_us().len(), 3);
    }

    #[test]
    fn chunk_grain_charges_every_candidate_and_keeps_results() {
        let counted = Counted::new(Schaffer, false, Some(Grain::Chunk));
        let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
        assert_eq!(counted.evaluate_batch(&xs), Schaffer.evaluate_batch(&xs));
        assert_eq!(counted.tally().samples_us().len(), 3);
        assert_eq!(counted.tally().failed(), 0);
    }
}

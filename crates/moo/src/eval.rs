//! Evaluation backends: how a batch of candidate decision vectors is turned
//! into evaluated [`Individual`](crate::Individual)s.
//!
//! The expensive part of every study in this workspace is the objective
//! oracle — an FBA steady-state residual per candidate for the Geobacter
//! problem, an ODE steady state per candidate for the leaf model. The
//! algorithms therefore produce their whole offspring batch up front
//! (variation is RNG-driven and stays serial) and hand it to an evaluation
//! backend in one call. Because objective evaluation is a pure function of
//! the decision vector and the backend preserves batch order, every backend
//! produces **bit-identical** results for a fixed seed — `Threads(n)` only
//! changes wall-clock time, never the trajectory of the search.
//!
//! [`EvalBackend`] is the *description* (serial or `n` workers, as carried
//! by configs and run specs); [`crate::exec::Executor`] is the *runtime
//! object* — a persistent worker pool that outlives individual batches.
//! Optimizers build one executor per run from their configured backend and
//! feed it every batch, so worker threads are spawned once instead of per
//! generation.

/// Strategy used to evaluate a batch of candidate decision vectors.
///
/// The default is [`EvalBackend::Serial`]. `Threads(n)` splits each batch
/// into `n` contiguous chunks evaluated on a persistent pool of `n` worker
/// threads (one [`crate::exec::Executor`] per run), which requires nothing
/// beyond the [`MultiObjectiveProblem`](crate::MultiObjectiveProblem)'s
/// existing `Sync` bound.
///
/// # Determinism
///
/// All backends return results in batch order and never touch the caller's
/// RNG, so for a fixed seed `Serial` and `Threads(n)` produce bit-identical
/// populations for every `n`. The determinism test-suite
/// (`tests/determinism.rs`) asserts this on Schaffer, ZDT1 and the
/// Geobacter problem, for the pooled executor included.
///
/// # Example
///
/// ```
/// use pathway_moo::{exec::Executor, problems::Schaffer, EvalBackend};
///
/// let xs = vec![vec![0.0], vec![1.0], vec![2.0]];
/// let serial = Executor::new(EvalBackend::Serial).evaluate_batch(&Schaffer, &xs);
/// let threaded = Executor::new(EvalBackend::Threads(2)).evaluate_batch(&Schaffer, &xs);
/// assert_eq!(serial, threaded);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalBackend {
    /// Evaluate the batch on the calling thread, in order.
    #[default]
    Serial,
    /// Evaluate the batch on a persistent pool of this many worker threads.
    ///
    /// `Threads(0)` and `Threads(1)` are *exactly* equivalent to
    /// [`EvalBackend::Serial`]: [`crate::exec::Executor::new`]
    /// short-circuits them to the serial executor without constructing any
    /// pool — a one-worker pool could only evaluate the same chunks the
    /// calling thread evaluates anyway, so the degenerate counts buy the
    /// thread-spawn cost and nothing else.
    Threads(usize),
}

impl EvalBackend {
    /// Degree of parallelism this backend asks for on a batch of
    /// `batch_len` candidates (at least 1, at most one lane per candidate),
    /// the clamp [`Executor::map_chunks`]'s chunking honors.
    ///
    /// [`Executor::map_chunks`]: crate::exec::Executor::map_chunks
    pub fn workers(&self, batch_len: usize) -> usize {
        match *self {
            EvalBackend::Serial => 1,
            EvalBackend::Threads(n) => n.max(1).min(batch_len.max(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::problems::{BinhKorn, Schaffer};
    use crate::MultiObjectiveProblem;

    fn candidates(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![-5.0 + i as f64 * 0.37]).collect()
    }

    #[test]
    fn serial_matches_itemwise_evaluation() {
        let xs = candidates(7);
        let batch = Executor::new(EvalBackend::Serial).evaluate_batch(&Schaffer, &xs);
        for (x, (objectives, violation)) in xs.iter().zip(&batch) {
            assert_eq!(objectives, &Schaffer.evaluate(x));
            assert_eq!(*violation, Schaffer.constraint_violation(x));
        }
    }

    #[test]
    fn threads_match_serial_for_every_worker_count() {
        let xs = candidates(13);
        let serial = Executor::new(EvalBackend::Serial).evaluate_batch(&Schaffer, &xs);
        for n in [1, 2, 3, 4, 8, 32] {
            assert_eq!(
                Executor::new(EvalBackend::Threads(n)).evaluate_batch(&Schaffer, &xs),
                serial
            );
        }
    }

    #[test]
    fn constraint_violations_survive_the_threaded_path() {
        let xs: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![i as f64 * 0.6, 3.0 - i as f64 * 0.3])
            .collect();
        let serial = Executor::new(EvalBackend::Serial).evaluate_batch(&BinhKorn, &xs);
        let threaded = Executor::new(EvalBackend::Threads(3)).evaluate_batch(&BinhKorn, &xs);
        assert_eq!(serial, threaded);
        assert!(
            serial.iter().any(|(_, v)| *v > 0.0),
            "some candidate is infeasible"
        );
    }

    #[test]
    fn degenerate_worker_counts_are_clamped() {
        assert_eq!(EvalBackend::Threads(0).workers(10), 1);
        assert_eq!(EvalBackend::Threads(16).workers(3), 3);
        assert_eq!(EvalBackend::Serial.workers(10), 1);
        let empty: Vec<Vec<f64>> = Vec::new();
        assert!(Executor::new(EvalBackend::Threads(4))
            .evaluate_batch(&Schaffer, &empty)
            .is_empty());
    }

    #[test]
    fn evaluate_individuals_preserves_order_and_variables() {
        let xs = candidates(6);
        let individuals =
            Executor::new(EvalBackend::Threads(2)).evaluate_individuals(&Schaffer, xs.clone());
        assert_eq!(individuals.len(), xs.len());
        for (individual, x) in individuals.iter().zip(&xs) {
            assert_eq!(&individual.variables, x);
            assert_eq!(individual.objectives, Schaffer.evaluate(x));
        }
    }
}

/// A box-bounded multi-objective minimization problem.
///
/// All objectives are minimized; problems whose natural formulation maximizes
/// a quantity (CO₂ uptake, biomass production, electron production) expose the
/// negated value, as is conventional.
///
/// Implementations must be [`Sync`] because a pooled
/// [`crate::exec::Executor`] evaluates one batch on several threads.
///
/// # Example
///
/// ```
/// use pathway_moo::MultiObjectiveProblem;
///
/// /// Minimize (x², (x-2)²) over x ∈ [-5, 5] — the classic Schaffer problem.
/// struct MyProblem;
///
/// impl MultiObjectiveProblem for MyProblem {
///     fn num_variables(&self) -> usize { 1 }
///     fn num_objectives(&self) -> usize { 2 }
///     fn bounds(&self) -> Vec<(f64, f64)> { vec![(-5.0, 5.0)] }
///     fn evaluate(&self, x: &[f64]) -> Vec<f64> {
///         vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)]
///     }
/// }
///
/// let p = MyProblem;
/// assert_eq!(p.evaluate(&[0.0]), vec![0.0, 4.0]);
/// ```
pub trait MultiObjectiveProblem: Sync {
    /// Number of decision variables.
    fn num_variables(&self) -> usize;

    /// Number of objectives (at least 2).
    fn num_objectives(&self) -> usize;

    /// Per-variable `(lower, upper)` bounds; must have length
    /// [`MultiObjectiveProblem::num_variables`].
    fn bounds(&self) -> Vec<(f64, f64)>;

    /// Evaluates the objective vector (all objectives minimized) at `x`.
    fn evaluate(&self, x: &[f64]) -> Vec<f64>;

    /// Evaluates a batch of decision vectors, returning
    /// `(objectives, constraint_violation)` per candidate **in batch order**.
    ///
    /// The default implementation is a serial map over
    /// [`MultiObjectiveProblem::evaluate`] and
    /// [`MultiObjectiveProblem::constraint_violation`]. Problems whose oracle
    /// amortizes across candidates (shared factorizations, vectorized
    /// kernels — e.g. the Geobacter residual's one sparse matrix × matrix
    /// product over the whole batch) can override it; the
    /// [`crate::exec::Executor`]s call this entry point once per chunk, so
    /// an override speeds up the serial and the pooled path alike. Overrides
    /// must stay pure functions of each `x` (given the state frozen by
    /// [`MultiObjectiveProblem::prepare_batch`]) and preserve order,
    /// otherwise parallel runs lose bit-identity with serial runs.
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        xs.iter()
            .map(|x| (self.evaluate(x), self.constraint_violation(x)))
            .collect()
    }

    /// Hook called exactly once with the **entire** batch before any
    /// (possibly chunked, possibly parallel) evaluation of it begins.
    ///
    /// [`crate::exec::Executor::evaluate_batch`] splits a batch into
    /// per-worker chunks and calls
    /// [`MultiObjectiveProblem::evaluate_batch`] once per chunk — so an
    /// oracle that carries state across batches (the warm-started leaf
    /// model's parent pool, for instance) must commit that state *here*,
    /// where the whole batch is visible, and treat it as frozen during the
    /// chunk evaluations. That freeze is what keeps chunked (pooled) runs
    /// bit-identical to serial runs. The default is a no-op: stateless
    /// oracles need nothing.
    fn prepare_batch(&self, _xs: &[Vec<f64>]) {}

    /// Total constraint violation at `x`; `0.0` means feasible. Algorithms use
    /// constrained-domination: feasible solutions dominate infeasible ones and
    /// among infeasible solutions the less-violating one wins.
    fn constraint_violation(&self, _x: &[f64]) -> f64 {
        0.0
    }

    /// Human-readable problem name, used in reports and benches.
    fn name(&self) -> &str {
        "unnamed problem"
    }

    /// Clamps a candidate decision vector into the problem's bounds.
    fn clamp(&self, x: &mut [f64]) {
        for (value, (lower, upper)) in x.iter_mut().zip(self.bounds()) {
            *value = value.clamp(lower, upper);
        }
    }
}

impl<T: MultiObjectiveProblem + ?Sized> MultiObjectiveProblem for &T {
    fn num_variables(&self) -> usize {
        (**self).num_variables()
    }
    fn num_objectives(&self) -> usize {
        (**self).num_objectives()
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        (**self).bounds()
    }
    fn evaluate(&self, x: &[f64]) -> Vec<f64> {
        (**self).evaluate(x)
    }
    fn evaluate_batch(&self, xs: &[Vec<f64>]) -> Vec<(Vec<f64>, f64)> {
        (**self).evaluate_batch(xs)
    }
    fn prepare_batch(&self, xs: &[Vec<f64>]) {
        (**self).prepare_batch(xs);
    }
    fn constraint_violation(&self, x: &[f64]) -> f64 {
        (**self).constraint_violation(x)
    }
    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::Schaffer;

    #[test]
    fn default_constraint_violation_is_zero() {
        assert_eq!(Schaffer.constraint_violation(&[1.0]), 0.0);
    }

    #[test]
    fn clamp_respects_bounds() {
        let mut x = vec![100.0];
        Schaffer.clamp(&mut x);
        let (lower, upper) = Schaffer.bounds()[0];
        assert!(x[0] >= lower && x[0] <= upper);
    }

    #[test]
    fn default_batch_evaluation_matches_itemwise_calls() {
        let xs = vec![vec![0.0], vec![1.0], vec![-2.5]];
        let batch = Schaffer.evaluate_batch(&xs);
        assert_eq!(batch.len(), xs.len());
        for (x, (objectives, violation)) in xs.iter().zip(&batch) {
            assert_eq!(objectives, &Schaffer.evaluate(x));
            assert_eq!(*violation, Schaffer.constraint_violation(x));
        }
    }

    #[test]
    fn references_implement_the_trait() {
        fn generic<P: MultiObjectiveProblem>(p: &P) -> usize {
            p.num_objectives()
        }
        assert_eq!(generic(&&Schaffer), 2);
    }
}

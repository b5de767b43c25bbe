//! Shared code for the Criterion benches in `benches/`: performance and
//! ablation benchmarks for the building blocks (NSGA-II generations,
//! migration topologies, hypervolume, ODE steady states, FBA, robustness
//! ensembles, batch evaluation).

use pathway_moo::MultiObjectiveProblem;

/// The pre-pool strategy, kept as a measured baseline: spawns `workers`
/// scoped OS threads for this one batch, splits the batch into fixed
/// contiguous chunks (no stealing), and tears the threads down again.
///
/// `benches/batch_eval.rs` races this against a persistent
/// [`Executor`](pathway_moo::exec::Executor) pool — including a skewed-cost
/// workload where fixed chunks starve — to demonstrate why the pool
/// replaced it.
pub fn scoped_evaluate_batch<P: MultiObjectiveProblem>(
    problem: &P,
    xs: &[Vec<f64>],
    workers: usize,
) -> Vec<(Vec<f64>, f64)> {
    problem.prepare_batch(xs);
    let workers = workers.max(1).min(xs.len().max(1));
    if workers <= 1 {
        return problem.evaluate_batch(xs);
    }
    let chunk_size = xs.len().div_ceil(workers);
    let mut results: Vec<(Vec<f64>, f64)> = Vec::with_capacity(xs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = xs
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(move || problem.evaluate_batch(chunk)))
            .collect();
        for handle in handles {
            results.extend(handle.join().expect("evaluation thread must not panic"));
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathway_moo::exec::Executor;
    use pathway_moo::problems::Schaffer;
    use pathway_moo::EvalBackend;

    #[test]
    fn scoped_baseline_matches_the_pool() {
        let xs: Vec<Vec<f64>> = (0..11).map(|i| vec![-5.0 + i as f64 * 0.37]).collect();
        let pool = Executor::new(EvalBackend::Threads(3));
        assert_eq!(
            scoped_evaluate_batch(&Schaffer, &xs, 3),
            pool.evaluate_batch(&Schaffer, &xs)
        );
    }
}

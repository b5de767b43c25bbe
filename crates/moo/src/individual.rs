use rand::Rng;

/// A candidate solution: decision variables plus cached evaluation results and
/// the bookkeeping fields used by NSGA-II.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Individual {
    /// Decision variables.
    pub variables: Vec<f64>,
    /// Objective values (all minimized).
    pub objectives: Vec<f64>,
    /// Total constraint violation (`0.0` = feasible).
    pub violation: f64,
    /// Non-domination rank (0 = first front). Populated by the sorter.
    pub rank: usize,
    /// Crowding distance within its front. Populated by the crowding pass.
    pub crowding: f64,
}

/// Samples a decision vector uniformly within `bounds`, one `gen_range` draw
/// per non-degenerate variable. Population initializers sample every vector
/// up front and then evaluate the whole batch through an
/// [`crate::EvalBackend`].
pub(crate) fn sample_within<R: Rng>(bounds: &[(f64, f64)], rng: &mut R) -> Vec<f64> {
    bounds
        .iter()
        .map(|&(lower, upper)| {
            if (upper - lower).abs() < f64::EPSILON {
                lower
            } else {
                rng.gen_range(lower..=upper)
            }
        })
        .collect()
}

impl Individual {
    /// Wraps an already-evaluated candidate (rank and crowding unassigned).
    /// This is how batch evaluation results re-enter the population: every
    /// optimizer scores its candidates through
    /// [`Executor::evaluate_batch`](crate::exec::Executor::evaluate_batch).
    pub fn from_evaluated(variables: Vec<f64>, objectives: Vec<f64>, violation: f64) -> Self {
        Individual {
            variables,
            objectives,
            violation,
            rank: usize::MAX,
            crowding: 0.0,
        }
    }

    /// `true` if the individual satisfies every constraint.
    pub fn is_feasible(&self) -> bool {
        self.violation <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::problems::{BinhKorn, Schaffer};
    use crate::MultiObjectiveProblem;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A uniformly sampled individual, drawn and scored as the optimizers
    /// draw and score their initial populations.
    fn random<P: MultiObjectiveProblem>(problem: &P, rng: &mut StdRng) -> Individual {
        evaluated(problem, sample_within(&problem.bounds(), rng))
    }

    fn evaluated<P: MultiObjectiveProblem>(problem: &P, x: Vec<f64>) -> Individual {
        let mut one = Executor::serial().evaluate_individuals(problem, vec![x]);
        one.pop().expect("one candidate in, one out")
    }

    #[test]
    fn evaluated_individuals_carry_objectives_and_violation() {
        let ind = evaluated(&Schaffer, vec![1.0]);
        assert_eq!(ind.objectives, vec![1.0, 1.0]);
        assert!(ind.is_feasible());
        let infeasible = evaluated(&BinhKorn, vec![0.0, 3.0]);
        assert!(!infeasible.is_feasible());
    }

    #[test]
    fn random_individuals_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let ind = random(&Schaffer, &mut rng);
            assert!(ind.variables[0] >= -5.0 && ind.variables[0] <= 5.0);
        }
    }

    #[test]
    fn random_population_has_requested_size_and_is_varied() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop: Vec<Individual> = (0..20).map(|_| random(&Schaffer, &mut rng)).collect();
        assert_eq!(pop.len(), 20);
        let first = &pop[0].variables;
        assert!(pop.iter().any(|m| m.variables != *first));
    }

    #[test]
    fn fixed_bound_variable_is_handled() {
        struct Pinned;
        impl MultiObjectiveProblem for Pinned {
            fn num_variables(&self) -> usize {
                2
            }
            fn num_objectives(&self) -> usize {
                2
            }
            fn bounds(&self) -> Vec<(f64, f64)> {
                vec![(0.45, 0.45), (0.0, 1.0)]
            }
            fn evaluate(&self, x: &[f64]) -> Vec<f64> {
                vec![x[0], x[1]]
            }
        }
        let mut rng = StdRng::seed_from_u64(9);
        let ind = random(&Pinned, &mut rng);
        assert_eq!(ind.variables[0], 0.45);
    }
}

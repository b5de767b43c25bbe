use crate::MultiObjectiveProblem;
use rand::Rng;

/// A candidate solution: decision variables plus cached evaluation results and
/// the bookkeeping fields used by NSGA-II.
#[derive(Debug, Clone, PartialEq)]
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
    /// Evaluates a decision vector against a problem.
    pub fn from_variables<P: MultiObjectiveProblem>(problem: &P, variables: Vec<f64>) -> Self {
        let objectives = problem.evaluate(&variables);
        let violation = problem.constraint_violation(&variables);
        Individual::from_evaluated(variables, objectives, violation)
    }

    /// Wraps an already-evaluated candidate (rank and crowding unassigned).
    /// This is how batch evaluation results re-enter the population.
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

/// A population of individuals.
///
/// A thin wrapper over `Vec<Individual>` with the collection conveniences the
/// algorithms need.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Population {
    members: Vec<Individual>,
}

impl Population {
    /// Creates an empty population.
    pub fn new() -> Self {
        Population {
            members: Vec::new(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the population has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Immutable member access.
    pub fn members(&self) -> &[Individual] {
        &self.members
    }

    /// Mutable member access.
    pub fn members_mut(&mut self) -> &mut [Individual] {
        &mut self.members
    }

    /// Adds an individual.
    pub fn push(&mut self, individual: Individual) {
        self.members.push(individual);
    }

    /// Iterator over the members.
    pub fn iter(&self) -> std::slice::Iter<'_, Individual> {
        self.members.iter()
    }

    /// Consumes the population, returning its members without copying them.
    pub fn into_members(self) -> Vec<Individual> {
        self.members
    }
}

impl From<Vec<Individual>> for Population {
    fn from(members: Vec<Individual>) -> Self {
        Population { members }
    }
}

impl FromIterator<Individual> for Population {
    fn from_iter<T: IntoIterator<Item = Individual>>(iter: T) -> Self {
        Population {
            members: iter.into_iter().collect(),
        }
    }
}

impl Extend<Individual> for Population {
    fn extend<T: IntoIterator<Item = Individual>>(&mut self, iter: T) {
        self.members.extend(iter);
    }
}

impl IntoIterator for Population {
    type Item = Individual;
    type IntoIter = std::vec::IntoIter<Individual>;

    fn into_iter(self) -> Self::IntoIter {
        self.members.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::{BinhKorn, Schaffer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A uniformly sampled individual, drawn as the optimizers draw their
    /// initial populations.
    fn random<P: MultiObjectiveProblem>(problem: &P, rng: &mut StdRng) -> Individual {
        Individual::from_variables(problem, sample_within(&problem.bounds(), rng))
    }

    #[test]
    fn from_variables_caches_objectives_and_violation() {
        let ind = Individual::from_variables(&Schaffer, vec![1.0]);
        assert_eq!(ind.objectives, vec![1.0, 1.0]);
        assert!(ind.is_feasible());
        let infeasible = Individual::from_variables(&BinhKorn, vec![0.0, 3.0]);
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
        let pop: Population = (0..20).map(|_| random(&Schaffer, &mut rng)).collect();
        assert_eq!(pop.len(), 20);
        let first = &pop.members()[0].variables;
        assert!(pop.iter().any(|m| m.variables != *first));
    }

    #[test]
    fn population_collection_traits() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random(&Schaffer, &mut rng);
        let b = random(&Schaffer, &mut rng);
        let mut pop: Population = vec![a].into_iter().collect();
        pop.extend(vec![b]);
        assert_eq!(pop.len(), 2);
        let back: Vec<Individual> = pop.into_iter().collect();
        assert_eq!(back.len(), 2);
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

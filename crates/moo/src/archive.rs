use crate::{assign_crowding_distance, dominates, Individual};

/// A bounded archive of mutually non-dominated solutions.
///
/// The archive accepts candidate solutions, discards dominated ones and, when
/// it grows past its capacity, prunes the most crowded members so that the
/// retained front stays well spread. The design workflows use it to accumulate
/// Pareto-optimal enzyme partitions across PMO2 islands and restarts.
///
/// # Example
///
/// ```
/// use pathway_moo::{Individual, ParetoArchive};
///
/// let mut archive = ParetoArchive::new(10);
/// for i in 0..5 {
///     let x = i as f64;
///     archive.insert(Individual {
///         variables: vec![x],
///         objectives: vec![x, 4.0 - x],
///         violation: 0.0,
///         rank: 0,
///         crowding: 0.0,
///     });
/// }
/// assert_eq!(archive.len(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct ParetoArchive {
    capacity: usize,
    members: Vec<Individual>,
}

impl ParetoArchive {
    /// Creates an archive that holds at most `capacity` solutions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "archive capacity must be positive");
        ParetoArchive {
            capacity,
            members: Vec::new(),
        }
    }

    /// Number of stored solutions.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Stored solutions (mutually non-dominated).
    pub fn members(&self) -> &[Individual] {
        &self.members
    }

    /// Offers a candidate to the archive. Returns `true` if it was accepted
    /// (i.e. it is not dominated by any current member and is not an exact
    /// objective-space duplicate).
    pub fn insert(&mut self, candidate: Individual) -> bool {
        if candidate.violation > 0.0 {
            return false;
        }
        if self.members.iter().any(|m| {
            dominates(&m.objectives, &candidate.objectives) || m.objectives == candidate.objectives
        }) {
            return false;
        }
        self.members
            .retain(|m| !dominates(&candidate.objectives, &m.objectives));
        self.members.push(candidate);
        if self.members.len() > self.capacity {
            self.prune();
        }
        true
    }

    /// Offers every member of an iterator to the archive and returns how many
    /// were accepted.
    pub fn extend<I: IntoIterator<Item = Individual>>(&mut self, candidates: I) -> usize {
        candidates
            .into_iter()
            .filter(|c| self.insert(c.clone()))
            .count()
    }

    /// Removes the most crowded member until the archive fits its capacity.
    fn prune(&mut self) {
        while self.members.len() > self.capacity {
            let front: Vec<usize> = (0..self.members.len()).collect();
            assign_crowding_distance(&mut self.members, &front);
            let worst = self
                .members
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.crowding
                        .partial_cmp(&b.1.crowding)
                        .expect("crowding is not NaN")
                })
                .map(|(i, _)| i)
                .expect("archive is non-empty while pruning");
            self.members.remove(worst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(f1: f64, f2: f64) -> Individual {
        Individual {
            variables: vec![],
            objectives: vec![f1, f2],
            violation: 0.0,
            rank: 0,
            crowding: 0.0,
        }
    }

    #[test]
    fn dominated_candidates_are_rejected() {
        let mut archive = ParetoArchive::new(10);
        assert!(archive.insert(point(1.0, 1.0)));
        assert!(!archive.insert(point(2.0, 2.0)));
        assert_eq!(archive.len(), 1);
    }

    #[test]
    fn dominating_candidates_evict_dominated_members() {
        let mut archive = ParetoArchive::new(10);
        archive.insert(point(2.0, 2.0));
        archive.insert(point(3.0, 1.0));
        assert!(archive.insert(point(1.0, 1.0)));
        // (1,1) dominates (2,2) and (3,1) stays? No: (1,1) dominates (3,1) too.
        assert_eq!(archive.len(), 1);
        assert_eq!(archive.members()[0].objectives, vec![1.0, 1.0]);
    }

    #[test]
    fn duplicates_and_infeasible_candidates_are_rejected() {
        let mut archive = ParetoArchive::new(10);
        assert!(archive.insert(point(1.0, 2.0)));
        assert!(!archive.insert(point(1.0, 2.0)));
        let mut infeasible = point(0.0, 0.0);
        infeasible.violation = 1.0;
        assert!(!archive.insert(infeasible));
    }

    #[test]
    fn capacity_is_enforced_by_crowding_pruning() {
        let mut archive = ParetoArchive::new(5);
        for i in 0..20 {
            let x = i as f64;
            archive.insert(point(x, 19.0 - x));
        }
        assert_eq!(archive.len(), 5);
        // The extremes survive pruning because of their infinite crowding.
        let members = archive.members();
        assert!(members.iter().any(|m| m.objectives[0] == 0.0));
        assert!(members.iter().any(|m| m.objectives[0] == 19.0));
    }

    #[test]
    fn extend_counts_accepted_candidates() {
        let mut archive = ParetoArchive::new(10);
        let accepted = archive.extend(vec![point(1.0, 5.0), point(5.0, 1.0), point(6.0, 6.0)]);
        assert_eq!(accepted, 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ParetoArchive::new(0);
    }
}

use crate::{assign_crowding_distance, dominates, Individual};

/// A bounded archive of mutually non-dominated solutions.
///
/// The archive accepts candidate solutions, discards dominated ones and, when
/// it grows past its capacity, prunes the most crowded members so that the
/// retained front stays well spread. The design workflows use it to accumulate
/// Pareto-optimal enzyme partitions across PMO2 islands and restarts.
///
/// Members keep their insertion order. With two objectives and no NaN —
/// every problem the paper optimizes — members are mutually non-dominated
/// and distinct, so ascending `f1` is strictly descending `f2`, with no
/// ties. The archive keeps that one order beside the members, updated on
/// every insert and removal, and a prune reads both objectives' crowding
/// orders from it in one pass, with no sort and no allocation. Any other
/// member (three objectives, a NaN) drops the order for good, and prunes
/// then sort, as [`assign_crowding_distance`] does; both give the same
/// distances and evict the same member.
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
    /// Member positions in ascending `f1`, while every member has two
    /// objectives and no NaN; `None` once one does not.
    by_f1: Option<Vec<u32>>,
    /// Per member: its position after the last insert's evictions, or
    /// `u32::MAX` if evicted. Reused across inserts.
    moved_to: Vec<u32>,
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
            by_f1: Some(Vec::new()),
            moved_to: Vec::new(),
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

    /// Stored solutions (mutually non-dominated), in insertion order.
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
        self.evict_dominated_by(&candidate.objectives);
        let objectives = &candidate.objectives;
        if objectives.len() != 2 || objectives.iter().any(|v| v.is_nan()) {
            self.by_f1 = None;
        }
        if let Some(order) = &mut self.by_f1 {
            let members = &self.members;
            let slot =
                order.partition_point(|&p| members[p as usize].objectives[0] < objectives[0]);
            order.insert(slot, members.len() as u32);
        }
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
            .map(|candidate| self.insert(candidate))
            .filter(|&accepted| accepted)
            .count()
    }

    /// Removes the members `objectives` dominates, keeping the others in
    /// order, and renumbers the kept `f1` order.
    fn evict_dominated_by(&mut self, objectives: &[f64]) {
        self.moved_to.clear();
        let mut kept = 0u32;
        for member in &self.members {
            if dominates(objectives, &member.objectives) {
                self.moved_to.push(u32::MAX);
            } else {
                self.moved_to.push(kept);
                kept += 1;
            }
        }
        if kept as usize == self.members.len() {
            return;
        }
        let moved_to = &self.moved_to;
        let mut position = 0;
        self.members.retain(|_| {
            position += 1;
            moved_to[position - 1] != u32::MAX
        });
        if let Some(order) = &mut self.by_f1 {
            order.retain_mut(|p| {
                *p = moved_to[*p as usize];
                *p != u32::MAX
            });
        }
    }

    /// Removes the most crowded member until the archive fits its capacity.
    /// Every member's `crowding` is refreshed first, and ties go to the
    /// earliest member.
    fn prune(&mut self) {
        while self.members.len() > self.capacity {
            match &self.by_f1 {
                Some(order) => crowding_along_f1(&mut self.members, order),
                None => {
                    let front: Vec<usize> = (0..self.members.len()).collect();
                    assign_crowding_distance(&mut self.members, &front);
                }
            }
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
            if let Some(order) = &mut self.by_f1 {
                let worst = worst as u32;
                order.retain(|&p| p != worst);
                for p in order.iter_mut().filter(|p| **p > worst) {
                    *p -= 1;
                }
            }
        }
    }
}

/// Crowding distances of mutually non-dominated, distinct bi-objective
/// `members` from `by_f1`, their positions in ascending `f1`: that order
/// reversed is ascending `f2`, so each interior member's neighbours along
/// `f2` are its `f1` neighbours swapped. The same arithmetic, in the same
/// order, as [`assign_crowding_distance`] over every member.
fn crowding_along_f1(members: &mut [Individual], by_f1: &[u32]) {
    let n = by_f1.len();
    if n <= 2 {
        for member in members.iter_mut() {
            member.crowding = f64::INFINITY;
        }
        return;
    }
    let at = |members: &[Individual], w: usize| {
        let objectives = &members[by_f1[w] as usize].objectives;
        (objectives[0], objectives[1])
    };
    let (first, last) = (at(members, 0), at(members, n - 1));
    let range_f1 = (last.0 - first.0).max(f64::EPSILON);
    let range_f2 = (first.1 - last.1).max(f64::EPSILON);
    for w in 1..n - 1 {
        let (previous, next) = (at(members, w - 1), at(members, w + 1));
        let mut crowding = 0.0 + (next.0 - previous.0) / range_f1;
        if crowding.is_finite() {
            crowding += (previous.1 - next.1) / range_f2;
        }
        members[by_f1[w] as usize].crowding = crowding;
    }
    members[by_f1[0] as usize].crowding = f64::INFINITY;
    members[by_f1[n - 1] as usize].crowding = f64::INFINITY;
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

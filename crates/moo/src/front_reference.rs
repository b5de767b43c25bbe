//! Equivalence tests for the front bookkeeping: the pairwise front filters
//! and hypervolume the non-dominated mask replaced, the sort-based crowding
//! pass the sweep's order replaced, and the archive whose prunes sorted
//! every member, all kept verbatim as references; and random point clouds
//! that stress every tie the fast paths must get right.
//!
//! A cloud mixes duplicates, coordinates shared between points, `-0.0` next
//! to `0.0`, feasible and infeasible members, all-infeasible pools with tied
//! violations, NaN and infinite components (the pairwise path) and three
//! objectives. Results are compared bit for bit.

use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dominance::{constrained_dominates, dominates, nondominated_filter};
use crate::metrics::hypervolume;
use crate::{
    fast_nondominated_sort_with, Individual, Moead, MoeadSpec, Optimizer, ParetoArchive,
    SortScratch,
};
use proptest::prelude::*;

/// The pairwise filter [`nondominated_filter`] replaced.
fn pairwise_nondominated_filter(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    points
        .iter()
        .filter(|candidate| !points.iter().any(|other| dominates(other, candidate)))
        .cloned()
        .collect()
}

/// The pairwise merge `Archipelago::front` ran over its rank-0 candidates.
pub(crate) fn pairwise_archipelago_front(candidates: &[&Individual]) -> Vec<Individual> {
    let mut front: Vec<Individual> = candidates
        .iter()
        .filter(|candidate| {
            !candidates
                .iter()
                .any(|other| constrained_dominates(other, candidate))
        })
        .map(|candidate| (*candidate).clone())
        .collect();
    front.sort_by(|a, b| {
        a.objectives
            .partial_cmp(&b.objectives)
            .unwrap_or(Ordering::Equal)
    });
    front.dedup_by(|a, b| a.objectives == b.objectives);
    front
}

/// The pairwise `Moead::front`.
fn pairwise_moead_front(population: &[Individual]) -> Vec<Individual> {
    let feasible: Vec<Individual> = population
        .iter()
        .filter(|individual| individual.is_feasible())
        .cloned()
        .collect();
    let pool = if feasible.is_empty() {
        population.to_vec()
    } else {
        feasible
    };
    let objectives: Vec<Vec<f64>> = pool.iter().map(|i| i.objectives.clone()).collect();
    let front = pairwise_nondominated_filter(&objectives);
    pool.into_iter()
        .filter(|individual| front.contains(&individual.objectives))
        .collect()
}

/// The pairwise `metrics::hypervolume`.
fn pairwise_hypervolume(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    if front.is_empty() {
        return 0.0;
    }
    let nondominated: Vec<Vec<f64>> = pairwise_nondominated_filter(front)
        .into_iter()
        .filter(|p| p.iter().zip(reference).all(|(v, r)| v < r))
        .collect();
    if nondominated.is_empty() {
        return 0.0;
    }
    match reference.len() {
        2 => pairwise_hypervolume_2d(&nondominated, reference),
        _ => pairwise_hypervolume_3d(&nondominated, reference),
    }
}

fn pairwise_hypervolume_2d(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    let mut sorted = front.to_vec();
    sorted.sort_by(|a, b| a[0].partial_cmp(&b[0]).expect("objectives are not NaN"));
    let mut volume = 0.0;
    let mut previous_f2 = reference[1];
    for point in &sorted {
        let width = reference[0] - point[0];
        let height = previous_f2 - point[1];
        if width > 0.0 && height > 0.0 {
            volume += width * height;
        }
        previous_f2 = previous_f2.min(point[1]);
    }
    volume
}

fn pairwise_hypervolume_3d(front: &[Vec<f64>], reference: &[f64]) -> f64 {
    let mut levels: Vec<f64> = front.iter().map(|p| p[2]).collect();
    levels.sort_by(|a, b| a.partial_cmp(b).expect("objectives are not NaN"));
    levels.dedup();
    levels.push(reference[2]);
    let mut volume = 0.0;
    for w in 0..levels.len() - 1 {
        let z_low = levels[w];
        let thickness = levels[w + 1] - z_low;
        if thickness <= 0.0 {
            continue;
        }
        let slab: Vec<Vec<f64>> = front
            .iter()
            .filter(|p| p[2] <= z_low)
            .map(|p| vec![p[0], p[1]])
            .collect();
        if slab.is_empty() {
            continue;
        }
        let slab_front = pairwise_nondominated_filter(&slab);
        volume += pairwise_hypervolume_2d(&slab_front, &reference[..2]) * thickness;
    }
    volume
}

/// The sort-based crowding assignment `SortScratch::assign_crowding` ran on
/// every front before it read bi-objective fronts from the sweep's order.
fn reference_assign_crowding_distance(individuals: &mut [Individual], front: &[usize]) {
    let mut order = Vec::new();
    reference_assign_crowding_with_order(individuals, front, &mut order);
}

fn reference_assign_crowding_with_order(
    individuals: &mut [Individual],
    front: &[usize],
    order: &mut Vec<u32>,
) {
    if front.is_empty() {
        return;
    }
    for &i in front {
        individuals[i].crowding = 0.0;
    }
    if front.len() <= 2 {
        for &i in front {
            individuals[i].crowding = f64::INFINITY;
        }
        return;
    }
    let num_objectives = individuals[front[0]].objectives.len();
    for m in 0..num_objectives {
        order.clear();
        order.extend(0..front.len() as u32);
        order.sort_unstable_by(|&a, &b| {
            individuals[front[a as usize]].objectives[m]
                .partial_cmp(&individuals[front[b as usize]].objectives[m])
                .expect("objective values must not be NaN")
                .then_with(|| a.cmp(&b))
        });
        let first = front[order[0] as usize];
        let last = front[order[order.len() - 1] as usize];
        let min = individuals[first].objectives[m];
        let max = individuals[last].objectives[m];
        let range = (max - min).max(f64::EPSILON);

        individuals[first].crowding = f64::INFINITY;
        individuals[last].crowding = f64::INFINITY;
        for w in 1..order.len() - 1 {
            let previous = individuals[front[order[w - 1] as usize]].objectives[m];
            let next = individuals[front[order[w + 1] as usize]].objectives[m];
            let current = front[order[w] as usize];
            if individuals[current].crowding.is_finite() {
                individuals[current].crowding += (next - previous) / range;
            }
        }
    }
}

/// The `ParetoArchive` whose every prune sorted all members once per
/// objective.
struct ReferenceArchive {
    capacity: usize,
    members: Vec<Individual>,
}

impl ReferenceArchive {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "archive capacity must be positive");
        ReferenceArchive {
            capacity,
            members: Vec::new(),
        }
    }

    fn insert(&mut self, candidate: Individual) -> bool {
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

    fn extend<I: IntoIterator<Item = Individual>>(&mut self, candidates: I) -> usize {
        candidates
            .into_iter()
            .filter(|c| self.insert(c.clone()))
            .count()
    }

    fn prune(&mut self) {
        while self.members.len() > self.capacity {
            let front: Vec<usize> = (0..self.members.len()).collect();
            reference_assign_crowding_distance(&mut self.members, &front);
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

/// Ranks by the definition: peel off, again and again, the members no
/// remaining member constrained-dominates.
fn reference_ranks(individuals: &[Individual]) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; individuals.len()];
    let mut rank = 0;
    while ranks.contains(&usize::MAX) {
        let peeled: Vec<usize> = (0..individuals.len())
            .filter(|&i| {
                ranks[i] == usize::MAX
                    && !(0..individuals.len()).any(|j| {
                        ranks[j] == usize::MAX
                            && constrained_dominates(&individuals[j], &individuals[i])
                    })
            })
            .collect();
        for i in peeled {
            ranks[i] = rank;
        }
        rank += 1;
    }
    ranks
}

/// `Ok(crowding bits)` of a whole population, or `Err` if the pass panicked
/// (a NaN objective in a sorted front of three or more).
fn crowding_bits(pass: impl FnOnce() -> Vec<Individual>) -> Result<Vec<u64>, ()> {
    catch_unwind(AssertUnwindSafe(pass))
        .map(|individuals| individuals.iter().map(|i| i.crowding.to_bits()).collect())
        .map_err(|_| ())
}

/// One objective value: mostly from a small grid so coordinates are shared,
/// with signed zeros and, when `exotic`, NaN and infinities.
fn coordinate(rng: &mut StdRng, exotic: bool) -> f64 {
    match rng.gen_range(0..20u32) {
        0 => -0.0,
        1 => 0.0,
        2 if exotic => f64::NAN,
        3 if exotic => f64::INFINITY,
        4 if exotic => f64::NEG_INFINITY,
        5..=7 => rng.gen_range(-1.0..6.0),
        _ => f64::from(rng.gen_range(0..6u32)),
    }
}

/// A random cloud of 0–40 individuals with 2 (mostly) or 3 objectives.
/// Each member's variables hold its index, so tests can tell copies apart.
pub(crate) fn random_cloud(rng: &mut StdRng) -> Vec<Individual> {
    let dim = if rng.gen_range(0..4u32) == 0 { 3 } else { 2 };
    let exotic = rng.gen_range(0..4u32) == 0;
    let all_infeasible = rng.gen_range(0..5u32) == 0;
    let size = rng.gen_range(0..41usize);
    let mut cloud: Vec<Individual> = Vec::with_capacity(size);
    for index in 0..size {
        let objectives = if !cloud.is_empty() && rng.gen_range(0..5u32) == 0 {
            // An exact duplicate of an earlier member's objectives.
            cloud[rng.gen_range(0..cloud.len())].objectives.clone()
        } else {
            (0..dim).map(|_| coordinate(rng, exotic)).collect()
        };
        let violation = match rng.gen_range(0..10u32) {
            _ if all_infeasible => [0.5, 1.0, 1.0, 2.0][rng.gen_range(0..4usize)],
            0 => 1.0,
            1 => 0.5,
            2 if exotic => f64::NAN,
            3 => -0.0,
            _ => 0.0,
        };
        cloud.push(Individual {
            variables: vec![index as f64],
            objectives,
            violation,
            rank: 0,
            crowding: 0.0,
        });
    }
    cloud
}

/// Every field of an individual as bits (variables, objectives, violation,
/// rank, crowding), so NaN compares equal to itself.
type IndividualBits = (Vec<u64>, Vec<u64>, u64, usize, u64);

fn individual_bits(individual: &Individual) -> IndividualBits {
    (
        individual.variables.iter().map(|v| v.to_bits()).collect(),
        individual.objectives.iter().map(|v| v.to_bits()).collect(),
        individual.violation.to_bits(),
        individual.rank,
        individual.crowding.to_bits(),
    )
}

pub(crate) fn population_bits(individuals: &[Individual]) -> Vec<IndividualBits> {
    individuals.iter().map(individual_bits).collect()
}

fn points_bits(points: &[Vec<f64>]) -> Vec<Vec<u64>> {
    points
        .iter()
        .map(|p| p.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Clouds drawn per proptest case.
pub(crate) const CLOUDS_PER_CASE: usize = 25;

proptest! {
    #[test]
    fn prop_nondominated_filter_matches_the_pairwise_filter(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..CLOUDS_PER_CASE {
            let points: Vec<Vec<f64>> =
                random_cloud(&mut rng).into_iter().map(|i| i.objectives).collect();
            prop_assert_eq!(
                points_bits(&nondominated_filter(&points)),
                points_bits(&pairwise_nondominated_filter(&points))
            );
        }
    }

    #[test]
    fn prop_hypervolume_matches_the_pairwise_hypervolume(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..CLOUDS_PER_CASE {
            let points: Vec<Vec<f64>> =
                random_cloud(&mut rng).into_iter().map(|i| i.objectives).collect();
            let dim = points.first().map_or(2, Vec::len);
            let reference: Vec<f64> = (0..dim).map(|_| rng.gen_range(2.0..7.0)).collect();
            prop_assert_eq!(
                hypervolume(&points, &reference).to_bits(),
                pairwise_hypervolume(&points, &reference).to_bits(),
                "cloud {:?}, reference {:?}", points, reference
            );
        }
    }

    #[test]
    fn prop_sweep_ranks_match_the_definition(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = SortScratch::new();
        for _ in 0..CLOUDS_PER_CASE {
            let mut cloud = random_cloud(&mut rng);
            // The clouds the bi-objective sweep ranks. With NaN, domination
            // can be cyclic and the definition gives no ranks.
            let swept = cloud.iter().all(|i| {
                i.objectives.len() == 2
                    && !i.violation.is_nan()
                    && i.objectives.iter().all(|v| !v.is_nan())
            });
            if !swept {
                continue;
            }
            fast_nondominated_sort_with(&mut cloud, &mut scratch);
            let ranks: Vec<usize> = cloud.iter().map(|i| i.rank).collect();
            prop_assert_eq!(ranks, reference_ranks(&cloud), "cloud {:?}", cloud);
        }
    }

    #[test]
    fn prop_crowding_matches_the_sorting_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = SortScratch::new();
        for _ in 0..CLOUDS_PER_CASE {
            let mut cloud = random_cloud(&mut rng);
            fast_nondominated_sort_with(&mut cloud, &mut scratch);
            let fronts: Vec<Vec<usize>> =
                (0..scratch.num_fronts()).map(|rank| scratch.front(rank).to_vec()).collect();
            let expected = crowding_bits(|| {
                let mut individuals = cloud.clone();
                for front in &fronts {
                    reference_assign_crowding_distance(&mut individuals, front);
                }
                individuals
            });
            let actual = crowding_bits(|| {
                let mut individuals = cloud.clone();
                scratch.assign_crowding(&mut individuals);
                individuals
            });
            prop_assert_eq!(actual, expected, "cloud {:?}", cloud);
        }
    }

    #[test]
    fn prop_archive_matches_the_sorting_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..CLOUDS_PER_CASE {
            let capacity = rng.gen_range(1..9usize);
            let cloud = random_cloud(&mut rng);
            // Offer the first half one by one and the rest through `extend`,
            // recording every outcome and the members after each step.
            let split = cloud.len() / 2;
            let actual = catch_unwind(AssertUnwindSafe(|| {
                let mut archive = ParetoArchive::new(capacity);
                let mut trace = Vec::new();
                for member in &cloud[..split] {
                    let accepted = archive.insert(member.clone());
                    trace.push((accepted as usize, population_bits(archive.members())));
                }
                let accepted = archive.extend(cloud[split..].iter().cloned());
                trace.push((accepted, population_bits(archive.members())));
                trace
            }));
            let expected = catch_unwind(AssertUnwindSafe(|| {
                let mut archive = ReferenceArchive::new(capacity);
                let mut trace = Vec::new();
                for member in &cloud[..split] {
                    let accepted = archive.insert(member.clone());
                    trace.push((accepted as usize, population_bits(&archive.members)));
                }
                let accepted = archive.extend(cloud[split..].iter().cloned());
                trace.push((accepted, population_bits(&archive.members)));
                trace
            }));
            prop_assert_eq!(actual.ok(), expected.ok(), "capacity {}, cloud {:?}", capacity, cloud);
        }
    }

    #[test]
    fn prop_moead_front_matches_the_pairwise_front(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..CLOUDS_PER_CASE {
            let cloud = random_cloud(&mut rng);
            let mut moead = Moead::new(MoeadSpec::default(), seed);
            moead.set_population(cloud.clone());
            prop_assert_eq!(
                population_bits(&moead.front()),
                population_bits(&pairwise_moead_front(&cloud))
            );
        }
    }
}

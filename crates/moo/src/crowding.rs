use crate::Individual;

/// Assigns the NSGA-II crowding distance to every individual of one front.
///
/// `front` holds indices into `individuals`. Boundary solutions of each
/// objective receive an infinite distance so they are always preserved; the
/// others receive the normalized side length of the cuboid formed by their
/// nearest neighbours along each objective.
///
/// This convenience wrapper allocates a fresh index buffer per call; hot
/// paths that assign crowding every generation go through
/// [`crate::SortScratch::assign_crowding`], which reuses its buffers and
/// reads bi-objective fronts from the sort's own order.
pub fn assign_crowding_distance(individuals: &mut [Individual], front: &[usize]) {
    let mut order = Vec::new();
    assign_crowding_by_sorting(individuals, front, &mut order);
}

/// Crowding assignment over a reusable index buffer: `order` is refilled
/// from `front` and sorted once per objective, so after the first call at a
/// given front size the assignment performs no allocations.
///
/// Exact objective ties are broken by front position, which reproduces a
/// stable sort of the front order while keeping the sort allocation-free
/// (`sort_unstable_by`).
///
/// # Panics
///
/// Panics if any compared objective value is NaN.
pub(crate) fn assign_crowding_by_sorting(
    individuals: &mut [Individual],
    front: &[usize],
    order: &mut Vec<u32>,
) {
    if reset_front(individuals, front.iter().copied()) {
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
        for slot in order.iter_mut() {
            *slot = front[*slot as usize] as u32;
        }
        accumulate(individuals, order, m);
    }
}

/// Crowding assignment for one front of two objectives given in ascending
/// `(f1, f2)` order, each run of `==`-equal points in index order: the
/// order the bi-objective sweep of
/// [`crate::fast_nondominated_sort_with`] leaves behind. No sort runs.
///
/// Within one front equal `f1` implies equal `f2` (otherwise one point
/// would dominate the other), so `by_f1` is the `f1` crowding order, and
/// its runs of equal points taken back to front, each still in index order,
/// are the `f2` order. `f2_order` is refilled with the latter. The result
/// is bit-identical to [`assign_crowding_by_sorting`] over the same front.
pub(crate) fn assign_crowding_from_order(
    individuals: &mut [Individual],
    by_f1: &[u32],
    f2_order: &mut Vec<u32>,
) {
    if reset_front(individuals, by_f1.iter().map(|&i| i as usize)) {
        return;
    }
    accumulate(individuals, by_f1, 0);
    f2_order.clear();
    let f1 = |w: usize| individuals[by_f1[w] as usize].objectives[0];
    let mut end = by_f1.len();
    while end > 0 {
        let mut start = end - 1;
        while start > 0 && f1(start - 1) == f1(end - 1) {
            start -= 1;
        }
        f2_order.extend_from_slice(&by_f1[start..end]);
        end = start;
    }
    accumulate(individuals, f2_order, 1);
}

/// Zeroes the crowding of a front's members; a front of at most two members
/// is all boundary, so it gets infinite distances and `true` (nothing left
/// to accumulate).
fn reset_front(individuals: &mut [Individual], front: impl Iterator<Item = usize> + Clone) -> bool {
    let boundary_only = front.clone().nth(2).is_none();
    let distance = if boundary_only { f64::INFINITY } else { 0.0 };
    for i in front {
        individuals[i].crowding = distance;
    }
    boundary_only
}

/// Adds objective `m`'s share of the crowding distance along `sorted`, the
/// front's members in ascending order of that objective: the two ends
/// become boundary points, every other member with a finite distance so far
/// gains its neighbours' normalized gap.
fn accumulate(individuals: &mut [Individual], sorted: &[u32], m: usize) {
    let first = sorted[0] as usize;
    let last = sorted[sorted.len() - 1] as usize;
    let min = individuals[first].objectives[m];
    let max = individuals[last].objectives[m];
    let range = (max - min).max(f64::EPSILON);

    individuals[first].crowding = f64::INFINITY;
    individuals[last].crowding = f64::INFINITY;
    for w in 1..sorted.len() - 1 {
        let previous = individuals[sorted[w - 1] as usize].objectives[m];
        let next = individuals[sorted[w + 1] as usize].objectives[m];
        let current = sorted[w] as usize;
        if individuals[current].crowding.is_finite() {
            individuals[current].crowding += (next - previous) / range;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn individual(objectives: Vec<f64>) -> Individual {
        Individual {
            variables: vec![],
            objectives,
            violation: 0.0,
            rank: 0,
            crowding: 0.0,
        }
    }

    #[test]
    fn boundary_points_get_infinite_distance() {
        let mut individuals = vec![
            individual(vec![0.0, 10.0]),
            individual(vec![5.0, 5.0]),
            individual(vec![10.0, 0.0]),
        ];
        let front = vec![0, 1, 2];
        assign_crowding_distance(&mut individuals, &front);
        assert!(individuals[0].crowding.is_infinite());
        assert!(individuals[2].crowding.is_infinite());
        assert!(individuals[1].crowding.is_finite());
        assert!(individuals[1].crowding > 0.0);
    }

    #[test]
    fn crowded_points_score_lower_than_isolated_ones() {
        // Points at f1 = 0, 1, 1.1, 5, 10 on a line f2 = -f1.
        let mut individuals = vec![
            individual(vec![0.0, 0.0]),
            individual(vec![1.0, -1.0]),
            individual(vec![1.1, -1.1]),
            individual(vec![5.0, -5.0]),
            individual(vec![10.0, -10.0]),
        ];
        let front = vec![0, 1, 2, 3, 4];
        assign_crowding_distance(&mut individuals, &front);
        // Index 2 is crowded between 1 and 5; index 3 is isolated.
        assert!(individuals[3].crowding > individuals[2].crowding);
    }

    #[test]
    fn tiny_fronts_are_all_boundary() {
        let mut individuals = vec![individual(vec![1.0, 2.0]), individual(vec![2.0, 1.0])];
        assign_crowding_distance(&mut individuals, &[0, 1]);
        assert!(individuals[0].crowding.is_infinite());
        assert!(individuals[1].crowding.is_infinite());
    }

    #[test]
    fn empty_front_is_a_noop() {
        let mut individuals: Vec<Individual> = vec![];
        assign_crowding_distance(&mut individuals, &[]);
    }

    #[test]
    fn degenerate_objective_range_does_not_blow_up() {
        let mut individuals = vec![
            individual(vec![1.0, 3.0]),
            individual(vec![1.0, 2.0]),
            individual(vec![1.0, 1.0]),
        ];
        assign_crowding_distance(&mut individuals, &[0, 1, 2]);
        assert!(individuals.iter().all(|i| !i.crowding.is_nan()));
    }

    #[test]
    fn reused_buffer_matches_the_allocating_wrapper() {
        let points: Vec<Individual> = (0..12)
            .map(|i| {
                let x = i as f64 * 0.7;
                individual(vec![x.sin() + 2.0, x.cos() + 2.0])
            })
            .collect();
        let front: Vec<usize> = (0..points.len()).collect();

        let mut via_wrapper = points.clone();
        assign_crowding_distance(&mut via_wrapper, &front);

        let mut via_buffer = points;
        let mut order = Vec::new();
        assign_crowding_by_sorting(&mut via_buffer, &front, &mut order);
        // Exercise reuse: a second pass over the warm buffer changes nothing.
        assign_crowding_by_sorting(&mut via_buffer, &front, &mut order);

        for (a, b) in via_wrapper.iter().zip(&via_buffer) {
            assert_eq!(a.crowding, b.crowding);
        }
    }
}

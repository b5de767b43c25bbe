//! Pareto dominance, the non-dominated sort, and the non-dominated filter.
//!
//! Two kernels live here. [`fast_nondominated_sort_with`] ranks a whole
//! population into fronts under constrained domination. [`nondominated_mask`]
//! marks the non-dominated members of a point set under plain dominance; the
//! merged fronts of the [`Archipelago`](crate::Archipelago) and
//! [`Moead`](crate::Moead) optimizers, [`nondominated_filter`] and the
//! [`metrics`](crate::metrics) hypervolume and union front all run on it.
//!
//! With two objectives and only finite values, the mask comes from one
//! lexicographic sort (ties by index, so as a stable sort would leave them)
//! and one sweep (Kung, Luccio & Preparata 1975), `O(k log k)` for `k`
//! points, and the sweep hands back the front already in that order: a
//! caller that wants the front sorted, like the archipelago's merged front
//! or the 2-D hypervolume, sorts nothing more. Any other input — three or
//! more objectives, or a NaN or infinite component anywhere — takes the
//! pairwise `O(k²)` test, which is the definition itself and so gives the
//! same answer on inputs where the sweep's ordering arguments do not hold.
//!
//! Both sweeps sort integer keys (`order_key`) read once per point, not
//! the points themselves.

use crate::Individual;

/// Returns `true` if objective vector `a` Pareto-dominates `b`: `a` is no
/// worse in every objective and strictly better in at least one (all
/// objectives minimized).
///
/// # Panics
///
/// Panics if the two vectors have different lengths.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(
        a.len(),
        b.len(),
        "objective vectors must have the same length"
    );
    let mut strictly_better = false;
    for (&ai, &bi) in a.iter().zip(b.iter()) {
        if ai > bi {
            return false;
        }
        if ai < bi {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Constrained domination (Deb's rules): a feasible solution dominates an
/// infeasible one; between two infeasible solutions the one with the smaller
/// violation dominates; between two feasible solutions plain Pareto dominance
/// applies.
pub fn constrained_dominates(a: &Individual, b: &Individual) -> bool {
    let a_feasible = a.is_feasible();
    let b_feasible = b.is_feasible();
    match (a_feasible, b_feasible) {
        (true, false) => true,
        (false, true) => false,
        (false, false) => a.violation < b.violation,
        (true, true) => dominates(&a.objectives, &b.objectives),
    }
}

/// Reusable scratch buffers for NSGA-II's environmental selection:
/// [`fast_nondominated_sort_with`], [`SortScratch::assign_crowding`] and
/// [`SortScratch::select_survivors`].
///
/// Every buffer is flat, so after the first call at a given population size
/// the sort, the crowding pass and the survivor choice perform **no
/// allocations at all** — in particular none of the per-call
/// `Vec<Vec<usize>>` dominated-set allocations of the textbook algorithm.
/// [`Nsga2`](crate::Nsga2) carries one of these across generations.
///
/// After a sort, the fronts are read back through [`SortScratch::front`] as
/// index slices into the sorted population, best front first, each in
/// ascending index order. The bi-objective sweep also keeps every feasible
/// front in its own `(f1, f2, index)` order, which is what lets
/// [`SortScratch::assign_crowding`] skip sorting those fronts.
#[derive(Debug, Clone, Default)]
pub struct SortScratch {
    /// Per individual: how many others currently dominate it.
    domination_count: Vec<u32>,
    /// Per individual: how many others it dominates (adjacency slice length).
    out_degree: Vec<u32>,
    /// Prefix-sum start offset of each individual's adjacency slice.
    starts: Vec<u32>,
    /// Write cursors used while scattering edges into `adjacency`.
    cursor: Vec<u32>,
    /// Domination edges as flattened `(source, target)` pairs.
    edges: Vec<u32>,
    /// Flat adjacency storage: the indices each individual dominates.
    adjacency: Vec<u32>,
    /// The bi-objective sweep's order: `(f1, f2, index)` keys of the
    /// feasible members, then `(violation, 0, index)` keys of the
    /// infeasible ones, each part sorted.
    keyed: Vec<(u64, u64, u32)>,
    /// Last-inserted `f1` per front (bi-objective staircase).
    last_f1: Vec<f64>,
    /// Last-inserted `f2` per front (bi-objective staircase).
    last_f2: Vec<f64>,
    /// All population indices grouped by front, best front first.
    fronts_flat: Vec<usize>,
    /// Exclusive end offset of each front within `fronts_flat`.
    front_ends: Vec<usize>,
    /// The members of the first `sweep_fronts` fronts, laid out like
    /// `fronts_flat` but each front in the sweep's `(f1, f2, index)` order.
    by_objectives: Vec<u32>,
    /// How many leading fronts `by_objectives` covers: the feasible fronts
    /// after the bi-objective sweep, none after the general sort.
    sweep_fronts: usize,
    /// Reusable index buffer for crowding assignment: an objective's order
    /// over one front, sorted there or read from `by_objectives`.
    crowding_order: Vec<u32>,
    /// The survivors [`SortScratch::select_survivors`] chose.
    chosen: Vec<usize>,
    /// The cut front's `(descending crowding, position)` keys.
    cut: Vec<(u64, u32)>,
}

impl SortScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        SortScratch::default()
    }

    /// Number of fronts produced by the last sort.
    pub fn num_fronts(&self) -> usize {
        self.front_ends.len()
    }

    /// The indices of front `rank` (0 = best) from the last sort.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= self.num_fronts()`.
    pub fn front(&self, rank: usize) -> &[usize] {
        let start = if rank == 0 {
            0
        } else {
            self.front_ends[rank - 1]
        };
        &self.fronts_flat[start..self.front_ends[rank]]
    }

    /// Iterates the fronts of the last sort, best front first.
    fn fronts(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.num_fronts()).map(move |rank| self.front(rank))
    }

    /// Assigns crowding distances to every front of the last sort, reusing
    /// this scratch's buffers so the pass is allocation-free once they are
    /// warm.
    ///
    /// The feasible fronts of a bi-objective sweep take their objective
    /// orders from the sweep (no sort runs); infeasible fronts and every
    /// front of the general sort are sorted once per objective. Both give
    /// the same distances, bit for bit.
    ///
    /// `individuals` must be the same slice (same length and order) the last
    /// [`fast_nondominated_sort_with`] call ranked.
    pub fn assign_crowding(&mut self, individuals: &mut [Individual]) {
        let SortScratch {
            fronts_flat,
            front_ends,
            by_objectives,
            sweep_fronts,
            crowding_order,
            ..
        } = self;
        let mut start = 0usize;
        for (rank, &end) in front_ends.iter().enumerate() {
            if rank < *sweep_fronts {
                crate::crowding::assign_crowding_from_order(
                    individuals,
                    &by_objectives[start..end],
                    crowding_order,
                );
            } else {
                crate::crowding::assign_crowding_by_sorting(
                    individuals,
                    &fronts_flat[start..end],
                    crowding_order,
                );
            }
            start = end;
        }
    }

    /// The indices of `target` survivors by (rank, crowding), in survivor
    /// order: whole fronts, best first, while they fit, then the members of
    /// the front that does not fit in descending crowding, ties in front
    /// order. Every index is chosen at most once.
    ///
    /// `individuals` must be the slice the last
    /// [`fast_nondominated_sort_with`] and
    /// [`assign_crowding`](SortScratch::assign_crowding) calls saw.
    ///
    /// # Panics
    ///
    /// Panics if a crowding distance in the front that does not fit is NaN.
    pub fn select_survivors(&mut self, individuals: &[Individual], target: usize) -> &[usize] {
        let SortScratch {
            fronts_flat,
            front_ends,
            chosen,
            cut,
            ..
        } = self;
        chosen.clear();
        let mut start = 0usize;
        for &end in front_ends.iter() {
            let front = &fronts_flat[start..end];
            start = end;
            if chosen.len() + front.len() <= target {
                chosen.extend_from_slice(front);
                if chosen.len() == target {
                    break;
                }
            } else {
                cut.clear();
                cut.extend(front.iter().enumerate().map(|(position, &i)| {
                    let crowding = individuals[i].crowding;
                    assert!(!crowding.is_nan(), "crowding distances are not NaN");
                    (!order_key(crowding), position as u32)
                }));
                cut.sort_unstable();
                let missing = target - chosen.len();
                chosen.extend(cut[..missing].iter().map(|&(_, p)| front[p as usize]));
                break;
            }
        }
        chosen
    }

    fn reset(&mut self, n: usize) {
        self.domination_count.clear();
        self.domination_count.resize(n, 0);
        self.out_degree.clear();
        self.out_degree.resize(n, 0);
        self.edges.clear();
        self.fronts_flat.clear();
        self.front_ends.clear();
        self.sweep_fronts = 0;
    }

    /// Rebuilds `fronts_flat`/`front_ends` from the `rank` fields via a
    /// counting sort, so indices within each front come out ascending.
    fn fronts_from_ranks(&mut self, individuals: &[Individual], num_fronts: usize) {
        let n = individuals.len();
        self.out_degree.clear();
        self.out_degree.resize(num_fronts, 0);
        for individual in individuals {
            self.out_degree[individual.rank] += 1;
        }
        self.starts.clear();
        self.starts.push(0);
        let mut total = 0u32;
        for &count in &self.out_degree {
            total += count;
            self.starts.push(total);
        }
        self.front_ends.clear();
        self.front_ends
            .extend(self.starts[1..].iter().map(|&e| e as usize));
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.starts[..num_fronts]);
        self.fronts_flat.clear();
        self.fronts_flat.resize(n, 0);
        for (i, individual) in individuals.iter().enumerate() {
            let slot = &mut self.cursor[individual.rank];
            self.fronts_flat[*slot as usize] = i;
            *slot += 1;
        }
    }
}

/// Fast non-dominated sort (Deb et al. 2002) into reusable scratch buffers.
///
/// Assigns `rank` to every individual in place and leaves the fronts in
/// `scratch` (read them with [`SortScratch::front`], best front first). Uses constrained domination so infeasible solutions
/// sink to later fronts.
///
/// Bi-objective populations — every problem the paper optimizes — take an
/// `O(n log n)` sweep fast path; the general case runs the textbook `O(n²)`
/// algorithm over a flat adjacency buffer. Apart from buffer growth on the
/// first call at a given size, neither path allocates.
pub fn fast_nondominated_sort_with(individuals: &mut [Individual], scratch: &mut SortScratch) {
    let n = individuals.len();
    scratch.reset(n);
    if n == 0 {
        return;
    }
    // The sweep's staircase invariants assume a total order, which NaN
    // breaks (a NaN representative would stop dominating anything and hand
    // rank 0 to genuinely dominated points), so NaN objectives or
    // violations — e.g. from a diverged oracle — take the general path,
    // which handles NaN exactly like the textbook algorithm.
    if individuals.iter().all(|i| {
        i.objectives.len() == 2 && !i.violation.is_nan() && i.objectives.iter().all(|v| !v.is_nan())
    }) {
        sweep_sort_two_objectives(individuals, scratch);
    } else {
        general_sort(individuals, scratch);
    }
}

/// Bi-objective fast path: lexicographic sweep with a staircase of per-front
/// minima, `O(n log n)` instead of `O(n²)` domination checks.
fn sweep_sort_two_objectives(individuals: &mut [Individual], scratch: &mut SortScratch) {
    let n = individuals.len();
    // Feasible individuals first, by (f1, f2); infeasible after, by violation.
    // Index breaks exact ties so the permutation is canonical. Objectives
    // compare as numbers, `-0.0` equal to `0.0` as in `dominates`: a point
    // must never come after one it dominates, and `(0.0, 1.0)` dominates
    // `(-0.0, 2.0)`. Equal points then sit together in index order. The
    // keys are integers read once per member, so the sort compares plain
    // tuples instead of chasing each member's objectives.
    scratch.keyed.clear();
    scratch.keyed.extend(
        individuals
            .iter()
            .enumerate()
            .filter(|(_, individual)| individual.is_feasible())
            .map(|(i, individual)| {
                let f = &individual.objectives;
                (order_key(f[0]), order_key(f[1]), i as u32)
            }),
    );
    let num_feasible = scratch.keyed.len();
    scratch.keyed.extend(
        individuals
            .iter()
            .enumerate()
            .filter(|(_, individual)| !individual.is_feasible())
            .map(|(i, individual)| (order_key(individual.violation), 0, i as u32)),
    );
    scratch.keyed[..num_feasible].sort_unstable();
    scratch.keyed[num_feasible..].sort_unstable();

    // Staircase over the feasible prefix: each front is represented by its
    // last-inserted point, which has the minimal f2 of that front so far.
    // Processing in (f1, f2) order means a point is dominated by front k iff
    // it is dominated by that representative, and the fronts' representatives
    // are ordered, so the first non-dominating front is found by bisection.
    scratch.last_f1.clear();
    scratch.last_f2.clear();
    for &(_, _, oi) in &scratch.keyed[..num_feasible] {
        let i = oi as usize;
        let f1 = individuals[i].objectives[0];
        let f2 = individuals[i].objectives[1];
        let (mut lo, mut hi) = (0usize, scratch.last_f2.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            let (lf1, lf2) = (scratch.last_f1[mid], scratch.last_f2[mid]);
            if lf2 <= f2 && (lf1 < f1 || lf2 < f2) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        individuals[i].rank = lo;
        if lo == scratch.last_f2.len() {
            scratch.last_f1.push(f1);
            scratch.last_f2.push(f2);
        } else {
            scratch.last_f1[lo] = f1;
            scratch.last_f2[lo] = f2;
        }
    }
    let feasible_fronts = scratch.last_f2.len();

    // Under constrained domination every feasible solution dominates every
    // infeasible one and infeasible solutions are ordered by violation alone,
    // so each distinct violation value forms one front after all feasible
    // fronts.
    let mut rank = feasible_fronts;
    let mut previous_violation = f64::NAN;
    for (offset, &(_, _, oi)) in scratch.keyed[num_feasible..].iter().enumerate() {
        let i = oi as usize;
        let violation = individuals[i].violation;
        if offset > 0 && violation != previous_violation {
            rank += 1;
        }
        previous_violation = violation;
        individuals[i].rank = rank;
    }
    let total_fronts = if num_feasible == n {
        feasible_fronts
    } else {
        rank + 1
    };
    scratch.fronts_from_ranks(individuals, total_fronts);

    // Keep each feasible front in sweep order for the crowding pass: a
    // stable scatter by rank, into the offsets `fronts_from_ranks` laid out.
    scratch.cursor.clear();
    scratch
        .cursor
        .extend_from_slice(&scratch.starts[..feasible_fronts]);
    scratch.by_objectives.clear();
    scratch.by_objectives.resize(num_feasible, 0);
    for &(_, _, oi) in &scratch.keyed[..num_feasible] {
        let slot = &mut scratch.cursor[individuals[oi as usize].rank];
        scratch.by_objectives[*slot as usize] = oi;
        *slot += 1;
    }
    scratch.sweep_fronts = feasible_fronts;
}

/// An integer key that orders numbers as `partial_cmp` does, `-0.0` equal to
/// `0.0` (adding `0.0` turns `-0.0` into `0.0` and changes nothing else).
/// NaN has no place in that order; callers keep it out.
fn order_key(value: f64) -> u64 {
    let bits = (value + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// General-case sort: textbook domination counting over a flat edge list and
/// counting-sorted adjacency slices.
fn general_sort(individuals: &mut [Individual], scratch: &mut SortScratch) {
    let n = individuals.len();
    for p in 0..n {
        for q in (p + 1)..n {
            if constrained_dominates(&individuals[p], &individuals[q]) {
                scratch.edges.push(p as u32);
                scratch.edges.push(q as u32);
                scratch.out_degree[p] += 1;
                scratch.domination_count[q] += 1;
            } else if constrained_dominates(&individuals[q], &individuals[p]) {
                scratch.edges.push(q as u32);
                scratch.edges.push(p as u32);
                scratch.out_degree[q] += 1;
                scratch.domination_count[p] += 1;
            }
        }
    }

    // Prefix sums + scatter: adjacency slice of p holds everyone p dominates,
    // in ascending index order (the pair loop emits targets that way).
    scratch.starts.clear();
    scratch.starts.push(0);
    let mut total = 0u32;
    for &degree in &scratch.out_degree {
        total += degree;
        scratch.starts.push(total);
    }
    scratch.cursor.clear();
    scratch.cursor.extend_from_slice(&scratch.starts[..n]);
    scratch.adjacency.clear();
    scratch.adjacency.resize(total as usize, 0);
    for edge in scratch.edges.chunks_exact(2) {
        let (source, target) = (edge[0] as usize, edge[1]);
        let slot = &mut scratch.cursor[source];
        scratch.adjacency[*slot as usize] = target;
        *slot += 1;
    }

    // Peel fronts directly into the flat storage.
    for (p, individual) in individuals.iter_mut().enumerate() {
        if scratch.domination_count[p] == 0 {
            individual.rank = 0;
            scratch.fronts_flat.push(p);
        }
    }
    scratch.front_ends.push(scratch.fronts_flat.len());
    let mut rank = 0usize;
    let mut begin = 0usize;
    while begin < scratch.fronts_flat.len() {
        let end = scratch.fronts_flat.len();
        for idx in begin..end {
            let p = scratch.fronts_flat[idx];
            let slice_start = scratch.starts[p] as usize;
            let slice_end = slice_start + scratch.out_degree[p] as usize;
            for j in slice_start..slice_end {
                let q = scratch.adjacency[j] as usize;
                scratch.domination_count[q] -= 1;
                if scratch.domination_count[q] == 0 {
                    individuals[q].rank = rank + 1;
                    scratch.fronts_flat.push(q);
                }
            }
        }
        if scratch.fronts_flat.len() > end {
            scratch.front_ends.push(scratch.fronts_flat.len());
        }
        begin = end;
        rank += 1;
    }

    // NaN components can make constrained domination cyclic: `(1, NaN, 2)`
    // dominates `(2, 1, NaN)`, which dominates `(NaN, 2, 1)`, which
    // dominates the first. Members on or below such a cycle never reach a
    // count of 0; they form one last front, in ascending index order, so
    // every member is ranked and selection never loses one.
    if scratch.fronts_flat.len() < n {
        if scratch.fronts_flat.is_empty() {
            scratch.front_ends.clear();
        }
        let last = scratch.front_ends.len();
        for (p, individual) in individuals.iter_mut().enumerate() {
            if scratch.domination_count[p] > 0 {
                individual.rank = last;
                scratch.fronts_flat.push(p);
            }
        }
        scratch.front_ends.push(n);
    }
}

/// Fast non-dominated sort (Deb et al. 2002).
///
/// Assigns `rank` to every individual in place and returns the fronts as
/// vectors of indices, best front first. Uses constrained domination so
/// infeasible solutions sink to later fronts.
///
/// This convenience wrapper allocates a fresh [`SortScratch`] and copies the
/// fronts out; hot paths that sort every generation should carry a scratch
/// and call [`fast_nondominated_sort_with`] instead.
pub fn fast_nondominated_sort(individuals: &mut [Individual]) -> Vec<Vec<usize>> {
    let mut scratch = SortScratch::new();
    fast_nondominated_sort_with(individuals, &mut scratch);
    scratch.fronts().map(<[usize]>::to_vec).collect()
}

/// Marks the non-dominated points of a set: `mask[i]` is `true` iff no
/// point of `points` Pareto-dominates `points[i]` (plain dominance, all
/// objectives minimized). Equal points do not dominate each other, so every
/// copy of a non-dominated point is kept.
///
/// See the [module docs](self) for when the sweep runs and when the pairwise
/// test does; both return the same mask.
///
/// # Panics
///
/// Panics if points of different lengths meet in the pairwise test.
pub fn nondominated_mask<P: AsRef<[f64]>>(points: &[P]) -> Vec<bool> {
    match sorted_front_two_objectives(points) {
        Some(front) => {
            let mut mask = vec![false; points.len()];
            for i in front {
                mask[i] = true;
            }
            mask
        }
        None => points
            .iter()
            .map(|candidate| {
                !points
                    .iter()
                    .any(|other| dominates(other.as_ref(), candidate.as_ref()))
            })
            .collect(),
    }
}

/// The non-dominated points of a set of two finite objectives, as indices
/// in stable `(f1, f2)` order: the order a stable lexicographic sort of the
/// front itself would give, so callers that want the front sorted need no
/// second sort. `None` unless every point has two finite objectives.
///
/// One sort by `(f1, f2, index)` and one sweep. After the sort, only
/// earlier points can dominate a point `p`: one with a smaller `f1`
/// dominates it iff its `f2 <= p.f2`, one with the same `f1` iff its
/// `f2 < p.f2`. So `p` is dominated iff the least `f2` over all smaller `f1`
/// is `<= p.f2`, or the least `f2` of its own `f1` group is `< p.f2`. The
/// sort and the sweep compare the values' `order_key`s, which treat
/// `-0.0` and `0.0` as equal, exactly like [`dominates`].
pub(crate) fn sorted_front_two_objectives<P: AsRef<[f64]>>(points: &[P]) -> Option<Vec<usize>> {
    let two_finite = points.iter().all(|point| {
        let point = point.as_ref();
        point.len() == 2 && point.iter().all(|v| v.is_finite())
    });
    if !two_finite {
        return None;
    }
    let mut keyed: Vec<(u64, u64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, point)| {
            let point = point.as_ref();
            (order_key(point[0]), order_key(point[1]), i)
        })
        .collect();
    keyed.sort_unstable();
    let mut front = Vec::new();
    // Least f2 over every point with a strictly smaller f1; every finite
    // value's key is below `u64::MAX`.
    let mut best_f2 = u64::MAX;
    let mut group_start = 0;
    while group_start < keyed.len() {
        let (f1, group_f2, _) = keyed[group_start];
        let mut next = group_start;
        while next < keyed.len() && keyed[next].0 == f1 {
            let (_, f2, i) = keyed[next];
            if best_f2 > f2 && group_f2 >= f2 {
                front.push(i);
            }
            next += 1;
        }
        best_f2 = best_f2.min(group_f2);
        group_start = next;
    }
    Some(front)
}

/// Extracts the non-dominated subset of a set of objective vectors, in input
/// order with duplicates kept (constrained domination is not considered;
/// use this for plain fronts). Borrowed points (`P = &[f64]`) are filtered
/// without copying their values.
pub fn nondominated_filter<P: AsRef<[f64]> + Clone>(points: &[P]) -> Vec<P> {
    points
        .iter()
        .zip(nondominated_mask(points))
        .filter(|&(_, keep)| keep)
        .map(|(point, _)| point.clone())
        .collect()
}

/// The merged front of `candidates` under constrained domination (Deb's
/// rules, as in [`constrained_dominates`]), sorted by objectives
/// (lexicographic `partial_cmp`, stable) with repeated objective vectors
/// dropped after their first copy.
///
/// A feasible member dominates every infeasible one, and infeasible members
/// are compared by violation alone. So when any member is feasible this is
/// the Pareto non-dominated subset of the feasible members; otherwise it is
/// every member of least violation (a NaN violation never compares less,
/// so such members are never dominated either).
///
/// One sort runs: for two finite objectives the sweep's own, otherwise the
/// sort of the filtered members.
pub(crate) fn merged_front<'a>(candidates: &[&'a Individual]) -> Vec<&'a Individual> {
    let mut front: Vec<&Individual> = if candidates.iter().any(|c| c.is_feasible()) {
        let feasible: Vec<&Individual> = candidates
            .iter()
            .copied()
            .filter(|c| c.is_feasible())
            .collect();
        let objectives: Vec<&[f64]> = feasible.iter().map(|c| c.objectives.as_slice()).collect();
        match sorted_front_two_objectives(&objectives) {
            Some(order) => order.into_iter().map(|i| feasible[i]).collect(),
            None => {
                let mask = nondominated_mask(&objectives);
                let mut front: Vec<&Individual> = feasible
                    .into_iter()
                    .zip(mask)
                    .filter_map(|(c, keep)| keep.then_some(c))
                    .collect();
                sort_by_objectives(&mut front);
                front
            }
        }
    } else {
        let least = candidates
            .iter()
            .map(|c| c.violation)
            .fold(f64::INFINITY, f64::min);
        let mut front: Vec<&Individual> = candidates
            .iter()
            .copied()
            .filter(|c| c.violation.is_nan() || c.violation <= least)
            .collect();
        sort_by_objectives(&mut front);
        front
    };
    front.dedup_by(|a, b| a.objectives == b.objectives);
    front
}

/// Stable lexicographic sort by objectives; a NaN comparison counts as a tie.
fn sort_by_objectives(front: &mut [&Individual]) {
    front.sort_by(|a, b| {
        a.objectives
            .partial_cmp(&b.objectives)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use crate::problems::{BinhKorn, Schaffer};

    fn individual(objectives: Vec<f64>, violation: f64) -> Individual {
        Individual {
            variables: vec![],
            objectives,
            violation,
            rank: usize::MAX,
            crowding: 0.0,
        }
    }

    #[test]
    fn dominance_basic_cases() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0])); // trade-off
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0])); // equal
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn dominance_length_mismatch_panics() {
        let _ = dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn constrained_domination_prefers_feasible() {
        let feasible = individual(vec![5.0, 5.0], 0.0);
        let infeasible = individual(vec![0.0, 0.0], 1.0);
        assert!(constrained_dominates(&feasible, &infeasible));
        assert!(!constrained_dominates(&infeasible, &feasible));
        let less_violating = individual(vec![9.0, 9.0], 0.5);
        assert!(constrained_dominates(&less_violating, &infeasible));
    }

    #[test]
    fn sort_separates_fronts() {
        let mut individuals = vec![
            individual(vec![1.0, 4.0], 0.0), // front 0
            individual(vec![4.0, 1.0], 0.0), // front 0
            individual(vec![2.0, 2.0], 0.0), // front 0
            individual(vec![3.0, 5.0], 0.0), // dominated by #0 and #2
            individual(vec![5.0, 5.0], 0.0), // dominated by everything
        ];
        let fronts = fast_nondominated_sort(&mut individuals);
        assert_eq!(fronts[0].len(), 3);
        assert!(fronts.len() >= 2);
        assert_eq!(individuals[0].rank, 0);
        assert_eq!(individuals[4].rank, fronts.len() - 1);
    }

    #[test]
    fn nan_objectives_fall_back_to_the_general_path() {
        // Under the textbook `dominates` a NaN component can never make a
        // point *worse*, so (1,0) ≻ (5,NaN) ≻ (6,1): three nested fronts. A
        // naive bi-objective sweep would let the NaN point poison the
        // staircase and hand every point rank 0 instead.
        let mut individuals = vec![
            individual(vec![1.0, 0.0], 0.0),
            individual(vec![5.0, f64::NAN], 0.0),
            individual(vec![6.0, 1.0], 0.0),
        ];
        let fronts = fast_nondominated_sort(&mut individuals);
        assert_eq!(individuals[0].rank, 0);
        assert_eq!(individuals[1].rank, 1);
        assert_eq!(individuals[2].rank, 2);
        assert_eq!(fronts.len(), 3);
    }

    #[test]
    fn the_sweep_compares_signed_zeros_as_equal() {
        // (0.0, 1.0) dominates (-0.0, 2.0): the sweep must see the second
        // point first, as it would any other point with the same f1.
        let mut individuals = vec![
            individual(vec![-0.0, 2.0], 0.0),
            individual(vec![0.0, 1.0], 0.0),
            individual(vec![-0.0, 1.0], 0.0),
        ];
        let fronts = fast_nondominated_sort(&mut individuals);
        assert_eq!(fronts, vec![vec![1, 2], vec![0]]);
    }

    #[test]
    fn sort_puts_infeasible_solutions_behind_feasible_ones() {
        let mut individuals = vec![
            individual(vec![10.0, 10.0], 0.0),
            individual(vec![0.0, 0.0], 2.0),
        ];
        let fronts = fast_nondominated_sort(&mut individuals);
        assert_eq!(fronts[0], vec![0]);
        assert_eq!(fronts[1], vec![1]);
    }

    #[test]
    fn every_individual_is_assigned_to_exactly_one_front() {
        let xs = (0..40).map(|i| vec![-5.0 + (i as f64) * 0.25]).collect();
        let schaffer = Executor::serial().evaluate_individuals(&Schaffer, xs);
        // A domination cycle, which NaN components allow: each point
        // dominates the next, and the last dominates the first.
        let nan = f64::NAN;
        let cycle: Vec<Individual> = [[1.0, nan, 2.0], [2.0, 1.0, nan], [nan, 2.0, 1.0]]
            .iter()
            .map(|f| Individual::from_evaluated(Vec::new(), f.to_vec(), 0.0))
            .collect();
        for mut individuals in [schaffer, cycle] {
            let fronts = fast_nondominated_sort(&mut individuals);
            let mut listed: Vec<usize> = fronts.iter().flatten().copied().collect();
            listed.sort_unstable();
            assert_eq!(listed, (0..individuals.len()).collect::<Vec<_>>());
            assert!(fronts.iter().all(|front| !front.is_empty()));
            // Ranks are consistent with the front listing.
            for (front_rank, front) in fronts.iter().enumerate() {
                for &i in front {
                    assert_eq!(individuals[i].rank, front_rank);
                }
            }
        }
    }

    #[test]
    fn first_front_is_mutually_nondominating() {
        let xs = (0..30)
            .map(|i| vec![(i as f64) / 6.0, 3.0 - (i as f64) / 10.0])
            .collect();
        let mut individuals = Executor::serial().evaluate_individuals(&BinhKorn, xs);
        let fronts = fast_nondominated_sort(&mut individuals);
        for &a in &fronts[0] {
            for &b in &fronts[0] {
                if a != b {
                    assert!(!constrained_dominates(&individuals[a], &individuals[b]));
                }
            }
        }
    }

    #[test]
    fn scratch_crowding_matches_the_allocating_path() {
        let xs = (0..40)
            .map(|i| vec![-5.0 + (i % 13) as f64 * 0.7])
            .collect();
        let mut via_scratch = Executor::serial().evaluate_individuals(&Schaffer, xs);
        let mut via_alloc = via_scratch.clone();

        let mut scratch = SortScratch::new();
        fast_nondominated_sort_with(&mut via_scratch, &mut scratch);
        scratch.assign_crowding(&mut via_scratch);

        let fronts = fast_nondominated_sort(&mut via_alloc);
        for front in &fronts {
            crate::assign_crowding_distance(&mut via_alloc, front);
        }
        for (a, b) in via_scratch.iter().zip(&via_alloc) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.crowding, b.crowding);
        }
    }

    #[test]
    fn nondominated_filter_keeps_only_the_front() {
        let points = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![3.0, 3.0], // dominated by [2,2]
        ];
        let front = nondominated_filter(&points);
        assert_eq!(front.len(), 3);
        assert!(!front.contains(&vec![3.0, 3.0]));
    }
}

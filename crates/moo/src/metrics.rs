//! Quality indicators for Pareto fronts.
//!
//! Implements the three indicators the paper reports in Table 1:
//!
//! * the hypervolume indicator `V_p`,
//! * the global Pareto coverage `G_p` (Equation 1),
//! * the relative Pareto coverage `R_p` (Equation 2),
//!
//! plus the spacing metric used by the benches to quantify front spread.

use crate::dominance::{nondominated_filter, sorted_front_two_objectives};

/// Hypervolume enclosed between a front and a reference point, for 2- or
/// 3-objective minimization fronts.
///
/// Points that do not dominate the reference point contribute nothing.
/// Dominated points of `front` are filtered out first, so the caller may pass
/// any point cloud.
///
/// # Panics
///
/// Panics if the number of objectives is not 2 or 3, or if points have
/// inconsistent lengths.
///
/// # Example
///
/// ```
/// use pathway_moo::metrics::hypervolume;
///
/// let front = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
/// let hv = hypervolume(&front, &[4.0, 4.0]);
/// assert!((hv - 6.0).abs() < 1e-12);
/// ```
pub fn hypervolume<P: AsRef<[f64]>>(front: &[P], reference: &[f64]) -> f64 {
    if front.is_empty() {
        return 0.0;
    }
    let dim = reference.len();
    assert!(
        dim == 2 || dim == 3,
        "hypervolume supports 2 or 3 objectives, got {dim}"
    );
    for point in front {
        assert_eq!(
            point.as_ref().len(),
            dim,
            "front points must match the reference length"
        );
    }
    let points: Vec<&[f64]> = front.iter().map(AsRef::as_ref).collect();
    if dim == 2 {
        return area_2d(&front_below_2d(&points, reference), reference);
    }
    let mut nondominated = nondominated_filter(&points);
    nondominated.retain(|p| below(p, reference));
    if nondominated.is_empty() {
        return 0.0;
    }
    hypervolume_3d(&nondominated, reference)
}

/// `true` if `point` is strictly below `reference` in every objective.
fn below(point: &[f64], reference: &[f64]) -> bool {
    point.iter().zip(reference).all(|(v, r)| v < r)
}

/// The non-dominated points of a 2-D set that lie below `reference`, in
/// stable ascending `f1` order. For finite points one sort does both the
/// filter and the ordering; otherwise the pairwise filter runs first and
/// only the points below the reference (so no NaN) are sorted.
fn front_below_2d<'a>(points: &[&'a [f64]], reference: &[f64]) -> Vec<&'a [f64]> {
    match sorted_front_two_objectives(points) {
        Some(order) => order
            .into_iter()
            .map(|i| points[i])
            .filter(|p| below(p, reference))
            .collect(),
        None => {
            let mut front = nondominated_filter(points);
            front.retain(|p| below(p, reference));
            front.sort_by(|a, b| a[0].partial_cmp(&b[0]).expect("objectives are not NaN"));
            front
        }
    }
}

/// 2-D hypervolume of a non-dominated front given in ascending `f1`.
fn area_2d(front: &[&[f64]], reference: &[f64]) -> f64 {
    let mut volume = 0.0;
    let mut previous_f2 = reference[1];
    for point in front.iter() {
        let width = reference[0] - point[0];
        let height = previous_f2 - point[1];
        if width > 0.0 && height > 0.0 {
            volume += width * height;
        }
        previous_f2 = previous_f2.min(point[1]);
    }
    volume
}

/// 3-D hypervolume by slicing along the third objective.
fn hypervolume_3d(front: &[&[f64]], reference: &[f64]) -> f64 {
    // Collect distinct f3 slice boundaries.
    let mut levels: Vec<f64> = front.iter().map(|p| p[2]).collect();
    levels.sort_by(|a, b| a.partial_cmp(b).expect("objectives are not NaN"));
    levels.dedup();
    levels.push(reference[2]);

    let mut volume = 0.0;
    for w in 0..levels.len() - 1 {
        let z_low = levels[w];
        let z_high = levels[w + 1];
        let thickness = z_high - z_low;
        if thickness <= 0.0 {
            continue;
        }
        // All points with f3 <= z_low contribute to this slab.
        let slab: Vec<&[f64]> = front
            .iter()
            .filter(|p| p[2] <= z_low)
            .map(|p| &p[..2])
            .collect();
        if slab.is_empty() {
            continue;
        }
        volume += area_2d(&front_below_2d(&slab, &reference[..2]), &reference[..2]) * thickness;
    }
    volume
}

/// Union of several fronts, reduced to its non-dominated subset. This is the
/// paper's `P_A = ∪ P_i` global front.
pub fn union_front(fronts: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
    let mut all: Vec<Vec<f64>> = fronts.iter().flatten().cloned().collect();
    all.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    all.dedup();
    nondominated_filter(&all)
}

fn contains(front: &[Vec<f64>], point: &[f64]) -> bool {
    front
        .iter()
        .any(|p| p.len() == point.len() && p.iter().zip(point).all(|(a, b)| (a - b).abs() < 1e-12))
}

/// Global Pareto coverage `G_p(P_i, P_A)` (Equation 1): the fraction of the
/// global front `P_A` contributed by `P_i`.
///
/// Returns 0 when the global front is empty.
pub fn global_coverage(front: &[Vec<f64>], global_front: &[Vec<f64>]) -> f64 {
    if global_front.is_empty() {
        return 0.0;
    }
    let shared = global_front
        .iter()
        .filter(|point| contains(front, point))
        .count();
    shared as f64 / global_front.len() as f64
}

/// Relative Pareto coverage `R_p(P_i, P_A)` (Equation 2): the fraction of
/// `P_i` that is globally Pareto-optimal.
///
/// Returns 0 when `front` is empty.
pub fn relative_coverage(front: &[Vec<f64>], global_front: &[Vec<f64>]) -> f64 {
    if front.is_empty() {
        return 0.0;
    }
    let kept = front
        .iter()
        .filter(|point| contains(global_front, point))
        .count();
    kept as f64 / front.len() as f64
}

/// Schott's spacing metric: standard deviation of nearest-neighbour distances
/// along the front. Zero for a perfectly uniform spread; undefined (returns 0)
/// for fronts with fewer than 2 points.
pub fn spacing(front: &[Vec<f64>]) -> f64 {
    if front.len() < 2 {
        return 0.0;
    }
    let distances: Vec<f64> = front
        .iter()
        .map(|a| {
            front
                .iter()
                .filter(|b| !std::ptr::eq(a, *b))
                .map(|b| {
                    a.iter()
                        .zip(b.iter())
                        .map(|(x, y)| (x - y).abs())
                        .sum::<f64>()
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mean = distances.iter().sum::<f64>() / distances.len() as f64;
    let variance = distances
        .iter()
        .map(|d| (d - mean) * (d - mean))
        .sum::<f64>()
        / distances.len() as f64;
    variance.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hypervolume_of_a_single_point() {
        let hv = hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_ignores_dominated_and_outside_points() {
        let front = vec![
            vec![1.0, 1.0],
            vec![2.0, 2.0],  // dominated
            vec![10.0, 0.5], // outside the reference box in f1
        ];
        let hv = hypervolume(&front, &[3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_of_staircase_front() {
        let front = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        // Rectangles: 3x1 + 2x1 + 1x1 = 6.
        assert!((hypervolume(&front, &[4.0, 4.0]) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_front_has_zero_hypervolume() {
        assert_eq!(hypervolume::<Vec<f64>>(&[], &[1.0, 1.0]), 0.0);
        assert_eq!(hypervolume(&[vec![5.0, 5.0]], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn hypervolume_3d_of_single_point() {
        let hv = hypervolume(&[vec![0.0, 0.0, 0.0]], &[1.0, 2.0, 3.0]);
        assert!((hv - 6.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_3d_of_two_points_matches_inclusion_exclusion() {
        // Boxes [0,2]x[0,2]x[0,2] (8) and [1,2]^3 shifted... compute by hand:
        // p1 = (0,0,1): box to ref (2,2,2) is 2*2*1 = 4
        // p2 = (1,1,0): box is 1*1*2 = 2
        // overlap: (max 0..2 etc) intersection is 1*1*1 = 1 → total 5.
        let hv = hypervolume(
            &[vec![0.0, 0.0, 1.0], vec![1.0, 1.0, 0.0]],
            &[2.0, 2.0, 2.0],
        );
        assert!((hv - 5.0).abs() < 1e-9, "hv was {hv}");
    }

    #[test]
    #[should_panic(expected = "supports 2 or 3 objectives")]
    fn hypervolume_rejects_high_dimensions() {
        let _ = hypervolume(&[vec![0.0; 4]], &[1.0; 4]);
    }

    #[test]
    fn coverage_metrics_match_the_papers_definitions() {
        // Front A is globally optimal everywhere; front B is fully dominated.
        let front_a = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
        let front_b = vec![vec![2.5, 3.5], vec![3.5, 2.5]];
        let global = union_front(&[front_a.clone(), front_b.clone()]);
        assert_eq!(global.len(), 3);
        assert!((global_coverage(&front_a, &global) - 1.0).abs() < 1e-12);
        assert_eq!(global_coverage(&front_b, &global), 0.0);
        assert!((relative_coverage(&front_a, &global) - 1.0).abs() < 1e-12);
        assert_eq!(relative_coverage(&front_b, &global), 0.0);
    }

    #[test]
    fn coverage_with_partial_overlap() {
        let front_a = vec![vec![1.0, 4.0], vec![3.0, 2.0]];
        let front_b = vec![vec![2.0, 3.0], vec![4.0, 1.0]];
        let global = union_front(&[front_a.clone(), front_b.clone()]);
        assert_eq!(global.len(), 4);
        assert!((global_coverage(&front_a, &global) - 0.5).abs() < 1e-12);
        assert!((relative_coverage(&front_b, &global) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_of_empty_fronts_is_zero() {
        assert_eq!(global_coverage(&[], &[vec![1.0, 1.0]]), 0.0);
        assert_eq!(relative_coverage(&[], &[vec![1.0, 1.0]]), 0.0);
        assert_eq!(global_coverage(&[vec![1.0, 1.0]], &[]), 0.0);
    }

    #[test]
    fn spacing_is_zero_for_uniform_fronts() {
        let uniform = vec![
            vec![0.0, 3.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![3.0, 0.0],
        ];
        assert!(spacing(&uniform) < 1e-12);
        let uneven = vec![vec![0.0, 3.0], vec![0.1, 2.9], vec![3.0, 0.0]];
        assert!(spacing(&uneven) > 0.1);
        assert_eq!(spacing(&[vec![1.0, 1.0]]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_hypervolume_is_monotone_under_point_addition(
            x in 0.0f64..0.9,
            y in 0.0f64..0.9,
        ) {
            let base = vec![vec![0.5, 0.5]];
            let mut extended = base.clone();
            extended.push(vec![x, y]);
            let reference = [1.0, 1.0];
            prop_assert!(hypervolume(&extended, &reference) >= hypervolume(&base, &reference) - 1e-12);
        }

        #[test]
        fn prop_coverage_is_within_unit_interval(seed in 0u64..100) {
            let front_a: Vec<Vec<f64>> = (0..5)
                .map(|i| vec![(i as f64 + seed as f64 % 3.0), 5.0 - i as f64])
                .collect();
            let front_b: Vec<Vec<f64>> = (0..5)
                .map(|i| vec![(i as f64) + 0.5, 5.2 - i as f64])
                .collect();
            let global = union_front(&[front_a.clone(), front_b.clone()]);
            for front in [&front_a, &front_b] {
                let g = global_coverage(front, &global);
                let r = relative_coverage(front, &global);
                prop_assert!((0.0..=1.0).contains(&g));
                prop_assert!((0.0..=1.0).contains(&r));
            }
        }
    }
}

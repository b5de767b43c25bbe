//! Black-box tests for the `pathway-moo` algorithmic invariants:
//! non-dominated sort ranks on hand-built fronts, crowding-distance boundary
//! behaviour, and the hypervolume of known two-dimensional fronts.

use pathway_moo::metrics::hypervolume;
use pathway_moo::{
    assign_crowding_distance, constrained_dominates, dominates, fast_nondominated_sort, Individual,
};

fn individual(objectives: &[f64]) -> Individual {
    Individual {
        variables: Vec::new(),
        objectives: objectives.to_vec(),
        violation: 0.0,
        rank: usize::MAX,
        crowding: 0.0,
    }
}

// --------------------------------------------------- non-dominated sorting --

#[test]
fn nondominated_sort_ranks_hand_built_fronts() {
    // Three nested layers plus a duplicate objective vector on the first.
    //   rank 0: (0,3), (1,2), (3,0), (1,2)
    //   rank 1: (2,3), (3,2)
    //   rank 2: (4,4)
    let mut population = vec![
        individual(&[0.0, 3.0]), // 0 → rank 0
        individual(&[2.0, 3.0]), // 1 → rank 1
        individual(&[1.0, 2.0]), // 2 → rank 0
        individual(&[4.0, 4.0]), // 3 → rank 2
        individual(&[3.0, 0.0]), // 4 → rank 0
        individual(&[3.0, 2.0]), // 5 → rank 1
        individual(&[1.0, 2.0]), // 6 → rank 0 (duplicate of 2)
    ];
    let fronts = fast_nondominated_sort(&mut population);

    assert_eq!(fronts.len(), 3);
    let mut front0 = fronts[0].clone();
    front0.sort_unstable();
    assert_eq!(front0, vec![0, 2, 4, 6]);
    let mut front1 = fronts[1].clone();
    front1.sort_unstable();
    assert_eq!(front1, vec![1, 5]);
    assert_eq!(fronts[2], vec![3]);

    // The rank fields agree with the front partition.
    for (depth, front) in fronts.iter().enumerate() {
        for &index in front {
            assert_eq!(population[index].rank, depth);
        }
    }
}

#[test]
fn nondominated_sort_on_a_single_front_yields_one_layer() {
    // A pure trade-off curve: no point dominates any other.
    let mut population: Vec<Individual> = (0..5)
        .map(|i| individual(&[i as f64, 4.0 - i as f64]))
        .collect();
    let fronts = fast_nondominated_sort(&mut population);
    assert_eq!(fronts.len(), 1);
    assert_eq!(fronts[0].len(), 5);
    assert!(population.iter().all(|p| p.rank == 0));
}

#[test]
fn dominance_relations_match_their_definitions() {
    assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
    assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
    assert!(
        !dominates(&[1.0, 1.0], &[1.0, 1.0]),
        "equal points do not dominate"
    );
    assert!(!dominates(&[0.0, 2.0], &[1.0, 1.0]), "incomparable points");

    // A feasible individual beats an infeasible one regardless of objectives.
    let feasible = individual(&[100.0, 100.0]);
    let mut infeasible = individual(&[0.0, 0.0]);
    infeasible.violation = 1.0;
    assert!(constrained_dominates(&feasible, &infeasible));
    assert!(!constrained_dominates(&infeasible, &feasible));
}

// ------------------------------------------------------- crowding distance --

#[test]
fn crowding_distance_boundaries_are_infinite() {
    let mut population = vec![
        individual(&[0.0, 4.0]),
        individual(&[1.0, 2.5]),
        individual(&[2.0, 1.5]),
        individual(&[4.0, 0.0]),
    ];
    let front: Vec<usize> = (0..population.len()).collect();
    assign_crowding_distance(&mut population, &front);

    assert_eq!(population[0].crowding, f64::INFINITY);
    assert_eq!(population[3].crowding, f64::INFINITY);
    for interior in &[&population[1], &population[2]] {
        assert!(interior.crowding.is_finite());
        assert!(interior.crowding > 0.0);
    }
}

#[test]
fn crowding_distance_of_tiny_fronts_is_infinite_everywhere() {
    let mut population = vec![individual(&[0.0, 1.0]), individual(&[1.0, 0.0])];
    let front = vec![0, 1];
    assign_crowding_distance(&mut population, &front);
    assert!(population.iter().all(|p| p.crowding == f64::INFINITY));
}

#[test]
fn crowding_distance_prefers_sparse_regions() {
    // Five points on a line; index 2 sits in a crowded cluster, index 3 is
    // isolated, so the isolated interior point must score higher.
    let mut population = vec![
        individual(&[0.0, 10.0]),
        individual(&[0.1, 9.9]),
        individual(&[0.2, 9.8]),
        individual(&[5.0, 5.0]),
        individual(&[10.0, 0.0]),
    ];
    let front: Vec<usize> = (0..population.len()).collect();
    assign_crowding_distance(&mut population, &front);
    assert!(population[3].crowding > population[1].crowding);
    assert!(population[3].crowding > population[2].crowding);
}

// ------------------------------------------------------------- hypervolume --

#[test]
fn hypervolume_of_a_known_staircase_front() {
    // (1,3), (2,2), (3,1) against reference (4,4): three rectangles of areas
    // 1, 2 and 3.
    let front = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
    let hv = hypervolume(&front, &[4.0, 4.0]);
    assert!((hv - 6.0).abs() < 1e-12);
}

#[test]
fn hypervolume_of_a_single_point_is_its_box() {
    let hv = hypervolume(&[vec![0.25, 0.5]], &[1.0, 1.0]);
    assert!((hv - 0.75 * 0.5).abs() < 1e-12);
}

#[test]
fn hypervolume_ignores_dominated_and_out_of_reference_points() {
    let base = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
    let baseline = hypervolume(&base, &[4.0, 4.0]);

    // A dominated point adds nothing.
    let mut with_dominated = base.clone();
    with_dominated.push(vec![2.5, 2.5]);
    assert!((hypervolume(&with_dominated, &[4.0, 4.0]) - baseline).abs() < 1e-12);

    // A point beyond the reference adds nothing.
    let mut with_outlier = base.clone();
    with_outlier.push(vec![5.0, 0.5]);
    assert!((hypervolume(&with_outlier, &[4.0, 4.0]) - baseline).abs() < 1e-12);

    // A genuinely new non-dominated point strictly increases the volume.
    let mut with_improvement = base;
    with_improvement.push(vec![0.5, 3.5]);
    assert!(hypervolume(&with_improvement, &[4.0, 4.0]) > baseline + 1e-9);
}

#[test]
fn hypervolume_is_zero_for_empty_or_non_dominating_fronts() {
    assert_eq!(hypervolume::<Vec<f64>>(&[], &[1.0, 1.0]), 0.0);
    // Every point is outside the reference box.
    assert_eq!(hypervolume(&[vec![2.0, 2.0]], &[1.0, 1.0]), 0.0);
}

#[test]
fn hypervolume_agrees_between_2d_and_degenerate_3d() {
    // Embedding a 2-D front at a constant third objective must scale the
    // 2-D volume by the remaining thickness to the reference.
    let front2 = vec![vec![1.0, 3.0], vec![2.0, 2.0], vec![3.0, 1.0]];
    let front3: Vec<Vec<f64>> = front2.iter().map(|p| vec![p[0], p[1], 0.0]).collect();
    let hv2 = hypervolume(&front2, &[4.0, 4.0]);
    let hv3 = hypervolume(&front3, &[4.0, 4.0, 2.0]);
    assert!((hv3 - hv2 * 2.0).abs() < 1e-12);
}

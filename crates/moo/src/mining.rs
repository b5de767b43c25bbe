//! Pareto-front mining: trade-off selection strategies (Section 2.2 of the
//! paper).
//!
//! Multi-objective optimization returns a set of non-dominated solutions; in a
//! design setting somebody still has to pick one. The paper proposes three
//! automatic criteria — the solution closest to the ideal point, the
//! per-objective shadow minima, and a spread of equally spaced representatives
//! — and uses the *Pareto Relative Minimum* (the per-objective minimum
//! achieved by the algorithm) in place of the unknown true ideal point. This
//! module provides the first and the last; the shadow minima of a
//! two-objective front are its two extremes, which the studies read off the
//! front directly.

/// The Pareto Relative Minimum (PRM): the minimum value achieved on each
/// objective across a front. Used as the ideal point when the true minima are
/// unknown.
///
/// Returns an empty vector for an empty front.
fn pareto_relative_minimum(front: &[Vec<f64>]) -> Vec<f64> {
    if front.is_empty() {
        return Vec::new();
    }
    let dim = front[0].len();
    (0..dim)
        .map(|m| front.iter().map(|p| p[m]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Per-objective ranges of a front (max - min), used for normalization.
fn objective_ranges(front: &[Vec<f64>]) -> Vec<f64> {
    if front.is_empty() {
        return Vec::new();
    }
    let dim = front[0].len();
    (0..dim)
        .map(|m| {
            let min = front.iter().map(|p| p[m]).fold(f64::INFINITY, f64::min);
            let max = front.iter().map(|p| p[m]).fold(f64::NEG_INFINITY, f64::max);
            (max - min).max(f64::EPSILON)
        })
        .collect()
}

/// Index of the front member closest (normalized Euclidean distance) to the
/// ideal point. Uses the PRM as the ideal point, exactly as the paper does.
///
/// Returns `None` for an empty front.
pub fn closest_to_ideal(front: &[Vec<f64>]) -> Option<usize> {
    if front.is_empty() {
        return None;
    }
    let ideal = pareto_relative_minimum(front);
    let ranges = objective_ranges(front);
    front
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            let da: f64 = a
                .iter()
                .zip(&ideal)
                .zip(&ranges)
                .map(|((v, z), r)| ((v - z) / r).powi(2))
                .sum();
            let db: f64 = b
                .iter()
                .zip(&ideal)
                .zip(&ranges)
                .map(|((v, z), r)| ((v - z) / r).powi(2))
                .sum();
            da.partial_cmp(&db).expect("distances are finite")
        })
        .map(|(i, _)| i)
}

/// Picks `count` representatives spread equally along the front, ordered by
/// the first objective. The paper uses this to select the 50 points whose
/// robustness builds the Figure 3 Pareto surface.
///
/// If the front has fewer than `count` members, every index is returned.
pub fn equally_spaced(front: &[Vec<f64>], count: usize) -> Vec<usize> {
    if front.is_empty() || count == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..front.len()).collect();
    order.sort_by(|&a, &b| {
        front[a][0]
            .partial_cmp(&front[b][0])
            .expect("objectives are not NaN")
    });
    if front.len() <= count {
        return order;
    }
    (0..count)
        .map(|k| {
            let position = k as f64 / (count - 1).max(1) as f64 * (order.len() - 1) as f64;
            order[position.round() as usize]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase() -> Vec<Vec<f64>> {
        vec![
            vec![0.0, 10.0],
            vec![2.0, 6.0],
            vec![5.0, 5.0],
            vec![8.0, 2.0],
            vec![10.0, 0.0],
        ]
    }

    #[test]
    fn prm_is_the_componentwise_minimum() {
        assert_eq!(pareto_relative_minimum(&staircase()), vec![0.0, 0.0]);
        assert!(pareto_relative_minimum(&[]).is_empty());
    }

    #[test]
    fn closest_to_ideal_picks_the_knee() {
        // With both objectives normalized to [0,1], the point (2,6) has
        // normalized distance sqrt(0.2²+0.6²) ≈ 0.63, which beats (5,5) at
        // sqrt(0.5²+0.5²) ≈ 0.71 and all the extremes (1.0).
        assert_eq!(closest_to_ideal(&staircase()), Some(1));
        assert_eq!(closest_to_ideal(&[]), None);
    }

    #[test]
    fn closest_to_ideal_normalizes_objective_scales() {
        // Same staircase but the second objective is 1000x larger; the pick
        // must not change because of the normalization.
        let scaled: Vec<Vec<f64>> = staircase()
            .into_iter()
            .map(|p| vec![p[0], p[1] * 1000.0])
            .collect();
        assert_eq!(closest_to_ideal(&scaled), closest_to_ideal(&staircase()));
    }

    #[test]
    fn equally_spaced_selects_spread_points() {
        let front: Vec<Vec<f64>> = (0..101).map(|i| vec![i as f64, 100.0 - i as f64]).collect();
        let picks = equally_spaced(&front, 5);
        assert_eq!(picks.len(), 5);
        let values: Vec<f64> = picks.iter().map(|&i| front[i][0]).collect();
        assert_eq!(values, vec![0.0, 25.0, 50.0, 75.0, 100.0]);
    }

    #[test]
    fn equally_spaced_handles_small_fronts_and_zero_count() {
        let front = staircase();
        assert_eq!(equally_spaced(&front, 10).len(), front.len());
        assert!(equally_spaced(&front, 0).is_empty());
        assert!(equally_spaced(&[], 5).is_empty());
    }
}

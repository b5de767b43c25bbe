//! Steady-state constraint violation of candidate flux vectors.
//!
//! The paper's Geobacter optimization perturbs whole flux vectors and steers
//! the search towards steady-state solutions by minimizing the violation of
//! `S·x̄ = 0` (Section 3.2: the initial guess violates the constraint on the
//! order of 10⁶ and the reported solution A reduces it by a factor of ≈26.5).
//! This module provides that scoring.

use pathway_linalg::{Vector, RESIDUAL_TILE};

use crate::{FbaError, MetabolicModel};

/// Euclidean norm of the steady-state residual `S·v` for a candidate flux
/// vector `v`.
///
/// # Errors
///
/// Returns [`FbaError::DimensionMismatch`] if `fluxes.len()` differs from the
/// model's reaction count.
pub fn steady_state_violation(model: &MetabolicModel, fluxes: &[f64]) -> Result<f64, FbaError> {
    if fluxes.len() != model.num_reactions() {
        return Err(FbaError::DimensionMismatch {
            expected: model.num_reactions(),
            found: fluxes.len(),
        });
    }
    let v = Vector::from(fluxes);
    let residual = model
        .stoichiometric_matrix()
        .mat_vec(&v)
        .map_err(FbaError::from)?;
    Ok(residual.norm2())
}

/// Steady-state residual norms of a whole **batch** of candidate flux
/// vectors, computed by the fused CSR kernel
/// [`CsrMatrix::residual_norms`](pathway_linalg::CsrMatrix::residual_norms)
/// over [`RESIDUAL_TILE`]-wide (8-candidate) tiles of the batch.
///
/// Semantically this is `batch.iter().map(|v| steady_state_violation(model,
/// v))`, and the results are **bit-identical** to that map: the kernel adds
/// each candidate's residual contributions in `mat_vec` order and sums their
/// squares in the row order `Vector::norm2` uses. The batched form exists
/// purely for speed: the sparse structure of `S` is traversed once per tile
/// instead of once per candidate, and no residual vector is ever stored. The
/// tile width equals the executor's claim block, so each run of candidates
/// a pool lane claims is exactly one tile.
///
/// # Errors
///
/// Returns [`FbaError::DimensionMismatch`] if any candidate's length differs
/// from the model's reaction count (checked up front; no partial result).
pub fn steady_state_violation_batch(
    model: &MetabolicModel,
    batch: &[Vec<f64>],
) -> Result<Vec<f64>, FbaError> {
    let reactions = model.num_reactions();
    for fluxes in batch {
        if fluxes.len() != reactions {
            return Err(FbaError::DimensionMismatch {
                expected: reactions,
                found: fluxes.len(),
            });
        }
    }
    let mut norms = Vec::with_capacity(batch.len());
    // One transposed tile serves the whole batch: row `i` holds flux `i` of
    // each of the tile's candidates. The lanes past a partial tile's last
    // candidate repeat it, and their norms are dropped. Slicing each lane to
    // `reactions` lets the compiler drop the bounds checks of the transpose.
    let mut tile = vec![[0.0; RESIDUAL_TILE]; reactions];
    for candidates in batch.chunks(RESIDUAL_TILE) {
        let lanes: [&[f64]; RESIDUAL_TILE] =
            std::array::from_fn(|j| &candidates[j.min(candidates.len() - 1)][..reactions]);
        for (i, row) in tile.iter_mut().enumerate() {
            *row = std::array::from_fn(|j| lanes[j][i]);
        }
        let tile_norms = model
            .stoichiometric_matrix()
            .residual_norms(&tile)
            .map_err(FbaError::from)?;
        norms.extend_from_slice(&tile_norms[..candidates.len()]);
    }
    Ok(norms)
}

/// Sum of squared residuals (the quantity a quadratic penalty would use).
///
/// # Errors
///
/// Same as [`steady_state_violation`].
pub fn violation_norm(model: &MetabolicModel, fluxes: &[f64]) -> Result<f64, FbaError> {
    let norm = steady_state_violation(model, fluxes)?;
    Ok(norm * norm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_models::toy_model;

    #[test]
    fn a_balanced_flux_vector_has_zero_violation() {
        let model = toy_model();
        // uptake = convert = biomass = 2, leak = 0: A and B are balanced.
        let fluxes = vec![2.0, 2.0, 2.0, 0.0];
        assert!(steady_state_violation(&model, &fluxes).unwrap() < 1e-12);
        assert!(violation_norm(&model, &fluxes).unwrap() < 1e-12);
    }

    #[test]
    fn an_unbalanced_flux_vector_is_scored() {
        let model = toy_model();
        // Uptake with nothing downstream: A accumulates at rate 5.
        let fluxes = vec![5.0, 0.0, 0.0, 0.0];
        let violation = steady_state_violation(&model, &fluxes).unwrap();
        assert!((violation - 5.0).abs() < 1e-12);
        assert!((violation_norm(&model, &fluxes).unwrap() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn violation_scales_with_the_imbalance() {
        let model = toy_model();
        let small = steady_state_violation(&model, &[1.0, 0.0, 0.0, 0.0]).unwrap();
        let large = steady_state_violation(&model, &[10.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((large - 10.0 * small).abs() < 1e-9);
    }

    #[test]
    fn wrong_length_is_rejected() {
        let model = toy_model();
        assert!(matches!(
            steady_state_violation(&model, &[1.0, 2.0]),
            Err(FbaError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn batched_violations_match_the_per_candidate_path_bit_for_bit() {
        let model = toy_model();
        let batch = vec![
            vec![2.0, 2.0, 2.0, 0.0],
            vec![5.0, 0.0, 0.0, 0.0],
            vec![1.25, -0.5, 3.75, 0.125],
            vec![0.0, 0.0, 0.0, 0.0],
        ];
        let batched = steady_state_violation_batch(&model, &batch).unwrap();
        assert_eq!(batched.len(), batch.len());
        for (fluxes, &violation) in batch.iter().zip(&batched) {
            // Exact equality, not approximate: the contract is that the
            // batched kernel reproduces the per-candidate path bit for bit.
            assert_eq!(violation, steady_state_violation(&model, fluxes).unwrap());
        }
    }

    #[test]
    fn paper_scale_batched_violations_match_the_per_candidate_path_bit_for_bit() {
        // The 608-reaction model at batch widths 1-20: full and partial
        // tiles, and lanes left over from a wider earlier tile.
        let geobacter = crate::geobacter::GeobacterModel::paper_scale();
        let model = geobacter.model();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let candidates: Vec<Vec<f64>> = (0..20)
            .map(|_| {
                (0..model.num_reactions())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 40.0
                    })
                    .collect()
            })
            .collect();
        let expected: Vec<u64> = candidates
            .iter()
            .map(|x| steady_state_violation(model, x).unwrap().to_bits())
            .collect();
        for width in 1..=candidates.len() {
            let batched = steady_state_violation_batch(model, &candidates[..width]).unwrap();
            let bits: Vec<u64> = batched.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, expected[..width], "batch width {width}");
        }
    }

    #[test]
    fn batched_violations_validate_every_candidate_up_front() {
        let model = toy_model();
        assert_eq!(
            steady_state_violation_batch(&model, &[]).unwrap(),
            Vec::<f64>::new()
        );
        let mixed = vec![vec![2.0, 2.0, 2.0, 0.0], vec![1.0, 2.0]];
        assert!(matches!(
            steady_state_violation_batch(&model, &mixed),
            Err(FbaError::DimensionMismatch { .. })
        ));
    }
}

//! Random flux vectors inside a model's bounds.
//!
//! The paper's Geobacter experiment searches the 608-dimensional flux space
//! directly (rather than re-solving an LP at every step) while the optimizer
//! rewards low steady-state violation. A random vector drawn here is the
//! paper's "initial guess", whose violation the designed fluxes are compared
//! against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::MetabolicModel;

/// Draws a flux vector inside the model's bounds from a generator seeded with
/// `seed`. A direction without a finite bound is sampled within
/// ±`absolute`·100, and a fixed flux keeps its value without a draw.
pub fn random_flux_vector(model: &MetabolicModel, absolute: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    model
        .flux_bounds()
        .into_iter()
        .map(|b| {
            let lower = if b.lower.is_finite() {
                b.lower
            } else {
                -absolute * 100.0
            };
            let upper = if b.upper.is_finite() {
                b.upper
            } else {
                absolute * 100.0
            };
            if (upper - lower).abs() < f64::EPSILON {
                lower
            } else {
                rng.gen_range(lower..=upper)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_models::toy_model;

    #[test]
    fn random_vector_respects_bounds() {
        let model = toy_model();
        let v = random_flux_vector(&model, 1.0, 5);
        assert_eq!(v.len(), model.num_reactions());
        for (value, bound) in v.iter().zip(model.flux_bounds()) {
            assert!(*value >= bound.lower - 1e-12 && *value <= bound.upper + 1e-12);
        }
    }
}

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

/// Seeded sampler of flux vectors inside a model's bounds.
#[derive(Debug, Clone)]
pub struct FluxPerturbation {
    /// Half-width of the range sampled in a direction without a finite
    /// bound, divided by 100.
    absolute: f64,
    rng: StdRng,
}

impl FluxPerturbation {
    /// Creates a sampler with a deterministic seed.
    pub fn new(absolute: f64, seed: u64) -> Self {
        FluxPerturbation {
            absolute,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates a random flux vector inside the model's bounds (unbounded
    /// directions are sampled within ±`absolute`·100).
    pub fn random_vector(&mut self, model: &MetabolicModel) -> Vec<f64> {
        model
            .flux_bounds()
            .into_iter()
            .map(|b| {
                let lower = if b.lower.is_finite() {
                    b.lower
                } else {
                    -self.absolute * 100.0
                };
                let upper = if b.upper.is_finite() {
                    b.upper
                } else {
                    self.absolute * 100.0
                };
                if (upper - lower).abs() < f64::EPSILON {
                    lower
                } else {
                    self.rng.gen_range(lower..=upper)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::test_models::toy_model;

    #[test]
    fn random_vector_respects_bounds() {
        let model = toy_model();
        let mut op = FluxPerturbation::new(1.0, 5);
        let v = op.random_vector(&model);
        assert_eq!(v.len(), model.num_reactions());
        for (value, bound) in v.iter().zip(model.flux_bounds()) {
            assert!(*value >= bound.lower - 1e-12 && *value <= bound.upper + 1e-12);
        }
    }
}

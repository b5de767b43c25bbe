use std::collections::{HashMap, HashSet};
use std::fmt;

use pathway_linalg::{Bound, CsrMatrix};

use crate::FbaError;

/// A metabolite of a stoichiometric model.
#[derive(Debug, Clone, PartialEq)]
pub struct Metabolite {
    /// Identifier, e.g. `"atp_c"`.
    pub id: String,
    /// `true` if the metabolite is an external/boundary species not subject to
    /// the steady-state constraint.
    pub boundary: bool,
}

/// A reaction of a stoichiometric model.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// Identifier, e.g. `"biomass"`.
    pub id: String,
    /// Sparse stoichiometry: `(metabolite index, coefficient)`; negative
    /// coefficients are consumed.
    pub stoichiometry: Vec<(usize, f64)>,
    /// Flux bounds in mmol/gDW/h.
    pub bounds: Bound,
}

/// A genome-scale stoichiometric model: metabolites, reactions, flux bounds.
///
/// The model owns the sparse stoichiometric matrix `S` (rows = internal
/// metabolites, columns = reactions) used both by FBA and by the
/// steady-state-violation scoring of the multi-objective search.
#[derive(Debug, Clone, PartialEq)]
pub struct MetabolicModel {
    name: String,
    metabolites: Vec<Metabolite>,
    reactions: Vec<Reaction>,
    reaction_index: HashMap<String, usize>,
    stoichiometric_matrix: CsrMatrix,
}

impl MetabolicModel {
    /// Starts building a model.
    pub fn builder(name: impl Into<String>) -> MetabolicModelBuilder {
        MetabolicModelBuilder {
            name: name.into(),
            metabolites: Vec::new(),
            reactions: Vec::new(),
            metabolite_ids: HashSet::new(),
            reaction_index: HashMap::new(),
        }
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of metabolites (internal + boundary).
    pub fn num_metabolites(&self) -> usize {
        self.metabolites.len()
    }

    /// Number of reactions.
    pub fn num_reactions(&self) -> usize {
        self.reactions.len()
    }

    /// Reactions in insertion order.
    pub fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }

    /// Index of a reaction by id.
    pub fn reaction_index(&self, id: &str) -> Option<usize> {
        self.reaction_index.get(id).copied()
    }

    /// The sparse stoichiometric matrix over internal (non-boundary)
    /// metabolites: rows follow the metabolite order restricted to internal
    /// species, columns follow the reaction order.
    pub fn stoichiometric_matrix(&self) -> &CsrMatrix {
        &self.stoichiometric_matrix
    }

    /// Per-reaction flux bounds, in reaction order.
    pub fn flux_bounds(&self) -> Vec<Bound> {
        self.reactions.iter().map(|r| r.bounds).collect()
    }

    /// Pins a reaction's flux to a fixed value (e.g. the ATP maintenance flux
    /// held at 0.45 in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`FbaError::UnknownName`] if the reaction does not exist.
    pub fn pin_reaction(&mut self, id: &str, value: f64) -> Result<(), FbaError> {
        let index = self
            .reaction_index(id)
            .ok_or_else(|| FbaError::UnknownName(id.to_string()))?;
        self.reactions[index].bounds = Bound::fixed(value);
        Ok(())
    }
}

impl fmt::Display for MetabolicModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} metabolites, {} reactions",
            self.name,
            self.num_metabolites(),
            self.num_reactions()
        )
    }
}

/// Incremental builder for [`MetabolicModel`].
#[derive(Debug, Clone)]
pub struct MetabolicModelBuilder {
    name: String,
    metabolites: Vec<Metabolite>,
    reactions: Vec<Reaction>,
    metabolite_ids: HashSet<String>,
    reaction_index: HashMap<String, usize>,
}

impl MetabolicModelBuilder {
    /// Adds a metabolite and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present.
    pub fn add_metabolite(&mut self, id: impl Into<String>, boundary: bool) -> usize {
        let id = id.into();
        assert!(
            self.metabolite_ids.insert(id.clone()),
            "duplicate metabolite id: {id}"
        );
        let index = self.metabolites.len();
        self.metabolites.push(Metabolite { id, boundary });
        index
    }

    /// Adds a reaction and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present or a metabolite index is out of
    /// range.
    pub fn add_reaction(
        &mut self,
        id: impl Into<String>,
        stoichiometry: &[(usize, f64)],
        bounds: Bound,
    ) -> usize {
        let id = id.into();
        assert!(
            !self.reaction_index.contains_key(&id),
            "duplicate reaction id: {id}"
        );
        for &(m, _) in stoichiometry {
            assert!(
                m < self.metabolites.len(),
                "metabolite index {m} out of range"
            );
        }
        let index = self.reactions.len();
        self.reaction_index.insert(id.clone(), index);
        self.reactions.push(Reaction {
            id,
            stoichiometry: stoichiometry.to_vec(),
            bounds,
        });
        index
    }

    /// Finalizes the model, building the internal stoichiometric matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FbaError::InvalidModel`] if the model has no reactions or no
    /// internal metabolites.
    pub fn build(self) -> Result<MetabolicModel, FbaError> {
        if self.reactions.is_empty() {
            return Err(FbaError::InvalidModel("model has no reactions".into()));
        }
        // Map internal metabolites to dense row indices.
        let internal: Vec<usize> = self
            .metabolites
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.boundary)
            .map(|(i, _)| i)
            .collect();
        if internal.is_empty() {
            return Err(FbaError::InvalidModel(
                "model has no internal metabolites".into(),
            ));
        }
        let row_of: HashMap<usize, usize> = internal
            .iter()
            .enumerate()
            .map(|(row, &met)| (met, row))
            .collect();
        let mut triplets = Vec::new();
        for (col, reaction) in self.reactions.iter().enumerate() {
            for &(met, coeff) in &reaction.stoichiometry {
                if let Some(&row) = row_of.get(&met) {
                    triplets.push((row, col, coeff));
                }
            }
        }
        let stoichiometric_matrix =
            CsrMatrix::from_triplets(internal.len(), self.reactions.len(), &triplets)
                .map_err(|e| FbaError::InvalidModel(e.to_string()))?;
        Ok(MetabolicModel {
            name: self.name,
            metabolites: self.metabolites,
            reactions: self.reactions,
            reaction_index: self.reaction_index,
            stoichiometric_matrix,
        })
    }
}

#[cfg(test)]
pub(crate) mod test_models {
    //! A small hand-built model shared by the crate's tests:
    //!
    //! ```text
    //!   uptake:   (boundary) -> A           0 <= v <= 10
    //!   convert:  A -> B                    0 <= v <= 10
    //!   biomass:  B -> (boundary)           0 <= v <= 10
    //!   leak:     A -> (boundary)           0 <= v <= 1
    //! ```
    use super::*;

    pub fn toy_model() -> MetabolicModel {
        let mut builder = MetabolicModel::builder("toy");
        let a = builder.add_metabolite("A", false);
        let b = builder.add_metabolite("B", false);
        let external = builder.add_metabolite("X_ext", true);
        builder.add_reaction(
            "uptake",
            &[(external, -1.0), (a, 1.0)],
            Bound::interval(0.0, 10.0),
        );
        builder.add_reaction(
            "convert",
            &[(a, -1.0), (b, 1.0)],
            Bound::interval(0.0, 10.0),
        );
        builder.add_reaction(
            "biomass",
            &[(b, -1.0), (external, 1.0)],
            Bound::interval(0.0, 10.0),
        );
        builder.add_reaction(
            "leak",
            &[(a, -1.0), (external, 1.0)],
            Bound::interval(0.0, 1.0),
        );
        builder.build().expect("toy model is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::test_models::toy_model;
    use super::*;

    #[test]
    fn builder_produces_consistent_indices() {
        let model = toy_model();
        assert_eq!(model.num_metabolites(), 3);
        assert_eq!(model.num_reactions(), 4);
        assert_eq!(model.metabolites[0].id, "A");
        assert_eq!(model.reaction_index("biomass"), Some(2));
        assert_eq!(model.reaction_index("missing"), None);
        assert!(model.to_string().contains("toy"));
    }

    #[test]
    fn stoichiometric_matrix_only_covers_internal_metabolites() {
        let model = toy_model();
        let s = model.stoichiometric_matrix();
        assert_eq!(s.rows(), 2); // A and B, not the boundary species
        assert_eq!(s.cols(), 4);
        assert_eq!(s.get(0, 0), 1.0); // uptake produces A
        assert_eq!(s.get(0, 1), -1.0); // convert consumes A
        assert_eq!(s.get(1, 2), -1.0); // biomass consumes B
    }

    #[test]
    fn pin_reaction_fixes_bounds() {
        let mut model = toy_model();
        model.pin_reaction("leak", 0.45).unwrap();
        let bounds = model.flux_bounds();
        assert_eq!(bounds[3].lower, 0.45);
        assert_eq!(bounds[3].upper, 0.45);
        assert!(model.pin_reaction("nope", 1.0).is_err());
    }

    #[test]
    fn empty_models_are_rejected() {
        let builder = MetabolicModel::builder("empty");
        assert!(matches!(builder.build(), Err(FbaError::InvalidModel(_))));
        let mut only_boundary = MetabolicModel::builder("boundary-only");
        let x = only_boundary.add_metabolite("X", true);
        only_boundary.add_reaction("r", &[(x, 1.0)], Bound::non_negative());
        assert!(matches!(
            only_boundary.build(),
            Err(FbaError::InvalidModel(_))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate metabolite id")]
    fn duplicate_metabolite_panics() {
        let mut builder = MetabolicModel::builder("dup");
        builder.add_metabolite("A", false);
        builder.add_metabolite("A", false);
    }

    #[test]
    #[should_panic(expected = "duplicate reaction id")]
    fn duplicate_reaction_panics() {
        let mut builder = MetabolicModel::builder("dup");
        let a = builder.add_metabolite("A", false);
        builder.add_reaction("r", &[(a, 1.0)], Bound::non_negative());
        builder.add_reaction("r", &[(a, -1.0)], Bound::non_negative());
    }
}

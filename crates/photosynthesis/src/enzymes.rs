use pathway_kinetics::{Enzyme, KineticConstants};

/// Number of tunable enzymes in the model (the 23 bars of the paper's Figure 2).
pub const ENZYME_COUNT: usize = 23;

/// The 23 enzymes of the C3 carbon-metabolism model, in the order of the
/// paper's Figure 2.
///
/// The first ten are Calvin-cycle / starch enzymes, the next seven belong to
/// the photorespiratory pathway, and the remaining six to cytosolic sucrose
/// synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // The variant names are the enzyme names themselves.
pub enum EnzymeKind {
    Rubisco,
    PgaKinase,
    Gapdh,
    FbpAldolase,
    Fbpase,
    Transketolase,
    SbpAldolase,
    Sbpase,
    Prk,
    Adpgpp,
    Pgcapase,
    GceaKinase,
    GoaOxidase,
    Gsat,
    HprReductase,
    Ggat,
    Gdc,
    CytosolicFbpAldolase,
    CytosolicFbpase,
    Udpgp,
    Sps,
    Spp,
    F26Bpase,
}

impl EnzymeKind {
    /// All enzymes in Figure 2 order.
    pub const ALL: [EnzymeKind; ENZYME_COUNT] = [
        EnzymeKind::Rubisco,
        EnzymeKind::PgaKinase,
        EnzymeKind::Gapdh,
        EnzymeKind::FbpAldolase,
        EnzymeKind::Fbpase,
        EnzymeKind::Transketolase,
        EnzymeKind::SbpAldolase,
        EnzymeKind::Sbpase,
        EnzymeKind::Prk,
        EnzymeKind::Adpgpp,
        EnzymeKind::Pgcapase,
        EnzymeKind::GceaKinase,
        EnzymeKind::GoaOxidase,
        EnzymeKind::Gsat,
        EnzymeKind::HprReductase,
        EnzymeKind::Ggat,
        EnzymeKind::Gdc,
        EnzymeKind::CytosolicFbpAldolase,
        EnzymeKind::CytosolicFbpase,
        EnzymeKind::Udpgp,
        EnzymeKind::Sps,
        EnzymeKind::Spp,
        EnzymeKind::F26Bpase,
    ];

    /// Index of the enzyme in the Figure 2 ordering.
    ///
    /// The enum variants are declared in `ALL` order, so the discriminant
    /// *is* the index (`index_round_trips` pins this).
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Enzyme at a given index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= ENZYME_COUNT`.
    pub fn from_index(index: usize) -> Self {
        Self::ALL[index]
    }

    /// Human-readable name matching the paper's Figure 2 labels.
    pub fn name(self) -> &'static str {
        match self {
            EnzymeKind::Rubisco => "Rubisco",
            EnzymeKind::PgaKinase => "PGA Kinase",
            EnzymeKind::Gapdh => "GAP DH",
            EnzymeKind::FbpAldolase => "FBP Aldolase",
            EnzymeKind::Fbpase => "FBPase",
            EnzymeKind::Transketolase => "Transketolase",
            EnzymeKind::SbpAldolase => "Aldolase",
            EnzymeKind::Sbpase => "SBPase",
            EnzymeKind::Prk => "PRK",
            EnzymeKind::Adpgpp => "ADPGPP",
            EnzymeKind::Pgcapase => "PGCAPase",
            EnzymeKind::GceaKinase => "GCEA Kinase",
            EnzymeKind::GoaOxidase => "GOA Oxidase",
            EnzymeKind::Gsat => "GSAT",
            EnzymeKind::HprReductase => "HPR reductase",
            EnzymeKind::Ggat => "GGAT",
            EnzymeKind::Gdc => "GDC",
            EnzymeKind::CytosolicFbpAldolase => "Cytosolic FBP aldolase",
            EnzymeKind::CytosolicFbpase => "Cytosolic FBPase",
            EnzymeKind::Udpgp => "UDPGP",
            EnzymeKind::Sps => "SPS",
            EnzymeKind::Spp => "SPP",
            EnzymeKind::F26Bpase => "F26BPase",
        }
    }

    /// `true` if the enzyme belongs to the photorespiratory pathway.
    pub fn is_photorespiratory(self) -> bool {
        matches!(
            self,
            EnzymeKind::Pgcapase
                | EnzymeKind::GceaKinase
                | EnzymeKind::GoaOxidase
                | EnzymeKind::Gsat
                | EnzymeKind::HprReductase
                | EnzymeKind::Ggat
                | EnzymeKind::Gdc
        )
    }

    /// `true` if the enzyme belongs to the cytosolic sucrose-synthesis branch.
    pub fn is_sucrose_branch(self) -> bool {
        matches!(
            self,
            EnzymeKind::CytosolicFbpAldolase
                | EnzymeKind::CytosolicFbpase
                | EnzymeKind::Udpgp
                | EnzymeKind::Sps
                | EnzymeKind::Spp
                | EnzymeKind::F26Bpase
        )
    }

    /// Turnover number k_cat in 1/s (plausible literature-scale values; see
    /// `DESIGN.md` on the parameter substitution).
    fn k_cat(self) -> f64 {
        match self {
            EnzymeKind::Rubisco => 3.5,
            EnzymeKind::PgaKinase => 200.0,
            EnzymeKind::Gapdh => 80.0,
            EnzymeKind::FbpAldolase => 20.0,
            EnzymeKind::Fbpase => 25.0,
            EnzymeKind::Transketolase => 50.0,
            EnzymeKind::SbpAldolase => 20.0,
            EnzymeKind::Sbpase => 22.0,
            EnzymeKind::Prk => 180.0,
            EnzymeKind::Adpgpp => 30.0,
            EnzymeKind::Pgcapase => 40.0,
            EnzymeKind::GceaKinase => 60.0,
            EnzymeKind::GoaOxidase => 25.0,
            EnzymeKind::Gsat => 35.0,
            EnzymeKind::HprReductase => 100.0,
            EnzymeKind::Ggat => 35.0,
            EnzymeKind::Gdc => 15.0,
            EnzymeKind::CytosolicFbpAldolase => 20.0,
            EnzymeKind::CytosolicFbpase => 25.0,
            EnzymeKind::Udpgp => 80.0,
            EnzymeKind::Sps => 12.0,
            EnzymeKind::Spp => 50.0,
            EnzymeKind::F26Bpase => 10.0,
        }
    }

    /// Molecular weight of the holoenzyme in kDa.
    fn molecular_weight_kda(self) -> f64 {
        match self {
            EnzymeKind::Rubisco => 550.0,
            EnzymeKind::PgaKinase => 45.0,
            EnzymeKind::Gapdh => 150.0,
            EnzymeKind::FbpAldolase => 160.0,
            EnzymeKind::Fbpase => 145.0,
            EnzymeKind::Transketolase => 150.0,
            EnzymeKind::SbpAldolase => 160.0,
            EnzymeKind::Sbpase => 90.0,
            EnzymeKind::Prk => 90.0,
            EnzymeKind::Adpgpp => 210.0,
            EnzymeKind::Pgcapase => 95.0,
            EnzymeKind::GceaKinase => 40.0,
            EnzymeKind::GoaOxidase => 150.0,
            EnzymeKind::Gsat => 90.0,
            EnzymeKind::HprReductase => 95.0,
            EnzymeKind::Ggat => 100.0,
            EnzymeKind::Gdc => 1000.0,
            EnzymeKind::CytosolicFbpAldolase => 160.0,
            EnzymeKind::CytosolicFbpase => 145.0,
            EnzymeKind::Udpgp => 105.0,
            EnzymeKind::Sps => 120.0,
            EnzymeKind::Spp => 55.0,
            EnzymeKind::F26Bpase => 90.0,
        }
    }

    /// Natural catalytic capacity (Vmax, µmol m⁻² s⁻¹) of the enzyme in an
    /// unengineered leaf. The natural partition is the paper's green
    /// "operating area" reference point.
    pub fn natural_capacity(self) -> f64 {
        match self {
            EnzymeKind::Rubisco => 40.0,
            EnzymeKind::PgaKinase => 300.0,
            EnzymeKind::Gapdh => 120.0,
            EnzymeKind::FbpAldolase => 40.0,
            EnzymeKind::Fbpase => 30.0,
            EnzymeKind::Transketolase => 60.0,
            EnzymeKind::SbpAldolase => 40.0,
            EnzymeKind::Sbpase => 25.0,
            EnzymeKind::Prk => 250.0,
            EnzymeKind::Adpgpp => 20.0,
            EnzymeKind::Pgcapase => 30.0,
            EnzymeKind::GceaKinase => 30.0,
            EnzymeKind::GoaOxidase => 25.0,
            EnzymeKind::Gsat => 30.0,
            EnzymeKind::HprReductase => 30.0,
            EnzymeKind::Ggat => 30.0,
            EnzymeKind::Gdc => 25.0,
            EnzymeKind::CytosolicFbpAldolase => 30.0,
            EnzymeKind::CytosolicFbpase => 25.0,
            EnzymeKind::Udpgp => 60.0,
            EnzymeKind::Sps => 20.0,
            EnzymeKind::Spp => 40.0,
            EnzymeKind::F26Bpase => 5.0,
        }
    }

    /// Builds the [`Enzyme`] record used by the nitrogen accounting in
    /// `pathway-kinetics`.
    pub fn to_enzyme(self) -> Enzyme {
        Enzyme::new(
            self.name(),
            KineticConstants::new(self.k_cat(), 0.5),
            self.molecular_weight_kda(),
        )
        // The paper's Figure 2 nitrogen formula uses MW/k_cat directly without
        // a protein-nitrogen mass fraction, so use 1.0 here.
        .with_nitrogen_fraction(1.0)
    }
}

impl std::fmt::Display for EnzymeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The full enzyme table in Figure 2 order.
pub fn enzyme_table() -> Vec<Enzyme> {
    EnzymeKind::ALL
        .iter()
        .map(|kind| kind.to_enzyme())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn there_are_exactly_23_enzymes() {
        assert_eq!(EnzymeKind::ALL.len(), ENZYME_COUNT);
        assert_eq!(enzyme_table().len(), ENZYME_COUNT);
    }

    #[test]
    fn index_round_trips() {
        for (i, &kind) in EnzymeKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
            assert_eq!(EnzymeKind::from_index(i), kind);
        }
    }

    #[test]
    fn names_are_unique_and_match_figure_2_labels() {
        let names: HashSet<&str> = EnzymeKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), ENZYME_COUNT);
        assert!(names.contains("Rubisco"));
        assert!(names.contains("SBPase"));
        assert!(names.contains("ADPGPP"));
        assert!(names.contains("F26BPase"));
        assert!(names.contains("Cytosolic FBP aldolase"));
    }

    #[test]
    fn pathway_classification_is_disjoint() {
        let photoresp: Vec<_> = EnzymeKind::ALL
            .iter()
            .filter(|k| k.is_photorespiratory())
            .collect();
        let sucrose: Vec<_> = EnzymeKind::ALL
            .iter()
            .filter(|k| k.is_sucrose_branch())
            .collect();
        assert_eq!(photoresp.len(), 7);
        assert_eq!(sucrose.len(), 6);
        for k in &photoresp {
            assert!(!k.is_sucrose_branch());
        }
    }

    #[test]
    fn all_kinetic_parameters_are_positive() {
        for kind in EnzymeKind::ALL {
            assert!(kind.k_cat() > 0.0, "{kind} has non-positive k_cat");
            assert!(kind.molecular_weight_kda() > 0.0);
            assert!(kind.natural_capacity() > 0.0);
        }
    }

    #[test]
    fn rubisco_is_the_most_nitrogen_expensive_per_unit_capacity() {
        let rubisco_cost = EnzymeKind::Rubisco.molecular_weight_kda() / EnzymeKind::Rubisco.k_cat();
        for kind in EnzymeKind::ALL {
            if kind != EnzymeKind::Rubisco {
                let cost = kind.molecular_weight_kda() / kind.k_cat();
                assert!(
                    rubisco_cost > cost,
                    "{kind} should be cheaper per catalytic unit than Rubisco"
                );
            }
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", EnzymeKind::Sbpase), "SBPase");
    }
}

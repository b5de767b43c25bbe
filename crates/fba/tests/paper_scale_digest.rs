//! Pins the bits of the two 608-reaction FBA optima that centre the paper's
//! Geobacter search (Figure 4): maximum biomass and maximum electron
//! production. The reference flux vector, the search box and every Geobacter
//! front follow from these bits, so a solver change that moves any of them —
//! a flux, an objective value or a pivot count — fails here.

use pathway_fba::geobacter::GeobacterModel;
use pathway_fba::{FbaSolution, FluxBalanceAnalysis};

/// 64-bit FNV-1a over a stream of little-endian words.
fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Digest of every flux bit, the objective bits and the pivot count.
fn solution_digest(solution: &FbaSolution) -> u64 {
    fnv1a64(solution.fluxes.iter().map(|v| v.to_bits()).chain([
        solution.objective_value.to_bits(),
        solution.iterations as u64,
    ]))
}

#[test]
fn paper_scale_optima_are_bit_identical() {
    let model = GeobacterModel::builder().reactions(608).build();
    let biomass = model.max_biomass().expect("biomass FBA is feasible");
    let electron = model.max_electron().expect("electron FBA is feasible");
    assert_eq!(biomass.iterations, 2_168);
    assert_eq!(electron.iterations, 2_168);
    assert_eq!(solution_digest(&biomass), 0x91aa_a1eb_8ca2_2213);
    assert_eq!(solution_digest(&electron), 0xd255_e8ad_3629_427d);
    // The set-up path shares one phase 1 between both objectives and must
    // return the same bits.
    let shared = FluxBalanceAnalysis::new(model.model())
        .maximize_reactions(&[model.biomass_reaction(), model.electron_reaction()])
        .expect("both FBA objectives are feasible");
    assert_eq!(shared[0].phase1_iterations, 2_167);
    let digests: Vec<u64> = shared.iter().map(solution_digest).collect();
    assert_eq!(
        digests,
        [solution_digest(&biomass), solution_digest(&electron)]
    );
}

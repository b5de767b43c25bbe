//! Pins the bits of the analytic leaf oracle that scores every candidate of
//! the paper's leaf-redesign search (Figures 1-2, Table 1): both objectives
//! of `LeafRedesignProblem::evaluate` over seeded random designs in all six
//! scenarios, and the nitrogen accounting of three reference leaves. Every
//! leaf front follows from these bits, so an oracle change that moves one of
//! them fails here.

use pathway_core::LeafRedesignProblem;
use pathway_moo::MultiObjectiveProblem;
use pathway_photosynthesis::{EnzymePartition, Scenario};

/// Designs drawn per scenario.
const DESIGNS: usize = 1_000;

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

/// SplitMix64: a self-contained seeded stream, so the digest does not depend
/// on any RNG crate.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn leaf_oracle_objectives_are_bit_identical() {
    let mut rng = SplitMix64(0x5eed_1eaf);
    let mut words = Vec::new();
    for scenario in Scenario::all() {
        let problem = LeafRedesignProblem::new(scenario);
        let bounds = problem.bounds();
        for _ in 0..DESIGNS {
            let x: Vec<f64> = bounds
                .iter()
                .map(|&(lower, upper)| lower + (upper - lower) * rng.next_unit())
                .collect();
            words.extend(problem.evaluate(&x).iter().map(|v| v.to_bits()));
        }
    }
    assert_eq!(words.len(), 6 * DESIGNS * 2);
    assert_eq!(fnv1a64(words), 0x2bea_c87f_f70e_0e41);
}

#[test]
fn leaf_nitrogen_accounting_is_bit_identical() {
    let natural = EnzymePartition::natural();
    let mut words = Vec::new();
    for leaf in [natural.clone(), natural.scaled(0.5), natural.scaled(3.0)] {
        words.push(leaf.total_nitrogen().to_bits());
        words.extend(leaf.nitrogen_breakdown().iter().map(|v| v.to_bits()));
    }
    assert_eq!(fnv1a64(words), 0x5c43_408a_1c1a_7d10);
}

//! Variation and selection operators used by NSGA-II, MOEA/D and PMO2.

use rand::Rng;

use crate::{constrained_dominates, Individual};

/// Reusable buffers for [`sbx_crossover`]: the random words it has drawn,
/// and per crossing gene its index, its spread word and its base (then its
/// β). They grow to the longest genome crossed and are reused across calls;
/// `Nsga2` and `Moead` each keep one. They hold no run state: a checkpoint
/// never carries them, and a fresh scratch gives the same children.
#[derive(Debug, Clone, Default)]
pub struct SbxScratch {
    /// The words drawn so far in this call, in stream order.
    words: Vec<u64>,
    /// Slot `k`: the index of the `k`-th crossing gene.
    genes: Vec<usize>,
    /// Slot `k`: the spread word of the `k`-th crossing gene.
    spreads: Vec<u64>,
    /// Slot `k`: the base of the `k`-th crossing gene, then its β.
    bases: Vec<f64>,
}

impl SbxScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused.
    pub fn new() -> Self {
        SbxScratch::default()
    }
}

/// Simulated binary crossover (SBX) of two parent decision vectors.
///
/// Returns two children; each gene is crossed with probability 0.5 (otherwise
/// copied), using the distribution index `eta_c` (larger values produce
/// children closer to their parents). Children are clamped to `bounds`.
///
/// # Draw contract
///
/// Gene by gene, it reads one word for the coin (the gene crosses when the
/// word's top bit is set, as `!gen_bool(0.5)`) and, when the gene crosses
/// and the parents differ by at least 1e-14 (or either is NaN), one word for
/// the spread `u` (as `gen::<f64>()`). So it reads exactly the words of the
/// gene-by-gene loop, in the same order, and leaves `rng` in the same state.
///
/// It reads them in runs. With `p` words read and genes `i..n` left, the
/// stream will yield at least `p + (n − i)` words, one coin per remaining
/// gene, so it draws up to that count with `next_u64` and never past it.
/// A branch-free walk over the drawn words then finds the crossing genes;
/// only the last gene's spread word can be missing, and it is drawn only if
/// that gene crosses. The crossing genes' bases are computed next, then all
/// their `powf` calls in one loop (they are independent, so they overlap),
/// then the children are blended and clamped. Every `f64` expression is the
/// gene-by-gene loop's, so the children are bit for bit the same.
///
/// # Panics
///
/// Panics if the parents or bounds have inconsistent lengths, or if a
/// crossing gene's bounds have `lower > upper` or a NaN end.
pub fn sbx_crossover<R: Rng>(
    parent_a: &[f64],
    parent_b: &[f64],
    bounds: &[(f64, f64)],
    eta_c: f64,
    rng: &mut R,
    scratch: &mut SbxScratch,
) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        parent_a.len(),
        parent_b.len(),
        "parents must have equal length"
    );
    assert_eq!(
        parent_a.len(),
        bounds.len(),
        "one bound per variable is required"
    );
    let n = parent_a.len();
    let SbxScratch {
        words,
        genes,
        spreads,
        bases,
    } = scratch;
    words.clear();
    if genes.len() < n {
        genes.resize(n, 0);
        spreads.resize(n, 0);
    }

    // Walk: gene `i` reads its coin at `words[p]` and, if it crosses, its
    // spread at `words[p + 1]`. Slot `k` is written for every gene and kept
    // only by a crossing one.
    let (mut i, mut p, mut k) = (0, 0, 0);
    while i < n {
        // Genes `i..n` read at least one word each.
        words.extend((words.len()..p + (n - i)).map(|_| rng.next_u64()));
        if i + 1 == n {
            // The last gene's spread word is drawn only if it crosses.
            let cross = (words[p] >> 63) & differ(parent_a[i], parent_b[i]);
            if cross == 1 {
                genes[k] = i;
                spreads[k] = rng.next_u64();
                k += 1;
            }
            break;
        }
        // `words` holds exactly `p + (n − i)` words and each gene walked
        // reads at least one, so this run stops before the last gene.
        while p + 1 < words.len() {
            let cross = (words[p] >> 63) & differ(parent_a[i], parent_b[i]);
            genes[k] = i;
            spreads[k] = words[p + 1];
            k += cross as usize;
            p += 1 + cross as usize;
            i += 1;
        }
    }

    // `u` as `next_f64` builds it, and the base with both arms evaluated.
    bases.clear();
    bases.extend(spreads[..k].iter().map(|&word| {
        let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let low = 2.0 * u;
        let high = 1.0 / (2.0 * (1.0 - u));
        if u <= 0.5 {
            low
        } else {
            high
        }
    }));
    let exponent = 1.0 / (eta_c + 1.0);
    for base in bases.iter_mut() {
        *base = base.powf(exponent);
    }

    let mut child_a = parent_a.to_vec();
    let mut child_b = parent_b.to_vec();
    for (&i, &beta) in genes[..k].iter().zip(bases.iter()) {
        let (x1, x2) = (parent_a[i], parent_b[i]);
        let (lower, upper) = bounds[i];
        child_a[i] = (0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2)).clamp(lower, upper);
        child_b[i] = (0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2)).clamp(lower, upper);
    }
    (child_a, child_b)
}

/// 1 when two parent genes are to be crossed (they differ by at least
/// 1e-14, or either is NaN), else 0.
fn differ(x1: f64, x2: f64) -> u64 {
    u64::from((x1 - x2).abs() < 1e-14) ^ 1
}

/// Polynomial mutation with distribution index `eta_m`; each gene mutates with
/// probability `mutation_probability` (clamped to `[0, 1]`) and stays within
/// `bounds`.
///
/// Per gene it draws one word for the mutation test and, when the gene
/// mutates and its bounds have positive width, one for the perturbation, so
/// it reads exactly the words `gen_bool(p)` and `gen::<f64>()` would.
///
/// # Panics
///
/// Panics if `x` and `bounds` have different lengths, or if
/// `mutation_probability` is NaN.
pub fn polynomial_mutation<R: Rng>(
    x: &mut [f64],
    bounds: &[(f64, f64)],
    mutation_probability: f64,
    eta_m: f64,
    rng: &mut R,
) {
    assert_eq!(x.len(), bounds.len(), "one bound per variable is required");
    let p = mutation_probability.clamp(0.0, 1.0);
    assert!(
        !p.is_nan(),
        "gen_bool probability {p} is outside [0.0, 1.0]"
    );
    // `next_f64() < p` compares k·2⁻⁵³ with p for the word's top 53 bits k;
    // both sides scale by 2⁵³ exactly, and an integer is below a real
    // exactly when it is below its ceiling.
    let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
    let exponent = 1.0 / (eta_m + 1.0);
    for (xi, &(lower, upper)) in x.iter_mut().zip(bounds) {
        if (rng.next_u64() >> 11) >= threshold {
            continue;
        }
        let range = upper - lower;
        if range <= 0.0 {
            continue;
        }
        let u = rng.next_f64();
        let delta = if u < 0.5 {
            (2.0 * u).powf(exponent) - 1.0
        } else {
            1.0 - (2.0 * (1.0 - u)).powf(exponent)
        };
        *xi = (*xi + delta * range).clamp(lower, upper);
    }
}

/// Binary tournament selection on (constrained domination, crowding distance).
///
/// Picks two random members and returns the index of the preferred one: the
/// dominating individual wins; if neither dominates, the better rank wins;
/// within a rank, the larger crowding distance wins. An *exact* crowding tie
/// (common when both contestants carry the infinite boundary distance) is
/// broken by a coin flip from the caller's RNG — a `>=` tie-break would
/// deterministically favor the first-sampled index and bias the selection
/// pressure.
///
/// # Panics
///
/// Panics if `population` is empty.
pub fn tournament_select<R: Rng>(population: &[Individual], rng: &mut R) -> usize {
    assert!(!population.is_empty(), "population must not be empty");
    let a = rng.gen_range(0..population.len());
    let b = rng.gen_range(0..population.len());
    let ind_a = &population[a];
    let ind_b = &population[b];
    if constrained_dominates(ind_a, ind_b) {
        a
    } else if constrained_dominates(ind_b, ind_a) {
        b
    } else if ind_a.rank != ind_b.rank {
        if ind_a.rank < ind_b.rank {
            a
        } else {
            b
        }
    } else if ind_a.crowding > ind_b.crowding {
        a
    } else if ind_b.crowding > ind_a.crowding {
        b
    } else if rng.gen_bool(0.5) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bounds(n: usize) -> Vec<(f64, f64)> {
        vec![(0.0, 1.0); n]
    }

    #[test]
    fn sbx_children_stay_in_bounds_and_near_parents() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = SbxScratch::new();
        let a = vec![0.2, 0.8, 0.5];
        let b = vec![0.3, 0.1, 0.5];
        for _ in 0..200 {
            let (c1, c2) = sbx_crossover(&a, &b, &bounds(3), 15.0, &mut rng, &mut scratch);
            for child in [&c1, &c2] {
                for &value in child {
                    assert!((0.0..=1.0).contains(&value));
                }
            }
            // A gene identical in both parents is inherited unchanged.
            assert_eq!(c1[2], 0.5);
            assert_eq!(c2[2], 0.5);
        }
    }

    #[test]
    fn sbx_with_high_eta_keeps_children_close() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = SbxScratch::new();
        let a = vec![0.4];
        let b = vec![0.6];
        let mut max_spread: f64 = 0.0;
        for _ in 0..500 {
            let (c1, _) = sbx_crossover(&a, &b, &bounds(1), 100.0, &mut rng, &mut scratch);
            max_spread = max_spread.max((c1[0] - 0.5).abs());
        }
        assert!(max_spread < 0.3);
    }

    #[test]
    fn mutation_respects_bounds_and_probability_zero_is_identity() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut x = vec![0.5, 0.5];
        polynomial_mutation(&mut x, &bounds(2), 0.0, 20.0, &mut rng);
        assert_eq!(x, vec![0.5, 0.5]);
        for _ in 0..200 {
            polynomial_mutation(&mut x, &bounds(2), 1.0, 20.0, &mut rng);
            for &value in &x {
                assert!((0.0..=1.0).contains(&value));
            }
        }
    }

    #[test]
    fn mutation_skips_degenerate_bounds() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut x = vec![0.45];
        polynomial_mutation(&mut x, &[(0.45, 0.45)], 1.0, 20.0, &mut rng);
        assert_eq!(x[0], 0.45);
    }

    #[test]
    #[should_panic(expected = "gen_bool probability NaN is outside [0.0, 1.0]")]
    fn mutation_with_a_nan_probability_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        polynomial_mutation(&mut [0.5], &bounds(1), f64::NAN, 20.0, &mut rng);
    }

    #[test]
    fn tournament_prefers_dominating_and_less_crowded() {
        let good = Individual {
            variables: vec![],
            objectives: vec![0.0, 0.0],
            violation: 0.0,
            rank: 0,
            crowding: 1.0,
        };
        let bad = Individual {
            variables: vec![],
            objectives: vec![1.0, 1.0],
            violation: 0.0,
            rank: 1,
            crowding: 0.1,
        };
        let population = vec![good, bad];
        let mut rng = StdRng::seed_from_u64(2);
        let mut wins_for_good = 0;
        for _ in 0..200 {
            if tournament_select(&population, &mut rng) == 0 {
                wins_for_good += 1;
            }
        }
        // The good individual can only lose when it is not drawn at all.
        assert!(wins_for_good > 140);
    }

    #[test]
    fn exact_crowding_ties_are_broken_by_a_coin_flip() {
        // Two incomparable individuals on the same rank with identical
        // (infinite) crowding: neither may be deterministically favored.
        let template = Individual {
            variables: vec![],
            objectives: vec![0.0, 1.0],
            violation: 0.0,
            rank: 0,
            crowding: f64::INFINITY,
        };
        let mut other = template.clone();
        other.objectives = vec![1.0, 0.0];
        let population = vec![template, other];
        let mut rng = StdRng::seed_from_u64(17);
        let mut wins_for_first = 0;
        for _ in 0..2_000 {
            if tournament_select(&population, &mut rng) == 0 {
                wins_for_first += 1;
            }
        }
        // Under the old `>=` tie-break the first-sampled index always won,
        // giving ~75% to index 0 (it wins all ties plus the (0,0) draws).
        assert!(
            (800..1_200).contains(&wins_for_first),
            "tie-breaking is biased: index 0 won {wins_for_first}/2000"
        );
    }

    #[test]
    #[should_panic(expected = "population must not be empty")]
    fn tournament_on_empty_population_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = tournament_select(&[], &mut rng);
    }
}

#[cfg(test)]
mod reference {
    //! Equivalence tests for the SBX and polynomial-mutation operators: the
    //! `gen_bool`-based versions they replaced, kept verbatim as references,
    //! and random parents that stress every case the integer coin and
    //! threshold must get right.
    //!
    //! A case mixes genes drawn inside their bounds, genes equal in both
    //! parents, genes within 1e-14 of each other (on both sides of the cut
    //! and exactly on it), genes outside their bounds and zero-width bounds,
    //! over a spread of distribution indices and mutation probabilities (0,
    //! 1/n, 0.5, 1, the smallest subnormal, out-of-range values that clamp,
    //! random). Children are compared bit for bit, and the generators must
    //! end in the same state.

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::{polynomial_mutation, sbx_crossover, SbxScratch};
    use proptest::prelude::*;

    /// [`sbx_crossover`] as it was before its integer coin: SBX of two parent
    /// decision vectors.
    ///
    /// Returns two children; each gene is crossed with probability 0.5 (otherwise
    /// copied), using the distribution index `eta_c` (larger values produce
    /// children closer to their parents). Children are clamped to `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if the parents or bounds have inconsistent lengths.
    fn reference_sbx_crossover<R: Rng>(
        parent_a: &[f64],
        parent_b: &[f64],
        bounds: &[(f64, f64)],
        eta_c: f64,
        rng: &mut R,
    ) -> (Vec<f64>, Vec<f64>) {
        assert_eq!(
            parent_a.len(),
            parent_b.len(),
            "parents must have equal length"
        );
        assert_eq!(
            parent_a.len(),
            bounds.len(),
            "one bound per variable is required"
        );
        let n = parent_a.len();
        let mut child_a = parent_a.to_vec();
        let mut child_b = parent_b.to_vec();

        for i in 0..n {
            if rng.gen_bool(0.5) {
                continue;
            }
            let (x1, x2) = (parent_a[i], parent_b[i]);
            if (x1 - x2).abs() < 1e-14 {
                continue;
            }
            let u: f64 = rng.gen();
            let beta = if u <= 0.5 {
                (2.0 * u).powf(1.0 / (eta_c + 1.0))
            } else {
                (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (eta_c + 1.0))
            };
            let c1 = 0.5 * ((1.0 + beta) * x1 + (1.0 - beta) * x2);
            let c2 = 0.5 * ((1.0 - beta) * x1 + (1.0 + beta) * x2);
            let (lower, upper) = bounds[i];
            child_a[i] = c1.clamp(lower, upper);
            child_b[i] = c2.clamp(lower, upper);
        }
        (child_a, child_b)
    }

    /// [`polynomial_mutation`] as it was before its integer threshold:
    /// polynomial mutation with distribution index `eta_m`; each gene mutates with
    /// probability `mutation_probability` and stays within `bounds`.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `bounds` have different lengths.
    fn reference_polynomial_mutation<R: Rng>(
        x: &mut [f64],
        bounds: &[(f64, f64)],
        mutation_probability: f64,
        eta_m: f64,
        rng: &mut R,
    ) {
        assert_eq!(x.len(), bounds.len(), "one bound per variable is required");
        for i in 0..x.len() {
            if !rng.gen_bool(mutation_probability.clamp(0.0, 1.0)) {
                continue;
            }
            let (lower, upper) = bounds[i];
            let range = upper - lower;
            if range <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen();
            let delta = if u < 0.5 {
                (2.0 * u).powf(1.0 / (eta_m + 1.0)) - 1.0
            } else {
                1.0 - (2.0 * (1.0 - u)).powf(1.0 / (eta_m + 1.0))
            };
            x[i] = (x[i] + delta * range).clamp(lower, upper);
        }
    }

    /// Random parents and bounds of `n` genes that hit every branch of both
    /// operators.
    fn random_case(rng: &mut StdRng, n: usize) -> (Vec<f64>, Vec<f64>, Vec<(f64, f64)>) {
        let mut parent_a = Vec::with_capacity(n);
        let mut parent_b = Vec::with_capacity(n);
        let mut bounds = Vec::with_capacity(n);
        for _ in 0..n {
            let lower = rng.gen_range(-100.0..100.0);
            let upper = if rng.gen_bool(0.15) {
                lower
            } else {
                lower + rng.gen_range(1e-6..200.0)
            };
            let inside = |rng: &mut StdRng| {
                if upper > lower {
                    rng.gen_range(lower..upper)
                } else {
                    lower
                }
            };
            let x1 = inside(rng);
            let (x1, x2) = match rng.gen_range(0..7u32) {
                0 => (x1, x1),
                1 => (x1, x1 + rng.gen_range(-1e-14..1e-14)),
                2 => (x1, x1 + rng.gen_range(-3e-14..3e-14)),
                // Exactly 1e-14 apart: on the cut, so the gene crosses.
                3 => (0.0, 1e-14),
                4 => (x1, x1 + rng.gen_range(-1.0..1.0) * (upper - lower + 1.0)),
                _ => (x1, inside(rng)),
            };
            parent_a.push(x1);
            parent_b.push(x2);
            bounds.push((lower, upper));
        }
        (parent_a, parent_b, bounds)
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #[test]
        fn prop_operators_match_the_gen_bool_references(seed in 0u64..u64::MAX) {
            let mut cases = StdRng::seed_from_u64(seed);
            let n = if cases.gen_bool(0.1) { 608 } else { cases.gen_range(1..40) };
            let (parent_a, parent_b, bounds) = random_case(&mut cases, n);
            let eta = [0.0, 0.5, 1.0, 2.0, 5.0, 15.0, 20.0, 100.0, cases.gen_range(0.0..200.0)]
                [cases.gen_range(0..9usize)];
            let p = [
                0.0,
                1.0 / n as f64,
                0.5,
                1.0,
                f64::from_bits(1),
                -0.25,
                1.5,
                cases.gen_range(0.0..1.0),
            ][cases.gen_range(0..8usize)];
            let mut rng = StdRng::seed_from_u64(cases.gen());
            let mut reference_rng = rng.clone();
            let mut scratch = SbxScratch::new();
            for _ in 0..4 {
                let (mut a, mut b) =
                    sbx_crossover(&parent_a, &parent_b, &bounds, eta, &mut rng, &mut scratch);
                let (mut ref_a, mut ref_b) =
                    reference_sbx_crossover(&parent_a, &parent_b, &bounds, eta, &mut reference_rng);
                prop_assert_eq!(bits(&a), bits(&ref_a));
                prop_assert_eq!(bits(&b), bits(&ref_b));
                prop_assert_eq!(rng.state(), reference_rng.state());
                polynomial_mutation(&mut a, &bounds, p, eta, &mut rng);
                polynomial_mutation(&mut b, &bounds, p, eta, &mut rng);
                reference_polynomial_mutation(&mut ref_a, &bounds, p, eta, &mut reference_rng);
                reference_polynomial_mutation(&mut ref_b, &bounds, p, eta, &mut reference_rng);
                prop_assert_eq!(bits(&a), bits(&ref_a));
                prop_assert_eq!(bits(&b), bits(&ref_b));
                prop_assert_eq!(rng.state(), reference_rng.state());
            }
        }
    }

    #[test]
    fn thresholds_match_gen_bool_at_the_edges_of_the_word() {
        // Words whose top 53 bits sit just below, at and just above the
        // threshold of each probability.
        for p in [
            0.0,
            f64::from_bits(1),
            1e-300,
            1.0 / 608.0,
            0.1,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
        ] {
            let k = (p * (1u64 << 53) as f64).ceil() as u64;
            for top in [k.saturating_sub(1), k, k + 1] {
                let top = top.min((1u64 << 53) - 1);
                for low in [0, 0x7ff] {
                    let word = top << 11 | low;
                    let mut x = [0.5];
                    // A mutating gene draws a second word for its perturbation.
                    polynomial_mutation(
                        &mut x,
                        &[(0.0, 1.0)],
                        p,
                        20.0,
                        &mut Script::new(vec![word, 0]),
                    );
                    let mut reference = [0.5];
                    reference_polynomial_mutation(
                        &mut reference,
                        &[(0.0, 1.0)],
                        p,
                        20.0,
                        &mut Script::new(vec![word, 0]),
                    );
                    assert_eq!(
                        x[0].to_bits(),
                        reference[0].to_bits(),
                        "p {p}, word {word:#x}"
                    );
                }
            }
        }
    }

    /// A scripted word source that counts the words read, so two runs can
    /// be compared on where they leave the stream.
    struct Script {
        words: Vec<u64>,
        read: usize,
    }

    impl Script {
        fn new(words: Vec<u64>) -> Self {
            Script { words, read: 0 }
        }
    }

    impl rand::RngCore for Script {
        fn next_u64(&mut self) -> u64 {
            let word = self.words[self.read];
            self.read += 1;
            word
        }
    }

    /// Runs [`sbx_crossover`] (on `scratch`) and the reference on the same
    /// script, and asserts equal children bits and equal words read.
    fn assert_sbx_matches_on_script(
        parent_a: &[f64],
        parent_b: &[f64],
        words: &[u64],
        scratch: &mut SbxScratch,
        case: &str,
    ) -> usize {
        let bounds = vec![(-1e300, 1e300); parent_a.len()];
        // Two spare words at the end: a run that reads past its genes reads
        // them and its count differs.
        let words = [words, &[u64::MAX, 0]].concat();
        let mut rng = Script::new(words.clone());
        let mut reference_rng = Script::new(words);
        let (a, b) = sbx_crossover(parent_a, parent_b, &bounds, 15.0, &mut rng, scratch);
        let (ref_a, ref_b) =
            reference_sbx_crossover(parent_a, parent_b, &bounds, 15.0, &mut reference_rng);
        assert_eq!(bits(&a), bits(&ref_a), "{case}: first child");
        assert_eq!(bits(&b), bits(&ref_b), "{case}: second child");
        assert_eq!(rng.read, reference_rng.read, "{case}: words read");
        rng.read
    }

    /// A spread word for gene `i`: both arms of the base, and `u` exactly
    /// 0.5 (the word `1 << 63`) and just on either side of it.
    fn spread(i: usize) -> u64 {
        match i % 5 {
            0 => 1 << 63,
            1 => (1 << 63) - (1 << 11),
            2 => (1 << 63) + (1 << 11),
            3 => 0x0123_4567_89ab_cdef,
            _ => 0xfedc_ba98_7654_3210,
        }
    }

    const CROSS: u64 = 1 << 63 | 0x5555;
    const COPY: u64 = 0x7fff_ffff_ffff_ffff;

    #[test]
    fn the_walk_reads_the_reference_words_at_the_edges_of_its_runs() {
        // One scratch for every case, longest genome first: what an earlier
        // call left in the buffers must not leak into a later one.
        let mut scratch = SbxScratch::new();
        for n in [608, 65, 64, 63, 2, 1] {
            let parent_a: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
            let parent_b: Vec<f64> = (0..n).map(|i| -1.0 - i as f64).collect();

            let every: Vec<u64> = (0..n).flat_map(|i| [CROSS, spread(i)]).collect();
            let read = assert_sbx_matches_on_script(
                &parent_a,
                &parent_b,
                &every,
                &mut scratch,
                &format!("n {n}, every gene crossing"),
            );
            assert_eq!(read, 2 * n);

            let none = vec![COPY; n];
            let read = assert_sbx_matches_on_script(
                &parent_a,
                &parent_b,
                &none,
                &mut scratch,
                &format!("n {n}, no gene crossing"),
            );
            assert_eq!(read, n);

            // Every coin set, but the parents are equal: no spread is read.
            let read = assert_sbx_matches_on_script(
                &parent_a,
                &parent_a,
                &vec![CROSS; n],
                &mut scratch,
                &format!("n {n}, equal parents"),
            );
            assert_eq!(read, n);

            // Only the last gene crosses: its spread is the one word drawn
            // outside a run.
            let mut last: Vec<u64> = vec![COPY; n - 1];
            last.extend([CROSS, spread(3)]);
            let read = assert_sbx_matches_on_script(
                &parent_a,
                &parent_b,
                &last,
                &mut scratch,
                &format!("n {n}, only the last gene crossing"),
            );
            assert_eq!(read, n + 1);

            // Every other gene crosses, starting with the first and with the
            // second.
            for phase in 0..2 {
                let words: Vec<u64> = (0..n)
                    .flat_map(|i| {
                        if i % 2 == phase {
                            vec![CROSS, spread(i)]
                        } else {
                            vec![COPY]
                        }
                    })
                    .collect();
                let read = assert_sbx_matches_on_script(
                    &parent_a,
                    &parent_b,
                    &words,
                    &mut scratch,
                    &format!("n {n}, alternate genes from {phase}"),
                );
                assert_eq!(read, words.len());
            }
        }
    }

    #[test]
    fn non_finite_parents_cross_as_in_the_reference() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let pairs = [
            (nan, 0.5),
            (0.5, nan),
            (nan, nan),
            (inf, 0.5),
            (-inf, 0.5),
            (inf, inf),
            (-inf, -inf),
            (inf, -inf),
            (0.5, 0.5),
        ];
        let mut scratch = SbxScratch::new();
        for (first, &(x1, x2)) in pairs.iter().enumerate() {
            // The pairs in turn, starting from each, so each one lands on
            // the last gene once.
            let (parent_a, parent_b): (Vec<f64>, Vec<f64>) = (0..pairs.len())
                .map(|i| pairs[(first + i) % pairs.len()])
                .unzip();
            for coins in [CROSS, COPY] {
                let words: Vec<u64> = (0..pairs.len()).flat_map(|i| [coins, spread(i)]).collect();
                assert_sbx_matches_on_script(
                    &parent_a,
                    &parent_b,
                    &words,
                    &mut scratch,
                    &format!("from ({x1}, {x2}), coins {coins:#x}"),
                );
            }
        }
    }

    #[test]
    fn moead_one_child_use_matches_the_reference() {
        // MOEA/D keeps the first child of each crossover and mutates only
        // it; the second child's genes are still computed but dropped.
        let mut cases = StdRng::seed_from_u64(47);
        let mut scratch = SbxScratch::new();
        for n in [23, 608] {
            let (parent_a, parent_b, bounds) = random_case(&mut cases, n);
            let mut rng = StdRng::seed_from_u64(cases.gen());
            let mut reference_rng = rng.clone();
            let p = 1.0 / n as f64;
            for _ in 0..20 {
                let (mut child, _) =
                    sbx_crossover(&parent_a, &parent_b, &bounds, 20.0, &mut rng, &mut scratch);
                polynomial_mutation(&mut child, &bounds, p, 20.0, &mut rng);
                let (mut reference, _) = reference_sbx_crossover(
                    &parent_a,
                    &parent_b,
                    &bounds,
                    20.0,
                    &mut reference_rng,
                );
                reference_polynomial_mutation(&mut reference, &bounds, p, 20.0, &mut reference_rng);
                assert_eq!(bits(&child), bits(&reference));
                assert_eq!(rng.state(), reference_rng.state());
            }
        }
    }
}

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
/// # Draw contract
///
/// With `p = mutation_probability.clamp(0, 1)`, the mutated genes are found
/// by skip sampling: the gap to the next one is drawn instead of one coin
/// per gene.
///
/// - `p = 0` draws nothing.
/// - `p = 1` draws no gaps: every gene is selected.
/// - `0 < p < 1`: `ln(1 − p)` is computed once per call as
///   `(-p).ln_1p()`, and each gap is `G = ⌊ln(1 − next_f64()) / ln(1 − p)⌋`
///   (the argument lies in `(0, 1]`, so `G ≥ 0` is geometric:
///   `P(G ≥ k) = (1 − p)^k`). From gene `i`, the next selected gene is
///   `i + G`. A gap that reaches past the last gene ends the call, and that
///   gap draw is the call's last; after the last gene is selected no further
///   gap is drawn. The gap is compared as an `f64` with the genes left
///   before it is converted, so a huge or infinite gap cannot overflow.
///
/// A selected gene whose bounds have positive width draws one perturbation
/// word `u` (as `next_f64()`) and moves by `delta · (upper − lower)`, then is
/// clamped; a zero-width gene draws no perturbation word. A call over `n`
/// genes reads about `2np + 1` words.
///
/// # Panics
///
/// Panics if `x` and `bounds` have different lengths, if
/// `mutation_probability` is NaN, or if a selected gene's bounds have a NaN
/// end.
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
    let exponent = 1.0 / (eta_m + 1.0);
    if p == 1.0 {
        for (xi, &bound) in x.iter_mut().zip(bounds) {
            perturb(xi, bound, exponent, rng);
        }
    } else if p > 0.0 {
        let log_q = (-p).ln_1p();
        let mut i = 0;
        while i < x.len() {
            let gap = (1.0 - rng.next_f64()).ln() / log_q;
            if gap >= (x.len() - i) as f64 {
                break;
            }
            i += gap as usize;
            perturb(&mut x[i], bounds[i], exponent, rng);
            i += 1;
        }
    }
}

/// Moves one selected gene by a polynomial perturbation of spread `exponent`
/// (`1 / (eta_m + 1)`) within `(lower, upper)`; a gene whose bounds have no
/// positive width stays and draws nothing.
fn perturb<R: Rng>(xi: &mut f64, (lower, upper): (f64, f64), exponent: f64, rng: &mut R) {
    let range = upper - lower;
    if range <= 0.0 {
        return;
    }
    let u = rng.next_f64();
    let delta = if u < 0.5 {
        (2.0 * u).powf(exponent) - 1.0
    } else {
        1.0 - (2.0 * (1.0 - u)).powf(exponent)
    };
    *xi = (*xi + delta * range).clamp(lower, upper);
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
    #[should_panic(expected = "either was NaN")]
    fn mutation_of_a_gene_with_a_nan_bound_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        polynomial_mutation(&mut [0.5], &[(f64::NAN, 1.0)], 1.0, 20.0, &mut rng);
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
    //! Equivalence tests for SBX: the `gen_bool`-based version it replaced,
    //! kept verbatim as a reference, and random parents that stress every
    //! case the integer coin and the branch-free walk must get right.
    //!
    //! A case mixes genes drawn inside their bounds, genes equal in both
    //! parents, genes within 1e-14 of each other (on both sides of the cut
    //! and exactly on it), genes outside their bounds and zero-width bounds,
    //! over a spread of distribution indices. Children are compared bit for
    //! bit, and the generators must end in the same state.
    //!
    //! Polynomial mutation is pinned by its draw contract instead: scripted
    //! word sources assert the children's bits and the words read at each
    //! edge of the skip sampling (no draw at `p = 0`, no gap at `p = 1`,
    //! gaps of 0, of the genes left and past them, zero-width genes,
    //! clamped probabilities), and a seeded test checks the mutated-gene
    //! counts against Binomial(n, p) and their positions against uniform.

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

    /// Random parents and bounds of `n` genes that hit every branch of SBX.
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
            let mut rng = StdRng::seed_from_u64(cases.gen());
            let mut reference_rng = rng.clone();
            let mut scratch = SbxScratch::new();
            for _ in 0..4 {
                let (a, b) =
                    sbx_crossover(&parent_a, &parent_b, &bounds, eta, &mut rng, &mut scratch);
                let (ref_a, ref_b) =
                    reference_sbx_crossover(&parent_a, &parent_b, &bounds, eta, &mut reference_rng);
                prop_assert_eq!(bits(&a), bits(&ref_a));
                prop_assert_eq!(bits(&b), bits(&ref_b));
                prop_assert_eq!(rng.state(), reference_rng.state());
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
        // MOEA/D keeps the first child of each crossover; the second
        // child's genes are still computed but dropped.
        let mut cases = StdRng::seed_from_u64(47);
        let mut scratch = SbxScratch::new();
        for n in [23, 608] {
            let (parent_a, parent_b, bounds) = random_case(&mut cases, n);
            let mut rng = StdRng::seed_from_u64(cases.gen());
            let mut reference_rng = rng.clone();
            for _ in 0..20 {
                let (child, _) =
                    sbx_crossover(&parent_a, &parent_b, &bounds, 20.0, &mut rng, &mut scratch);
                let (reference, _) = reference_sbx_crossover(
                    &parent_a,
                    &parent_b,
                    &bounds,
                    20.0,
                    &mut reference_rng,
                );
                assert_eq!(bits(&child), bits(&reference));
                assert_eq!(rng.state(), reference_rng.state());
            }
        }
    }

    /// [`polynomial_mutation`]'s move of one selected gene of positive width
    /// on the perturbation word `word`, as the gene-by-gene loop wrote it.
    fn moved(x: f64, (lower, upper): (f64, f64), eta_m: f64, word: u64) -> f64 {
        let u = (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let delta = if u < 0.5 {
            (2.0 * u).powf(1.0 / (eta_m + 1.0)) - 1.0
        } else {
            1.0 - (2.0 * (1.0 - u)).powf(1.0 / (eta_m + 1.0))
        };
        (x + delta * (upper - lower)).clamp(lower, upper)
    }

    /// A word whose gap at probability `p` is `gap`: `1 − u` is
    /// `(1 − p)^(gap + ½)`, halfway between the cuts of `gap` and `gap + 1`.
    fn gap_word(p: f64, gap: usize) -> u64 {
        let u = 1.0 - (1.0 - p).powf(gap as f64 + 0.5);
        let top = (u * (1u64 << 53) as f64) as u64;
        assert!(top < 1 << 53, "gap {gap} is beyond the word at p {p}");
        top << 11
    }

    /// Perturbation words: `u` of 0 (the gene moves to its lower bound),
    /// below ½, exactly ½ and above it, so both arms of `delta` are read.
    const PERTURB: [u64; 4] = [0, 0x3456_789a_bcde_f012, 1 << 63, 0xedcb_a987_6543_2100];

    /// Mutates `x` on a script of `words` (η = 20) and asserts that every
    /// word was read and that the children are `x` with each `(gene, word)`
    /// of `moves` applied, bit for bit.
    fn assert_mutation_on_script(
        x: &[f64],
        bounds: &[(f64, f64)],
        p: f64,
        words: &[u64],
        moves: &[(usize, u64)],
        case: &str,
    ) {
        let mut expected = x.to_vec();
        for &(gene, word) in moves {
            expected[gene] = moved(x[gene], bounds[gene], 20.0, word);
        }
        let mut child = x.to_vec();
        // Reading past the script panics on its index.
        let mut rng = Script::new(words.to_vec());
        polynomial_mutation(&mut child, bounds, p, 20.0, &mut rng);
        assert_eq!(bits(&child), bits(&expected), "{case}: children");
        assert_eq!(rng.read, words.len(), "{case}: words read");
    }

    /// Eight genes in `[-1, 3]`, one of them (gene 5) of zero width.
    fn contract_case() -> (Vec<f64>, Vec<(f64, f64)>) {
        let x = vec![0.25, -0.75, 1.5, 2.875, 0.0, 0.45, -1.0, 3.0];
        let mut bounds = vec![(-1.0, 3.0); 8];
        bounds[5] = (0.45, 0.45);
        (x, bounds)
    }

    #[test]
    fn mutation_at_probability_zero_reads_nothing() {
        let (x, bounds) = contract_case();
        for p in [0.0, -0.0] {
            assert_mutation_on_script(&x, &bounds, p, &[], &[], &format!("p {p}"));
        }
    }

    /// At `p = 1` on [`contract_case`]: the script of one perturbation word
    /// per positive-width gene, and the moves it makes.
    fn every_gene_script() -> (Vec<u64>, Vec<(usize, u64)>) {
        let genes = [0, 1, 2, 3, 4, 6, 7];
        let words: Vec<u64> = (0..genes.len()).map(|k| PERTURB[k % 4]).collect();
        let moves = genes.into_iter().zip(words.clone()).collect();
        (words, moves)
    }

    #[test]
    fn mutation_at_probability_one_reads_one_word_per_positive_width_gene() {
        let (x, bounds) = contract_case();
        let (words, moves) = every_gene_script();
        assert_mutation_on_script(&x, &bounds, 1.0, &words, &moves, "p 1");
    }

    #[test]
    fn a_first_gap_past_the_last_gene_ends_the_call_after_one_word() {
        let (x, bounds) = contract_case();
        // The largest word, and first gaps of exactly the genes left, one
        // more and many more.
        for p in [1.0 / 608.0, 0.01, 0.25, 0.5] {
            let mut words = vec![u64::MAX];
            if p < 0.5 {
                words.extend([gap_word(p, 8), gap_word(p, 9), gap_word(p, 100)]);
            }
            for word in words {
                assert_mutation_on_script(
                    &x,
                    &bounds,
                    p,
                    &[word],
                    &[],
                    &format!("p {p}, {word:#x}"),
                );
            }
        }
    }

    #[test]
    fn gaps_of_zero_the_genes_left_and_one_more() {
        let (x, bounds) = contract_case();
        let p = 0.25;
        let gap = |g| gap_word(p, g);
        // Gaps of 0: genes 0, 1 and 2 in turn; then 3 to gene 6; then a gap
        // of exactly the genes left (one), or one more, ends the call.
        for last in [1, 2] {
            assert_mutation_on_script(
                &x,
                &bounds,
                p,
                &[
                    gap(0),
                    PERTURB[0],
                    gap(0),
                    PERTURB[1],
                    gap(0),
                    PERTURB[2],
                    gap(3),
                    PERTURB[3],
                    gap(last),
                ],
                &[
                    (0, PERTURB[0]),
                    (1, PERTURB[1]),
                    (2, PERTURB[2]),
                    (6, PERTURB[3]),
                ],
                &format!("gaps 0, 0, 0, 3, then {last}"),
            );
        }
        // A gap of one less than the genes left selects the last gene, and
        // no gap is drawn after it.
        assert_mutation_on_script(
            &x,
            &bounds,
            p,
            &[gap(7), PERTURB[1]],
            &[(7, PERTURB[1])],
            "the last gene first",
        );
        assert_mutation_on_script(
            &x,
            &bounds,
            p,
            &[gap(3), PERTURB[2], gap(3), PERTURB[3]],
            &[(3, PERTURB[2]), (7, PERTURB[3])],
            "genes 3 and 7",
        );
        // Gaps exactly on an integer: at p = ½, `1 − u = 2⁻ᵏ` gives exactly
        // k. A gap of 3 selects gene 3; then 4, exactly the genes left, ends
        // the call; so does 8 as the first gap.
        let exact = |k: u32| {
            let word = ((1u64 << 53) - (1 << (53 - k))) << 11;
            let u = (word >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!((1.0 - u).ln() / (-0.5f64).ln_1p(), f64::from(k));
            word
        };
        assert_mutation_on_script(
            &x,
            &bounds,
            0.5,
            &[exact(3), PERTURB[1], exact(4)],
            &[(3, PERTURB[1])],
            "exact gaps 3, then 4",
        );
        assert_mutation_on_script(
            &x,
            &bounds,
            0.5,
            &[exact(8)],
            &[],
            "an exact first gap of 8",
        );
        // The largest word reads the gap at `1 − u = 2⁻⁵³`: 127 at p = 0.25,
        // and 1 just below p = 1.
        assert_mutation_on_script(
            &[0.5; 128],
            &[(0.0, 1.0); 128],
            p,
            &[u64::MAX, 0],
            &[(127, 0)],
            "gap 127",
        );
        assert_mutation_on_script(
            &[0.5; 2],
            &[(0.0, 1.0); 2],
            1.0 - f64::EPSILON,
            &[u64::MAX, 0],
            &[(1, 0)],
            "gap 1 at 1 − ε",
        );
    }

    #[test]
    fn a_selected_zero_width_gene_reads_no_perturbation_word() {
        let (x, bounds) = contract_case();
        for p in [0.01, 0.25, 0.5] {
            assert_mutation_on_script(
                &x,
                &bounds,
                p,
                &[gap_word(p, 5), gap_word(p, 0), PERTURB[1], gap_word(p, 1)],
                &[(6, PERTURB[1])],
                &format!("p {p}, gene 5 then 6"),
            );
        }
    }

    #[test]
    fn subnormal_and_out_of_range_probabilities_clamp() {
        let (x, bounds) = contract_case();
        // The smallest subnormal: `ln(1 − p)` is `−p`, and every word but
        // `u = 0` gives an infinite gap, which ends the call and is never
        // converted.
        let tiny = f64::from_bits(1);
        assert_eq!((-tiny).ln_1p(), -tiny);
        for word in [1 << 11, PERTURB[1], PERTURB[2], u64::MAX] {
            assert_mutation_on_script(&x, &bounds, tiny, &[word], &[], &format!("{word:#x}"));
        }
        // `u = 0` makes the argument 1 and the gap 0, at any `p`.
        assert_mutation_on_script(
            &x,
            &bounds,
            tiny,
            &[0, PERTURB[3], u64::MAX],
            &[(0, PERTURB[3])],
            "u = 0",
        );
        // Above 1 clamps to 1, and below 0 to 0.
        let (words, moves) = every_gene_script();
        for p in [1.0 + f64::EPSILON, 1.5, 1e300, f64::INFINITY] {
            assert_mutation_on_script(&x, &bounds, p, &words, &moves, &format!("p {p}"));
        }
        for p in [-tiny, -0.25, -1e300, f64::NEG_INFINITY] {
            assert_mutation_on_script(&x, &bounds, p, &[], &[], &format!("p {p}"));
        }
    }

    /// Counts mutated genes over `calls` seeded calls at `n` genes in
    /// `[0, 1]` from 0.5 (a mutated gene moves unless `u` is exactly ½).
    /// Returns the per-call counts and the per-position hit counts.
    fn mutation_counts(n: usize, p: f64, calls: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let bounds = vec![(0.0, 1.0); n];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = vec![0.5; n];
        let mut per_call = Vec::with_capacity(calls);
        let mut per_position = vec![0; n];
        for _ in 0..calls {
            polynomial_mutation(&mut x, &bounds, p, 20.0, &mut rng);
            let mut count = 0;
            for (hits, xi) in per_position.iter_mut().zip(x.iter_mut()) {
                if *xi != 0.5 {
                    *hits += 1;
                    count += 1;
                    *xi = 0.5;
                }
            }
            per_call.push(count);
        }
        (per_call, per_position)
    }

    #[test]
    fn mutated_gene_counts_follow_the_binomial_and_positions_are_uniform() {
        for n in [23usize, 608] {
            for p in [1.0 / n as f64, 0.1, 0.5] {
                let calls = if n == 23 { 40_000 } else { 8_000 };
                let (per_call, per_position) = mutation_counts(n, p, calls, 2_029);
                let c = calls as f64;
                let mean = per_call.iter().sum::<usize>() as f64 / c;
                let variance = per_call
                    .iter()
                    .map(|&k| (k as f64 - mean).powi(2))
                    .sum::<f64>()
                    / (c - 1.0);
                let (expected_mean, expected_variance) = (n as f64 * p, n as f64 * p * (1.0 - p));
                // Four standard errors of the mean and of the variance (the
                // binomial's excess kurtosis is below 1 here).
                let mean_error = 4.0 * (expected_variance / c).sqrt();
                assert!(
                    (mean - expected_mean).abs() <= mean_error,
                    "n {n}, p {p}: mean {mean} against {expected_mean} ± {mean_error}"
                );
                let variance_error = 4.0 * expected_variance * (3.0 / c).sqrt();
                assert!(
                    (variance - expected_variance).abs() <= variance_error,
                    "n {n}, p {p}: variance {variance} against {expected_variance} ± {variance_error}"
                );
                // Each position is hit Binomial(calls, p) times, independently.
                let chi_squared: f64 = per_position
                    .iter()
                    .map(|&hits| (hits as f64 - c * p).powi(2) / (c * p * (1.0 - p)))
                    .sum();
                let (df, spread) = (n as f64, 4.0 * (2.0 * n as f64).sqrt());
                assert!(
                    (chi_squared - df).abs() <= spread,
                    "n {n}, p {p}: χ² {chi_squared} over {n} positions"
                );
            }
        }
    }
}

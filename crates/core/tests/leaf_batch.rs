//! The analytic leaf oracle's batch path against per-candidate `evaluate`,
//! bit for bit: `LeafRedesignProblem::evaluate_batch` and
//! `UptakeModel::co2_uptakes` (tiles of 8 designs, the rest on the scalar
//! path) on batches of 0 to 17 designs in all six scenarios, on every
//! instance this CPU runs (without AVX2 its check prints a SKIPPED line);
//! a NaN, negative, infinite or wrong-length candidate anywhere in a batch
//! panics with `EnzymePartition::new`'s message; and the `Serial` and
//! `Threads(2)` executors score a batch alike. CI runs this file in
//! release too, where the tiles are vectorized.

use std::any::Any;
use std::io::Write;
use std::panic::{self, AssertUnwindSafe};

use pathway_core::LeafRedesignProblem;
use pathway_linalg::elementary::KernelInstance;
use pathway_moo::exec::Executor;
use pathway_moo::{EvalBackend, MultiObjectiveProblem};
use pathway_photosynthesis::{EnzymeKind, EnzymePartition, Scenario, UptakeModel};

/// SplitMix64 in `[0, 1)`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `n` designs of the search box, log-uniform, with every fifth one at an
/// edge: an enzyme at zero (its rate at the soft minimum's floor), or every
/// capacity far above the electron-transport ceiling.
fn designs(rng: &mut SplitMix64, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let mut x: Vec<f64> = EnzymeKind::ALL
                .iter()
                .map(|kind| kind.natural_capacity() * 0.02 * 200f64.powf(rng.next_unit()))
                .collect();
            match i % 10 {
                4 => x[(i * 7) % EnzymeKind::ALL.len()] = 0.0,
                9 => x.iter_mut().for_each(|c| *c *= 1e3),
                _ => {}
            }
            x
        })
        .collect()
}

/// The instances this CPU runs.
fn instances() -> Vec<KernelInstance> {
    if !KernelInstance::Avx2.runs() {
        let _ = writeln!(
            std::io::stderr(),
            "leaf_batch: SKIPPED the AVX2 tile instance: this CPU has no AVX2"
        );
        return vec![KernelInstance::Portable];
    }
    vec![KernelInstance::Portable, KernelInstance::Avx2]
}

/// The bits of every objective and violation.
fn bits(scored: &[(Vec<f64>, f64)]) -> Vec<u64> {
    scored
        .iter()
        .flat_map(|(objectives, violation)| {
            objectives.iter().chain([violation]).map(|v| v.to_bits())
        })
        .collect()
}

#[test]
fn batches_of_0_to_17_designs_score_as_evaluate_on_every_instance() {
    let model = UptakeModel::new();
    let mut rng = SplitMix64(0x1eaf_ba7c);
    for scenario in Scenario::all() {
        let problem = LeafRedesignProblem::new(scenario);
        for n in 0..=17 {
            let xs = designs(&mut rng, n);
            let expected: Vec<(Vec<f64>, f64)> =
                xs.iter().map(|x| (problem.evaluate(x), 0.0)).collect();
            assert_eq!(
                bits(&problem.evaluate_batch(&xs)),
                bits(&expected),
                "{scenario:?}, {n} designs: evaluate_batch"
            );
            for &kernels in &instances() {
                let uptakes = model.co2_uptakes(kernels, &xs, &scenario);
                let expected_uptakes: Vec<u64> = expected
                    .iter()
                    .map(|(objectives, _)| (-objectives[0]).to_bits())
                    .collect();
                assert_eq!(
                    uptakes.iter().map(|u| u.to_bits()).collect::<Vec<_>>(),
                    expected_uptakes,
                    "{scenario:?}, {n} designs, {kernels:?}: co2_uptakes"
                );
            }
        }
    }
}

/// The message of a panic's payload.
fn message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("a panic carries its message")
}

#[test]
fn a_bad_candidate_anywhere_in_a_batch_panics_as_enzyme_partition_new_does() {
    let problem = LeafRedesignProblem::new(Scenario::present_low_export());
    let model = UptakeModel::new();
    let mut rng = SplitMix64(0x0bad_1eaf);
    let mut bad_values: Vec<(&str, Vec<f64>)> = Vec::new();
    for (name, value) in [
        ("NaN", f64::NAN),
        ("negative", -1e-12),
        ("infinite", f64::INFINITY),
    ] {
        let mut x = designs(&mut rng, 1).remove(0);
        x[11] = value;
        bad_values.push((name, x));
    }
    let mut short = designs(&mut rng, 1).remove(0);
    short.pop();
    bad_values.push(("22 capacities", short));
    let mut long = designs(&mut rng, 1).remove(0);
    long.push(1.0);
    bad_values.push(("24 capacities", long));
    for (name, bad) in &bad_values {
        let expected = message(
            panic::catch_unwind(|| EnzymePartition::new(bad.clone()))
                .expect_err("EnzymePartition::new refuses it"),
        );
        // Inside the first tile, in the second, and past the last one.
        for position in [0, 5, 7, 8, 15, 16, 18] {
            let mut xs = designs(&mut rng, 19);
            xs[position] = bad.clone();
            let batch = panic::catch_unwind(AssertUnwindSafe(|| problem.evaluate_batch(&xs)));
            let batch = message(batch.expect_err("evaluate_batch refuses it"));
            assert_eq!(batch, expected, "{name} at {position}: evaluate_batch");
            for &kernels in &instances() {
                let uptakes = panic::catch_unwind(AssertUnwindSafe(|| {
                    model.co2_uptakes(kernels, &xs, problem.scenario())
                }));
                let uptakes = message(uptakes.expect_err("co2_uptakes refuses it"));
                assert_eq!(uptakes, expected, "{name} at {position}, {kernels:?}");
            }
        }
    }
}

#[test]
fn serial_and_threads_score_a_batch_alike() {
    let mut rng = SplitMix64(0x0007_ead5);
    for scenario in [
        Scenario::present_low_export(),
        Scenario::present_high_export(),
    ] {
        let problem = LeafRedesignProblem::new(scenario);
        let xs = designs(&mut rng, 203);
        let serial = Executor::new(EvalBackend::Serial).evaluate_batch(&problem, &xs);
        let pooled = Executor::new(EvalBackend::Threads(2)).evaluate_batch(&problem, &xs);
        let expected: Vec<(Vec<f64>, f64)> =
            xs.iter().map(|x| (problem.evaluate(x), 0.0)).collect();
        assert_eq!(bits(&serial), bits(&expected), "{scenario:?}: Serial");
        assert_eq!(bits(&pooled), bits(&expected), "{scenario:?}: Threads(2)");
    }
}

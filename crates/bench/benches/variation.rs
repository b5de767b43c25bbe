//! Cost of one variation: SBX crossover of a parent pair plus polynomial
//! mutation of both children, as NSGA-II breeds them.
//!
//! `geobacter/608` is a paper-scale Geobacter pair (608 genes, 60% of them
//! differing between the parents, the rest equal, as on a converged
//! front); `leaf/23` is a leaf-redesign pair (23 genes, all differing). Each
//! sample runs the operators 200 times on one generator and one
//! [`SbxScratch`], so the per-call cost is the reported time / 200.
//!
//! A microbenchmark alone is not a speed claim: a change to these
//! operators is judged by the study's own profile (`pathway profile-diff`)
//! and the benchmark's `gen_cpu_ms_p50` on `geobacter-608`.
//!
//! Set `PATHWAY_BENCH_PROFILE=quick` for fewer samples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_moo::{polynomial_mutation, sbx_crossover, SbxScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Variations per sample.
const ROUNDS: usize = 200;

/// A parent pair of `n` genes in `[0, 1]`, a share `differing` of them
/// differing.
fn parents(n: usize, differing: f64, rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    (0..n)
        .map(|_| {
            let x: f64 = rng.gen();
            if rng.gen_bool(differing) {
                (x, rng.gen())
            } else {
                (x, x)
            }
        })
        .unzip()
}

fn bench_variation(c: &mut Criterion) {
    let sample_size = match std::env::var("PATHWAY_BENCH_PROFILE").as_deref() {
        Ok("quick") => 5,
        _ => 30,
    };
    let mut group = c.benchmark_group("variation");
    group.sample_size(sample_size);
    for (name, n, differing) in [("geobacter", 608usize, 0.6), ("leaf", 23, 1.0)] {
        let mut setup = StdRng::seed_from_u64(3);
        let (parent_a, parent_b) = parents(n, differing, &mut setup);
        let bounds = vec![(0.0, 1.0); n];
        let mutation_probability = 1.0 / n as f64;
        group.bench_function(BenchmarkId::new(name, n), |b| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut scratch = SbxScratch::new();
            b.iter(|| {
                let mut checksum = 0.0;
                for _ in 0..ROUNDS {
                    let (mut child_a, mut child_b) =
                        sbx_crossover(&parent_a, &parent_b, &bounds, 15.0, &mut rng, &mut scratch);
                    polynomial_mutation(
                        &mut child_a,
                        &bounds,
                        mutation_probability,
                        20.0,
                        &mut rng,
                    );
                    polynomial_mutation(
                        &mut child_b,
                        &bounds,
                        mutation_probability,
                        20.0,
                        &mut rng,
                    );
                    checksum += child_a[n - 1] + child_b[0];
                }
                checksum
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_variation);
criterion_main!(benches);

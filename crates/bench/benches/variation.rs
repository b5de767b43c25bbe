//! Cost of one variation: SBX crossover of a parent pair plus polynomial
//! mutation of both children, as NSGA-II breeds them; of one polynomial
//! mutation alone; and of SBX's two vector kernels alone, on each compiled
//! instance.
//!
//! `geobacter/608` is a paper-scale Geobacter pair: 608 genes, 73% of them
//! differing between the parents and the rest equal. The share is the one
//! counted over every SBX call of a `geobacter-608` benchmark run at seed 1
//! on SBX's previous stream (74%; half of the differing genes cross). It
//! depends on the search trajectory: 58–74% over seeds 1–2 on either
//! stream. `leaf/23` is a leaf-redesign pair (23 genes, all differing).
//! Each sample runs the operators 200 times on one generator, one
//! [`SbxScratch`] and one pair of child buffers (SBX writes the children in
//! place, as NSGA-II's recycled genomes take them), so the per-call cost is
//! the reported time / 200. `mutation/608` and `mutation/23` time
//! `polynomial_mutation` alone at `p = 1/n`, 200 calls per sample on a copy
//! of the pair's first parent mutated in place.
//!
//! The kernel stages, 200 calls per sample, each pinned to one
//! [`KernelInstance`] instance (`portable`, and `avx2` on a CPU that has it):
//! `differ_mask/<instance>/608` packs the geobacter pair's differ mask,
//! 64 genes per call as SBX does; `spread_kernel/<instance>/228` turns 228
//! spreads (a geobacter pair's crossing genes) into spread factors.
//!
//! A microbenchmark alone is not a speed claim: a change to these
//! operators is judged by the study's own profile (`pathway profile-diff`)
//! and the benchmark's `gen_cpu_ms_p50` on `geobacter-608`.
//!
//! Set `PATHWAY_BENCH_PROFILE=quick` for fewer samples.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_linalg::elementary::KernelInstance;
use pathway_moo::{
    polynomial_mutation, sbx_crossover, sbx_differ_mask, sbx_spread_factors, SbxScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Variations (or mutations, or kernel calls) per sample.
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

/// The instances this CPU runs, by name; says on stderr which it skips.
fn instances() -> Vec<(&'static str, KernelInstance)> {
    let mut instances = vec![("portable", KernelInstance::Portable)];
    if KernelInstance::Avx2.runs() {
        instances.push(("avx2", KernelInstance::Avx2));
    } else {
        eprintln!("variation: SKIPPED the AVX2 kernel instance: this CPU has no AVX2");
    }
    instances
}

fn bench_variation(c: &mut Criterion) {
    let sample_size = match std::env::var("PATHWAY_BENCH_PROFILE").as_deref() {
        Ok("quick") => 5,
        _ => 30,
    };
    let mut group = c.benchmark_group("variation");
    group.sample_size(sample_size);
    for (name, n, differing) in [("geobacter", 608usize, 0.73), ("leaf", 23, 1.0)] {
        let mut setup = StdRng::seed_from_u64(3);
        let (parent_a, parent_b) = parents(n, differing, &mut setup);
        let bounds = vec![(0.0, 1.0); n];
        let mutation_probability = 1.0 / n as f64;
        group.bench_function(BenchmarkId::new(name, n), |b| {
            let mut rng = StdRng::seed_from_u64(11);
            let mut scratch = SbxScratch::new();
            let (mut child_a, mut child_b) = (vec![0.0; n], vec![0.0; n]);
            b.iter(|| {
                let mut checksum = 0.0;
                for _ in 0..ROUNDS {
                    sbx_crossover(
                        &parent_a,
                        &parent_b,
                        &bounds,
                        15.0,
                        &mut rng,
                        &mut scratch,
                        (&mut child_a, &mut child_b),
                    );
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
        group.bench_function(BenchmarkId::new("mutation", n), |b| {
            let mut rng = StdRng::seed_from_u64(13);
            let mut child = parent_a.clone();
            b.iter(|| {
                for _ in 0..ROUNDS {
                    polynomial_mutation(&mut child, &bounds, mutation_probability, 20.0, &mut rng);
                }
                child[n - 1]
            });
        });
    }

    let mut setup = StdRng::seed_from_u64(3);
    let (parent_a, parent_b) = parents(608, 0.73, &mut setup);
    let spreads: Vec<f64> = (0..228).map(|_| setup.gen()).collect();
    for (instance, kernels) in instances() {
        group.bench_function(
            BenchmarkId::new(format!("differ_mask/{instance}"), 608),
            |b| {
                b.iter(|| {
                    let mut checksum = 0u64;
                    for _ in 0..ROUNDS {
                        for (chunk_a, chunk_b) in parent_a.chunks(64).zip(parent_b.chunks(64)) {
                            checksum ^= sbx_differ_mask(kernels, chunk_a, chunk_b);
                        }
                    }
                    checksum
                });
            },
        );
        group.bench_function(
            BenchmarkId::new(format!("spread_kernel/{instance}"), spreads.len()),
            |b| {
                let mut betas = spreads.clone();
                b.iter(|| {
                    let mut checksum = 0.0;
                    for _ in 0..ROUNDS {
                        betas.copy_from_slice(&spreads);
                        sbx_spread_factors(kernels, &mut betas, 15.0);
                        checksum += betas[betas.len() - 1];
                    }
                    checksum
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_variation);
criterion_main!(benches);

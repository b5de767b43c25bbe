//! Sweep grid expansion cost versus cell count.
//!
//! `SweepSpec::from_text` expands and validates the *whole* grid up front
//! (every cell is the template with its axis values applied through the
//! spec's key tables, then validated) and keeps the cells, so its cost
//! scales with the product of the axis lengths and is all a caller pays
//! for a sweep's cells. This bench pins that cost so the up-front
//! expansion stays cheap next to even a single cell's run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathway_moo::engine::SweepSpec;

/// A kind x problem x seed grid with `seeds` seeds: 3 x 2 x seeds cells.
fn sweep_text(seeds: usize) -> String {
    let seed_axis = (1..=seeds)
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(" | ");
    format!(
        "pathway-sweep v1\n\n\
         [sweep]\n\
         optimizer.kind = nsga2 | moead | archipelago\n\
         problem.name = schaffer | zdt1\n\
         run.seed = {seed_axis}\n\n\
         [problem]\nname = schaffer\n\n\
         [optimizer]\nkind = nsga2\npopulation = 24\nbackend = serial\n\n\
         [run]\nseed = 1\ncheckpoint_every = 20\nreference_point = 25, 25\n\n\
         [stop]\nmax_generations = 60\n"
    )
}

fn bench_sweep_expand(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_expand");
    group.sample_size(20);
    for &seeds in &[2usize, 16, 64] {
        let text = sweep_text(seeds);
        let cells = 3 * 2 * seeds;
        // Parse + whole-grid expansion, as `pathway sweep` pays it for its
        // cells.
        group.bench_with_input(BenchmarkId::new("from_text", cells), &text, |b, text| {
            b.iter(|| SweepSpec::from_text(text).unwrap().cells().len());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep_expand);
criterion_main!(benches);
